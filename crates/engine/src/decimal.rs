//! Number rendering for CSV rows without `core::fmt`.
//!
//! [`RowBuf`] gathers one row in a stack buffer and hands it to the
//! caller's `fmt::Write` in one `write_str`. Integers go in through a
//! digit loop; [`RowBuf::f64`] writes exactly the bytes `{}` `Display`
//! writes for an `f64`: the shortest decimal that reads back to the
//! same double, laid out without an exponent. The digits come from Ryu
//! (Adams, "Ryū: fast float-to-string conversion", PLDI 2018), with two
//! departures that make it agree with std:
//!
//! * **Ties round up.** When the two shortest candidates are exactly
//!   equidistant from the double, std's Grisu/Dragon path keeps the
//!   upper one (`981446413237567.25` prints as `…567.3`); textbook Ryu
//!   rounds half-even there, so that step is left out.
//! * **A fast window.** Finite normal doubles whose layout fits
//!   [`FLOAT_MAX`] bytes take this path. ±0, subnormals, NaN, ±inf and
//!   longer layouts (`1e300` prints 301 digits) go through
//!   `write!(row, "{v}")`.
//!
//! The 5^k multiplier tables are computed at compile time from exact
//! big-integer arithmetic; none of their entries is typed in. The
//! oracle is std itself: `crates/engine/tests/csv_floats.rs` compares
//! rows byte for byte against `format!`.

use std::fmt::{self, Write as _};

/// Bytes gathered before a flush: a typical row is about 60.
const CAP: usize = 128;

/// The longest float layout the fast path writes: 17 significant
/// digits, a sign, a point and up to 21 padding zeros.
const FLOAT_MAX: usize = 40;

/// A row under construction: fields go into a stack buffer, which
/// reaches `out` when it fills up and at [`RowBuf::finish`].
pub(crate) struct RowBuf<'a, W: fmt::Write> {
    out: &'a mut W,
    buf: [u8; CAP],
    len: usize,
}

impl<'a, W: fmt::Write> RowBuf<'a, W> {
    pub(crate) fn new(out: &'a mut W) -> Self {
        RowBuf { out, buf: [0; CAP], len: 0 }
    }

    /// Writes what is still buffered.
    pub(crate) fn finish(mut self) -> fmt::Result {
        self.flush()
    }

    fn flush(&mut self) -> fmt::Result {
        let text = std::str::from_utf8(&self.buf[..self.len]).expect("whole strs and ASCII");
        self.len = 0;
        self.out.write_str(text)
    }

    /// Makes room for `n` more bytes (`n ≤ CAP`).
    fn reserve(&mut self, n: usize) -> fmt::Result {
        if self.len + n > CAP {
            self.flush()?;
        }
        Ok(())
    }

    pub(crate) fn byte(&mut self, b: u8) -> fmt::Result {
        debug_assert!(b.is_ascii());
        self.reserve(1)?;
        self.buf[self.len] = b;
        self.len += 1;
        Ok(())
    }

    /// Writes `v` exactly as `write!(out, "{v}")` does.
    pub(crate) fn u64(&mut self, v: u64) -> fmt::Result {
        self.reserve(20)?;
        let end = self.len + decimal_len(v);
        write_digits(&mut self.buf[..end], v);
        self.len = end;
        Ok(())
    }

    /// Writes `v` exactly as `write!(out, "{v}")` does.
    pub(crate) fn i64(&mut self, v: i64) -> fmt::Result {
        if v < 0 {
            self.byte(b'-')?;
        }
        self.u64(v.unsigned_abs())
    }

    /// Writes `v` exactly as `write!(out, "{v}")` does.
    pub(crate) fn f64(&mut self, v: f64) -> fmt::Result {
        let bits = v.to_bits();
        let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
        let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
        if ieee_exponent == 0 || ieee_exponent == 0x7ff {
            // ±0 and subnormals, then NaN and ±inf.
            return write!(self, "{v}");
        }
        let (digits, exp10) = shortest(ieee_mantissa, ieee_exponent);
        self.reserve(FLOAT_MAX)?;
        let dst: &mut [u8; FLOAT_MAX] =
            (&mut self.buf[self.len..self.len + FLOAT_MAX]).try_into().expect("reserved");
        match layout(dst, v.is_sign_negative(), digits, exp10) {
            Some(n) => {
                self.len += n;
                Ok(())
            }
            None => write!(self, "{v}"),
        }
    }
}

impl<W: fmt::Write> fmt::Write for RowBuf<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if s.len() > CAP {
            self.flush()?;
            return self.out.write_str(s);
        }
        self.reserve(s.len())?;
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
        Ok(())
    }
}

/// 10^0 ..= 10^19.
static POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// "00" to "99", two bytes each.
static PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// The number of decimal digits of `v` (1 for 0).
fn decimal_len(v: u64) -> usize {
    // 1233 / 4096 ≈ log10(2); the guess is exact or one short.
    let v = v | 1;
    let guess = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    guess + (v >= POW10[guess]) as usize
}

/// Writes the decimal digits of `v` so that they end `buf`: four
/// digits per 64-bit division, then two per table lookup.
fn write_digits(buf: &mut [u8], mut v: u64) {
    let mut i = buf.len();
    while v >= 10_000 {
        let c = (v % 10_000) as usize;
        v /= 10_000;
        buf[i - 4..i - 2].copy_from_slice(&PAIRS[2 * (c / 100)..][..2]);
        buf[i - 2..i].copy_from_slice(&PAIRS[2 * (c % 100)..][..2]);
        i -= 4;
    }
    let mut c = v as usize;
    while c >= 100 {
        buf[i - 2..i].copy_from_slice(&PAIRS[2 * (c % 100)..][..2]);
        c /= 100;
        i -= 2;
    }
    if c >= 10 {
        buf[i - 2..i].copy_from_slice(&PAIRS[2 * c..][..2]);
    } else {
        buf[i - 1] = b'0' + c as u8;
    }
}

/// Lays out `digits × 10^exp10` the way `Display` does — `0.000ddd`,
/// `dd.ddd` or `ddd000`, never an exponent — at the start of `dst` and
/// returns its length, or `None` when it is longer than `dst`.
fn layout(dst: &mut [u8; FLOAT_MAX], negative: bool, digits: u64, exp10: i32) -> Option<usize> {
    let n = decimal_len(digits) as i32;
    // Digits before the decimal point; ≤ 0 means "0." and -point zeros.
    let point = n + exp10;
    let body = if point <= 0 {
        2 - point + n
    } else if point < n {
        n + 1
    } else {
        point
    };
    let sign = negative as usize;
    let len = sign + body as usize;
    if len > FLOAT_MAX {
        return None;
    }
    // Every padding zero is already in place.
    dst.fill(b'0');
    if negative {
        dst[0] = b'-';
    }
    let s = &mut dst[sign..];
    if point <= 0 {
        s[1] = b'.';
        write_digits(&mut s[..body as usize], digits);
    } else if point < n {
        // All digits first, then the fraction moves one place right.
        let p = point as usize;
        write_digits(&mut s[..n as usize], digits);
        let frac: [u8; 17] = s[p..p + 17].try_into().expect("n ≤ 17 leaves room");
        s[p + 1..p + 18].copy_from_slice(&frac);
        s[p] = b'.';
    } else {
        write_digits(&mut s[..n as usize], digits);
    }
    Some(len)
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_LEN: usize = 342;
const POW5_LEN: usize = 326;

/// `floor(2^j / 5^q) + 1` with `j = bitlen(5^q) - 1 + 125`: a 125-bit
/// over-approximation of 5^-q, for doubles with `e2 ≥ 0`.
static POW5_INV_SPLIT: [u128; POW5_INV_LEN] = pow5_inv_table();
/// The top 125 bits of 5^i (shifted left when shorter), for `e2 < 0`.
static POW5_SPLIT: [u128; POW5_LEN] = pow5_table();

/// Little-endian 64-bit limbs: room for 2^1024, the numerator the
/// inverse table divides.
const LIMBS: usize = 17;
type Big = [u64; LIMBS];

const fn bit_len(x: &Big) -> i32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return (i as i32) * 64 + 64 - x[i].leading_zeros() as i32;
        }
    }
    0
}

/// `x >> s` truncated to 128 bits; a negative `s` shifts left, which
/// the tables only ask of values shorter than 125 bits.
const fn shr_to_u128(x: &Big, s: i32) -> u128 {
    if s <= 0 {
        return (x[0] as u128 | (x[1] as u128) << 64) << (-s) as u32;
    }
    let (limb, off) = ((s / 64) as usize, (s % 64) as u32);
    let mut out = 0u128;
    let mut k = 0;
    while k < 3 && limb + k < LIMBS {
        let word = x[limb + k] as u128;
        let at = 64 * k as i32 - off as i32;
        if at >= 0 {
            if at < 128 {
                out |= word << at as u32;
            }
        } else {
            out |= word >> (-at) as u32;
        }
        k += 1;
    }
    out
}

const fn mul_small(mut x: Big, m: u64) -> Big {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let p = x[i] as u128 * m as u128 + carry;
        x[i] = p as u64;
        carry = p >> 64;
        i += 1;
    }
    x
}

const fn div_small(mut x: Big, d: u64) -> Big {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = rem << 64 | x[i] as u128;
        x[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    x
}

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        table[i] = shr_to_u128(&pow, bit_len(&pow) - POW5_BITCOUNT);
        pow = mul_small(pow, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    const B: i32 = 1024;
    let mut table = [0u128; POW5_INV_LEN];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    // floor(2^B / 5^i), kept exact by floor(floor(a/b)/c) = floor(a/bc).
    let mut inv: Big = [0; LIMBS];
    inv[LIMBS - 1] = 1;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let j = bit_len(&pow) - 1 + POW5_INV_BITCOUNT;
        table[i] = shr_to_u128(&inv, B - j) + 1;
        pow = mul_small(pow, 5);
        inv = div_small(inv, 5);
        i += 1;
    }
    table
}

/// `ceil(log2(5^e))` for `e ≥ 1` (and 1 for `e = 0`), for `e ≤ 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78913) >> 18
}

/// `floor(log10(5^e))` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

fn mul_shift_64(m: u64, mul: u128, j: i32) -> u64 {
    let b0 = m as u128 * (mul as u64) as u128;
    let b2 = m as u128 * (mul >> 64);
    (((b0 >> 64) + b2) >> (j - 64)) as u64
}

/// The shortest `(digits, exp10)` with `digits × 10^exp10` inside the
/// rounding interval of the normal double with these IEEE fields, the
/// closest such when there are several, ties rounded up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let e2 = ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2;
    let m2 = (1u64 << MANTISSA_BITS) | ieee_mantissa;
    let accept_bounds = m2 & 1 == 0;

    // The interval [mm, mp] around mv, all scaled by 4.
    let mv = 4 * m2;
    let mm_shift = (ieee_mantissa != 0 || ieee_exponent <= 1) as u64;
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Ryu also tracks whether vr is exact, only to round exact ties
    // half-even; std rounds them up like any other removed 5.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - (e2 > 3) as u32;
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift_64(mv, mul, j);
        vp = mul_shift_64(mp, mul, j);
        vm = mul_shift_64(mm, mul, j);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= multiple_of_power_of_5(mp, q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift_64(mv, mul, j);
        vp = mul_shift_64(mp, mul, j);
        vm = mul_shift_64(mm, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift has a trailing zero bit iff mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal;
    // an included lower bound ending in zeros may drop more.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed_digit = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_trailing_zeros {
        while vm % 10 == 0 {
            last_removed_digit = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // vr + 1 when vr is an excluded bound or the removed digits round up.
    let outside = vr == vm && !(accept_bounds && vm_is_trailing_zeros);
    (vr + (outside || last_removed_digit >= 5) as u64, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_bit_lengths_match_the_pow5bits_estimate() {
        let mut pow: Big = [0; LIMBS];
        pow[0] = 1;
        for i in 0..POW5_INV_LEN as i32 {
            assert_eq!(bit_len(&pow), pow5bits(i), "5^{i}");
            pow = mul_small(pow, 5);
        }
    }

    #[test]
    fn table_entries_are_125_bit_approximations() {
        // 5^0: exactly 2^124; its inverse 2^125 / 1 + 1.
        assert_eq!(POW5_SPLIT[0], 1 << 124);
        assert_eq!(POW5_INV_SPLIT[0], (1 << 125) + 1);
        // Small powers are exact, shifted left to 125 bits.
        assert_eq!(POW5_SPLIT[3], 125 << (125 - 7));
        assert_eq!(POW5_INV_SPLIT[1], (1u128 << 127) / 5 + 1);
        for (i, &e) in POW5_SPLIT.iter().enumerate() {
            assert_eq!(128 - e.leading_zeros(), 125, "POW5_SPLIT[{i}]");
        }
        for (i, &e) in POW5_INV_SPLIT.iter().enumerate() {
            assert!((125..=126).contains(&(128 - e.leading_zeros())), "POW5_INV_SPLIT[{i}]");
        }
    }

    #[test]
    fn shortest_digits_of_familiar_values() {
        let digits = |v: f64| {
            let bits = v.to_bits();
            shortest(bits & ((1 << MANTISSA_BITS) - 1), (bits >> MANTISSA_BITS) as u32 & 0x7ff)
        };
        assert_eq!(digits(1.0), (1, 0));
        assert_eq!(digits(0.1), (1, -1));
        assert_eq!(digits(123456.789), (123456789, -3));
        assert_eq!(digits(1e21), (1, 21));
        // Exactly representable; the tie between …567.2 and …567.3 rounds up.
        #[allow(clippy::excessive_precision)]
        let tie = 981446413237567.25;
        assert_eq!(digits(tie), (9814464132375673, -1));
    }

    #[test]
    fn decimal_len_at_every_power_of_ten() {
        assert_eq!(decimal_len(0), 1);
        for (k, &p) in POW10.iter().enumerate() {
            assert_eq!(decimal_len(p), k + 1, "10^{k}");
            assert_eq!(decimal_len(p - 1), k.max(1), "10^{k} - 1");
        }
        assert_eq!(decimal_len(u64::MAX), 20);
    }

    #[test]
    fn rows_longer_than_the_buffer_flush_in_order() {
        let long = "t".repeat(CAP + 5);
        let (mut got, mut want) = (String::new(), String::new());
        let mut row = RowBuf::new(&mut got);
        for k in 0..40u64 {
            let (i, f) = (i64::MIN + k as i64, -(k as f64) * 0.1);
            row.i64(i).unwrap();
            row.byte(b',').unwrap();
            row.u64(u64::MAX - k).unwrap();
            row.f64(f).unwrap();
            row.f64(1e300).unwrap();
            row.write_str(&long[..k as usize * 3]).unwrap();
            write!(want, "{i},{}{f}{}{}", u64::MAX - k, 1e300, &long[..k as usize * 3]).unwrap();
        }
        row.write_str(&long).unwrap();
        row.finish().unwrap();
        want.push_str(&long);
        assert_eq!(got, want);
    }
}
