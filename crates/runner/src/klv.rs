//! The KLV (key-length-value) wire framing — the lowest layer of the
//! engine-runner protocol (DESIGN.md §15).
//!
//! One frame on the wire is
//!
//! ```text
//! <key> ':' <len> ':' <value bytes> '\n'
//! ```
//!
//! where `key` is 1–64 bytes of `[a-z0-9_.-]`, `len` is the ASCII
//! decimal byte length of `value` (at most [`MAX_VALUE_LEN`]), and the
//! trailing newline terminates the frame. The format is deliberately
//! trivial: any language that can read stdin byte-exactly can speak it,
//! values may contain arbitrary bytes (including newlines — the length
//! prefix, not the terminator, delimits them), and a human can read a
//! captured stream. This mirrors the design of rebar's KLV runner
//! format, which demonstrated that a benchmark harness can stay
//! completely ignorant of the engines it measures.
//!
//! Framing is strict by design — a benchmark harness that guesses its
//! way past a malformed stream turns protocol bugs into silent data
//! corruption, the exact failure mode the methodology exists to ban.
//! Every violation is a typed [`FrameError`]. Forward compatibility
//! lives one layer up: *well-formed* frames with unknown keys are
//! skipped by the protocol layer, so a v1 harness survives a v1.1
//! engine that emits extra frame kinds.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Hard ceiling on a frame's value length (1 MiB). Rejecting the
/// length *before* allocating means a corrupt or hostile length field
/// cannot make the harness allocate unbounded memory.
pub const MAX_VALUE_LEN: usize = 1 << 20;

/// Hard ceiling on a frame's key length.
pub const MAX_KEY_LEN: usize = 64;

/// One KLV frame: a short ASCII key and an arbitrary byte value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind, `[a-z0-9_.-]{1,64}`.
    pub key: String,
    /// Payload bytes (may be empty, may contain any byte).
    pub value: Vec<u8>,
}

impl Frame {
    /// A frame with a UTF-8 payload.
    pub(crate) fn text(key: &str, value: impl Into<String>) -> Frame {
        Frame { key: key.to_string(), value: value.into().into_bytes() }
    }

    /// An empty-payload frame.
    pub(crate) fn empty(key: &str) -> Frame {
        Frame { key: key.to_string(), value: Vec::new() }
    }

    /// The payload as UTF-8 text (lossy — diagnostics only).
    pub(crate) fn value_text(&self) -> String {
        String::from_utf8_lossy(&self.value).into_owned()
    }
}

/// A framing violation. Carries enough context to say *what* byte
/// sequence was rejected, because "protocol error" with no detail is a
/// stringly error by another name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying reader/writer failed.
    Io(String),
    /// The key was empty, too long, or contained a byte outside
    /// `[a-z0-9_.-]`.
    BadKey {
        /// The offending key, rendered.
        got: String,
    },
    /// The length field was not a plain ASCII decimal.
    BadLength {
        /// The offending length field, rendered.
        got: String,
    },
    /// The length field exceeded [`MAX_VALUE_LEN`].
    Oversized {
        /// Claimed length.
        len: usize,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The stream ended inside a frame (header or value): the peer died
    /// mid-write or the stream was cut.
    Truncated {
        /// What was being read when the stream ended.
        while_reading: &'static str,
    },
    /// The byte after the value was not the `'\n'` terminator — the
    /// length field and the actual payload disagree.
    MissingTerminator {
        /// The byte found instead.
        got: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O failure: {e}"),
            FrameError::BadKey { got } => {
                write!(f, "bad frame key {got:?} (want 1-{MAX_KEY_LEN} bytes of [a-z0-9_.-])")
            }
            FrameError::BadLength { got } => {
                write!(f, "bad frame length field {got:?} (want ASCII decimal)")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame value length {len} exceeds the {max}-byte ceiling")
            }
            FrameError::Truncated { while_reading } => {
                write!(f, "stream ended mid-frame (while reading {while_reading})")
            }
            FrameError::MissingTerminator { got } => {
                write!(
                    f,
                    "frame value not followed by newline (got byte 0x{got:02x}); \
                     length field and payload disagree"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

/// Whether `key` is a legal frame key.
pub(crate) fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= MAX_KEY_LEN
        && key.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'_' | b'.' | b'-')
        })
}

/// Writes one frame. Does not flush — callers batch frames and flush
/// once per protocol turn.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), FrameError> {
    if !valid_key(&frame.key) {
        return Err(FrameError::BadKey { got: frame.key.clone() });
    }
    if frame.value.len() > MAX_VALUE_LEN {
        return Err(FrameError::Oversized { len: frame.value.len(), max: MAX_VALUE_LEN });
    }
    write!(w, "{}:{}:", frame.key, frame.value.len())?;
    w.write_all(&frame.value)?;
    w.write_all(b"\n")?;
    Ok(())
}

/// Reads one frame, or `None` on a clean end-of-stream (EOF exactly at
/// a frame boundary). EOF anywhere *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Frame>, FrameError> {
    // Key: bytes up to ':'. Reading byte-wise through BufRead is fine
    // here — frames are tiny next to the measurements they carry.
    let key = match read_until_colon(r, "key")? {
        None => return Ok(None),
        Some(bytes) => bytes,
    };
    let key = String::from_utf8(key.clone())
        .ok()
        .filter(|k| valid_key(k))
        .ok_or_else(|| FrameError::BadKey { got: String::from_utf8_lossy(&key).into_owned() })?;
    let len_bytes =
        read_until_colon(r, "length")?.ok_or(FrameError::Truncated { while_reading: "length" })?;
    let len_text = String::from_utf8_lossy(&len_bytes).into_owned();
    if len_bytes.is_empty() || !len_bytes.iter().all(u8::is_ascii_digit) || len_bytes.len() > 8 {
        return Err(FrameError::BadLength { got: len_text });
    }
    let len: usize =
        len_text.parse().map_err(|_| FrameError::BadLength { got: len_text.clone() })?;
    if len > MAX_VALUE_LEN {
        return Err(FrameError::Oversized { len, max: MAX_VALUE_LEN });
    }
    let mut value = vec![0u8; len];
    read_exact_or_truncated(r, &mut value, "value")?;
    let mut terminator = [0u8; 1];
    read_exact_or_truncated(r, &mut terminator, "terminator")?;
    if terminator[0] != b'\n' {
        return Err(FrameError::MissingTerminator { got: terminator[0] });
    }
    Ok(Some(Frame { key, value }))
}

/// Reads bytes up to (consuming) the next `':'`. `None` on EOF before
/// any byte; `Truncated` on EOF after at least one byte. The field is
/// capped at `MAX_KEY_LEN + 1` bytes — keys and length fields are
/// short, so a missing colon must not buffer the whole stream.
fn read_until_colon(
    r: &mut impl BufRead,
    while_reading: &'static str,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut out = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                return if out.is_empty() {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated { while_reading })
                }
            }
            _ => {
                if byte[0] == b':' {
                    return Ok(Some(out));
                }
                out.push(byte[0]);
                if out.len() > MAX_KEY_LEN + 1 {
                    // Bail before buffering garbage: neither field is
                    // ever this long in a legal frame.
                    return match while_reading {
                        "key" => Err(FrameError::BadKey {
                            got: String::from_utf8_lossy(&out).into_owned(),
                        }),
                        _ => Err(FrameError::BadLength {
                            got: String::from_utf8_lossy(&out).into_owned(),
                        }),
                    };
                }
            }
        }
    }
}

fn read_exact_or_truncated(
    r: &mut impl BufRead,
    buf: &mut [u8],
    while_reading: &'static str,
) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated { while_reading }
        } else {
            FrameError::Io(e.to_string())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        for frame in [
            Frame::empty("ready"),
            Frame::text("hello", "charm-klv/1"),
            Frame::text("meta", "cpu=opteron"),
            Frame { key: "observation".into(), value: b"value=12.5\nstart_us=3".to_vec() },
            Frame { key: "blob".into(), value: vec![0u8, 255, b'\n', b':', 7] },
        ] {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn wire_shape_is_documented_format() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::text("hello", "charm-klv/1")).unwrap();
        assert_eq!(buf, b"hello:11:charm-klv/1\n");
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        assert_eq!(read_frame(&mut Cursor::new(Vec::new())).unwrap(), None);
    }

    #[test]
    fn truncation_anywhere_inside_a_frame_is_typed() {
        let mut full = Vec::new();
        write_frame(&mut full, &Frame::text("measure", "sequence=0")).unwrap();
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(full[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: expected Truncated, got {err}"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let wire = format!("blob:{}:", MAX_VALUE_LEN + 1);
        let err = read_frame(&mut Cursor::new(wire.into_bytes())).unwrap_err();
        assert_eq!(err, FrameError::Oversized { len: MAX_VALUE_LEN + 1, max: MAX_VALUE_LEN });
        // and absurd length fields don't parse at all
        let err = read_frame(&mut Cursor::new(b"blob:999999999999999999:".to_vec())).unwrap_err();
        assert!(matches!(err, FrameError::BadLength { .. }));
    }

    #[test]
    fn bad_keys_and_lengths_rejected() {
        for wire in ["UPPER:0:\n", ":0:\n", "sp ace:0:\n", "k:ab:\n", "k:-1:\n", "k::\n"] {
            let err = read_frame(&mut Cursor::new(wire.as_bytes().to_vec())).unwrap_err();
            assert!(
                matches!(err, FrameError::BadKey { .. } | FrameError::BadLength { .. }),
                "{wire:?} gave {err}"
            );
        }
        let long_key = format!("{}:0:\n", "k".repeat(MAX_KEY_LEN + 1));
        assert!(read_frame(&mut Cursor::new(long_key.into_bytes())).is_err());
    }

    #[test]
    fn length_payload_disagreement_is_loud() {
        // claims 2 bytes but the payload is 3 before the newline
        let err = read_frame(&mut Cursor::new(b"k:2:abc\n".to_vec())).unwrap_err();
        assert_eq!(err, FrameError::MissingTerminator { got: b'c' });
    }

    #[test]
    fn garbage_stream_is_a_framing_error() {
        // garbage with a colon: the "key" has illegal bytes
        let err = read_frame(&mut Cursor::new(b"!!! NOT: KLV !!!\n".to_vec())).unwrap_err();
        assert!(matches!(err, FrameError::BadKey { .. }));
        // garbage with no colon at all: stream ends mid-"key"
        let err = read_frame(&mut Cursor::new(b"plain text\n".to_vec())).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }));
        // long colonless garbage is rejected before buffering it all
        let long = vec![b'x'; 10 * 1024];
        let err = read_frame(&mut Cursor::new(long)).unwrap_err();
        assert!(matches!(err, FrameError::BadKey { .. }));
    }

    #[test]
    fn writer_validates_too() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &Frame::text("Bad Key", "")),
            Err(FrameError::BadKey { .. })
        ));
        let huge = Frame { key: "k".into(), value: vec![0; MAX_VALUE_LEN + 1] };
        assert!(matches!(write_frame(&mut buf, &huge), Err(FrameError::Oversized { .. })));
    }
}
