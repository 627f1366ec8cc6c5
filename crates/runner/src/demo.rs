//! The demo KLV engine: a complete, deterministic reference engine in
//! ~150 lines, used three ways — as the CI smoke-test fixture, as the
//! misbehaving-engine test double (its failure modes are switchable),
//! and as the template a "bring your own benchmark" author copies.
//!
//! Its measurements are synthetic but *honest to the protocol*: a
//! deterministic hash of `(seed, sequence, factors)` shaped into a
//! latency-vs-size curve, so the same spec + seed reproduces the same
//! campaign bit-for-bit — the determinism contract external engines
//! are asked to honor where feasible.

use std::io::{BufRead, Write};

use crate::klv::{read_frame, write_frame, Frame};
use crate::proto::{diagnostic_frame, key, MeasureRequest, ObservationReply, PROTOCOL_VERSION};

/// How the demo engine (mis)behaves — the switchboard for the runner's
/// failure-path tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemoMode {
    /// Answer every measure frame correctly.
    WellBehaved,
    /// Complete the handshake, then never answer a measure frame
    /// (tests the runner's kill-on-hang).
    Hang,
    /// Complete the handshake, then write bytes that are not KLV
    /// (tests typed protocol errors).
    Garbage,
    /// Complete the handshake, then answer every measure frame with an
    /// explicit `error` frame.
    ErrorFrame,
    /// Print a message to stderr and exit with this code before
    /// completing the handshake (tests stderr capture + exit codes).
    FailExit(i32),
}

impl DemoMode {
    /// Parses the `--mode` argument of the demo bin.
    pub fn parse(s: &str) -> Option<DemoMode> {
        match s {
            "well-behaved" => Some(DemoMode::WellBehaved),
            "hang" => Some(DemoMode::Hang),
            "garbage" => Some(DemoMode::Garbage),
            "error-frame" => Some(DemoMode::ErrorFrame),
            _ => s.strip_prefix("fail-exit-")?.parse().ok().map(DemoMode::FailExit),
        }
    }
}

/// SplitMix64: tiny, seedable, and good enough to make synthetic
/// measurements that look like noisy hardware.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash_str(seed: u64, s: &str) -> u64 {
    s.bytes().fold(seed, |acc, b| splitmix64(acc ^ u64::from(b)))
}

/// The demo engine's synthetic measurement: a smooth latency-vs-size
/// law (affine in `size` when present) plus deterministic per-request
/// jitter. Pure function of `(seed, request)`.
pub(crate) fn demo_value(seed: u64, request: &MeasureRequest) -> f64 {
    let mut h = splitmix64(seed ^ request.sequence ^ (u64::from(request.replicate) << 32));
    let mut size = 0.0f64;
    for (name, level) in &request.factors {
        h = hash_str(h, name);
        h = hash_str(h, &level.to_string());
        if name == "size" || name == "size_bytes" {
            size = level.as_float().unwrap_or(0.0);
        }
    }
    let jitter = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                                                                     // ~2 µs base latency + 0.8 ns/byte + up to 5% multiplicative noise
    (2.0 + size * 0.0008) * (1.0 + 0.05 * jitter)
}

/// Runs the engine loop over arbitrary streams (the bin passes real
/// stdin/stdout; tests pass buffers). Returns the intended process
/// exit code.
pub fn run_engine(
    input: &mut impl BufRead,
    output: &mut impl Write,
    seed: u64,
    mode: DemoMode,
) -> i32 {
    if let DemoMode::FailExit(code) = mode {
        eprintln!("klv_engine_demo: induced failure before handshake (mode fail-exit-{code})");
        return code;
    }
    // Handshake: wait for hello, announce ourselves.
    match read_frame(input) {
        Ok(Some(f)) if f.key == key::HELLO => {}
        other => {
            eprintln!("klv_engine_demo: expected hello frame, got {other:?}");
            return 1;
        }
    }
    let hs = [
        Frame::text(key::VERSION, PROTOCOL_VERSION),
        Frame::text(key::NAME, "klv-demo"),
        Frame::text(key::META, format!("seed={seed}")),
        Frame::text(key::META, "engine_lang=rust"),
        Frame::empty(key::READY),
    ];
    for f in &hs {
        if write_frame(output, f).is_err() {
            return 1;
        }
    }
    let _ = output.flush();

    let mut measured: u64 = 0;
    loop {
        let frame = match read_frame(input) {
            Ok(Some(f)) => f,
            Ok(None) => return 0, // harness closed stdin: clean exit
            Err(e) => {
                eprintln!("klv_engine_demo: bad frame from harness: {e}");
                return 1;
            }
        };
        match frame.key.as_str() {
            key::SHUTDOWN => return 0,
            key::MEASURE => {
                match mode {
                    DemoMode::Hang => {
                        // Sleep forever (until killed): the runner's
                        // deadline, not this loop, ends the test.
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                    DemoMode::Garbage => {
                        let _ = output.write_all(b"!!! THIS IS: NOT A KLV FRAME !!!\n");
                        let _ = output.flush();
                        continue;
                    }
                    DemoMode::ErrorFrame => {
                        let _ = write_frame(
                            output,
                            &Frame::text(key::ERROR, "induced measurement failure"),
                        );
                        let _ = output.flush();
                        continue;
                    }
                    DemoMode::WellBehaved | DemoMode::FailExit(_) => {}
                }
                let request = match MeasureRequest::parse(&frame.value) {
                    Ok(r) => r,
                    Err(detail) => {
                        let _ = write_frame(output, &Frame::text(key::ERROR, detail));
                        let _ = output.flush();
                        continue;
                    }
                };
                measured += 1;
                let reply = ObservationReply {
                    value: demo_value(seed, &request),
                    start_us: Some(request.sequence as f64 * 10.0),
                };
                let ok = write_frame(output, &diagnostic_frame("demo.measured", 1)).is_ok()
                    && write_frame(output, &reply.to_frame()).is_ok()
                    && output.flush().is_ok();
                if !ok {
                    eprintln!("klv_engine_demo: harness went away after {measured} measurements");
                    return 1;
                }
            }
            _ => {} // forward compat: skip unknown frames
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::factors::Level;
    use std::io::Cursor;

    fn request(sequence: u64, size: i64) -> MeasureRequest {
        MeasureRequest {
            sequence,
            replicate: 0,
            factors: vec![
                ("op".into(), Level::Text("ping_pong".into())),
                ("size".into(), Level::Int(size)),
            ],
        }
    }

    #[test]
    fn demo_values_deterministic_and_size_shaped() {
        let a = demo_value(7, &request(0, 1024));
        assert_eq!(a, demo_value(7, &request(0, 1024)));
        assert_ne!(a, demo_value(8, &request(0, 1024)));
        assert_ne!(a, demo_value(7, &request(1, 1024)));
        // latency grows with size beyond any jitter band
        assert!(demo_value(7, &request(0, 1 << 20)) > demo_value(7, &request(0, 64)) * 10.0);
    }

    #[test]
    fn engine_loop_speaks_the_protocol_end_to_end() {
        let mut input = Vec::new();
        write_frame(&mut input, &Frame::text(key::HELLO, PROTOCOL_VERSION)).unwrap();
        write_frame(&mut input, &request(0, 4096).to_frame()).unwrap();
        write_frame(&mut input, &Frame::empty(key::SHUTDOWN)).unwrap();
        let mut output = Vec::new();
        let code = run_engine(&mut Cursor::new(input), &mut output, 42, DemoMode::WellBehaved);
        assert_eq!(code, 0);
        let mut r = Cursor::new(output);
        let mut keys = Vec::new();
        while let Some(f) = read_frame(&mut r).unwrap() {
            keys.push(f.key);
        }
        assert_eq!(keys, ["version", "name", "meta", "meta", "ready", "diagnostic", "observation"]);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(DemoMode::parse("well-behaved"), Some(DemoMode::WellBehaved));
        assert_eq!(DemoMode::parse("fail-exit-7"), Some(DemoMode::FailExit(7)));
        assert_eq!(DemoMode::parse("explode"), None);
    }
}
