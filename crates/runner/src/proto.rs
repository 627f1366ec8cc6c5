//! The charm-klv/1 protocol: what the frames *mean*.
//!
//! On top of the [`crate::klv`] framing, the harness and an engine
//! subprocess exchange a small vocabulary of frames (DESIGN.md §15):
//!
//! ```text
//! harness → engine   hello         value = protocol version string
//! engine  → harness  version       value = protocol version string
//! engine  → harness  name          value = engine name
//! engine  → harness  meta          value = "key=value"        (0..n)
//! engine  → harness  ready         empty
//! --- per measurement ---
//! harness → engine   measure       value = k=v lines: sequence=, replicate=, factor.<name>=
//! engine  → harness  diagnostic    value = "counter=u64"      (0..n)
//! engine  → harness  observation   value = k=v lines: value= (required), start_us= (optional)
//! engine  → harness  error         value = human-readable message
//! --- teardown ---
//! harness → engine   shutdown      empty
//! ```
//!
//! Payloads are newline-separated `key=value` lines; like the framing,
//! *unknown payload keys are skipped*, so engines can attach extra
//! detail without breaking older harnesses. All the encode/parse
//! helpers live here so `external.rs` (process plumbing) and the demo
//! engine share one definition of the vocabulary.

use crate::klv::Frame;
use charm_design::factors::Level;

/// Protocol version string exchanged in the handshake. The `/1` is the
/// wire-compatibility major: a harness refuses to talk to an engine
/// announcing a different major.
pub(crate) const PROTOCOL_VERSION: &str = "charm-klv/1";

/// Frame keys of the charm-klv/1 vocabulary.
pub mod key {
    /// Harness → engine: opens the conversation, value = harness protocol version.
    pub(crate) const HELLO: &str = "hello";
    /// Engine → harness: engine's protocol version.
    pub(crate) const VERSION: &str = "version";
    /// Engine → harness: engine name (recorded in campaign metadata).
    pub(crate) const NAME: &str = "name";
    /// Engine → harness: one `key=value` metadata pair.
    pub(crate) const META: &str = "meta";
    /// Engine → harness: handshake done, engine accepts `measure` frames.
    pub(crate) const READY: &str = "ready";
    /// Harness → engine: one measurement request.
    pub(crate) const MEASURE: &str = "measure";
    /// Engine → harness: one `counter=u64` execution diagnostic.
    pub(crate) const DIAGNOSTIC: &str = "diagnostic";
    /// Engine → harness: the measurement result.
    pub(crate) const OBSERVATION: &str = "observation";
    /// Engine → harness: the measurement (or handshake) failed.
    pub(crate) const ERROR: &str = "error";
    /// Harness → engine: no more measurements; exit cleanly.
    pub(crate) const SHUTDOWN: &str = "shutdown";
}

/// One measurement request, decoded from (or encoded into) a `measure`
/// frame's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureRequest {
    /// Position of this measurement in the campaign's execution order.
    pub sequence: u64,
    /// Replicate index (0-based) within the factor combination.
    pub replicate: u32,
    /// `(factor name, level)` pairs in plan column order.
    pub factors: Vec<(String, Level)>,
}

impl MeasureRequest {
    /// Encodes the request as a `measure` frame.
    pub(crate) fn to_frame(&self) -> Frame {
        let mut payload = String::new();
        payload.push_str(&format!("sequence={}\n", self.sequence));
        payload.push_str(&format!("replicate={}\n", self.replicate));
        for (name, level) in &self.factors {
            payload.push_str(&format!("factor.{name}={level}\n"));
        }
        Frame { key: key::MEASURE.to_string(), value: payload.into_bytes() }
    }

    /// Decodes a `measure` payload. Unknown lines are skipped.
    pub fn parse(payload: &[u8]) -> Result<MeasureRequest, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "measure payload is not UTF-8")?;
        let mut sequence = None;
        let mut replicate = None;
        let mut factors = Vec::new();
        for (k, v) in kv_lines(text) {
            if k == "sequence" {
                sequence = Some(v.parse().map_err(|_| format!("bad sequence {v:?}"))?);
            } else if k == "replicate" {
                replicate = Some(v.parse().map_err(|_| format!("bad replicate {v:?}"))?);
            } else if let Some(name) = k.strip_prefix("factor.") {
                factors.push((name.to_string(), Level::parse(v)));
            }
        }
        Ok(MeasureRequest {
            sequence: sequence.ok_or("measure payload lacks sequence=")?,
            replicate: replicate.ok_or("measure payload lacks replicate=")?,
            factors,
        })
    }
}

/// One measurement result, decoded from (or encoded into) an
/// `observation` frame's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationReply {
    /// The measured value.
    pub value: f64,
    /// When the measurement started on the engine's own clock (µs);
    /// engines without a meaningful clock omit it and the harness
    /// substitutes its own timeline.
    pub start_us: Option<f64>,
}

impl ObservationReply {
    /// Encodes the reply as an `observation` frame.
    pub(crate) fn to_frame(&self) -> Frame {
        let mut payload = format!("value={}\n", self.value);
        if let Some(s) = self.start_us {
            payload.push_str(&format!("start_us={s}\n"));
        }
        Frame { key: key::OBSERVATION.to_string(), value: payload.into_bytes() }
    }

    /// Decodes an `observation` payload. Unknown lines are skipped.
    pub fn parse(payload: &[u8]) -> Result<ObservationReply, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "observation payload is not UTF-8")?;
        let mut value = None;
        let mut start_us = None;
        for (k, v) in kv_lines(text) {
            match k {
                "value" => {
                    let parsed: f64 = v.parse().map_err(|_| format!("bad value {v:?}"))?;
                    if !parsed.is_finite() {
                        return Err(format!("non-finite observation value {v:?}"));
                    }
                    value = Some(parsed);
                }
                "start_us" => {
                    start_us = Some(v.parse().map_err(|_| format!("bad start_us {v:?}"))?)
                }
                _ => {}
            }
        }
        Ok(ObservationReply { value: value.ok_or("observation payload lacks value=")?, start_us })
    }
}

/// Parses a `diagnostic` payload (`counter=u64`). Returns `None` for
/// unusable lines rather than failing — diagnostics are advisory.
pub(crate) fn parse_diagnostic(payload: &[u8]) -> Option<(String, u64)> {
    let text = std::str::from_utf8(payload).ok()?;
    let (k, v) = text.trim_end().split_once('=')?;
    Some((k.trim().to_string(), v.trim().parse().ok()?))
}

/// Encodes a `diagnostic` frame.
pub(crate) fn diagnostic_frame(counter: &str, value: u64) -> Frame {
    Frame::text(key::DIAGNOSTIC, format!("{counter}={value}"))
}

/// Parses a `meta` payload (`key=value`).
pub(crate) fn parse_meta(payload: &[u8]) -> Option<(String, String)> {
    let text = std::str::from_utf8(payload).ok()?;
    let (k, v) = text.split_once('=')?;
    Some((k.trim().to_string(), v.trim_end().to_string()))
}

/// Iterates `key=value` lines of a payload, skipping blank lines and
/// lines without `=`.
fn kv_lines(text: &str) -> impl Iterator<Item = (&str, &str)> {
    text.lines().filter_map(|line| line.split_once('='))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_request_roundtrip() {
        let req = MeasureRequest {
            sequence: 42,
            replicate: 3,
            factors: vec![
                ("op".into(), Level::Text("ping_pong".into())),
                ("size".into(), Level::Int(4096)),
                ("scale".into(), Level::Float(1.5)),
                ("unroll".into(), Level::Flag(true)),
            ],
        };
        let frame = req.to_frame();
        assert_eq!(frame.key, key::MEASURE);
        assert_eq!(MeasureRequest::parse(&frame.value).unwrap(), req);
    }

    #[test]
    fn measure_request_requires_sequence_and_replicate() {
        assert!(MeasureRequest::parse(b"replicate=0\n").is_err());
        assert!(MeasureRequest::parse(b"sequence=0\n").is_err());
        assert!(MeasureRequest::parse(b"sequence=zero\nreplicate=0\n").is_err());
    }

    #[test]
    fn measure_request_skips_unknown_lines() {
        let req = MeasureRequest::parse(b"sequence=1\nreplicate=0\nfuture_field=yes\nfactor.n=2\n")
            .unwrap();
        assert_eq!(req.factors, vec![("n".to_string(), Level::Int(2))]);
    }

    #[test]
    fn observation_roundtrip_and_validation() {
        for reply in [
            ObservationReply { value: 12.5, start_us: Some(100.25) },
            ObservationReply { value: -3.0, start_us: None },
        ] {
            let frame = reply.to_frame();
            assert_eq!(frame.key, key::OBSERVATION);
            assert_eq!(ObservationReply::parse(&frame.value).unwrap(), reply);
        }
        assert!(ObservationReply::parse(b"start_us=1\n").is_err());
        assert!(ObservationReply::parse(b"value=NaN\n").is_err());
        assert!(ObservationReply::parse(b"value=inf\n").is_err());
    }

    #[test]
    fn diagnostic_and_meta_helpers() {
        let d = diagnostic_frame("engine.kernel_runs", 7);
        assert_eq!(parse_diagnostic(&d.value), Some(("engine.kernel_runs".into(), 7)));
        assert_eq!(parse_diagnostic(b"not a diagnostic"), None);
        assert_eq!(parse_diagnostic(b"neg=-1"), None);
        assert_eq!(parse_meta(b"cpu=opteron\n"), Some(("cpu".into(), "opteron".into())));
        assert_eq!(parse_meta(b"nope"), None);
    }
}
