//! [`ExternalTarget`]: measure an *actual* external engine subprocess
//! through the charm-klv/1 protocol.
//!
//! This is the BYOB half of the methodology made literal: the harness
//! keeps the whole stage-1 design (randomization, replication, seeding)
//! and stage-3 raw retention, while the thing being measured is an
//! opaque program it spawned and knows only through frames on
//! stdin/stdout. Everything defensive lives here:
//!
//! * every engine reply has a **deadline**; a hung engine is killed and
//!   reported as [`TargetError::Timeout`], never waited on forever;
//! * a dead engine (EOF, nonzero exit) is reaped and reported as
//!   [`TargetError::EngineFailed`] with its captured stderr;
//! * a malformed frame or an out-of-sequence reply is
//!   [`TargetError::Protocol`];
//! * after a failure the child is gone; the next `measure` call
//!   **respawns** it (counted in `runner.restarts`) so one bad
//!   measurement doesn't strand the rest of a campaign unless the
//!   caller chooses to stop.
//!
//! The subprocess boundary means an `ExternalTarget` is *sequential
//! only* — it is a [`Target`] but deliberately not a
//! `ParallelTarget`, so it never reaches the sharded campaign path.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use charm_engine::registry::ExternalEngineSpec;
use charm_engine::target::{Assignment, Measurement, Target, TargetError};

use crate::klv::{read_frame, write_frame, Frame, FrameError};
use crate::proto::{
    key, parse_diagnostic, parse_meta, MeasureRequest, ObservationReply, PROTOCOL_VERSION,
};

/// Cap on retained stderr bytes per engine process; beyond this the
/// capture keeps the head (where panics and usage errors land) and
/// drops the rest.
const MAX_STDERR_BYTES: usize = 16 * 1024;

/// A live engine subprocess: child + reader/stderr threads + the
/// receiving end of the frame channel.
struct EngineProcess {
    child: Child,
    stdin: ChildStdin,
    frames: Receiver<Result<Frame, FrameError>>,
    stderr_buf: Arc<Mutex<Vec<u8>>>,
    reader: Option<JoinHandle<()>>,
    stderr_thread: Option<JoinHandle<()>>,
}

impl EngineProcess {
    fn spawn(spec: &ExternalEngineSpec) -> Result<EngineProcess, TargetError> {
        let mut child = Command::new(&spec.program)
            .args(&spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| TargetError::EngineFailed {
                exit_code: None,
                stderr: format!("failed to spawn {:?}: {e}", spec.program),
            })?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");

        // Reader thread: blocking reads from the pipe, frames pushed
        // into a channel so the harness side can wait with a deadline
        // (`recv_timeout`) instead of blocking forever on a hung child.
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            loop {
                match read_frame(&mut stdout) {
                    Ok(Some(frame)) => {
                        if tx.send(Ok(frame)).is_err() {
                            return; // harness dropped the process
                        }
                    }
                    Ok(None) => return, // clean EOF
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        });

        // Stderr capture (bounded): whatever the engine printed is the
        // most useful part of an EngineFailed report.
        let stderr_buf = Arc::new(Mutex::new(Vec::new()));
        let stderr_sink = Arc::clone(&stderr_buf);
        let stderr_thread = std::thread::spawn(move || {
            let mut stderr = stderr;
            let mut chunk = [0u8; 4096];
            loop {
                match stderr.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        let mut buf = stderr_sink.lock().unwrap();
                        let room = MAX_STDERR_BYTES.saturating_sub(buf.len());
                        buf.extend_from_slice(&chunk[..n.min(room)]);
                    }
                }
            }
        });

        Ok(EngineProcess {
            child,
            stdin,
            frames,
            stderr_buf,
            reader: Some(reader),
            stderr_thread: Some(stderr_thread),
        })
    }

    fn captured_stderr(&self) -> String {
        String::from_utf8_lossy(&self.stderr_buf.lock().unwrap()).into_owned()
    }

    /// Kills the child (if still alive), reaps it, joins the I/O
    /// threads, and returns the exit code (when it exited normally)
    /// plus captured stderr.
    fn kill_and_reap(mut self) -> (Option<i32>, String) {
        let _ = self.child.kill();
        let status = self.child.wait().ok();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        if let Some(h) = self.stderr_thread.take() {
            let _ = h.join();
        }
        (status.and_then(|s| s.code()), self.captured_stderr())
    }
}

/// A [`Target`] that measures an external engine subprocess over the
/// charm-klv/1 protocol. Construct with [`ExternalTarget::spawn`].
pub struct ExternalTarget {
    spec: ExternalEngineSpec,
    process: Option<EngineProcess>,
    /// Engine self-description from the handshake, cached so
    /// `metadata()` (called before any measurement, and by `&self`)
    /// never touches the wire.
    engine_name: String,
    engine_meta: Vec<(String, String)>,
    /// Diagnostics the engine sent, summed across measurements.
    engine_diag: BTreeMap<String, u64>,
    sequence: u64,
    frames_sent: u64,
    frames_received: u64,
    timeouts: u64,
    restarts: u64,
}

impl std::fmt::Debug for ExternalTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalTarget")
            .field("spec", &self.spec)
            .field("engine_name", &self.engine_name)
            .field("alive", &self.process.is_some())
            .field("sequence", &self.sequence)
            .finish()
    }
}

impl ExternalTarget {
    /// Spawns the engine and performs the handshake eagerly, so a
    /// missing binary or a protocol mismatch fails *here*, before a
    /// campaign starts, and `metadata()` can answer from cache.
    pub fn spawn(spec: ExternalEngineSpec) -> Result<ExternalTarget, TargetError> {
        let mut t = ExternalTarget {
            spec,
            process: None,
            engine_name: String::new(),
            engine_meta: Vec::new(),
            engine_diag: BTreeMap::new(),
            sequence: 0,
            frames_sent: 0,
            frames_received: 0,
            timeouts: 0,
            restarts: 0,
        };
        t.start_process()?;
        Ok(t)
    }

    /// The spec this target was spawned from.
    pub fn spec(&self) -> &ExternalEngineSpec {
        &self.spec
    }

    /// The name the engine announced in its handshake.
    pub fn engine_name(&self) -> &str {
        &self.engine_name
    }

    fn timeout(&self) -> Duration {
        Duration::from_millis(self.spec.timeout_ms)
    }

    /// Spawns a fresh process and runs the handshake. On any failure
    /// the child is killed and the typed error returned.
    fn start_process(&mut self) -> Result<(), TargetError> {
        let mut process = EngineProcess::spawn(&self.spec)?;
        match self.handshake(&mut process) {
            Ok((name, meta)) => {
                // The handshake must describe the same engine across
                // respawns; first spawn populates, respawns verify.
                if self.engine_name.is_empty() {
                    self.engine_name = name;
                    self.engine_meta = meta;
                } else if self.engine_name != name {
                    let (_, stderr) = process.kill_and_reap();
                    let _ = stderr;
                    return Err(TargetError::Protocol {
                        detail: format!(
                            "engine changed identity across restart: was {:?}, now {:?}",
                            self.engine_name, name
                        ),
                    });
                }
                self.process = Some(process);
                Ok(())
            }
            Err(e) => {
                let (exit_code, stderr) = process.kill_and_reap();
                // A handshake cut short by the child dying is better
                // reported as the death than as the truncation.
                match e {
                    TargetError::EngineFailed { .. } => {
                        Err(TargetError::EngineFailed { exit_code, stderr })
                    }
                    other => Err(other),
                }
            }
        }
    }

    /// `hello` → (`version`, `name`, `meta`*, `ready`).
    fn handshake(
        &mut self,
        process: &mut EngineProcess,
    ) -> Result<(String, Vec<(String, String)>), TargetError> {
        self.send(process, &Frame::text(key::HELLO, PROTOCOL_VERSION))?;
        let mut version = None;
        let mut name = None;
        let mut meta = Vec::new();
        loop {
            let frame = self.recv(process, "handshake")?;
            match frame.key.as_str() {
                key::VERSION => {
                    let v = frame.value_text();
                    let major = |s: &str| s.split('.').next().unwrap_or(s).to_string();
                    if major(&v) != major(PROTOCOL_VERSION) {
                        return Err(TargetError::Protocol {
                            detail: format!(
                                "engine speaks {v:?}, harness speaks {PROTOCOL_VERSION:?}"
                            ),
                        });
                    }
                    version = Some(v);
                }
                key::NAME => name = Some(frame.value_text()),
                key::META => {
                    if let Some(kv) = parse_meta(&frame.value) {
                        meta.push(kv);
                    }
                }
                key::READY => break,
                key::ERROR => {
                    return Err(TargetError::Protocol {
                        detail: format!("engine refused handshake: {}", frame.value_text()),
                    })
                }
                _ => {} // forward compat: skip unknown frames
            }
        }
        if version.is_none() {
            return Err(TargetError::Protocol {
                detail: "engine sent ready without announcing its version".into(),
            });
        }
        let name = name.ok_or_else(|| TargetError::Protocol {
            detail: "engine sent ready without announcing its name".into(),
        })?;
        Ok((name, meta))
    }

    fn send(&mut self, process: &mut EngineProcess, frame: &Frame) -> Result<(), TargetError> {
        let write = write_frame(&mut process.stdin, frame)
            .and_then(|()| process.stdin.flush().map_err(FrameError::from));
        match write {
            Ok(()) => {
                self.frames_sent += 1;
                Ok(())
            }
            // A write failure means the child closed its stdin — i.e.
            // it died; report the death, not the broken pipe.
            Err(_) => Err(TargetError::EngineFailed {
                exit_code: None,
                stderr: process.captured_stderr(),
            }),
        }
    }

    /// Waits for the next frame with the spec's deadline.
    fn recv(&mut self, process: &mut EngineProcess, phase: &str) -> Result<Frame, TargetError> {
        match process.frames.recv_timeout(self.timeout()) {
            Ok(Ok(frame)) => {
                self.frames_received += 1;
                Ok(frame)
            }
            Ok(Err(frame_err)) => {
                Err(TargetError::Protocol { detail: format!("during {phase}: {frame_err}") })
            }
            Err(RecvTimeoutError::Timeout) => {
                self.timeouts += 1;
                Err(TargetError::Timeout {
                    phase: phase.to_string(),
                    timeout_ms: self.spec.timeout_ms,
                })
            }
            // Reader thread gone after clean EOF: the child exited.
            Err(RecvTimeoutError::Disconnected) => Err(TargetError::EngineFailed {
                exit_code: None,
                stderr: process.captured_stderr(),
            }),
        }
    }

    /// Runs one measure round against the live process. On error the
    /// caller tears the process down.
    fn measure_on(
        &mut self,
        process: &mut EngineProcess,
        request: &MeasureRequest,
    ) -> Result<Measurement, TargetError> {
        self.send(process, &request.to_frame())?;
        loop {
            let frame = self.recv(process, "measure")?;
            match frame.key.as_str() {
                key::OBSERVATION => match ObservationReply::parse(&frame.value) {
                    Ok(reply) => {
                        return Ok(Measurement {
                            value: reply.value,
                            start_us: reply.start_us.unwrap_or(0.0),
                        })
                    }
                    Err(detail) => {
                        return Err(TargetError::Protocol {
                            detail: format!("bad observation payload: {detail}"),
                        })
                    }
                },
                key::DIAGNOSTIC => {
                    if let Some((counter, v)) = parse_diagnostic(&frame.value) {
                        *self.engine_diag.entry(counter).or_insert(0) += v;
                    }
                }
                key::ERROR => {
                    return Err(TargetError::Protocol {
                        detail: format!("engine reported: {}", frame.value_text()),
                    })
                }
                _ => {} // forward compat: skip unknown frames
            }
        }
    }

    /// Converts a measure-phase failure into the error to report,
    /// preferring the child's actual death (exit code + stderr) over
    /// the symptom the harness saw, and tears the process down.
    fn fail(&mut self, err: TargetError, process: EngineProcess) -> TargetError {
        // Give a just-died child a moment to be seen as dead, then
        // decide: if it exited on its own, EngineFailed with its code
        // beats a Protocol/disconnect symptom. Timeouts keep their
        // identity — the child was alive, just silent; we killed it.
        let (exit_code, stderr) = process.kill_and_reap();
        self.process = None;
        match err {
            TargetError::EngineFailed { .. } => TargetError::EngineFailed { exit_code, stderr },
            TargetError::Timeout { .. } => err,
            other => {
                if let Some(code) = exit_code {
                    if code != 0 {
                        return TargetError::EngineFailed { exit_code: Some(code), stderr };
                    }
                }
                other
            }
        }
    }
}

impl Target for ExternalTarget {
    fn name(&self) -> String {
        self.spec.label.clone()
    }

    fn metadata(&self) -> Vec<(String, String)> {
        let mut md = vec![
            ("target_kind".into(), "external".into()),
            ("platform".into(), self.spec.label.clone()),
            ("engine_name".into(), self.engine_name.clone()),
            (
                "engine_cmd".into(),
                std::iter::once(self.spec.program.as_str())
                    .chain(self.spec.args.iter().map(String::as_str))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            ("klv_protocol".into(), PROTOCOL_VERSION.into()),
            ("klv_timeout_ms".into(), self.spec.timeout_ms.to_string()),
        ];
        for (k, v) in &self.engine_meta {
            md.push((format!("engine.{k}"), v.clone()));
        }
        md
    }

    fn measure(&mut self, a: &Assignment<'_>) -> Result<Measurement, TargetError> {
        // Respawn after a previous failure tore the process down, so a
        // campaign that chooses to continue past one bad row can.
        if self.process.is_none() {
            self.restarts += 1;
            self.start_process()?;
        }
        let mut process = self.process.take().expect("just ensured");
        let request = MeasureRequest {
            sequence: self.sequence,
            replicate: a.replicate(),
            factors: a.entries().map(|(n, l)| (n.to_string(), l.clone())).collect(),
        };
        self.sequence += 1;
        match self.measure_on(&mut process, &request) {
            Ok(m) => {
                self.process = Some(process);
                Ok(m)
            }
            Err(err) => Err(self.fail(err, process)),
        }
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        let mut d = vec![
            ("runner.frames_sent".to_string(), self.frames_sent),
            ("runner.frames_received".to_string(), self.frames_received),
            ("runner.timeouts".to_string(), self.timeouts),
            ("runner.restarts".to_string(), self.restarts),
        ];
        for (k, v) in &self.engine_diag {
            d.push((format!("runner.engine.{k}"), *v));
        }
        d
    }
}

impl Drop for ExternalTarget {
    fn drop(&mut self) {
        if let Some(mut process) = self.process.take() {
            // Polite shutdown: ask, give the child one deadline to
            // exit, then kill. Never block drop indefinitely.
            let _ = write_frame(&mut process.stdin, &Frame::empty(key::SHUTDOWN))
                .and_then(|()| process.stdin.flush().map_err(FrameError::from));
            let deadline = std::time::Instant::now() + self.timeout();
            loop {
                match process.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => break,
                }
            }
            let _ = process.kill_and_reap();
        }
    }
}
