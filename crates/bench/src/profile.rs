//! Per-binary profiling sessions: the glue between the shared CLI flags
//! (`--profile`, `--trace-out`) and `charm_trace`.
//!
//! A [`Session`] owns the run's [`Profiler`] and installs it as the
//! calling thread's ambient profiler, so the engine's `Campaign` builder
//! and the analysis passes record spans without any plumbing through the
//! experiment drivers. When neither flag is given the session holds a
//! disabled profiler and everything stays zero-cost.
//!
//! ```no_run
//! let args = charm_bench::cli::CommonArgs::parse("", charm_bench::cli::Reads::ALL);
//! let session = charm_bench::profile::Session::from_args(&args);
//! // ... run experiments; engine + analysis spans accumulate ...
//! // prints the --profile table, writes --trace-out (exit 3 if it cannot)
//! let status = charm_bench::exit_status(session.finish());
//! ```

use charm_obs::CampaignReport;
use charm_trace::{chrome, Profiler};
use std::cell::RefCell;

/// One binary's profiling state: the profiler plus the virtual-time
/// reports to re-export into the trace's second clock domain.
#[derive(Debug)]
pub struct Session {
    profiler: Profiler,
    print_summary: bool,
    trace_out: Option<String>,
    virtual_reports: RefCell<Vec<(String, CampaignReport)>>,
}

impl Session {
    /// Builds the session from the parsed flags: enabled iff `--profile`
    /// or `--trace-out` was given, in which case the profiler is also
    /// installed as this thread's ambient profiler (track `"main"`).
    pub fn from_args(args: &crate::cli::CommonArgs) -> Session {
        Session::new(args.profile, args.trace_out.clone())
    }

    /// Explicit constructor (used by tests): `print_summary` maps to
    /// `--profile`, `trace_out` to `--trace-out PATH`.
    pub(crate) fn new(print_summary: bool, trace_out: Option<String>) -> Session {
        let profiler = if print_summary || trace_out.is_some() {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        profiler.install_thread("main");
        Session { profiler, print_summary, trace_out, virtual_reports: RefCell::new(Vec::new()) }
    }

    /// Registers a virtual-clock campaign report to re-export as a lane
    /// of the trace's `virtual` process. `label` names the lane (e.g.
    /// `"fig10"`). No-op when the session is disabled, so callers need
    /// not guard the clone.
    pub fn attach_virtual(&self, label: &str, report: &CampaignReport) {
        if self.trace_out.is_some() {
            self.virtual_reports.borrow_mut().push((label.to_string(), report.clone()));
        }
    }

    /// Finishes the session: uninstalls the ambient profiler, writes the
    /// dual-clock trace when `--trace-out` was given (the path is used
    /// verbatim, not routed through the results directory) and prints
    /// the per-span summary table when `--profile` was given. The error
    /// names the trace path that could not be written.
    pub fn finish(self) -> std::io::Result<()> {
        Profiler::uninstall_thread();
        if !self.profiler.is_enabled() {
            return Ok(());
        }
        let spans = self.profiler.take();
        if let Some(path) = &self.trace_out {
            let reports = self.virtual_reports.borrow();
            let lanes: Vec<(String, &CampaignReport)> =
                reports.iter().map(|(label, r)| (label.clone(), r)).collect();
            let trace = chrome::export(&spans, &lanes);
            std::fs::write(path, trace).map_err(|e| crate::cannot_write(path.as_ref(), e))?;
            println!("wrote {path}");
        }
        if self.print_summary {
            let summary = charm_trace::summarize(&spans);
            if summary.is_empty() {
                println!("profile: no spans recorded");
            } else {
                print!("{}", charm_trace::render_summary(&summary));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_obs::{Event, Span};

    fn sample_report() -> CampaignReport {
        CampaignReport {
            events: vec![Event { seq: 0, kind: "measure".into(), t_us: 5.0, attrs: vec![] }],
            spans: vec![Span {
                name: "campaign".into(),
                t_start_us: 0.0,
                t_end_us: 9.0,
                wall_ns: 10,
            }],
            ..CampaignReport::default()
        }
    }

    #[test]
    fn disabled_session_is_inert() {
        let s = Session::new(false, None);
        assert!(!charm_trace::thread_profiler().is_enabled());
        s.attach_virtual("x", &sample_report());
        s.finish().unwrap(); // writes nothing, prints nothing
    }

    #[test]
    fn session_installs_ambient_profiler_and_writes_trace() {
        let path = std::env::temp_dir().join("charm_session_trace_test.json");
        let s = Session::new(false, Some(path.to_string_lossy().into_owned()));
        assert!(charm_trace::thread_profiler().is_enabled());
        drop(charm_trace::thread_span("unit.work"));
        s.attach_virtual("rep", &sample_report());
        s.finish().unwrap();
        assert!(!charm_trace::thread_profiler().is_enabled(), "finish uninstalls");
        let trace = std::fs::read_to_string(&path).expect("trace written");
        std::fs::remove_file(&path).ok();
        let events = chrome::parse(&trace).expect("valid trace");
        assert!(events.iter().any(|e| e.pid == chrome::WALL_PID && e.name == "unit.work"));
        assert!(events.iter().any(|e| e.pid == chrome::VIRTUAL_PID));
    }

    #[test]
    fn profile_only_session_records_without_writing() {
        let s = Session::new(true, None);
        drop(charm_trace::thread_span("unit.more"));
        s.attach_virtual("rep", &sample_report()); // no trace-out: dropped
        assert!(s.virtual_reports.borrow().is_empty());
        s.finish().unwrap();
    }
}
