//! Regenerates Figure 10: DVFS ondemand nloops facets (i7-2600).
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig10")
}
