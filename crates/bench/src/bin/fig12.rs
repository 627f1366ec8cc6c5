//! Regenerates Figure 12: the ARM paging anomaly across four runs.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig12")
}
