//! Regenerates Figure 11: RT-scheduler bimodality (ARM Snowball).
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig11")
}
