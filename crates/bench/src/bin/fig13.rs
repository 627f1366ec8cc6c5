//! Regenerates Figure 13: the cause-and-effect factor diagram.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig13")
}
