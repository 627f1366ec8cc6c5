//! Regenerates Figure 8: the noisy Pentium 4 replication attempt.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig08")
}
