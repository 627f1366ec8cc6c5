//! Regenerates Figure 4 from benchmarks/fig04.toml: the Taurus network model.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig04")
}
