//! Regenerates Figure 7 from benchmarks/fig07.toml: MultiMAPS on the Opteron.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig07")
}
