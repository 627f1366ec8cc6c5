//! Regenerates Figure 5: the CPU characteristics table.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("table05")
}
