//! Regenerates the PChase multi-core interference extension (benchmarks/pchase.toml).
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("pchase")
}
