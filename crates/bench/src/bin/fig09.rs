//! Regenerates Figure 9: vectorization × unrolling facets (i7-2600).
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig09")
}
