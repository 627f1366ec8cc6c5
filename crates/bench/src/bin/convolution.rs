//! Regenerates the Figure 1 use case: opaque vs white-box model error.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("convolution")
}
