//! Regenerates every entry of `charm_core::experiments::catalog`.
fn main() -> std::process::ExitCode {
    charm_bench::figures::all()
}
