//! `all_figures [ENTRY …]`: regenerates the named entries of
//! `charm_core::experiments::catalog`, or every entry when none is named.
fn main() -> std::process::ExitCode {
    charm_bench::figures::run()
}
