//! Regenerates Figure 3: time vs message size on two interconnects.
fn main() -> std::process::ExitCode {
    charm_bench::figures::main("fig03")
}
