//! Ablation: size-grid choice (§III-2) — power-of-two vs linear vs
//! log-uniform grids against a platform with a special-cased 1024-byte
//! path, plus the neighbour-probe that makes the bias measurable.

use charm_core::pitfalls;
use charm_design::sampling;
use charm_simnet::noise::{BurstConfig, NoiseModel};
use charm_simnet::{presets, NetOp};

fn median_time(sim: &mut charm_simnet::NetworkSim, size: u64, reps: u32) -> f64 {
    let mut v: Vec<f64> = (0..reps).map(|_| sim.measure(NetOp::PingPong, size)).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let args = charm_bench::cli::CommonArgs::parse("", charm_bench::cli::Reads::SHARED);
    let session = charm_bench::profile::Session::from_args(&args);
    let seed = args.seed;
    let platform = || {
        let mut sim = presets::taurus_openmpi_tcp(seed);
        sim.set_noise(NoiseModel::new(seed, 0.02, BurstConfig::off()).with_anomaly(1024, 0.7));
        sim
    };

    // 1. how each grid "sees" the 512..4096 region
    let mut rows = Vec::new();
    for (label, grid) in [
        ("power_of_two", sampling::power_of_two_sizes(12, false)),
        ("linear_1k", sampling::linear_sizes(512, 1024, 4096)),
        ("log_uniform", sampling::log_uniform_sizes(512, 4096, 8, seed)),
    ] {
        let mut sim = platform();
        for &size in grid.iter().filter(|&&s| (512..=4096).contains(&s)) {
            let t = median_time(&mut sim, size, 15);
            rows.push(vec![label.to_string(), size.to_string(), t.to_string()]);
        }
    }
    let csv = charm_core::experiments::plot::csv(&["grid", "size", "median_us"], &rows);
    charm_bench::csvout::artifact("ablation_sizegrids.csv")
        .meta("generator", "ablation_sizegrids")
        .meta("seed", seed)
        .write(&csv);

    // 2. the neighbour probe finds the planted anomaly
    let mut sim = platform();
    let found =
        pitfalls::probe_size_bias(&mut sim, &sampling::power_of_two_sizes(12, false), 15, 0.1);
    println!("neighbour-probe over the power-of-two grid flags:");
    for p in &found {
        println!(
            "  size {:>6}: on-grid {:.1} µs vs neighbours {:.1} µs ({:+.0}%)",
            p.size,
            p.on_grid_us,
            p.neighbours_us,
            100.0 * p.deviation()
        );
    }
    println!("\nthe power-of-two grid lands exactly ON the special-cased 1024-byte path and\nbends the fitted curve; the log-uniform grid samples its neighbourhood instead");
    session.finish();
}
