//! Ablation: randomized vs sequential measurement order on a
//! burst-perturbed network (§III-1 / §IV-3).
//!
//! Sequential order converts a temporal burst into a phantom size effect:
//! a contiguous block of sizes looks slow. Randomization spreads the
//! burst over all sizes, where the sequence-order detector then exposes
//! it as temporal.

use charm_core::pitfalls;
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::target::NetworkTarget;
use charm_simnet::noise::{BurstConfig, NoiseModel};
use charm_simnet::presets;
use std::process::ExitCode;

fn campaign(randomize: bool, seed: u64) -> charm_engine::record::Campaign {
    let sizes: Vec<i64> = (1..=40).map(|i| i * 1024).collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(20)
        .build()
        .unwrap();
    if randomize {
        plan.shuffle(seed);
    } else {
        plan = plan.sequential();
    }
    let mut sim = presets::myrinet_gm(seed);
    // one long burst window: ~15% duty, strongly clustered
    sim.set_noise(NoiseModel::new(
        seed,
        0.02,
        BurstConfig { enter_prob: 0.002, exit_prob: 0.012, slowdown: 5.0, extra_us: 100.0 },
    ));
    let target = NetworkTarget::new("myrinet-bursty", sim);
    charm_engine::Campaign::new(&plan, target).seed(randomize.then_some(seed)).run().unwrap().data
}

/// Relative spread of per-size medians: phantom size effects inflate it.
fn per_size_median_spread(c: &charm_engine::record::Campaign) -> f64 {
    let groups = c.group_by(&["size"]);
    let mut medians: Vec<f64> = groups
        .iter()
        .map(|(_, v)| {
            let mut s = v.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        })
        .collect();
    medians.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // normalize out the true size trend with a crude detrend: compare each
    // median to its neighbours
    let jumps: Vec<f64> = medians.windows(2).map(|w| (w[1] / w[0]).max(w[0] / w[1])).collect();
    jumps.iter().cloned().fold(1.0f64, f64::max)
}

fn main() -> ExitCode {
    charm_bench::exit_status(run())
}

fn run() -> std::io::Result<()> {
    let args = charm_bench::cli::CommonArgs::parse("", charm_bench::cli::Reads::SHARED);
    let session = charm_bench::profile::Session::from_args(&args);
    let seed = args.seed;
    let mut rows = Vec::new();
    for (label, randomize) in [("sequential", false), ("randomized", true)] {
        let c = campaign(randomize, seed);
        let spread = per_size_median_spread(&c);
        let anomalies = pitfalls::temporal_anomalies(&c, &["size"], 1.0);
        println!(
            "{label:<11} worst adjacent-size median jump: {spread:.2}x | temporal windows detected: {}",
            anomalies.len()
        );
        rows.push(vec![label.to_string(), spread.to_string(), anomalies.len().to_string()]);
    }
    let csv = charm_core::experiments::plot::csv(
        &["order", "worst_adjacent_median_jump", "temporal_windows"],
        &rows,
    );
    charm_bench::csvout::artifact("ablation_randomization.csv")
        .meta("generator", "ablation_randomization")
        .meta("seed", seed)
        .write(args.out.as_deref(), &csv)?;
    println!("\nsequential campaigns localize the burst in a block of sizes (phantom size effect);\nrandomized campaigns keep per-size medians smooth and expose the burst as temporal");
    session.finish()
}
