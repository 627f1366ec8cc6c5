//! Calibrate a full piecewise LogGP model of a cluster — the
//! platform-calibration workflow of paper §V-A — and save the raw
//! campaign plus the model for downstream simulation.
//!
//! ```text
//! cargo run --release --example network_calibration
//! ```

use charm::core::models::NetworkModel;
use charm::core::pipeline::Study;
use charm::design::doe::FullFactorial;
use charm::design::{sampling, Factor};
use charm::engine::target::NetworkTarget;
use charm::simnet::{presets, NetOp};

fn main() {
    // a denser calibration: 150 log-uniform sizes x 12 replicates x 3 ops
    let sizes: Vec<i64> =
        sampling::log_uniform_sizes(8, 1 << 22, 150, 7).into_iter().map(|s| s as i64).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(12)
        .build();
    let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(7));
    let campaign = Study::new(plan).randomized(7).run(&mut target).expect("campaign");

    // persist the raw campaign — the reproducibility artifact
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/network_calibration_raw.csv", campaign.to_csv())
        .expect("write raw campaign");
    println!(
        "raw campaign: {} records -> results/network_calibration_raw.csv",
        campaign.records.len()
    );

    // supervised piecewise fit; the analyst checks R² per regime
    let breakpoints = [32 * 1024u64, 128 * 1024];
    let model = NetworkModel::fit(&campaign, &breakpoints).expect("model");
    println!("\npiecewise LogGP model (breakpoints at {breakpoints:?} bytes):");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "regime", "from", "to", "latency_us", "MB/s", "R²"
    );
    for (i, seg) in model.segments.iter().enumerate() {
        println!(
            "{:<10} {:>10} {:>10} {:>12.2} {:>12.0} {:>8.4}",
            i,
            seg.from,
            seg.to,
            seg.latency_us,
            seg.bandwidth_mbps(),
            seg.rtt_r_squared
        );
    }

    // sanity: compare three predictions against fresh measurements
    println!("\nvalidation against fresh ping-pong measurements:");
    let mut fresh = presets::taurus_openmpi_tcp(99);
    for size in [1000u64, 50_000, 1 << 20] {
        let measured: f64 =
            (0..20).map(|_| fresh.measure(NetOp::PingPong, size)).sum::<f64>() / 20.0;
        let predicted = model.predict(NetOp::PingPong, size);
        println!(
            "  size {size:>8}: measured {measured:>9.1} µs | predicted {predicted:>9.1} µs ({:+.1}%)",
            100.0 * (predicted - measured) / measured
        );
    }
}
