//! Quickstart: the three-stage white-box methodology, end to end, in
//! ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use charm::core::models::NetworkModel;
use charm::core::pipeline::{analyze_cells, Study};
use charm::design::doe::FullFactorial;
use charm::design::{sampling, Factor};
use charm::engine::target::NetworkTarget;
use charm::simnet::presets;

fn main() {
    // Stage 1 — design: factors, levels, replication, randomization.
    let sizes: Vec<i64> =
        sampling::log_uniform_sizes(8, 1 << 20, 50, 42).into_iter().map(|s| s as i64).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(8)
        .build();
    let study = Study::new(plan).randomized(42);

    // Stage 2 — measurement: raw retention on a (simulated) platform.
    let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(42));
    let campaign = study.run(&mut target).expect("campaign");
    println!("retained {} raw measurements", campaign.records.len());

    // Stage 3 — offline analysis: per-cell summaries...
    let cells = analyze_cells(&campaign, &["op"]);
    for cell in &cells {
        println!(
            "op {:?}: median {:.1} µs, IQR {:.1}, outliers flagged {:.1}%",
            cell.key[0],
            cell.summary.median,
            cell.summary.iqr(),
            100.0 * cell.outlier_fraction
        );
    }

    // ...and model instantiation with analyst-provided breakpoints.
    let model = NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).expect("model");
    for (i, seg) in model.segments.iter().enumerate() {
        println!(
            "regime {i}: sizes {}..{} B | L = {:.1} µs | bandwidth = {:.0} MB/s | R² = {:.4}",
            seg.from,
            seg.to,
            seg.latency_us,
            seg.bandwidth_mbps(),
            seg.rtt_r_squared
        );
    }
}
