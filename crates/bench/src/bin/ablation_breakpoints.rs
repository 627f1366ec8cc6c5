//! Ablation: preconceived breakpoint count vs free segmentation (§III-3)
//! on the OpenMPI-like platform with the hidden 16 KiB slope change.

use charm_analysis::segmented::{segment, segment_with_k_breaks, SegmentConfig};
use charm_simnet::noise::{BurstConfig, NoiseModel};
use charm_simnet::{presets, NetOp};

fn main() {
    let args = charm_bench::cli::CommonArgs::parse("", charm_bench::cli::Reads::SHARED);
    let session = charm_bench::profile::Session::from_args(&args);
    let seed = args.seed;
    let mut sim = presets::openmpi_fig3(seed);
    sim.set_noise(NoiseModel::new(seed, 0.005, BurstConfig::off()));
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut size = 256u64;
    while size <= 64 * 1024 {
        let mut acc = 0.0;
        for _ in 0..5 {
            acc += sim.measure(NetOp::PingPong, size);
        }
        xs.push(size as f64);
        ys.push(acc / 5.0);
        size += 1024;
    }
    let forced = segment_with_k_breaks(&xs, &ys, 1, 5).expect("fit");
    let free = segment(&xs, &ys, &SegmentConfig::default()).expect("fit");
    println!("forced 1 break : breaks {:?}  SSE {:.1}", forced.breakpoints, forced.sse);
    println!("free search    : breaks {:?}  SSE {:.1}", free.breakpoints, free.sse);
    println!(
        "SSE ratio forced/free: {:.1}x — the preconceived count hides the 16 KiB regime",
        forced.sse / free.sse.max(1e-9)
    );
    let csv = charm_core::experiments::plot::csv(
        &["fit", "breaks", "sse"],
        &[
            vec![
                "forced_1".into(),
                format!("{:?}", forced.breakpoints).replace(',', ";"),
                forced.sse.to_string(),
            ],
            vec![
                "free".into(),
                format!("{:?}", free.breakpoints).replace(',', ";"),
                free.sse.to_string(),
            ],
        ],
    );
    charm_bench::csvout::artifact("ablation_breakpoints.csv")
        .meta("generator", "ablation_breakpoints")
        .meta("seed", seed)
        .write(&csv);
    session.finish();
}
