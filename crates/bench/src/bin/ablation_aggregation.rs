//! Ablation: on-the-fly aggregation vs raw retention (§IV-3 / Figure 11).
//!
//! The same RT-scheduled ARM campaign reported two ways: the opaque
//! mean ± sd per size, and the raw-data mode analysis. The mean describes
//! no behaviour the machine actually has.

use charm_core::pitfalls;
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::target::MemoryTarget;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use std::process::ExitCode;

fn main() -> ExitCode {
    charm_bench::exit_status(run())
}

fn run() -> std::io::Result<()> {
    let args = charm_bench::cli::CommonArgs::parse("", charm_bench::cli::Reads::SHARED);
    let session = charm_bench::profile::Session::from_args(&args);
    let seed = args.seed;
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", vec![8192i64, 16384]))
        .factor(Factor::new("nloops", vec![40i64]))
        .replicates(150)
        .build()
        .unwrap();
    plan.shuffle(seed);
    let mut target = MemoryTarget::new(
        "arm-rt",
        MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedRealtime,
            AllocPolicy::PooledRandomOffset,
            seed,
        ),
    );
    let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(seed).run().unwrap().data;

    let mut rows = Vec::new();
    for (key, values) in campaign.group_by(&["size_bytes"]) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let sd = (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
        let loss = pitfalls::aggregation_loss(&values).unwrap_or(0.0);
        let split = charm_analysis::modes::two_means(&values).unwrap();
        println!(
            "size {:>6}: opaque report = {:.0} ± {:.0} MB/s | raw-data view: modes at {:.0} and {:.0} MB/s ({:.0}% slow), mean sits {:.0}% of the mode gap away from the nearest mode",
            key[0], mean, sd, split.low_center, split.high_center,
            100.0 * split.low_fraction, 100.0 * loss
        );
        rows.push(vec![
            key[0].to_string(),
            mean.to_string(),
            sd.to_string(),
            split.low_center.to_string(),
            split.high_center.to_string(),
            split.low_fraction.to_string(),
            loss.to_string(),
        ]);
    }
    let csv = charm_core::experiments::plot::csv(
        &["size_bytes", "mean", "sd", "low_mode", "high_mode", "low_fraction", "aggregation_loss"],
        &rows,
    );
    charm_bench::csvout::artifact("ablation_aggregation.csv")
        .meta("generator", "ablation_aggregation")
        .meta("seed", seed)
        .write(args.out.as_deref(), &csv)?;
    println!("\nmean ± sd (all an opaque tool keeps) hides the two modes entirely");
    session.finish()
}
