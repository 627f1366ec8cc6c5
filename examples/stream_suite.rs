//! Run the classic STREAM suite (Copy/Scale/Add/Triad) plus the paper's
//! Sum kernel on all four Figure 5 CPUs, and derive each machine's
//! roofline from the result.
//!
//! ```text
//! cargo run --release --example stream_suite
//! ```

use charm::core::models::roofline::Roofline;
use charm::simmem::compiler::{CodegenConfig, ElementWidth};
use charm::simmem::dvfs::GovernorPolicy;
use charm::simmem::machine::{CpuSpec, MachineSim};
use charm::simmem::paging::AllocPolicy;
use charm::simmem::sched::SchedPolicy;
use charm::simmem::stream_kernels::{run_stream, StreamKernel, StreamRunConfig};

fn main() {
    for spec in CpuSpec::all() {
        let name = spec.name;
        let freq = *spec.freqs_ghz.last().expect("has frequencies");
        // arrays sized >> last cache level, bounded by the page pool
        let last_cache = spec.levels.last().expect("has caches").size_bytes;
        let pool_bytes = spec.page_bytes * spec.pool_pages as u64;
        let array = (4 * last_cache).min(pool_bytes / 4);
        let mut machine = MachineSim::new(
            spec,
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            31,
        );

        println!("\n{name}  (arrays of {} KiB)", array / 1024);
        let mut best_triad = 0.0f64;
        for kernel in [
            StreamKernel::Sum,
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ] {
            let mut best = 0.0f64;
            for _ in 0..5 {
                let r = run_stream(
                    &mut machine,
                    &StreamRunConfig {
                        array_bytes: array,
                        kernel,
                        codegen: CodegenConfig::new(ElementWidth::W64, true),
                        nloops: 5,
                    },
                )
                .expect("three arrays of at most a quarter of the pool fit it");
                best = best.max(r.bandwidth_mbps);
            }
            if kernel == StreamKernel::Triad {
                best_triad = best;
            }
            println!("  {:<6} {:>9.0} MB/s", kernel.name(), best);
        }

        // roofline from the Triad rate and a nominal 2 FLOP/cycle peak
        let roofline = Roofline::new(freq * 2.0, best_triad);
        println!(
            "  roofline: peak {:.1} GFLOP/s, ridge at {:.2} FLOP/byte",
            roofline.peak_gflops,
            roofline.ridge_intensity()
        );
        // the Figure 6 sum kernel: 1 add per 4-byte element = 0.25 FLOP/B
        println!("  the paper's kernel (0.25 FLOP/B) is {:?}-bound here", roofline.bound(0.25));
    }
}
