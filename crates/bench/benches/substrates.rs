//! Criterion microbenchmarks of the simulated substrates: the cost of
//! taking one measurement. These are the harness's own performance
//! numbers, not paper reproductions — they bound how large a campaign the
//! methodology can afford.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn network_measure(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_measure");
    for size in [64u64, 4096, 262_144] {
        group.bench_with_input(BenchmarkId::new("pingpong", size), &size, |b, &size| {
            let mut sim = charm_simnet::presets::taurus_openmpi_tcp(1);
            b.iter(|| black_box(sim.measure(charm_simnet::NetOp::PingPong, size)));
        });
    }
    group.finish();
}

fn kernel_run(c: &mut Criterion) {
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::kernel::KernelConfig;
    use charm_simmem::machine::{CpuSpec, MachineSim};
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;

    let mut group = c.benchmark_group("kernel_run");
    for kb in [8u64, 256, 4096] {
        group.bench_with_input(BenchmarkId::new("opteron", kb), &kb, |b, &kb| {
            let mut m = MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::PooledRandomOffset,
                1,
            );
            b.iter(|| black_box(m.run_kernel(&KernelConfig::baseline(kb * 1024, 50))));
        });
        // same measurement with observability on: the counter path (color
        // histogram + interned names) should cost a few percent, not the
        // per-page format! it used to
        group.bench_with_input(BenchmarkId::new("opteron_observed", kb), &kb, |b, &kb| {
            let mut m = MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::PooledRandomOffset,
                1,
            );
            m.enable_observability(4096);
            b.iter(|| black_box(m.run_kernel(&KernelConfig::baseline(kb * 1024, 50))));
        });
    }
    // the profile-cache miss path a pooled sweep pays: 64 log-uniform
    // sizes from 16 KiB to 16 MiB, none a whole number of pages, at fresh
    // random offsets, so every iteration computes a profile; visited in a
    // stride-23 order so any short run of samples spans the whole range
    let sizes: Vec<u64> = (0..64)
        .map(|i| (16_384.0 * 1024f64.powf((i * 23 % 64) as f64 / 64.0)) as u64 + 100)
        .collect();
    group.bench_function("opteron_pooled_miss", |b| {
        let mut m = MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            1,
        );
        let mut next = sizes.iter().cycle();
        b.iter(|| black_box(m.run_kernel(&KernelConfig::baseline(*next.next().unwrap(), 50))));
    });
    group.finish();
}

fn cache_simulator(c: &mut Criterion) {
    use charm_simmem::cache::SetAssocCache;
    c.bench_function("lru_cache_access_sweep_64k", |b| {
        let mut cache = SetAssocCache::new(32 * 1024, 8, 64);
        b.iter(|| {
            for line in 0..1024u64 {
                black_box(cache.access(line * 64));
            }
        });
    });
}

criterion_group!(benches, network_measure, kernel_run, cache_simulator);
criterion_main!(benches);
