//! Per-cache-level memory bandwidth model instantiation.
//!
//! The MultiMAPS/PMaC view of a machine's memory signature: for each
//! cache level, a sustained bandwidth plateau; a working set is served at
//! the bandwidth of the smallest level it fits in (paper §II-C, the
//! MetaSim convolver consumes exactly this). Instantiated here from a
//! white-box campaign by taking per-size medians over the retained raw
//! data and averaging within the analyst-provided capacity bands.

use charm_analysis::descriptive;
use charm_analysis::AnalysisError;
use charm_engine::record::Campaign;

/// One plateau of the memory signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plateau {
    /// Largest working set (bytes) served at this level.
    pub capacity_bytes: u64,
    /// Sustained bandwidth (MB/s).
    pub bandwidth_mbps: f64,
}

/// Per-level memory bandwidth model.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    /// Cache plateaus, smallest capacity first.
    pub plateaus: Vec<Plateau>,
    /// Bandwidth beyond the last cache level (DRAM; MB/s).
    pub dram_bandwidth_mbps: f64,
}

impl MemoryModel {
    /// Fits the model from a campaign with factor `size_bytes` and
    /// bandwidth values, given the cache capacities (analyst-provided —
    /// on a real machine, from `lscpu`; here from the `CpuSpec`).
    ///
    /// Sizes at most each capacity (and above the previous one) form that
    /// level's band; the plateau bandwidth is the median of per-size
    /// medians in the band. Sizes above the last capacity feed the DRAM
    /// estimate. Bands lacking data inherit the previous/DRAM estimate.
    pub fn fit(campaign: &Campaign, capacities: &[u64]) -> Result<Self, AnalysisError> {
        if capacities.windows(2).any(|w| w[0] >= w[1]) {
            return Err(AnalysisError::InvalidParameter("capacities must ascend"));
        }
        // per-size medians
        let groups = campaign.group_by(&["size_bytes"]);
        if groups.is_empty() {
            return Err(AnalysisError::EmptyInput);
        }
        let mut size_medians: Vec<(u64, f64)> = Vec::with_capacity(groups.len());
        for (key, values) in &groups {
            let size =
                key[0].as_int().ok_or(AnalysisError::InvalidParameter("size_bytes not integer"))?
                    as u64;
            size_medians.push((size, descriptive::median(values)?));
        }
        size_medians.sort_by_key(|&(s, _)| s);

        let band_estimate = |lo: u64, hi: u64| -> Option<f64> {
            let vals: Vec<f64> =
                size_medians.iter().filter(|&&(s, _)| s > lo && s <= hi).map(|&(_, m)| m).collect();
            descriptive::median(&vals).ok()
        };

        let mut plateaus = Vec::with_capacity(capacities.len());
        let mut prev = 0u64;
        let mut estimates: Vec<Option<f64>> = Vec::new();
        for &cap in capacities {
            estimates.push(band_estimate(prev, cap));
            prev = cap;
        }
        let dram_estimate = band_estimate(prev, u64::MAX);

        // Fill gaps: a band with no data inherits the next deeper
        // estimate (conservative).
        let mut carried = dram_estimate;
        for est in estimates.iter_mut().rev() {
            match est {
                Some(_) => carried = *est,
                None => *est = carried,
            }
        }
        let first_known = estimates
            .iter()
            .flatten()
            .next()
            .copied()
            .or(dram_estimate)
            .ok_or(AnalysisError::EmptyInput)?;
        for (i, &cap) in capacities.iter().enumerate() {
            plateaus.push(Plateau {
                capacity_bytes: cap,
                bandwidth_mbps: estimates[i].unwrap_or(first_known),
            });
        }
        let dram_bandwidth_mbps = dram_estimate
            .or_else(|| plateaus.last().map(|p| p.bandwidth_mbps))
            .ok_or(AnalysisError::EmptyInput)?;
        Ok(MemoryModel { plateaus, dram_bandwidth_mbps })
    }

    /// Bandwidth (MB/s) for a working set of `bytes`.
    pub fn bandwidth_for(&self, bytes: u64) -> f64 {
        for p in &self.plateaus {
            if bytes <= p.capacity_bytes {
                return p.bandwidth_mbps;
            }
        }
        self.dram_bandwidth_mbps
    }

    /// Predicted time (µs) to touch `bytes` of data with a working set of
    /// `working_set` bytes: `bytes / bandwidth(working_set)`.
    pub(crate) fn predict_us(&self, bytes: f64, working_set: u64) -> f64 {
        bytes / self.bandwidth_for(working_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_engine::target::MemoryTarget;
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::machine::{CpuSpec, MachineSim};
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;

    fn opteron_campaign(seed: u64) -> Campaign {
        let sizes: Vec<i64> = vec![
            8 * 1024,
            16 * 1024,
            32 * 1024,
            48 * 1024,
            128 * 1024,
            256 * 1024,
            512 * 1024,
            768 * 1024,
            2 << 20,
            4 << 20,
            8 << 20,
        ];
        let mut plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", sizes))
            .factor(Factor::new("stride", vec![2i64]))
            .factor(Factor::new("nloops", vec![800i64]))
            .replicates(5)
            .build();
        plan.shuffle(seed);
        let mut target = MemoryTarget::new(
            "opteron",
            MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::PooledRandomOffset,
                seed,
            ),
        );
        charm_engine::Campaign::new(&plan, &mut target).seed(seed).run().unwrap().data
    }

    #[test]
    fn plateaus_ordered_and_distinct_on_opteron() {
        let campaign = opteron_campaign(1);
        let model = MemoryModel::fit(&campaign, &[64 * 1024, 1024 * 1024]).unwrap();
        assert_eq!(model.plateaus.len(), 2);
        let l1 = model.plateaus[0].bandwidth_mbps;
        let l2 = model.plateaus[1].bandwidth_mbps;
        let dram = model.dram_bandwidth_mbps;
        assert!(l1 > 1.4 * l2, "L1 {l1} vs L2 {l2}");
        assert!(l2 > 1.4 * dram, "L2 {l2} vs DRAM {dram}");
    }

    #[test]
    fn bandwidth_lookup_uses_working_set() {
        let campaign = opteron_campaign(2);
        let model = MemoryModel::fit(&campaign, &[64 * 1024, 1024 * 1024]).unwrap();
        assert_eq!(model.bandwidth_for(10_000), model.plateaus[0].bandwidth_mbps);
        assert_eq!(model.bandwidth_for(300_000), model.plateaus[1].bandwidth_mbps);
        assert_eq!(model.bandwidth_for(50 << 20), model.dram_bandwidth_mbps);
    }

    #[test]
    fn predict_scales_linearly_in_bytes() {
        let campaign = opteron_campaign(3);
        let model = MemoryModel::fit(&campaign, &[64 * 1024, 1024 * 1024]).unwrap();
        let t1 = model.predict_us(1e6, 10_000);
        let t2 = model.predict_us(2e6, 10_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_unsorted_capacities() {
        let campaign = opteron_campaign(4);
        assert!(MemoryModel::fit(&campaign, &[1024 * 1024, 64 * 1024]).is_err());
    }

    #[test]
    fn empty_band_inherits_deeper_estimate() {
        let campaign = opteron_campaign(5);
        // Insert a fictitious tiny cache level with no samples below it.
        let model = MemoryModel::fit(&campaign, &[1024, 64 * 1024, 1024 * 1024]).unwrap();
        assert_eq!(model.plateaus[0].bandwidth_mbps, model.plateaus[1].bandwidth_mbps);
    }
}
