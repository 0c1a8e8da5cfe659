//! System-level configuration.

use ztm_cache::{CacheGeometry, LatencyModel, Topology};
use ztm_core::TxEngineConfig;
use ztm_isa::OsModel;

/// Configuration for a [`crate::System`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Core/chip/MCM arrangement.
    pub topology: Topology,
    /// Per-CPU cache geometry and transactional-tracking knobs.
    pub geometry: CacheGeometry,
    /// Cycle cost model.
    pub latency: LatencyModel,
    /// Per-CPU transaction engine configuration (diagnostic control,
    /// retry ladder, millicode costs).
    pub engine: TxEngineConfig,
    /// OS model (interruption costs and dispositions).
    pub os: OsModel,
    /// Base RNG seed; each CPU derives its own stream from it.
    pub seed: u64,
    /// Probability that a transactional load, L1 and L2 hits included,
    /// prefetches the next line; the prefetch fetches that line only if
    /// this CPU's private cache does not hold it, and occasionally marks it
    /// tx-read (over-marking from wrong-path loads, §III.C). `0.0` turns
    /// speculative fetching off. The millicode retry ladder disables it
    /// per-CPU for struggling constrained transactions (§III.E/§IV).
    pub prefetch_probability: f64,
    /// Probability that such a prefetch was a wrong-path speculative load
    /// and over-marks the line tx-read.
    pub overmark_probability: f64,
    /// Override of the per-chip L3 geometry `(sets, ways)`; `None` uses the
    /// zEC12's 48 MB 12-way. Tests shrink it to exercise L3 LRU XIs.
    pub l3_geometry: Option<(usize, usize)>,
    /// Cycles one cache-line transfer occupies its MCM's fabric channel.
    /// Finite transfer bandwidth is what makes wasted transfers from
    /// aborted transactions slow the whole system (§IV, Fig 5c discussion).
    pub fabric_occupancy: u64,
    /// Raise an asynchronous (timer) interruption on each CPU every this
    /// many cycles; aborts any running transaction (§II.A).
    pub timer_interval: Option<u64>,
}

impl SystemConfig {
    /// A zEC12-flavored system with `cpus` cores and the paper's testbed
    /// MCM granularity (Fig 5(b) saturates at the 24-CPU MCM node).
    pub fn with_cpus(cpus: usize) -> Self {
        SystemConfig {
            topology: Topology::new(cpus, 6, 4),
            geometry: CacheGeometry::zec12(),
            latency: LatencyModel::zec12(),
            engine: TxEngineConfig::default(),
            os: OsModel::default(),
            seed: 0x5EC1_2BEE,
            prefetch_probability: 0.25,
            overmark_probability: 0.10,
            l3_geometry: None,
            fabric_occupancy: 8,
            timer_interval: None,
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::with_cpus(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_mcm_is_24_cpus() {
        let c = SystemConfig::with_cpus(48);
        assert_eq!(c.topology.cores_per_mcm(), 24);
        assert!(c.prefetch_probability > 0.0);
    }

    #[test]
    fn builder_seed() {
        let c = SystemConfig::with_cpus(2).seed(7);
        assert_eq!(c.seed, 7);
    }
}
