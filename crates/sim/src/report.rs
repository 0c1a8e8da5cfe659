//! Aggregated system statistics.

use std::collections::BTreeMap;
use ztm_core::TxStats;

/// Software-TM (TL2) statistics, accumulated from the `STMNOTE` markers the
/// emitted STM programs execute (see `ztm_stm`). All zero for workloads that
/// never run the software path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmCounts {
    /// STM transaction attempts begun (including retries).
    pub begins: u64,
    /// STM transactions committed.
    pub commits: u64,
    /// STM-level aborts: stripe-acquire or read-validation failures that
    /// rolled back and retried.
    pub aborts: u64,
    /// TL2 read-set validations that failed (a subset of `aborts` causes).
    pub validation_failures: u64,
    /// Stripe write-locks acquired at commit.
    pub lock_acquires: u64,
    /// HTM→STM fallback transitions (hybrid mode only).
    pub fallbacks: u64,
    /// Abort code of the final hardware attempt at each fallback
    /// transition, keyed by the engine's abort code (e.g. 8 = store
    /// footprint overflow, ≥256 = TABORT).
    pub fallback_codes: BTreeMap<u16, u64>,
}

impl StmCounts {
    /// Accumulates another CPU's counters into this one.
    pub fn merge(&mut self, other: &StmCounts) {
        self.begins += other.begins;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.validation_failures += other.validation_failures;
        self.lock_acquires += other.lock_acquires;
        self.fallbacks += other.fallbacks;
        for (code, n) in &other.fallback_codes {
            *self.fallback_codes.entry(*code).or_insert(0) += n;
        }
    }
}

/// Sharded-driver round statistics (all zero on serial runs). These are
/// *host-side* measurements of how the run was scheduled: simulated
/// outcomes stay byte-identical for any thread count, but rounds and
/// chains depend on the round schedule itself, so differential tests zero
/// this field before comparing whole reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardingStats {
    /// Parallel (shard-local) rounds dispatched.
    pub rounds: u64,
    /// Steps executed inside those rounds.
    pub local_steps: u64,
    /// Largest single round, in shard-local steps.
    pub round_steps_max: u64,
    /// Longest single run-ahead chain, in steps.
    pub chain_max: u64,
    /// Always zero. The driver admits only provably final steps, so it
    /// never rolls back; the field stays because the `perfbench` harness
    /// reads it as `shard.rollbacks`, until that metric is retired.
    pub rollbacks: u64,
    /// Always zero: nothing is rolled back, so nothing is replayed. Kept
    /// for `perfbench` (`shard.replayed_share`).
    pub replayed: u64,
    /// Always zero: rounds admit a fixed one-cycle slack, with no per-CPU
    /// window. Kept for `perfbench` (`shard.window_cpus`).
    pub window_cpus: u64,
    /// Always zero (see [`window_cpus`](Self::window_cpus)). Kept for
    /// `perfbench` (`shard.window_mean`).
    pub window_sum: u64,
    /// Always zero (see [`window_cpus`](Self::window_cpus)). Kept for
    /// `perfbench` (`shard.window_clamped`).
    pub window_clamped: u64,
}

impl ShardingStats {
    /// Mean shard-local steps per round — how far each coordinator round
    /// is amortized. Zero when no round ran.
    pub fn mean_round_steps(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.local_steps as f64 / self.rounds as f64
        }
    }

    /// Accumulates another run's counters into this one (maxima stay
    /// maxima, counts add) — for multi-run benchmark timing summaries.
    pub fn merge(&mut self, other: &ShardingStats) {
        self.rounds += other.rounds;
        self.local_steps += other.local_steps;
        self.round_steps_max = self.round_steps_max.max(other.round_steps_max);
        self.chain_max = self.chain_max.max(other.chain_max);
    }
}

/// A snapshot of system-wide counters, produced by
/// [`crate::System::report`].
#[derive(Debug, Clone, Default)]
pub struct SystemReport {
    /// Maximum per-CPU clock — the elapsed virtual time of the run.
    pub elapsed_cycles: u64,
    /// Instructions completed across all CPUs.
    pub total_instructions: u64,
    /// Simulator steps taken (instructions + stalls + aborts).
    pub steps: u64,
    /// XI-stall retries across all CPUs (stiff-arming at work, §III.C).
    pub stalls: u64,
    /// Merged transactional statistics.
    pub tx: TxStats,
    /// XIs sent, by kind: `[exclusive, demote, read-only, lru]`.
    pub xi_counts: [u64; 4],
    /// Always zero. Every data access takes the full directory walk in
    /// `View::prepare`, so none skips it; the field stays because the
    /// `perfbench` harness reads it as `sim.coalesced_share`, until that
    /// metric is retired.
    pub coalesced_accesses: u64,
    /// Merged software-TM statistics (all zero unless an STM or hybrid
    /// sync mode ran).
    pub stm: StmCounts,
    /// Sharded-driver round statistics (all zero on serial runs; host-side
    /// schedule measurements, not simulated outcomes).
    pub sharding: ShardingStats,
}

impl SystemReport {
    /// System-wide abort rate (see [`TxStats::abort_rate`]).
    pub fn abort_rate(&self) -> f64 {
        self.tx.abort_rate()
    }

    /// Instructions per elapsed cycle. With the pipeline window engaged
    /// (`ZTM_ISSUE_WIDTH` > 1) this is a *measured* output of the issue
    /// model, not a configured constant; above 1.0 it demonstrates
    /// same-cycle co-issue. Note it aggregates across CPUs against the
    /// single max clock, so on multi-CPU runs it is `cpus ×` the per-core
    /// rate. Zero when nothing has run.
    pub fn ipc(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.elapsed_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let r = SystemReport::default();
        assert_eq!(r.elapsed_cycles, 0);
        assert_eq!(r.abort_rate(), 0.0);
    }
}
