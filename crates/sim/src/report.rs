//! Aggregated system statistics.

use std::collections::BTreeMap;
use ztm_core::TxStats;

/// Software-TM (TL2) statistics, accumulated from the `STMNOTE` markers the
/// emitted STM programs execute (see `ztm_stm`). All zero for workloads that
/// never run the software path.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
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

/// Sharded round-planner statistics (all zero on serial runs). They
/// describe how the run was planned, not what it simulated: simulated
/// outcomes stay byte-identical for any `ZTM_SIM_THREADS` value, but the
/// rounds exist only when the planner runs, so
/// [`System::fingerprint`](crate::System::fingerprint) leaves them out.
/// Every round runs on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardingStats {
    /// Shard-local rounds run.
    pub rounds: u64,
    /// Steps executed inside those rounds.
    pub local_steps: u64,
    /// Largest single round, in shard-local steps.
    pub round_steps_max: u64,
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
    /// Mean shard-local steps per round. Zero when no round ran.
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
    }
}

/// Serial-scheduler statistics: how the run methods chose their steps.
/// Deterministic for a given sequence of run-method calls, but they describe
/// the schedule, not the simulated outcome: a `step_one` loop and a batched
/// run of the same program count different picks, and traced runs never
/// run ahead, so [`System::fingerprint`](crate::System::fingerprint)
/// leaves them out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Scheduler picks: the times the scheduler chose the CPU to step next.
    pub picks: u64,
    /// Steps a CPU ran past the scheduler's runner-up because its next
    /// instruction was quiet (register-only), net of the ones undone at a
    /// budget or broadcast-stop edge.
    pub run_ahead_steps: u64,
}

impl ScheduleStats {
    /// Steps per pick, given the run's step count. Zero when no pick ran.
    pub fn steps_per_pick(&self, steps: u64) -> f64 {
        if self.picks == 0 {
            0.0
        } else {
            steps as f64 / self.picks as f64
        }
    }

    /// The share of `steps` that ran ahead. Zero when no step ran.
    pub fn run_ahead_share(&self, steps: u64) -> f64 {
        if steps == 0 {
            0.0
        } else {
            self.run_ahead_steps as f64 / steps as f64
        }
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &ScheduleStats) {
        self.picks += other.picks;
        self.run_ahead_steps += other.run_ahead_steps;
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
    /// Serial-scheduler picks and run-ahead steps (schedule measurements,
    /// not simulated outcomes).
    pub schedule: ScheduleStats,
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
