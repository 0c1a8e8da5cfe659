//! Millicode-implemented functions: abort processing costs, the PPA backoff
//! assist, and the constrained-transaction retry ladder (§III.E).

use rand::Rng;
use std::hash::{Hash, Hasher};
use ztm_trace::{Event, Tracer};

/// Cycle costs of millicode routines (§III.E: "Every transaction abort
/// invokes a dedicated millicode sub-routine").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MillicodeCosts {
    /// Base cost of the abort sub-routine (SPR reads, PSW setup).
    pub abort_base: u64,
    /// Additional cost to extract and store a 256-byte TDB.
    pub tdb_store: u64,
    /// Cost per GR pair restored from the backup register file.
    pub per_gr_pair_restore: u64,
    /// Base unit of the PPA random delay.
    pub ppa_base: u64,
    /// Cap on the PPA delay exponent (delays stop doubling here).
    pub ppa_max_shift: u32,
}

impl MillicodeCosts {
    /// Plausible zEC12-flavored defaults (the paper only says TDB storing
    /// "takes a number of CPU cycles").
    pub fn zec12() -> Self {
        MillicodeCosts {
            abort_base: 250,
            tdb_store: 150,
            per_gr_pair_restore: 2,
            ppa_base: 64,
            ppa_max_shift: 6,
        }
    }

    /// The Perform Processor Assist delay for a given software-reported
    /// abort count: random exponential backoff whose distribution is owned
    /// by the machine, not the program (§II.A).
    pub fn ppa_delay(&self, abort_count: u64, rng: &mut impl Rng) -> u64 {
        let shift = (abort_count.min(self.ppa_max_shift as u64)) as u32;
        let ceiling = self.ppa_base << shift;
        rng.gen_range(0..=ceiling)
    }
}

impl Default for MillicodeCosts {
    fn default() -> Self {
        MillicodeCosts::zec12()
    }
}

/// Configuration of the constrained-transaction retry escalation ladder
/// (§III.E): increasing random delays, then reduced speculation, then — as a
/// last resort — broadcasting to other CPUs to stop conflicting work.
/// The booleans are ablation knobs (DESIGN.md E4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryLadderConfig {
    /// Base unit of the inter-retry random delay.
    pub delay_base: u64,
    /// Cap on the delay exponent.
    pub delay_max_shift: u32,
    /// Aborts after which speculative fetching is disabled (0 = immediately).
    pub disable_speculation_after: u32,
    /// Aborts after which other CPUs are quiesced for one retry.
    pub broadcast_stop_after: u32,
    /// Ablation: allow the speculation-disable stage.
    pub enable_speculation_stage: bool,
    /// Ablation: allow the broadcast-stop stage.
    pub enable_broadcast_stage: bool,
}

impl RetryLadderConfig {
    /// The default ladder used by the zEC12 model: delays grow first,
    /// speculation is reduced early, and the broadcast-stop quiesce remains
    /// a genuine last resort (§III.E).
    pub fn zec12() -> Self {
        RetryLadderConfig {
            delay_base: 64,
            delay_max_shift: 5,
            disable_speculation_after: 3,
            broadcast_stop_after: 6,
            enable_speculation_stage: true,
            enable_broadcast_stage: true,
        }
    }
}

impl Default for RetryLadderConfig {
    fn default() -> Self {
        RetryLadderConfig::zec12()
    }
}

/// What millicode does before the next retry of an aborted constrained
/// transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryAction {
    /// Random delay (cycles) before the retry.
    pub delay: u64,
    /// Whether speculative fetching is disabled for the retry.
    pub disable_speculation: bool,
    /// Whether all other CPUs are quiesced for the retry (last resort; this
    /// is what ultimately guarantees forward progress).
    pub broadcast_stop: bool,
}

/// Millicode state tracking consecutive aborts of a constrained transaction
/// (§III.E: "millicode keeps track of the number of aborts. The counter is
/// reset to 0 on successful TEND completion, or if an interruption into the
/// OS occurs").
#[derive(Debug, Clone, Default)]
pub struct ConstrainedRetry {
    config: RetryLadderConfig,
    count: u32,
    tracer: Tracer,
}

impl ConstrainedRetry {
    /// Creates the ladder with the given configuration.
    pub fn new(config: RetryLadderConfig) -> Self {
        ConstrainedRetry {
            config,
            count: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer for ladder-stage transitions.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Consecutive aborts seen so far.
    pub fn abort_count(&self) -> u32 {
        self.count
    }

    /// Called on each constrained-transaction abort; returns the escalation
    /// action for the next retry.
    pub fn on_abort(&mut self, rng: &mut impl Rng) -> RetryAction {
        self.count += 1;
        let shift = self.count.min(self.config.delay_max_shift);
        let ceiling = self.config.delay_base << shift;
        let action = RetryAction {
            delay: rng.gen_range(0..=ceiling),
            disable_speculation: self.config.enable_speculation_stage
                && self.count >= self.config.disable_speculation_after,
            broadcast_stop: self.config.enable_broadcast_stage
                && self.count >= self.config.broadcast_stop_after,
        };
        self.tracer.emit(|| Event::LadderStage {
            attempt: self.count,
            delay: action.delay,
            disable_spec: action.disable_speculation,
            broadcast_stop: action.broadcast_stop,
        });
        action
    }

    /// Called when the constrained transaction commits.
    pub fn on_commit(&mut self) {
        self.count = 0;
    }

    /// Called when an interruption into the OS occurs (millicode cannot know
    /// if or when the OS returns, §III.E).
    pub fn on_os_interruption(&mut self) {
        self.count = 0;
    }
}

/// Folds the abort count. The ladder configuration is configuration and
/// the tracer observes; both are left out.
impl Hash for ConstrainedRetry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ConstrainedRetry {
            config: _,
            count,
            tracer: _,
        } = self;
        count.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ppa_delay_grows_with_abort_count() {
        let mut rng = SmallRng::seed_from_u64(7);
        let costs = MillicodeCosts::zec12();
        let avg = |count: u64, rng: &mut SmallRng| -> u64 {
            (0..200).map(|_| costs.ppa_delay(count, rng)).sum::<u64>() / 200
        };
        let early = avg(0, &mut rng);
        let late = avg(6, &mut rng);
        assert!(
            late > early * 8,
            "expected exponential growth: {early} vs {late}"
        );
        // Exponent caps: counts beyond the shift cap give the same ceiling.
        let capped = avg(60, &mut rng);
        assert!(capped < late * 3);
    }

    #[test]
    fn ladder_escalates_in_stages() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut r = ConstrainedRetry::new(RetryLadderConfig::zec12());
        let a1 = r.on_abort(&mut rng);
        assert!(!a1.disable_speculation && !a1.broadcast_stop);
        r.on_abort(&mut rng);
        let a3 = r.on_abort(&mut rng); // 3rd abort reaches the no-spec stage
        assert!(a3.disable_speculation && !a3.broadcast_stop);
        for _ in 0..12 {
            r.on_abort(&mut rng);
        }
        let a16 = r.on_abort(&mut rng); // 16th abort: last resort
        assert!(a16.disable_speculation && a16.broadcast_stop);
    }

    #[test]
    fn commit_and_os_interruption_reset() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut r = ConstrainedRetry::new(RetryLadderConfig::zec12());
        for _ in 0..10 {
            r.on_abort(&mut rng);
        }
        assert_eq!(r.abort_count(), 10);
        r.on_commit();
        assert_eq!(r.abort_count(), 0);
        r.on_abort(&mut rng);
        r.on_os_interruption();
        assert_eq!(r.abort_count(), 0);
    }

    #[test]
    fn ablation_knobs_disable_stages() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut r = ConstrainedRetry::new(RetryLadderConfig {
            enable_speculation_stage: false,
            enable_broadcast_stage: false,
            ..RetryLadderConfig::zec12()
        });
        for _ in 0..20 {
            let a = r.on_abort(&mut rng);
            assert!(!a.disable_speculation && !a.broadcast_stop);
        }
    }
}
