//! Shard planning and round scheduling for the host-parallel simulator.
//!
//! The sharded engine ([`crate::System::set_sim_threads`]) partitions the
//! simulated SMP at a coherence boundary of the zEC12 topology — per book
//! (MCM) when the machine has more than one, per chip otherwise — and
//! advances *provably node-local* instruction steps of different shards
//! concurrently on host threads. Everything that crosses the boundary (a
//! fabric fetch, an XI broadcast, a quiesce, an abort) is executed serially
//! by the coordinator, so the committed event stream and both trace digests
//! are byte-identical to the single-threaded scheduler for any
//! `ZTM_SIM_THREADS` value.
//!
//! This module holds the pure pieces: the shard plan, the conservative
//! safe-set rule that decides which steps may share a round, and the slice
//! splitter that hands each shard disjoint `&mut` views of the per-CPU
//! state. The classifier and the round driver live next to the private
//! `System` internals in `system.rs`.

use std::ops::Range;
use ztm_cache::Topology;

/// Contiguous CPU ranges, one per shard, partitioning `0..cpus` at a
/// coherence boundary of the topology.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    /// Cumulative end index of each shard (`bounds.last() == cpus`).
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Plans shards along book (MCM) boundaries, or chip boundaries when the
    /// machine is a single book. CPUs are numbered chip-major by
    /// [`Topology`], so every shard is one contiguous index range.
    pub(crate) fn new(topology: &Topology) -> ShardPlan {
        let cpus = topology.cpus();
        let stride = if topology.mcm_count() > 1 {
            topology.cores_per_mcm()
        } else {
            topology.cores_per_chip()
        };
        let mut bounds = Vec::new();
        let mut at = 0;
        while at < cpus {
            at = (at + stride).min(cpus);
            bounds.push(at);
        }
        if bounds.is_empty() {
            bounds.push(0);
        }
        ShardPlan { bounds }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.bounds.len()
    }

    /// The CPU index range of shard `s`.
    pub(crate) fn range(&self, s: usize) -> Range<usize> {
        let start = if s == 0 { 0 } else { self.bounds[s - 1] };
        start..self.bounds[s]
    }

    /// Which shard owns `cpu`.
    pub(crate) fn shard_of(&self, cpu: usize) -> usize {
        self.bounds.partition_point(|&b| b <= cpu)
    }

    /// The cumulative bounds, for [`split_mut`].
    pub(crate) fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

/// Splits one mutable slice into per-shard disjoint chunks at the plan's
/// cumulative `bounds`. The chunks can then move into scoped threads.
pub(crate) fn split_mut<'a, T>(mut rest: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len());
    let mut off = 0;
    for &b in bounds {
        let (chunk, r) = rest.split_at_mut(b - off);
        out.push(chunk);
        rest = r;
        off = b;
    }
    out
}

/// One runnable CPU's classified next step, as seen by the round scheduler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub cpu: usize,
    /// The CPU's local clock (the step's scheduling key is `(clock, cpu)`).
    pub clock: u64,
    /// The step may leave its node (fabric, XIs, aborts, page table, RNG
    /// surprises) — it must run serially under the coordinator.
    pub global: bool,
    /// The step is zero-cycle-capable (`RANDMOD`/`STMNOTE` retire in 0
    /// cycles), so the CPU's *next* step can share the same clock.
    pub zero: bool,
}

impl Candidate {
    /// The earliest `(clock, cpu)` key at which this CPU could execute a
    /// *global* step: its current key if the classified step is itself
    /// global or zero-cycle, one cycle later otherwise (every non-zero step
    /// consumes at least one cycle before the CPU reaches its next
    /// instruction).
    fn earliest_global(&self) -> (u64, usize) {
        if self.global || self.zero {
            (self.clock, self.cpu)
        } else {
            (self.clock + 1, self.cpu)
        }
    }
}

/// The two smallest earliest-possible-global keys of a candidate set, so
/// the per-candidate binding constraint — min over *other* candidates —
/// falls out without an O(n²) pass: every candidate's constraint is the
/// smallest key unless that key is its own, in which case it is the second.
struct EgMin {
    /// Smallest earliest-global key and the candidate index holding it.
    best: Option<((u64, usize), usize)>,
    second: Option<(u64, usize)>,
}

/// "No constraint": no other candidate can ever go global.
const UNBOUNDED: (u64, usize) = (u64::MAX, usize::MAX);

impl EgMin {
    fn new(cands: &[Candidate]) -> EgMin {
        let mut best: Option<((u64, usize), usize)> = None;
        let mut second: Option<(u64, usize)> = None;
        for (at, c) in cands.iter().enumerate() {
            let eg = c.earliest_global();
            match best {
                Some((b, _)) if eg >= b => {
                    if second.is_none_or(|s| eg < s) {
                        second = Some(eg);
                    }
                }
                _ => {
                    if let Some((b, _)) = best {
                        second = Some(b);
                    }
                    best = Some((eg, at));
                }
            }
        }
        EgMin { best, second }
    }

    /// The smallest earliest-possible-global key among candidates other
    /// than index `at` ([`UNBOUNDED`] when there is none).
    fn excluding(&self, at: usize) -> (u64, usize) {
        match self.best {
            Some((_, bat)) if bat == at => self.second,
            Some((b, _)) => Some(b),
            None => None,
        }
        .unwrap_or(UNBOUNDED)
    }
}

/// Computes the round's *safe set*: the local steps that provably execute
/// before any other CPU can next influence them, in serial `(clock, cpu)`
/// order. Each admitted entry is `(index into cands, bound)` where `bound`
/// is the smallest earliest-possible-global key among all *other*
/// candidates — the admitted CPU may **run ahead** inside the round,
/// executing its own consecutive provably-local steps while their keys stay
/// strictly below the bound (`(u64::MAX, usize::MAX)` when unconstrained).
///
/// A local step of CPU `i` is admitted iff its key `(clock_i, i)` precedes
/// its bound. The serial scheduler picks the lexicographically smallest key
/// each time, so:
///
/// * the serial-minimum step, when local, is always admitted (every other
///   candidate's earliest-global key is at or after its own key, and ties
///   break on CPU index exactly like the serial pick);
/// * when the serial-minimum step is global the set is provably empty, and
///   the caller runs that one step under the coordinator;
/// * admitted steps — including run-ahead continuations under the bound —
///   touch only their own node plus committed-arena bytes of
///   MESI-exclusive lines, so they commute — executing them inside one
///   round (in any host order) reproduces the serial schedule exactly;
/// * round keys stay ordered across rounds: CPU `i`'s post-round keys are
///   at least its own earliest-global key, which every other CPU's
///   executed keys stayed strictly below, so concatenating rounds (each
///   internally key-sorted, ties broken by within-CPU execution order)
///   yields the exact serial sequence.
///
/// Callers must include in `cands` every runnable CPU whose clock is within
/// one cycle of the minimum; CPUs further out cannot constrain or join the
/// set (their earliest-global key exceeds every admissible candidate key).
pub(crate) fn safe_set(cands: &[Candidate]) -> Vec<(usize, (u64, usize))> {
    // The binding constraint for candidate i is min over j != i of
    // earliest_global(j): track the two smallest to exclude self.
    let eg = EgMin::new(cands);
    let mut out: Vec<(usize, (u64, usize))> = cands
        .iter()
        .enumerate()
        .filter_map(|(at, c)| {
            if c.global {
                return None;
            }
            let bound = eg.excluding(at);
            ((c.clock, c.cpu) < bound).then_some((at, bound))
        })
        .collect();
    out.sort_by_key(|&(at, _)| (cands[at].clock, cands[at].cpu));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(cpu: usize, clock: u64, global: bool, zero: bool) -> Candidate {
        Candidate {
            cpu,
            clock,
            global,
            zero,
        }
    }

    #[test]
    fn plan_partitions_zec12_per_book() {
        let t = Topology::zec12(144);
        let p = ShardPlan::new(&t);
        assert_eq!(p.shard_count(), 4, "four books");
        assert_eq!(p.range(0), 0..36);
        assert_eq!(p.range(3), 108..144);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(35), 0);
        assert_eq!(p.shard_of(36), 1);
        assert_eq!(p.shard_of(143), 3);
    }

    #[test]
    fn plan_falls_back_to_chips_on_one_book() {
        // 8 CPUs, 6 per chip, 4 chips per MCM: one book, two chips.
        let t = Topology::new(8, 6, 4);
        let p = ShardPlan::new(&t);
        assert_eq!(p.shard_count(), 2);
        assert_eq!(p.range(0), 0..6);
        assert_eq!(p.range(1), 6..8);
    }

    #[test]
    fn split_mut_hands_out_disjoint_chunks() {
        let mut v: Vec<u32> = (0..10).collect();
        let chunks = split_mut(&mut v, &[3, 7, 10]);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], &[0, 1, 2]);
        assert_eq!(chunks[1], &[3, 4, 5, 6]);
        assert_eq!(chunks[2], &[7, 8, 9]);
    }

    /// Admitted candidate indices, in serial key order.
    fn idx(cands: &[Candidate]) -> Vec<usize> {
        safe_set(cands).into_iter().map(|(at, _)| at).collect()
    }

    #[test]
    fn serial_min_local_is_always_admitted() {
        let s = idx(&[cand(0, 10, false, false), cand(1, 10, false, false)]);
        // CPU 0 is the serial pick; CPU 1's key (10,1) is not before CPU 0's
        // earliest-global (11,0)? It is — (10,1) < (11,0) — so both run.
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn serial_min_global_empties_the_set() {
        let s = idx(&[cand(0, 10, true, false), cand(1, 50, false, false)]);
        assert!(s.is_empty(), "a later local must wait for the global step");
    }

    #[test]
    fn distant_local_is_not_admitted_past_a_near_one() {
        // CPU 0 at clock 10 could go global at 11; CPU 1 at 50 must wait.
        let s = idx(&[cand(0, 10, false, false), cand(1, 50, false, false)]);
        assert_eq!(s, vec![0]);
    }

    #[test]
    fn zero_cycle_step_blocks_higher_cpus_at_the_same_clock() {
        // CPU 0's RANDMOD retires at clock 10 and its *next* step may be a
        // global at clock 10 — CPU 1 at (10,1) is after (10,0), so only the
        // zero-cycle step itself runs.
        let s = idx(&[cand(0, 10, false, true), cand(1, 10, false, false)]);
        assert_eq!(s, vec![0]);
        // A lower-indexed CPU at the same clock still precedes it.
        let s = idx(&[cand(1, 10, false, true), cand(0, 10, false, false)]);
        assert_eq!(s, vec![1, 0], "(10,0) precedes (10,1): both admitted");
    }

    #[test]
    fn result_is_in_serial_key_order() {
        let s = idx(&[
            cand(7, 11, false, false),
            cand(2, 10, false, false),
            cand(5, 10, false, false),
        ]);
        // (10,2), (10,5) admitted; (11,7) is not before eg(2)=(11,2).
        assert_eq!(s, vec![1, 2]);
    }

    #[test]
    fn lone_candidate_runs_unconstrained() {
        assert_eq!(idx(&[cand(3, 99, false, false)]), vec![0]);
        assert!(safe_set(&[cand(3, 99, true, false)]).is_empty());
    }

    #[test]
    fn bounds_cap_run_ahead_at_the_others_earliest_global() {
        // CPUs 0 and 1 both at clock 10: each may run ahead only up to the
        // other's earliest-global key.
        let s = safe_set(&[cand(0, 10, false, false), cand(1, 10, false, false)]);
        assert_eq!(s, vec![(0, (11, 1)), (1, (11, 0))]);
        // A lone candidate is unconstrained.
        let s = safe_set(&[cand(3, 99, false, false)]);
        assert_eq!(s, vec![(0, (u64::MAX, usize::MAX))]);
        // A zero-cycle candidate bounds the other at its *current* key.
        let s = safe_set(&[cand(0, 10, false, true), cand(1, 9, false, false)]);
        assert_eq!(s, vec![(1, (10, 0)), (0, (10, 1))]);
    }
}
