//! Round planning for the sharded driver.
//!
//! The sharded driver ([`crate::System::set_sim_threads`]) plans the
//! simulated SMP's schedule in conservative rounds on machines with more
//! than one chip: each round admits one *provably node-local* instruction
//! step per CPU, in the serial `(clock, cpu)` order, and runs them on the
//! calling thread. A step that may cross a node (a fabric fetch, an XI
//! broadcast, a quiesce, an abort) runs alone, so architectural state,
//! statistics and the step log are byte-identical to the serial scheduler
//! for any `ZTM_SIM_THREADS` value. Runs with an event tracer attached
//! never shard.
//!
//! This module holds the pure piece: the conservative safe-set rule that
//! decides which steps may share a round. The classifier and the round
//! driver live next to the private `System` internals in `system.rs`.

/// One runnable CPU's classified next step, as seen by the round scheduler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub cpu: usize,
    /// The CPU's local clock (the step's scheduling key is `(clock, cpu)`).
    pub clock: u64,
    /// The step may leave its node (fabric, XIs, aborts, page table, RNG
    /// surprises) — it must run alone, outside any round.
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
/// before any other CPU can next influence them, as indices into `cands`
/// in serial `(clock, cpu)` order.
///
/// A local step of CPU `i` is admitted iff its key `(clock_i, i)` precedes
/// the smallest earliest-possible-global key among all *other* candidates.
/// The serial scheduler picks the lexicographically smallest key each
/// time, so:
///
/// * the serial-minimum step, when local, is always admitted (every other
///   candidate's earliest-global key is at or after its own key, and ties
///   break on CPU index exactly like the serial pick);
/// * when the serial-minimum step is global the set is provably empty, and
///   the caller runs that one step alone;
/// * every admitted key is smaller than every key left out, and admitted
///   steps touch only their own node plus committed-arena bytes of
///   MESI-exclusive lines, so they commute — executing one step of each
///   admitted CPU inside one round, in key order, reproduces the serial
///   schedule exactly;
/// * round keys stay ordered across rounds: CPU `i`'s post-round key is at
///   least its own earliest-global key, which every other admitted key
///   stayed strictly below, so concatenating rounds (each internally
///   key-sorted) yields the exact serial sequence.
///
/// Callers must include in `cands` every runnable CPU whose clock is within
/// one cycle of the minimum; CPUs further out cannot constrain or join the
/// set (their earliest-global key exceeds every admissible candidate key).
pub(crate) fn safe_set(cands: &[Candidate]) -> Vec<usize> {
    // The binding constraint for candidate i is min over j != i of
    // earliest_global(j): track the two smallest to exclude self.
    let eg = EgMin::new(cands);
    let mut out: Vec<usize> = (0..cands.len())
        .filter(|&at| {
            let c = &cands[at];
            !c.global && (c.clock, c.cpu) < eg.excluding(at)
        })
        .collect();
    out.sort_by_key(|&at| (cands[at].clock, cands[at].cpu));
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
    fn serial_min_local_is_always_admitted() {
        let s = safe_set(&[cand(0, 10, false, false), cand(1, 10, false, false)]);
        // CPU 0 is the serial pick; CPU 1's key (10,1) is not before CPU 0's
        // earliest-global (11,0)? It is — (10,1) < (11,0) — so both run.
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn serial_min_global_empties_the_set() {
        let s = safe_set(&[cand(0, 10, true, false), cand(1, 50, false, false)]);
        assert!(s.is_empty(), "a later local must wait for the global step");
    }

    #[test]
    fn distant_local_is_not_admitted_past_a_near_one() {
        // CPU 0 at clock 10 could go global at 11; CPU 1 at 50 must wait.
        let s = safe_set(&[cand(0, 10, false, false), cand(1, 50, false, false)]);
        assert_eq!(s, vec![0]);
    }

    #[test]
    fn zero_cycle_step_blocks_higher_cpus_at_the_same_clock() {
        // CPU 0's RANDMOD retires at clock 10 and its *next* step may be a
        // global at clock 10 — CPU 1 at (10,1) is after (10,0), so only the
        // zero-cycle step itself runs.
        let s = safe_set(&[cand(0, 10, false, true), cand(1, 10, false, false)]);
        assert_eq!(s, vec![0]);
        // A lower-indexed CPU at the same clock still precedes it.
        let s = safe_set(&[cand(1, 10, false, true), cand(0, 10, false, false)]);
        assert_eq!(s, vec![1, 0], "(10,0) precedes (10,1): both admitted");
        // A zero-cycle candidate constrains the other at its *current* key.
        let s = safe_set(&[cand(0, 10, false, true), cand(1, 9, false, false)]);
        assert_eq!(s, vec![1, 0]);
    }

    #[test]
    fn result_is_in_serial_key_order() {
        let s = safe_set(&[
            cand(7, 11, false, false),
            cand(2, 10, false, false),
            cand(5, 10, false, false),
        ]);
        // (10,2), (10,5) admitted; (11,7) is not before eg(2)=(11,2).
        assert_eq!(s, vec![1, 2]);
    }

    #[test]
    fn lone_candidate_runs_unconstrained() {
        assert_eq!(safe_set(&[cand(3, 99, false, false)]), vec![0]);
        assert!(safe_set(&[cand(3, 99, true, false)]).is_empty());
    }
}
