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
//! The module holds the whole planner: the conservative safe-set rule that
//! decides which steps may share a round, the step classifier and the
//! round driver.

use super::{Node, System};
use crate::config::SystemConfig;
use crate::sched::{unpack_entry, WinnerTree};
use rand::Rng;
use ztm_cache::AccessClass;
use ztm_core::InstrClass;
use ztm_isa::{
    decoded::{Op, FLAG_FOR_UPDATE},
    effective_address_decoded, CpuCore, DecodedInstr, Program, StepEvent,
};
use ztm_mem::{Address, MainMemory, PageTable};

/// One runnable CPU's classified next step, as seen by the round scheduler.
#[derive(Debug, Clone, Copy)]
struct Candidate {
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
fn safe_set(cands: &[Candidate]) -> Vec<usize> {
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

impl System {
    /// Whether the run methods should route through the sharded round
    /// planner: a `sim_threads` value above 1, more than one chip in the
    /// topology, and none of the serial-only features engaged. Issue windows re-time
    /// retirement through per-step reports, the legacy interpreter is a
    /// debug lever, the disassembling step trace reads program text during
    /// the step, and an attached event tracer must see events in serial
    /// emission order.
    pub(super) fn sharded_active(&self) -> bool {
        self.sim_threads > 1
            && self.pipeline.is_none()
            && !self.use_legacy_interpreter
            && !self.tracer.is_enabled()
            && !self.traced.iter().any(|&t| t)
            && self.config.topology.chip_count() > 1
    }

    /// Runs up to `limit` steps through the sharded round planner,
    /// stopping early when every CPU halts or, with `horizon`, when the
    /// next serial pick would start at or past it (the exact
    /// [`run_for_cycles`](Self::run_for_cycles) stopping rule). Returns
    /// how many steps executed.
    ///
    /// Each round classifies every runnable CPU within one cycle of the
    /// winner tree's minimum `(clock, cpu)` key and runs one step of each
    /// CPU in the [`safe_set`] — the key-ordered prefix of provably
    /// node-local steps the serial scheduler would run next — in that
    /// order. When the serial pick itself is global (or a CPU holds the
    /// broadcast-stop quiesce) that one step runs alone. Every step goes
    /// through [`run_batch`](Self::run_batch) with a limit of 1, which keeps
    /// the winner tree current, so state, statistics and step logs are
    /// byte-identical to the serial scheduler's.
    pub(super) fn run_sharded_upto(&mut self, limit: u64, horizon: Option<u64>) -> u64 {
        let mut executed = 0u64;
        let mut cands: Vec<Candidate> = Vec::new();
        while executed < limit {
            // The serial pick: a running broadcast-stop holder, else the
            // root. The root is the horizon test's clock either way.
            let Some(next) = self.pick() else {
                break;
            };
            let min_clock = unpack_entry(self.sched.min()).0;
            if horizon.is_some_and(|hz| min_clock >= hz) {
                break;
            }
            if self.quiesce.is_some() {
                self.run_batch(next, 1, u64::MAX);
                executed += 1;
                continue;
            }
            // Only CPUs within one cycle of the minimum can join the round
            // or constrain it (see `safe_set`). A runnable CPU's leaf holds
            // its `(clock, cpu)` key; every other leaf is idle.
            cands.clear();
            for (i, &key) in self.sched.leaves().iter().enumerate() {
                if key == WinnerTree::IDLE {
                    continue;
                }
                let clock = unpack_entry(key).0;
                if clock <= min_clock + 1 {
                    cands.push(classify_step_at(
                        i,
                        clock,
                        &self.nodes[i],
                        &self.cores[i],
                        self.programs[i].as_ref().expect("program loaded"),
                        &self.pages,
                        &self.mem,
                        &self.config,
                    ));
                }
            }
            let mut safe = safe_set(&cands);
            // The horizon is a hard clock ceiling. Keys are ascending, so
            // the cut is a prefix and never empties a non-empty set: the
            // serial-min key is below the horizon, checked above.
            if let Some(hz) = horizon {
                safe.truncate(safe.partition_point(|&at| cands[at].clock < hz));
            }
            if safe.is_empty() {
                // The serial pick itself is global: run exactly that one
                // step and re-plan.
                self.run_batch(next, 1, u64::MAX);
                executed += 1;
                continue;
            }
            // A key-ordered prefix of the safe set is still an exact
            // serial prefix: truncate to the remaining step budget.
            safe.truncate((limit - executed).min(safe.len() as u64) as usize);
            for &at in &safe {
                let Candidate { cpu, clock, .. } = cands[at];
                debug_assert_eq!(self.cores[cpu].clock, clock, "stale round plan");
                let out = self.run_batch(cpu, 1, u64::MAX);
                debug_assert!(
                    !out.broadcast_stop && out.event != StepEvent::Stalled,
                    "a shard-local step can neither stall nor quiesce"
                );
            }
            let total = safe.len() as u64;
            executed += total;
            self.sharded_local_steps += total;
            self.shard_rounds += 1;
            self.shard_round_max = self.shard_round_max.max(total);
        }
        executed
    }
}

/// Classifies one CPU's next instruction step without executing it.
///
/// A step is *local* when it provably touches only the CPU's own node
/// (core, private caches, engine, RNG stream) plus committed-arena
/// bytes of lines its cache already holds with sufficient MESI
/// permission — no fabric traffic, no XIs, no page-table mutation, no
/// abort processing, no arena allocation. Everything else is *global*
/// and runs alone, outside any round.
///
/// Conservative by design: classifying local as global only costs round
/// size, never correctness.
#[allow(clippy::too_many_arguments)]
fn classify_step_at(
    cpu: usize,
    clock: u64,
    node: &Node,
    core: &CpuCore,
    prog: &Program,
    pages: &PageTable,
    mem: &MainMemory,
    config: &SystemConfig,
) -> Candidate {
    let global = Candidate {
        cpu,
        clock,
        global: true,
        zero: false,
    };
    let local = |zero: bool| Candidate {
        cpu,
        clock,
        global: false,
        zero,
    };
    // Anything that can interrupt, abort, or fire PER events must be
    // serialized: a due timer tick raises an async interruption, a
    // pending abort runs millicode abort processing (TDB stores,
    // possible broadcast-stop), PER tracing fires on every predicate,
    // and an armed transaction-diagnostic control can force aborts
    // from `check_instruction`.
    if let Some(t) = config.timer_interval {
        if clock - node.last_timer >= t {
            return global;
        }
    }
    if node.engine.pending_abort().is_some() || core.per.enabled || node.engine.tdc_active() {
        return global;
    }
    let in_tx = node.engine.in_tx();
    // Constrained transactions track their footprint against the §II.D
    // constraints and can raise violations mid-step.
    if in_tx && node.engine.constrained() {
        return global;
    }
    let d = prog.decoded(core.pc);
    // The instruction fetch: the i-cache walk is entirely node-local
    // (instruction lines sit outside the coherence protocol), so only
    // a non-resident text page — an OS page-in — can leave the node.
    if pages.check(Address::new(d.addr)).is_err() {
        return global;
    }
    // Transactionally illegal instruction classes abort in
    // `check_instruction`.
    if in_tx
        && matches!(
            d.class,
            InstrClass::RestrictedInTx | InstrClass::ArModifying | InstrClass::FprModifying
        )
    {
        return global;
    }
    let data = |want_excl: bool, class: AccessClass| {
        classify_data_at(
            cpu, clock, node, core, d, want_excl, class, pages, mem, config,
        )
    };
    match d.op {
        // Pure register, branch, and timing ops never leave the core.
        Op::Lghi
        | Op::Lgr
        | Op::La
        | Op::Agr
        | Op::Sgr
        | Op::Aghi
        | Op::Ngr
        | Op::Xgr
        | Op::Msgr
        | Op::Sllg
        | Op::Srlg
        | Op::Ltgr
        | Op::Cgr
        | Op::Cghi
        | Op::Brc
        | Op::Cgij
        | Op::Brctg
        | Op::Br
        | Op::Etnd
        | Op::Ppa
        | Op::Rdclk
        | Op::Sar
        | Op::Ear
        | Op::Adbr
        | Op::Decimal
        | Op::Privileged
        | Op::Nop
        | Op::Delay
        | Op::Halt => local(false),
        // Zero-cycle retires: the CPU's *next* step shares this clock,
        // which tightens the safe-set bound (see `Candidate`).
        Op::RandMod | Op::StmNote => local(true),
        // Division by zero raises a program exception.
        Op::Dsgr => {
            if core.grs[d.r2 as usize] == 0 {
                global
            } else {
                local(false)
            }
        }
        Op::Lg => data(d.flags & FLAG_FOR_UPDATE != 0, AccessClass::Fetch),
        Op::Ltg | Op::Cg => data(false, AccessClass::Fetch),
        Op::Stg | Op::Stckf => data(true, AccessClass::Store),
        Op::Ntstg => {
            // Misalignment is a specification exception.
            if !effective_address_decoded(core, d).is_aligned(8) {
                return global;
            }
            data(true, AccessClass::Store)
        }
        Op::Csg => data(true, AccessClass::Store),
        // An outermost TBEGIN cannot fail here (constrained mode and
        // the diagnostic control are pre-checked above, and its RNG
        // draw comes from the node's own stream); a nested begin can
        // overflow the depth limit and abort.
        Op::Tbegin => {
            if in_tx {
                global
            } else {
                local(false)
            }
        }
        Op::Tbeginc => global,
        Op::Tend => classify_tend_at(cpu, clock, node, mem),
        Op::Tabort => global,
    }
}

/// Classifies the single data access of a load/store-class instruction:
/// local iff the directory walk provably ends in an L1/L2 hit with
/// sufficient ownership (an L2 hit only re-installs into the L1 — nothing
/// leaves the node), the page is resident, any speculative-prefetch dice
/// roll provably misses, and a write-through store has a committed-arena
/// slot to land in.
#[allow(clippy::too_many_arguments)]
fn classify_data_at(
    cpu: usize,
    clock: u64,
    node: &Node,
    core: &CpuCore,
    d: &DecodedInstr,
    want_excl: bool,
    class: AccessClass,
    pages: &PageTable,
    mem: &MainMemory,
    config: &SystemConfig,
) -> Candidate {
    let global = Candidate {
        cpu,
        clock,
        global: true,
        zero: false,
    };
    let excl = class == AccessClass::Store || want_excl;
    let ea = effective_address_decoded(core, d);
    // Line-crossing accesses raise a specification exception.
    if !ea.fits_in_line(8) {
        return global;
    }
    let line = ea.line();
    let in_tx = node.engine.in_tx();
    if pages.check(ea).is_err() {
        return global; // page fault → OS page-in
    }
    if node.cache.probe_local(line, excl).is_none() {
        return global; // L2 miss or ownership upgrade → fabric fetch
    }
    // A transactional fetch rolls the speculative-prefetch dice; a
    // firing prefetch reaches the fabric. Peek the roll on a clone of
    // the node's RNG — the real step replays the identical draw from
    // the identical stream state, so a miss here is a miss there.
    if class == AccessClass::Fetch
        && in_tx
        && config.speculative_prefetch
        && config.prefetch_probability > 0.0
        && !node.engine.speculation_disabled()
    {
        let mut dice = node.rng.clone();
        if dice.gen_bool(config.prefetch_probability) {
            return global;
        }
    }
    // A non-transactional store that writes through to a line with no
    // committed-arena slot yet allocates one: global.
    if class == AccessClass::Store && !in_tx && mem.line_slot(line).is_none() {
        return global;
    }
    Candidate {
        cpu,
        clock,
        global: false,
        zero: false,
    }
}

/// Classifies TEND: engine-only unless it commits the outermost level,
/// in which case the store-cache drain needs a committed-arena slot for
/// every transactional store line. (The PER TEND event and the
/// diagnostic-control forcing are already pre-checked by the caller.)
fn classify_tend_at(cpu: usize, clock: u64, node: &Node, mem: &MainMemory) -> Candidate {
    let slots_ok = node.engine.depth() != 1
        || node
            .cache
            .store_cache()
            .tx_lines()
            .into_iter()
            .all(|line| mem.line_slot(line).is_some());
    Candidate {
        cpu,
        clock,
        global: !slots_ok,
        zero: false,
    }
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
