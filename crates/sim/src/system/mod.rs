//! The multi-CPU system simulator: wires CPU cores, private caches, the
//! coherence fabric, and per-CPU transaction engines into one deterministic
//! discrete-event machine.
//!
//! This module holds [`System`], its step driver (`run_batch`), the run
//! methods and the report; `view` holds the per-step machine view with the
//! memory and fabric glue, `shard` the sharded round planner.

mod shard;
mod view;

use crate::config::SystemConfig;
use crate::report::SystemReport;
use crate::sched::{pack_entry, unpack_entry, WinnerTree};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use view::{deliver_xi, View};
use ztm_cache::{Fabric, PrivateCache};
use ztm_core::{TxEngine, TxStats};
use ztm_isa::{CpuCore, Op, Program, StepEvent, StepOutcome};
use ztm_mem::{Address, LineAddr, MainMemory, PageTable};
use ztm_trace::{Event, Tracer};

/// Per-CPU memory-side state.
#[derive(Debug)]
struct Node {
    cache: PrivateCache,
    /// Instruction cache directory (zEC12: separate 64 KB L1-I; modeled as
    /// 64 sets × 4 ways of text lines, misses served by the L2-I at the
    /// L2 latency). Instruction lines never join the transactional
    /// footprint — tx-read tracking is an L1-D mechanism (§III.C).
    icache: ztm_cache::SetAssoc<()>,
    engine: TxEngine,
    rng: SmallRng,
    prefix_area: Address,
    last_timer: u64,
    /// XI-stall retries observed (statistics).
    stalls: u64,
    /// Two-line instruction-fetch buffer (see `View::ifetch`).
    ifetch: IfetchBuffer,
    /// Software-TM statistics observed via `STMNOTE` markers.
    stm: crate::report::StmCounts,
    /// This CPU's run-ahead steps still past the serial frontier.
    ahead: AheadLog,
}

/// Folds every per-CPU state component (see [`System::fingerprint`]). The
/// RNG folds as one draw from a clone, so the fold leaves the stream where
/// it was. Only the undo log's length folds: a driver returns with every
/// log empty, and the slots past the length are scratch.
impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Node {
            cache,
            icache,
            engine,
            rng,
            prefix_area,
            last_timer,
            stalls,
            ifetch,
            stm,
            ahead,
        } = self;
        cache.hash(state);
        icache.hash(state);
        engine.hash(state);
        rng.clone().next_u64().hash(state);
        prefix_area.hash(state);
        last_timer.hash(state);
        stalls.hash(state);
        ifetch.hash(state);
        stm.hash(state);
        ahead.len.hash(state);
    }
}

/// The text lines an i-fetch may take without an L1-I directory walk.
///
/// Both lines were resident at the last walk, and both stay valid while
/// the page-residency epoch recorded then holds. Instruction lines receive
/// no XIs (the i-cache is outside the coherence protocol), and only a walk
/// installs into the i-cache — and every walk re-records this buffer — so
/// no install can happen while it is valid.
#[derive(Debug, Default, Hash)]
struct IfetchBuffer {
    /// The text line the previous instruction fetched from.
    last: Option<LineAddr>,
    /// The line fetched before `last`, kept only when its L1-I congruence
    /// class differs from `last`'s.
    prev: Option<LineAddr>,
    /// Page-residency epoch at the last walk.
    epoch: u64,
}

/// One record of the per-CPU execution trace (see [`System::set_trace`]).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The CPU that stepped.
    pub cpu: usize,
    /// The CPU's clock before the step.
    pub clock: u64,
    /// Byte address of the instruction.
    pub ia: u64,
    /// Disassembled instruction text.
    pub text: String,
    /// What the step did (executed, stalled, committed, aborted).
    pub event: StepEvent,
    /// Cycles the step consumed.
    pub cycles: u64,
}

/// How many records the execution trace keeps (see [`System::set_trace`]).
const TRACE_CAPACITY: usize = 10_000;

/// The full simulated SMP system.
///
/// Owns everything: committed memory, the page table, the coherence fabric,
/// and per CPU a [`CpuCore`] (architectural registers), a
/// [`PrivateCache`] (L1/L2/store cache) and a [`TxEngine`].
///
/// Simulation is single-threaded and deterministic, and its result is the
/// serial schedule: the running CPU with the smallest `(clock, cpu)` key
/// steps next, one instruction per step, and cross-interrogates are
/// delivered synchronously at instruction boundaries, which realizes the
/// paper's rule that instruction completion stalls while XIs are pending
/// (§III.C). Each run method stops on a step budget, never on a clock:
/// [`step_one`](Self::step_one) runs one step, [`step_many`](Self::step_many)
/// up to `limit`, and [`run_until_halt`](Self::run_until_halt) loops
/// `step_many` until every CPU halts. Untraced batched runs may step a
/// CPU's register-only instructions ahead of the serial order (quiet
/// run-ahead, see the private `run_batch`) and undo any that end up past a
/// step budget, a broadcast stop or a page-residency change, so every run
/// method leaves the state a `step_one` loop would.
/// [`fingerprint`](Self::fingerprint) folds that state, and the
/// differential tests compare it.
///
/// # Examples
///
/// ```
/// use ztm_sim::{System, SystemConfig};
/// use ztm_isa::{Assembler, MemOperand, gr::*};
///
/// let mut sys = System::new(SystemConfig::with_cpus(2));
/// let mut a = Assembler::new(0);
/// a.lghi(R1, 1);
/// a.stg(R1, MemOperand::absolute(0x100));
/// a.halt();
/// let prog = a.assemble()?;
/// sys.load_program_all(&prog);
/// sys.run_until_halt(10_000);
/// assert_eq!(sys.mem().load_u64(ztm_mem::Address::new(0x100)), 1);
/// # Ok::<(), ztm_isa::AsmError>(())
/// ```
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    mem: MainMemory,
    pages: PageTable,
    fabric: Fabric,
    nodes: Vec<Node>,
    cores: Vec<CpuCore>,
    /// Set when [`core_mut`](Self::core_mut) hands out direct mutable access
    /// to a core (tests poke clocks and states); the next scheduling
    /// decision rebuilds the winner tree from `cores` first.
    sched_stale: bool,
    /// Route steps through [`ztm_isa::step_legacy`] (the original
    /// `Instr`-enum walk) instead of the predecoded dispatch — the
    /// differential determinism tests run both.
    use_legacy_interpreter: bool,
    programs: Vec<Option<Arc<Program>>>,
    /// CPU currently holding the broadcast-stop quiesce (§III.E).
    quiesce: Option<usize>,
    /// The scheduler's winner tree, the one scheduling copy of every CPU's
    /// clock and run state. Invariant (while `sched_stale` is clear): leaf
    /// `i` holds `pack_entry(cores[i].clock, i)` when CPU `i` is running and
    /// has a program, else [`WinnerTree::IDLE`], so the root is the serial
    /// pick. A step refreshes only the stepped CPU's leaf.
    sched: WinnerTree,
    /// CPUs whose steps are being traced.
    traced: Vec<bool>,
    /// Bounded execution trace (most recent [`TRACE_CAPACITY`] records).
    trace: std::collections::VecDeque<TraceRecord>,
    /// Event tracer ([`ztm_trace`]); disabled by default.
    tracer: Tracer,
    steps: u64,
    /// Per-core in-order issue windows. `None` (the default) routes steps
    /// through the scalar retirement path; engaged by `ZTM_ISSUE_WIDTH` > 1
    /// or [`set_issue_width`](Self::set_issue_width). Functional execution
    /// is identical either way — the window only re-times retirement
    /// (see `ztm_isa::step_pipelined`).
    pipeline: Option<Vec<ztm_isa::IssueWindow>>,
    /// The `ZTM_SIM_THREADS` /
    /// [`set_sim_threads`](Self::set_sim_threads) value. `1` (the default)
    /// keeps the one-CPU-at-a-time scheduler; any value above `1` routes
    /// the run methods through the round planner, which groups provably
    /// node-local steps into rounds. Simulation results are byte-identical
    /// for any value.
    sim_threads: usize,
    /// Steps the round planner admitted into shard-local rounds, as opposed
    /// to steps it ran one at a time. Pure statistics.
    sharded_local_steps: u64,
    /// Shard-local rounds run.
    shard_rounds: u64,
    /// Largest single round, in shard-local steps.
    shard_round_max: u64,
    /// Picks and run-ahead steps of `run_batch`. Pure statistics.
    schedule: crate::report::ScheduleStats,
}

/// One issue window of `width` per CPU.
fn issue_windows(width: u64, cpus: usize, lsu_ports: u64) -> Vec<ztm_isa::IssueWindow> {
    (0..cpus)
        .map(|_| ztm_isa::IssueWindow::new(width, lsu_ports))
        .collect()
}

/// The ops a CPU may run ahead of the scheduler's runner-up (see
/// `System::run_batch`). Each reads and writes only its own CPU's GRs (at
/// most `r1`), cc, pc and clock; none touches memory, and outside a
/// transaction none can fault, stall or abort. The other register-only ops
/// stay out: `DSGR` can fault, `BR` jumps through a register to any index,
/// `RDCLK` reads the clock, `SAR`, `EAR` and `ADBR` touch registers the
/// undo log does not save, `RANDMOD` draws from the CPU's RNG, and
/// `DECIMAL`, `PRIVILEGED` and `ETND` are rare.
const QUIET_OPS: u64 = {
    let ops = [
        Op::Lghi,
        Op::Lgr,
        Op::La,
        Op::Agr,
        Op::Sgr,
        Op::Aghi,
        Op::Ngr,
        Op::Xgr,
        Op::Msgr,
        Op::Sllg,
        Op::Srlg,
        Op::Ltgr,
        Op::Cgr,
        Op::Cghi,
        Op::Brc,
        Op::Cgij,
        Op::Brctg,
        Op::Delay,
        Op::Nop,
    ];
    let mut mask = 0u64;
    let mut k = 0;
    while k < ops.len() {
        mask |= 1 << ops[k] as u8;
        k += 1;
    }
    mask
};
const _: () = assert!((Op::Halt as u8) < 64, "QUIET_OPS is a 64-bit mask");

/// Capacity of a CPU's undo log: the longest quiet tail one pick may run
/// past the runner-up. Fixed, so a run-ahead step allocates nothing.
const AHEAD_CAP: usize = 16;

/// The pre-state of one run-ahead step, which an undo restores.
#[derive(Debug, Clone, Copy, Default)]
struct AheadStep {
    /// The step's serial `(clock, cpu)` key; its clock is the pre-clock.
    key: u64,
    /// GR `reg`'s value before the step.
    old: u64,
    pc: u32,
    /// The op's `r1` slot: the one GR a quiet op may write.
    reg: u8,
    cc: u8,
    /// The fetch swapped the i-fetch buffer's two lines.
    swapped: bool,
}

/// A CPU's run-ahead steps past the serial frontier, oldest first.
#[derive(Debug, Default)]
struct AheadLog {
    len: usize,
    steps: [AheadStep; AHEAD_CAP],
}

/// Undoes CPU `core`'s run-ahead steps whose key is at or past `edge`,
/// newest first, and forgets the rest: they precede `edge`, so they are
/// final. Returns how many steps it undid.
fn settle_ahead(core: &mut CpuCore, node: &mut Node, edge: u64) -> u64 {
    let log = &mut node.ahead;
    let mut undone = 0;
    while log.len > 0 && log.steps[log.len - 1].key >= edge {
        log.len -= 1;
        let s = log.steps[log.len];
        core.grs[s.reg as usize & 15] = s.old;
        core.cc = s.cc;
        core.pc = s.pc as usize;
        core.clock = unpack_entry(s.key).0;
        if s.swapped {
            let buf = &mut node.ifetch;
            std::mem::swap(&mut buf.last, &mut buf.prev);
        }
        undone += 1;
    }
    log.len = 0;
    core.instructions -= undone;
    node.cache.take_back_instruction_completions(undone);
    undone
}

/// Settles every CPU's run-ahead steps at `edge` (see [`settle_ahead`]) and
/// re-keys the CPUs it moved back. Returns how many steps it undid.
fn settle_all(cores: &mut [CpuCore], nodes: &mut [Node], sched: &mut WinnerTree, edge: u64) -> u64 {
    let mut undone = 0;
    for (j, (core, node)) in cores.iter_mut().zip(nodes.iter_mut()).enumerate() {
        if node.ahead.len == 0 {
            continue;
        }
        let n = settle_ahead(core, node, edge);
        if n > 0 {
            sched.set(j, pack_entry(core.clock, j));
            undone += n;
        }
    }
    undone
}

/// The serial scheduler's pick: a running broadcast-stop holder whatever
/// its clock, else the winner tree's root (smallest `(clock, cpu)`), or
/// `None` when every CPU has halted. Forgets a holder that stopped running.
fn serial_pick(
    quiesce: &mut Option<usize>,
    cores: &[CpuCore],
    sched: &WinnerTree,
) -> Option<usize> {
    match *quiesce {
        Some(holder) if cores[holder].is_running() => Some(holder),
        _ => {
            *quiesce = None;
            match sched.min() {
                WinnerTree::IDLE => None,
                entry => Some(unpack_entry(entry).1),
            }
        }
    }
}

/// Ends `holder`'s broadcast-stop quiesce (§III.E): every running CPU
/// behind its clock resumes at that clock. Rare, so `#[cold]` keeps its
/// loop out of the step loop's body (EXPERIMENTS.md S13).
#[cold]
fn release_quiesce(
    cores: &mut [CpuCore],
    programs: &[Option<Arc<Program>>],
    sched: &mut WinnerTree,
    holder: usize,
) {
    let t = cores[holder].clock;
    for (j, core) in cores.iter_mut().enumerate() {
        if j == holder || !core.is_running() || core.clock >= t {
            continue;
        }
        core.clock = t;
        if programs[j].is_some() {
            sched.set(j, pack_entry(t, j));
        }
    }
}

impl System {
    /// Builds a system from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let cpus = config.topology.cpus();
        let nodes = (0..cpus)
            .map(|i| Node {
                cache: PrivateCache::with_cpu_count(config.geometry.clone(), cpus),
                icache: ztm_cache::SetAssoc::new(64, 4),
                engine: TxEngine::new(config.engine.clone()),
                rng: SmallRng::seed_from_u64(
                    config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1),
                ),
                prefix_area: Address::new(0xFFFF_0000 + (i as u64) * 4096),
                last_timer: 0,
                stalls: 0,
                ifetch: IfetchBuffer::default(),
                stm: crate::report::StmCounts::default(),
                ahead: AheadLog::default(),
            })
            .collect();
        let fabric = Fabric::new(
            config.topology.clone(),
            config.latency.clone(),
            config.fabric_occupancy,
            config.l3_geometry,
        );
        System {
            fabric,
            mem: MainMemory::new(),
            pages: PageTable::all_resident(),
            nodes,
            cores: (0..cpus).map(|_| CpuCore::new()).collect(),
            sched_stale: false,
            use_legacy_interpreter: false,
            programs: vec![None; cpus],
            quiesce: None,
            sched: WinnerTree::new(cpus),
            traced: vec![false; cpus],
            trace: std::collections::VecDeque::new(),
            tracer: Tracer::disabled(),
            steps: 0,
            pipeline: crate::env_usize("ZTM_ISSUE_WIDTH")
                .filter(|&w| w > 1)
                .map(|w| issue_windows(w as u64, cpus, config.latency.lsu_ports)),
            sim_threads: crate::env_usize("ZTM_SIM_THREADS").unwrap_or(1),
            sharded_local_steps: 0,
            shard_rounds: 0,
            shard_round_max: 0,
            schedule: Default::default(),
            config,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cores.len()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Committed memory (read).
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Committed memory (write — for workload setup).
    pub fn mem_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// The page table (evict pages to inject faults).
    pub fn pages_mut(&mut self) -> &mut PageTable {
        &mut self.pages
    }

    /// A CPU's architectural core state.
    pub fn core(&self, cpu: usize) -> &CpuCore {
        &self.cores[cpu]
    }

    /// Mutable core state (set up registers, PER controls).
    pub fn core_mut(&mut self, cpu: usize) -> &mut CpuCore {
        // The caller may change the clock or run state behind the
        // scheduler's back; rebuild the winner tree lazily.
        self.sched_stale = true;
        &mut self.cores[cpu]
    }

    /// Selects the interpreter: `true` routes steps through the original
    /// `Instr`-enum walk ([`ztm_isa::step_legacy`]), `false` (the default)
    /// through the predecoded micro-op dispatch. Both must produce
    /// identical outcomes — the differential tests flip this switch.
    pub fn set_legacy_interpreter(&mut self, legacy: bool) {
        self.use_legacy_interpreter = legacy;
    }

    /// Always zero. Every step goes through the scalar scheduler, so no
    /// step is retired as part of a batched straight-line block; the method
    /// stays because the `perfbench` harness reads it as
    /// `sim.superblock_share`, until that metric is retired.
    pub fn superblock_steps(&self) -> u64 {
        0
    }

    /// Sets the in-order issue width (§II.B: the zEC12 core decodes three
    /// instructions per cycle). Width 1 still routes through the pipeline
    /// window — it must reduce exactly to the scalar path, and the lockstep
    /// differential test pins that; widths above 1 let independent micro-ops
    /// share a cycle so IPC becomes a measured output. Resets any existing
    /// window state.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn set_issue_width(&mut self, width: u64) {
        self.pipeline = Some(issue_windows(
            width,
            self.cores.len(),
            self.config.latency.lsu_ports,
        ));
    }

    /// Selects the run path (also settable at construction via
    /// `ZTM_SIM_THREADS`). `1` (the default) keeps the one-CPU-at-a-time
    /// scheduler. Any value above `1` selects the round planner on machines
    /// with more than one chip, and every such value runs the same schedule
    /// on the calling thread: each round admits the key-ordered prefix of
    /// provably node-local steps the serial scheduler would run next, one
    /// step per CPU, and runs them in that order. Simulation results (the
    /// whole [`fingerprint`](Self::fingerprint) and the statistics) are
    /// identical for any value; only
    /// [`ShardingStats`](crate::ShardingStats) counts the rounds. Runs with
    /// an event tracer attached always take the serial scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn set_sim_threads(&mut self, threads: usize) {
        assert!(threads > 0, "sim_threads must be positive");
        self.sim_threads = threads;
    }

    /// CPU `i`'s winner-tree key: its packed `(clock, cpu)` when it is
    /// running and has a program, else [`WinnerTree::IDLE`].
    fn sched_key(&self, i: usize) -> u64 {
        let core = &self.cores[i];
        if core.is_running() && self.programs[i].is_some() {
            pack_entry(core.clock, i)
        } else {
            WinnerTree::IDLE
        }
    }

    /// Recomputes every winner-tree leaf from the cores.
    fn rebuild_sched(&mut self) {
        let keys: Vec<u64> = (0..self.cores.len()).map(|i| self.sched_key(i)).collect();
        self.sched.rebuild(keys);
        self.sched_stale = false;
    }

    /// A CPU's transactional statistics.
    pub fn tx_stats(&self, cpu: usize) -> &TxStats {
        self.nodes[cpu].engine.stats()
    }

    /// A CPU's private cache unit (inspect footprint state).
    pub fn cache(&self, cpu: usize) -> &PrivateCache {
        &self.nodes[cpu].cache
    }

    /// XI-stall retries a CPU has performed.
    pub fn stalls(&self, cpu: usize) -> u64 {
        self.nodes[cpu].stalls
    }

    /// Loads a program onto one CPU.
    pub fn load_program(&mut self, cpu: usize, prog: &Program) {
        self.programs[cpu] = Some(Arc::new(prog.clone()));
        self.sched.set(cpu, self.sched_key(cpu));
    }

    /// Loads the same program onto every CPU.
    pub fn load_program_all(&mut self, prog: &Program) {
        let p = Arc::new(prog.clone());
        for cpu in 0..self.programs.len() {
            self.programs[cpu] = Some(Arc::clone(&p));
        }
        self.rebuild_sched();
    }

    /// Whether any CPU is still running.
    pub fn any_running(&self) -> bool {
        self.cores.iter().any(|c| c.is_running())
    }

    /// Enables or disables execution tracing for one CPU. Traced steps are
    /// recorded (bounded ring of the most recent 10 000) with disassembled
    /// instruction text — the simulator-side analog of the paper's
    /// instruction-trace debugging workflows.
    pub fn set_trace(&mut self, cpu: usize, enabled: bool) {
        self.traced[cpu] = enabled;
    }

    /// Attaches an event tracer ([`ztm_trace`]): every CPU's data cache,
    /// store cache, transaction engine and millicode retry ladder emit to a
    /// per-CPU clone, and the fabric emits requester-attributed XI-issue
    /// events. The instruction cache is deliberately left untraced so
    /// `Access` events count data-side activity exactly once.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let t = tracer.for_cpu(i as u16);
            node.cache.set_tracer(t.clone());
            node.engine.set_tracer(t);
        }
        self.fabric.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The recorded execution trace, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceRecord> {
        self.trace.iter()
    }

    /// Renders the recorded trace as a listing.
    pub fn trace_listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.trace {
            let _ = writeln!(
                out,
                "cpu{:<3} {:>10}  {:#08x}  {:<28} {:?} (+{})",
                r.cpu, r.clock, r.ia, r.text, r.event, r.cycles
            );
        }
        out
    }

    /// Steps the runnable CPU with the smallest local clock. Returns the
    /// CPU index and outcome, or `None` when every CPU has halted.
    pub fn step_one(&mut self) -> Option<(usize, StepOutcome)> {
        let i = self.pick()?;
        Some((i, self.run_batch(i, 1)))
    }

    /// The serial scheduler's pick (see [`serial_pick`]), after rebuilding
    /// a stale winner tree.
    fn pick(&mut self) -> Option<usize> {
        if self.sched_stale {
            self.rebuild_sched();
        }
        serial_pick(&mut self.quiesce, &self.cores, &self.sched)
    }

    /// The step loop, and the only caller of `ztm_isa::step*`: steps from
    /// the pick `first` and follows the serial schedule ([`serial_pick`])
    /// across picks until `limit` (at least 1) steps have run or every CPU
    /// has halted. Returns the last step's outcome. With `limit` 1
    /// (`step_one` and the round planner) it steps `first` once.
    ///
    /// A pick steps its CPU `i` while `i` stays the serial scheduler's next
    /// pick. Other CPUs' keys cannot change during a step of `i` (a step
    /// reaches no other core), so the pick reads the winner tree's
    /// [`runner_up`](WinnerTree::runner_up) once, and each test is one
    /// compare of `i`'s live `(clock, cpu)` key against it. A
    /// broadcast-stop holder's pick has no such bound. A broadcast stop, a
    /// quiesce release, a halt and the budget each end the pick, and `i`'s
    /// leaf is written once, when the pick ends.
    ///
    /// **Quiet run-ahead.** When `i` passes the runner-up, the pick goes on
    /// stepping `i` while its next instruction is quiet: a [`QUIET_OPS`]
    /// op, outside a transaction, with no pending abort, PER off, no timer
    /// tick due, and its text line in the i-fetch buffer at the current
    /// page epoch. Only untraced calls with a budget above one run ahead:
    /// no event tracer, traced CPU or issue window, and no
    /// quiesce held. Such a step reads and writes only `i`'s GRs, cc, pc,
    /// clock, instruction count, reject epoch and i-fetch buffer order, and
    /// reads the page epoch. No other CPU's step reads any of them: an XI
    /// to a CPU outside a transaction is never stiff-armed and its
    /// footprint events are ignored. So a quiet step commutes with every
    /// step it overtakes except a change of page residency, and running it
    /// early leaves the serial state.
    ///
    /// Each run-ahead step pushes its key and pre-state to `i`'s fixed-size
    /// undo log, and the undo invariant keeps every edge exact: a step whose
    /// key is at or past the serial frontier is undone before anything can
    /// observe it. The frontier is the root when the call returns, which
    /// leaves an exact serial prefix; and the key of a step that raises a
    /// broadcast stop (the other CPUs freeze at that key) or changes page
    /// residency. A pick forgets its CPU's log, whose steps all precede the
    /// root.
    fn run_batch(&mut self, first: usize, limit: u64) -> StepOutcome {
        let tracing = self.tracer.is_enabled();
        let timer = self.config.timer_interval;
        let legacy = self.use_legacy_interpreter;
        let may_run_ahead =
            limit > 1 && !tracing && self.pipeline.is_none() && !self.traced.contains(&true);
        let mut view = View {
            cpu: first,
            now: 0,
            tracer: &self.tracer,
            nodes: &mut self.nodes,
            fabric: &mut self.fabric,
            mem: &mut self.mem,
            pages: &mut self.pages,
            config: &self.config,
        };
        // Set once a run-ahead step is logged; cleared when every log is.
        let mut in_flight = false;
        let (mut done, mut picks, mut ahead) = (0u64, 0u64, 0u64);
        let mut i = first;
        let mut out;
        loop {
            picks += 1;
            let holding = self.quiesce == Some(i);
            let traced = self.traced[i];
            let prog: &Program = self.programs[i].as_ref().expect("program loaded");
            view.cpu = i;
            view.nodes[i].ahead.len = 0;
            let page_epoch = view.pages.epoch();
            // A holder runs unbounded: no key passes `IDLE`.
            let runner_up = if holding {
                WinnerTree::IDLE
            } else {
                self.sched.runner_up(i)
            };
            let mut window = self.pipeline.as_mut().map(|windows| &mut windows[i]);
            let core = &mut self.cores[i];
            let mut release = false;
            // Set when `i` ended the pick by passing the runner-up.
            let mut passed = false;
            // The key of the pick's first step that raised a broadcast stop
            // or changed page residency.
            let mut edge = None;
            out = loop {
                let (pre_clock, pre_pc) = (core.clock, core.pc);
                // Timer interruptions (abort any running transaction, §II.A).
                if let Some(t) = timer {
                    let node = &mut view.nodes[i];
                    if pre_clock - node.last_timer >= t {
                        node.last_timer = pre_clock;
                        node.engine.raise_async_interruption();
                    }
                }
                if tracing {
                    self.tracer.set_clock(pre_clock);
                }
                view.now = pre_clock;
                let out = match window.as_deref_mut() {
                    Some(win) => ztm_isa::step_pipelined(core, prog, &mut view, win),
                    None if legacy => ztm_isa::step_legacy(core, prog, &mut view),
                    None => ztm_isa::step(core, prog, &mut view),
                };
                // Pipeline trace events carry the retire-time clock. Only widths
                // above 1 emit — the width-1 window is byte-identical to the
                // scalar path and must leave digests untouched.
                if let (true, Some(win)) = (tracing, window.as_deref_mut()) {
                    if win.width() > 1 {
                        let rep = win.take_report();
                        self.tracer.set_clock(core.clock);
                        if let Some(size) = rep.closed_group {
                            let width = win.width().min(255) as u8;
                            self.tracer
                                .emit_at(i as u16, || Event::IssueGroup { width, size });
                        }
                        if let Some((reason, waited)) = rep.stall {
                            self.tracer.emit_at(i as u16, || Event::IssueStall {
                                reason: reason.code(),
                                waited,
                            });
                        }
                    }
                }
                done += 1;
                if traced {
                    if self.trace.len() == TRACE_CAPACITY {
                        self.trace.pop_front();
                    }
                    self.trace.push_back(TraceRecord {
                        cpu: i,
                        clock: pre_clock,
                        ia: prog.addr_of(pre_pc),
                        text: prog.instr(pre_pc).to_string(),
                        event: out.event,
                        cycles: out.cycles,
                    });
                }
                if out.event == StepEvent::Stalled {
                    view.nodes[i].stalls += 1;
                }
                if in_flight && view.pages.epoch() != page_epoch {
                    edge = edge.or(Some(pack_entry(pre_clock, i)));
                }
                // Broadcast-stop quiesce hand-off (§III.E): a stop or a release
                // ends the pick, and the holder releases when it commits, halts
                // or stops running.
                let running = core.is_running();
                if out.broadcast_stop {
                    self.quiesce = Some(i);
                    release = !running;
                    edge = edge.or(Some(pack_entry(pre_clock, i)));
                    break out;
                }
                if holding
                    && (matches!(out.event, StepEvent::Committed | StepEvent::Halted) || !running)
                {
                    release = true;
                    break out;
                }
                if !running || done >= limit {
                    break out;
                }
                if pack_entry(core.clock, i) > runner_up {
                    passed = true;
                    break out;
                }
            };
            // Steps run ahead past a stop or a page-residency change are
            // undone: in serial order they come after it.
            if let (Some(edge), true) = (edge, in_flight) {
                let undone = settle_all(&mut self.cores, view.nodes, &mut self.sched, edge);
                done -= undone;
                ahead -= undone;
                in_flight = false;
            }
            // Quiet run-ahead: past the runner-up, `i` steps on while its
            // next instruction is quiet, logging each step's pre-state.
            let core = &mut self.cores[i];
            if passed && may_run_ahead {
                while done < limit {
                    let pre_clock = core.clock;
                    let d = prog.decoded(core.pc);
                    let node = &mut view.nodes[i];
                    if node.ahead.len == AHEAD_CAP
                        || QUIET_OPS >> d.op as u8 & 1 == 0
                        || core.per.enabled
                        || node.engine.in_tx()
                        || node.engine.pending_abort().is_some()
                        || timer.is_some_and(|t| pre_clock - node.last_timer >= t)
                        || node.ifetch.epoch != view.pages.epoch()
                    {
                        break;
                    }
                    let line = Some(Address::new(d.addr).line());
                    let swapped = node.ifetch.prev == line;
                    if !swapped && node.ifetch.last != line {
                        break;
                    }
                    let log = &mut node.ahead;
                    log.steps[log.len] = AheadStep {
                        key: pack_entry(pre_clock, i),
                        old: core.grs[d.r1 as usize & 15],
                        pc: core.pc as u32,
                        reg: d.r1,
                        cc: core.cc,
                        swapped,
                    };
                    log.len += 1;
                    view.now = pre_clock;
                    out = if legacy {
                        ztm_isa::step_legacy(core, prog, &mut view)
                    } else {
                        ztm_isa::step(core, prog, &mut view)
                    };
                    debug_assert_eq!(out.event, StepEvent::Executed);
                    done += 1;
                    ahead += 1;
                }
                in_flight |= view.nodes[i].ahead.len > 0;
            }
            let key = if core.is_running() {
                pack_entry(core.clock, i)
            } else {
                WinnerTree::IDLE
            };
            self.sched.set(i, key);
            if release {
                self.quiesce = None;
                release_quiesce(&mut self.cores, &self.programs, &mut self.sched, i);
            }
            if done >= limit {
                break;
            }
            match serial_pick(&mut self.quiesce, &self.cores, &self.sched) {
                Some(next) => i = next,
                None => break,
            }
        }
        // Undo what ran ahead past the budget: the call leaves an exact
        // serial prefix.
        if in_flight {
            let root = self.sched.min();
            let undone = settle_all(&mut self.cores, view.nodes, &mut self.sched, root);
            done -= undone;
            ahead -= undone;
        }
        self.steps += done;
        self.schedule.picks += picks;
        self.schedule.run_ahead_steps += ahead;
        out
    }

    /// Runs until every CPU halts.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_steps` instructions execute system-wide
    /// (guards against livelock in tests).
    pub fn run_until_halt(&mut self, max_steps: u64) {
        let mut done = 0;
        while done < max_steps {
            match self.step_many(max_steps - done) {
                0 => return,
                k => done += k,
            }
        }
        panic!("system did not halt within {max_steps} steps");
    }

    /// Steps up to `limit` instructions in serial scheduling order across
    /// as many picks as it takes (see the private `run_batch`), returning
    /// how many executed. The steps are always an exact prefix of the
    /// serial order, the one a `step_one` loop takes. Steps a CPU ran ahead
    /// of the schedule past the budget's end are undone, so the call may
    /// return fewer than `limit` while CPUs still run; with a positive
    /// `limit` it returns 0 only when every CPU has halted. `step_many(0)`
    /// steps nothing.
    pub fn step_many(&mut self, limit: u64) -> u64 {
        if limit == 0 {
            return 0;
        }
        if self.sharded_active() {
            return self.run_sharded_upto(limit);
        }
        let Some(i) = self.pick() else {
            return 0;
        };
        let before = self.steps;
        self.run_batch(i, limit);
        self.steps - before
    }

    /// Performs a store from the I/O subsystem: invalidates every cached
    /// copy of the line (aborting transactions whose footprint it hits —
    /// §II.A requires isolation against I/O too) and updates committed
    /// memory.
    pub fn io_store(&mut self, addr: Address, value: u64) {
        let nodes = &mut self.nodes;
        self.fabric
            .invalidate(addr.line(), |cpu, kind, line, from| {
                deliver_xi(nodes, cpu, kind, line, from)
            });
        self.mem.store_u64(addr, value);
    }

    /// Aggregated system report.
    pub fn report(&self) -> SystemReport {
        let mut tx = TxStats::new();
        let mut stm = crate::report::StmCounts::default();
        for n in &self.nodes {
            tx.merge(n.engine.stats());
            stm.merge(&n.stm);
        }
        SystemReport {
            elapsed_cycles: self.cores.iter().map(|c| c.clock).max().unwrap_or(0),
            total_instructions: self.cores.iter().map(|c| c.instructions).sum(),
            steps: self.steps,
            stalls: self.nodes.iter().map(|n| n.stalls).sum(),
            tx,
            xi_counts: self.fabric.xi_counts(),
            coalesced_accesses: 0,
            stm,
            sharding: self.sharding_stats(),
            schedule: self.schedule,
        }
    }

    /// A 64-bit fold of the whole simulated state, for differential tests:
    /// two runs of one configuration that leave the same state have the
    /// same fingerprint, whatever driver took them there.
    ///
    /// It folds every core (registers, pc, clock, run state, PER controls,
    /// counts) and per CPU the transaction engine, the L1/L2 directories in
    /// (class, way) order with their LRU stamps and tx marks, the store
    /// cache, the XI-reject counters and their epoch, the L1-I directory,
    /// the i-fetch buffer, the issue window, the stall and STM counters, the
    /// last timer tick and the RNG (as one draw from a clone); then the
    /// step count, the effective broadcast-stop holder, the coherence
    /// fabric (its directory in line order, the L3 directories and the MCM
    /// channels' busy times), memory (lines in address order) and the page
    /// table.
    ///
    /// It leaves out the configuration and the run switches (interpreter,
    /// sim threads, traced CPUs), which both sides of a differential choose;
    /// the event tracer and the execution-trace ring, which observe; the
    /// `schedule` and `sharding` statistics, which describe how a driver
    /// chose its steps; and memos, which a lookup re-derives: the winner
    /// tree, `sched_stale`, `MainMemory`'s front cache and `SetAssoc`'s MRU
    /// slot. The value is stable within one process only.
    pub fn fingerprint(&self) -> u64 {
        let System {
            config: _,
            mem,
            pages,
            fabric,
            nodes,
            cores,
            sched_stale: _,
            use_legacy_interpreter: _,
            programs,
            quiesce,
            sched: _,
            traced: _,
            trace: _,
            tracer: _,
            steps,
            pipeline,
            sim_threads: _,
            sharded_local_steps: _,
            shard_rounds: _,
            shard_round_max: _,
            schedule: _,
        } = self;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        cores.hash(&mut h);
        nodes.hash(&mut h);
        if let Some(windows) = pipeline {
            windows.hash(&mut h);
        }
        for program in programs {
            program.is_some().hash(&mut h);
        }
        steps.hash(&mut h);
        quiesce.filter(|&q| cores[q].is_running()).hash(&mut h);
        fabric.hash(&mut h);
        mem.hash(&mut h);
        pages.hash(&mut h);
        h.finish()
    }

    /// Sharded-driver schedule statistics (all zero on serial runs).
    fn sharding_stats(&self) -> crate::report::ShardingStats {
        crate::report::ShardingStats {
            rounds: self.shard_rounds,
            local_steps: self.sharded_local_steps,
            round_steps_max: self.shard_round_max,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests;
