//! The multi-CPU system simulator: wires CPU cores, private caches, the
//! coherence fabric, and per-CPU transaction engines into one deterministic
//! discrete-event machine.

use crate::config::SystemConfig;
use crate::report::SystemReport;
use crate::sched::{pack_entry, unpack_entry, WinnerTree};
use crate::shard::{safe_set, Candidate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ztm_cache::{
    AccessClass, CohState, CpuId, Fabric, FetchKind, FootprintEvent, LocalHit, PrivateCache, Xi,
    XiKind, XiResponse,
};
use ztm_core::{
    AbortCause, InstrClass, ProgramException, TbeginParams, TendOutcome, TxEngine, TxStats,
};
use ztm_isa::{
    decoded::{Op, FLAG_FOR_UPDATE},
    effective_address_decoded, finish_abort, AbortApply, AccessResult, CasResult, CpuCore,
    DecodedInstr, EndResult, ExceptionDisposition, Machine, Program, StepEvent, StepOutcome,
};
use ztm_mem::{Address, LineAddr, MainMemory, PageTable, HALF_LINE_SIZE};
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
}

/// The text lines an i-fetch may take without an L1-I directory walk.
///
/// Both lines were resident at the last walk, and both stay valid while
/// the page-residency epoch recorded then holds. Instruction lines receive
/// no XIs (the i-cache is outside the coherence protocol), and only a walk
/// installs into the i-cache — and every walk re-records this buffer — so
/// no install can happen while it is valid.
#[derive(Debug, Default)]
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

/// One entry of the lightweight step log (see [`System::set_step_log`]):
/// which CPU stepped at which pre-step clock, what the step did, and how
/// many cycles it took. Every driver — `step_one`, batched runs and the
/// sharded round planner — must produce identical logs; `tests/batching.rs`
/// and `tests/sharded.rs` pin that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLogEntry {
    /// The CPU's local clock before the step.
    pub clock: u64,
    /// The CPU that stepped.
    pub cpu: usize,
    /// What the step did.
    pub event: StepEvent,
    /// Cycles the step consumed.
    pub cycles: u64,
}

/// The full simulated SMP system.
///
/// Owns everything: committed memory, the page table, the coherence fabric,
/// and per CPU a [`CpuCore`] (architectural registers), a
/// [`PrivateCache`] (L1/L2/store cache) and a [`TxEngine`].
///
/// Simulation is deterministic: a single thread steps the CPU with the
/// smallest local clock, one instruction at a time; cross-interrogates are
/// delivered synchronously at instruction boundaries, which realizes the
/// paper's rule that instruction completion stalls while XIs are pending
/// (§III.C).
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
    /// Node-major mirror of each core's clock — the scheduler reads clocks
    /// on every step, and a [`CpuCore`] is several hundred bytes (registers,
    /// PER state), so striding across `Vec<CpuCore>` costs one host cache
    /// line per CPU touched. The hot fields live contiguously here instead;
    /// the cold architectural state stays in `cores`.
    hot_clock: Vec<u64>,
    /// Node-major mirror of each core's running/halted tag (same rationale).
    hot_running: Vec<bool>,
    /// Set when [`core_mut`](Self::core_mut) hands out direct mutable access
    /// to a core (tests poke clocks and states); the next scheduling
    /// decision resynchronizes the mirrors first.
    hot_dirty: bool,
    /// Route steps through [`ztm_isa::step_legacy`] (the original
    /// `Instr`-enum walk) instead of the predecoded dispatch — the
    /// differential determinism tests run both.
    use_legacy_interpreter: bool,
    programs: Vec<Option<Arc<Program>>>,
    /// CPU currently holding the broadcast-stop quiesce (§III.E).
    quiesce: Option<usize>,
    /// The scheduler's winner tree. Invariant (while `hot_dirty` is clear):
    /// leaf `i` holds `pack_entry(hot_clock[i], i)` when CPU `i` is running
    /// and has a program, else [`WinnerTree::IDLE`], so the root is the
    /// serial pick. A step refreshes only the stepped CPU's leaf.
    sched: WinnerTree,
    /// Per-MCM fabric channel: the virtual time until which it is busy.
    fabric_busy: Vec<u64>,
    /// CPUs whose steps are being traced.
    traced: Vec<bool>,
    /// Bounded execution trace (most recent `trace_capacity` records).
    trace: std::collections::VecDeque<TraceRecord>,
    trace_capacity: usize,
    /// Event tracer ([`ztm_trace`]); disabled by default.
    tracer: Tracer,
    steps: u64,
    /// Per-core in-order issue windows. `None` (the default) routes steps
    /// through the scalar retirement path; engaged by `ZTM_ISSUE_WIDTH` > 1
    /// or [`set_issue_width`](Self::set_issue_width). Functional execution
    /// is identical either way — the window only re-times retirement
    /// (see `ztm_isa::step_pipelined`).
    pipeline: Option<PipelineState>,
    /// The `ZTM_SIM_THREADS` /
    /// [`set_sim_threads`](Self::set_sim_threads) value. `1` (the default)
    /// keeps the one-CPU-at-a-time scheduler; any value above `1` routes
    /// the run methods through the round planner, which groups provably
    /// node-local steps into rounds. Simulation results are byte-identical
    /// for any value.
    sim_threads: usize,
    /// Optional full step log ([`set_step_log`](Self::set_step_log)) — the
    /// differential-test hook proving every driver replays the serial step
    /// order exactly.
    step_log: Option<Vec<StepLogEntry>>,
    /// Steps the round planner admitted into shard-local rounds, as opposed
    /// to steps it ran one at a time. Pure statistics.
    sharded_local_steps: u64,
    /// Shard-local rounds run.
    shard_rounds: u64,
    /// Largest single round, in shard-local steps.
    shard_round_max: u64,
}

/// The issue windows plus the width they were built with (cached for trace
/// emission without re-asking each window).
#[derive(Debug)]
struct PipelineState {
    width: u64,
    windows: Vec<ztm_isa::IssueWindow>,
}

impl PipelineState {
    fn new(width: u64, cpus: usize, lsu_ports: u64) -> PipelineState {
        PipelineState {
            width,
            windows: (0..cpus)
                .map(|_| ztm_isa::IssueWindow::new(width, lsu_ports))
                .collect(),
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
            })
            .collect();
        let fabric = match config.l3_geometry {
            Some((sets, ways)) => Fabric::with_l3_geometry(config.topology.clone(), sets, ways),
            None => Fabric::new(config.topology.clone()),
        };
        System {
            fabric,
            mem: MainMemory::new(),
            pages: PageTable::all_resident(),
            nodes,
            cores: (0..cpus).map(|_| CpuCore::new()).collect(),
            hot_clock: vec![0; cpus],
            hot_running: vec![true; cpus],
            hot_dirty: false,
            use_legacy_interpreter: false,
            programs: vec![None; cpus],
            quiesce: None,
            sched: WinnerTree::new(cpus),
            fabric_busy: vec![0; config.topology.mcm_count().max(1)],
            traced: vec![false; cpus],
            trace: std::collections::VecDeque::new(),
            trace_capacity: 10_000,
            tracer: Tracer::disabled(),
            steps: 0,
            pipeline: crate::env_usize("ZTM_ISSUE_WIDTH")
                .filter(|&w| w > 1)
                .map(|w| PipelineState::new(w as u64, cpus, config.latency.lsu_ports)),
            sim_threads: crate::env_usize("ZTM_SIM_THREADS").unwrap_or(1),
            step_log: None,
            sharded_local_steps: 0,
            shard_rounds: 0,
            shard_round_max: 0,
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
        // scheduler's back; resynchronize the hot mirrors lazily.
        self.hot_dirty = true;
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
        self.pipeline = Some(PipelineState::new(
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
    /// step per CPU, and runs them in that order. Simulation results
    /// (architectural state, statistics and the step log) are
    /// byte-identical for any value; only
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

    /// Enables or disables the full step log: every executed step is
    /// recorded as a [`StepLogEntry`] in serial scheduling order. This is
    /// the lockstep hook for the sharded-vs-serial differential tests;
    /// unbounded, so keep runs short while enabled.
    pub fn set_step_log(&mut self, enabled: bool) {
        self.step_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// Takes the accumulated step log, leaving an empty one behind (empty
    /// `Vec` if logging was never enabled).
    pub fn take_step_log(&mut self) -> Vec<StepLogEntry> {
        match self.step_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Rebuilds the node-major hot mirrors from the cores, and the
    /// scheduler's winner tree from the mirrors.
    fn sync_hot(&mut self) {
        for (i, c) in self.cores.iter().enumerate() {
            self.hot_clock[i] = c.clock;
            self.hot_running[i] = c.is_running();
        }
        self.hot_dirty = false;
        self.rebuild_sched();
    }

    /// CPU `i`'s winner-tree key: its packed `(clock, cpu)` when it is
    /// running and has a program, else [`WinnerTree::IDLE`].
    fn sched_key(&self, i: usize) -> u64 {
        if self.hot_running[i] && self.programs[i].is_some() {
            pack_entry(self.hot_clock[i], i)
        } else {
            WinnerTree::IDLE
        }
    }

    /// Recomputes every winner-tree leaf from the hot mirrors.
    fn rebuild_sched(&mut self) {
        let keys: Vec<u64> = (0..self.cores.len()).map(|i| self.sched_key(i)).collect();
        self.sched.rebuild(keys);
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

    /// The smallest local clock among runnable CPUs, or `None` when every
    /// CPU has halted. A broadcast-stop holder is running, so its leaf is in
    /// the tree like every other CPU's.
    fn peek_next_clock(&mut self) -> Option<u64> {
        if self.hot_dirty {
            self.sync_hot();
        }
        match self.sched.min() {
            WinnerTree::IDLE => None,
            entry => Some(unpack_entry(entry).0),
        }
    }

    /// Steps the runnable CPU with the smallest local clock. Returns the
    /// CPU index and outcome, or `None` when every CPU has halted.
    pub fn step_one(&mut self) -> Option<(usize, StepOutcome)> {
        let i = self.pick()?;
        Some((i, self.run_batch(i, 1, u64::MAX)))
    }

    /// The serial scheduler's pick: a running broadcast-stop holder whatever
    /// its clock, else the winner tree's root (smallest `(clock, cpu)`), or
    /// `None` when every CPU has halted.
    fn pick(&mut self) -> Option<usize> {
        if self.hot_dirty {
            self.sync_hot();
        }
        match self.quiesce {
            Some(holder) if self.hot_running[holder] => Some(holder),
            _ => {
                self.quiesce = None;
                match self.sched.min() {
                    WinnerTree::IDLE => None,
                    entry => Some(unpack_entry(entry).1),
                }
            }
        }
    }

    /// The step driver: runs CPU `i` from one scheduler pick for up to
    /// `limit` instructions, and returns the last step's outcome. Every
    /// step — serial, batched, or one step of a sharded round (`limit` 1)
    /// — goes through here.
    ///
    /// The batch runs exactly the steps a `step_one` loop would: it goes on
    /// only while `i` is still the serial scheduler's next pick. After the
    /// first step, `i`'s leaf is written and compared with the root, which
    /// is all a one-step batch (the common case with many CPUs) pays. Other
    /// CPUs' keys cannot change during a step of `i` (a step reaches no
    /// other core), so a batch that goes on reads the winner tree's
    /// [`runner_up`](WinnerTree::runner_up) once, and each later test is one
    /// compare of `i`'s live `(clock, cpu)` key against it. A
    /// broadcast-stop holder's batch has no such bound. A broadcast stop, a
    /// quiesce release, a halt, the `limit`, and a step ending at or past
    /// `horizon` each end the batch.
    ///
    /// The program, the [`View`], the dispatch mode and the tracing flags are
    /// taken once per batch; each step still performs every obligation —
    /// the timer interruption check, the tracer clock, issue-window events,
    /// the step log and execution trace, stall counting and quiesce
    /// hand-off. The hot mirrors, and the leaf of a batch that went on, are
    /// written when the batch ends.
    fn run_batch(&mut self, i: usize, limit: u64, horizon: u64) -> StepOutcome {
        let holding = self.quiesce == Some(i);
        let tracing = self.tracer.is_enabled();
        let traced = self.traced[i];
        let timer = self.config.timer_interval;
        let legacy = self.use_legacy_interpreter;
        let prog: &Program = self.programs[i].as_ref().expect("program loaded");
        let core = &mut self.cores[i];
        let mut window = self
            .pipeline
            .as_mut()
            .map(|pl| (pl.width, &mut pl.windows[i]));
        let mut view = View {
            cpu: i,
            now: core.clock,
            tracer: &self.tracer,
            nodes: &mut self.nodes,
            fabric: &mut self.fabric,
            mem: &mut self.mem,
            pages: &mut self.pages,
            fabric_busy: &mut self.fabric_busy,
            config: &self.config,
        };
        // The smallest key of any other CPU, read once the batch goes past
        // its first step.
        let mut runner_up = None;
        // Set when `i`'s leaf already holds its end-of-batch key.
        let mut leaf_written = false;
        let mut done = 0u64;
        let mut release = false;
        let out = loop {
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
            let out = match window.as_mut() {
                Some((_, win)) => ztm_isa::step_pipelined(core, prog, &mut view, win),
                None if legacy => ztm_isa::step_legacy(core, prog, &mut view),
                None => ztm_isa::step(core, prog, &mut view),
            };
            // Pipeline trace events carry the retire-time clock. Only widths
            // above 1 emit — the width-1 window is byte-identical to the
            // scalar path and must leave digests untouched.
            if let (true, Some((width, win))) = (tracing, window.as_mut()) {
                if *width > 1 {
                    let rep = win.take_report();
                    self.tracer.set_clock(core.clock);
                    if let Some(size) = rep.closed_group {
                        let width = (*width).min(255) as u8;
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
            if let Some(log) = self.step_log.as_mut() {
                log.push(StepLogEntry {
                    clock: pre_clock,
                    cpu: i,
                    event: out.event,
                    cycles: out.cycles,
                });
            }
            if traced {
                if self.trace.len() == self.trace_capacity {
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
            // Broadcast-stop quiesce hand-off (§III.E): a stop or a release
            // ends the batch, and the holder releases when it commits, halts
            // or stops running.
            let running = core.is_running();
            if out.broadcast_stop {
                self.quiesce = Some(i);
                release = !running;
                break out;
            }
            if holding
                && (matches!(out.event, StepEvent::Committed | StepEvent::Halted) || !running)
            {
                release = true;
                break out;
            }
            if !running || done >= limit || core.clock >= horizon {
                break out;
            }
            if !holding {
                let key = pack_entry(core.clock, i);
                match runner_up {
                    Some(next) => {
                        if key > next {
                            break out;
                        }
                    }
                    None => {
                        // The first test writes the leaf and compares the
                        // root: a one-step batch, the common case with many
                        // CPUs, writes its leaf once and walks no other path.
                        self.sched.set(i, key);
                        if self.sched.min() != key {
                            leaf_written = true;
                            break out;
                        }
                        runner_up = Some(self.sched.runner_up(i));
                    }
                }
            }
        };
        self.steps += done;
        self.hot_clock[i] = self.cores[i].clock;
        self.hot_running[i] = self.cores[i].is_running();
        if !leaf_written {
            self.sched.set(i, self.sched_key(i));
        }
        if release {
            self.release_quiesce(i);
        }
        out
    }

    /// Ends `holder`'s broadcast-stop quiesce (§III.E): every running CPU
    /// behind its clock resumes at that clock. Rare, so `#[cold]` keeps its
    /// loop out of the step driver's body (EXPERIMENTS.md S13).
    #[cold]
    fn release_quiesce(&mut self, holder: usize) {
        self.quiesce = None;
        let t = self.hot_clock[holder];
        for j in 0..self.cores.len() {
            if j == holder || !self.hot_running[j] || self.hot_clock[j] >= t {
                continue;
            }
            self.cores[j].clock = t;
            self.hot_clock[j] = t;
            self.sched.set(j, self.sched_key(j));
        }
    }

    // ------------------------------------------------------------------
    // Sharded round planning
    // ------------------------------------------------------------------

    /// Whether the run methods should route through the sharded round
    /// planner: a `sim_threads` value above 1, more than one chip in the
    /// topology, and none of the serial-only features engaged. Issue windows re-time
    /// retirement through per-step reports, the legacy interpreter is a
    /// debug lever, the disassembling step trace reads program text during
    /// the step, and an attached event tracer must see events in serial
    /// emission order.
    fn sharded_active(&self) -> bool {
        self.sim_threads > 1
            && self.pipeline.is_none()
            && !self.use_legacy_interpreter
            && !self.tracer.is_enabled()
            && !self.traced.iter().any(|&t| t)
            && self.config.topology.chip_count() > 1
    }

    /// Classifies CPU `i`'s next instruction step without executing it
    /// (planner entry point into [`classify_step_at`]).
    fn classify_step(&self, i: usize) -> Candidate {
        classify_step_at(
            i,
            self.hot_clock[i],
            &self.nodes[i],
            &self.cores[i],
            self.programs[i].as_ref().expect("program loaded"),
            &self.pages,
            &self.mem,
            &self.config,
        )
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
    fn run_sharded_upto(&mut self, limit: u64, horizon: Option<u64>) -> u64 {
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
            // or constrain it (see `safe_set`).
            cands.clear();
            for i in 0..self.hot_clock.len() {
                if self.hot_running[i]
                    && self.programs[i].is_some()
                    && self.hot_clock[i] <= min_clock + 1
                {
                    cands.push(self.classify_step(i));
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
                debug_assert_eq!(self.hot_clock[cpu], clock, "stale round plan");
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

    /// Steps up to `limit` instructions from one scheduler pick (one batch,
    /// see the private `run_batch`), returning how many executed — 0 means
    /// every CPU has halted.
    pub fn step_many(&mut self, limit: u64) -> u64 {
        if self.sharded_active() {
            return self.run_sharded_upto(limit, None);
        }
        let Some(i) = self.pick() else {
            return 0;
        };
        let before = self.steps;
        self.run_batch(i, limit, u64::MAX);
        self.steps - before
    }

    /// Runs until every running CPU's clock reaches `horizon` (or all halt).
    pub fn run_for_cycles(&mut self, horizon: u64) {
        if self.sharded_active() {
            self.run_sharded_upto(u64::MAX, Some(horizon));
            return;
        }
        while self.peek_next_clock().is_some_and(|t| t < horizon) {
            let Some(i) = self.pick() else {
                return;
            };
            self.run_batch(i, u64::MAX, horizon);
        }
    }

    /// Performs a store from the I/O subsystem: invalidates every cached
    /// copy of the line (aborting transactions whose footprint it hits —
    /// §II.A requires isolation against I/O too) and updates committed
    /// memory.
    pub fn io_store(&mut self, addr: Address, value: u64) {
        let line = addr.line();
        let (owner, sharers) = self.fabric.holders(line);
        for (cpu, kind) in owner
            .into_iter()
            .map(|c| (c, ztm_cache::XiKind::Exclusive))
            .chain(
                sharers
                    .into_iter()
                    .map(|c| (c, ztm_cache::XiKind::ReadOnly)),
            )
        {
            // I/O XIs carry no requester id and cannot be stiff-armed.
            let out = self.nodes[cpu.0].cache.handle_xi(Xi {
                kind,
                line,
                from: None,
            });
            debug_assert_eq!(out.response, XiResponse::Accept);
            self.fabric.apply_xi_result(cpu, line, kind, true);
            for ev in out.events {
                self.nodes[cpu.0].engine.note_footprint_event(ev);
            }
        }
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
        }
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

/// The per-step [`Machine`] view: disjoint borrows of the system's fields
/// excluding the stepped CPU's core (borrowed by the interpreter).
struct View<'a> {
    cpu: usize,
    /// The stepped CPU's local clock at instruction start (for fabric
    /// bandwidth queueing).
    now: u64,
    tracer: &'a Tracer,
    nodes: &'a mut [Node],
    fabric: &'a mut Fabric,
    mem: &'a mut MainMemory,
    pages: &'a mut PageTable,
    fabric_busy: &'a mut [u64],
    config: &'a SystemConfig,
}

impl View<'_> {
    fn me(&mut self) -> &mut Node {
        &mut self.nodes[self.cpu]
    }

    fn node(&self) -> &Node {
        &self.nodes[self.cpu]
    }

    /// Delivers the LRU XIs produced by an L3 associativity overflow: the
    /// victim line leaves every private cache under the overflowing L3,
    /// aborting transactions whose footprint it carried (§III.A/§III.C).
    fn deliver_lru_xis(&mut self, xis: Vec<(CpuId, LineAddr)>) {
        for (cpu, vline) in xis {
            let out = self.nodes[cpu.0].cache.handle_xi(Xi {
                kind: XiKind::Lru,
                line: vline,
                from: None,
            });
            debug_assert_eq!(
                out.response,
                XiResponse::Accept,
                "LRU XIs are not rejectable"
            );
            self.fabric.apply_xi_result(cpu, vline, XiKind::Lru, true);
            for ev in out.events {
                self.nodes[cpu.0].engine.note_footprint_event(ev);
            }
        }
    }

    /// Delivers a fetch plan's XIs to their targets in plan order: each
    /// target's response is reported to the fabric and the footprint
    /// consequences are forwarded to that target's engine. Returns `false`
    /// the moment a target stiff-arms — the remaining XIs are not delivered
    /// and the caller abandons the fetch (retry or silent drop).
    fn deliver_plan_xis(&mut self, line: LineAddr, xis: Vec<(CpuId, XiKind)>) -> bool {
        for (target, xikind) in xis {
            let out = self.nodes[target.0].cache.handle_xi(Xi {
                kind: xikind,
                line,
                from: Some(CpuId(self.cpu)),
            });
            let accepted = out.response == XiResponse::Accept;
            self.fabric.apply_xi_result(target, line, xikind, accepted);
            for ev in out.events {
                self.nodes[target.0].engine.note_footprint_event(ev);
            }
            if !accepted {
                return false;
            }
        }
        true
    }

    /// Reserves a slot on this CPU's MCM fabric channel for one line
    /// transfer and returns the queueing delay incurred.
    fn occupy_fabric(&mut self) -> u64 {
        let busy = &mut *self.fabric_busy;
        let mcm = self.fabric.topology().mcm_of(CpuId(self.cpu)).0;
        let mcm = mcm.min(busy.len() - 1);
        let start = self.now.max(busy[mcm]);
        busy[mcm] = start + self.config.fabric_occupancy;
        let queued = start - self.now;
        self.tracer
            .emit_at(self.cpu as u16, || Event::FabricOccupy { queued });
        queued
    }

    /// Fetches `line` through the fabric. `Err(stall)` when an XI was
    /// stiff-armed and the access must retry.
    fn fetch_line(
        &mut self,
        line: LineAddr,
        excl: bool,
        class: AccessClass,
        tx: bool,
    ) -> Result<u64, u64> {
        let kind = if excl {
            FetchKind::Exclusive
        } else {
            FetchKind::Shared
        };
        let who = CpuId(self.cpu);
        let plan = self.fabric.plan_fetch(who, line, kind);
        if !self.deliver_plan_xis(line, plan.xis) {
            return Err(self.config.latency.xi_reject_retry);
        }
        let lru = self.fabric.grant(who, line, kind);
        self.deliver_lru_xis(lru);
        let base = self
            .config
            .latency
            .fetch(self.fabric.topology(), who, plan.source);
        let cycles = base + self.occupy_fabric();
        let state = if excl {
            CohState::Exclusive
        } else {
            CohState::ReadOnly
        };
        let inst = self.me().cache.install(line, state, class, tx);
        for l in inst.lost_lines {
            self.fabric.drop_holder(who, l);
        }
        for ev in inst.events {
            self.me().engine.note_footprint_event(ev);
        }
        Ok(cycles)
    }

    /// Speculative next-line prefetch; with the configured probability it
    /// represents a wrong-path load and over-marks the line tx-read
    /// (§III.C). Abandoned silently when anybody stiff-arms.
    fn speculative_prefetch(&mut self, line: LineAddr) {
        let next = LineAddr::new(line.index() + 1);
        if self.node().cache.state_of(next).is_some() {
            return;
        }
        let overmark = {
            let p = self.config.overmark_probability;
            self.me().rng.gen_bool(p)
        };
        let who = CpuId(self.cpu);
        let plan = self.fabric.plan_fetch(who, next, FetchKind::Shared);
        if !self.deliver_plan_xis(next, plan.xis) {
            return;
        }
        let lru = self.fabric.grant(who, next, FetchKind::Shared);
        self.deliver_lru_xis(lru);
        self.occupy_fabric(); // speculative transfers consume bandwidth too
        let inst = self
            .me()
            .cache
            .install(next, CohState::ReadOnly, AccessClass::Fetch, overmark);
        for l in inst.lost_lines {
            self.fabric.drop_holder(who, l);
        }
        for ev in inst.events {
            self.me().engine.note_footprint_event(ev);
        }
    }

    /// Common access preparation: faults, constrained footprint, ownership.
    /// `want_excl` requests exclusive ownership even for fetches (load with
    /// intent to update). `Err` carries an early [`AccessResult`].
    fn prepare(
        &mut self,
        addr: Address,
        len: u8,
        class: AccessClass,
        want_excl: bool,
    ) -> Result<u64, AccessResult> {
        let excl = class == AccessClass::Store || want_excl;
        if !addr.fits_in_line(len as u64) {
            return Err(AccessResult::Fault(ProgramException::Specification));
        }
        let line = addr.line();
        if self.pages.access(addr).is_err() {
            return Err(AccessResult::Fault(ProgramException::PageFault {
                address: addr.raw(),
            }));
        }
        let tx = self.me().engine.in_tx();
        if tx && self.me().engine.note_data_access(addr, len as u64).is_err() {
            self.me()
                .engine
                .set_pending(AbortCause::UnfilteredProgramException(
                    ProgramException::ConstraintViolation,
                ));
        }
        let (hit, out) = self.me().cache.access_local(line, class, excl, tx);
        let cycles = match hit {
            LocalHit::L1 => {
                debug_assert!(out.lost_lines.is_empty() && out.events.is_empty());
                self.config.latency.l1_hit
            }
            LocalHit::L2 => {
                // An L2 hit re-installs into the L1 only, which drops no L2
                // lines — `lost_lines` is empty here.
                let who = CpuId(self.cpu);
                for l in out.lost_lines {
                    self.fabric.drop_holder(who, l);
                }
                for ev in out.events {
                    self.me().engine.note_footprint_event(ev);
                }
                self.config.latency.l2_hit
            }
            LocalHit::Miss { .. } => match self.fetch_line(line, excl, class, tx) {
                Ok(c) => c,
                Err(stall) => return Err(AccessResult::Stall { cycles: stall }),
            },
        };
        let prefetch_p = self.config.prefetch_probability;
        if class == AccessClass::Fetch
            && tx
            && self.config.speculative_prefetch
            && prefetch_p > 0.0
            && !self.me().engine.speculation_disabled()
            && self.me().rng.gen_bool(prefetch_p)
        {
            self.speculative_prefetch(line);
        }
        Ok(cycles)
    }

    fn read_value(&self, addr: Address, len: u8) -> u64 {
        // Common shape: a full-width load with no buffered stores to overlay
        // (spinners and read-mostly code never populate the store cache).
        // One fixed-size memory read, no forwarding scan, no byte loop.
        if len == 8 && self.node().cache.store_cache().is_empty() {
            return self.mem.load_u64(addr);
        }
        let mut buf = [0u8; 8];
        self.mem.load_bytes(addr, &mut buf[..len as usize]);
        self.node().cache.forward(addr, &mut buf[..len as usize]);
        let mut v = 0u64;
        for b in &buf[..len as usize] {
            v = v << 8 | *b as u64;
        }
        v
    }

    /// Buffers store data (splitting at the 128-byte granule) and applies it
    /// to committed memory when non-transactional.
    fn write_value(&mut self, addr: Address, len: u8, value: u64, ntstg: bool) {
        let tx = self.me().engine.in_tx();
        let bytes = value.to_be_bytes();
        let data = &bytes[8 - len as usize..];
        let split = (HALF_LINE_SIZE - addr.offset_in_half_line()).min(len as u64) as usize;
        let mut overflow = false;
        let out1 = self
            .me()
            .cache
            .buffer_store(addr, &data[..split], tx, ntstg);
        overflow |= out1 == ztm_cache::StoreOutcome::Overflow;
        if split < len as usize {
            let out2 =
                self.me()
                    .cache
                    .buffer_store(addr.add(split as u64), &data[split..], tx, ntstg);
            overflow |= out2 == ztm_cache::StoreOutcome::Overflow;
        }
        if overflow {
            self.me()
                .engine
                .note_footprint_event(FootprintEvent::StoreOverflow {
                    line: Some(addr.line()),
                });
        }
        if !tx {
            self.mem.store_bytes(addr, data);
        }
    }
}

impl Machine for View<'_> {
    fn ifetch(&mut self, addr: Address) -> AccessResult {
        let line = addr.line();
        let page_epoch = self.pages.epoch();
        let node = &mut self.nodes[self.cpu];
        let buf = &mut node.ifetch;
        // Two-line fast path. Straight-line code fetches the same 256-byte
        // text line many instructions in a row, and a loop that straddles a
        // line boundary alternates between two lines. While no page
        // residency changed since the last directory walk, either buffered
        // line would hit (0 cycles) — skip the walk. LRU order is
        // unaffected: each buffered line is the MRU of its own congruence
        // class (it was the last line walked there, and the two lines'
        // classes differ), so re-stamping it could not change any victim
        // choice, and skipping the stamp keeps `SetAssoc::hot` valid. A
        // successful page access has no side effects, so the elided calls
        // are pure.
        if buf.epoch == page_epoch {
            if buf.prev == Some(line) {
                std::mem::swap(&mut buf.last, &mut buf.prev);
            }
            if buf.last == Some(line) {
                return AccessResult::Done {
                    value: 0,
                    cycles: 0,
                };
            }
        }
        if self.pages.access(addr).is_err() {
            *buf = IfetchBuffer::default();
            return AccessResult::Fault(ProgramException::PageFault {
                address: addr.raw(),
            });
        }
        // The line walked last stays buffered if its epoch still holds and
        // this walk cannot touch its class.
        let class = node.icache.class_of(line);
        let prev = buf
            .last
            .filter(|&last| buf.epoch == page_epoch && node.icache.class_of(last) != class);
        let cycles = if node.icache.get(line).is_some() {
            0
        } else {
            node.icache.insert(line, (), |_, _| 0);
            self.config.latency.l2_hit
        };
        node.ifetch = IfetchBuffer {
            last: Some(line),
            prev,
            epoch: page_epoch,
        };
        AccessResult::Done { value: 0, cycles }
    }

    fn load(&mut self, addr: Address, len: u8, for_update: bool) -> AccessResult {
        match self.prepare(addr, len, AccessClass::Fetch, for_update) {
            Ok(cycles) => AccessResult::Done {
                value: self.read_value(addr, len),
                cycles,
            },
            Err(early) => early,
        }
    }

    fn store(&mut self, addr: Address, len: u8, value: u64) -> AccessResult {
        match self.prepare(addr, len, AccessClass::Store, true) {
            Ok(cycles) => {
                self.write_value(addr, len, value, false);
                AccessResult::Done { value: 0, cycles }
            }
            Err(early) => early,
        }
    }

    fn store_nontx(&mut self, addr: Address, value: u64) -> AccessResult {
        if !addr.is_aligned(8) {
            return AccessResult::Fault(ProgramException::Specification);
        }
        match self.prepare(addr, 8, AccessClass::Store, true) {
            Ok(cycles) => {
                let in_tx = self.me().engine.in_tx();
                self.write_value(addr, 8, value, in_tx);
                AccessResult::Done { value: 0, cycles }
            }
            Err(early) => early,
        }
    }

    fn compare_and_swap(&mut self, addr: Address, expected: u64, new: u64) -> CasResult {
        match self.prepare(addr, 8, AccessClass::Store, true) {
            Ok(cycles) => {
                let old = self.read_value(addr, 8);
                let swapped = old == expected;
                if swapped {
                    self.write_value(addr, 8, new, false);
                }
                CasResult::Done {
                    swapped,
                    old,
                    // Interlocked update: the serialization penalty of CSG
                    // is what makes uncontended transactions ~30% cheaper
                    // than lock acquire/release (§IV).
                    cycles: cycles + 12,
                }
            }
            Err(AccessResult::Stall { cycles }) => CasResult::Stall { cycles },
            Err(AccessResult::Fault(pe)) => CasResult::Fault(pe),
            Err(AccessResult::Done { .. }) => unreachable!("prepare never returns Done"),
        }
    }

    fn tx_begin(
        &mut self,
        constrained: bool,
        params: TbeginParams,
        grs: &[u64; 16],
        ia: u64,
        next_ia: u64,
    ) -> u64 {
        let node = self.me();
        let rng = &mut node.rng;
        match node
            .engine
            .begin(params, constrained, grs, ia, next_ia, rng)
        {
            Ok(ztm_core::BeginOutcome::Outermost { cycles }) => {
                node.cache.begin_outermost_tx();
                cycles
            }
            Ok(ztm_core::BeginOutcome::Nested) => 2,
            Err(cause) => {
                node.engine.set_pending(cause);
                1
            }
        }
    }

    fn tx_end(&mut self) -> EndResult {
        let node = self.me();
        if node.engine.in_tx() && node.engine.tdc_forces_abort_at_tend() {
            node.engine.set_pending(AbortCause::Diagnostic);
            return EndResult::AbortPending;
        }
        match node.engine.tend() {
            TendOutcome::NotInTx => EndResult::NotInTx,
            TendOutcome::Inner => EndResult::Inner { cycles: 1 },
            TendOutcome::Commit { cycles } => {
                let writes = node.cache.commit_tx();
                for w in writes {
                    w.apply_to(self.mem);
                }
                EndResult::Commit { cycles }
            }
        }
    }

    fn tx_abort_request(&mut self, code: u64) {
        self.me()
            .engine
            .set_pending(AbortCause::Tabort(code.max(256)));
    }

    fn tx_depth(&self) -> u64 {
        self.node().engine.depth() as u64
    }

    fn in_tx(&self) -> bool {
        self.node().engine.in_tx()
    }

    fn check_instruction(&mut self, class: ztm_core::InstrClass, ia: u64, len: u64) {
        let node = self.me();
        if let Err(cause) = node.engine.check_instruction(class, ia, len) {
            node.engine.set_pending(cause);
            return;
        }
        let rng = &mut node.rng;
        if let Some(cause) = node.engine.tdc_tick(rng) {
            node.engine.set_pending(cause);
        }
    }

    fn instruction_retired(&mut self) {
        self.me().cache.note_instruction_complete();
    }

    fn pending_abort(&self) -> bool {
        self.node().engine.pending_abort().is_some()
    }

    fn take_abort(&mut self, grs: &[u64; 16], atia: u64) -> AbortApply {
        let cause = self
            .node()
            .engine
            .pending_abort()
            .expect("take_abort without pending abort");
        let ntstg_writes = self.me().cache.abort_tx();
        for w in ntstg_writes {
            w.apply_to(self.mem);
        }
        let node = &mut self.nodes[self.cpu];
        let out = node.engine.process_abort(cause, grs, atia, &mut node.rng);
        let prefix_area = node.prefix_area;
        finish_abort(out, self.mem, self.pages, &self.config.os, prefix_area)
    }

    fn report_exception(
        &mut self,
        pe: ProgramException,
        instruction_fetch: bool,
    ) -> ExceptionDisposition {
        let node = self.me();
        if node.engine.in_tx() {
            let cause = node.engine.classify_exception(pe, instruction_fetch);
            node.engine.set_pending(cause);
            return ExceptionDisposition::PendingAbort;
        }
        match self.config.os.disposition(pe) {
            ztm_isa::OsDisposition::PageIn(page) => {
                self.pages.page_in(page);
                ExceptionDisposition::Retry {
                    cycles: self.config.os.page_in_cost,
                }
            }
            ztm_isa::OsDisposition::Observe => ExceptionDisposition::Retry {
                cycles: self.config.os.observe_cost,
            },
            ztm_isa::OsDisposition::Terminate(msg) => ExceptionDisposition::Terminate(msg),
        }
    }

    fn ppa(&mut self, abort_count: u64) -> u64 {
        let node = self.me();
        let rng = &mut node.rng;
        node.engine.ppa_tx_assist(abort_count, rng)
    }

    fn stm_note(&mut self, kind: u8, value: u64) {
        use ztm_isa::stm_note as k;
        let cpu = self.cpu as u16;
        let node = &mut self.nodes[self.cpu];
        let ev = match kind {
            k::BEGIN => {
                node.stm.begins += 1;
                Event::StmTx {
                    phase: 0,
                    info: value,
                }
            }
            k::COMMIT => {
                node.stm.commits += 1;
                Event::StmTx {
                    phase: 1,
                    info: value,
                }
            }
            k::ABORT => {
                node.stm.aborts += 1;
                Event::StmTx {
                    phase: 2,
                    info: value,
                }
            }
            k::LOCK_ACQ => {
                node.stm.lock_acquires += 1;
                Event::StmLock {
                    acquired: true,
                    addr: value,
                }
            }
            k::LOCK_REL => Event::StmLock {
                acquired: false,
                addr: value,
            },
            k::VAL_PASS => Event::StmValidation {
                ok: true,
                info: value,
            },
            k::VAL_FAIL => {
                node.stm.validation_failures += 1;
                Event::StmValidation {
                    ok: false,
                    info: value,
                }
            }
            k::FALLBACK => {
                // The note marks the HTM→STM transition; the hardware abort
                // that forced it is the engine's most recent abort.
                let code = node.engine.last_abort_code();
                node.stm.fallbacks += 1;
                *node.stm.fallback_codes.entry(code).or_insert(0) += 1;
                Event::StmFallback {
                    attempt: value as u32,
                    code,
                }
            }
            _ => return,
        };
        self.tracer.emit_at(cpu, || ev);
    }

    fn rand(&mut self, bound: u64) -> u64 {
        if bound <= 1 {
            0
        } else {
            self.me().rng.gen_range(0..bound)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use ztm_isa::{gr::*, Assembler, CpuState, HaltReason, MemOperand};

    /// Each CPU transactionally increments a shared counter `n` times,
    /// retrying forever on abort. Total must be exactly `cpus * n`.
    fn tx_increment_program(var: u64, n: i64) -> Program {
        let mut a = Assembler::new(0);
        a.lghi(R6, n); // iterations
        a.lghi(R0, 0); // abort count for PPA
        a.label("loop");
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.tend();
        a.lghi(R0, 0);
        a.brctg(R6, "loop");
        a.halt();
        a.label("aborted");
        a.aghi(R0, 1);
        a.ppa(R0);
        a.j("loop");
        a.assemble().unwrap()
    }

    #[test]
    fn transactional_atomicity_across_cpus() {
        let var = 0x10_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(4));
        let prog = tx_increment_program(var, 50);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        assert_eq!(
            sys.mem().load_u64(Address::new(var)),
            4 * 50,
            "no increment lost or duplicated despite conflicts"
        );
        let r = sys.report();
        assert_eq!(r.tx.commits, 4 * 50);
        // Contention is resolved by stiff-arming (stalls) and, rarely,
        // aborts; either way there must be evidence of conflicts.
        assert!(
            r.stalls + r.tx.aborts > 0,
            "contention must cause stalls or aborts"
        );
    }

    #[test]
    fn cas_lock_mutual_exclusion() {
        // Classic test-and-CAS spinlock protecting an increment.
        let lock = 0x20_000u64;
        let var = 0x20_100u64;
        let mut a = Assembler::new(0);
        a.lghi(R6, 30);
        a.label("loop");
        a.lghi(R3, 0);
        a.lghi(R4, 1);
        a.label("acquire");
        a.ltg(R1, MemOperand::absolute(lock));
        a.jnz("acquire"); // spin while held
        a.lgr(R5, R3);
        a.csg(R5, R4, MemOperand::absolute(lock));
        a.jnz("acquire");
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.lghi(R7, 0);
        a.stg(R7, MemOperand::absolute(lock));
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();

        let mut sys = System::new(SystemConfig::with_cpus(3));
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 3 * 30);
    }

    #[test]
    fn constrained_transactions_make_forward_progress() {
        // Adversarial: every CPU hammers the same two lines constrained.
        let var = 0x30_000u64;
        let mut a = Assembler::new(0);
        a.lghi(R6, 25);
        a.label("loop");
        a.tbeginc(ztm_core::GrSaveMask::ALL);
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.tend();
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();

        let mut sys = System::new(SystemConfig::with_cpus(6));
        sys.load_program_all(&prog);
        sys.run_until_halt(8_000_000);
        assert_eq!(
            sys.mem().load_u64(Address::new(var)),
            6 * 25,
            "constrained transactions eventually succeed (§II.D)"
        );
    }

    #[test]
    fn read_sharing_causes_no_aborts() {
        let var = 0x40_000u64;
        let mut a = Assembler::new(0);
        a.lghi(R6, 100);
        a.label("loop");
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lg(R2, MemOperand::absolute(var));
        a.tend();
        a.brctg(R6, "loop");
        a.halt();
        a.label("aborted");
        a.j("loop");
        let prog = a.assemble().unwrap();

        let mut cfg = SystemConfig::with_cpus(8);
        cfg.speculative_prefetch = false; // pure read-sharing
        let mut sys = System::new(cfg);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        let r = sys.report();
        assert_eq!(r.tx.commits, 8 * 100);
        assert_eq!(r.tx.aborts, 0, "read-read sharing never conflicts");
    }

    #[test]
    fn stiff_arm_rejects_appear_under_contention() {
        let var = 0x50_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(8));
        let prog = tx_increment_program(var, 40);
        sys.load_program_all(&prog);
        sys.run_until_halt(8_000_000);
        let r = sys.report();
        assert!(r.stalls > 0, "XI rejects must stall requesters");
        assert_eq!(sys.mem().load_u64(Address::new(var)), 8 * 40);
    }

    #[test]
    fn timer_interruption_aborts_transactions() {
        let var = 0x60_000u64;
        let mut cfg = SystemConfig::with_cpus(1);
        cfg.timer_interval = Some(2_000);
        let mut sys = System::new(cfg);
        let prog = tx_increment_program(var, 200);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        let r = sys.report();
        assert_eq!(sys.mem().load_u64(Address::new(var)), 200);
        assert!(
            r.tx.aborts_by_code.contains_key(&2),
            "some aborts from async interruptions: {:?}",
            r.tx.aborts_by_code
        );
    }

    /// An adversarial constrained kernel on 10 CPUs: half update the two
    /// lines at `var` and `var + 256` in one order, half in the other —
    /// cross-holding deadlocks force RejectHang aborts, escalating to
    /// broadcast-stop.
    fn broadcast_stop_system(var: u64) -> System {
        let build = |first: u64, second: u64| {
            let mut a = Assembler::new(0);
            a.lghi(R6, 30);
            a.label("loop");
            a.tbeginc(ztm_core::GrSaveMask::ALL);
            a.lg(R2, MemOperand::absolute(first));
            a.aghi(R2, 1);
            a.stg(R2, MemOperand::absolute(first));
            a.lg(R3, MemOperand::absolute(second));
            a.aghi(R3, 1);
            a.stg(R3, MemOperand::absolute(second));
            a.tend();
            a.brctg(R6, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let fwd = build(var, var + 256);
        let rev = build(var + 256, var);
        let mut cfg = SystemConfig::with_cpus(10);
        // Make the ladder escalate quickly.
        cfg.engine.retry_ladder.broadcast_stop_after = 2;
        let mut sys = System::new(cfg);
        for i in 0..10 {
            sys.load_program(i, if i % 2 == 0 { &fwd } else { &rev });
        }
        sys
    }

    #[test]
    fn broadcast_stop_quiesces_and_resynchronizes_clocks() {
        let var = 0xE0_000u64;
        let mut sys = broadcast_stop_system(var);
        sys.run_until_halt(80_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 10 * 30);
        assert_eq!(sys.mem().load_u64(Address::new(var + 256)), 10 * 30);
        let r = sys.report();
        assert!(
            r.tx.broadcast_stops > 0,
            "the last-resort quiesce must have fired"
        );
    }

    /// The pick the winner tree replaces: a linear scan for the smallest
    /// `(hot_clock, cpu)` over running CPUs with a program.
    fn linear_pick(sys: &System) -> u64 {
        (0..sys.cpus())
            .filter(|&i| sys.hot_running[i] && sys.programs[i].is_some())
            .map(|i| pack_entry(sys.hot_clock[i], i))
            .min()
            .unwrap_or(WinnerTree::IDLE)
    }

    /// Runs `step_one` to halt, calling `poke` before every step. Each step
    /// first checks that the winner tree's root equals [`linear_pick`] and
    /// that `step_one` then steps that CPU, or the running quiesce holder.
    /// Returns the steps executed and how many ran under a quiesce.
    fn step_checking_the_tree(
        sys: &mut System,
        max_steps: u64,
        mut poke: impl FnMut(&mut System, u64),
    ) -> (u64, u64) {
        let mut quiesced = 0;
        for n in 0..max_steps {
            poke(sys, n);
            if sys.hot_dirty {
                sys.sync_hot();
            }
            let want = linear_pick(sys);
            assert_eq!(sys.sched.min(), want, "winner tree root before step {n}");
            let holder = sys.quiesce.filter(|&h| sys.hot_running[h]);
            quiesced += u64::from(holder.is_some());
            match sys.step_one() {
                None => {
                    assert_eq!(want, WinnerTree::IDLE, "step {n}: runnable CPUs left");
                    return (n, quiesced);
                }
                Some((cpu, _)) => {
                    let expected = holder.unwrap_or_else(|| unpack_entry(want).1);
                    assert_eq!(cpu, expected, "CPU picked at step {n}");
                }
            }
        }
        panic!("system did not halt within {max_steps} steps");
    }

    #[test]
    fn winner_tree_tracks_a_linear_scan_under_contention() {
        let var = 0xC0_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(7));
        sys.load_program_all(&tx_increment_program(var, 25));
        let (steps, _) = step_checking_the_tree(&mut sys, 10_000_000, |_, _| {});
        assert!(steps > 0);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 7 * 25);
        let r = sys.report();
        assert!(r.stalls + r.tx.aborts > 0, "the run must be contended");
    }

    #[test]
    fn winner_tree_tracks_a_linear_scan_through_broadcast_stops() {
        let var = 0xE0_000u64;
        let mut sys = broadcast_stop_system(var);
        let (_, quiesced) = step_checking_the_tree(&mut sys, 80_000_000, |_, _| {});
        assert!(sys.report().tx.broadcast_stops > 0);
        assert!(quiesced > 0, "some steps must run under the quiesce");
        assert_eq!(sys.mem().load_u64(Address::new(var)), 10 * 30);
    }

    #[test]
    fn winner_tree_tracks_a_linear_scan_across_sharded_rounds() {
        // 12 CPUs = two chips, so `set_sim_threads(2)` routes `step_many`
        // through the round planner. Its steps go through `run_batch`, which
        // must leave every leaf current at each chunk boundary.
        let var = 0xA8_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(12));
        sys.set_sim_threads(2);
        sys.load_program_all(&tx_increment_program(var, 200));
        for (n, chunk) in [1u64, 7, 3, 64, 2]
            .into_iter()
            .cycle()
            .take(400)
            .enumerate()
        {
            assert!(sys.step_many(chunk) > 0, "chunk {n}: the run ended early");
            assert_eq!(sys.sched.min(), linear_pick(&sys), "after chunk {n}");
        }
        assert!(sys.report().sharding.rounds > 0, "no round ran");
        // `step_one` takes the serial scheduler from here, checking each pick.
        step_checking_the_tree(&mut sys, 10_000_000, |_, _| {});
        assert_eq!(sys.mem().load_u64(Address::new(var)), 12 * 200);
    }

    #[test]
    fn winner_tree_tracks_a_linear_scan_across_clock_pokes_and_halts() {
        // Plain (non-transactional) increments of one shared counter: the
        // line ping-pongs between CPUs, and halting a CPU mid-run strands
        // no transaction or lock.
        let var = 0xB0_000u64;
        let mut a = Assembler::new(0);
        a.lghi(R6, 200);
        a.label("loop");
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();
        let mut sys = System::new(SystemConfig::with_cpus(5));
        sys.load_program_all(&prog);
        let mut pokes = 0;
        step_checking_the_tree(&mut sys, 1_000_000, |sys, n| {
            match n {
                // Halt CPU 3, then CPU 0, while they still run.
                500 | 900 => {
                    let cpu = if n == 500 { 3 } else { 0 };
                    assert!(sys.core(cpu).is_running());
                    sys.core_mut(cpu).state = CpuState::Halted(HaltReason::Completed);
                }
                // Move a clock forward or back, both past and behind peers.
                _ if n % 41 == 0 => {
                    let cpu = (n / 41) as usize % 5;
                    let clock = sys.core(cpu).clock;
                    sys.core_mut(cpu).clock = if n % 2 == 0 {
                        clock + 300
                    } else {
                        clock.saturating_sub(150)
                    };
                    pokes += 1;
                }
                _ => {}
            }
        });
        assert!(pokes > 10);
        assert!(!sys.any_running());
    }

    #[test]
    fn run_for_cycles_stops_at_the_horizon() {
        let var = 0xD0_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(2));
        let prog = tx_increment_program(var, 1_000_000); // effectively endless
        sys.load_program_all(&prog);
        sys.run_for_cycles(5_000);
        let r = sys.report();
        assert!(r.elapsed_cycles >= 5_000);
        assert!(r.elapsed_cycles < 20_000, "stops near the horizon");
        assert!(sys.any_running());
        // Resuming continues cleanly.
        sys.run_for_cycles(10_000);
        assert!(sys.report().elapsed_cycles >= 10_000);
    }

    #[test]
    fn io_store_aborts_conflicting_transaction() {
        // §II.A: "the transaction cannot observe changes made by other CPUs
        // or the I/O subsystem" — an I/O store to a tx-read line aborts the
        // transaction, and the target cannot stiff-arm the channel.
        let var = 0xC0_000u64;
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lg(R2, MemOperand::absolute(var));
        a.label("spin");
        a.lg(R3, MemOperand::absolute(var));
        a.cghi(R3, 0);
        a.jz("spin");
        a.tend();
        a.halt();
        a.label("aborted");
        a.lghi(R9, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let mut cfg = SystemConfig::with_cpus(1);
        cfg.speculative_prefetch = false;
        let mut sys = System::new(cfg);
        sys.load_program(0, &p);
        for _ in 0..8 {
            sys.step_one();
        }
        sys.io_store(Address::new(var), 0xD1A0);
        sys.run_until_halt(100_000);
        assert_eq!(sys.core(0).gr(R9), 1, "transaction aborted by I/O");
        assert_eq!(sys.mem().load_u64(Address::new(var)), 0xD1A0);
        // The abort is a plain fetch conflict (code 9) with no CPU id.
        assert_eq!(sys.tx_stats(0).aborts_by_code.get(&9), Some(&1));
    }

    #[test]
    fn io_store_to_uncached_line_is_plain() {
        let mut sys = System::new(SystemConfig::with_cpus(2));
        sys.io_store(Address::new(0x123450), 7);
        assert_eq!(sys.mem().load_u64(Address::new(0x123450)), 7);
        assert_eq!(sys.report().tx.aborts, 0);
    }

    #[test]
    fn fabric_bandwidth_queueing_slows_parallel_misses() {
        // Two CPUs streaming disjoint misses: with a huge per-transfer
        // occupancy the shared channel serializes them.
        let prog = |base: u64| {
            let mut a = Assembler::new(0);
            a.lghi(R6, 50);
            a.lghi(R5, base as i64);
            a.label("stream");
            a.lg(R1, MemOperand::based(R5, 0));
            a.aghi(R5, 256);
            a.brctg(R6, "stream");
            a.halt();
            a.assemble().unwrap()
        };
        let run = |occupancy: u64| {
            let mut cfg = SystemConfig::with_cpus(2);
            cfg.fabric_occupancy = occupancy;
            let mut sys = System::new(cfg);
            sys.load_program(0, &prog(0x100_0000));
            sys.load_program(1, &prog(0x200_0000));
            sys.run_until_halt(100_000);
            sys.report().elapsed_cycles
        };
        let free = run(0);
        let contended = run(2_000);
        // 100 transfers × 2000 cycles of channel time ≈ 200k cycles lower
        // bound when serialized.
        assert!(
            contended > free + 100_000,
            "queueing must dominate: {free} vs {contended}"
        );
    }

    #[test]
    fn tracing_records_disassembled_steps() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 5);
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.tend();
        a.label("out");
        a.halt();
        let p = a.assemble().unwrap();
        let mut sys = System::new(SystemConfig::with_cpus(2));
        sys.load_program_all(&p);
        sys.set_trace(0, true); // only CPU 0
        sys.run_until_halt(1_000);
        let records: Vec<_> = sys.trace().collect();
        assert!(records.iter().all(|r| r.cpu == 0));
        assert!(records.iter().any(|r| r.text.starts_with("TBEGIN")));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, StepEvent::Committed)));
        let listing = sys.trace_listing();
        assert!(listing.contains("LGHI    r1,5"));
    }

    #[test]
    fn event_tracer_captures_a_contended_run() {
        let var = 0x88_000u64;
        let (tracer, recorder) = Tracer::recording(1 << 16);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        sys.set_tracer(tracer);
        let prog = tx_increment_program(var, 20);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);

        let rec = recorder.lock().unwrap();
        assert_eq!(rec.dropped(), 0, "ring must be large enough for the run");
        let m = rec.metrics();
        let report = sys.report();
        assert_eq!(m.tx_commits, report.tx.commits);
        assert_eq!(m.tx_aborts, report.tx.aborts);
        assert_eq!(
            m.xi_issued.iter().sum::<u64>(),
            report.xi_counts.iter().sum::<u64>()
        );
        assert!(m.accesses.iter().sum::<u64>() > 0 && m.store_new > 0);
        // The recorded stream must satisfy every trace invariant.
        let events = rec.snapshot();
        if let Err(violations) = ztm_trace::check_invariants(&events) {
            panic!("invariant violations: {violations:#?}");
        }
    }

    #[test]
    fn l3_capacity_eviction_aborts_transactions() {
        // Shrink the shared L3 to 4 lines. CPU 0 opens a transaction over
        // one line and spins; CPU 1 (same chip) streams through enough
        // lines to evict CPU 0's footprint from the L3 — the resulting LRU
        // XI must abort CPU 0 (§III.A "LRU XIs" as an abort cause).
        let txline = 0xA0_000u64;
        let mut a0 = Assembler::new(0);
        a0.tbegin(TbeginParams::new());
        a0.jnz("aborted");
        a0.lg(R2, MemOperand::absolute(txline));
        a0.label("spin");
        a0.lg(R3, MemOperand::absolute(txline));
        a0.cghi(R3, 0);
        a0.jz("spin");
        a0.tend();
        a0.halt();
        a0.label("aborted");
        a0.lghi(R9, 1);
        a0.halt();
        let p0 = a0.assemble().unwrap();

        let mut a1 = Assembler::new(0x1000);
        a1.delay(2_000);
        a1.lghi(R6, 32);
        a1.lghi(R5, 0xB0_000);
        a1.label("stream");
        a1.lg(R1, MemOperand::based(R5, 0));
        a1.aghi(R5, 256);
        a1.brctg(R6, "stream");
        a1.halt();
        let p1 = a1.assemble().unwrap();

        let mut cfg = SystemConfig::with_cpus(2);
        cfg.l3_geometry = Some((1, 4));
        cfg.speculative_prefetch = false;
        let mut sys = System::new(cfg);
        sys.load_program(0, &p0);
        sys.load_program(1, &p1);
        sys.run_until_halt(1_000_000);
        assert_eq!(sys.core(0).gr(R9), 1, "transaction aborted by LRU XI");
        assert!(sys.tx_stats(0).aborts >= 1);
    }

    #[test]
    fn full_zec12_topology_smoke() {
        // All 144 cores of the real machine, hammering a small pool.
        let var = 0x90_000u64;
        let mut cfg = SystemConfig::with_cpus(1);
        cfg.topology = ztm_cache::Topology::zec12(144);
        let mut sys = System::new(cfg);
        let prog = tx_increment_program(var, 5);
        sys.load_program_all(&prog);
        sys.run_until_halt(80_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 144 * 5);
    }

    #[test]
    fn non_tx_store_conflicts_with_tx_reader() {
        // Strong atomicity (§II.A): CPU 1's plain store aborts CPU 0's
        // transaction that read the line.
        let var = 0x70_000u64;
        // CPU 0: long transaction reading var then spinning on a flag.
        let mut a0 = Assembler::new(0);
        a0.tbegin(TbeginParams::new());
        a0.jnz("aborted");
        a0.lg(R2, MemOperand::absolute(var));
        a0.label("wait"); // poll a flag inside the tx until aborted
        a0.lg(R3, MemOperand::absolute(var + 8));
        a0.cghi(R3, 0);
        a0.jz("wait");
        a0.tend();
        a0.halt();
        a0.label("aborted");
        a0.lghi(R9, 1);
        a0.halt();
        let p0 = a0.assemble().unwrap();
        // CPU 1: wait a bit, then store to var (plain store).
        let mut a1 = Assembler::new(0x1000);
        a1.lghi(R6, 50);
        a1.label("delay");
        a1.brctg(R6, "delay");
        a1.lghi(R1, 99);
        a1.stg(R1, MemOperand::absolute(var));
        a1.halt();
        let p1 = a1.assemble().unwrap();

        let mut cfg = SystemConfig::with_cpus(2);
        cfg.speculative_prefetch = false;
        let mut sys = System::new(cfg);
        sys.load_program(0, &p0);
        sys.load_program(1, &p1);
        sys.run_until_halt(1_000_000);
        assert_eq!(sys.core(0).gr(R9), 1, "reader transaction aborted");
        assert_eq!(sys.mem().load_u64(Address::new(var)), 99);
        let r = sys.report();
        assert!(r.tx.aborts >= 1);
    }
}
