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
use rand::SeedableRng;
use std::sync::Arc;
use view::{deliver_xi, View};
use ztm_cache::{Fabric, PrivateCache, XiKind};
use ztm_core::{TxEngine, TxStats};
use ztm_isa::{CpuCore, Program, StepEvent, StepOutcome};
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
            sched_stale: false,
            use_legacy_interpreter: false,
            programs: vec![None; cpus],
            quiesce: None,
            sched: WinnerTree::new(cpus),
            fabric_busy: vec![0; config.topology.mcm_count()],
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

    /// The smallest local clock among runnable CPUs, or `None` when every
    /// CPU has halted. A broadcast-stop holder is running, so its leaf is in
    /// the tree like every other CPU's.
    fn peek_next_clock(&mut self) -> Option<u64> {
        if self.sched_stale {
            self.rebuild_sched();
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
        if self.sched_stale {
            self.rebuild_sched();
        }
        match self.quiesce {
            Some(holder) if self.cores[holder].is_running() => Some(holder),
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
    /// hand-off. The leaf of a batch that went on is written when the batch
    /// ends.
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
        let t = self.cores[holder].clock;
        for j in 0..self.cores.len() {
            let core = &mut self.cores[j];
            if j == holder || !core.is_running() || core.clock >= t {
                continue;
            }
            core.clock = t;
            self.sched.set(j, self.sched_key(j));
        }
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
        let xis = owner.into_iter().map(|c| (c, XiKind::Exclusive));
        let xis = xis.chain(sharers.into_iter().map(|c| (c, XiKind::ReadOnly)));
        for (cpu, kind) in xis {
            // I/O XIs carry no requester id and cannot be stiff-armed.
            deliver_xi(&mut self.nodes, &mut self.fabric, cpu, kind, line, None);
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

#[cfg(test)]
mod tests;
