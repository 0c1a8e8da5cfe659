//! The multi-CPU system simulator: wires CPU cores, private caches, the
//! coherence fabric, and per-CPU transaction engines into one deterministic
//! discrete-event machine.

use crate::config::SystemConfig;
use crate::report::SystemReport;
use crate::shard::{safe_set, split_mut, Candidate, ShardPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
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
use ztm_mem::{Address, LineAddr, MainMemory, PageTable, SharedMem, HALF_LINE_SIZE};
use ztm_trace::{Event, EventBuffer, SeqTracedEvent, Tracer};

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
    /// Same-line ifetch fast path: the text line the previous instruction
    /// fetched from, valid while the install counter and page-residency
    /// epoch below still match. Instruction lines receive no XIs (the
    /// i-cache is outside the coherence protocol), and the i-cache is only
    /// mutated by this CPU's own fetch misses — which reset this snapshot —
    /// so a match means the directory walk would return the identical hit.
    last_ifetch: Option<LineAddr>,
    /// I-cache installs performed (fetch misses).
    icache_installs: u64,
    /// Value of `icache_installs` observed at the `last_ifetch` fetch.
    last_ifetch_installs: u64,
    /// Page-residency epoch observed at the `last_ifetch` fetch.
    last_ifetch_page_epoch: u64,
    /// Software-TM statistics observed via `STMNOTE` markers.
    stm: crate::report::StmCounts,
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
/// many cycles it took. The sharded and serial engines must produce
/// identical logs — the lockstep differential in `tests/sharded.rs` pins
/// that.
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
    /// Lazy scheduling heap of `(clock, cpu)` candidates. Invariant: every
    /// CPU that is running, has a program, and is not the quiesce holder has
    /// at least one entry carrying its *current* clock; entries whose clock
    /// no longer matches the CPU (or whose CPU halted) are stale and are
    /// skipped on pop. This makes picking the next CPU O(log n) instead of
    /// the former O(n) scan per instruction. Entries are `(clock, cpu)`
    /// packed into one `u64` (see [`Self::pack_entry`]) so heap sifts
    /// compare single words.
    ready: BinaryHeap<Reverse<u64>>,
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
    /// Host threads for the sharded run path (`ZTM_SIM_THREADS` /
    /// [`set_sim_threads`](Self::set_sim_threads)). `1` (the default) keeps
    /// the serial scheduler; above `1` the run methods route through the
    /// round-based sharded driver, which executes provably node-local steps
    /// of different shards concurrently. Simulation results are
    /// byte-identical for any value.
    sim_threads: usize,
    /// Optional full step log ([`set_step_log`](Self::set_step_log)) — the
    /// differential-test hook proving the sharded engine replays the serial
    /// step order exactly.
    step_log: Option<Vec<StepLogEntry>>,
    /// Steps the sharded driver executed inside parallel (shard-local)
    /// rounds, as opposed to serialized coordinator steps. Pure statistics —
    /// measures how much of a run actually parallelizes.
    sharded_local_steps: u64,
    /// Minimum shard-local steps a round needs before it is dispatched on
    /// scoped threads instead of inline ([`Self::SHARD_ROUND_MIN`] unless
    /// [`set_shard_round_min`](Self::set_shard_round_min) changes it). A
    /// host-speed dial only: both dispatch modes run the identical
    /// shard-step code, so results never depend on it.
    par_round_min: usize,
    /// Step-log entries executed by shard run-ahead whose serial position
    /// is not yet final: an entry is released into `step_log` only once the
    /// global key frontier (the smallest next `(clock, cpu)` key of any
    /// runnable CPU) passes it — no later step can then precede it. Kept
    /// key-sorted; survives `step_many` budget boundaries.
    pending_log: Vec<StepLogEntry>,
    /// Event blocks awaiting the same frontier, replayed into the real
    /// tracer in serial key order (see [`pending_log`](Self::pending_log)).
    pending_blocks: Vec<(u64, u16, Vec<SeqTracedEvent>)>,
    /// Parallel (shard-local) rounds dispatched.
    shard_rounds: u64,
    /// Largest single round, in shard-local steps.
    shard_round_max: u64,
    /// Longest single run-ahead chain, in steps.
    shard_chain_max: u64,
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
                last_ifetch: None,
                icache_installs: 0,
                last_ifetch_installs: 0,
                last_ifetch_page_epoch: 0,
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
            ready: BinaryHeap::with_capacity(cpus + 1),
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
            par_round_min: Self::SHARD_ROUND_MIN,
            pending_log: Vec::new(),
            pending_blocks: Vec::new(),
            shard_rounds: 0,
            shard_round_max: 0,
            shard_chain_max: 0,
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

    /// Sets the host-thread count for the sharded run path (also settable
    /// at construction via `ZTM_SIM_THREADS`). `1` (the default) keeps the
    /// single-threaded scheduler; above `1` the run methods partition the
    /// simulated SMP at a coherence boundary of the topology — per book
    /// (MCM), per chip when the machine is a single book — and advance
    /// provably node-local steps of different shards concurrently inside
    /// conservative round windows. Everything that crosses the boundary is
    /// serialized by the coordinator, so simulation results (architectural
    /// state, statistics, the committed event stream and both trace digests)
    /// are byte-identical for any value.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn set_sim_threads(&mut self, threads: usize) {
        assert!(threads > 0, "sim_threads must be positive");
        self.sim_threads = threads;
    }

    /// The configured host-thread count (see
    /// [`set_sim_threads`](Self::set_sim_threads)).
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// How many steps the sharded driver executed inside parallel
    /// (shard-local) rounds so far — the complement of the serialized
    /// coordinator steps. Zero when running the serial scheduler.
    pub fn sharded_local_steps(&self) -> u64 {
        self.sharded_local_steps
    }

    /// Default minimum round size (in shard-local steps) that dispatches on
    /// scoped host threads.
    const SHARD_ROUND_MIN: usize = 96;

    /// Sets the minimum round size (in shard-local steps) that dispatches
    /// on scoped host threads; smaller rounds run inline. Purely a host
    /// speed/overhead trade — results are identical for any value.
    pub fn set_shard_round_min(&mut self, min: usize) {
        self.par_round_min = min.max(1);
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

    /// Rebuilds the node-major hot mirrors from the cores.
    fn sync_hot(&mut self) {
        for (i, c) in self.cores.iter().enumerate() {
            self.hot_clock[i] = c.clock;
            self.hot_running[i] = c.is_running();
        }
        self.hot_dirty = false;
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
        self.ready
            .push(Reverse(Self::pack_entry(self.cores[cpu].clock, cpu)));
    }

    /// Loads the same program onto every CPU.
    pub fn load_program_all(&mut self, prog: &Program) {
        let p = Arc::new(prog.clone());
        for cpu in 0..self.programs.len() {
            self.programs[cpu] = Some(Arc::clone(&p));
            self.ready
                .push(Reverse(Self::pack_entry(self.cores[cpu].clock, cpu)));
        }
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

    /// Packs a `(clock, cpu)` scheduling candidate into one `u64` whose
    /// natural ordering matches the tuple's: smallest clock first, ties
    /// toward the lowest CPU index. Clocks fit comfortably in 48 bits (a
    /// simulation would need ~3 × 10¹⁴ cycles to overflow), but an
    /// overflowing clock would shift bits into the CPU field and silently
    /// corrupt heap ordering — so the bound is a hard invariant, checked in
    /// release builds too.
    fn pack_entry(clock: u64, cpu: usize) -> u64 {
        assert!(
            clock < 1 << 48,
            "scheduler clock {clock} exceeds the 48-bit heap key range"
        );
        debug_assert!(cpu < 1 << 16);
        clock << 16 | cpu as u64
    }

    fn unpack_entry(entry: u64) -> (u64, usize) {
        (entry >> 16, (entry & 0xffff) as usize)
    }

    /// Whether a heap entry still describes a schedulable CPU at that clock.
    /// Reads only the node-major mirrors — no stride into `Vec<CpuCore>`.
    fn entry_fresh(&self, clock: u64, cpu: usize) -> bool {
        self.hot_running[cpu] && self.programs[cpu].is_some() && self.hot_clock[cpu] == clock
    }

    /// The smallest local clock among runnable CPUs (discarding stale heap
    /// entries), or `None` when every CPU has halted. A broadcast-stop
    /// holder is scheduled outside the heap, so its clock is merged in
    /// explicitly.
    fn peek_next_clock(&mut self) -> Option<u64> {
        if self.hot_dirty {
            self.sync_hot();
        }
        let holder = match self.quiesce {
            Some(h) if self.hot_running[h] && self.programs[h].is_some() => Some(self.hot_clock[h]),
            _ => None,
        };
        let queued = self.peek_fresh_entry().map(|e| Self::unpack_entry(e).0);
        match (holder, queued) {
            (Some(h), Some(q)) => Some(h.min(q)),
            (h, q) => h.or(q),
        }
    }

    /// Discards stale entries from the top of the heap and returns the
    /// packed entry of the runnable CPU with the smallest `(clock, cpu)` —
    /// ties break toward the lowest CPU index, exactly like the former
    /// linear scan. The entry is *left on the heap*: `step_one` refreshes it
    /// in place after the step (one sift instead of a pop + push).
    fn peek_fresh_entry(&mut self) -> Option<u64> {
        loop {
            let &Reverse(entry) = self.ready.peek()?;
            let (clock, cpu) = Self::unpack_entry(entry);
            if self.entry_fresh(clock, cpu) {
                return Some(entry);
            }
            self.ready.pop();
        }
    }

    /// Steps the runnable CPU with the smallest local clock. Returns the
    /// CPU index and outcome, or `None` when every CPU has halted.
    pub fn step_one(&mut self) -> Option<(usize, StepOutcome)> {
        self.step_upto(1)
    }

    /// Executes exactly one instruction on CPU `i` with full system access
    /// (exclusive memory and page-table ports, the coherence fabric) and
    /// performs every per-step obligation: timer interruptions, tracing, the
    /// hot-mirror writeback, statistics, and broadcast-stop quiesce
    /// management. Scheduling (heap maintenance, round planning) is the
    /// caller's job — both the serial batch loop and the sharded
    /// coordinator's global-step path funnel through here, which is what
    /// keeps their per-step behavior identical by construction.
    fn exec_step(&mut self, i: usize) -> StepOutcome {
        // Timer interruptions (abort any running transaction, §II.A).
        if let Some(t) = self.config.timer_interval {
            if self.hot_clock[i] - self.nodes[i].last_timer >= t {
                self.nodes[i].last_timer = self.hot_clock[i];
                self.nodes[i].engine.raise_async_interruption();
            }
        }

        let prog: &Arc<Program> = self.programs[i].as_ref().expect("program loaded");
        self.tracer.set_clock(self.hot_clock[i]);
        let mut view = View {
            cpu: i,
            base: 0,
            now: self.hot_clock[i],
            tracer: &self.tracer,
            nodes: &mut self.nodes,
            fabric: Some(&mut self.fabric),
            mem: MemPort::Excl(&mut self.mem),
            pages: PagePort::Direct(&mut self.pages),
            fabric_busy: Some(&mut self.fabric_busy),
            config: &self.config,
        };
        let traced = self.traced[i];
        let (pre_clock, pre_pc) = (self.hot_clock[i], self.cores[i].pc);
        let out = if let Some(pl) = self.pipeline.as_mut() {
            ztm_isa::step_pipelined(&mut self.cores[i], prog, &mut view, &mut pl.windows[i])
        } else if self.use_legacy_interpreter {
            ztm_isa::step_legacy(&mut self.cores[i], prog, &mut view)
        } else {
            ztm_isa::step(&mut self.cores[i], prog, &mut view)
        };
        // Pipeline trace events carry the retire-time clock. Only widths
        // above 1 emit — the width-1 window is byte-identical to the
        // scalar path and must leave digests untouched.
        if let Some(pl) = self.pipeline.as_mut() {
            if pl.width > 1 && self.tracer.is_enabled() {
                let rep = pl.windows[i].take_report();
                self.tracer.set_clock(self.cores[i].clock);
                if let Some(size) = rep.closed_group {
                    let width = pl.width.min(255) as u8;
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
        // Mirror the stepped core's hot state back into the node-major
        // arrays before any scheduling decision reads them.
        self.hot_clock[i] = self.cores[i].clock;
        self.hot_running[i] = self.cores[i].is_running();
        self.steps += 1;
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
            self.nodes[i].stalls += 1;
        }
        // Broadcast-stop quiesce management (§III.E).
        if out.broadcast_stop {
            self.quiesce = Some(i);
        } else if self.quiesce == Some(i)
            && matches!(out.event, StepEvent::Committed | StepEvent::Halted)
        {
            self.release_quiesce(i);
        }
        if self.quiesce == Some(i) && !self.hot_running[i] {
            self.release_quiesce(i);
        }
        out
    }

    /// Steps up to `limit` instructions, returning the last `(cpu, outcome)`
    /// (`None` when every CPU has halted before the first step).
    ///
    /// All steps of one call execute on consecutively-scheduled CPUs in
    /// exactly the order a `step_one` loop would produce: after each step the
    /// batch only continues while the just-stepped CPU is *still* the
    /// scheduler's next pick — its refreshed entry sits on top of the heap
    /// (ties and staleness resolve identically: packed entries are unique
    /// per CPU and the refreshed entry is fresh by construction), or it
    /// still holds the broadcast-stop quiesce. Anything else falls back to
    /// the full scheduling pick on the next call. Batching only amortizes
    /// the pick itself; every per-step obligation (timer, tracing, quiesce
    /// management, heap refresh) runs inside the loop.
    fn step_upto(&mut self, limit: u64) -> Option<(usize, StepOutcome)> {
        self.step_upto_bounded(limit, u64::MAX)
    }

    /// [`step_upto`](Self::step_upto) with a cycle horizon: no step whose
    /// pre-step clock is `>= horizon` is executed (the `run_for_cycles`
    /// stopping rule, applied inside the batch).
    /// The caller guarantees the first pick's clock is below `horizon`.
    fn step_upto_bounded(&mut self, limit: u64, horizon: u64) -> Option<(usize, StepOutcome)> {
        if self.hot_dirty {
            self.sync_hot();
        }
        // `my_entry` is the (still-enqueued) heap entry the CPU was
        // scheduled from; a broadcast-stop holder bypasses the heap.
        let (i, mut my_entry) = match self.quiesce {
            Some(holder) if self.hot_running[holder] => (holder, None),
            _ => {
                self.quiesce = None;
                let entry = self.peek_fresh_entry()?;
                (Self::unpack_entry(entry).1, Some(entry))
            }
        };
        let mut done = 0u64;
        loop {
            let out = self.exec_step(i);
            done += 1;
            // Keep this CPU's heap entry fresh. While it holds the quiesce
            // it is scheduled directly (its stale entry is skipped lazily),
            // so pushing waits until the quiesce releases — the release path
            // falls through here. When the CPU was scheduled from the heap
            // and its (now stale) entry is still on top, refresh it in
            // place: one sift-down instead of a pop + push. (A
            // release_quiesce above may have pushed other entries, so the
            // top is re-checked rather than assumed.)
            if self.quiesce != Some(i) && self.hot_running[i] {
                let fresh = Reverse(Self::pack_entry(self.hot_clock[i], i));
                let mut replaced = false;
                if let Some(mut top) = self.ready.peek_mut() {
                    if Some(top.0) == my_entry {
                        *top = fresh;
                        replaced = true;
                    }
                }
                if !replaced {
                    self.ready.push(fresh);
                }
            } else if let Some(entry) = my_entry {
                // The stepped CPU halted or took the quiesce: drop its entry
                // eagerly while it is still (usually) on top.
                if let Some(top) = self.ready.peek_mut() {
                    if top.0 == entry {
                        std::collections::binary_heap::PeekMut::pop(top);
                    }
                }
            }
            if done >= limit || self.hot_clock[i] >= horizon {
                return Some((i, out));
            }
            // Batch continuation: same CPU only, and only when it is
            // unambiguously the next pick.
            if self.quiesce == Some(i) && self.hot_running[i] {
                my_entry = None;
                continue;
            }
            if self.quiesce.is_none() && self.hot_running[i] {
                let fresh = Self::pack_entry(self.hot_clock[i], i);
                if self.ready.peek() == Some(&Reverse(fresh)) {
                    my_entry = Some(fresh);
                    continue;
                }
            }
            return Some((i, out));
        }
    }

    fn release_quiesce(&mut self, holder: usize) {
        self.quiesce = None;
        let t = self.hot_clock[holder];
        for j in 0..self.cores.len() {
            if j == holder || !self.hot_running[j] || self.hot_clock[j] >= t {
                continue;
            }
            self.cores[j].clock = t;
            self.hot_clock[j] = t;
            // The bumped clock invalidates the CPU's heap entries.
            if self.programs[j].is_some() {
                self.ready.push(Reverse(Self::pack_entry(t, j)));
            }
        }
    }

    // ------------------------------------------------------------------
    // Sharded (host-parallel) execution
    // ------------------------------------------------------------------

    /// Whether the run methods should route through the sharded round
    /// driver: more than one host thread requested, more than one shard in
    /// the topology, and none of the inherently serial features engaged
    /// (issue windows re-time retirement through per-step reports, the
    /// legacy interpreter is a debug lever, and the disassembling step
    /// trace reads program text during the step).
    fn sharded_active(&self) -> bool {
        self.sim_threads > 1
            && self.pipeline.is_none()
            && !self.use_legacy_interpreter
            && !self.traced.iter().any(|&t| t)
            && ShardPlan::new(&self.config.topology).shard_count() > 1
    }

    /// Classifies CPU `i`'s next instruction step without executing it
    /// (coordinator entry point into [`classify_step_at`]).
    fn classify_step(&self, i: usize) -> Candidate {
        classify_step_at(
            i,
            self.hot_clock[i],
            &self.nodes[i],
            &self.cores[i],
            self.programs[i].as_ref().expect("program loaded"),
            &self.pages,
            SlotView::Main(&self.mem),
            &self.config,
        )
    }

    /// Runs up to `limit` steps through the sharded round scheduler,
    /// stopping early when every CPU halts or, with `horizon`, when the
    /// next serial pick would start at or past it (the exact
    /// [`run_for_cycles`](Self::run_for_cycles) stopping rule). Returns
    /// how many steps executed.
    ///
    /// Each round classifies every runnable CPU within one cycle of the
    /// minimum `(clock, cpu)` key and executes the [`safe_set`] — the
    /// key-ordered prefix of provably node-local steps the serial
    /// scheduler would run next, partitioned across shards. Each admitted
    /// CPU then *runs ahead* inside its shard: the shard re-classifies the
    /// CPU's own next step (node state and the read-only shared structures
    /// are all it needs) and keeps executing while the step stays local
    /// and its key stays strictly below the round bound — the earliest
    /// key at which any *other* runnable CPU could next go global. Rounds
    /// concatenated in key order *are* the serial step sequence, so state,
    /// statistics, step logs, and the replayed event stream are
    /// byte-identical to the single-threaded scheduler for any host-thread
    /// count.
    fn run_sharded_upto(&mut self, limit: u64, horizon: Option<u64>) -> u64 {
        if self.hot_dirty {
            self.sync_hot();
        }
        let plan = ShardPlan::new(&self.config.topology);
        let shard_count = plan.shard_count();

        // Reroute every event emitter into per-shard buffers (plus one for
        // the coordinator: the fabric and pipeline emit through
        // `self.tracer`) sharing a single ticket counter. Each round's
        // buffered events are replayed into the real sink in serial step
        // order before the next round, so sinks observe the exact serial
        // stream.
        let real = self.tracer.clone();
        let buffering = real.is_enabled();
        let mut shard_tracers: Vec<Tracer> = Vec::new();
        let mut shard_bufs: Vec<Arc<Mutex<EventBuffer>>> = Vec::new();
        let mut sys_buf: Option<Arc<Mutex<EventBuffer>>> = None;
        if buffering {
            let seq = Arc::new(AtomicU64::new(0));
            for s in 0..shard_count {
                let (t, b) = Tracer::buffering(Arc::clone(&seq));
                for cpu in plan.range(s) {
                    self.nodes[cpu].cache.set_tracer(t.for_cpu(cpu as u16));
                    self.nodes[cpu].engine.set_tracer(t.for_cpu(cpu as u16));
                }
                shard_tracers.push(t);
                shard_bufs.push(b);
            }
            let (t, b) = Tracer::buffering(seq);
            self.fabric.set_tracer(t.clone());
            self.tracer = t;
            sys_buf = Some(b);
        } else {
            // Disabled stand-ins keep the shard-step path uniform.
            shard_tracers = (0..shard_count).map(|_| Tracer::disabled()).collect();
        }

        let mut executed = 0u64;
        let mut cands: Vec<Candidate> = Vec::new();
        // `done` = nothing left to run this side of the frontier (all CPUs
        // halted, or every next key is at or past the horizon): pending
        // run-ahead output is final and flushes completely. A `limit` exit
        // leaves it pending — the continuation call may still execute
        // smaller keys.
        let mut done = false;
        while executed < limit {
            // Mirror the serial scheduler: a running broadcast-stop holder
            // is stepped directly; otherwise the smallest (clock, cpu)
            // runnable CPU is next.
            let holder = match self.quiesce {
                Some(h) if self.hot_running[h] => Some(h),
                _ => {
                    self.quiesce = None;
                    None
                }
            };
            let mut min: Option<(u64, usize)> = None;
            for i in 0..self.hot_clock.len() {
                if self.hot_running[i] && self.programs[i].is_some() {
                    let key = (self.hot_clock[i], i);
                    if min.is_none_or(|m| key < m) {
                        min = Some(key);
                    }
                }
            }
            let Some((min_clock, min_cpu)) = min else {
                done = true;
                break;
            };
            // Frontier flush: every future step's key is at least the
            // serial minimum, so pending run-ahead output strictly below
            // it is in its final position.
            self.flush_pending_below((min_clock, min_cpu), &real);
            if horizon.is_some_and(|hz| min_clock >= hz) {
                done = true;
                break;
            }
            if let Some(h) = holder {
                // A global step's key is provably above every pending
                // run-ahead key (run-ahead never passes another CPU's
                // earliest-possible-global key), so pending output is
                // final before any serialized step.
                self.flush_pending_below((u64::MAX, usize::MAX), &real);
                self.exec_global_round(h, &shard_tracers, &shard_bufs, sys_buf.as_ref(), &real);
                executed += 1;
                continue;
            }
            // Only CPUs within one cycle of the minimum can join the
            // round; every runnable CPU beyond that window still bounds
            // run-ahead conservatively at its current key (it could go
            // global the moment it becomes schedulable).
            cands.clear();
            let mut outside = (u64::MAX, usize::MAX);
            for i in 0..self.hot_clock.len() {
                if self.hot_running[i] && self.programs[i].is_some() {
                    if self.hot_clock[i] <= min_clock + 1 {
                        cands.push(self.classify_step(i));
                    } else {
                        outside = outside.min((self.hot_clock[i], i));
                    }
                }
            }
            let mut safe = safe_set(&cands);
            // The horizon is a hard key ceiling: nothing at or past
            // `(hz, 0)` may execute, whether admitted or run ahead (keys
            // are ascending, so admission truncation is a prefix cut and
            // never empties a non-empty set — the serial-min key is below
            // the horizon, checked above).
            let ceiling = horizon.map_or((u64::MAX, usize::MAX), |hz| (hz, 0));
            if horizon.is_some() {
                safe.truncate(
                    safe.partition_point(|&(at, _)| (cands[at].clock, cands[at].cpu) < ceiling),
                );
            }
            if safe.is_empty() {
                // The serial pick itself is global: run exactly that one
                // step under the coordinator and re-plan. Pending keys are
                // all below a global step's key (see the holder case), so
                // they flush first.
                self.flush_pending_below((u64::MAX, usize::MAX), &real);
                self.exec_global_round(
                    min_cpu,
                    &shard_tracers,
                    &shard_bufs,
                    sys_buf.as_ref(),
                    &real,
                );
                executed += 1;
                continue;
            }
            // A key-ordered prefix of the safe set is still an exact
            // serial prefix — truncate to the remaining step budget, and
            // divide what's left of the budget into per-chain run-ahead
            // caps so a round can never overshoot `limit`.
            let remaining = limit - executed;
            let take = (safe.len() as u64).min(remaining) as usize;
            let cap = (remaining / take as u64).clamp(1, RUN_AHEAD_CAP);
            let steps: Vec<ShardStep> = safe[..take]
                .iter()
                .map(|&(at, bound)| ShardStep {
                    cpu: cands[at].cpu,
                    clock: cands[at].clock,
                    bound: bound.min(outside).min(ceiling),
                })
                .collect();
            executed +=
                self.exec_local_round(&steps, cap, &plan, &shard_tracers, &shard_bufs, buffering);
        }

        // All halted or horizon reached: no future step can precede any
        // pending key, so the tail of the run-ahead output is final. (A
        // `limit` exit keeps it pending for the continuation call.)
        if done {
            self.flush_pending_below((u64::MAX, usize::MAX), &real);
        }
        // Restore the real tracer wiring (`set_tracer` re-fans the per-CPU
        // clones) and rebuild the scheduling heap for the serial engine.
        if buffering {
            self.set_tracer(real);
        }
        self.ready.clear();
        for i in 0..self.hot_clock.len() {
            if self.hot_running[i] && self.programs[i].is_some() {
                self.ready
                    .push(Reverse(Self::pack_entry(self.hot_clock[i], i)));
            }
        }
        executed
    }

    /// Releases pending run-ahead output whose `(clock, cpu)` key is
    /// strictly below `key`: step-log entries move into the real log and
    /// event blocks replay into the real tracer, in serial key order.
    /// Callers pass the current frontier (no future step's key can be
    /// smaller) or `(u64::MAX, usize::MAX)` to flush everything.
    fn flush_pending_below(&mut self, key: (u64, usize), real: &Tracer) {
        if !self.pending_log.is_empty() {
            let n = self.pending_log.partition_point(|e| (e.clock, e.cpu) < key);
            let released = self.pending_log.drain(..n);
            if let Some(log) = self.step_log.as_mut() {
                log.extend(released);
            }
        }
        if !self.pending_blocks.is_empty() {
            let n = self
                .pending_blocks
                .partition_point(|b| (b.0, b.1 as usize) < key);
            for (_, _, events) in self.pending_blocks.drain(..n) {
                replay_events(real, &events);
            }
        }
    }

    /// One serialized step under the coordinator. Every shard tracer's
    /// clock is aligned first — a global step can emit against any node
    /// (XIs, quiesce release) — and the step's buffered events are merged
    /// by emission ticket and replayed immediately: rounds execute in
    /// serial key order, so replay order is arrival order.
    fn exec_global_round(
        &mut self,
        i: usize,
        shard_tracers: &[Tracer],
        shard_bufs: &[Arc<Mutex<EventBuffer>>],
        sys_buf: Option<&Arc<Mutex<EventBuffer>>>,
        real: &Tracer,
    ) {
        if let Some(sys) = sys_buf {
            for t in shard_tracers {
                t.set_clock(self.hot_clock[i]);
            }
            self.exec_step(i);
            let mut events: Vec<SeqTracedEvent> = Vec::new();
            for b in shard_bufs {
                events.extend(b.lock().expect("event buffer poisoned").drain());
            }
            events.extend(sys.lock().expect("event buffer poisoned").drain());
            events.sort_unstable_by_key(|e| e.seq);
            replay_events(real, &events);
        } else {
            self.exec_step(i);
        }
    }

    /// Executes one round's safe set, returning how many steps ran
    /// (admitted steps plus in-shard run-ahead). The set arrives in serial
    /// `(clock, cpu)` order; grouping by shard preserves each shard's
    /// internal order, and admitted steps of different shards commute, so
    /// running shards concurrently on host threads cannot change any
    /// outcome. Inline execution and `thread::scope` drive the *same*
    /// shard-step function — thread count selects a schedule, never a code
    /// path. Step logs and event blocks are merged back in key order
    /// (stable, so a chain's equal-key zero-cycle entries keep their
    /// execution order), which *is* the round's serial execution order.
    fn exec_local_round(
        &mut self,
        steps: &[ShardStep],
        cap: u64,
        plan: &ShardPlan,
        shard_tracers: &[Tracer],
        shard_bufs: &[Arc<Mutex<EventBuffer>>],
        buffering: bool,
    ) -> u64 {
        let shard_count = plan.shard_count();
        let mut per_shard: Vec<Vec<ShardStep>> = vec![Vec::new(); shard_count];
        for &s in steps {
            per_shard[plan.shard_of(s.cpu)].push(s);
        }
        let involved = per_shard.iter().filter(|w| !w.is_empty()).count();
        let want_log = self.step_log.is_some();
        // Spawning scoped threads costs tens of microseconds per round;
        // only rounds with enough work to amortize that go parallel —
        // smaller ones run inline through the identical shard-step code,
        // so the cutoff affects host speed only, never results.
        let run_parallel =
            involved >= 2 && self.sim_threads > 1 && steps.len() >= self.par_round_min;
        let bases: Vec<usize> = (0..shard_count).map(|s| plan.range(s).start).collect();

        let shared = SharedMem::new(&mut self.mem);
        let node_chunks = split_mut(&mut self.nodes, plan.bounds());
        let core_chunks = split_mut(&mut self.cores, plan.bounds());
        let clock_chunks = split_mut(&mut self.hot_clock, plan.bounds());
        let running_chunks = split_mut(&mut self.hot_running, plan.bounds());
        let chunks: Vec<_> = node_chunks
            .into_iter()
            .zip(core_chunks)
            .zip(clock_chunks)
            .zip(running_chunks)
            .map(|(((n, c), cl), r)| (n, c, cl, r))
            .collect();
        let pages = &self.pages;
        let config = &self.config;
        let programs = &self.programs[..];

        let results: Vec<ShardRunResult> = if run_parallel {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(involved);
                for (s, chunk) in chunks.into_iter().enumerate() {
                    let work = std::mem::take(&mut per_shard[s]);
                    if work.is_empty() {
                        continue;
                    }
                    let (nodes, cores, clocks, running) = chunk;
                    let base = bases[s];
                    let tracer = &shard_tracers[s];
                    let buf = shard_bufs.get(s);
                    handles.push(scope.spawn(move || {
                        run_shard_steps(
                            &work, cap, base, nodes, cores, clocks, running, shared, pages, config,
                            programs, tracer, buf, want_log,
                        )
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread panicked"))
                    .collect()
            })
        } else {
            let mut out = Vec::with_capacity(involved);
            for (s, chunk) in chunks.into_iter().enumerate() {
                let work = &per_shard[s];
                if work.is_empty() {
                    continue;
                }
                let (nodes, cores, clocks, running) = chunk;
                out.push(run_shard_steps(
                    work,
                    cap,
                    bases[s],
                    nodes,
                    cores,
                    clocks,
                    running,
                    shared,
                    pages,
                    config,
                    programs,
                    &shard_tracers[s],
                    shard_bufs.get(s),
                    want_log,
                ));
            }
            out
        };

        let mut total = 0u64;
        let mut chain_max = 0u64;
        let mut all_logs: Vec<StepLogEntry> = Vec::new();
        let mut all_blocks: Vec<(u64, u16, Vec<SeqTracedEvent>)> = Vec::new();
        for r in results {
            total += r.executed;
            chain_max = chain_max.max(r.chain_max);
            all_logs.extend(r.log);
            all_blocks.extend(r.blocks);
        }
        self.steps += total;
        self.sharded_local_steps += total;
        self.shard_rounds += 1;
        self.shard_round_max = self.shard_round_max.max(total);
        self.shard_chain_max = self.shard_chain_max.max(chain_max);
        // Run-ahead output is not final until the key frontier passes it
        // (a later round can execute smaller keys on other CPUs): merge the
        // round into the pending buffers, kept key-sorted. Stable sorts:
        // equal keys are one CPU's zero-cycle chain, already in execution
        // order within its shard's contribution and across rounds.
        if want_log {
            self.pending_log.extend(all_logs);
            self.pending_log.sort_by_key(|e| (e.clock, e.cpu));
        }
        if buffering {
            self.pending_blocks.extend(all_blocks);
            self.pending_blocks.sort_by_key(|b| (b.0, b.1));
        }
        total
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

    /// Steps up to `limit` instructions (batched scheduling, see the private
    /// `step_upto`), returning how many executed —
    /// 0 means every CPU has halted.
    pub fn step_many(&mut self, limit: u64) -> u64 {
        if self.sharded_active() {
            return self.run_sharded_upto(limit, None);
        }
        let before = self.steps;
        if self.step_upto(limit).is_none() {
            return 0;
        }
        self.steps - before
    }

    /// Runs until every running CPU's clock reaches `horizon` (or all halt).
    pub fn run_for_cycles(&mut self, horizon: u64) {
        if self.sharded_active() {
            self.run_sharded_upto(u64::MAX, Some(horizon));
            return;
        }
        loop {
            match self.peek_next_clock() {
                Some(t) if t < horizon => {
                    if self.step_upto_bounded(u64::MAX, horizon).is_none() {
                        return;
                    }
                }
                _ => return,
            }
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
            chain_max: self.shard_chain_max,
            ..Default::default()
        }
    }
}

/// One admitted round entry: CPU `cpu`'s step at `clock`, plus the key
/// `bound` below which the shard may keep running this CPU's own
/// provably-local steps (run-ahead) before the coordinator re-plans.
#[derive(Debug, Clone, Copy)]
struct ShardStep {
    cpu: usize,
    clock: u64,
    bound: (u64, usize),
}

/// Per-chain run-ahead ceiling: bounds a lone unconstrained CPU's chain so
/// event replay and halt/limit checks still happen at a reasonable cadence.
const RUN_AHEAD_CAP: u64 = 64;

/// What one shard's slice of a round reports back to the coordinator.
struct ShardRunResult {
    executed: u64,
    log: Vec<StepLogEntry>,
    /// One `(clock, cpu, events)` block per step that emitted anything —
    /// the coordinator merges blocks of all shards by `(clock, cpu)`, the
    /// round's serial execution order.
    blocks: Vec<(u64, u16, Vec<SeqTracedEvent>)>,
    /// Longest run-ahead chain in this slice, in steps.
    chain_max: u64,
}

/// Executes one shard's slice of a round: provably node-local steps over
/// the shard's own nodes and cores plus the shared committed-memory window.
/// After each admitted step the shard re-classifies the *same CPU's* next
/// step — classification reads only the CPU's own node plus read-only
/// shared structures, all of which the shard holds — and chains it into
/// the round while it stays local, its key stays strictly below the round
/// bound, and the chain stays within `cap` steps. Runs either inline on
/// the coordinator or on a scoped host thread — same code, same results.
#[allow(clippy::too_many_arguments)]
fn run_shard_steps(
    work: &[ShardStep],
    cap: u64,
    base: usize,
    nodes: &mut [Node],
    cores: &mut [CpuCore],
    hot_clock: &mut [u64],
    hot_running: &mut [bool],
    shared: SharedMem,
    pages: &PageTable,
    config: &SystemConfig,
    programs: &[Option<Arc<Program>>],
    tracer: &Tracer,
    buf: Option<&Arc<Mutex<EventBuffer>>>,
    want_log: bool,
) -> ShardRunResult {
    let mut res = ShardRunResult {
        executed: 0,
        log: Vec::new(),
        blocks: Vec::new(),
        chain_max: 0,
    };
    for &ShardStep { cpu, clock, bound } in work {
        let at = cpu - base;
        debug_assert_eq!(hot_clock[at], clock, "stale round plan");
        let prog = programs[cpu].as_ref().expect("program loaded");
        let mut clock = clock;
        let mut budget = cap;
        let mut chain = 0u64;
        loop {
            tracer.set_clock(clock);
            let mut view = View {
                cpu,
                base,
                now: clock,
                tracer,
                nodes: &mut *nodes,
                fabric: None,
                mem: MemPort::Shared(shared),
                pages: PagePort::Check(pages),
                fabric_busy: None,
                config,
            };
            let out = ztm_isa::step(&mut cores[at], prog, &mut view);
            debug_assert!(
                !out.broadcast_stop && out.event != StepEvent::Stalled,
                "a shard-local step can neither stall nor quiesce"
            );
            hot_clock[at] = cores[at].clock;
            hot_running[at] = cores[at].is_running();
            res.executed += 1;
            chain += 1;
            if want_log {
                res.log.push(StepLogEntry {
                    clock,
                    cpu,
                    event: out.event,
                    cycles: out.cycles,
                });
            }
            if let Some(b) = buf {
                let events = b.lock().expect("event buffer poisoned").drain();
                if !events.is_empty() {
                    res.blocks.push((clock, cpu as u16, events));
                }
            }
            budget -= 1;
            let next_clock = cores[at].clock;
            if budget == 0 || !hot_running[at] || (next_clock, cpu) >= bound {
                break;
            }
            // Run ahead: chain this CPU's own next step into the round if
            // it provably stays node-local.
            let c = classify_step_at(
                cpu,
                next_clock,
                &nodes[at],
                &cores[at],
                prog,
                pages,
                SlotView::Shared(shared),
                config,
            );
            if c.global {
                break;
            }
            clock = next_clock;
        }
        res.chain_max = res.chain_max.max(chain);
    }
    res
}

/// Read-only committed-arena slot lookup for the classifier: the
/// coordinator classifies against exclusive memory, a run-ahead shard
/// against its shared window — same answers either way.
#[derive(Clone, Copy)]
enum SlotView<'a> {
    Main(&'a MainMemory),
    Shared(SharedMem),
}

impl SlotView<'_> {
    fn has_slot(&self, line: LineAddr) -> bool {
        match self {
            SlotView::Main(m) => m.line_slot(line).is_some(),
            SlotView::Shared(s) => s.line_slot(line).is_some(),
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
/// and executes serially under the coordinator.
///
/// Every input is either the CPU's own node state or a structure no
/// shard-local step mutates (the page table, the arena slot index, the
/// config), so shards can re-classify their own CPUs mid-round for
/// run-ahead and reach the same verdicts the coordinator would.
///
/// Conservative by design: classifying local as global only costs
/// parallelism, never correctness, and the shared-mode ports panic on
/// any admitted step that actually reaches a serialized resource.
#[allow(clippy::too_many_arguments)]
fn classify_step_at(
    cpu: usize,
    clock: u64,
    node: &Node,
    core: &CpuCore,
    prog: &Program,
    pages: &PageTable,
    slots: SlotView<'_>,
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
            cpu, clock, node, core, d, want_excl, class, pages, slots, config,
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
        Op::Tend => classify_tend_at(cpu, clock, node, slots),
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
    slots: SlotView<'_>,
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
    // Non-transactional stores write through to committed memory,
    // which the shared window can only do into an existing arena slot
    // (allocating would race the shared index).
    if class == AccessClass::Store && !in_tx && !slots.has_slot(line) {
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
fn classify_tend_at(cpu: usize, clock: u64, node: &Node, slots: SlotView<'_>) -> Candidate {
    let slots_ok = node.engine.depth() != 1
        || node
            .cache
            .store_cache()
            .tx_lines()
            .into_iter()
            .all(|line| slots.has_slot(line));
    Candidate {
        cpu,
        clock,
        global: !slots_ok,
        zero: false,
    }
}

/// Replays buffered events into the real tracer, restoring each event's
/// emission clock and CPU attribution.
fn replay_events(real: &Tracer, events: &[SeqTracedEvent]) {
    for e in events {
        real.set_clock(e.clock);
        real.emit_at(e.cpu, || e.event);
    }
}

/// The committed-memory port of a [`View`]: exclusive access for the serial
/// scheduler and the sharded coordinator's global steps, or a [`SharedMem`]
/// window for shard-local steps (which may only touch preallocated arena
/// slots of MESI-exclusive lines — the classifier guarantees it).
enum MemPort<'a> {
    Excl(&'a mut MainMemory),
    Shared(SharedMem),
}

/// Message for every "a shard-local step needed a global resource" panic:
/// such a step should never have been admitted into a parallel round.
const CLASSIFIER_BUG: &str = "shard-local step reached a serialized resource (classifier bug)";

impl MemPort<'_> {
    fn load_u64(&self, addr: Address) -> u64 {
        match self {
            MemPort::Excl(m) => m.load_u64(addr),
            MemPort::Shared(s) => s.load_u64(addr),
        }
    }

    fn load_bytes(&self, addr: Address, buf: &mut [u8]) {
        match self {
            MemPort::Excl(m) => m.load_bytes(addr, buf),
            MemPort::Shared(s) => s.load_bytes(addr, buf),
        }
    }

    fn store_bytes(&mut self, addr: Address, bytes: &[u8]) {
        match self {
            MemPort::Excl(m) => m.store_bytes(addr, bytes),
            MemPort::Shared(s) => s.store_bytes(addr, bytes),
        }
    }

    fn apply_write(&mut self, w: &ztm_cache::DrainWrite) {
        match self {
            MemPort::Excl(m) => w.apply_to(m),
            MemPort::Shared(s) => w.apply_to_shared(s),
        }
    }

    /// The exclusive memory, for paths only a serialized step can reach
    /// (abort cleanup, TDB/diagnostic stores).
    fn excl(&mut self) -> &mut MainMemory {
        match self {
            MemPort::Excl(m) => m,
            MemPort::Shared(_) => panic!("{CLASSIFIER_BUG}"),
        }
    }
}

/// The page-table port: direct mutable access for serialized steps, or a
/// check-only shared view for shard-local steps (whose accesses the
/// classifier has already proven resident — `access` on a resident page is
/// side-effect-free, so the check-only port is exact).
enum PagePort<'a> {
    Direct(&'a mut PageTable),
    Check(&'a PageTable),
}

impl PagePort<'_> {
    fn epoch(&self) -> u64 {
        match self {
            PagePort::Direct(p) => p.epoch(),
            PagePort::Check(p) => p.epoch(),
        }
    }

    fn access(&mut self, addr: Address) -> Result<(), ztm_mem::MemFault> {
        match self {
            PagePort::Direct(p) => p.access(addr),
            // `PageTable::access` only differs from `check` on a fault
            // (it counts the fault); a shard-local step's accesses are
            // pre-proven resident, so a fault here is a classifier bug —
            // surfaced by the caller turning it into a page-in, which
            // panics through `direct()`.
            PagePort::Check(p) => p.check(addr),
        }
    }

    /// The mutable page table, for paths only a serialized step can reach
    /// (OS page-in, abort cleanup).
    fn direct(&mut self) -> &mut PageTable {
        match self {
            PagePort::Direct(p) => p,
            PagePort::Check(_) => panic!("{CLASSIFIER_BUG}"),
        }
    }
}

/// The per-step [`Machine`] view: disjoint borrows of the system's fields
/// excluding the stepped CPU's core (borrowed by the interpreter).
///
/// Serialized steps (the serial scheduler, the sharded coordinator's global
/// steps) build it with exclusive ports over the whole system and
/// `base == 0`. Shard-local steps build it over the shard's own node slice
/// (`base` = first CPU of the shard), a [`SharedMem`] window, a check-only
/// page table, and *no* fabric — touching a serialized resource from a
/// parallel round is a classifier bug and panics.
struct View<'a> {
    cpu: usize,
    /// First CPU index of the node slice below (0 for serialized steps).
    base: usize,
    /// The stepped CPU's local clock at instruction start (for fabric
    /// bandwidth queueing).
    now: u64,
    tracer: &'a Tracer,
    nodes: &'a mut [Node],
    fabric: Option<&'a mut Fabric>,
    mem: MemPort<'a>,
    pages: PagePort<'a>,
    fabric_busy: Option<&'a mut [u64]>,
    config: &'a SystemConfig,
}

impl View<'_> {
    fn me(&mut self) -> &mut Node {
        &mut self.nodes[self.cpu - self.base]
    }

    fn node(&self) -> &Node {
        &self.nodes[self.cpu - self.base]
    }

    fn fabric(&mut self) -> &mut Fabric {
        self.fabric.as_mut().expect(CLASSIFIER_BUG)
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
            self.fabric().apply_xi_result(cpu, vline, XiKind::Lru, true);
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
            self.fabric()
                .apply_xi_result(target, line, xikind, accepted);
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
        let fabric = self.fabric.as_deref().expect(CLASSIFIER_BUG);
        let busy = self.fabric_busy.as_deref_mut().expect(CLASSIFIER_BUG);
        let mcm = fabric
            .topology()
            .mcm_of(CpuId(self.cpu))
            .0
            .min(busy.len() - 1);
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
        let plan = self.fabric().plan_fetch(who, line, kind);
        if !self.deliver_plan_xis(line, plan.xis) {
            return Err(self.config.latency.xi_reject_retry);
        }
        let lru = self.fabric().grant(who, line, kind);
        self.deliver_lru_xis(lru);
        let base = {
            let fabric = self.fabric.as_deref().expect(CLASSIFIER_BUG);
            self.config
                .latency
                .fetch(fabric.topology(), who, plan.source)
        };
        let cycles = base + self.occupy_fabric();
        let state = if excl {
            CohState::Exclusive
        } else {
            CohState::ReadOnly
        };
        let inst = self.me().cache.install(line, state, class, tx);
        for l in inst.lost_lines {
            self.fabric().drop_holder(who, l);
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
        let plan = self.fabric().plan_fetch(who, next, FetchKind::Shared);
        if !self.deliver_plan_xis(next, plan.xis) {
            return;
        }
        let lru = self.fabric().grant(who, next, FetchKind::Shared);
        self.deliver_lru_xis(lru);
        self.occupy_fabric(); // speculative transfers consume bandwidth too
        let inst = self
            .me()
            .cache
            .install(next, CohState::ReadOnly, AccessClass::Fetch, overmark);
        for l in inst.lost_lines {
            self.fabric().drop_holder(who, l);
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
                // lines — `lost_lines` is empty here (the fabric unwrap is
                // the backstop proving it, shard-local steps included).
                let who = CpuId(self.cpu);
                for l in out.lost_lines {
                    self.fabric().drop_holder(who, l);
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
        let node = &mut self.nodes[self.cpu - self.base];
        // Same-line fast path: straight-line code fetches the same 256-byte
        // text line many instructions in a row. If nothing installed into
        // this i-cache and no page residency changed since the previous
        // fetch of this line, the directory walk would return the identical
        // hit (0 cycles) — skip it. LRU order is unaffected: repeat `get`s
        // of the directory-wide MRU line do not re-stamp (see
        // `SetAssoc::hot`), and a successful page access has no side
        // effects, so the elided calls are pure.
        if node.last_ifetch == Some(line)
            && node.icache_installs == node.last_ifetch_installs
            && node.last_ifetch_page_epoch == page_epoch
        {
            return AccessResult::Done {
                value: 0,
                cycles: 0,
            };
        }
        if self.pages.access(addr).is_err() {
            node.last_ifetch = None;
            return AccessResult::Fault(ProgramException::PageFault {
                address: addr.raw(),
            });
        }
        let cycles = if node.icache.get(line).is_some() {
            0
        } else {
            node.icache.insert(line, (), |_, _| 0);
            node.icache_installs += 1;
            self.config.latency.l2_hit
        };
        node.last_ifetch = Some(line);
        node.last_ifetch_installs = node.icache_installs;
        node.last_ifetch_page_epoch = page_epoch;
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
                    self.mem.apply_write(&w);
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
            self.mem.apply_write(&w);
        }
        // Aborts store the TDB and may page — serialized-only resources;
        // the classifier never admits a step that can abort into a
        // parallel round.
        let node = &mut self.nodes[self.cpu - self.base];
        let out = node.engine.process_abort(cause, grs, atia, &mut node.rng);
        let prefix_area = node.prefix_area;
        finish_abort(
            out,
            self.mem.excl(),
            self.pages.direct(),
            &self.config.os,
            prefix_area,
        )
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
                self.pages.direct().page_in(page);
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
        let node = &mut self.nodes[self.cpu - self.base];
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
    use ztm_isa::{gr::*, Assembler, MemOperand};

    #[test]
    fn pack_entry_round_trips_up_to_the_48_bit_boundary() {
        let max_clock = (1u64 << 48) - 1;
        assert_eq!(System::unpack_entry(System::pack_entry(0, 0)), (0, 0));
        assert_eq!(
            System::unpack_entry(System::pack_entry(max_clock, 0xffff)),
            (max_clock, 0xffff)
        );
        // Ordering: smallest clock first, ties toward the lowest CPU.
        assert!(System::pack_entry(1, 0xffff) < System::pack_entry(2, 0));
        assert!(System::pack_entry(5, 3) < System::pack_entry(5, 4));
    }

    #[test]
    #[should_panic(expected = "48-bit heap key range")]
    fn pack_entry_rejects_an_overflowing_clock() {
        System::pack_entry(1 << 48, 0);
    }

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

    #[test]
    fn broadcast_stop_quiesces_and_resynchronizes_clocks() {
        // An adversarial constrained kernel: half the CPUs update the two
        // lines in one order, half in the other — cross-holding deadlocks
        // force RejectHang aborts, escalating to broadcast-stop.
        let var = 0xE0_000u64;
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
        sys.run_until_halt(80_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 10 * 30);
        assert_eq!(sys.mem().load_u64(Address::new(var + 256)), 10 * 30);
        let r = sys.report();
        assert!(
            r.tx.broadcast_stops > 0,
            "the last-resort quiesce must have fired"
        );
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
