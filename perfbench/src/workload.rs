//! The benchmark's workloads and one segment: a fresh `System` built,
//! warmed up, stepped to completion in timed chunks, and checked.

use std::collections::HashSet;
use std::time::Duration;
use ztm_cache::Topology;
use ztm_isa::gr::R7;
use ztm_mem::Address;
use ztm_sim::{System, SystemConfig, SystemReport};
use ztm_stm::StmLayout;
use ztm_trace::Metrics;
use ztm_workloads::{Bank, BankMethod, HashTable, TableMethod, WorkloadReport};

use crate::spans::{CountingSink, Spans};
use crate::stats::median;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One CPU running the elided hashtable: no contention at all.
    Elision1,
    /// The elided hashtable on 144 CPUs of the zEC12 topology, serial; its
    /// traced run also replays one segment sharded over two host threads.
    Elision144,
    /// 36 CPUs moving money between 64 accounts through TL2 software TM.
    StmBank36,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::Elision1,
    Workload::Elision144,
    Workload::StmBank36,
];

impl Workload {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Elision1 => "elision-1",
            Workload::Elision144 => "elision-144",
            Workload::StmBank36 => "stm-bank-36",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The run shape of this workload.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Elision1 => Spec {
                shape: Shape::Table,
                cpus: 1,
                full_topology: false,
                ops_per_cpu: 40_000,
                segments: 8,
                setup_repeats: 9,
                warmup_steps: 300_000,
                chunk_steps: 100_000,
                shard_threads: 0,
            },
            Workload::Elision144 => Spec {
                shape: Shape::Table,
                cpus: 144,
                full_topology: true,
                ops_per_cpu: 30,
                segments: 2,
                setup_repeats: 3,
                warmup_steps: 300_000,
                chunk_steps: 50_000,
                shard_threads: 2,
            },
            Workload::StmBank36 => Spec {
                shape: Shape::Bank,
                cpus: 36,
                full_topology: false,
                ops_per_cpu: 300,
                segments: 2,
                setup_repeats: 5,
                warmup_steps: 300_000,
                chunk_steps: 50_000,
                shard_threads: 0,
            },
        }
    }
}

/// Which data structure the simulated CPUs operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `HashTable::new(512, 2048, 20, TableMethod::Elision)`, pre-populated
    /// with keys `0..1024`.
    Table,
    /// `Bank::new(64, BankMethod::PureStm)`, every account opened with
    /// [`BANK_INITIAL`].
    Bank,
}

/// Pre-populated hashtable keys.
pub const TABLE_KEYS: u64 = 1024;
/// Opening balance of every bank account.
pub const BANK_INITIAL: u64 = 1_000_000;
const BANK_ACCOUNTS: u64 = 64;
// Fixed by `HashTable::new`: the bucket array and each CPU's bump arena
// (R7), which `HashTable::run` seeds the same way.
const TABLE_BASE: u64 = 0x1000_0000;
const ARENA_BASE: u64 = 0x2000_0000;
const ARENA_SIZE: u64 = 0x10_0000;

/// Everything that sizes one run of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The simulated program.
    pub shape: Shape,
    /// Simulated CPUs.
    pub cpus: usize,
    /// `Topology::zec12(cpus)` instead of the default testbed topology.
    pub full_topology: bool,
    /// Closed-loop operations per CPU: each CPU starts its next operation
    /// only after the previous one completed, and halts after this many.
    pub ops_per_cpu: u64,
    /// Fresh systems (segments) per pass, each with its own seed.
    pub segments: usize,
    /// Times each segment's set-up is repeated; the median is reported.
    pub setup_repeats: usize,
    /// Untimed warm-up steps before timing starts.
    pub warmup_steps: u64,
    /// Steps per timed `step_many` chunk.
    pub chunk_steps: u64,
    /// Host threads the traced run's sharded replay of the first segment
    /// asks for; zero skips the replay.
    pub shard_threads: usize,
}

impl Spec {
    fn table(&self) -> HashTable {
        HashTable::new(512, 2048, 20, TableMethod::Elision)
    }

    fn bank(&self) -> Bank {
        Bank::new(BANK_ACCOUNTS, BankMethod::PureStm)
    }

    fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::with_cpus(self.cpus).seed(seed);
        if self.full_topology {
            cfg.topology = Topology::zec12(self.cpus);
        }
        cfg
    }

    /// Operations the whole system must commit.
    pub fn total_ops(&self) -> u64 {
        self.cpus as u64 * self.ops_per_cpu
    }
}

/// Host time of each set-up phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Program emission and assembly.
    pub program: Duration,
    /// `System::new`.
    pub system_new: Duration,
    /// Populate/open, program load and register seeding.
    pub populate: Duration,
}

impl SetupTimes {
    /// All phases together.
    pub fn total(&self) -> Duration {
        self.program + self.system_new + self.populate
    }

    /// Phase-wise median over repeated set-ups.
    fn median_of(all: &[SetupTimes]) -> SetupTimes {
        let med = |f: fn(&SetupTimes) -> Duration| {
            let v: Vec<f64> = all.iter().map(|t| f(t).as_secs_f64()).collect();
            Duration::from_secs_f64(median(&v))
        };
        SetupTimes {
            program: med(|t| t.program),
            system_new: med(|t| t.system_new),
            populate: med(|t| t.populate),
        }
    }
}

/// The simulated outcome of a segment: deterministic for a given spec and
/// seed, so repeats, traced runs and sharded runs must reproduce it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Operations committed (sum of every CPU's R15).
    pub ops: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Elapsed simulated cycles (largest CPU clock).
    pub cycles: u64,
    /// Hardware transactions committed.
    pub tx_commits: u64,
    /// Hardware transactions aborted.
    pub tx_aborts: u64,
    /// XIs sent: exclusive, demote, read-only, LRU.
    pub xi: [u64; 4],
    /// Software transactions committed.
    pub stm_commits: u64,
}

impl SimStats {
    fn of(report: &SystemReport, ops: u64) -> SimStats {
        SimStats {
            ops,
            instructions: report.total_instructions,
            cycles: report.elapsed_cycles,
            tx_commits: report.tx.commits,
            tx_aborts: report.tx.aborts,
            xi: report.xi_counts,
            stm_commits: report.stm.commits,
        }
    }
}

/// The traced part of a segment.
#[derive(Debug, Clone)]
pub struct TraceCounts {
    /// Event aggregates over the whole segment.
    pub metrics: Metrics,
    /// Event-stream digest over the whole segment.
    pub digest: u64,
}

/// One fresh system, simulated to completion.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Position in the pass.
    pub index: usize,
    /// Simulator seed.
    pub seed: u64,
    /// Set-up host time (median over the repeats).
    pub setup: SetupTimes,
    /// Steps executed while timed.
    pub timed_steps: u64,
    /// Instructions retired while timed.
    pub timed_instructions: u64,
    /// Host time of the timed part.
    pub timed: Duration,
    /// Host time of each timed chunk.
    pub chunks: Vec<Duration>,
    /// The simulated outcome.
    pub sim: SimStats,
    /// The full end-of-segment report.
    pub report: SystemReport,
    /// Steps retired through superblocks.
    pub superblock_steps: u64,
    /// Event counts, when traced.
    pub trace: Option<TraceCounts>,
    /// The output check; `Err` names what was wrong.
    pub check: Result<(), String>,
}

/// Builds a ready-to-run system through the workloads' public set-up calls.
fn build(spec: &Spec, seed: u64, spans: &mut Spans) -> (System, SetupTimes) {
    let (program, program_t) = spans.time("program", || match spec.shape {
        Shape::Table => spec.table().program(spec.ops_per_cpu),
        Shape::Bank => spec.bank().program(spec.ops_per_cpu),
    });
    let (mut sys, system_new) = spans.time("system_new", || System::new(spec.config(seed)));
    let ((), populate) = spans.time("populate", || match spec.shape {
        Shape::Table => {
            let keys: Vec<u64> = (0..TABLE_KEYS).collect();
            spec.table().populate(&mut sys, &keys);
            sys.load_program_all(&program);
            for cpu in 0..sys.cpus() {
                sys.core_mut(cpu)
                    .set_gr(R7, ARENA_BASE + cpu as u64 * ARENA_SIZE);
            }
        }
        Shape::Bank => {
            spec.bank().open(&mut sys, BANK_INITIAL);
            sys.load_program_all(&program);
            StmLayout::default().install(&mut sys);
        }
    });
    (
        sys,
        SetupTimes {
            program: program_t,
            system_new,
            populate,
        },
    )
}

/// Runs one segment: `spec.setup_repeats` timed set-ups (only the last
/// system is kept), an untimed warm-up, the timed chunks, and the check.
/// With `traced`, a [`CountingSink`] sees every event of the segment.
pub fn run_segment(
    spec: &Spec,
    index: usize,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> Segment {
    spans.begin_segment();
    spans.enter("segment");
    let mut times = Vec::with_capacity(spec.setup_repeats);
    let mut sys = None;
    spans.enter("setup");
    for _ in 0..spec.setup_repeats.max(1) {
        // Drop the previous system first so only one is ever resident.
        drop(sys.take());
        let (s, t) = build(spec, seed, spans);
        times.push(t);
        sys = Some(s);
    }
    spans.exit();
    let mut sys = sys.expect("at least one set-up ran");
    let sink = traced.then(|| {
        let (tracer, sink) = CountingSink::attach();
        sys.set_tracer(tracer);
        sink
    });

    let mut warmup_steps = 0;
    let ((), _) = spans.time("warmup", || {
        while warmup_steps < spec.warmup_steps {
            let n = step_chunk(
                &mut sys,
                spec.chunk_steps.min(spec.warmup_steps - warmup_steps),
            );
            if n == 0 {
                break;
            }
            warmup_steps += n;
        }
    });

    let instructions_before = sys.report().total_instructions;
    let mut chunks = Vec::new();
    let mut timed_steps = 0;
    spans.enter("timed");
    loop {
        let (n, t) = spans.time("chunk", || step_chunk(&mut sys, spec.chunk_steps));
        if n == 0 {
            break;
        }
        timed_steps += n;
        chunks.push(t);
    }
    let timed = spans.exit();

    let (report, _) = spans.time("report", || sys.report());
    let ((check, ops), _) = spans.time("check", || check(spec, &sys));
    let trace = sink.map(|sink| {
        let sink = sink.lock().expect("trace sink poisoned");
        TraceCounts {
            metrics: sink.metrics.clone(),
            digest: sink.digest.digest(),
        }
    });
    spans.exit();
    Segment {
        index,
        seed,
        setup: SetupTimes::median_of(&times),
        timed_steps,
        timed_instructions: report.total_instructions - instructions_before,
        timed,
        chunks,
        sim: SimStats::of(&report, ops),
        superblock_steps: sys.superblock_steps(),
        report,
        trace,
        check,
    }
}

/// Runs segment `index` again with `spec.shard_threads` host threads,
/// requested the way users do: `ZTM_SIM_THREADS` in the environment, which
/// `System::new` reads. The simulated outcome must not change.
pub fn run_sharded(spec: &Spec, index: usize, seed: u64, spans: &mut Spans) -> Segment {
    let previous = std::env::var_os("ZTM_SIM_THREADS");
    std::env::set_var("ZTM_SIM_THREADS", spec.shard_threads.to_string());
    let one_setup = Spec {
        setup_repeats: 1,
        ..*spec
    };
    let segment = run_segment(&one_setup, index, seed, false, spans);
    match previous {
        Some(v) => std::env::set_var("ZTM_SIM_THREADS", v),
        None => std::env::remove_var("ZTM_SIM_THREADS"),
    }
    segment
}

/// Steps `steps` scheduler steps through `step_many` (which returns at
/// every change of scheduled CPU); fewer only once every CPU has halted.
fn step_chunk(sys: &mut System, steps: u64) -> u64 {
    let mut done = 0;
    while done < steps {
        let n = sys.step_many(steps - done);
        if n == 0 {
            break;
        }
        done += n;
    }
    done
}

/// Checks the simulated outputs; returns the verdict and the committed
/// operation count.
fn check(spec: &Spec, sys: &System) -> (Result<(), String>, u64) {
    let ops = WorkloadReport::collect(sys).committed_ops();
    let verdict = if sys.any_running() {
        Err("a CPU is still running".to_string())
    } else if ops != spec.total_ops() {
        Err(format!(
            "committed {ops} operations, expected {}",
            spec.total_ops()
        ))
    } else {
        match spec.shape {
            Shape::Table => check_table(spec, sys),
            Shape::Bank => {
                let total = spec.bank().total(sys);
                let expected = BANK_ACCOUNTS * BANK_INITIAL;
                if total == expected {
                    Ok(())
                } else {
                    Err(format!("bank holds {total}, expected {expected}"))
                }
            }
        }
    };
    (verdict, ops)
}

/// No key twice in any chain, every pre-populated key still present with
/// its original or an updated value, and at most one insert per put.
fn check_table(spec: &Spec, sys: &System) -> Result<(), String> {
    let table = spec.table();
    let mem = sys.mem();
    let mut seen = HashSet::new();
    for bucket in 0..table.buckets {
        let mut node = mem.load_u64(Address::new(TABLE_BASE + bucket * 8));
        while node != 0 {
            let key = mem.load_u64(Address::new(node));
            if !seen.insert(key) {
                return Err(format!("key {key} appears twice"));
            }
            node = mem.load_u64(Address::new(node + 16));
        }
    }
    for key in 0..TABLE_KEYS {
        match table.lookup(sys, key) {
            Some(v) if v == key * 10 || v == key => {}
            other => return Err(format!("key {key} maps to {other:?}")),
        }
    }
    let len = seen.len() as u64;
    if len > TABLE_KEYS + spec.total_ops() {
        return Err(format!(
            "{len} entries after {} operations",
            spec.total_ops()
        ));
    }
    Ok(())
}
