//! Cycle-for-cycle determinism regressions for the serial scheduler.
//!
//! The two digests below are the ones committed in `results/BENCH_*.json`
//! when the simulator still used the per-step linear scan over all cores.
//! The winner-tree scheduler (and every bookkeeping optimization since) must
//! reproduce them bit-for-bit: any scheduling or coherence divergence —
//! a different CPU picked on a clock tie, a stale key acted on, a missed
//! quiesce clock bump — lands here before it lands in a figure.
//!
//! The two 4-CPU pins after them (a contended-counter program and the
//! elided hashtable) guard the private-cache directory walk that every
//! data access takes: same-line bursts, XI traffic and transactional
//! re-marking all run through it. The two 2-CPU pins that follow guard the
//! two-line instruction-fetch buffer: a loop straddling two text lines,
//! which it serves, and a loop alternating between two lines of one L1-I
//! congruence class, which it must not.
//!
//! The program pins at the end fold the listing of every §IV workload ×
//! method program into one digest each, so how the workloads are emitted
//! can change only if the instructions and their addresses do not.

use ztm::core::TbeginParams;
use ztm::isa::gr::*;
use ztm::isa::{Assembler, MemOperand, Program};
use ztm::sim::{System, SystemConfig};
use ztm::trace::{Recorder, Tracer};
use ztm::workloads::hashtable::{HashTable, TableMethod};
use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

/// `results/BENCH_E1_uncontended.json`: TBEGIN, 1 CPU, pool 1, 400 ops
/// (the default-mode op count of the `fig_uncontended` binary).
const E1_DIGEST: u64 = 0xb6c503adfc7f7c55;

/// `results/BENCH_fig5e_hashtable.json`: lock-elided hashtable, 6 CPUs,
/// 1024 keys, 150 ops/CPU (the quick-mode traced point of `fig5e`).
const FIG5E_DIGEST: u64 = 0x6a19de9389368382;

#[test]
fn e1_trace_digest_matches_the_committed_baseline() {
    let wl = PoolWorkload::new(PoolLayout::new(1, 1), SyncMethod::Tbegin, 42);
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    wl.run(&mut sys, 400);
    assert_eq!(recorder.lock().unwrap().digest(), E1_DIGEST);
}

#[test]
fn fig5e_trace_digest_matches_the_committed_baseline() {
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(6).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    t.run(&mut sys, 150);
    assert_eq!(recorder.lock().unwrap().digest(), FIG5E_DIGEST);
}

/// Broadcast-stop quiesce (§III.E) under the winner-tree scheduler: the
/// quiescing core is stepped ahead of the tree's pick, and
/// `release_quiesce` re-keys every other core with its bumped clock. The
/// adversarial cross-holding kernel from the E4 ablation reliably escalates
/// to the broadcast stage; two identically seeded runs must agree exactly.
#[test]
fn quiesce_under_heap_scheduling_is_exercised_and_deterministic() {
    let run = || {
        let mut sys = System::new(SystemConfig::with_cpus(16).seed(42));
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        let wl = PoolWorkload::new(PoolLayout::new(8, 2), SyncMethod::Tbeginc, 42);
        let rep = wl.run(&mut sys, 80);
        let digest = recorder.lock().unwrap().digest();
        (
            rep.system.tx.broadcast_stops,
            rep.committed_ops(),
            rep.system.steps,
            digest,
        )
    };
    let a = run();
    assert!(a.0 > 0, "kernel must escalate to broadcast-stop: {a:?}");
    assert!(a.1 > 0, "every CPU must finish its ops: {a:?}");
    assert_eq!(a, run());
}

/// Requesting sharded execution (`ZTM_SIM_THREADS` > 1) must leave every
/// committed digest untouched. This constant pins a *two-chip* (12-CPU)
/// elided-hashtable run, which an untraced run would shard. A traced run
/// never shards — an attached event tracer routes through the serial
/// scheduler — so for 1, 2, and 4 host threads the digest holds and no
/// round runs. `tests/sharded.rs` checks that untraced runs of the same
/// shape do shard.
const SHARDED_HT12_DIGEST: u64 = 0xc79e7c937476240f;

#[test]
fn sharded_hashtable_digest_matches_the_pinned_baseline() {
    use ztm::workloads::hashtable::{HashTable, TableMethod};
    for threads in [1usize, 2, 4] {
        let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(12).seed(42));
        sys.set_sim_threads(threads);
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
        t.run(&mut sys, 100);
        assert_eq!(
            recorder.lock().unwrap().digest(),
            SHARDED_HT12_DIGEST,
            "{threads} host threads"
        );
        assert_eq!(sys.report().sharding.rounds, 0, "{threads} host threads");
    }
}

/// The committed single-shard baselines must stay pinned even when host
/// threads are requested: 1 and 6 CPUs are one shard, so the run routes
/// through the serial scheduler untouched.
#[test]
fn committed_digests_hold_when_sim_threads_are_requested() {
    let wl = PoolWorkload::new(PoolLayout::new(1, 1), SyncMethod::Tbegin, 42);
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    sys.set_sim_threads(4);
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    wl.run(&mut sys, 400);
    assert_eq!(recorder.lock().unwrap().digest(), E1_DIGEST);

    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(6).seed(42));
    sys.set_sim_threads(4);
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    t.run(&mut sys, 150);
    assert_eq!(recorder.lock().unwrap().digest(), FIG5E_DIGEST);
}

/// A 4-CPU contended-counter program: same-line fetch bursts (struct
/// walks), a read-modify-write line every CPU writes (XI traffic),
/// adjacent same-line stores, and a transaction revisiting one line at
/// several offsets with both access classes.
fn counter_program() -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 200);
    a.label("loop");
    for k in 0..4 {
        a.lg(R1, MemOperand::absolute(0x8000 + k * 8));
    }
    a.lg(R2, MemOperand::absolute(0x1000));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(0x1000));
    for k in 0..4 {
        a.stg(R2, MemOperand::absolute(0x9000 + k * 8));
    }
    a.tbegin(TbeginParams::new());
    a.jnz("fallback");
    for k in 0..4 {
        a.lg(R3, MemOperand::absolute(0xA000 + k * 8));
    }
    a.aghi(R3, 1);
    for k in 0..4 {
        a.stg(R3, MemOperand::absolute(0xA020 + k * 8));
    }
    a.tend();
    a.j("joined");
    a.label("fallback");
    a.ppa(R0);
    a.delay(16);
    a.label("joined");
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().expect("counter program assembles")
}

/// Steps and trace digest of [`counter_program`] on 4 CPUs, seed 42.
const COUNTER4_STEPS: u64 = 18_601;
const COUNTER4_DIGEST: u64 = 0x3fb03d33035e23c4;

#[test]
fn counter_program_steps_and_digest_match_the_pinned_baseline() {
    let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    sys.load_program_all(&counter_program());
    sys.run_until_halt(2_000_000);
    let steps = sys.report().steps;
    assert_eq!(
        (steps, recorder.lock().unwrap().digest()),
        (COUNTER4_STEPS, COUNTER4_DIGEST)
    );
}

/// Steps and trace digest of the lock-elided hashtable on 4 CPUs: 256 keys,
/// 60 ops/CPU, seed 42.
const HT4_STEPS: u64 = 7_819;
const HT4_DIGEST: u64 = 0x1a1c6216b041f7ce;

#[test]
fn elision_hashtable_steps_and_digest_match_the_pinned_baseline() {
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    t.populate(&mut sys, &(0..256).collect::<Vec<_>>());
    let rep = t.run(&mut sys, 60);
    assert_eq!(
        (rep.system.steps, recorder.lock().unwrap().digest()),
        (HT4_STEPS, HT4_DIGEST)
    );
}

/// Pads `a` with 2-byte NOPs from byte address `at` up to `to`.
fn pad(a: &mut Assembler, at: u64, to: u64) {
    for _ in (at..to).step_by(2) {
        a.nop();
    }
}

/// Runs `prog` to halt on 2 CPUs (seed 42) with an event tracer, returning
/// the step count, the elapsed cycles and the trace digest.
fn run_two_cpus(prog: &Program) -> (u64, u64, u64) {
    let mut sys = System::new(SystemConfig::with_cpus(2).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    sys.load_program_all(prog);
    sys.run_until_halt(2_000_000);
    let r = sys.report();
    let digest = recorder.lock().unwrap().digest();
    (r.steps, r.elapsed_cycles, digest)
}

/// A shared-counter loop whose body straddles text lines 0 and 1: the
/// loop's first three instructions sit at 0xf0–0xff, its `BRCTG` at 0x100.
/// Every iteration fetches from both lines, as Figure 1's wait-for-lock
/// spin does.
fn straddling_loop() -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 300); // 0x00
    pad(&mut a, 0x04, 0xf0);
    a.label("loop");
    a.lg(R1, MemOperand::absolute(0x1000)); // 0xf0
    a.aghi(R1, 1); // 0xf6
    a.stg(R1, MemOperand::absolute(0x1000)); // 0xfa
    a.brctg(R6, "loop"); // 0x100
    a.halt();
    let p = a.assemble().expect("straddling loop assembles");
    assert_eq!(p.addr_of(p.index_of_addr(0x100).unwrap()), 0x100);
    p
}

/// Steps, cycles and trace digest of [`straddling_loop`] on 2 CPUs.
const STRADDLE2: (u64, u64, u64) = (2_640, 27_616, 0xacbe29d977c107c2);

#[test]
fn line_straddling_loop_steps_and_digest_match_the_pinned_baseline() {
    assert_eq!(run_two_cpus(&straddling_loop()), STRADDLE2);
}

/// A shared-counter loop that jumps from text line 0 to line 64 and back,
/// two lines that share L1-I congruence class 0 (64 classes × 4 ways). On
/// every fourth iteration it then detours through lines 128, 192 and 256
/// of the same class. Each detour overflows the class, and its last
/// install evicts whichever of lines 0 and 64 was used least recently:
/// line 64, as the loop returns to line 0 before the detour.
fn aliasing_loop() -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 120); // 0x00
    a.lghi(R9, 3); // 0x04
    a.label("loop");
    a.lg(R1, MemOperand::absolute(0x1000)); // 0x08
    a.aghi(R1, 1); // 0x0e
    a.stg(R1, MemOperand::absolute(0x1000)); // 0x12
    a.j("far"); // 0x18
    a.label("check");
    a.jnz("tail"); // 0x1c
    a.j("d1"); // 0x20
    a.label("tail");
    a.brctg(R6, "loop"); // 0x24
    a.halt(); // 0x28
    pad(&mut a, 0x2a, 0x4000);
    a.label("far");
    a.lgr(R8, R6); // 0x4000
    a.ngr(R8, R9); // 0x4004
    a.j("check"); // 0x4008
    pad(&mut a, 0x400c, 0x8000);
    a.label("d1");
    a.j("d2"); // 0x8000
    pad(&mut a, 0x8004, 0xc000);
    a.label("d2");
    a.j("d3"); // 0xc000
    pad(&mut a, 0xc004, 0x10000);
    a.label("d3");
    a.j("tail"); // 0x10000
    let p = a.assemble().expect("aliasing loop assembles");
    for addr in [0x4000, 0x8000, 0xc000, 0x10000] {
        assert_eq!(p.addr_of(p.index_of_addr(addr).unwrap()), addr);
    }
    p
}

/// Steps, cycles and trace digest of [`aliasing_loop`] on 2 CPUs.
const ALIAS2: (u64, u64, u64) = (2_406, 14_712, 0xc6a83c92c80fcdc);

#[test]
fn class_aliasing_loop_steps_and_digest_match_the_pinned_baseline() {
    assert_eq!(run_two_cpus(&aliasing_loop()), ALIAS2);
}

/// FNV-1a over a program's address-annotated listing: every instruction's
/// byte address and disassembly, branch targets included.
fn listing_digest(p: &Program) -> u64 {
    p.listing().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every §IV workload × method program (100 ops per CPU), by name.
fn workload_programs() -> Vec<(String, Program)> {
    use ztm::workloads::{
        Bank, BankMethod, ConcurrentQueue, DoublyLinkedList, ListMethod, QueueMethod, ReadMethod,
        ReadWorkload,
    };
    const OPS: u64 = 100;
    let mut out = Vec::new();
    for pool in [1, 100] {
        for vars in [1, 4] {
            for m in [
                SyncMethod::CoarseLock,
                SyncMethod::FineLock,
                SyncMethod::Tbegin,
                SyncMethod::Tbeginc,
                SyncMethod::None,
            ] {
                if m == SyncMethod::FineLock && vars != 1 {
                    continue;
                }
                let wl = PoolWorkload::new(PoolLayout::new(pool, vars), m, 0);
                out.push((format!("pool {pool}x{vars} {m:?}"), wl.program(OPS)));
            }
        }
    }
    for m in [ReadMethod::RwLock, ReadMethod::Tbeginc] {
        let wl = ReadWorkload::new(100, m);
        out.push((format!("read {m:?}"), wl.program(OPS)));
    }
    for m in [
        TableMethod::GlobalLock,
        TableMethod::Elision,
        TableMethod::PureStm,
        TableMethod::HtmStmFallback,
        TableMethod::Unsync,
    ] {
        let t = HashTable::new(512, 2048, 20, m);
        out.push((format!("hashtable {m:?}"), t.program(OPS)));
    }
    for m in [
        QueueMethod::Lock,
        QueueMethod::Tbeginc,
        QueueMethod::Elision,
        QueueMethod::PureStm,
        QueueMethod::HtmStmFallback,
    ] {
        out.push((format!("queue {m:?}"), ConcurrentQueue::new(m).program(OPS)));
    }
    for m in [ListMethod::Lock, ListMethod::Tbeginc] {
        out.push((
            format!("dlist {m:?}"),
            DoublyLinkedList::new(m).program(OPS),
        ));
    }
    for m in [
        BankMethod::Lock,
        BankMethod::Tbeginc,
        BankMethod::Tbegin,
        BankMethod::PureStm,
        BankMethod::HtmStmFallback,
    ] {
        out.push((format!("bank {m:?}"), Bank::new(64, m).program(OPS)));
    }
    out
}

/// Listing digests of [`workload_programs`], in the same order. They pin the
/// programs instruction for instruction, so a refactor of how the workloads
/// are emitted must reproduce them exactly.
const PROGRAM_DIGESTS: [(&str, u64); 37] = [
    ("pool 1x1 CoarseLock", 0x2c7b3c80998d71b2),
    ("pool 1x1 FineLock", 0x720dd76fe5fc9972),
    ("pool 1x1 Tbegin", 0xffcbc571d31bf097),
    ("pool 1x1 Tbeginc", 0xb624befc3bf6e284),
    ("pool 1x1 None", 0x9f73087a054a719b),
    ("pool 1x4 CoarseLock", 0x161ef80755148b72),
    ("pool 1x4 Tbegin", 0xfd7bea1993777772),
    ("pool 1x4 Tbeginc", 0xbfbbc26cb48e159b),
    ("pool 1x4 None", 0xa337ca4272fcbf85),
    ("pool 100x1 CoarseLock", 0xa286309cdca877d2),
    ("pool 100x1 FineLock", 0x14c45e9f16d89491),
    ("pool 100x1 Tbegin", 0xbca8c1f6e6a402a5),
    ("pool 100x1 Tbeginc", 0x49136a7526de8b64),
    ("pool 100x1 None", 0x127baf10e26104cd),
    ("pool 100x4 CoarseLock", 0x3463406f7ed7cb12),
    ("pool 100x4 Tbegin", 0x5bc790f2867bfc47),
    ("pool 100x4 Tbeginc", 0xfb38fcfbf848b5a2),
    ("pool 100x4 None", 0x6a93cecf003b99ca),
    ("read RwLock", 0xee4466beec1577ec),
    ("read Tbeginc", 0x5918ec97a828fb03),
    ("hashtable GlobalLock", 0x94f1c0c68c8e4717),
    ("hashtable Elision", 0x87f66c7df7d4adfe),
    ("hashtable PureStm", 0x5efa8744d4fcf4dd),
    ("hashtable HtmStmFallback", 0x1219ac748377c9f8),
    ("hashtable Unsync", 0x0bcd5b89327d4e06),
    ("queue Lock", 0x1340487bf1d83854),
    ("queue Tbeginc", 0x1d8e8ac5ae41eb66),
    ("queue Elision", 0x56e91de5014731b9),
    ("queue PureStm", 0x5ad2ff95ef69c825),
    ("queue HtmStmFallback", 0xc5b2a93473add38c),
    ("dlist Lock", 0xc291a6e526a3b04a),
    ("dlist Tbeginc", 0xc5d8fd498b6449d1),
    ("bank Lock", 0xbc0b2182be2bf687),
    ("bank Tbeginc", 0x3240eda18e540018),
    ("bank Tbegin", 0x465f79bd08dce39f),
    ("bank PureStm", 0xfe033605efe03d69),
    ("bank HtmStmFallback", 0x926278110a90bb83),
];

#[test]
fn workload_programs_match_the_pinned_listings() {
    let got: Vec<(String, u64)> = workload_programs()
        .iter()
        .map(|(name, p)| (name.clone(), listing_digest(p)))
        .collect();
    let want: Vec<(String, u64)> = PROGRAM_DIGESTS
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    assert_eq!(got, want);
}
