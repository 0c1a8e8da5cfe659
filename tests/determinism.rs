//! Cycle-for-cycle determinism regressions for the event-heap scheduler.
//!
//! The two digests below are the ones committed in `results/BENCH_*.json`
//! when the simulator still used the per-step linear scan over all cores.
//! The heap-based scheduler (and every bookkeeping optimization since) must
//! reproduce them bit-for-bit: any scheduling or coherence divergence —
//! a different CPU picked on a clock tie, a stale heap entry acted on, a
//! missed quiesce clock bump — lands here before it lands in a figure.
//!
//! The two 4-CPU pins at the end (a contended-counter program and the
//! elided hashtable) guard the private-cache directory walk that every
//! data access takes: same-line bursts, XI traffic and transactional
//! re-marking all run through it.

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

/// Broadcast-stop quiesce (§III.E) under the heap scheduler: the quiescing
/// core is scheduled *outside* the heap while every other core's entry goes
/// stale, and `release_quiesce` re-enters them with bumped clocks. The
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

/// Sharded execution (`ZTM_SIM_THREADS` > 1) must leave every committed
/// digest untouched. The single-shard baselines above route through the
/// serial scheduler even when threads are requested (nothing to shard);
/// this constant pins a *two-chip* (12-CPU) elided-hashtable run that
/// exercises the round scheduler for real. Asserted for 1, 2, and 4 host
/// threads.
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
