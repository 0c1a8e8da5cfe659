//! Differential tests for line-window access coalescing.
//!
//! Coalescing (`System::set_coalescing`, on by default)
//! elides the directory walk for consecutive accesses to the same data line.
//! It is a host-speed optimization with *zero* simulated effect, and these
//! tests pin that: a coalescing system and a full-walk system must agree on
//! every single step (scheduled CPU, `StepOutcome`, broadcast-stop) and on
//! the trace digest at the end, across XI traffic, transaction boundaries,
//! speculative prefetches, and page-residency churn.

use proptest::prelude::*;
use std::sync::Arc;
use std::sync::Mutex;
use ztm::core::TbeginParams;
use ztm::isa::gr::*;
use ztm::isa::{Assembler, MemOperand, Program};
use ztm::mem::Address;
use ztm::sim::{System, SystemConfig};
use ztm::trace::{Recorder, Tracer};
use ztm::workloads::hashtable::{HashTable, TableMethod};

/// A contended-counter program shaped to exercise every coalescing case:
/// non-tx same-line fetch bursts (struct walks), same-line store bursts
/// (adjacent stack pushes), a contended read-modify-write line (XI traffic
/// invalidating windows), and a transaction whose body revisits one line at
/// several offsets with both access classes (tx-mark gating).
fn counter_program() -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 200);
    a.label("loop");
    // Field-by-field reads of one "struct" line.
    for k in 0..4 {
        a.lg(R1, MemOperand::absolute(0x8000 + k * 8));
    }
    // Contended read-modify-write on a line every CPU writes.
    a.lg(R2, MemOperand::absolute(0x1000));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(0x1000));
    // Adjacent same-line stores (the exclusive-window case).
    for k in 0..4 {
        a.stg(R2, MemOperand::absolute(0x9000 + k * 8));
    }
    // A transaction revisiting one line at several offsets, fetch then
    // store (the first store must take the full walk to set tx-dirty, the
    // rest may coalesce).
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

/// Builds a 4-CPU system running [`counter_program`] with a recording
/// tracer, coalescing on or off.
fn counter_system(coalesce: bool) -> (System, Arc<Mutex<Recorder>>) {
    let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
    sys.set_coalescing(coalesce);
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    sys.load_program_all(&counter_program());
    (sys, recorder)
}

/// The coalesced and full-walk paths must agree on every single step: same
/// CPU scheduled, same [`ztm::isa::StepOutcome`], and the same trace digest
/// at the end — while the coalescing side actually coalesces.
#[test]
fn coalesced_and_full_walk_step_identically() {
    let (mut fast, fast_rec) = counter_system(true);
    let (mut slow, slow_rec) = counter_system(false);
    let mut steps = 0u64;
    loop {
        let a = fast.step_one();
        let b = slow.step_one();
        assert_eq!(a, b, "divergence at step {steps}");
        steps += 1;
        if a.is_none() {
            break;
        }
        assert!(steps < 2_000_000, "counter program failed to halt");
    }
    assert!(
        steps > 10_000,
        "program too short to be a meaningful differential"
    );
    assert_eq!(
        fast_rec.lock().unwrap().digest(),
        slow_rec.lock().unwrap().digest()
    );
    assert!(
        fast.report().coalesced_accesses > 0,
        "the coalescing side never took the fast path"
    );
    assert_eq!(slow.report().coalesced_accesses, 0);
}

/// Same check through a full workload driver (the lock-elided hashtable of
/// Fig 5(e)), where aborts, retries, and the fallback lock all fire.
#[test]
fn coalesced_and_full_walk_agree_on_the_elision_hashtable() {
    let run = |coalesce: bool| {
        let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
        sys.set_coalescing(coalesce);
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        t.populate(&mut sys, &(0..256).collect::<Vec<_>>());
        let rep = t.run(&mut sys, 60);
        let digest = recorder.lock().unwrap().digest();
        (rep.system.steps, digest)
    };
    assert_eq!(run(true), run(false));
}

/// Lowers a random op stream into a straight-line program over two adjacent
/// lines (A at 0x8000, B at 0x8100 — B is also A's speculative-prefetch
/// target). TBEGIN has no fallback branch: an aborted transaction simply
/// falls through and re-runs the rest non-transactionally, and a TEND with
/// no transaction is a handled no-op — both deterministic, which is all the
/// differential needs.
fn burst_program(ops: &[(u8, u8)]) -> Program {
    let mut a = Assembler::new(0);
    let mut depth = 0u32;
    for &(kind, off) in ops {
        let at = |base: u64| MemOperand::absolute(base + off as u64 * 8);
        match kind {
            0 => {
                a.lg(R1, at(0x8000));
            }
            1 => {
                a.stg(R1, at(0x8000));
            }
            2 => {
                a.lg(R2, at(0x8100));
            }
            3 => {
                a.stg(R2, at(0x8100));
            }
            4 => {
                a.tbegin(TbeginParams::new());
                depth += 1;
            }
            5 => {
                if depth > 0 {
                    a.tend();
                    depth -= 1;
                }
            }
            _ => {
                a.aghi(R3, 1);
            }
        }
    }
    while depth > 0 {
        a.tend();
        depth -= 1;
    }
    a.halt();
    a.assemble().expect("burst program assembles")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// Random same-line access bursts crossing transaction boundaries, XIs
    /// (several CPUs share the two lines), speculative prefetches, and
    /// page-epoch bumps injected mid-run: the coalesced and full-walk
    /// systems must stay in lockstep on every step and end with the same
    /// digest.
    #[test]
    fn random_bursts_agree_per_step(
        ops in proptest::collection::vec((0u8..7, 0u8..32), 1..80),
        cpus in 1usize..4,
    ) {
        let prog = burst_program(&ops);
        let build = |coalesce: bool| {
            let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
            sys.set_coalescing(coalesce);
            let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
            sys.set_tracer(tracer);
            sys.load_program_all(&prog);
            (sys, recorder)
        };
        let (mut fast, fast_rec) = build(true);
        let (mut slow, slow_rec) = build(false);
        let page = Address::new(0x8000).page();
        let mut steps = 0u64;
        loop {
            // Page-residency churn at fixed step counts, identically on
            // both systems: an evicted page faults the next access (the OS
            // pages it back in), and every evict/page-in bumps the epoch
            // that validates armed line windows.
            if steps % 53 == 17 {
                fast.pages_mut().evict(page);
                slow.pages_mut().evict(page);
            }
            if steps % 53 == 30 {
                fast.pages_mut().page_in(page);
                slow.pages_mut().page_in(page);
            }
            let a = fast.step_one();
            let b = slow.step_one();
            prop_assert_eq!(&a, &b, "divergence at step {}", steps);
            steps += 1;
            if a.is_none() {
                break;
            }
            prop_assert!(steps < 500_000, "burst program failed to halt");
        }
        prop_assert_eq!(fast_rec.lock().unwrap().digest(), slow_rec.lock().unwrap().digest());
        prop_assert_eq!(slow.report().coalesced_accesses, 0);
    }
}
