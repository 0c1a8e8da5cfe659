//! Differential tests for the batched run drivers.
//!
//! `step_many`, `run_for_cycles` and `run_until_halt` keep stepping the
//! same CPU while it stays the scheduler's next pick, instead of making
//! one full scheduling decision per instruction. Batching must be
//! invisible: each test drives one system through a batched driver and a
//! reference system through `step_one`, and the two must agree on the full
//! `StepLogEntry` stream, every core's clock and pc, and the trace digest —
//! including when a `step_many` budget or a `run_for_cycles` horizon cuts a
//! batch short. Sharded-vs-serial identity is covered by `tests/sharded.rs`.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use ztm::core::TbeginParams;
use ztm::isa::gr::*;
use ztm::isa::{Assembler, MemOperand, Program};
use ztm::sim::{System, SystemConfig};
use ztm::trace::{Recorder, Tracer};
use ztm::workloads::hashtable::{HashTable, TableMethod};

/// A program shaped to exercise every batch boundary: long straight-line
/// bursts (one CPU stays the next pick for many steps), contended
/// read-modify-writes (XI stalls hand the pick to another CPU), a
/// transaction with an abort fallback (commits, aborts and the retry
/// ladder), taken and fall-through branches, and a delay (a large clock
/// jump past the other CPUs).
fn mixed_program() -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 200);
    a.label("loop");
    // A long straight-line burst over one line — the batched case.
    for k in 0..6 {
        a.lg(R1, MemOperand::absolute(0x8000 + k * 8));
    }
    // Contended read-modify-write on a shared line (XI stalls mid-batch).
    a.lg(R2, MemOperand::absolute(0x1000));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(0x1000));
    // The Figure 1 elision shape: the abort path branches out of the
    // straight line.
    a.tbegin(TbeginParams::new());
    a.jnz("fallback");
    a.ltg(R3, MemOperand::absolute(0x2000));
    a.jnz("fallback");
    a.lg(R4, MemOperand::absolute(0x3000));
    a.aghi(R4, 1);
    a.stg(R4, MemOperand::absolute(0x3000));
    a.tend();
    a.j("joined");
    a.label("fallback");
    a.ppa(R0);
    a.delay(16);
    a.label("joined");
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().expect("mixed program assembles")
}

/// Builds a system running `prog` on every CPU with a recording tracer and
/// the step log on.
fn logged_system(cpus: usize, prog: &Program) -> (System, Arc<Mutex<Recorder>>) {
    let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    sys.load_program_all(prog);
    sys.set_step_log(true);
    (sys, recorder)
}

/// Steps `sys` one instruction per call, `n` times; panics if it halts
/// first.
fn step_one_times(sys: &mut System, n: u64) {
    for k in 0..n {
        assert!(
            sys.step_one().is_some(),
            "reference halted after {k} of {n}"
        );
    }
}

/// Steps `sys` one instruction per call until every CPU halts, returning
/// the step count.
fn step_one_to_halt(sys: &mut System, cap: u64) -> u64 {
    let mut steps = 0u64;
    while sys.step_one().is_some() {
        steps += 1;
        assert!(steps < cap, "program failed to halt within {cap} steps");
    }
    steps
}

/// Runs the system to halt through `step_many` with an unbounded budget
/// (each call executes one scheduler batch), returning total steps.
fn drain(sys: &mut System, cap: u64) -> u64 {
    let mut steps = 0u64;
    loop {
        let k = sys.step_many(u64::MAX);
        if k == 0 {
            return steps;
        }
        steps += k;
        assert!(steps < cap, "program failed to halt within {cap} steps");
    }
}

/// Asserts two systems agree on every core's clock and pc.
fn assert_same_cores(batched: &System, reference: &System, at: &str) {
    for cpu in 0..batched.cpus() {
        assert_eq!(
            batched.core(cpu).clock,
            reference.core(cpu).clock,
            "cpu {cpu} clock diverged {at}"
        );
        assert_eq!(
            batched.core(cpu).pc,
            reference.core(cpu).pc,
            "cpu {cpu} pc diverged {at}"
        );
    }
}

fn digest(rec: &Arc<Mutex<Recorder>>) -> u64 {
    rec.lock().unwrap().digest()
}

/// Unbounded `step_many` batches as far as the scheduler allows; on one
/// CPU (every step is a batch continuation) and on four (contended
/// hand-offs) it must reproduce the `step_one` run exactly.
#[test]
fn unbounded_step_many_matches_step_one() {
    for cpus in [1, 4] {
        let (mut batched, batched_rec) = logged_system(cpus, &mixed_program());
        let (mut reference, reference_rec) = logged_system(cpus, &mixed_program());
        let steps = drain(&mut batched, 2_000_000);
        assert_eq!(steps, step_one_to_halt(&mut reference, 2_000_000));
        assert!(
            steps > 2_000 * cpus as u64,
            "program too short to be a meaningful differential"
        );
        assert_same_cores(&batched, &reference, &format!("at {cpus} cpus"));
        assert_eq!(batched.take_step_log(), reference.take_step_log());
        assert_eq!(digest(&batched_rec), digest(&reference_rec));
    }
}

/// `step_many` budgets must stop at exactly the budgeted step: after every
/// chunk the batched system has run no more than the budget, and it agrees
/// with a reference that took the same number of `step_one` steps.
#[test]
fn step_many_odd_budgets_match_step_one() {
    let (mut batched, batched_rec) = logged_system(2, &mixed_program());
    let (mut reference, reference_rec) = logged_system(2, &mixed_program());
    // Odd, prime-ish chunk sizes so budget boundaries sweep across every
    // offset inside the 6-load burst.
    for (i, chunk) in (0..).map(|i| 1 + (i * 7) % 13).enumerate() {
        let k = batched.step_many(chunk);
        assert!(
            k <= chunk,
            "chunk {i}: ran {k} steps on a budget of {chunk}"
        );
        if k == 0 {
            assert!(reference.step_one().is_none(), "batched side halted early");
            break;
        }
        step_one_times(&mut reference, k);
        assert_same_cores(&batched, &reference, &format!("after chunk {i}"));
    }
    assert_eq!(batched.take_step_log(), reference.take_step_log());
    assert_eq!(digest(&batched_rec), digest(&reference_rec));
}

/// `run_for_cycles` horizons must stop exactly at the horizon: no logged
/// step starts at or past it, every running CPU has reached it, and the
/// steps taken match the same number of `step_one` steps on the reference.
#[test]
fn run_for_cycles_odd_horizons_match_step_one() {
    let (mut batched, batched_rec) = logged_system(2, &mixed_program());
    let (mut reference, reference_rec) = logged_system(2, &mixed_program());
    let mut horizon = 0u64;
    for _ in 0..300 {
        horizon += 97;
        batched.run_for_cycles(horizon);
        let log = batched.take_step_log();
        assert!(
            log.iter().all(|e| e.clock < horizon),
            "a step at or past horizon {horizon} executed"
        );
        for cpu in 0..batched.cpus() {
            let core = batched.core(cpu);
            assert!(
                !core.is_running() || core.clock >= horizon,
                "cpu {cpu} stopped short of horizon {horizon}"
            );
        }
        step_one_times(&mut reference, log.len() as u64);
        assert_eq!(
            log,
            reference.take_step_log(),
            "diverged at horizon {horizon}"
        );
        assert_same_cores(&batched, &reference, &format!("at horizon {horizon}"));
    }
    assert_eq!(digest(&batched_rec), digest(&reference_rec));
}

/// `HashTable::run` drives the lock-elided hashtable of Fig 5(e) through
/// `run_until_halt`, where aborts, retries, and the fallback lock all fire;
/// the reference loads the same program and steps it one pick at a time.
#[test]
fn run_until_halt_matches_step_one_on_the_elision_hashtable() {
    let table = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let system = || {
        let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        sys.set_step_log(true);
        table.populate(&mut sys, &(0..256).collect::<Vec<_>>());
        (sys, recorder)
    };
    let (mut batched, batched_rec) = system();
    let rep = table.run(&mut batched, 60);

    let (mut reference, reference_rec) = system();
    reference.load_program_all(&table.program(60));
    for i in 0..reference.cpus() {
        // `HashTable::run`'s per-CPU node arenas.
        reference
            .core_mut(i)
            .set_gr(R7, 0x2000_0000 + i as u64 * 0x10_0000);
    }
    let steps = step_one_to_halt(&mut reference, 2_000_000_000);

    assert_eq!(rep.system.steps, steps);
    assert_same_cores(&batched, &reference, "at halt");
    assert_eq!(batched.take_step_log(), reference.take_step_log());
    assert_eq!(digest(&batched_rec), digest(&reference_rec));
}

/// Lowers a random op stream into a halting program: straight-line access
/// and ALU bursts over two lines, transaction begin/end, and forward-only
/// conditional branches (labels sit at every op boundary, so targets land
/// anywhere ahead). A bounded outer `brctg` loop re-runs the whole body a
/// few times so backward branches are exercised too.
fn random_program(ops: &[(u8, u8)]) -> Program {
    let mut a = Assembler::new(0);
    let mut depth = 0u32;
    a.lghi(R6, 3);
    a.label("loop");
    for (j, &(kind, off)) in ops.iter().enumerate() {
        a.label(&format!("p{j}"));
        let at = |base: u64| MemOperand::absolute(base + (off % 32) as u64 * 8);
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
            6 => {
                // Forward-only branch (the program always halts): keyed on
                // the outer loop counter, so the same site is taken in
                // early iterations and falls through in the last one.
                let t = j + 1 + off as usize % (ops.len() - j);
                if t < ops.len() {
                    a.cgij_ge(R6, 2, &format!("p{t}"));
                } else {
                    a.cgij_ge(R6, 2, "end");
                }
            }
            _ => {
                a.aghi(R3, 1);
            }
        }
    }
    a.label("end");
    while depth > 0 {
        a.tend();
        depth -= 1;
    }
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().expect("random program assembles")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// Random programs over one to three CPUs (XI stalls end batches at
    /// random points) must produce the identical per-step `StepLogEntry`
    /// stream, clocks, pcs and trace digest under unbounded `step_many` and
    /// under `step_one`.
    #[test]
    fn random_programs_agree_per_step(
        ops in proptest::collection::vec((0u8..8, any::<u8>()), 1..80),
        cpus in 1usize..4,
    ) {
        let prog = random_program(&ops);
        let (mut batched, batched_rec) = logged_system(cpus, &prog);
        let (mut reference, reference_rec) = logged_system(cpus, &prog);
        let steps = drain(&mut batched, 500_000);
        prop_assert_eq!(steps, step_one_to_halt(&mut reference, 500_000));
        assert_same_cores(&batched, &reference, "at halt");
        prop_assert_eq!(batched.take_step_log(), reference.take_step_log());
        prop_assert_eq!(digest(&batched_rec), digest(&reference_rec));
    }
}
