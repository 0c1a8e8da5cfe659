//! Differential tests for the batched run drivers.
//!
//! `step_many` and `run_until_halt` follow the serial schedule across
//! picks: each pick keeps stepping its CPU while it stays the scheduler's
//! next pick, instead of making one full scheduling decision per
//! instruction. Batching must be invisible: each test drives one system
//! through a batched run method and a reference system through `step_one`,
//! and the two must agree on [`System::fingerprint`], the fold of the whole
//! simulated state, and on the trace digest where a tracer is attached —
//! including when a `step_many` budget cuts a pick short.
//!
//! Untraced runs are the configuration the figure binaries and perfbench
//! run. Only there do CPUs run quiet (register-only) instructions ahead of
//! the scheduler's runner-up, and undo the ones past a budget's end, a
//! broadcast stop or a page-residency change; the `untraced_*` tests and
//! the untraced cases of `random_programs_agree_per_step` are what pin
//! that undo. Sharded-vs-serial identity is covered by `tests/sharded.rs`.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use ztm::core::TbeginParams;
use ztm::isa::gr::*;
use ztm::isa::{Assembler, MemOperand, Program};
use ztm::mem::Address;
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

/// Builds a system running `prog` on every CPU with a recording tracer.
fn traced_system(cpus: usize, prog: &Program) -> (System, Arc<Mutex<Recorder>>) {
    let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    sys.load_program_all(prog);
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

fn digest(rec: &Arc<Mutex<Recorder>>) -> u64 {
    rec.lock().unwrap().digest()
}

/// Unbounded `step_many` batches as far as the scheduler allows; on one
/// CPU (every step is a batch continuation) and on four (contended
/// hand-offs) it must reproduce the `step_one` run exactly.
#[test]
fn unbounded_step_many_matches_step_one() {
    for cpus in [1, 4] {
        let (mut batched, batched_rec) = traced_system(cpus, &mixed_program());
        let (mut reference, reference_rec) = traced_system(cpus, &mixed_program());
        let steps = drain(&mut batched, 2_000_000);
        assert_eq!(steps, step_one_to_halt(&mut reference, 2_000_000));
        assert!(
            steps > 2_000 * cpus as u64,
            "program too short to be a meaningful differential"
        );
        assert_eq!(
            batched.fingerprint(),
            reference.fingerprint(),
            "state diverged at {cpus} cpus"
        );
        assert_eq!(digest(&batched_rec), digest(&reference_rec));
    }
}

/// `step_many` budgets must stop at exactly the budgeted step: after every
/// chunk the batched system has run no more than the budget, and it agrees
/// with a reference that took the same number of `step_one` steps.
#[test]
fn step_many_odd_budgets_match_step_one() {
    let (mut batched, batched_rec) = traced_system(2, &mixed_program());
    let (mut reference, reference_rec) = traced_system(2, &mixed_program());
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
        assert_eq!(
            batched.fingerprint(),
            reference.fingerprint(),
            "state diverged after chunk {i}"
        );
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
    assert_eq!(batched.fingerprint(), reference.fingerprint());
    assert_eq!(digest(&batched_rec), digest(&reference_rec));
}

/// Runs fresh systems from `build` (untraced) through `step_many` at odd
/// budgets and through `run_until_halt`, each in lockstep with a
/// `step_one` reference, and compares fingerprints after each chunk and
/// at halt. Returns the reference's report.
fn assert_untraced_drivers_match_step_one(
    build: impl Fn() -> System,
    cap: u64,
) -> ztm::sim::SystemReport {
    // `step_many`, with budgets that sweep across batch boundaries; the
    // unbounded tail lets whole batches run.
    let (mut batched, mut reference) = (build(), build());
    for (i, chunk) in (0..)
        .map(|i| if i < 400 { 1 + (i * 7) % 13 } else { u64::MAX })
        .enumerate()
    {
        let k = batched.step_many(chunk);
        assert!(
            k <= chunk,
            "chunk {i}: ran {k} steps on a budget of {chunk}"
        );
        if k == 0 {
            assert!(reference.step_one().is_none(), "step_many halted early");
            break;
        }
        step_one_times(&mut reference, k);
        assert_eq!(
            batched.fingerprint(),
            reference.fingerprint(),
            "state diverged after step_many chunk {i}"
        );
        assert!(
            reference.report().steps < cap,
            "failed to halt within {cap} steps"
        );
    }

    // `run_until_halt` against a `step_one` run to halt.
    let (mut batched, mut reference) = (build(), build());
    batched.run_until_halt(cap);
    step_one_to_halt(&mut reference, cap);
    assert_eq!(
        batched.fingerprint(),
        reference.fingerprint(),
        "state diverged at halt"
    );
    reference.report()
}

/// One CPU with the timer on: every `step_many(u64::MAX)` batch runs to
/// halt in one pick, crossing many timer ticks, and each tick must still
/// land on the step it lands on under `step_one`.
#[test]
fn untraced_batches_cross_timer_ticks_on_one_cpu() {
    let build = || {
        let mut cfg = SystemConfig::with_cpus(1).seed(42);
        cfg.timer_interval = Some(1_500);
        let mut sys = System::new(cfg);
        sys.load_program_all(&mixed_program());
        sys
    };
    let report = assert_untraced_drivers_match_step_one(build, 2_000_000);
    let mut one_pick = build();
    assert_eq!(
        one_pick.step_many(u64::MAX),
        report.steps,
        "one batch to halt"
    );
    assert!(
        report.elapsed_cycles / 1_500 > 10,
        "the batch must cross many timer ticks"
    );
    assert!(
        report.tx.aborts_by_code.get(&2).is_some_and(|&n| n > 0),
        "timer ticks must abort transactions: {:?}",
        report.tx.aborts_by_code
    );
}

/// The 10-CPU broadcast-stop kernel (the same one the simulator's unit
/// tests use): crossed constrained transactions escalate to broadcast
/// stops, whose holder batches run unbounded and whose release moves every
/// other CPU's clock.
#[test]
fn untraced_batches_match_step_one_through_broadcast_stops() {
    let report = assert_untraced_drivers_match_step_one(|| broadcast_stop_system(10), 80_000_000);
    assert!(
        report.tx.broadcast_stops > 0,
        "the kernel must broadcast-stop"
    );
}

/// A `cpus`-CPU system whose first ten CPUs run the broadcast-stop kernel:
/// crossed constrained transactions on two lines that escalate to
/// broadcast stops. CPUs past the tenth get no program.
fn broadcast_stop_system(cpus: usize) -> System {
    let var = 0xE0_000u64;
    let kernel = |first: u64, second: u64| {
        let mut a = Assembler::new(0);
        a.lghi(R6, 30);
        a.label("loop");
        a.tbeginc(ztm::core::GrSaveMask::ALL);
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
    let (fwd, rev) = (kernel(var, var + 256), kernel(var + 256, var));
    let mut cfg = SystemConfig::with_cpus(cpus);
    cfg.engine.retry_ladder.broadcast_stop_after = 2;
    let mut sys = System::new(cfg);
    for i in 0..10 {
        sys.load_program(i, if i % 2 == 0 { &fwd } else { &rev });
    }
    sys
}

/// A register-only spinner: every op in its loop is quiet, so its CPU runs
/// ahead of the schedule whenever another CPU holds the next pick.
fn register_spinner(iterations: i64) -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, iterations);
    a.label("spin");
    a.aghi(R2, 3);
    a.delay(5);
    a.lgr(R3, R2);
    a.brctg(R6, "spin");
    a.halt();
    a.assemble().expect("spinner assembles")
}

/// Two register-only spinners beside the 10-CPU broadcast-stop kernel:
/// run-ahead steps are in flight at every stop, and every one past the
/// stopping step's key must be undone before the other CPUs freeze.
#[test]
fn untraced_run_ahead_is_undone_at_broadcast_stops() {
    let build = || {
        let mut sys = broadcast_stop_system(12);
        let spinner = register_spinner(20_000);
        for i in 10..12 {
            sys.load_program(i, &spinner);
        }
        sys
    };
    let report = assert_untraced_drivers_match_step_one(build, 80_000_000);
    assert!(
        report.tx.broadcast_stops > 0,
        "the kernel must broadcast-stop"
    );
    let mut batched = build();
    batched.run_until_halt(80_000_000);
    let schedule = batched.report().schedule;
    assert!(
        schedule.run_ahead_steps > 0,
        "the spinners must run ahead: {schedule:?}"
    );
}

/// `mixed_program` on four CPUs: XI stalls and delays hand the pick between
/// CPUs mid-batch.
#[test]
fn untraced_batches_match_step_one_on_four_cpus() {
    let build = || {
        let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
        sys.load_program_all(&mixed_program());
        sys
    };
    let report = assert_untraced_drivers_match_step_one(build, 2_000_000);
    assert!(report.stalls > 0, "{report:?}");
}

/// The data page whose residency the random differential flips between
/// chunks; the lock and the crossed lines below sit on other pages.
const DATA: u64 = 0x8000;
/// The random programs' shared lock and the counter it guards.
const LOCK: u64 = 0xE1_000;
const COUNTER: u64 = 0xE1_100;
/// The two lines of the random programs' constrained read-modify-write.
const CROSSED: [u64; 2] = [0xE2_000, 0xE2_100];

/// Lowers a random op stream into a halting program: straight-line access
/// and ALU bursts over two data lines, transaction begin/end, forward-only
/// conditional branches (labels sit at every op boundary, so targets land
/// anywhere ahead), register-only spinners whose ops are all quiet,
/// polling loops whose quiet tails end in a long delay before a load,
/// Figure 1's `LTG` spin on a shared lock followed by a `CSG` take, an
/// increment and the release, and a constrained read-modify-write of two
/// lines in an order `crossed` flips, so CPUs running both orders escalate
/// to broadcast stops. A bounded outer `brctg` loop re-runs the whole body
/// a few times so backward branches are exercised too.
fn random_program(ops: &[(u8, u8)], crossed: bool) -> Program {
    let mut a = Assembler::new(0);
    let mut depth = 0u32;
    a.lghi(R6, 3);
    a.label("loop");
    for (j, &(kind, off)) in ops.iter().enumerate() {
        a.label(&format!("p{j}"));
        let at = |base: u64| MemOperand::absolute(base + (off % 32) as u64 * 8);
        match kind {
            0 => {
                a.lg(R1, at(DATA));
            }
            1 => {
                a.stg(R1, at(DATA));
            }
            2 => {
                a.lg(R2, at(DATA + 0x100));
            }
            3 => {
                a.stg(R2, at(DATA + 0x100));
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
            7 => {
                // A register-only spinner. Its delay takes the CPU's clock
                // far past the others, so a run-ahead tail often turns
                // final long before the CPU is picked again.
                let spin = format!("s{j}");
                a.lghi(R5, 1 + (off % 6) as i64);
                a.label(&spin);
                a.aghi(R2, 3);
                a.lgr(R3, R2);
                a.delay(1 + (off % 8) as u64 * 40);
                a.brctg(R5, &spin);
            }
            8 if depth == 0 => {
                // Figure 1's wait-for-lock spin (`LTG; JZ; DELAY 24; J`),
                // then a `CSG` take, an increment and the release.
                let (wait, take) = (format!("w{j}"), format!("t{j}"));
                let (lock, counter) = (MemOperand::absolute(LOCK), MemOperand::absolute(COUNTER));
                a.label(&wait);
                a.ltg(R4, lock);
                a.jz(&take);
                a.delay(24);
                a.j(&wait);
                a.label(&take);
                a.lghi(R2, 0);
                a.lghi(R3, 1);
                a.csg(R2, R3, lock);
                a.jnz(&wait);
                a.lg(R2, counter);
                a.aghi(R2, 1);
                a.stg(R2, counter);
                a.lghi(R2, 0);
                a.stg(R2, lock);
            }
            9 if depth == 0 => {
                // Constrained, so the retry ladder escalates.
                let [first, second] = CROSSED.map(MemOperand::absolute);
                let (first, second) = if crossed {
                    (second, first)
                } else {
                    (first, second)
                };
                a.tbeginc(ztm::core::GrSaveMask::ALL);
                a.lg(R2, first);
                a.aghi(R2, 1);
                a.stg(R2, first);
                a.lg(R3, second);
                a.aghi(R3, 1);
                a.stg(R3, second);
                a.tend();
            }
            10 => {
                // A polling loop: a quiet tail ending in a long delay, then
                // a load from the data page, which pages it back in after
                // an eviction while other CPUs' tails are in flight.
                let poll = format!("q{j}");
                a.lghi(R5, 1 + (off % 4) as i64);
                a.label(&poll);
                a.aghi(R2, 3);
                a.lgr(R3, R2);
                a.delay(100 + (off % 8) as u64 * 25);
                a.lg(R4, at(DATA + 0x200));
                a.brctg(R5, &poll);
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
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// Random programs on one to twelve CPUs (one and two chips), traced
    /// and untraced, with the ladder escalating to broadcast stops after
    /// two aborts: a batched system runs chunks of `step_many` at random
    /// budgets, zero included, and at long budgets that span many picks,
    /// with the data page evicted on both sides before some chunks, then
    /// `run_until_halt`. After every chunk its state must equal a
    /// `step_one` reference's, and a traced run must produce the
    /// reference's trace digest. Untraced cases run ahead.
    #[test]
    fn random_programs_agree_per_step(
        ops in proptest::collection::vec((0u8..12, any::<u8>()), 1..40),
        cpus in 1usize..13,
        traced in any::<bool>(),
        chunks in proptest::collection::vec((any::<bool>(), 0u64..64, any::<bool>()), 0..48),
    ) {
        let progs = [random_program(&ops, false), random_program(&ops, true)];
        let build = || {
            let mut cfg = SystemConfig::with_cpus(cpus).seed(42);
            cfg.engine.retry_ladder.broadcast_stop_after = 2;
            let mut sys = System::new(cfg);
            let recorder = traced.then(|| {
                let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
                sys.set_tracer(tracer);
                recorder
            });
            for cpu in 0..cpus {
                sys.load_program(cpu, &progs[cpu % 2]);
            }
            (sys, recorder)
        };
        let (mut batched, batched_rec) = build();
        let (mut reference, reference_rec) = build();
        for (n, &(long, size, evict)) in chunks.iter().enumerate() {
            if evict {
                for sys in [&mut batched, &mut reference] {
                    sys.pages_mut().evict(Address::new(DATA).page());
                }
            }
            let budget = if long { size * 41 } else { size };
            let k = batched.step_many(budget);
            prop_assert!(k <= budget, "chunk {}: {} steps on a budget of {}", n, k, budget);
            step_one_times(&mut reference, k);
            prop_assert_eq!(batched.fingerprint(), reference.fingerprint(), "after chunk {}", n);
        }
        batched.run_until_halt(2_000_000);
        step_one_to_halt(&mut reference, 2_000_000);
        prop_assert_eq!(batched.fingerprint(), reference.fingerprint(), "at halt");
        if let (Some(b), Some(r)) = (&batched_rec, &reference_rec) {
            prop_assert_eq!(digest(b), digest(r));
        }
    }
}
