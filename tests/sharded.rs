//! Host-parallel sharded execution must be *invisible*: for any
//! `ZTM_SIM_THREADS` value the sharded round scheduler has to reproduce the
//! serial event-heap scheduler step for step — same `(clock, cpu, event,
//! cycles)` sequence, same aggregate report, same trace digests. These tests
//! run the same seeded workloads through both engines and diff everything
//! the simulator can observe about itself.
//!
//! Thread counts above the shard count are legal (shards are the
//! parallelism bound); `set_sim_threads(1)` routes through the serial
//! scheduler untouched.

use proptest::prelude::*;
use ztm::sim::{StepLogEntry, System, SystemConfig};
use ztm::trace::{Recorder, Tracer};
use ztm::workloads::bank::{Bank, BankMethod};
use ztm::workloads::hashtable::{HashTable, TableMethod};
use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

/// The deterministic portion of a report. The `sharding` stats measure how
/// the *host* scheduled the run (rounds, chains) and legitimately vary with
/// thread count — every simulated outcome must not, so differential tests
/// zero them and diff everything else.
fn det(sys: &System) -> String {
    let mut r = sys.report();
    r.sharding = Default::default();
    format!("{r:?}")
}

/// Runs the lock-elided hashtable on `cpus` CPUs with the step log armed
/// and returns everything observable: the full step log and the report.
fn hashtable_run(cpus: usize, threads: usize) -> (Vec<StepLogEntry>, String) {
    let t = HashTable::new(256, 1024, 30, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
    sys.set_sim_threads(threads);
    sys.set_shard_round_min(1); // force the scoped-thread dispatch path
    sys.set_step_log(true);
    t.populate(&mut sys, &(0..256).collect::<Vec<_>>());
    t.run(&mut sys, 60);
    if threads > 1 {
        // The equivalence must not hold vacuously: a healthy share of the
        // steps has to execute inside parallel shard-local rounds.
        assert!(
            sys.sharded_local_steps() * 2 > sys.report().steps,
            "most steps should be shard-local: {} of {}",
            sys.sharded_local_steps(),
            sys.report().steps
        );
    }
    let report = det(&sys);
    (sys.take_step_log(), report)
}

/// 12 CPUs = two chips of one book: the plan shards per chip. The hashtable
/// under elision aborts, retries, takes the fallback lock — a dense mix of
/// local steps, fabric fetches, XIs, and abort processing.
#[test]
fn hashtable_step_log_is_identical_across_thread_counts() {
    let serial = hashtable_run(12, 1);
    assert!(!serial.0.is_empty(), "step log must record the run");
    for threads in [2, 4, 7] {
        let sharded = hashtable_run(12, threads);
        assert_eq!(serial.0.len(), sharded.0.len(), "step count diverged");
        for (at, (a, b)) in serial.0.iter().zip(&sharded.0).enumerate() {
            assert_eq!(a, b, "first divergence at step {at} ({threads} threads)");
        }
        assert_eq!(serial.1, sharded.1, "report diverged ({threads} threads)");
    }
}

/// 48 CPUs = two books: the plan shards per MCM, crossing the most
/// expensive coherence boundary in the machine.
#[test]
fn bank_step_log_is_identical_across_books() {
    let run = |threads: usize| {
        let bank = Bank::new(64, BankMethod::Tbegin);
        let mut sys = System::new(SystemConfig::with_cpus(48).seed(7));
        sys.set_sim_threads(threads);
        sys.set_shard_round_min(1); // force the scoped-thread dispatch path
        sys.set_step_log(true);
        bank.run(&mut sys, 25);
        let report = det(&sys);
        (sys.take_step_log(), report)
    };
    let serial = run(1);
    let sharded = run(2);
    assert!(!serial.0.is_empty());
    assert_eq!(serial.0.len(), sharded.0.len(), "step count diverged");
    for (at, (a, b)) in serial.0.iter().zip(&sharded.0).enumerate() {
        assert_eq!(a, b, "first divergence at step {at}");
    }
    assert_eq!(serial.1, sharded.1, "report diverged");
}

/// Constrained transactions cross-holding cache lines escalate to the
/// millicode broadcast-stop (§III.E) — the sharded driver must fall back to
/// coordinator-serial steps for the whole quiesce window and still match.
#[test]
fn quiesce_escalation_matches_serial_exactly() {
    let run = |threads: usize| {
        let wl = PoolWorkload::new(PoolLayout::new(8, 2), SyncMethod::Tbeginc, 42);
        let mut sys = System::new(SystemConfig::with_cpus(16).seed(42));
        sys.set_sim_threads(threads);
        sys.set_shard_round_min(1); // force the scoped-thread dispatch path
        sys.set_step_log(true);
        let rep = wl.run(&mut sys, 40);
        let report = det(&sys);
        (sys.take_step_log(), rep.system.tx.broadcast_stops, report)
    };
    let serial = run(1);
    assert!(
        serial.1 > 0,
        "kernel must escalate to broadcast-stop to make this test bite"
    );
    let sharded = run(4);
    assert_eq!(serial.0.len(), sharded.0.len(), "step count diverged");
    for (at, (a, b)) in serial.0.iter().zip(&sharded.0).enumerate() {
        assert_eq!(a, b, "first divergence at step {at}");
    }
    assert_eq!(serial.2, sharded.2, "report diverged");
}

/// The committed trace digest — every event, every field, every emission
/// order — must be byte-identical for any host thread count.
#[test]
fn trace_digests_are_identical_across_thread_counts() {
    let recorded = |threads: usize| {
        let t = HashTable::new(256, 1024, 30, TableMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(12).seed(42));
        sys.set_sim_threads(threads);
        sys.set_shard_round_min(1); // force the scoped-thread dispatch path
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        t.populate(&mut sys, &(0..256).collect::<Vec<_>>());
        t.run(&mut sys, 60);
        let r = recorder.lock().unwrap();
        (r.digest(), r.metrics().events)
    };
    let base = recorded(1);
    assert!(base.1 > 0, "the workload must emit events");
    assert_eq!(base, recorded(2));
    assert_eq!(base, recorded(4));
}

/// Partial-run entry and exit: `step_many` with small budgets forces the
/// sharded driver to truncate rounds mid-flight and rebuild the serial
/// scheduler's heap on every boundary; interleaving must not disturb the
/// step sequence.
#[test]
fn step_budget_boundaries_do_not_disturb_the_sequence() {
    let chunked = |threads: usize, chunk: u64| {
        let bank = Bank::new(64, BankMethod::Tbegin);
        let mut sys = System::new(SystemConfig::with_cpus(12).seed(9));
        sys.set_sim_threads(threads);
        sys.set_step_log(true);
        sys.load_program_all(&bank.program(25));
        let mut total = 0u64;
        loop {
            let n = sys.step_many(chunk);
            if n == 0 {
                break;
            }
            total += n;
        }
        let report = det(&sys);
        (total, sys.take_step_log(), report)
    };
    let serial = chunked(1, 1_000_000_000);
    for (threads, chunk) in [(2, 997), (4, 1), (4, 64)] {
        let sharded = chunked(threads, chunk);
        assert_eq!(serial.0, sharded.0, "{threads} threads, chunk {chunk}");
        assert_eq!(serial.1, sharded.1, "{threads} threads, chunk {chunk}");
        assert_eq!(serial.2, sharded.2, "{threads} threads, chunk {chunk}");
    }
}

/// Horizon boundaries: `run_for_cycles` must stop the sharded driver at
/// exactly the serial rule (no step whose start clock reaches the horizon
/// executes) — admission and in-shard run-ahead both stop at the `(hz, 0)`
/// key ceiling, no matter where the chunk boundaries land.
#[test]
fn cycle_horizons_do_not_disturb_the_sequence() {
    // Drives the run through `run_for_cycles` horizons `chunk` cycles
    // apart until `upto` covers the whole run, then collects the tail.
    let chunked = |threads: usize, chunk: u64, upto: u64| {
        let bank = Bank::new(64, BankMethod::Tbegin);
        let mut sys = System::new(SystemConfig::with_cpus(12).seed(9));
        sys.set_sim_threads(threads);
        sys.set_shard_round_min(1); // force the scoped-thread dispatch path
        sys.set_step_log(true);
        sys.load_program_all(&bank.program(25));
        let mut horizon = chunk;
        while horizon <= upto {
            sys.run_for_cycles(horizon);
            horizon += chunk;
        }
        sys.run_until_halt(10_000_000);
        let cycles = sys.report().elapsed_cycles;
        let report = det(&sys);
        (sys.take_step_log(), report, cycles)
    };
    let serial = chunked(1, u64::MAX, 0);
    assert!(!serial.0.is_empty());
    for (threads, chunk) in [(2, 1009), (4, 113)] {
        let sharded = chunked(threads, chunk, serial.2 + chunk);
        assert_eq!(serial.0.len(), sharded.0.len(), "{threads} threads");
        for (at, (a, b)) in serial.0.iter().zip(&sharded.0).enumerate() {
            assert_eq!(a, b, "first divergence at step {at} (chunk {chunk})");
        }
        assert_eq!(serial.1, sharded.1, "report diverged ({threads} threads)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs two full multi-CPU simulations
        .. ProptestConfig::default()
    })]

    /// Random system shapes and pool workloads: sharded execution replays
    /// the serial step sequence exactly. This fuzzes the classifier — any
    /// step it wrongly calls node-local either panics at a serialized
    /// resource or diverges from the serial log right here.
    #[test]
    fn sharded_matches_serial_for_random_shapes(
        cpus in 7usize..20,
        threads in 2usize..5,
        pool in 1u64..24,
        vars in 1usize..4,
        seed in any::<u64>(),
        constrained in any::<bool>(),
        spec in any::<bool>(),
        occupancy in 0u64..20,
    ) {
        let method = if constrained { SyncMethod::Tbeginc } else { SyncMethod::Tbegin };
        let run = |host_threads: usize| {
            let wl = PoolWorkload::new(PoolLayout::new(pool, vars), method, seed);
            let mut cfg = SystemConfig::with_cpus(cpus).seed(seed);
            cfg.speculative_prefetch = spec;
            cfg.fabric_occupancy = occupancy;
            let mut sys = System::new(cfg);
            sys.set_sim_threads(host_threads);
            sys.set_shard_round_min(1); // force the scoped-thread dispatch path
            sys.set_step_log(true);
            wl.run(&mut sys, 10);
            let report = det(&sys);
            (sys.take_step_log(), report)
        };
        let serial = run(1);
        let sharded = run(threads);
        prop_assert_eq!(serial.0.len(), sharded.0.len(), "step count diverged");
        for (at, (a, b)) in serial.0.iter().zip(&sharded.0).enumerate() {
            prop_assert_eq!(a, b, "first divergence at step {} of {}", at, serial.0.len());
        }
        prop_assert_eq!(serial.1, sharded.1);
    }

    /// Shrunk cross-boundary latencies: with `l4_hit`/`cross_mcm`/`memory`
    /// forced down to a handful of cycles, cross-shard fetches complete
    /// within a few cycles of the round minimum, so only exact
    /// `(clock, cpu)` ordering — not latency slack — can carry the
    /// equivalence.
    #[test]
    fn speculation_survives_shrunk_cross_boundary_latencies(
        cpus in 7usize..20,
        threads in 2usize..5,
        pool in 1u64..24,
        seed in any::<u64>(),
        l4 in 2u64..40,
        cross in 2u64..40,
        memory in 4u64..60,
    ) {
        let run = |host_threads: usize| {
            let wl = PoolWorkload::new(PoolLayout::new(pool, 2), SyncMethod::Tbegin, seed);
            let mut cfg = SystemConfig::with_cpus(cpus).seed(seed);
            cfg.latency.l4_hit = l4;
            cfg.latency.cross_mcm = cross;
            cfg.latency.memory = memory;
            let mut sys = System::new(cfg);
            sys.set_sim_threads(host_threads);
            sys.set_shard_round_min(1); // force the scoped-thread dispatch path
            sys.set_step_log(true);
            wl.run(&mut sys, 10);
            let report = det(&sys);
            (sys.take_step_log(), report)
        };
        let serial = run(1);
        let sharded = run(threads);
        prop_assert_eq!(serial.0.len(), sharded.0.len(), "step count diverged");
        for (at, (a, b)) in serial.0.iter().zip(&sharded.0).enumerate() {
            prop_assert_eq!(a, b, "first divergence at step {} of {}", at, serial.0.len());
        }
        prop_assert_eq!(serial.1, sharded.1);
    }
}
