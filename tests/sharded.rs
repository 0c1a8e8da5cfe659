//! Sharded round planning must be *invisible*: for any `ZTM_SIM_THREADS`
//! value the round planner has to reproduce the serial winner-tree
//! scheduler's run exactly. These tests run the same seeded workloads
//! through both drivers and compare [`System::fingerprint`], the fold of
//! the whole simulated state; only the `sharding` and `schedule`
//! statistics, which describe how a driver chose its steps, may differ.
//! (Runs with an event tracer attached never shard, so trace digests are
//! the serial scheduler's by construction.)
//!
//! Every value above 1 selects the same sharded schedule;
//! `set_sim_threads(1)` routes through the serial scheduler untouched.

use proptest::prelude::*;
use ztm::sim::{System, SystemConfig};
use ztm::workloads::bank::{Bank, BankMethod};
use ztm::workloads::hashtable::{HashTable, TableMethod};
use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

/// Runs the lock-elided hashtable on `cpus` CPUs and returns the final
/// state's fingerprint.
fn hashtable_run(cpus: usize, threads: usize) -> u64 {
    let t = HashTable::new(256, 1024, 30, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
    sys.set_sim_threads(threads);
    t.populate(&mut sys, &(0..256).collect::<Vec<_>>());
    t.run(&mut sys, 60);
    if threads > 1 {
        // The equivalence must not hold vacuously: a healthy share of the
        // steps has to execute inside shard-local rounds.
        let report = sys.report();
        assert!(
            report.sharding.local_steps * 2 > report.steps,
            "most steps should be shard-local: {} of {}",
            report.sharding.local_steps,
            report.steps
        );
    }
    sys.fingerprint()
}

/// 12 CPUs = two chips of one book, enough to engage the planner. The
/// hashtable under elision aborts, retries, takes the fallback lock — a
/// dense mix of local steps, fabric fetches, XIs, and abort processing.
#[test]
fn hashtable_state_is_identical_across_thread_counts() {
    let serial = hashtable_run(12, 1);
    for threads in [2, 4, 7] {
        assert_eq!(
            serial,
            hashtable_run(12, threads),
            "state diverged ({threads} threads)"
        );
    }
}

/// 48 CPUs = two books: rounds mix CPUs on both sides of the most
/// expensive coherence boundary in the machine.
#[test]
fn bank_state_is_identical_across_books() {
    let run = |threads: usize| {
        let bank = Bank::new(64, BankMethod::Tbegin);
        let mut sys = System::new(SystemConfig::with_cpus(48).seed(7));
        sys.set_sim_threads(threads);
        bank.run(&mut sys, 25);
        sys.fingerprint()
    };
    assert_eq!(run(1), run(2), "state diverged");
}

/// Constrained transactions cross-holding cache lines escalate to the
/// millicode broadcast-stop (§III.E) — the sharded driver must fall back to
/// one step at a time for the whole quiesce window and still match.
#[test]
fn quiesce_escalation_matches_serial_exactly() {
    let run = |threads: usize| {
        let wl = PoolWorkload::new(PoolLayout::new(8, 2), SyncMethod::Tbeginc, 42);
        let mut sys = System::new(SystemConfig::with_cpus(16).seed(42));
        sys.set_sim_threads(threads);
        let rep = wl.run(&mut sys, 40);
        (sys.fingerprint(), rep.system.tx.broadcast_stops)
    };
    let serial = run(1);
    assert!(
        serial.1 > 0,
        "kernel must escalate to broadcast-stop to make this test bite"
    );
    assert_eq!(serial.0, run(4).0, "state diverged");
}

/// Partial-run entry and exit: `step_many` with small budgets forces the
/// sharded driver to truncate rounds mid-flight and hand the serial
/// scheduler's winner tree back on every boundary; interleaving must not
/// disturb the run, and a budget of 0 must not step at all.
#[test]
fn step_budget_boundaries_do_not_disturb_the_sequence() {
    let chunked = |threads: usize, chunk: u64| {
        let bank = Bank::new(64, BankMethod::Tbegin);
        let mut sys = System::new(SystemConfig::with_cpus(12).seed(9));
        sys.set_sim_threads(threads);
        sys.load_program_all(&bank.program(25));
        // A budget of 0 steps nothing, on the serial path and the planner's.
        let start = sys.fingerprint();
        assert_eq!(sys.step_many(0), 0, "{threads} threads stepped on 0");
        assert_eq!(sys.fingerprint(), start, "{threads} threads moved on 0");
        let mut total = 0u64;
        loop {
            let n = sys.step_many(chunk);
            if n == 0 {
                break;
            }
            total += n;
        }
        (total, sys.fingerprint())
    };
    let serial = chunked(1, 1_000_000_000);
    for (threads, chunk) in [(2, 997), (4, 1), (4, 64)] {
        assert_eq!(
            serial,
            chunked(threads, chunk),
            "{threads} threads, chunk {chunk}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs two full multi-CPU simulations
        .. ProptestConfig::default()
    })]

    /// Random system shapes and pool workloads: sharded execution leaves
    /// the serial state exactly. This fuzzes the classifier — any step it
    /// wrongly calls node-local either panics at a serialized resource or
    /// changes the final state right here.
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
            if !spec {
                cfg.prefetch_probability = 0.0;
            }
            cfg.fabric_occupancy = occupancy;
            let mut sys = System::new(cfg);
            sys.set_sim_threads(host_threads);
            wl.run(&mut sys, 10);
            sys.fingerprint()
        };
        prop_assert_eq!(run(1), run(threads));
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
            wl.run(&mut sys, 10);
            sys.fingerprint()
        };
        prop_assert_eq!(run(1), run(threads));
    }
}
