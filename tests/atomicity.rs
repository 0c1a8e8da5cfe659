//! Cross-crate integration tests: transactional atomicity and isolation on
//! the full system, across CPU counts, pool shapes, methods, and seeds.

use ztm::sim::{System, SystemConfig};
use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

fn pool_sum_matches(method: SyncMethod, cpus: usize, pool: u64, vars: usize, seed: u64) {
    let ops = 40;
    let wl = PoolWorkload::new(PoolLayout::new(pool, vars), method, seed);
    let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(seed));
    let rep = wl.run(&mut sys, ops);
    assert_eq!(
        rep.committed_ops(),
        cpus as u64 * ops,
        "every CPU completed its operations ({method:?}, {cpus} CPUs)"
    );
    assert_eq!(
        wl.pool_sum(&sys),
        cpus as u64 * ops * vars as u64,
        "no update lost or duplicated ({method:?}, {cpus} CPUs, pool {pool}, seed {seed})"
    );
}

#[test]
fn tbegin_atomicity_across_shapes() {
    for (cpus, pool, vars) in [(2, 1, 1), (4, 4, 1), (6, 10, 4), (8, 64, 4)] {
        pool_sum_matches(SyncMethod::Tbegin, cpus, pool, vars, 1);
    }
}

#[test]
fn tbeginc_atomicity_across_shapes() {
    for (cpus, pool, vars) in [(2, 1, 1), (4, 4, 1), (6, 10, 4), (8, 64, 4)] {
        pool_sum_matches(SyncMethod::Tbeginc, cpus, pool, vars, 2);
    }
}

#[test]
fn lock_atomicity_across_shapes() {
    for (cpus, pool, vars) in [(2, 1, 1), (6, 10, 4), (8, 64, 1)] {
        pool_sum_matches(SyncMethod::CoarseLock, cpus, pool, vars, 3);
    }
    pool_sum_matches(SyncMethod::FineLock, 6, 16, 1, 3);
}

#[test]
fn atomicity_is_seed_independent() {
    for seed in [7, 99, 12345, 0xdead_beef] {
        pool_sum_matches(SyncMethod::Tbegin, 4, 8, 4, seed);
        pool_sum_matches(SyncMethod::Tbeginc, 4, 8, 1, seed);
    }
}

#[test]
fn atomicity_across_mcm_boundaries() {
    // 30 CPUs span two MCMs in the testbed topology (24 per MCM): the
    // cross-MCM latencies and longer conflict windows must not break
    // anything.
    pool_sum_matches(SyncMethod::Tbegin, 30, 10, 1, 4);
    pool_sum_matches(SyncMethod::Tbeginc, 30, 10, 1, 4);
}

#[test]
fn unsynchronized_updates_race() {
    let wl = PoolWorkload::new(PoolLayout::new(1, 1), SyncMethod::None, 5);
    let mut sys = System::new(SystemConfig::with_cpus(8).seed(5));
    wl.run(&mut sys, 60);
    assert!(
        wl.pool_sum(&sys) < 8 * 60,
        "a data race must lose updates — otherwise the conflict model is vacuous"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let wl = PoolWorkload::new(PoolLayout::new(8, 4), SyncMethod::Tbegin, 9);
        let mut sys = System::new(SystemConfig::with_cpus(6).seed(9));
        let rep = wl.run(&mut sys, 30);
        (
            rep.system.elapsed_cycles,
            rep.system.tx.commits,
            rep.system.tx.aborts,
            rep.system.stalls,
        )
    };
    assert_eq!(run(), run(), "simulation must be exactly reproducible");
}

#[test]
fn read_only_transactions_never_abort_each_other() {
    let wl = PoolWorkload::new(PoolLayout::new(32, 4), SyncMethod::Tbeginc, 11).read_only();
    let mut cfg = SystemConfig::with_cpus(12).seed(11);
    cfg.prefetch_probability = 0.0;
    let mut sys = System::new(cfg);
    let rep = wl.run(&mut sys, 50);
    assert_eq!(rep.committed_ops(), 12 * 50);
    assert_eq!(rep.system.tx.aborts, 0, "read sharing is conflict-free");
}
