//! E4 (ablation): the constrained-transaction retry ladder (§III.E).
//!
//! Millicode escalates retries of a struggling constrained transaction:
//! random back-off → disable speculative fetching → broadcast-stop all
//! other CPUs. This ablation measures an adversarial high-conflict kernel
//! (2 variables from a pool of 8 hot lines — cross-holding deadlocks occur,
//! and prefetched neighbors are hot lines the transaction does not need)
//! under each ladder configuration.

#![forbid(unsafe_code)]

use ztm_bench::{print_header, print_row, quick, sweep};
use ztm_core::RetryLadderConfig;
use ztm_sim::{System, SystemConfig};
use ztm_workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

fn main() {
    println!("E4: constrained-retry ladder ablation — 2 vars, pool 8, TBEGINC");
    println!();
    let cpus = if quick() { 6 } else { 16 };
    let ops = if quick() { 40 } else { 80 };
    let configs: [(&str, RetryLadderConfig); 3] = [
        (
            "backoff-only",
            RetryLadderConfig {
                enable_speculation_stage: false,
                enable_broadcast_stage: false,
                ..RetryLadderConfig::zec12()
            },
        ),
        (
            "+no-spec",
            RetryLadderConfig {
                enable_broadcast_stage: false,
                ..RetryLadderConfig::zec12()
            },
        ),
        ("+broadcast", RetryLadderConfig::zec12()),
    ];
    print_header("ladder", &["thpt(x1e4)", "aborts/op", "bcasts"]);
    let results = sweep(configs.to_vec(), |(_, ladder)| {
        let mut cfg = SystemConfig::with_cpus(cpus).seed(42);
        cfg.engine.retry_ladder = ladder.clone();
        let mut sys = System::new(cfg);
        let wl = PoolWorkload::new(PoolLayout::new(8, 2), SyncMethod::Tbeginc, 42);
        wl.run(&mut sys, ops)
    });
    for ((name, _), rep) in configs.iter().zip(&results) {
        print_row(
            name,
            &[
                rep.throughput() * 1e4,
                rep.system.tx.aborts as f64 / rep.committed_ops() as f64,
                rep.system.tx.broadcast_stops as f64,
            ],
        );
    }
    println!();
    println!("Expected: the no-spec stage cuts aborts per commit (over-marked");
    println!("prefetches stop colliding); broadcast-stop trades a little");
    println!("throughput here for the forward-progress guarantee that");
    println!("dominates under extreme contention (see fig5c).");
}
