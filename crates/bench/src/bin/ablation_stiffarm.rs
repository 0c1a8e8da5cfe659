//! E3 (ablation): XI rejection ("stiff-arming", §III.C) on vs off.
//!
//! The paper: "This stiff-arming is very efficient in highly contended
//! transactions." With it disabled, every conflicting XI aborts the target
//! immediately instead of letting it finish.

#![forbid(unsafe_code)]

use ztm_bench::{ops_for, print_header, print_row, quick, sweep};
use ztm_sim::{System, SystemConfig};
use ztm_workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

fn main() {
    println!("E3: stiff-arming ablation — single variable, pool 10, TBEGIN");
    println!();
    let counts: Vec<usize> = if quick() {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    };
    let points: Vec<(bool, usize)> = counts
        .iter()
        .flat_map(|&n| [(true, n), (false, n)])
        .collect();
    let results = sweep(points, |&(stiff, cpus)| {
        let mut cfg = SystemConfig::with_cpus(cpus).seed(42);
        cfg.geometry.stiff_arm = stiff;
        let mut sys = System::new(cfg);
        let wl = PoolWorkload::new(PoolLayout::new(10, 1), SyncMethod::Tbegin, 42);
        let rep = wl.run(&mut sys, ops_for(cpus));
        (rep.throughput(), rep.abort_rate())
    });
    print_header("CPUs", &["with (thpt)", "without", "abrt% w", "abrt% w/o"]);
    for (i, &n) in counts.iter().enumerate() {
        let ((tw, aw), (to, ao)) = (results[2 * i], results[2 * i + 1]);
        print_row(n, &[tw * 1e4, to * 1e4, 100.0 * aw, 100.0 * ao]);
    }
    println!();
    println!("Expected: disabling XI rejection raises the abort rate and lowers");
    println!("throughput under contention.");
}
