//! Figure 5(a): TX vs locks, four variables, pool sizes 1k and 10k.
//!
//! Expected shape (paper): the coarse lock shows step-function drops at
//! chip/MCM boundaries and very poor throughput at high CPU counts;
//! transactions scale well. With pool 1k, TBEGIN drops steeply past a
//! threshold but still beats the lock. At 100 CPUs, TBEGINC on the large
//! pool reaches ~99.8% of the unsynchronized upper bound.

#![forbid(unsafe_code)]

use std::time::Instant;
use ztm_bench::{
    bench_tag, cpu_counts, print_header, print_row, quick, reference_throughput, results_dir,
    run_pool, sweep, write_bench_json, SweepTable, Timing,
};
use ztm_workloads::pool::SyncMethod;

fn main() {
    let mut timing = Timing::start();
    let pools: [u64; 2] = if quick() {
        [200, 1_000]
    } else {
        [1_000, 10_000]
    };
    println!(
        "Fig 5(a): TX vs locks, 4 variables, pool sizes {} and {}",
        pools[0], pools[1]
    );
    println!("(normalized: 100 = 2 CPUs, single variable, pool of 1)");
    println!();
    let reference = reference_throughput(42);
    print_header(
        "CPUs",
        &[
            &format!("Lock {}", pools[0]),
            &format!("TBEGINC {}", pools[0]),
            &format!("TBEGIN {}", pools[0]),
            &format!("Lock {}", pools[1]),
            &format!("TBEGINC {}", pools[1]),
            &format!("TBEGIN {}", pools[1]),
        ]
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>(),
    );
    // One sweep point per (cpus, pool, method) cell, columns in row order.
    let mut points = Vec::new();
    for &cpus in &cpu_counts() {
        for pool in pools {
            for method in [
                SyncMethod::CoarseLock,
                SyncMethod::Tbeginc,
                SyncMethod::Tbegin,
            ] {
                points.push((method, cpus, pool));
            }
        }
    }
    // The "99.8% of no locking" comparison at the largest CPU count.
    let top = *cpu_counts().last().expect("non-empty sweep");
    points.push((SyncMethod::None, top, pools[1]));
    points.push((SyncMethod::Tbeginc, top, pools[1]));
    let timed = sweep(points, |&(method, cpus, pool)| {
        let t0 = Instant::now();
        let rep = run_pool(method, cpus, pool, 4, 42);
        (rep.throughput(), rep.system, t0.elapsed())
    });
    for (_, report, wall) in &timed {
        timing.add_run(*wall, report);
    }
    let results: Vec<f64> = timed.iter().map(|(t, _, _)| *t).collect();
    let mut top_row = Vec::new();
    let mut rows = Vec::new();
    for (i, cpus) in cpu_counts().into_iter().enumerate() {
        let row: Vec<f64> = results[6 * i..6 * i + 6]
            .iter()
            .map(|t| 100.0 * t / reference)
            .collect();
        print_row(cpus, &row);
        rows.push((cpus, row.clone()));
        top_row = row;
    }
    // The printed figure, exported verbatim so `results/plot_fig5e_full.py`
    // can render it offline.
    let sweep_table = SweepTable {
        x: "cpus",
        series: &[
            "lock_small",
            "tbeginc_small",
            "tbegin_small",
            "lock_large",
            "tbeginc_large",
            "tbegin_large",
        ],
        rows,
    };
    println!();
    let cpus = top;
    let [none, tbc] = results[results.len() - 2..] else {
        unreachable!()
    };
    let tbc_pct = 100.0 * tbc / none;
    println!("TBEGINC at {cpus} CPUs = {tbc_pct:.1}% of unsynchronized throughput (paper: 99.8%)",);
    match write_bench_json(
        &results_dir(),
        &bench_tag("fig5a_pools"),
        &[
            ("cpus_max", cpus as f64),
            ("lock_small_pool", top_row[0]),
            ("tbeginc_small_pool", top_row[1]),
            ("tbegin_small_pool", top_row[2]),
            ("lock_large_pool", top_row[3]),
            ("tbeginc_large_pool", top_row[4]),
            ("tbegin_large_pool", top_row[5]),
            ("tbeginc_vs_unsync_pct", tbc_pct),
        ],
        Some(&sweep_table),
        None,
        Some(&timing),
    ) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => {
            eprintln!("metrics export failed: {e}");
            std::process::exit(1);
        }
    }
}
