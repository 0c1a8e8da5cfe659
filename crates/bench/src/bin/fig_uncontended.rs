//! E1 (§IV text): uncontended overhead — a single CPU, pool of 1 line.
//!
//! The paper reports that transactions outperform locks by ~30% in this
//! case (shorter path than lock obtain/release), and that constrained vs
//! non-constrained transactions differ by only ~0.4% (the lock-test branch
//! is perfectly predictable).

use std::time::Instant;
use ztm_bench::{results_dir, run_pool, run_pool_traced, sweep, write_bench_json, Timing};
use ztm_workloads::pool::SyncMethod;

fn main() {
    println!("E1: uncontended single-CPU overhead (pool=1, vars=1)");
    println!();
    let mut timing = Timing::default();
    let untraced = sweep(
        vec![SyncMethod::CoarseLock, SyncMethod::Tbeginc],
        |&method| {
            let t0 = Instant::now();
            let rep = run_pool(method, 1, 1, 1, 42);
            (rep, t0.elapsed())
        },
    );
    let t0 = Instant::now();
    let (tbegin, recorder) = run_pool_traced(SyncMethod::Tbegin, 1, 1, 1, 42);
    timing.add_run(t0.elapsed(), &tbegin.system);
    for (rep, wall) in &untraced {
        timing.add_run(*wall, &rep.system);
    }
    let (lock, tbeginc) = (&untraced[0].0, &untraced[1].0);

    let rows = [
        ("lock", lock.avg_op_cycles()),
        ("TBEGIN", tbegin.avg_op_cycles()),
        ("TBEGINC", tbeginc.avg_op_cycles()),
    ];
    println!("{:>10} {:>16}", "method", "cycles/update");
    for (name, cyc) in rows {
        println!("{name:>10} {cyc:>16.2}");
    }
    println!();
    let tx_vs_lock = 100.0 * (lock.avg_op_cycles() / tbegin.avg_op_cycles() - 1.0);
    let c_vs_nc =
        100.0 * (tbegin.avg_op_cycles() - tbeginc.avg_op_cycles()).abs() / tbegin.avg_op_cycles();
    println!("TBEGIN advantage over lock : {tx_vs_lock:+.1}%   (paper: ~+30%)");
    println!("TBEGINC vs TBEGIN          : {c_vs_nc:.2}%   (paper: ~0.4%)");
    let rec = recorder.lock().unwrap();
    match write_bench_json(
        &results_dir(),
        "E1_uncontended",
        &[
            ("lock_cycles_per_op", lock.avg_op_cycles()),
            ("tbegin_cycles_per_op", tbegin.avg_op_cycles()),
            ("tbeginc_cycles_per_op", tbeginc.avg_op_cycles()),
            ("tbegin_advantage_pct", tx_vs_lock),
            ("tbeginc_vs_tbegin_pct", c_vs_nc),
        ],
        None,
        Some(&rec),
        Some(&timing),
    ) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => {
            eprintln!("metrics export failed: {e}");
            std::process::exit(1);
        }
    }
}
