//! Figure 5(b): TX vs locks, single variable, pool size 10.
//!
//! Expected shape (paper): coarse locking yields very poor throughput; fine
//! locking is better but flat/declining beyond ~10 CPUs; transactions grow
//! up to the MCM size (24 CPUs in the tested system), hold steady beyond,
//! and win across the whole range.

#![forbid(unsafe_code)]

use ztm_bench::{cpu_counts, print_header, print_row, reference_throughput, run_pool, sweep};
use ztm_workloads::pool::SyncMethod;

const METHODS: [SyncMethod; 4] = [
    SyncMethod::CoarseLock,
    SyncMethod::FineLock,
    SyncMethod::Tbeginc,
    SyncMethod::Tbegin,
];

fn main() {
    println!("Fig 5(b): TX vs locks, single variable, pool size 10");
    println!("(normalized: 100 = 2 CPUs, single variable, pool of 1)");
    println!();
    let reference = reference_throughput(42);
    print_header("CPUs", &["CoarseLock", "FineLock", "TBEGINC", "TBEGIN"]);
    let points: Vec<(SyncMethod, usize)> = cpu_counts()
        .into_iter()
        .flat_map(|cpus| METHODS.map(|m| (m, cpus)))
        .collect();
    let results = sweep(points, |&(m, cpus)| {
        run_pool(m, cpus, 10, 1, 42).normalized_throughput(reference)
    });
    for (i, cpus) in cpu_counts().into_iter().enumerate() {
        print_row(cpus, &results[4 * i..4 * i + 4]);
    }
}
