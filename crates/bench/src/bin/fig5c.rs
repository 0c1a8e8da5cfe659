//! Figure 5(c): TX vs coarse lock, four variables, pool size 10.
//!
//! Expected shape (paper): transactions win slightly up to ~6 CPUs, but as
//! contention grows the lock wins — a transaction must collect all four
//! lines before committing and is vulnerable while waiting, wasting cache
//! transfers on aborts, whereas a lock holder always finishes. Under
//! extreme contention TBEGINC degrades more gracefully than TBEGIN because
//! the millicode retry ladder turns speculative fetching off (§IV).

#![forbid(unsafe_code)]

use ztm_bench::{cpu_counts, print_header, print_row, reference_throughput, run_pool, sweep};
use ztm_workloads::pool::SyncMethod;

fn main() {
    println!("Fig 5(c): TX vs coarse lock, 4 variables, pool size 10");
    println!("(normalized: 100 = 2 CPUs, single variable, pool of 1)");
    println!();
    let reference = reference_throughput(42);
    print_header("CPUs", &["Lock", "TBEGINC", "TBEGIN", "abrt%C", "abrt%N"]);
    let points: Vec<(SyncMethod, usize)> = cpu_counts()
        .into_iter()
        .flat_map(|cpus| {
            [
                (SyncMethod::CoarseLock, cpus),
                (SyncMethod::Tbeginc, cpus),
                (SyncMethod::Tbegin, cpus),
            ]
        })
        .collect();
    let results = sweep(points, |&(m, cpus)| run_pool(m, cpus, 10, 4, 42));
    for (i, cpus) in cpu_counts().into_iter().enumerate() {
        let [lock, tbc, tbn] = &results[3 * i..3 * i + 3] else {
            unreachable!()
        };
        print_row(
            cpus,
            &[
                lock.normalized_throughput(reference),
                tbc.normalized_throughput(reference),
                tbn.normalized_throughput(reference),
                100.0 * tbc.abort_rate(),
                100.0 * tbn.abort_rate(),
            ],
        );
    }
}
