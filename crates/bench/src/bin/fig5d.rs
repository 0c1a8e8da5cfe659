//! Figure 5(d): read-write lock vs constrained transactions, four variables
//! read, pool size 10k.
//!
//! Expected shape (paper): the rwlock's reader-count updates ping-pong the
//! lock-word line between CPUs and cap throughput; transactional readers
//! share everything read-only and scale almost linearly.

#![forbid(unsafe_code)]

use ztm_bench::{
    cpu_counts, ops_for, print_header, print_row, quick, reference_throughput, sweep, system_config,
};
use ztm_sim::System;
use ztm_workloads::rwlock::{ReadMethod, ReadWorkload};

fn main() {
    let pool: u64 = if quick() { 1_000 } else { 10_000 };
    println!("Fig 5(d): R/W lock vs TBEGINC, 4 variables read, pool {pool}");
    println!("(normalized: 100 = 2 CPUs, single variable, pool of 1)");
    println!();
    let reference = reference_throughput(42);
    print_header("CPUs", &["R/W Lock", "TBEGINC"]);
    let points: Vec<(ReadMethod, usize)> = cpu_counts()
        .into_iter()
        .flat_map(|cpus| [(ReadMethod::RwLock, cpus), (ReadMethod::Tbeginc, cpus)])
        .collect();
    let results = sweep(points, |&(m, cpus)| {
        let wl = ReadWorkload::new(pool, m);
        let mut sys = System::new(system_config(cpus).seed(42));
        wl.run(&mut sys, ops_for(cpus))
            .normalized_throughput(reference)
    });
    for (i, cpus) in cpu_counts().into_iter().enumerate() {
        print_row(cpus, &results[2 * i..2 * i + 2]);
    }
}
