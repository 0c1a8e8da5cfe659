//! E2 (§IV text): ConcurrentLinkedQueue with constrained transactions.
//!
//! The paper reports throughput exceeding locks by a factor of about 2.

#![forbid(unsafe_code)]

use ztm_bench::{ops_for, print_header, print_row, quick, sweep};
use ztm_sim::{System, SystemConfig};
use ztm_workloads::queue::{ConcurrentQueue, QueueMethod};

fn main() {
    println!("E2: concurrent queue — global lock vs constrained transactions");
    println!();
    let counts: Vec<usize> = if quick() {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 6, 8, 12, 16]
    };
    let points: Vec<(QueueMethod, usize)> = counts
        .iter()
        .flat_map(|&n| [(QueueMethod::Lock, n), (QueueMethod::Tbeginc, n)])
        .collect();
    let results = sweep(points, |&(method, cpus)| {
        let q = ConcurrentQueue::new(method);
        let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
        q.seed(&mut sys, 64);
        q.run(&mut sys, ops_for(cpus).min(150)).throughput()
    });
    print_header("CPUs", &["Lock", "TBEGINC", "ratio"]);
    let mut last_ratio = 0.0;
    for (i, &n) in counts.iter().enumerate() {
        let (lock, tx) = (results[2 * i], results[2 * i + 1]);
        last_ratio = tx / lock;
        print_row(n, &[lock * 1e4, tx * 1e4, last_ratio]);
    }
    println!();
    println!(
        "TBEGINC / Lock at {} CPUs = {last_ratio:.2}x (paper: ~2x)",
        counts.last().unwrap()
    );
}
