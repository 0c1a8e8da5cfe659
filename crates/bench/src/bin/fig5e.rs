//! Figure 5(e): lock-elided hashtable.
//!
//! Expected shape (paper): with the global lock, throughput is flat as
//! threads are added; with transactional lock elision it grows almost
//! linearly. The unsynchronized column is the no-coordination upper bound
//! (it loses updates under contention — never a correctness baseline), and
//! its single-CPU run yields the measured-IPC headline: with
//! `ZTM_ISSUE_WIDTH` > 1 the issue window makes IPC an output of the
//! model rather than a configured constant.

use std::time::Instant;
use ztm_bench::{
    bench_tag, cpu_counts, full, ops_for, print_header, print_row, quick, results_dir, sweep,
    system_config, write_bench_json, SweepTable, Timing,
};
use ztm_sim::System;
use ztm_trace::{Recorder, Tracer};
use ztm_workloads::hashtable::{HashTable, TableMethod};

fn main() {
    println!("Fig 5(e): java/util/Hashtable-style lock elision (20% puts)");
    println!("(throughput normalized to 1 thread under the global lock)");
    println!();
    let threads: Vec<usize> = if full() {
        // Full-topology tier: elide across the whole 144-CPU machine.
        cpu_counts()
    } else if quick() {
        vec![1, 2, 4, 6]
    } else {
        vec![1, 2, 3, 4, 5, 6, 7, 8]
    };
    // One sweep point per (method, thread-count) cell, plus the 1-thread
    // global-lock normalization base at index 0 and the 1-CPU unsync IPC
    // point at the end; each worker times its run so the exported timing
    // covers every simulation this binary does. The IPC point runs long
    // enough to amortize cold-start cache misses — IPC is a steady-state
    // property, and the table's short runs are dominated by cold fills.
    let short = |cpus: usize| ops_for(cpus).min(150);
    let mut points = vec![(TableMethod::GlobalLock, 1, short(1))];
    for &n in &threads {
        points.push((TableMethod::GlobalLock, n, short(n)));
        points.push((TableMethod::Elision, n, short(n)));
        points.push((TableMethod::Unsync, n, short(n)));
    }
    // 25k ops amortize the ~300 cold line fills (~600 cycles each) that
    // otherwise dominate: the warm core runs at ~1.4 IPC with width 3.
    points.push((TableMethod::Unsync, 1, 25_000));
    let results = sweep(points, |&(method, cpus, ops)| {
        let t = HashTable::new(512, 2048, 20, method);
        let mut sys = System::new(system_config(cpus).seed(42));
        let t0 = Instant::now();
        t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
        let rep = t.run(&mut sys, ops);
        (rep.throughput(), rep.system, t0.elapsed())
    });
    let mut timing = Timing::default();
    for (_, report, wall) in &results {
        timing.add_run(*wall, report);
    }
    let base = results[0].0;
    print_header("threads", &["Locks", "TBEGIN", "Unsync"]);
    let (mut lock_top, mut elision_top, mut unsync_top) = (0.0, 0.0, 0.0);
    let mut rows = Vec::with_capacity(threads.len());
    for (i, &n) in threads.iter().enumerate() {
        lock_top = results[1 + 3 * i].0 / base;
        elision_top = results[2 + 3 * i].0 / base;
        unsync_top = results[3 + 3 * i].0 / base;
        print_row(n, &[lock_top, elision_top, unsync_top]);
        rows.push((n, vec![lock_top, elision_top, unsync_top]));
    }
    // The printed figure, exported verbatim so `results/plot_fig5e_full.py`
    // can render it offline.
    let sweep_table = SweepTable {
        x: "cpus",
        series: &["lock", "elision", "unsync"],
        rows,
    };
    // The single-CPU unsync run: IPC with no synchronization and no other
    // CPU's clock in the max, i.e. the core's own issue rate.
    let ipc = results.last().unwrap().1.ipc();
    println!("\nmeasured IPC (1-CPU unsync row): {ipc:.3}");
    // Re-run the widest elision point traced for the metrics trajectory
    // (serially, outside the sweep, so one recorder sees the whole run).
    let top = *threads.last().unwrap();
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(system_config(top).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    let t0 = Instant::now();
    t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    t.run(&mut sys, ops_for(top).min(150));
    timing.add_run(t0.elapsed(), &sys.report());
    let rec = recorder.lock().unwrap();
    match write_bench_json(
        &results_dir(),
        &bench_tag("fig5e_hashtable"),
        &[
            ("threads", top as f64),
            ("lock_normalized", lock_top),
            ("elision_normalized", elision_top),
            ("unsync_normalized", unsync_top),
            ("elision_speedup", elision_top / lock_top),
            ("unsync_ipc", ipc),
        ],
        Some(&sweep_table),
        Some(&rec),
        Some(&timing),
    ) {
        Ok(path) => println!("\nmetrics: {}", path.display()),
        Err(e) => {
            eprintln!("metrics export failed: {e}");
            std::process::exit(1);
        }
    }
}
