//! Hybrid HTM/STM study: the TL2 software layer (`ztm-stm`) vs hardware
//! transactions vs the TBEGIN-fast-path-with-software-fallback mode, on
//! the hashtable, queue, and bank workloads.
//!
//! The question this binary answers is the one §VI of the paper leaves
//! open: what does a software fallback (instead of the global fallback
//! lock) cost, and how often does the hardware fast path actually engage?
//! Each exported artifact carries per-mode throughput, commit/abort counts
//! for both engines, the fallback-engagement count, and the abort-code
//! breakdown of what drove each escalation.
//!
//! Default sweep tops out at one book (36 CPUs); `ZTM_FULL=1` sweeps the
//! hashtable across the whole 144-CPU machine.

use std::time::{Duration, Instant};
use ztm_bench::{
    bench_tag, cpu_counts, full, ops_for, print_header, print_row, quick, results_dir, sweep,
    system_config, write_bench_json, Timing,
};
use ztm_sim::System;
use ztm_trace::{Recorder, Tracer};
use ztm_workloads::bank::{Bank, BankMethod};
use ztm_workloads::hashtable::{HashTable, TableMethod};
use ztm_workloads::queue::{ConcurrentQueue, QueueMethod};
use ztm_workloads::WorkloadReport;

/// The three synchronization modes under comparison. `Htm` is each
/// workload's existing hardware-transaction baseline (lock elision, or
/// TBEGIN with the lock fallback for the bank).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Htm,
    PureStm,
    Hybrid,
}

const MODES: [Mode; 3] = [Mode::Htm, Mode::PureStm, Mode::Hybrid];

fn run_point(workload: &str, mode: Mode, cpus: usize, ops: u64) -> (WorkloadReport, Duration) {
    let mut sys = System::new(system_config(cpus).seed(42));
    run_in(workload, mode, &mut sys, ops)
}

fn run_in(workload: &str, mode: Mode, sys: &mut System, ops: u64) -> (WorkloadReport, Duration) {
    let t0 = Instant::now();
    let rep = match workload {
        "hashtable" => {
            let method = match mode {
                Mode::Htm => TableMethod::Elision,
                Mode::PureStm => TableMethod::PureStm,
                Mode::Hybrid => TableMethod::HtmStmFallback,
            };
            let t = HashTable::new(512, 2048, 20, method);
            t.populate(sys, &(0..1024).collect::<Vec<_>>());
            t.run(sys, ops)
        }
        "queue" => {
            let method = match mode {
                Mode::Htm => QueueMethod::Elision,
                Mode::PureStm => QueueMethod::PureStm,
                Mode::Hybrid => QueueMethod::HtmStmFallback,
            };
            let q = ConcurrentQueue::new(method);
            q.seed(sys, 64);
            q.run(sys, ops)
        }
        "bank" => {
            let method = match mode {
                Mode::Htm => BankMethod::Tbegin,
                Mode::PureStm => BankMethod::PureStm,
                Mode::Hybrid => BankMethod::HtmStmFallback,
            };
            let b = Bank::new(64, method);
            b.open(sys, 10_000);
            b.run(sys, ops)
        }
        other => unreachable!("unknown workload {other}"),
    };
    (rep, t0.elapsed())
}

fn main() {
    println!("Hybrid HTM/STM fallback study (TL2 software layer on the simulated ISA)");
    println!();
    let threads: Vec<usize> = if full() {
        cpu_counts()
    } else if quick() {
        vec![2, 12, 36]
    } else {
        vec![2, 6, 12, 24, 36]
    };
    // The full-topology tier sweeps only the hashtable (the 144-CPU STM
    // points dominate the runtime; the 36-CPU tier covers all three).
    let workloads: &[&str] = if full() {
        &["hashtable"]
    } else {
        &["hashtable", "queue", "bank"]
    };
    let short = |cpus: usize| ops_for(cpus).min(150);
    for &workload in workloads {
        let mut points = Vec::new();
        for &n in &threads {
            for mode in MODES {
                points.push((mode, n, short(n)));
            }
        }
        let results = sweep(points, |&(mode, cpus, ops)| {
            let (rep, wall) = run_point(workload, mode, cpus, ops);
            (rep, wall)
        });
        let mut timing = Timing::default();
        for (rep, wall) in &results {
            timing.add_run(*wall, &rep.system);
        }
        println!("{workload}: throughput (ops/cycle x 1000)");
        print_header("cpus", &["HTM", "PureSTM", "Hybrid"]);
        for (i, &n) in threads.iter().enumerate() {
            let row: Vec<f64> = (0..3)
                .map(|m| results[3 * i + m].0.throughput() * 1e3)
                .collect();
            print_row(n, &row);
        }
        // Headline the widest point: per-mode throughput plus the hybrid
        // mode's engine split and the pure-STM abort economy.
        let top_idx = 3 * (threads.len() - 1);
        let htm = &results[top_idx].0;
        let purestm = &results[top_idx + 1].0;
        let hybrid = &results[top_idx + 2].0;
        let hs = &hybrid.system.stm;
        let ps = &purestm.system.stm;
        println!(
            "  @{} cpus: hybrid hw commits {}, sw commits {}, fallbacks {} (codes {:?})",
            threads.last().unwrap(),
            hybrid.system.tx.commits,
            hs.commits,
            hs.fallbacks,
            hs.fallback_codes,
        );
        println!(
            "  pure STM: {} commits, {} aborts, {} validation failures\n",
            ps.commits, ps.aborts, ps.validation_failures
        );
        let headlines = [
            ("cpus", *threads.last().unwrap() as f64),
            ("htm_throughput", htm.throughput()),
            ("purestm_throughput", purestm.throughput()),
            ("hybrid_throughput", hybrid.throughput()),
            ("hybrid_hw_commits", hybrid.system.tx.commits as f64),
            ("hybrid_hw_aborts", hybrid.system.tx.aborts as f64),
            ("hybrid_sw_commits", hs.commits as f64),
            ("hybrid_sw_aborts", hs.aborts as f64),
            ("hybrid_fallbacks", hs.fallbacks as f64),
            ("purestm_commits", ps.commits as f64),
            ("purestm_aborts", ps.aborts as f64),
            ("purestm_validation_failures", ps.validation_failures as f64),
        ];
        // Traced re-run of the widest hybrid point: the exported metrics
        // document carries the stm block (begins/commits/aborts, lock and
        // validation counters, fallback-code histogram) alongside the
        // hardware-abort-code histogram — the abort-cause breakdown.
        let top = *threads.last().unwrap();
        let mut sys = System::new(system_config(top).seed(42));
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        let (rep, wall) = run_in(workload, Mode::Hybrid, &mut sys, short(top));
        timing.add_run(wall, &rep.system);
        let rec = recorder.lock().unwrap();
        match write_bench_json(
            &results_dir(),
            &bench_tag(&format!("hybrid_{workload}")),
            &headlines,
            None,
            Some(&rec),
            Some(&timing),
        ) {
            Ok(path) => println!("  metrics: {}\n", path.display()),
            Err(e) => {
                eprintln!("  metrics export failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
