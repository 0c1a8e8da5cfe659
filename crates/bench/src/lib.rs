//! Shared harness for the figure-regeneration binaries.
//!
//! One binary per table/figure of the paper's §IV (see DESIGN.md's
//! per-experiment index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig_uncontended` | E1: single-CPU TX vs lock (~30%), TBEGINC vs TBEGIN (~0.4%) |
//! | `fig5a` | Fig 5(a): TX vs locks, 4 vars, pools 1k/10k |
//! | `fig5b` | Fig 5(b): single var, pool 10, coarse/fine/TBEGINC/TBEGIN |
//! | `fig5c` | Fig 5(c): 4 vars, pool 10 |
//! | `fig5d` | Fig 5(d): read-write lock vs TBEGINC, 4-var reads, pool 10k |
//! | `fig5e` | Fig 5(e): lock-elided hashtable |
//! | `fig5f` | Fig 5(f): LRU-extension effect on the fetch footprint |
//! | `fig_queue` | E2: ConcurrentLinkedQueue, constrained TX ≈ 2× locks |
//! | `ablation_stiffarm` | E3: XI reject (stiff-arming) on/off |
//! | `ablation_retry_ladder` | E4: constrained-retry ladder stages |
//!
//! Run them in release mode, e.g.
//! `cargo run --release -p ztm-bench --bin fig5b`.
//! Set `ZTM_QUICK=1` for a reduced sweep.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use ztm_sim::{System, SystemConfig, SystemReport};
use ztm_trace::{Recorder, Tracer};
use ztm_workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};
use ztm_workloads::WorkloadReport;

/// The CPU counts on the paper's x-axes (2…100).
pub const CPU_COUNTS: [usize; 12] = [2, 3, 4, 5, 6, 8, 10, 20, 40, 60, 80, 100];

/// A reduced sweep for quick runs (`ZTM_QUICK=1`).
pub const CPU_COUNTS_QUICK: [usize; 6] = [2, 4, 6, 10, 20, 40];

/// The full-topology tier's x-axis (`ZTM_FULL=1`): up to the zEC12's
/// 144 CPUs (4 books × 6 chips × 6 cores), with points on the chip (6)
/// and book (36) boundaries where the paper's step-function drops sit.
pub const CPU_COUNTS_FULL: [usize; 10] = [2, 6, 12, 24, 36, 48, 72, 96, 120, 144];

/// Reduced full-topology sweep (`ZTM_FULL=1 ZTM_QUICK=1`, the CI smoke
/// tier) — fewer points but still reaching the 144-CPU apex.
pub const CPU_COUNTS_FULL_QUICK: [usize; 5] = [2, 12, 36, 72, 144];

/// The CPU counts to sweep, honoring `ZTM_FULL` and `ZTM_QUICK`.
pub fn cpu_counts() -> Vec<usize> {
    match (full(), quick()) {
        (true, true) => CPU_COUNTS_FULL_QUICK.to_vec(),
        (true, false) => CPU_COUNTS_FULL.to_vec(),
        (false, true) => CPU_COUNTS_QUICK.to_vec(),
        (false, false) => CPU_COUNTS.to_vec(),
    }
}

/// Whether quick mode is on (smaller sweeps for CI/tests).
pub fn quick() -> bool {
    ztm_sim::env_flag("ZTM_QUICK")
}

/// Whether the full-topology tier is on (`ZTM_FULL=1`): sweep to 144 CPUs
/// on the real zEC12 book/chip arrangement instead of the paper's testbed
/// MCM granularity. Orthogonal to [`quick`], which still shrinks op counts.
pub fn full() -> bool {
    ztm_sim::env_flag("ZTM_FULL")
}

/// The system configuration for one sweep point, honoring the
/// full-topology tier. Outside `ZTM_FULL=1` this is exactly
/// [`SystemConfig::with_cpus`], so committed digests are unaffected.
pub fn system_config(cpus: usize) -> SystemConfig {
    let mut cfg = SystemConfig::with_cpus(cpus);
    if full() {
        cfg.topology = ztm_cache::Topology::zec12(cpus);
    }
    cfg
}

/// Result-file name for the current tier: pipelined runs
/// (`ZTM_ISSUE_WIDTH` > 1) get a `_w<width>` suffix and full-topology
/// artifacts a `_full` suffix, so variant artifacts sit next to (never
/// overwrite) the default tier's.
pub fn bench_tag(name: &str) -> String {
    let mut tag = name.to_string();
    if let Some(w) = issue_width() {
        tag.push_str(&format!("_w{w}"));
    }
    if full() {
        tag.push_str("_full");
    }
    tag
}

/// The pipeline issue width in effect, when above 1 (`ZTM_ISSUE_WIDTH`,
/// validated by [`ztm_sim::env_usize`] — a bad token fails loudly here
/// rather than silently running unpipelined).
pub fn issue_width() -> Option<u64> {
    ztm_sim::env_usize("ZTM_ISSUE_WIDTH")
        .map(|w| w as u64)
        .filter(|&w| w > 1)
}

/// Worker-thread count for [`sweep`]: `ZTM_BENCH_THREADS` if set (≥ 1),
/// otherwise the host's available parallelism.
pub fn bench_threads() -> usize {
    ztm_sim::env_usize("ZTM_BENCH_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The `ZTM_SIM_THREADS` value in effect for the systems this process
/// builds — above 1 it selects the sharded driver for untraced runs, as
/// opposed to [`bench_threads`], which fans independent sweep points out.
pub fn sim_threads() -> usize {
    ztm_sim::env_usize("ZTM_SIM_THREADS").unwrap_or(1)
}

/// Runs `f` over every config, fanning the points out across worker threads,
/// and returns the results **in input order**.
///
/// Each point is an independent simulation: `f` constructs its own
/// [`System`] inside the worker that runs it, so no simulator state crosses
/// threads and only the configs and results must be shareable. Determinism is
/// unaffected: a simulation's outcome depends only on its config and seed,
/// never on which host thread runs it, so the result vector — and therefore
/// the table printed from it — is byte-identical for any thread count,
/// including 1. Workers claim points dynamically (an atomic cursor), which
/// load-balances sweeps whose cost grows steeply with the CPU count.
///
/// Traced runs (those that keep a `Recorder` for metrics export) stay
/// outside `sweep`: each binary exports one recorder from a serial re-run.
pub fn sweep<C, R, F>(configs: Vec<C>, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    sweep_with(bench_threads(), configs, f)
}

/// [`sweep`] with an explicit worker count (exposed for tests).
pub fn sweep_with<C, R, F>(threads: usize, configs: Vec<C>, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    if threads <= 1 || configs.len() <= 1 {
        return configs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = configs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(configs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = configs.get(i) else { break };
                *slots[i].lock().expect("sweep slot") = Some(f(cfg));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep slot")
                .expect("every slot filled")
        })
        .collect()
}

/// Operations per CPU, scaled down as CPU counts grow so total work stays
/// bounded under heavy serialization.
pub fn ops_for(cpus: usize) -> u64 {
    let budget = if quick() { 2_000 } else { 6_000 };
    (budget / cpus as u64).clamp(30, 400)
}

/// Runs one pool-workload point.
pub fn run_pool(
    method: SyncMethod,
    cpus: usize,
    pool: u64,
    vars: usize,
    seed: u64,
) -> WorkloadReport {
    let wl = PoolWorkload::new(PoolLayout::new(pool, vars), method, seed);
    let mut sys = System::new(system_config(cpus).seed(seed));
    wl.run(&mut sys, ops_for(cpus))
}

/// Like [`run_pool`], but with a recording [`ztm_trace`] tracer attached, so
/// the caller can export the run's event-level metrics.
pub fn run_pool_traced(
    method: SyncMethod,
    cpus: usize,
    pool: u64,
    vars: usize,
    seed: u64,
) -> (WorkloadReport, Arc<Mutex<Recorder>>) {
    let wl = PoolWorkload::new(PoolLayout::new(pool, vars), method, seed);
    let mut sys = System::new(system_config(cpus).seed(seed));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    let report = wl.run(&mut sys, ops_for(cpus));
    (report, recorder)
}

/// Host-side (wall-clock) speed of a benchmark run — simulator performance,
/// as opposed to the simulated machine's performance.
///
/// Start one instance before a binary's first simulation, fold every run
/// into it, then pass it to [`write_bench_json`]. The fields are inherently
/// non-deterministic (they measure the host), so they serialize to a
/// **single** `"timing"` line that comparison tooling can strip with
/// `grep -v '"timing"'` while diffing the deterministic remainder.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// When [`start`](Self::start) ran: `wall_ms` is the elapsed time from
    /// here to the artifact write.
    started: std::time::Instant,
    /// Milliseconds spent simulating, summed over runs. Runs of a
    /// multi-threaded sweep overlap, so this exceeds the elapsed time
    /// whenever `sweep_threads` > 1.
    pub sim_ms: f64,
    /// Total scheduler steps across the accumulated runs.
    pub steps: u64,
    /// Total simulated cycles (max core clock per run, summed over runs).
    pub sim_cycles: u64,
    /// Aggregated sharded-driver round statistics (all zero on serial
    /// runs). Host-schedule measurements, so they ride the stripped
    /// `"timing"` line, never a deterministic field.
    pub sharding: ztm_sim::ShardingStats,
    /// Aggregated serial-scheduler picks and run-ahead steps: where the
    /// scheduler's host time went, on the same stripped line.
    pub schedule: ztm_sim::ScheduleStats,
}

impl Timing {
    /// Empty totals, with the elapsed-time clock starting now.
    pub fn start() -> Timing {
        Timing {
            started: std::time::Instant::now(),
            sim_ms: 0.0,
            steps: 0,
            sim_cycles: 0,
            sharding: ztm_sim::ShardingStats::default(),
            schedule: ztm_sim::ScheduleStats::default(),
        }
    }

    /// Folds one finished run, which simulated for `sim`, into the totals.
    pub fn add_run(&mut self, sim: std::time::Duration, report: &SystemReport) {
        self.sim_ms += sim.as_secs_f64() * 1e3;
        self.steps += report.steps;
        self.sim_cycles += report.elapsed_cycles;
        self.sharding.merge(&report.sharding);
        self.schedule.merge(&report.schedule);
    }

    /// Milliseconds elapsed since [`start`](Self::start).
    pub fn wall_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// The single-line JSON value for the `"timing"` key. The rates are
    /// per simulation: counts over `sim_ms`, not over the elapsed time.
    fn json_value(&self) -> String {
        let per_sec = |n: u64| {
            if self.sim_ms > 0.0 {
                n as f64 / (self.sim_ms / 1e3)
            } else {
                0.0
            }
        };
        let s = &self.sharding;
        format!(
            "{{ \"wall_ms\": {:.3}, \"sim_ms\": {:.3}, \"steps_per_sec\": {:.0}, \
             \"sim_cycles_per_sec\": {:.0}, \"commit\": \"{}\", \"host_threads\": {}, \
             \"sweep_threads\": {}, \"shard_rounds\": {}, \"shard_mean_round\": {:.2}, \
             \"shard_round_max\": {}, \"steps_per_pick\": {:.3}, \"run_ahead_share\": {:.4} }}",
            self.wall_ms(),
            self.sim_ms,
            per_sec(self.steps),
            per_sec(self.sim_cycles),
            commit_id(),
            sim_threads(),
            bench_threads(),
            s.rounds,
            s.mean_round_steps(),
            s.round_steps_max,
            self.schedule.steps_per_pick(self.steps),
            self.schedule.run_ahead_share(self.steps)
        )
    }
}

/// The git commit the binary was built from, for correlating timing
/// artifacts with history: `git rev-parse` in the crate's source tree
/// (wherever the binary is launched from), else the CI `GITHUB_SHA`, else
/// `"unknown"`. Lives on the stripped `"timing"` line — it is host
/// metadata, not simulation output.
fn commit_id() -> String {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    COMMIT
        .get_or_init(|| {
            let git = std::process::Command::new("git")
                .args(["-C", env!("CARGO_MANIFEST_DIR")])
                .args(["rev-parse", "--short=12", "HEAD"])
                .output();
            if let Ok(out) = git {
                if out.status.success() {
                    if let Ok(s) = String::from_utf8(out.stdout) {
                        let s = s.trim();
                        if !s.is_empty() {
                            return s.to_string();
                        }
                    }
                }
            }
            match std::env::var("GITHUB_SHA") {
                Ok(sha) if !sha.is_empty() => sha.chars().take(12).collect(),
                _ => "unknown".to_string(),
            }
        })
        .clone()
}

/// The results directory: `ZTM_RESULTS_DIR`, default `results/`.
pub fn results_dir() -> PathBuf {
    results_dir_from(std::env::var("ZTM_RESULTS_DIR").ok())
}

/// [`results_dir`] for a given `ZTM_RESULTS_DIR` value. Absent or empty
/// (the workspace's "unset") means `results/`, never the working directory.
fn results_dir_from(var: Option<String>) -> PathBuf {
    match var {
        Some(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("results"),
    }
}

/// A figure's per-point rows for [`write_bench_json`]: the x column name,
/// one name per y series, and `(x, ys)` rows with one y per series.
pub struct SweepTable<'a> {
    pub x: &'a str,
    pub series: &'a [&'a str],
    pub rows: Vec<(usize, Vec<f64>)>,
}

/// Writes `BENCH_<name>.json` into `dir` (figure binaries pass
/// [`results_dir`]): the benchmark's headline numbers, an optional
/// per-point sweep table, and, when a recorder is given, the run's full
/// [`ztm_trace::Metrics`] document, so every figure binary leaves a
/// machine-readable perf trajectory behind. The sweep table holds the rows
/// the binary printed as its figure, so offline tooling
/// (`results/plot_fig5e_full.py`) can re-render the figure without
/// re-running the simulator. Everything but the [`Timing`] line is
/// deterministic and diffed by CI.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing.
pub fn write_bench_json(
    dir: &Path,
    name: &str,
    headlines: &[(&str, f64)],
    sweep: Option<&SweepTable>,
    recorder: Option<&Recorder>,
    timing: Option<&Timing>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"bench\": \"{name}\",\n"));
    let hl: Vec<String> = headlines
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    body.push_str(&format!("  \"headlines\": {{\n{}\n  }},\n", hl.join(",\n")));
    if let Some(s) = sweep {
        let series: Vec<String> = s.series.iter().map(|n| format!("\"{n}\"")).collect();
        body.push_str(&format!(
            "  \"sweep\": {{\n    \"x\": \"{}\",\n    \"series\": [{}],\n    \"rows\": [\n",
            s.x,
            series.join(", ")
        ));
        let rows: Vec<String> = s
            .rows
            .iter()
            .map(|(x, ys)| {
                let ys: Vec<String> = ys.iter().map(|y| format!("{y}")).collect();
                format!("      [{x}, {}]", ys.join(", "))
            })
            .collect();
        body.push_str(&rows.join(",\n"));
        body.push_str("\n    ]\n  },\n");
    }
    if let Some(t) = timing {
        body.push_str(&format!("  \"timing\": {},\n", t.json_value()));
    }
    match recorder {
        Some(rec) => {
            // The metrics document is itself JSON; indent it for nesting.
            let nested = rec.metrics_json();
            let nested = nested.trim_end().replace('\n', "\n  ");
            body.push_str(&format!("  \"metrics\": {nested}\n"));
        }
        None => body.push_str("  \"metrics\": null\n"),
    }
    body.push_str("}\n");
    std::fs::write(&path, body)?;
    Ok(path)
}

/// The paper's normalization reference: the throughput of 2 CPUs updating a
/// single variable from a pool of 1 (coarse lock); figures divide by this
/// and multiply by 100.
pub fn reference_throughput(seed: u64) -> f64 {
    run_pool(SyncMethod::CoarseLock, 2, 1, 1, seed).throughput()
}

/// Prints a table header: first column label plus one column per series.
pub fn print_header(x_label: &str, series: &[&str]) {
    print!("{x_label:>8}");
    for s in series {
        print!("{s:>14}");
    }
    println!();
}

/// Prints one row of values.
pub fn print_row(x: impl std::fmt::Display, values: &[f64]) {
    print!("{x:>8}");
    for v in values {
        print!("{v:>14.1}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_id_is_known_inside_this_checkout() {
        let id = commit_id();
        assert_ne!(id, "unknown");
        assert!(
            id.len() == 12 && id.bytes().all(|b| b.is_ascii_hexdigit()),
            "{id:?}"
        );
    }

    #[test]
    fn ops_scale_down_with_cpus() {
        assert!(ops_for(2) >= ops_for(100));
        assert!(ops_for(100) >= 30);
    }

    #[test]
    fn reference_is_positive() {
        assert!(reference_throughput(1) > 0.0);
    }

    #[test]
    fn bench_json_exports_headlines_and_metrics() {
        // Inject the directory explicitly — mutating `ZTM_RESULTS_DIR` here
        // would race with parallel tests (env vars are process-global).
        let dir = std::env::temp_dir().join("ztm-bench-json-test");
        let (report, recorder) = run_pool_traced(SyncMethod::Tbegin, 2, 4, 1, 7);
        let mut timing = Timing::start();
        timing.add_run(std::time::Duration::from_millis(5), &report.system);
        let path = write_bench_json(
            &dir,
            "test",
            &[("cycles_per_op", report.avg_op_cycles())],
            Some(&SweepTable {
                x: "cpus",
                series: &["lock", "elision"],
                rows: vec![(1, vec![1.0, 1.25]), (2, vec![1.5, 4.0])],
            }),
            Some(&recorder.lock().unwrap()),
            Some(&timing),
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"cycles_per_op\""));
        assert!(text.contains("\"abort_codes\""), "{text}");
        assert!(text.contains("\"digest\""));
        // The sweep table rides as a deterministic field: x label, series
        // names, and one row array per point.
        assert!(text.contains("\"sweep\""), "{text}");
        assert!(
            text.contains("\"series\": [\"lock\", \"elision\"]"),
            "{text}"
        );
        assert!(text.contains("[2, 1.5, 4]"), "{text}");
        // The timing key must stay on one line so CI can strip it with grep.
        let timing_lines: Vec<&str> = text.lines().filter(|l| l.contains("\"timing\"")).collect();
        assert_eq!(timing_lines.len(), 1);
        assert!(timing_lines[0].contains("\"steps_per_sec\""));
        // Host metadata (commit, thread count) must ride the same stripped
        // line, never a deterministic field.
        assert!(timing_lines[0].contains("\"commit\""));
        assert!(timing_lines[0].contains("\"host_threads\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timing_wall_ms_is_elapsed_time_and_sim_ms_sums_runs() {
        // Two runs that each simulated for 50 ms, folded in at once as a
        // two-thread sweep does: their times sum into `sim_ms`, while the
        // elapsed time since `start` stays well below that sum.
        let mut timing = Timing::start();
        let report = SystemReport {
            steps: 1_000,
            elapsed_cycles: 4_000,
            schedule: ztm_sim::ScheduleStats {
                picks: 400,
                run_ahead_steps: 250,
            },
            ..SystemReport::default()
        };
        timing.add_run(std::time::Duration::from_millis(50), &report);
        timing.add_run(std::time::Duration::from_millis(50), &report);
        assert_eq!(timing.sim_ms, 100.0);
        assert!(timing.wall_ms() < 100.0, "{}", timing.wall_ms());
        // The rates stay per simulation: 2 000 steps over 100 ms.
        let line = timing.json_value();
        assert!(line.contains("\"sim_ms\": 100.000"), "{line}");
        assert!(line.contains("\"steps_per_sec\": 20000,"), "{line}");
        assert!(line.contains("\"sim_cycles_per_sec\": 80000,"), "{line}");
        // The schedule statistics fold the same way: 2 000 steps over 800
        // picks, 500 of them run ahead.
        assert!(line.contains("\"steps_per_pick\": 2.500,"), "{line}");
        assert!(line.contains("\"run_ahead_share\": 0.2500 }"), "{line}");
    }

    #[test]
    fn empty_results_dir_means_the_default() {
        assert_eq!(results_dir_from(None), PathBuf::from("results"));
        assert_eq!(
            results_dir_from(Some(String::new())),
            PathBuf::from("results")
        );
        assert_eq!(results_dir_from(Some(" ".into())), PathBuf::from("results"));
        assert_eq!(
            results_dir_from(Some("out/figs".into())),
            PathBuf::from("out/figs")
        );
    }

    #[test]
    fn bench_json_fails_when_the_results_dir_is_a_file() {
        // A results "directory" that is a regular file must surface as an
        // error, so a figure binary can exit non-zero instead of claiming
        // an export it never wrote.
        let file = std::env::temp_dir().join("ztm-bench-json-not-a-dir");
        std::fs::write(&file, "").unwrap();
        let written = write_bench_json(&file, "test", &[("x", 1.0)], None, None, None);
        assert!(written.is_err(), "{written:?}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn sweep_returns_input_order_for_any_thread_count() {
        let configs: Vec<usize> = (0..17).collect();
        let serial = sweep_with(1, configs.clone(), |&c| c * 3 + 1);
        assert_eq!(serial, (0..17).map(|c| c * 3 + 1).collect::<Vec<_>>());
        for threads in [2, 5, 16, 64] {
            assert_eq!(sweep_with(threads, configs.clone(), |&c| c * 3 + 1), serial);
        }
    }

    #[test]
    fn sweep_simulation_points_are_thread_count_independent() {
        let configs = vec![
            (SyncMethod::CoarseLock, 2usize),
            (SyncMethod::Tbegin, 2),
            (SyncMethod::Tbeginc, 3),
        ];
        let key = |r: &WorkloadReport| (r.throughput().to_bits(), r.system.steps);
        let serial: Vec<_> = sweep_with(1, configs.clone(), |&(m, n)| run_pool(m, n, 4, 1, 7))
            .iter()
            .map(key)
            .collect();
        let parallel: Vec<_> = sweep_with(4, configs, |&(m, n)| run_pool(m, n, 4, 1, 7))
            .iter()
            .map(key)
            .collect();
        assert_eq!(serial, parallel);
    }
}
