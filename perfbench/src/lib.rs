//! Host-speed benchmark of the ztm simulator.
//!
//! A run simulates a few fresh systems (segments) of one workload, each from
//! its own seed derived from the run's seed. Every segment is built (timed
//! as set-up), warmed up untimed, then stepped to completion in fixed-size
//! timed `step_many` chunks, and its outputs are checked. Untraced runs
//! repeat the pass over the segments until `--seconds` of stepping have been
//! timed and report the end-to-end metrics; a traced run does one untraced
//! and one traced pass over the same segments and reports the per-layer
//! metrics. See `NOTES.md` for the metric definitions and the layer map.

pub mod pins;
pub mod spans;
pub mod stats;
pub mod workload;

use std::fmt::Write as _;
use std::time::Duration;

use spans::Spans;
use stats::{median, percentile, ratio, tail};
use workload::{run_segment, run_sharded, Segment, Spec, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The metrics of one run, in report order, plus the base of every ratio.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    /// Every metric.
    pub metrics: Vec<Metric>,
    /// `(ratio, base)`: each ratio metric and the metric it divides by.
    pub ratios: Vec<(String, String)>,
}

impl MetricSet {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Pushes `num / den` and records `base`, which must already be
    /// reported, as the value the ratio divides by.
    fn push_ratio(&mut self, name: &str, num: f64, den: f64, unit: &'static str, base: &str) {
        assert!(
            self.get(base).is_some(),
            "ratio {name} needs its base {base} reported first"
        );
        self.push(name, ratio(num, den), unit);
        self.ratios.push((name.to_string(), base.to_string()));
    }

    /// The value of a reported metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run simulates and measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload (names the pinned values).
    pub workload: Workload,
    /// Its shape; tests and tuning may shrink it.
    pub spec: Spec,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds of timed stepping to aim for (untraced runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Segments simulated.
    pub attempted: u64,
    /// Segments that failed a check.
    pub failed: u64,
    /// What failed, one line per failing segment.
    pub failures: Vec<String>,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: MetricSet,
    /// Passes over the segments.
    pub passes: Vec<Vec<Segment>>,
    /// The traced run's sharded replay of the first segment, if any.
    pub sharded: Option<Segment>,
    /// Host spans of every call into the simulator.
    pub spans: Spans,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Upper bound on passes, whatever `--seconds` asks for.
const MAX_PASSES: usize = 64;

/// Segment seeds derived from the workload seed (SplitMix64).
pub fn segment_seeds(seed: u64, segments: usize) -> Vec<u64> {
    let mut state = seed;
    (0..segments)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Runs the benchmark; `peak_rss` is the `peak_rss_mb` to report.
pub fn run(cfg: &RunConfig, peak_rss: f64) -> Outcome {
    let seeds = segment_seeds(cfg.seed, cfg.spec.segments);
    let mut spans = Spans::new(cfg.trace);
    let run_pass = |traced: bool, spans: &mut Spans| -> Vec<Segment> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| run_segment(&cfg.spec, i, seed, traced, spans))
            .collect()
    };
    let mut passes = vec![run_pass(false, &mut spans)];
    let mut sharded = None;
    if cfg.trace {
        passes.push(run_pass(true, &mut spans));
        if cfg.spec.shard_threads > 0 {
            sharded = Some(run_sharded(&cfg.spec, 0, seeds[0], &mut spans));
        }
    } else {
        // Whole passes only, stopping where one more would overshoot the
        // target by more than it would leave it short.
        let pass_secs = |p: &Vec<Segment>| p.iter().map(|s| secs(s.timed)).sum::<f64>();
        let mut timed = pass_secs(&passes[0]);
        while passes.len() < MAX_PASSES && timed + pass_secs(&passes[0]) / 2.0 < cfg.seconds {
            passes.push(run_pass(false, &mut spans));
            timed += pass_secs(passes.last().expect("a pass ran"));
        }
    }

    let failures = failures(cfg, &passes, sharded.as_ref());
    let metrics = if cfg.trace {
        layer_metrics(
            &cfg.spec,
            &passes[0],
            &passes[1],
            sharded.as_ref(),
            peak_rss,
        )
    } else {
        end_to_end_metrics(&cfg.spec, &passes, peak_rss)
    };
    Outcome {
        attempted: passes.iter().map(|p| p.len() as u64).sum::<u64>() + sharded.is_some() as u64,
        failed: failures.len() as u64,
        failures,
        metrics,
        passes,
        sharded,
        spans,
    }
}

/// One line per failing segment: its own check, agreement with the first
/// pass (repeats, the traced pass and the sharded replay must reproduce
/// it), and the pinned values on the default seed.
fn failures(cfg: &RunConfig, passes: &[Vec<Segment>], sharded: Option<&Segment>) -> Vec<String> {
    let pins = if cfg.seed == pins::DEFAULT_SEED && cfg.spec == cfg.workload.spec() {
        pins::pinned(cfg.workload)
    } else {
        &[]
    };
    let mut out = Vec::new();
    let labelled = passes
        .iter()
        .enumerate()
        .flat_map(|(p, pass)| pass.iter().map(move |seg| (format!("pass {p}"), seg)))
        .chain(sharded.map(|seg| ("sharded replay".to_string(), seg)));
    for (label, seg) in labelled {
        let mut problems = Vec::new();
        if let Err(e) = &seg.check {
            problems.push(e.clone());
        }
        if seg.sim != passes[0][seg.index].sim {
            problems.push(format!(
                "outcome {:?} differs from the first pass's {:?}",
                seg.sim, passes[0][seg.index].sim
            ));
        }
        if let Some(pin) = pins.get(seg.index) {
            if seg.sim != pin.sim {
                problems.push(format!(
                    "outcome {:?} is not the pinned {:?}",
                    seg.sim, pin.sim
                ));
            }
            if let Some(t) = &seg.trace {
                if t.digest != pin.digest {
                    problems.push(format!(
                        "digest {:#018x} is not the pinned {:#018x}",
                        t.digest, pin.digest
                    ));
                }
            }
        }
        if !problems.is_empty() {
            out.push(format!(
                "{label} segment {} (seed {:#x}): {}",
                seg.index,
                seg.seed,
                problems.join("; ")
            ));
        }
    }
    out
}

/// Runs the first segment once, with a single set-up, as one simulation
/// would, and returns the peak resident memory of this process. Called in
/// a fresh process: in the benchmark's own process the peak also carries
/// the heap that rebuilt systems leave behind, which varies by 4–5 MB from
/// run to run.
pub fn probe_peak_rss(cfg: &RunConfig) -> f64 {
    let spec = Spec {
        setup_repeats: 1,
        ..cfg.spec
    };
    let seed = segment_seeds(cfg.seed, 1)[0];
    run_segment(&spec, 0, seed, false, &mut Spans::new(false));
    peak_rss_mb()
}

/// Peak resident memory of this process so far in MB (10^6 bytes), from
/// `/proc/self/status`; zero where that is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Host seconds segment `i` takes undisturbed: every chunk is the same
/// simulated work in every pass, so each chunk counts with the fastest time
/// any pass took for it (min-of-N per chunk).
fn undisturbed_secs(passes: &[Vec<Segment>], i: usize) -> f64 {
    (0..passes[0][i].chunks.len())
        .map(|c| {
            passes
                .iter()
                .filter_map(|p| p[i].chunks.get(c))
                .map(|t| secs(*t))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// `minstr_per_s`, `setup_s`, `peak_rss_mb`, `sim_ops_per_kcycle`.
fn end_to_end_metrics(spec: &Spec, passes: &[Vec<Segment>], peak_rss: f64) -> MetricSet {
    let first = &passes[0];
    let instructions: u64 = first.iter().map(|s| s.timed_instructions).sum();
    let timed: f64 = (0..first.len()).map(|i| undisturbed_secs(passes, i)).sum();
    // Per segment, the median set-up over passes; summed over segments.
    let setup: f64 = (0..spec.segments)
        .map(|i| {
            let v: Vec<f64> = passes.iter().map(|p| secs(p[i].setup.total())).collect();
            median(&v)
        })
        .sum();
    let ops: u64 = first.iter().map(|s| s.sim.ops).sum();
    let cycles: u64 = first.iter().map(|s| s.sim.cycles).sum();
    let mut m = MetricSet::default();
    m.push(
        "minstr_per_s",
        ratio(instructions as f64, timed) / 1e6,
        "Minstr/s",
    );
    m.push("setup_s", setup, "s");
    m.push("peak_rss_mb", peak_rss, "MB");
    m.push(
        "sim_ops_per_kcycle",
        ratio(ops as f64 * 1000.0, cycles as f64),
        "ops/kcycle",
    );
    m
}

/// The per-layer metrics: host-time figures from the untraced pass, event
/// counts from the traced pass over the same segments.
fn layer_metrics(
    spec: &Spec,
    plain: &[Segment],
    traced: &[Segment],
    sharded: Option<&Segment>,
    peak_rss: f64,
) -> MetricSet {
    let sum = |f: &dyn Fn(&Segment) -> f64| plain.iter().map(f).sum::<f64>();
    let ev = |f: &dyn Fn(&ztm_trace::Metrics) -> u64| {
        traced
            .iter()
            .map(|s| f(&s.trace.as_ref().expect("traced pass").metrics) as f64)
            .sum::<f64>()
    };
    let ms = |f: fn(&Segment) -> Duration| sum(&|s| secs(f(s)) * 1e3);
    let mut m = MetricSet::default();

    // ztm-workloads / ztm-isa / ztm-sim set-up.
    m.push("workloads.program_ms", ms(|s| s.setup.program), "ms");
    m.push("sim.system_new_ms", ms(|s| s.setup.system_new), "ms");
    m.push("workloads.populate_ms", ms(|s| s.setup.populate), "ms");

    // ztm-sim stepping.
    let steps = sum(&|s| s.report.steps as f64);
    let instructions = sum(&|s| s.sim.instructions as f64);
    let cycles = sum(&|s| s.sim.cycles as f64);
    let timed_steps = sum(&|s| s.timed_steps as f64);
    let timed_ns = sum(&|s| secs(s.timed) * 1e9);
    m.push("sim.cpus", spec.cpus as f64, "count");
    m.push("sim.steps", steps, "count");
    m.push("sim.instructions", instructions, "count");
    m.push("sim.cycles", cycles, "cycles");
    m.push("sim.timed_steps", timed_steps, "count");
    m.push_ratio(
        "sim.ns_per_step",
        timed_ns,
        timed_steps,
        "ns/step",
        "sim.timed_steps",
    );
    let chunk_us: Vec<f64> = plain
        .iter()
        .flat_map(|s| s.chunks.iter().map(|c| secs(*c) * 1e6))
        .collect();
    m.push("sim.chunks", chunk_us.len() as f64, "count");
    let (p50, tail) = if chunk_us.is_empty() {
        (0.0, None)
    } else {
        (percentile(&chunk_us, 50.0).value, tail(&chunk_us))
    };
    m.push("sim.chunk_p50_us", p50, "us");
    m.push("sim.chunk_tail_us", tail.map_or(0.0, |t| t.value), "us");
    m.push("sim.chunk_tail_pct", tail.map_or(0.0, |t| t.pct), "pct");
    m.push_ratio(
        "sim.steps_per_instr",
        steps,
        instructions,
        "steps/instr",
        "sim.instructions",
    );
    m.push_ratio(
        "sim.superblock_share",
        sum(&|s| s.superblock_steps as f64),
        steps,
        "share",
        "sim.steps",
    );
    let accesses = ev(&|x| x.accesses.iter().sum());
    m.push("cache.accesses", accesses, "count");
    m.push_ratio(
        "sim.coalesced_share",
        sum(&|s| s.report.coalesced_accesses as f64),
        accesses,
        "share",
        "cache.accesses",
    );
    m.push_ratio("sim.ipc", instructions, cycles, "instr/cycle", "sim.cycles");

    // ztm-cache: private cache and store cache.
    m.push_ratio(
        "cache.accesses_per_instr",
        accesses,
        instructions,
        "access/instr",
        "sim.instructions",
    );
    for (name, level) in [
        ("cache.miss_share", 0),
        ("cache.l1_hit_share", 1),
        ("cache.l2_hit_share", 2),
    ] {
        m.push_ratio(
            name,
            ev(&|x| x.accesses[level]),
            accesses,
            "share",
            "cache.accesses",
        );
    }
    m.push("cache.installs", ev(&|x| x.installs), "count");
    m.push("cache.l1_evictions", ev(&|x| x.evictions[1]), "count");
    m.push("cache.l2_evictions", ev(&|x| x.evictions[2]), "count");
    m.push("store.gathered", ev(&|x| x.store_gathered), "count");
    m.push("store.new_entries", ev(&|x| x.store_new), "count");
    m.push("store.drains", ev(&|x| x.store_drains), "count");
    m.push("store.overflows", ev(&|x| x.store_overflows), "count");

    // ztm-cache: fabric.
    let xi_issued = ev(&|x| x.xi_issued.iter().sum());
    m.push("fabric.xi_issued", xi_issued, "count");
    m.push_ratio(
        "fabric.xi_reject_share",
        ev(&|x| x.xi_rejected.iter().sum()),
        xi_issued,
        "share",
        "fabric.xi_issued",
    );
    m.push("fabric.reject_hangs", ev(&|x| x.reject_hangs), "count");
    m.push(
        "fabric.stall_steps",
        sum(&|s| s.report.stalls as f64),
        "count",
    );
    m.push(
        "fabric.queued_cycles",
        ev(&|x| x.fabric_queued_cycles),
        "cycles",
    );

    // ztm-core: transaction engine and millicode.
    let tx_begins = ev(&|x| x.tx_begins);
    let tx_commits = ev(&|x| x.tx_commits);
    m.push("tx.begins", tx_begins, "count");
    m.push("tx.commits", tx_commits, "count");
    m.push_ratio(
        "tx.commit_share",
        tx_commits,
        tx_begins,
        "share",
        "tx.begins",
    );
    m.push_ratio(
        "tx.aborts_per_commit",
        ev(&|x| x.tx_aborts),
        tx_commits,
        "aborts/commit",
        "tx.commits",
    );
    m.push("millicode.ladder_stages", ev(&|x| x.ladder_stages), "count");
    m.push(
        "millicode.broadcast_stops",
        ev(&|x| x.ladder_broadcast_stop),
        "count",
    );

    // ztm-stm.
    let stm_begins = ev(&|x| x.stm_begins);
    let stm_commits = ev(&|x| x.stm_commits);
    m.push("stm.begins", stm_begins, "count");
    m.push("stm.commits", stm_commits, "count");
    m.push_ratio(
        "stm.commit_share",
        stm_commits,
        stm_begins,
        "share",
        "stm.begins",
    );
    m.push(
        "stm.validation_failures",
        ev(&|x| x.stm_validation_failures),
        "count",
    );
    m.push_ratio(
        "stm.lock_acquires_per_commit",
        ev(&|x| x.stm_lock_acquires),
        stm_commits,
        "locks/commit",
        "stm.commits",
    );
    m.push_ratio(
        "stm.instr_per_commit",
        instructions,
        stm_commits,
        "instr/commit",
        "stm.commits",
    );

    // ztm-sim shard layer, from the sharded replay of the first segment
    // (all zero where there is none).
    let shard = |f: fn(&ztm_sim::ShardingStats) -> u64| {
        sharded.map_or(0.0, |s| f(&s.report.sharding) as f64)
    };
    let ns_per_step = |s: &Segment| ratio(secs(s.timed) * 1e9, s.timed_steps as f64);
    m.push("shard.threads", spec.shard_threads as f64, "count");
    m.push(
        "shard.replay_steps",
        sharded.map_or(0.0, |s| s.report.steps as f64),
        "count",
    );
    m.push_ratio(
        "shard.speedup",
        ns_per_step(&plain[0]),
        sharded.map_or(0.0, ns_per_step),
        "x",
        "sim.ns_per_step",
    );
    let rounds = shard(|x| x.rounds);
    m.push("shard.rounds", rounds, "count");
    m.push_ratio(
        "shard.mean_round_steps",
        shard(|x| x.local_steps),
        rounds,
        "steps/round",
        "shard.rounds",
    );
    m.push("shard.rollbacks", shard(|x| x.rollbacks), "count");
    m.push_ratio(
        "shard.replayed_share",
        shard(|x| x.replayed),
        sharded.map_or(0.0, |s| s.report.steps as f64),
        "share",
        "shard.replay_steps",
    );
    let window_cpus = shard(|x| x.window_cpus);
    m.push("shard.window_cpus", window_cpus, "count");
    m.push_ratio(
        "shard.window_mean",
        shard(|x| x.window_sum),
        window_cpus,
        "cycles",
        "shard.window_cpus",
    );
    m.push("shard.window_clamped", shard(|x| x.window_clamped), "count");

    // ztm-trace.
    let events = ev(&|x| x.events);
    m.push("trace.events", events, "count");
    m.push_ratio(
        "trace.events_per_step",
        events,
        steps,
        "events/step",
        "sim.steps",
    );
    let traced_ns_per_step = ratio(
        traced.iter().map(|s| secs(s.timed) * 1e9).sum(),
        traced.iter().map(|s| s.timed_steps as f64).sum(),
    );
    let plain_ns_per_step = ratio(timed_ns, timed_steps);
    m.push_ratio(
        "trace.overhead_share",
        traced_ns_per_step - plain_ns_per_step,
        plain_ns_per_step,
        "share",
        "sim.ns_per_step",
    );

    // ztm-mem: host memory.
    m.push_ratio(
        "mem.rss_mb_per_cpu",
        peak_rss,
        spec.cpus as f64,
        "MB/cpu",
        "sim.cpus",
    );
    m
}

/// Rust source for the pinned table of a default-seed traced run.
pub fn pin_source(outcome: &Outcome) -> String {
    let mut s = String::new();
    for seg in outcome.passes.last().expect("a pass ran") {
        let digest = seg.trace.as_ref().map_or(0, |t| t.digest);
        let x = &seg.sim;
        let _ = writeln!(
            s,
            "    pin({}, {}, {}, {}, {}, {:?}, {}, {:#018x}),",
            x.ops, x.instructions, x.cycles, x.tx_commits, x.tx_aborts, x.xi, x.stm_commits, digest
        );
    }
    s
}
