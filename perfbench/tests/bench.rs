//! The benchmark's own tests: its instruments agree with the repository's,
//! its helpers report what they claim, and its output matches
//! `BENCHMARK.json`.

use std::sync::{Mutex, MutexGuard};
use ztm_perfbench::pins::pinned;
use ztm_perfbench::spans::CountingSink;
use ztm_perfbench::spans::Spans;
use ztm_perfbench::stats::{percentile, tail, TAIL_BEYOND};
use ztm_perfbench::workload::{run_segment, Workload, BANK_INITIAL, TABLE_KEYS, WORKLOADS};
use ztm_perfbench::{run, Outcome, RunConfig};
use ztm_sim::{System, SystemConfig};
use ztm_trace::{Recorder, Tracer};
use ztm_workloads::{Bank, BankMethod, HashTable, TableMethod};

/// `ZTM_SIM_THREADS` is process-wide and the sharded replay sets it, so the
/// tests that build systems take turns.
static ENV: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(|e| e.into_inner())
}

/// A few seconds' worth of each workload, even in a debug build.
fn small(workload: Workload, trace: bool) -> RunConfig {
    let mut spec = workload.spec();
    spec.segments = 2;
    spec.setup_repeats = 1;
    spec.warmup_steps = 2_000;
    spec.chunk_steps = 1_000;
    match workload {
        Workload::Elision1 => spec.ops_per_cpu = 300,
        Workload::Elision144 => {
            spec.cpus = 12;
            spec.ops_per_cpu = 4;
        }
        Workload::StmBank36 => {
            spec.cpus = 4;
            spec.ops_per_cpu = 20;
        }
    }
    RunConfig {
        workload,
        spec,
        seed: 7,
        seconds: 0.0,
        trace,
    }
}

fn run_ok(cfg: &RunConfig) -> Outcome {
    let out = run(cfg, 1.0);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    out
}

#[test]
fn counting_sink_matches_the_recorder() {
    let _env = serial();
    let table = HashTable::new(64, 128, 50, TableMethod::Elision);
    let simulate = |tracer: Tracer| {
        let mut sys = System::new(SystemConfig::with_cpus(4).seed(3));
        sys.set_tracer(tracer);
        table.populate(&mut sys, &(0..32).collect::<Vec<_>>());
        table.run(&mut sys, 20);
    };
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    simulate(tracer);
    let (tracer, sink) = CountingSink::attach();
    simulate(tracer);
    let recorder = recorder.lock().unwrap();
    let sink = sink.lock().unwrap();
    assert!(recorder.metrics().tx_aborts > 0, "the run is contended");
    assert_eq!(sink.metrics, *recorder.metrics());
    assert_eq!(sink.digest.digest(), recorder.digest());
    assert_eq!(sink.digest.events(), recorder.metrics().events);
}

#[test]
fn percentiles_report_their_sample_count() {
    let values: Vec<f64> = (1..=25).map(f64::from).collect();
    let p50 = percentile(&values, 50.0);
    assert_eq!((p50.value, p50.samples, p50.beyond), (13.0, 25, 12));
    let t = tail(&values).expect("25 samples leave room for a tail");
    assert_eq!((t.value, t.samples, t.beyond), (15.0, 25, TAIL_BEYOND));
    assert_eq!(t.pct, 60.0);
    assert!(tail(&values[..TAIL_BEYOND]).is_none());
}

#[test]
fn segments_reproduce_the_workloads_own_runs() {
    let _env = serial();
    let mut spans = Spans::new(false);
    let cfg = small(Workload::Elision144, false);
    let seg = run_segment(&cfg.spec, 0, 11, false, &mut spans);
    let mut sys = System::new({
        let mut c = SystemConfig::with_cpus(cfg.spec.cpus).seed(11);
        c.topology = ztm_cache::Topology::zec12(cfg.spec.cpus);
        c
    });
    let table = HashTable::new(512, 2048, 20, TableMethod::Elision);
    table.populate(&mut sys, &(0..TABLE_KEYS).collect::<Vec<_>>());
    let rep = table.run(&mut sys, cfg.spec.ops_per_cpu);
    assert_eq!(seg.sim.instructions, rep.system.total_instructions);
    assert_eq!(seg.sim.cycles, rep.system.elapsed_cycles);
    assert_eq!(seg.sim.tx_aborts, rep.system.tx.aborts);
    assert_eq!(seg.sim.ops, rep.committed_ops());

    let cfg = small(Workload::StmBank36, false);
    let seg = run_segment(&cfg.spec, 0, 12, false, &mut spans);
    let mut sys = System::new(SystemConfig::with_cpus(cfg.spec.cpus).seed(12));
    let bank = Bank::new(64, BankMethod::PureStm);
    bank.open(&mut sys, BANK_INITIAL);
    let rep = bank.run(&mut sys, cfg.spec.ops_per_cpu);
    assert_eq!(seg.sim.instructions, rep.system.total_instructions);
    assert_eq!(seg.sim.cycles, rep.system.elapsed_cycles);
    assert_eq!(seg.sim.stm_commits, rep.system.stm.commits);
    assert!(seg.check.is_ok(), "{:?}", seg.check);
}

#[test]
fn ratio_metrics_report_their_base() {
    let _env = serial();
    for w in WORKLOADS {
        let out = run_ok(&small(w, true));
        assert!(!out.metrics.ratios.is_empty());
        for (ratio, base) in &out.metrics.ratios {
            assert!(out.metrics.get(ratio).is_some(), "{ratio} not reported");
            assert!(
                out.metrics.get(base).is_some(),
                "{ratio}: base {base} not reported"
            );
        }
    }
}

#[test]
fn traced_runs_agree_with_untraced_and_sharded_runs() {
    let _env = serial();
    let out = run_ok(&small(Workload::Elision144, true));
    assert_eq!(out.passes.len(), 2);
    let sharded = out.sharded.as_ref().expect("elision-144 replays sharded");
    assert_eq!(sharded.sim, out.passes[0][0].sim);
    assert!(
        out.metrics.get("shard.rounds").unwrap() > 0.0,
        "sharding engaged"
    );
    assert!(out.metrics.get("tx.begins").unwrap() > 0.0);
    // Bypassed layers report zero.
    let out = run_ok(&small(Workload::StmBank36, true));
    for name in ["tx.begins", "shard.rounds", "millicode.ladder_stages"] {
        assert_eq!(out.metrics.get(name), Some(0.0), "{name}");
    }
    assert!(out.metrics.get("stm.commits").unwrap() > 0.0);
}

#[test]
fn every_pinned_workload_pins_every_segment() {
    for w in WORKLOADS {
        let pins = pinned(w);
        assert_eq!(pins.len(), w.spec().segments, "{}", w.name());
        assert!(pins.iter().all(|p| p.sim.ops == w.spec().total_ops()));
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn output_lists_exactly_the_benchmark_json_metrics() {
    let _env = serial();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = run_ok(&small(Workload::Elision1, trace));
        let names: Vec<String> = out.metrics.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, listed(section), "{section}");
    }
    let names: Vec<String> = listed("workloads");
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
