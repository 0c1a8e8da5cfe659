//! Argument parsing and run logic for the `ztm-run` command-line driver.
//!
//! Kept in a library so the parsing and report formatting are unit-testable;
//! the `ztm-run` binary is a thin wrapper.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::ExitCode;
use ztm_core::DiagnosticControl;
use ztm_sim::{System, SystemConfig};
use ztm_trace::{Metrics, Recorder, Tracer};
use ztm_workloads::bank::{Bank, BankMethod};
use ztm_workloads::dlist::{DoublyLinkedList, ListMethod};
use ztm_workloads::hashtable::{HashTable, TableMethod};
use ztm_workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};
use ztm_workloads::queue::{ConcurrentQueue, QueueMethod};
use ztm_workloads::rwlock::{ReadMethod, ReadWorkload};
use ztm_workloads::WorkloadReport;

/// Which benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Variable-pool updates (Fig 5a–c).
    Pool,
    /// Read-only pool (Fig 5d).
    Read,
    /// Lock-elided hashtable (Fig 5e).
    Hashtable,
    /// Concurrent queue (E2).
    Queue,
    /// Doubly-linked list (§II.D).
    Dlist,
    /// Bank transfers (conservation invariant).
    Bank,
}

impl Workload {
    /// The method run when `--method` is absent: `tbeginc` for the read
    /// and dlist workloads, which have no TBEGIN variant, `tbegin` for the
    /// rest.
    pub fn default_method(self) -> &'static str {
        match self {
            Workload::Read | Workload::Dlist => "tbeginc",
            _ => "tbegin",
        }
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Benchmark selection.
    pub workload: Workload,
    /// Synchronization method name (validated per workload); `None` runs
    /// the workload's [`Workload::default_method`].
    pub method: Option<String>,
    /// CPU count.
    pub cpus: usize,
    /// Operations per CPU.
    pub ops: u64,
    /// Pool/table size.
    pub pool: u64,
    /// Variables per operation (pool workload).
    pub vars: usize,
    /// RNG seed.
    pub seed: u64,
    /// Disable speculative prefetch modeling.
    pub no_prefetch: bool,
    /// Disable XI stiff-arming.
    pub no_stiff_arm: bool,
    /// Diagnostic control: None, or `random`/`always`.
    pub tdc: Option<String>,
    /// Print the execution trace of this CPU afterwards.
    pub trace_cpu: Option<usize>,
    /// Write a Chrome trace-event JSON document here.
    pub trace_out: Option<String>,
    /// Write a metrics JSON document here.
    pub metrics_out: Option<String>,
    /// Print a per-CPU measurement table.
    pub per_cpu: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: Workload::Pool,
            method: None,
            cpus: 4,
            ops: 200,
            pool: 64,
            vars: 1,
            seed: 42,
            no_prefetch: false,
            no_stiff_arm: false,
            tdc: None,
            trace_cpu: None,
            trace_out: None,
            metrics_out: None,
            per_cpu: false,
        }
    }
}

/// The `--help` text.
pub fn usage() -> String {
    "\
ztm-run — zEC12 transactional-memory simulator driver

USAGE:
    ztm-run [OPTIONS]
    ztm-run summarize-trace <path>    summarize a recorded trace file:
                                      metrics, digest check, invariant check

OPTIONS:
    --workload <pool|read|hashtable|queue|dlist|bank>   (default pool)
    --method <name>     (default tbeginc for read and dlist, tbegin otherwise)
                        pool: lock|fine|tbegin|tbeginc|none
                        read: rwlock|tbeginc    dlist: lock|tbeginc
                        hashtable: lock|elision|purestm|hybrid
                        queue: lock|tbeginc|elision|purestm|hybrid
                        bank: lock|tbegin|tbeginc|purestm|hybrid
                        (purestm = TL2 software transactions; hybrid =
                        TBEGIN fast path with software fallback)
    --cpus <n>          CPUs to simulate (default 4, max 144)
    --ops <n>           operations per CPU (default 200)
    --pool <n>          pool/table size (default 64)
    --vars <1..4>       variables per operation (default 1)
    --seed <n>          RNG seed (default 42; runs are deterministic)
    --tdc <random|always>  force random aborts (§II.E.3)
    --no-prefetch       disable speculative-fetch modeling
    --no-stiff-arm      disable XI rejection (E3 ablation)
    --trace-cpu <cpu>   print the execution trace of one CPU
    --trace <path>      record events and write a Chrome trace-event JSON
                        (load in Perfetto / chrome://tracing)
    --metrics <path>    write machine-readable metrics JSON (counters,
                        abort-code and latency histograms, trace digest)
    --per-cpu           print a per-CPU measurement table
    -h, --help          this help
"
    .into()
}

/// Parses arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// out-of-range numbers.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                o.workload = match value()?.as_str() {
                    "pool" => Workload::Pool,
                    "read" => Workload::Read,
                    "hashtable" => Workload::Hashtable,
                    "queue" => Workload::Queue,
                    "dlist" => Workload::Dlist,
                    "bank" => Workload::Bank,
                    w => return Err(format!("unknown workload `{w}`")),
                }
            }
            "--method" => o.method = Some(value()?),
            "--cpus" => {
                o.cpus = value()?
                    .parse()
                    .map_err(|_| "cpus must be a number".to_string())?;
                if o.cpus == 0 || o.cpus > 144 {
                    return Err("cpus must be 1..=144".into());
                }
            }
            "--ops" => {
                o.ops = value()?.parse().map_err(|_| "ops must be a number")?;
                if o.ops == 0 {
                    return Err("ops must be at least 1".into());
                }
            }
            "--pool" => {
                o.pool = value()?.parse().map_err(|_| "pool must be a number")?;
                if o.pool == 0 {
                    return Err("pool must be at least 1".into());
                }
            }
            "--vars" => {
                o.vars = value()?.parse().map_err(|_| "vars must be a number")?;
                if !(1..=4).contains(&o.vars) {
                    return Err("vars must be 1..=4".into());
                }
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "seed must be a number")?,
            "--tdc" => o.tdc = Some(value()?),
            "--per-cpu" => o.per_cpu = true,
            "--no-prefetch" => o.no_prefetch = true,
            "--no-stiff-arm" => o.no_stiff_arm = true,
            "--trace-cpu" => {
                o.trace_cpu = Some(
                    value()?
                        .parse()
                        .map_err(|_| "trace-cpu needs a CPU index")?,
                )
            }
            "--trace" => o.trace_out = Some(value()?),
            "--metrics" => o.metrics_out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

fn build_system(o: &Options) -> Result<System, String> {
    let mut cfg = SystemConfig::with_cpus(o.cpus).seed(o.seed);
    if o.no_prefetch {
        cfg.prefetch_probability = 0.0;
    }
    cfg.geometry.stiff_arm = !o.no_stiff_arm;
    match o.tdc.as_deref() {
        None => {}
        Some("random") => cfg.engine.diagnostic = DiagnosticControl::Random { denominator: 16 },
        Some("always") => cfg.engine.diagnostic = DiagnosticControl::AlwaysAbort { max_point: 50 },
        Some(other) => return Err(format!("unknown tdc mode `{other}`")),
    }
    Ok(System::new(cfg))
}

/// Runs the selected workload and returns the formatted report.
///
/// # Errors
///
/// Returns a message when the method name does not fit the workload, or
/// when the method cannot run with the given options.
pub fn execute(o: &Options) -> Result<String, String> {
    let mut sys = build_system(o)?;
    if let Some(cpu) = o.trace_cpu {
        if cpu >= o.cpus {
            return Err(format!("--trace-cpu {cpu} but only {} CPUs", o.cpus));
        }
        sys.set_trace(cpu, true);
    }
    let recorder = if o.trace_out.is_some() || o.metrics_out.is_some() {
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        Some(recorder)
    } else {
        None
    };
    let method = o.method.as_deref().unwrap_or(o.workload.default_method());
    let rep: WorkloadReport = match o.workload {
        Workload::Pool => {
            let method = match method {
                "lock" => SyncMethod::CoarseLock,
                "fine" => SyncMethod::FineLock,
                "tbegin" => SyncMethod::Tbegin,
                "tbeginc" => SyncMethod::Tbeginc,
                "none" => SyncMethod::None,
                m => return Err(format!("pool does not know method `{m}`")),
            };
            if method == SyncMethod::FineLock && o.vars != 1 {
                return Err("pool method `fine` needs --vars 1 (one lock per variable)".into());
            }
            let wl = PoolWorkload::new(PoolLayout::new(o.pool, o.vars), method, o.seed);
            wl.run(&mut sys, o.ops)
        }
        Workload::Read => {
            let method = match method {
                "rwlock" => ReadMethod::RwLock,
                "tbeginc" => ReadMethod::Tbeginc,
                m => return Err(format!("read does not know method `{m}`")),
            };
            ReadWorkload::new(o.pool, method).run(&mut sys, o.ops)
        }
        Workload::Hashtable => {
            let method = match method {
                "lock" => TableMethod::GlobalLock,
                "elision" | "tbegin" => TableMethod::Elision,
                "purestm" => TableMethod::PureStm,
                "hybrid" => TableMethod::HtmStmFallback,
                m => return Err(format!("hashtable does not know method `{m}`")),
            };
            let buckets = o.pool.next_power_of_two().max(16);
            let t = HashTable::new(buckets, buckets * 4, 20, method);
            t.populate(&mut sys, &(0..buckets * 2).collect::<Vec<_>>());
            t.run(&mut sys, o.ops)
        }
        Workload::Queue => {
            let method = match method {
                "lock" => QueueMethod::Lock,
                "tbeginc" => QueueMethod::Tbeginc,
                "elision" | "tbegin" => QueueMethod::Elision,
                "purestm" => QueueMethod::PureStm,
                "hybrid" => QueueMethod::HtmStmFallback,
                m => return Err(format!("queue does not know method `{m}`")),
            };
            let q = ConcurrentQueue::new(method);
            q.seed(&mut sys, o.pool.max(1));
            q.run(&mut sys, o.ops)
        }
        Workload::Dlist => {
            let method = match method {
                "lock" => ListMethod::Lock,
                "tbeginc" => ListMethod::Tbeginc,
                m => return Err(format!("dlist does not know method `{m}`")),
            };
            let l = DoublyLinkedList::new(method);
            l.seed(&mut sys, o.pool.max(1));
            l.run(&mut sys, o.ops)
        }
        Workload::Bank => {
            let method = match method {
                "lock" => BankMethod::Lock,
                "tbegin" => BankMethod::Tbegin,
                "tbeginc" => BankMethod::Tbeginc,
                "purestm" => BankMethod::PureStm,
                "hybrid" => BankMethod::HtmStmFallback,
                m => return Err(format!("bank does not know method `{m}`")),
            };
            let b = Bank::new(o.pool.max(1), method);
            b.open(&mut sys, 10_000);
            b.run(&mut sys, o.ops)
        }
    };

    let mut out = String::new();
    let r = &rep.system;
    let _ = writeln!(out, "workload          : {:?} / {method}", o.workload);
    let _ = writeln!(out, "cpus x ops        : {} x {}", o.cpus, o.ops);
    let _ = writeln!(out, "committed ops     : {}", rep.committed_ops());
    let _ = writeln!(out, "cycles/op (avg)   : {:.1}", rep.avg_op_cycles());
    let _ = writeln!(out, "throughput        : {:.6} ops/cycle", rep.throughput());
    let _ = writeln!(out, "elapsed cycles    : {}", r.elapsed_cycles);
    let _ = writeln!(out, "instructions      : {}", r.total_instructions);
    let _ = writeln!(
        out,
        "tx commits/aborts : {} / {} (abort rate {:.2}%)",
        r.tx.commits,
        r.tx.aborts,
        100.0 * r.tx.abort_rate()
    );
    if !r.tx.aborts_by_code.is_empty() {
        let _ = writeln!(out, "abort codes       : {:?}", r.tx.aborts_by_code);
    }
    if r.stm.begins > 0 {
        let _ = writeln!(
            out,
            "stm commits/aborts: {} / {} ({} validation failures)",
            r.stm.commits, r.stm.aborts, r.stm.validation_failures
        );
    }
    if r.stm.fallbacks > 0 {
        let _ = writeln!(
            out,
            "stm fallbacks     : {} (by abort code {:?})",
            r.stm.fallbacks, r.stm.fallback_codes
        );
    }
    let _ = writeln!(out, "xi [ex,dm,ro,lru] : {:?}", r.xi_counts);
    let _ = writeln!(out, "stall retries     : {}", r.stalls);
    if r.sharding.rounds > 0 {
        let s = &r.sharding;
        let _ = writeln!(
            out,
            "shard rounds      : {} (mean {:.1} steps, max {})",
            s.rounds,
            s.mean_round_steps(),
            s.round_steps_max
        );
    }
    if r.tx.broadcast_stops > 0 {
        let _ = writeln!(out, "broadcast stops   : {}", r.tx.broadcast_stops);
    }
    if o.per_cpu {
        let _ = writeln!(
            out,
            "\n{:>6} {:>10} {:>14} {:>10} {:>10}",
            "cpu", "ops", "cycles/op", "commits", "aborts"
        );
        for (i, m) in rep.per_cpu.iter().enumerate() {
            let st = sys.tx_stats(i);
            let avg = if m.ops > 0 {
                m.op_cycles as f64 / m.ops as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{i:>6} {:>10} {avg:>14.1} {:>10} {:>10}",
                m.ops, st.commits, st.aborts
            );
        }
    }
    if let Some(rec) = &recorder {
        let rec = rec.lock().unwrap();
        let _ = writeln!(
            out,
            "trace events      : {} recorded, {} dropped, digest {:#018x}",
            rec.len(),
            rec.dropped(),
            rec.digest()
        );
        if let Some(path) = &o.trace_out {
            std::fs::write(path, rec.chrome_trace_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            let _ = writeln!(out, "trace written     : {path}");
        }
        if let Some(path) = &o.metrics_out {
            std::fs::write(path, rec.metrics_json()).map_err(|e| format!("writing {path}: {e}"))?;
            let _ = writeln!(out, "metrics written   : {path}");
        }
    }
    if let Some(cpu) = o.trace_cpu {
        let _ = writeln!(out, "\n--- trace of cpu{cpu} (most recent steps) ---");
        out.push_str(&sys.trace_listing());
    }
    Ok(out)
}

/// Summarizes a recorded Chrome trace-event document: event counts, digest
/// verification, aggregated metrics, and the invariant-check verdict.
///
/// # Errors
///
/// Returns a message when the document cannot be parsed back into an event
/// stream.
pub fn summarize_trace(text: &str) -> Result<String, String> {
    let events = ztm_trace::parse_chrome_trace(text)?;
    let mut out = String::new();
    let _ = writeln!(out, "events            : {}", events.len());
    let digest = ztm_trace::digest_of(&events);
    match ztm_trace::parse_trace_digest(text) {
        Some(stored) if stored == digest => {
            let _ = writeln!(out, "digest            : {digest:#018x} (verified)");
        }
        Some(stored) => {
            // A mismatch is expected when the recorder dropped events (the
            // digest covers the full stream, the file only the retained tail).
            let _ = writeln!(
                out,
                "digest            : {digest:#018x} (file header says {stored:#018x} — \
                 stream truncated or corrupted)"
            );
        }
        None => {
            let _ = writeln!(out, "digest            : {digest:#018x} (no header digest)");
        }
    }
    if let Some((first, last)) = events.first().zip(events.last()) {
        let _ = writeln!(out, "clock span        : {} .. {}", first.clock, last.clock);
    }
    let m = Metrics::from_events(&events);
    let _ = writeln!(
        out,
        "tx begins         : {} outermost, {} nested",
        m.tx_begins, m.tx_nested_begins
    );
    let _ = writeln!(
        out,
        "tx commits/aborts : {} / {} ({} constrained aborts)",
        m.tx_commits, m.tx_aborts, m.tx_aborts_constrained
    );
    if !m.abort_codes.is_empty() {
        let _ = writeln!(out, "abort codes       : {:?}", m.abort_codes);
    }
    let _ = writeln!(
        out,
        "accesses          : {} miss / {} L1 / {} L2 ({} in tx)",
        m.accesses[0], m.accesses[1], m.accesses[2], m.tx_accesses
    );
    let _ = writeln!(
        out,
        "xi issued         : {:?} accepted {:?} rejected {:?} hangs {}",
        m.xi_issued, m.xi_accepted, m.xi_rejected, m.reject_hangs
    );
    let _ = writeln!(
        out,
        "store cache       : {} new / {} gathered / {} overflows / {} drains ({} B)",
        m.store_new, m.store_gathered, m.store_overflows, m.store_drains, m.store_drain_bytes
    );
    if m.ladder_stages > 0 {
        let _ = writeln!(
            out,
            "retry ladder      : {} stages, max attempt {}, {} no-spec, {} broadcast-stop",
            m.ladder_stages, m.ladder_max_attempt, m.ladder_disable_spec, m.ladder_broadcast_stop
        );
    }
    if m.fabric_queued > 0 {
        let _ = writeln!(
            out,
            "fabric queueing   : {} delayed transfers, {} cycles total",
            m.fabric_queued, m.fabric_queued_cycles
        );
    }
    if !m.commit_latency_log2.is_empty() {
        let _ = writeln!(out, "commit log2 lat   : {:?}", m.commit_latency_log2);
    }
    if !m.abort_latency_log2.is_empty() {
        let _ = writeln!(out, "abort log2 lat    : {:?}", m.abort_latency_log2);
    }
    match ztm_trace::check_invariants(&events) {
        Ok(()) => {
            let _ = writeln!(out, "invariants        : ok");
        }
        Err(violations) => {
            let _ = writeln!(out, "invariants        : {} VIOLATED", violations.len());
            for v in &violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
    }
    Ok(out)
}

/// Runs and prints, mapping errors to stderr and a failing exit code (used
/// by the binary).
pub fn run(o: &Options) -> ExitCode {
    match execute(o) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.cpus, 4);
        assert_eq!(o.workload, Workload::Pool);
    }

    #[test]
    fn full_flag_set_parses() {
        let o = parse_args(&args(
            "--workload bank --method tbeginc --cpus 6 --ops 10 --pool 8 --vars 2 \
             --seed 7 --tdc random --no-prefetch --no-stiff-arm --trace-cpu 1 \
             --trace t.json --metrics m.json",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::Bank);
        assert_eq!(o.method.as_deref(), Some("tbeginc"));
        assert_eq!(o.cpus, 6);
        assert_eq!(o.ops, 10);
        assert_eq!(o.pool, 8);
        assert_eq!(o.vars, 2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.tdc.as_deref(), Some("random"));
        assert!(o.no_prefetch && o.no_stiff_arm);
        assert_eq!(o.trace_cpu, Some(1));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("--cpus 0")).is_err());
        assert!(parse_args(&args("--cpus 145")).is_err());
        assert!(parse_args(&args("--vars 5")).is_err());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
        assert!(parse_args(&args("--cpus")).is_err());
    }

    #[test]
    fn rejects_zero_ops() {
        // Each workload loops on BRCTG, which decrements before it tests, so
        // a zero op count would wrap around and never halt.
        let e = parse_args(&args("--ops 0")).unwrap_err();
        assert!(e.contains("ops must be at least 1"), "{e}");
    }

    #[test]
    fn rejects_an_empty_pool() {
        let e = parse_args(&args("--pool 0")).unwrap_err();
        assert!(e.contains("pool must be at least 1"), "{e}");
    }

    #[test]
    fn rejects_fine_locking_on_multi_variable_ops() {
        let o = parse_args(&args("--method fine --vars 2 --cpus 2 --ops 5")).unwrap();
        let e = execute(&o).unwrap_err();
        assert!(e.contains("--vars 1"), "{e}");
    }

    #[test]
    fn executes_every_workload() {
        for (wl, method) in [
            ("pool", "tbegin"),
            ("pool", "tbeginc"),
            ("pool", "lock"),
            ("read", "rwlock"),
            ("read", "tbeginc"),
            ("hashtable", "elision"),
            ("hashtable", "purestm"),
            ("hashtable", "hybrid"),
            ("queue", "tbeginc"),
            ("queue", "elision"),
            ("queue", "purestm"),
            ("queue", "hybrid"),
            ("dlist", "tbeginc"),
            ("bank", "tbegin"),
            ("bank", "purestm"),
            ("bank", "hybrid"),
        ] {
            let o = parse_args(&args(&format!(
                "--workload {wl} --method {method} --cpus 2 --ops 10 --pool 8"
            )))
            .unwrap();
            let report = execute(&o).unwrap_or_else(|e| panic!("{wl}/{method}: {e}"));
            assert!(report.contains("committed ops     : 20"), "{wl}: {report}");
        }
    }

    #[test]
    fn every_workload_runs_its_default_method() {
        for wl in ["pool", "read", "hashtable", "queue", "dlist", "bank"] {
            let o = parse_args(&args(&format!(
                "--workload {wl} --cpus 2 --ops 10 --pool 8"
            )))
            .unwrap();
            let report = execute(&o).unwrap_or_else(|e| panic!("{wl}: {e}"));
            let method = o.workload.default_method();
            assert!(report.contains(&format!(" / {method}\n")), "{wl}: {report}");
            assert!(report.contains("committed ops     : 20"), "{wl}: {report}");
        }
    }

    #[test]
    fn method_validation_is_per_workload() {
        let o = parse_args(&args("--workload queue --method fine")).unwrap();
        assert!(execute(&o).is_err());
    }

    #[test]
    fn trace_output_included() {
        let o = parse_args(&args("--cpus 2 --ops 3 --trace-cpu 0")).unwrap();
        let report = execute(&o).unwrap();
        assert!(report.contains("trace of cpu0"));
        assert!(report.contains("TBEGIN"));
    }

    #[test]
    fn tdc_always_forces_fallback() {
        let o = parse_args(&args(
            "--workload pool --method tbegin --cpus 2 --ops 20 --tdc always",
        ))
        .unwrap();
        let report = execute(&o).unwrap();
        assert!(report.contains("tx commits/aborts : 0 /"), "{report}");
    }

    #[test]
    fn per_cpu_table_lists_every_cpu() {
        let o = parse_args(&args("--cpus 3 --ops 5 --per-cpu")).unwrap();
        let report = execute(&o).unwrap();
        for cpu in 0..3 {
            assert!(report.contains(&format!("\n     {cpu} ")), "{report}");
        }
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = usage();
        for flag in [
            "--per-cpu",
            "--workload",
            "--method",
            "--cpus",
            "--ops",
            "--pool",
            "--vars",
            "--seed",
            "--tdc",
            "--no-prefetch",
            "--no-stiff-arm",
            "--trace-cpu",
            "--trace",
            "--metrics",
            "summarize-trace",
        ] {
            assert!(u.contains(flag), "usage missing {flag}");
        }
    }

    #[test]
    fn trace_and_metrics_files_round_trip() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ztm-cli-test-trace.json");
        let metrics_path = dir.join("ztm-cli-test-metrics.json");
        let o = parse_args(&args(&format!(
            "--cpus 4 --ops 30 --pool 2 --trace {} --metrics {}",
            trace_path.display(),
            metrics_path.display()
        )))
        .unwrap();
        let report = execute(&o).unwrap();
        assert!(report.contains("trace events"), "{report}");

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        let summary = summarize_trace(&trace).unwrap();
        assert!(summary.contains("(verified)"), "{summary}");
        assert!(summary.contains("invariants        : ok"), "{summary}");

        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("\"commits\""), "{metrics}");
        assert!(metrics.contains("\"abort_codes\""), "{metrics}");
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn summarize_rejects_garbage() {
        // A document with a malformed enc payload must error.
        let bad = "{\"traceEvents\": [\n{\"name\": \"x\", \"ph\": \"i\", \"ts\": 1, \
                   \"pid\": 1, \"tid\": 0, \"args\": {\"enc\": \"ZZ x=1\"}}\n]}";
        assert!(summarize_trace(bad).is_err());
    }
}
