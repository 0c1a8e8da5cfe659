//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary line and then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when an
//! argument is bad or a check fails. `--spans-out <path>` writes the host
//! spans; `--dump-pins` prints the pinned-table rows to stderr.
//! `--rss-probe` only prints the peak resident memory of one simulation
//! (see `probe_peak_rss`); every run starts itself once that way.

use std::process::{Command, ExitCode};
use ztm_perfbench::workload::{Workload, WORKLOADS};
use ztm_perfbench::{pin_source, probe_peak_rss, run, RunConfig};

fn main() -> ExitCode {
    match parse(std::env::args().skip(1).collect()) {
        Ok((cfg, _, _, true)) => {
            println!("{}", probe_peak_rss(&cfg));
            ExitCode::SUCCESS
        }
        Ok((cfg, spans_out, dump_pins, false)) => {
            let peak_rss = match rss_probe(&cfg) {
                Ok(mb) => mb,
                Err(e) => {
                    eprintln!("perfbench: memory probe failed: {e}");
                    return ExitCode::from(2);
                }
            };
            let outcome = run(&cfg, peak_rss);
            for f in &outcome.failures {
                eprintln!("FAILED {f}");
            }
            if dump_pins {
                eprint!("{}", pin_source(&outcome));
            }
            if let Some(path) = spans_out {
                if let Err(e) = std::fs::write(&path, outcome.spans.to_json()) {
                    eprintln!("perfbench: cannot write spans to {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            println!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"segments\": {}, \"passes\": {}, \"claim\": null}}",
                cfg.workload.name(),
                cfg.seed,
                cfg.trace,
                cfg.spec.segments,
                outcome.passes.len(),
            );
            println!("{}", outcome.result_json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// Peak resident memory of one simulation, measured in a child process.
fn rss_probe(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--rss-probe", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string(), "--seconds", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("printed {text:?}, not a number"))
}

type Parsed = (RunConfig, Option<String>, bool, bool);

fn parse(args: Vec<String>) -> Result<Parsed, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let (mut spans_out, mut dump_pins, mut rss_probe) = (None, false, false);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--dump-pins" {
            dump_pins = true;
            continue;
        }
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: expected a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cfg = RunConfig {
        workload,
        spec: workload.spec(),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace,
    };
    Ok((cfg, spans_out, dump_pins, rss_probe))
}
