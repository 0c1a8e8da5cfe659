//! `ztm-run` — command-line driver for the zEC12 transactional-memory simulator.
//!
//! ```text
//! ztm-run --workload pool --method tbegin --cpus 8 --pool 100 --vars 4 --ops 500
//! ztm-run --cpus 8 --trace run.json --metrics run-metrics.json
//! ztm-run summarize-trace run.json
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use ztm_cli::{parse_args, run, summarize_trace, usage};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("summarize-trace") {
        let Some(path) = args.get(1) else {
            eprintln!("error: summarize-trace needs a trace file path");
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match summarize_trace(&text) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&args) {
        Ok(opts) => run(&opts),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
    }
}
