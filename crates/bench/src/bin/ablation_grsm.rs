//! Ablation: the General Register Save Mask cost (§II.B/§III.B).
//!
//! "Saving only a subset of GRs during TBEGIN speeds up execution" — the
//! outermost TBEGIN is cracked into one FXU micro-op per saved pair, two
//! per cycle. This sweep measures uncontended cycles/update for 0…8 saved
//! pairs.

#![forbid(unsafe_code)]

use ztm_bench::{print_header, print_row, sweep};
use ztm_core::{GrSaveMask, TbeginParams};
use ztm_isa::{gr::*, MemOperand};
use ztm_sim::{System, SystemConfig};
use ztm_workloads::harness::{self, op_loop, timed};

fn cycles_per_update(pairs: u32) -> f64 {
    let mask = GrSaveMask::new(((1u16 << pairs) - 1) as u8);
    let var = 0x1_0000u64;
    let prog = op_loop(2_000, |a| {
        timed(a, |a| {
            a.tbegin(TbeginParams {
                grsm: mask,
                ..TbeginParams::new()
            });
            a.jnz("op_loop"); // uncontended: aborts cannot happen
            a.lg(R2, MemOperand::absolute(var));
            a.aghi(R2, 1);
            a.stg(R2, MemOperand::absolute(var));
            a.tend();
        })
    });
    let mut sys = System::new(SystemConfig::with_cpus(1));
    harness::run(&mut sys, &prog, None).avg_op_cycles()
}

fn main() {
    println!("GRSM ablation: TBEGIN cost vs saved GR pairs (1 CPU, uncontended)");
    println!();
    print_header("pairs", &["cycles/update"]);
    let results = sweep((0..=8u32).collect(), |&pairs| cycles_per_update(pairs));
    let (none, full) = (results[0], results[8]);
    for (pairs, &cycles) in results.iter().enumerate() {
        print_row(pairs, &[cycles]);
    }
    println!();
    println!(
        "saving nothing is {:.1}% faster than saving all 16 GRs (§II.B)",
        100.0 * (full / none - 1.0)
    );
}
