//! The §IV program skeleton shared by every workload, and its measurement.
//!
//! Every workload program follows the paper's §IV methodology, and the
//! emitters here are the only place it is written down:
//!
//! * [`op_loop`] wraps one operation in the per-CPU loop: **R6** counts the
//!   operations left (`BRCTG`), **R15** the operations done, and the loop
//!   head is the label `op_loop`;
//! * [`timed`] brackets the measured section: the time of each operation is
//!   taken "between each lock/tbegin and unlock/tend" with the clock (our
//!   `RDCLK` stands in for Store Clock Fast) into **R12**/**R13** and
//!   accumulated in **R14**. Random-number generation stays outside the
//!   bracket (the `RAND` pseudo-instruction costs zero cycles anyway);
//! * `emit_locked` is the test-and-test-and-set lock of the locked
//!   baselines, and [`emit_tx_with_fallback`] the Figure 1 elision ladder
//!   whose fallback path is that lock. Both wait for a held lock in the one
//!   spin loop (`LTG`/`JZ`/`DELAY 24`/`J`, probing into **R1**); the lock
//!   word is taken with `CSG` in **R2**/**R3**;
//! * [`run`] loads a program on every CPU, points each CPU's bump pointer
//!   **R7** at its own `ARENA_SIZE` arena when the workload allocates,
//!   runs to completion and collects a [`WorkloadReport`].
//!
//! Throughput is `CPUs / average-time-per-update`, normalized to 100 for a
//! reference run (2 CPUs updating a single variable from a pool of 1).

use ztm_core::TbeginParams;
use ztm_isa::gr::{R0, R1, R12, R13, R14, R15, R2, R3, R6, R7};
use ztm_isa::{Assembler, MemOperand, Program, Reg};
use ztm_sim::{System, SystemReport};

/// Loop counter: operations remaining.
const OPS_LEFT: Reg = R6;
/// Accumulated in-section cycles.
const OP_CYCLES: Reg = R14;
/// Completed operations.
const OPS_DONE: Reg = R15;
/// Timestamp scratch (start).
const T_START: Reg = R12;
/// Timestamp scratch (end).
const T_END: Reg = R13;

/// Bytes of each CPU's private bump-allocation arena (see [`run`]).
pub(crate) const ARENA_SIZE: u64 = 0x10_0000;

/// Assembles the per-CPU operation loop around `op`, which emits one
/// operation: untimed set-up, a [`timed`] section, and any untimed
/// bookkeeping after it. It may branch back to the label `op_loop` to
/// start the operation over. The program runs `ops_per_cpu` operations and
/// halts.
pub fn op_loop(ops_per_cpu: u64, op: impl FnOnce(&mut Assembler)) -> Program {
    let mut a = Assembler::new(0);
    a.lghi(OPS_LEFT, ops_per_cpu as i64);
    a.lghi(OP_CYCLES, 0);
    a.lghi(OPS_DONE, 0);
    a.label("op_loop");
    op(&mut a);
    a.aghi(OPS_DONE, 1);
    a.brctg(OPS_LEFT, "op_loop");
    a.halt();
    a.assemble().expect("workload program assembles")
}

/// Emits `section` between two clock reads and adds the elapsed cycles to
/// the per-CPU total.
pub fn timed(a: &mut Assembler, section: impl FnOnce(&mut Assembler)) {
    a.rdclk(T_START);
    section(a);
    a.rdclk(T_END);
    a.sgr(T_END, T_START);
    a.agr(OP_CYCLES, T_END);
}

/// The wait for a held lock: at label `wait`, probes `lock` into R1 and
/// jumps to `free` once it reads zero, pausing 24 cycles between probes to
/// cut coherence traffic.
fn emit_spin(a: &mut Assembler, wait: &str, lock: MemOperand, free: &str) {
    a.label(wait);
    a.ltg(R1, lock);
    a.jz(free);
    a.delay(24);
    a.j(wait);
}

/// Emits a test-and-test-and-set critical section: spin until `lock` reads
/// free, take it with `CSG` (back to the spin if another CPU won), run
/// `body`, then release the lock with a plain store. Labels are prefixed
/// with `p`; R1–R3 are clobbered.
pub(crate) fn emit_locked(
    a: &mut Assembler,
    p: &str,
    lock: MemOperand,
    body: impl FnOnce(&mut Assembler),
) {
    let acquire = format!("{p}_acq");
    let take = format!("{p}_try");
    emit_spin(a, &acquire, lock, &take);
    a.label(&take);
    a.lghi(R2, 0);
    a.lghi(R3, 1);
    a.csg(R2, R3, lock);
    a.jnz(&acquire);
    body(a);
    a.lghi(R2, 0);
    a.stg(R2, lock);
}

/// Emits the Figure 1 lock-elision ladder shared by every TBEGIN workload:
/// a transaction that tests the elided `lock` (aborting with code 256 while
/// it is held), a retry loop with `PPA` backoff that gives up after
/// `retry_limit` transient aborts (immediately on a persistent CC3 abort),
/// a wait-for-lock-free spin before each retry, and the `fallback` path.
///
/// `body` emits the critical section (runs inside the transaction, after
/// the lock test); `fallback` emits the lock-based path. Labels are
/// prefixed with `p`. R0 (retry count) and R1 (lock probe) are clobbered.
pub fn emit_tx_with_fallback<B, F>(
    a: &mut Assembler,
    p: &str,
    lock: MemOperand,
    retry_limit: i64,
    body: B,
    fallback: F,
) where
    B: FnOnce(&mut Assembler),
    F: FnOnce(&mut Assembler),
{
    a.lghi(R0, 0);
    a.label(&format!("{p}_retry"));
    a.tbegin(TbeginParams::new());
    a.jnz(&format!("{p}_abort"));
    a.ltg(R1, lock);
    a.jnz(&format!("{p}_busy"));
    body(a);
    a.tend();
    a.j(&format!("{p}_done"));
    a.label(&format!("{p}_busy"));
    a.tabort(256); // transient: retry once the lock is free
    a.label(&format!("{p}_abort"));
    a.jo(&format!("{p}_fallback")); // CC3: no retry
    a.aghi(R0, 1);
    a.cgij_ge(R0, retry_limit, &format!("{p}_fallback"));
    // Machine-tuned random delay, then Figure 1's "potentially wait for
    // lock to become free" before jumping back, so retries don't burn
    // attempts while a fallback holder is in its critical section.
    a.ppa(R0);
    emit_spin(a, &format!("{p}_wait"), lock, &format!("{p}_retry"));
    a.label(&format!("{p}_fallback"));
    fallback(a);
    a.label(&format!("{p}_done"));
}

/// Loads `prog` onto every CPU of `sys`, runs it to completion and collects
/// the measurements. With `arena_base`, CPU `i`'s bump pointer R7 starts at
/// `arena_base + i * ARENA_SIZE` (1 MiB).
///
/// # Panics
///
/// Panics if the system has not halted after 2 billion steps (contention
/// can stretch runs by orders of magnitude, but not that far).
pub fn run(sys: &mut System, prog: &Program, arena_base: Option<u64>) -> WorkloadReport {
    sys.load_program_all(prog);
    if let Some(base) = arena_base {
        for i in 0..sys.cpus() {
            sys.core_mut(i).set_gr(R7, base + i as u64 * ARENA_SIZE);
        }
    }
    sys.run_until_halt(2_000_000_000);
    WorkloadReport::collect(sys)
}

/// Per-CPU measurement extracted after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMeasurement {
    /// Operations completed by this CPU.
    pub ops: u64,
    /// Cycles spent inside timed sections.
    pub op_cycles: u64,
}

/// Results of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-CPU measurements.
    pub per_cpu: Vec<CpuMeasurement>,
    /// System-wide counters (aborts, XIs, stalls).
    pub system: SystemReport,
}

impl WorkloadReport {
    /// Reads the measurement registers of every CPU after a run.
    pub fn collect(sys: &System) -> Self {
        let per_cpu = (0..sys.cpus())
            .map(|i| CpuMeasurement {
                ops: sys.core(i).gr(OPS_DONE),
                op_cycles: sys.core(i).gr(OP_CYCLES),
            })
            .collect();
        WorkloadReport {
            per_cpu,
            system: sys.report(),
        }
    }

    /// Total committed operations.
    pub fn committed_ops(&self) -> u64 {
        self.per_cpu.iter().map(|c| c.ops).sum()
    }

    /// Average cycles per operation across CPUs (the paper's
    /// "average time per update").
    pub fn avg_op_cycles(&self) -> f64 {
        let (ops, cyc) = self
            .per_cpu
            .iter()
            .fold((0u64, 0u64), |(o, c), m| (o + m.ops, c + m.op_cycles));
        if ops == 0 {
            f64::INFINITY
        } else {
            cyc as f64 / ops as f64
        }
    }

    /// The paper's throughput metric: `CPUs / average time per update`
    /// (higher is better; unitless until normalized).
    pub fn throughput(&self) -> f64 {
        let avg = self.avg_op_cycles();
        if avg.is_finite() && avg > 0.0 {
            self.per_cpu.len() as f64 / avg
        } else {
            0.0
        }
    }

    /// Throughput normalized so that `reference` becomes 100.
    pub fn normalized_throughput(&self, reference: f64) -> f64 {
        100.0 * self.throughput() / reference
    }

    /// System-wide abort rate.
    pub fn abort_rate(&self) -> f64 {
        self.system.abort_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(per_cpu: Vec<CpuMeasurement>) -> WorkloadReport {
        WorkloadReport {
            per_cpu,
            system: SystemReport::default(),
        }
    }

    #[test]
    fn throughput_math() {
        let r = report(vec![
            CpuMeasurement {
                ops: 10,
                op_cycles: 1000,
            },
            CpuMeasurement {
                ops: 10,
                op_cycles: 3000,
            },
        ]);
        assert!((r.avg_op_cycles() - 200.0).abs() < 1e-9);
        assert!((r.throughput() - 2.0 / 200.0).abs() < 1e-12);
        assert!((r.normalized_throughput(2.0 / 200.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_has_zero_throughput() {
        let r = report(vec![CpuMeasurement {
            ops: 0,
            op_cycles: 0,
        }]);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.committed_ops(), 0);
    }
}
