//! The paper's §IV variable-pool microbenchmark.
//!
//! Each CPU repeatedly picks 1 or 4 random variables from a pool (each
//! variable on its own 256-byte cache line) and increments them, protected
//! by one of the [`SyncMethod`]s: a single coarse lock, per-variable fine
//! locks, non-constrained transactions with the Figure 1 retry/fallback
//! structure, constrained transactions (Figure 3), or nothing at all.

use crate::harness::{self, emit_locked, emit_tx_with_fallback, timed, WorkloadReport};
use ztm_core::GrSaveMask;
use ztm_isa::{gr::*, Assembler, MemOperand, Program, Reg, RegOrImm};
use ztm_sim::System;

/// Memory layout of the pool benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLayout {
    /// Number of variables in the pool (1 … 10_000 in the paper).
    pub pool_size: u64,
    /// Variables updated per operation (1 or 4 in the paper).
    pub vars_per_op: usize,
    /// Base address of the pool (one variable per 256-byte line).
    pub pool_base: u64,
    /// Address of the single coarse-grained lock.
    pub coarse_lock: u64,
    /// Base address of the per-variable fine-grained locks (each on its own
    /// line, as in §IV).
    pub fine_locks_base: u64,
}

impl PoolLayout {
    /// A standard layout for the given pool size and variables per op.
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is 0 or `vars_per_op` is not 1–4.
    pub fn new(pool_size: u64, vars_per_op: usize) -> Self {
        assert!(pool_size > 0, "pool must have at least one variable");
        assert!((1..=4).contains(&vars_per_op), "1 to 4 variables per op");
        PoolLayout {
            pool_size,
            vars_per_op,
            pool_base: 0x0100_0000,
            coarse_lock: 0x0080_0000,
            fine_locks_base: 0x0800_0000,
        }
    }

    /// Address of pool variable `i`.
    pub fn var_addr(&self, i: u64) -> u64 {
        self.pool_base + i * 256
    }
}

/// The concurrency-control method under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncMethod {
    /// One lock for the whole pool.
    CoarseLock,
    /// One lock per variable (single-variable operations only — the paper
    /// uses fine locks only in Fig 5(b), sidestepping lock ordering).
    FineLock,
    /// Figure 1: TBEGIN with lock test, retry threshold 6, PPA back-off,
    /// and a coarse-lock fallback path.
    Tbegin,
    /// Figure 3: TBEGINC, no fallback path needed.
    Tbeginc,
    /// No synchronization (upper bound; loses updates under contention).
    None,
}

/// Registers holding the (scaled) variable addresses for one operation.
const ADDR_REGS: [Reg; 4] = [R8, R9, R10, R11];

/// The pool-update workload generator.
#[derive(Debug, Clone)]
pub struct PoolWorkload {
    layout: PoolLayout,
    method: SyncMethod,
    /// Whether operations read the variables instead of incrementing them
    /// (Fig 5(d) read workload).
    read_only: bool,
}

impl PoolWorkload {
    /// Creates a workload. `_seed` is reserved for layout randomization and
    /// currently unused (per-CPU randomness comes from the system's seeded
    /// RNG streams).
    pub fn new(layout: PoolLayout, method: SyncMethod, _seed: u64) -> Self {
        PoolWorkload {
            layout,
            method,
            read_only: false,
        }
    }

    /// Switches the operation from increment to read-only (Fig 5(d)).
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// The layout in use.
    pub fn layout(&self) -> &PoolLayout {
        &self.layout
    }

    /// Emits the per-variable update (or read) body given address registers.
    fn emit_body(&self, a: &mut Assembler) {
        for &r in &ADDR_REGS[..self.layout.vars_per_op] {
            if self.read_only {
                a.lg(R2, MemOperand::based(r, 0));
            } else {
                a.lg(R2, MemOperand::based(r, 0));
                a.aghi(R2, 1);
                a.stg(R2, MemOperand::based(r, 0));
            }
        }
    }

    /// Builds the benchmark program executing `ops_per_cpu` operations.
    pub fn program(&self, ops_per_cpu: u64) -> Program {
        let l = &self.layout;
        let coarse = MemOperand::absolute(l.coarse_lock);
        let body = |a: &mut Assembler| self.emit_body(a);
        harness::op_loop(ops_per_cpu, |a| {
            // Pick random distinct-ish variables and compute their
            // addresses. With a pool of 1 variable and 4 vars per op, the
            // paper uses 4 consecutive cache lines.
            for (k, &r) in ADDR_REGS[..l.vars_per_op].iter().enumerate() {
                if l.pool_size == 1 {
                    a.lghi(r, (l.var_addr(0) + k as u64 * 256) as i64);
                } else {
                    a.rand_mod(r, RegOrImm::Imm(l.pool_size));
                    if self.method == SyncMethod::FineLock {
                        // Keep the raw index for the lock address.
                        a.lgr(R5, r);
                    }
                    a.sllg(r, r, 8);
                    a.aghi(r, l.pool_base as i64);
                }
            }
            timed(a, |a| match self.method {
                SyncMethod::None => body(a),
                SyncMethod::CoarseLock => emit_locked(a, "c", coarse, body),
                SyncMethod::FineLock => {
                    assert_eq!(
                        l.vars_per_op, 1,
                        "fine-grained locking is defined for single-variable ops"
                    );
                    // Lock address = fine_locks_base + idx*256 (idx in R5;
                    // for pool of 1 the index is 0).
                    if l.pool_size == 1 {
                        a.lghi(R5, 0);
                    }
                    a.sllg(R5, R5, 8);
                    a.aghi(R5, l.fine_locks_base as i64);
                    emit_locked(a, "f", MemOperand::based(R5, 0), body);
                }
                // Figure 1 (see `emit_tx_with_fallback`).
                SyncMethod::Tbegin => emit_tx_with_fallback(a, "tx", coarse, 6, body, |a| {
                    emit_locked(a, "fb", coarse, body)
                }),
                SyncMethod::Tbeginc => {
                    // Figure 3: no lock test, no fallback path (assuming no
                    // lock-based code is mixed in, as the paper notes).
                    a.tbeginc(GrSaveMask::ALL);
                    body(a);
                    a.tend();
                }
            });
        })
    }

    /// Loads the program onto every CPU of `sys`, runs to completion, and
    /// collects the measurements.
    pub fn run(&self, sys: &mut System, ops_per_cpu: u64) -> WorkloadReport {
        harness::run(sys, &self.program(ops_per_cpu), None)
    }

    /// Sum of all pool variables (to check update counts).
    pub fn pool_sum(&self, sys: &System) -> u64 {
        (0..self.layout.pool_size)
            .map(|i| {
                sys.mem()
                    .load_u64(ztm_mem::Address::new(self.layout.var_addr(i)))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ztm_sim::SystemConfig;

    fn run(
        method: SyncMethod,
        cpus: usize,
        pool: u64,
        vars: usize,
        ops: u64,
    ) -> (WorkloadReport, u64) {
        let wl = PoolWorkload::new(PoolLayout::new(pool, vars), method, 0);
        let mut sys = System::new(SystemConfig::with_cpus(cpus));
        let rep = wl.run(&mut sys, ops);
        let sum = wl.pool_sum(&sys);
        (rep, sum)
    }

    #[test]
    fn coarse_lock_never_loses_updates() {
        let (rep, sum) = run(SyncMethod::CoarseLock, 4, 8, 1, 25);
        assert_eq!(sum, 4 * 25);
        assert_eq!(rep.committed_ops(), 100);
        assert!(rep.avg_op_cycles() > 0.0);
    }

    #[test]
    fn fine_lock_never_loses_updates() {
        let (_, sum) = run(SyncMethod::FineLock, 4, 8, 1, 25);
        assert_eq!(sum, 4 * 25);
    }

    #[test]
    fn tbegin_never_loses_updates() {
        let (rep, sum) = run(SyncMethod::Tbegin, 4, 4, 1, 25);
        assert_eq!(sum, 4 * 25, "transactions + fallback must not lose updates");
        assert_eq!(rep.committed_ops(), 100);
    }

    #[test]
    fn tbegin_four_vars_pool() {
        let (rep, sum) = run(SyncMethod::Tbegin, 3, 16, 4, 20);
        assert_eq!(sum, 3 * 20 * 4);
        assert!(rep.system.tx.commits + rep.system.tx.aborts >= 60);
    }

    #[test]
    fn tbeginc_never_loses_updates() {
        let (_, sum) = run(SyncMethod::Tbeginc, 4, 4, 1, 25);
        assert_eq!(sum, 4 * 25);
    }

    #[test]
    fn tbeginc_four_vars_respects_constraints() {
        // 4 lines = 4 octowords: exactly the constrained limit (§II.D).
        let (rep, sum) = run(SyncMethod::Tbeginc, 2, 8, 4, 20);
        assert_eq!(sum, 2 * 20 * 4);
        assert_eq!(rep.system.tx.commits, 40);
    }

    #[test]
    fn unsynchronized_loses_updates_under_contention() {
        let (_, sum) = run(SyncMethod::None, 6, 1, 1, 50);
        assert!(sum <= 6 * 50);
        // With one variable and six CPUs hammering it, losses are certain.
        assert!(sum < 6 * 50, "unsynchronized updates must race");
    }

    #[test]
    fn single_cpu_tx_beats_lock() {
        // The paper's uncontended comparison: ~30% advantage for
        // transactions from the shorter lock/release path (§IV).
        let (lock, _) = run(SyncMethod::CoarseLock, 1, 1, 1, 200);
        let (tx, _) = run(SyncMethod::Tbeginc, 1, 1, 1, 200);
        assert!(
            tx.avg_op_cycles() < lock.avg_op_cycles(),
            "tx {} vs lock {}",
            tx.avg_op_cycles(),
            lock.avg_op_cycles()
        );
    }
}
