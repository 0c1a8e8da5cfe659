//! The read-dominated workload of Fig 5(d): read-write lock vs constrained
//! transactions.
//!
//! Typical read-write locks update a shared read-count on every section
//! entry/exit; that cache line ping-pongs between CPUs and caps throughput.
//! Transactions only *read* shared state, so all readers stay in read-only
//! (shared) cache state and scale almost linearly (§IV).

use crate::harness::{self, timed, WorkloadReport};
use crate::pool::PoolLayout;
use ztm_core::GrSaveMask;
use ztm_isa::{gr::*, MemOperand, Program, Reg, RegOrImm};
use ztm_sim::System;

/// Address registers for the four variables read per operation.
const ADDR_REGS: [Reg; 4] = [R8, R9, R10, R11];

/// The reader's concurrency control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadMethod {
    /// A counting read-write lock: wait for no writer, atomically increment
    /// the reader count, read, atomically decrement.
    RwLock,
    /// A constrained transaction that just reads the variables. (The paper
    /// also checks the write-count inside the transaction; with no writers
    /// in the Fig 5(d) workload the check is dropped here to stay within
    /// the 4-octoword constrained footprint — see EXPERIMENTS.md.)
    Tbeginc,
}

/// The Fig 5(d) workload: each CPU reads 4 random variables from a pool.
#[derive(Debug, Clone)]
pub struct ReadWorkload {
    layout: PoolLayout,
    method: ReadMethod,
    /// Address of the reader count (the write flag lives 8 bytes above, on
    /// the same line — "all CPUs can share the read/write count cache
    /// line", §IV).
    pub rw_word: u64,
}

impl ReadWorkload {
    /// Creates the workload over `pool_size` variables.
    pub fn new(pool_size: u64, method: ReadMethod) -> Self {
        ReadWorkload {
            layout: PoolLayout::new(pool_size, 4),
            method,
            rw_word: 0x0040_0000,
        }
    }

    /// Builds the program executing `ops_per_cpu` read operations.
    pub fn program(&self, ops_per_cpu: u64) -> Program {
        let l = &self.layout;
        let rc = self.rw_word;
        let wflag = self.rw_word + 8;
        harness::op_loop(ops_per_cpu, |a| {
            for r in ADDR_REGS {
                a.rand_mod(r, RegOrImm::Imm(l.pool_size));
                a.sllg(r, r, 8);
                a.aghi(r, l.pool_base as i64);
            }
            timed(a, |a| match self.method {
                ReadMethod::RwLock => {
                    // Enter: no writer, then atomically bump the reader count.
                    a.label("rd_enter");
                    a.lg(R1, MemOperand::absolute(wflag));
                    a.cghi(R1, 0);
                    a.jnz("rd_enter");
                    a.lg(R2, MemOperand::absolute(rc));
                    a.label("rc_inc");
                    a.lgr(R3, R2);
                    a.aghi(R3, 1);
                    a.csg(R2, R3, MemOperand::absolute(rc));
                    a.jnz("rc_inc");
                    for r in ADDR_REGS {
                        a.lg(R2, MemOperand::based(r, 0));
                    }
                    // Leave: atomically drop the reader count.
                    a.lg(R2, MemOperand::absolute(rc));
                    a.label("rc_dec");
                    a.lgr(R3, R2);
                    a.aghi(R3, -1);
                    a.csg(R2, R3, MemOperand::absolute(rc));
                    a.jnz("rc_dec");
                }
                ReadMethod::Tbeginc => {
                    a.tbeginc(GrSaveMask::ALL);
                    for r in ADDR_REGS {
                        a.lg(R2, MemOperand::based(r, 0));
                    }
                    a.tend();
                }
            });
        })
    }

    /// Runs the workload on every CPU of `sys`.
    pub fn run(&self, sys: &mut System, ops_per_cpu: u64) -> WorkloadReport {
        harness::run(sys, &self.program(ops_per_cpu), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ztm_mem::Address;
    use ztm_sim::{System, SystemConfig};

    #[test]
    fn rwlock_readers_complete_and_balance_count() {
        let wl = ReadWorkload::new(64, ReadMethod::RwLock);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        let rep = wl.run(&mut sys, 25);
        assert_eq!(rep.committed_ops(), 100);
        assert_eq!(
            sys.mem().load_u64(Address::new(wl.rw_word)),
            0,
            "every reader decremented the count"
        );
    }

    #[test]
    fn tbeginc_readers_complete_without_aborts_from_each_other() {
        let wl = ReadWorkload::new(64, ReadMethod::Tbeginc);
        let mut cfg = SystemConfig::with_cpus(4);
        cfg.speculative_prefetch = false;
        let mut sys = System::new(cfg);
        let rep = wl.run(&mut sys, 25);
        assert_eq!(rep.committed_ops(), 100);
        assert_eq!(rep.system.tx.aborts, 0, "read sharing never conflicts");
    }

    #[test]
    fn transactional_readers_outscale_rwlock() {
        // The essence of Fig 5(d): at 8 CPUs the rwlock's read-count
        // ping-pong already costs a lot.
        let run = |method| {
            let wl = ReadWorkload::new(256, method);
            let mut sys = System::new(SystemConfig::with_cpus(8));
            wl.run(&mut sys, 30).throughput()
        };
        let lock = run(ReadMethod::RwLock);
        let tx = run(ReadMethod::Tbeginc);
        assert!(tx > lock, "tx {tx} should beat rwlock {lock}");
    }
}
