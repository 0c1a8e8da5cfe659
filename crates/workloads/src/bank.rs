//! A bank-transfer workload: the classic transactional-memory consistency
//! benchmark, used here to stress multi-line atomicity with an invariant
//! that any isolation bug destroys immediately.
//!
//! Each operation moves a random amount between two random accounts. The
//! global invariant — the sum of all balances never changes — holds only if
//! every debit+credit pair is atomic and isolated.

use crate::harness::{self, emit_locked, emit_tx_with_fallback, timed, WorkloadReport};
use ztm_core::GrSaveMask;
use ztm_isa::{gr::*, Assembler, MemOperand, Program, RegOrImm};
use ztm_mem::Address;
use ztm_sim::System;
use ztm_stm::{HtmBody, Stm, TxBody};

/// Synchronization of the transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankMethod {
    /// One global lock around every transfer.
    Lock,
    /// Each transfer is one constrained transaction (2 accounts = 2
    /// octowords, well within the §II.D budget).
    Tbeginc,
    /// Figure 1 TBEGIN with retry threshold and the global lock as
    /// fallback.
    Tbegin,
    /// Every transfer is a TL2 software transaction ([`ztm_stm`]).
    PureStm,
    /// TBEGIN fast path subscribing to the TL2 stripe locks, falling back
    /// to the software path after the retry budget.
    HtmStmFallback,
}

/// The bank: `accounts` balances, each on its own cache line.
#[derive(Debug, Clone)]
pub struct Bank {
    /// Number of accounts.
    pub accounts: u64,
    method: BankMethod,
    base: u64,
    lock: u64,
    stm: Stm,
}

impl Bank {
    /// Creates a bank description.
    ///
    /// # Panics
    ///
    /// Panics if `accounts` is zero.
    pub fn new(accounts: u64, method: BankMethod) -> Self {
        assert!(accounts > 0);
        Bank {
            accounts,
            method,
            base: 0x5000_0000,
            lock: 0x5000_0000 - 256,
            stm: Stm::new(),
        }
    }

    /// Deposits `initial` into every account host-side.
    pub fn open(&self, sys: &mut System, initial: u64) {
        for i in 0..self.accounts {
            sys.mem_mut()
                .store_u64(Address::new(self.base + i * 256), initial);
        }
    }

    /// Sum of all balances.
    pub fn total(&self, sys: &System) -> u64 {
        (0..self.accounts)
            .map(|i| sys.mem().load_u64(Address::new(self.base + i * 256)))
            .sum()
    }

    /// Emits one transfer: R8 → debit account address, R9 → credit account
    /// address, R10 → amount.
    fn emit_transfer(&self, a: &mut Assembler) {
        a.lg(R2, MemOperand::based(R8, 0));
        a.sgr(R2, R10);
        a.stg(R2, MemOperand::based(R8, 0));
        a.lg(R2, MemOperand::based(R9, 0));
        a.agr(R2, R10);
        a.stg(R2, MemOperand::based(R9, 0));
    }

    /// The transfer as a TL2 software-transaction body.
    fn emit_transfer_stm(&self, tx: &mut TxBody) {
        tx.read(R2, R8);
        tx.asm().sgr(R2, R10);
        tx.write(R2, R8);
        tx.read(R2, R9);
        tx.asm().agr(R2, R10);
        tx.write(R2, R9);
    }

    /// The transfer on the hybrid hardware fast path.
    fn emit_transfer_htm(&self, h: &mut HtmBody) {
        h.read(R2, R8);
        h.asm().sgr(R2, R10);
        h.write(R2, R8);
        h.read(R2, R9);
        h.asm().agr(R2, R10);
        h.write(R2, R9);
    }

    /// Builds the transfer program.
    pub fn program(&self, ops_per_cpu: u64) -> Program {
        let lock = MemOperand::absolute(self.lock);
        let transfer = |a: &mut Assembler| self.emit_transfer(a);
        harness::op_loop(ops_per_cpu, |a| {
            a.rand_mod(R8, RegOrImm::Imm(self.accounts));
            a.rand_mod(R9, RegOrImm::Imm(self.accounts));
            a.rand_mod(R10, RegOrImm::Imm(100)); // amount
            a.sllg(R8, R8, 8);
            a.aghi(R8, self.base as i64);
            a.sllg(R9, R9, 8);
            a.aghi(R9, self.base as i64);
            timed(a, |a| match self.method {
                BankMethod::Lock => emit_locked(a, "bk", lock, transfer),
                BankMethod::Tbeginc => {
                    a.tbeginc(GrSaveMask::ALL);
                    transfer(a);
                    a.tend();
                }
                BankMethod::Tbegin => emit_tx_with_fallback(a, "tx", lock, 6, transfer, |a| {
                    emit_locked(a, "fb", lock, transfer)
                }),
                BankMethod::PureStm => {
                    self.stm
                        .emit_tx(a, "st", &[], |tx| self.emit_transfer_stm(tx));
                }
                BankMethod::HtmStmFallback => {
                    self.stm.emit_hybrid_tx(
                        a,
                        "hy",
                        R5,
                        6,
                        &[],
                        |h| self.emit_transfer_htm(h),
                        |tx| self.emit_transfer_stm(tx),
                    );
                }
            });
        })
    }

    /// Runs the workload on every CPU.
    pub fn run(&self, sys: &mut System, ops_per_cpu: u64) -> WorkloadReport {
        if matches!(
            self.method,
            BankMethod::PureStm | BankMethod::HtmStmFallback
        ) {
            self.stm.layout.install(sys);
        }
        harness::run(sys, &self.program(ops_per_cpu), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ztm_sim::SystemConfig;

    fn conserved(method: BankMethod, cpus: usize, seed: u64) {
        let bank = Bank::new(16, method);
        let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(seed));
        bank.open(&mut sys, 1_000);
        let rep = bank.run(&mut sys, 40);
        assert_eq!(rep.committed_ops(), cpus as u64 * 40);
        assert_eq!(
            bank.total(&sys),
            16 * 1_000,
            "money conservation ({method:?}, {cpus} CPUs, seed {seed})"
        );
    }

    #[test]
    fn money_is_conserved_under_locks() {
        conserved(BankMethod::Lock, 4, 1);
    }

    #[test]
    fn money_is_conserved_under_constrained_tx() {
        conserved(BankMethod::Tbeginc, 6, 2);
        conserved(BankMethod::Tbeginc, 6, 3);
    }

    #[test]
    fn money_is_conserved_under_tbegin_with_fallback() {
        conserved(BankMethod::Tbegin, 6, 4);
    }

    #[test]
    fn money_is_conserved_under_pure_stm() {
        conserved(BankMethod::PureStm, 6, 7);
    }

    #[test]
    fn money_is_conserved_under_hybrid_fallback() {
        conserved(BankMethod::HtmStmFallback, 6, 8);
    }

    #[test]
    fn self_transfers_are_harmless() {
        // R8 == R9 happens with probability 1/16 per op; debit+credit of
        // the same account must net to zero.
        let bank = Bank::new(1, BankMethod::Tbeginc);
        let mut sys = System::new(SystemConfig::with_cpus(2).seed(5));
        bank.open(&mut sys, 500);
        bank.run(&mut sys, 30);
        assert_eq!(bank.total(&sys), 500);
    }
}
