//! A concurrent FIFO queue: global lock vs constrained transactions.
//!
//! Models the IBM Java team's `ConcurrentLinkedQueue` experiment (§IV):
//! implemented with constrained transactions, throughput exceeded locks by
//! a factor of about 2.

use crate::harness::{self, emit_locked, emit_tx_with_fallback, timed, WorkloadReport};
use ztm_core::GrSaveMask;
use ztm_isa::{gr::*, Assembler, MemOperand, Program, RegOrImm};
use ztm_mem::Address;
use ztm_sim::System;
use ztm_stm::{HtmBody, Stm, TxBody};

/// Queue synchronization method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueMethod {
    /// A single lock around enqueue and dequeue.
    Lock,
    /// Each enqueue/dequeue is one constrained transaction (§II.D: short,
    /// few octowords, straight-line — exactly the intended use).
    Tbeginc,
    /// Figure 1 lock elision around the enqueue+dequeue pair, with the
    /// global lock as fallback.
    Elision,
    /// Enqueue and dequeue are each a TL2 software transaction
    /// ([`ztm_stm`]).
    PureStm,
    /// TBEGIN fast paths subscribing to the TL2 stripe locks, falling back
    /// to the software path after the retry budget.
    HtmStmFallback,
}

/// A Michael–Scott-style linked queue with a sentinel node, head and tail
/// pointers on separate cache lines, and 32-byte nodes `{value, next}`.
///
/// Each benchmark operation enqueues a value and then dequeues one, so the
/// queue length stays at its seeded size.
#[derive(Debug, Clone)]
pub struct ConcurrentQueue {
    method: QueueMethod,
    head_ptr: u64,
    tail_ptr: u64,
    lock: u64,
    seed_arena: u64,
    arena_base: u64,
    stm: Stm,
}

impl ConcurrentQueue {
    /// Creates a queue description.
    pub fn new(method: QueueMethod) -> Self {
        ConcurrentQueue {
            method,
            head_ptr: 0x3000_0000,
            tail_ptr: 0x3000_0100,
            lock: 0x3000_0200,
            seed_arena: 0x3100_0000,
            arena_base: 0x3200_0000,
            stm: Stm::new(),
        }
    }

    /// Seeds the queue host-side with a sentinel plus `n` elements.
    pub fn seed(&self, sys: &mut System, n: u64) {
        let mem = sys.mem_mut();
        let sentinel = self.seed_arena;
        mem.store_u64(Address::new(sentinel), 0);
        mem.store_u64(Address::new(sentinel + 8), 0);
        let mut tail = sentinel;
        for i in 0..n {
            let node = self.seed_arena + 32 * (i + 1);
            mem.store_u64(Address::new(node), i + 1); // value
            mem.store_u64(Address::new(node + 8), 0); // next
            mem.store_u64(Address::new(tail + 8), node);
            tail = node;
        }
        mem.store_u64(Address::new(self.head_ptr), sentinel);
        mem.store_u64(Address::new(self.tail_ptr), tail);
    }

    /// Host-side queue length (excluding the sentinel).
    pub fn len(&self, sys: &System) -> u64 {
        let mut node = sys.mem().load_u64(Address::new(self.head_ptr));
        let mut n = 0;
        loop {
            node = sys.mem().load_u64(Address::new(node + 8));
            if node == 0 {
                return n;
            }
            n += 1;
        }
    }

    /// Whether the queue holds no elements.
    pub fn is_empty(&self, sys: &System) -> bool {
        self.len(sys) == 0
    }

    /// Emits enqueue (node pre-initialized at R7) + dequeue with label
    /// prefix `p`. Constrained variants wrap each in its own TBEGINC.
    fn emit_ops(&self, a: &mut Assembler, p: &str, constrained: bool) {
        // Enqueue: link the node at R7 after the current tail.
        if constrained {
            a.tbeginc(GrSaveMask::ALL);
        }
        a.lg(R3, MemOperand::absolute(self.tail_ptr));
        a.stg(R7, MemOperand::based(R3, 8)); // tail.next = node
        a.stg(R7, MemOperand::absolute(self.tail_ptr)); // tail = node
        if constrained {
            a.tend();
        }
        a.aghi(R7, 32); // bump allocator (outside the tx: commit is certain)
                        // Dequeue.
        if constrained {
            a.tbeginc(GrSaveMask::ALL);
        }
        a.lg(R3, MemOperand::absolute(self.head_ptr));
        a.lg(R2, MemOperand::based(R3, 8)); // next = head.next
        a.cghi(R2, 0);
        a.jz(&format!("{p}_empty")); // forward branch: constrained-legal
        a.stg(R2, MemOperand::absolute(self.head_ptr)); // head = next
        a.lg(R1, MemOperand::based(R2, 0)); // value
        a.label(&format!("{p}_empty"));
        if constrained {
            a.tend();
        }
    }

    /// Enqueue as a TL2 software-transaction body (node pre-initialized at
    /// R7, which the STM spills so an abort un-allocates nothing — the bump
    /// happens after commit).
    fn emit_enqueue_stm(&self, tx: &mut TxBody) {
        tx.asm().lghi(R2, self.tail_ptr as i64);
        tx.read(R3, R2); // tail
        tx.asm().la(R4, MemOperand::based(R3, 8));
        tx.write(R7, R4); // tail.next = node
        tx.write(R7, R2); // tail = node
    }

    /// Dequeue as a TL2 software-transaction body.
    fn emit_dequeue_stm(&self, tx: &mut TxBody, p: &str) {
        tx.asm().lghi(R2, self.head_ptr as i64);
        tx.read(R3, R2); // head
        tx.asm().la(R4, MemOperand::based(R3, 8));
        tx.read(R5, R4); // next = head.next
        tx.asm().cghi(R5, 0);
        tx.asm().jz(&format!("{p}_empty"));
        tx.write(R5, R2); // head = next
        tx.read(R3, R5); // value
        tx.asm().label(&format!("{p}_empty"));
    }

    /// Enqueue on the hybrid hardware fast path.
    fn emit_enqueue_htm(&self, h: &mut HtmBody) {
        h.asm().lghi(R2, self.tail_ptr as i64);
        h.read(R3, R2);
        h.asm().la(R4, MemOperand::based(R3, 8));
        h.write(R7, R4);
        h.write(R7, R2);
    }

    /// Dequeue on the hybrid hardware fast path.
    fn emit_dequeue_htm(&self, h: &mut HtmBody, p: &str) {
        h.asm().lghi(R2, self.head_ptr as i64);
        h.read(R3, R2);
        h.asm().la(R4, MemOperand::based(R3, 8));
        h.read(R5, R4);
        h.asm().cghi(R5, 0);
        h.asm().jz(&format!("{p}_empty"));
        h.write(R5, R2);
        h.read(R3, R5);
        h.asm().label(&format!("{p}_empty"));
    }

    /// Builds the benchmark program.
    pub fn program(&self, ops_per_cpu: u64) -> Program {
        let lock = MemOperand::absolute(self.lock);
        let locked = |a: &mut Assembler, p: &str| {
            emit_locked(a, p, lock, |a| self.emit_ops(a, &format!("{p}_ops"), false))
        };
        harness::op_loop(ops_per_cpu, |a| {
            // Pre-initialize the node to enqueue (private memory, outside
            // the timed section and the transaction).
            a.rand_mod(R8, RegOrImm::Imm(1_000_000));
            a.stg(R8, MemOperand::based(R7, 0)); // value
            a.lghi(R2, 0);
            a.stg(R2, MemOperand::based(R7, 8)); // next = 0
            timed(a, |a| match self.method {
                QueueMethod::Lock => locked(a, "q"),
                QueueMethod::Tbeginc => self.emit_ops(a, "q", true),
                QueueMethod::Elision => emit_tx_with_fallback(
                    a,
                    "q",
                    lock,
                    6,
                    |a| self.emit_ops(a, "q_ops", false),
                    |a| locked(a, "qfb"),
                ),
                QueueMethod::PureStm => {
                    self.stm
                        .emit_tx(a, "qe", &[], |tx| self.emit_enqueue_stm(tx));
                    a.aghi(R7, 32); // bump allocator (after commit: it is certain)
                    self.stm
                        .emit_tx(a, "qd", &[], |tx| self.emit_dequeue_stm(tx, "qd_op"));
                }
                QueueMethod::HtmStmFallback => {
                    self.stm.emit_hybrid_tx(
                        a,
                        "he",
                        R9,
                        6,
                        &[],
                        |h| self.emit_enqueue_htm(h),
                        |tx| self.emit_enqueue_stm(tx),
                    );
                    a.aghi(R7, 32);
                    self.stm.emit_hybrid_tx(
                        a,
                        "hd",
                        R9,
                        6,
                        &[],
                        |h| self.emit_dequeue_htm(h, "hd_op"),
                        |tx| self.emit_dequeue_stm(tx, "hd_sop"),
                    );
                }
            });
        })
    }

    /// Seeds per-CPU arenas and runs the workload.
    pub fn run(&self, sys: &mut System, ops_per_cpu: u64) -> WorkloadReport {
        if matches!(
            self.method,
            QueueMethod::PureStm | QueueMethod::HtmStmFallback
        ) {
            self.stm.layout.install(sys);
        }
        harness::run(sys, &self.program(ops_per_cpu), Some(self.arena_base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ztm_sim::SystemConfig;

    #[test]
    fn seed_and_len() {
        let q = ConcurrentQueue::new(QueueMethod::Lock);
        let mut sys = System::new(SystemConfig::with_cpus(1));
        q.seed(&mut sys, 5);
        assert_eq!(q.len(&sys), 5);
        assert!(!q.is_empty(&sys));
    }

    #[test]
    fn locked_queue_preserves_length() {
        let q = ConcurrentQueue::new(QueueMethod::Lock);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        q.seed(&mut sys, 16);
        let rep = q.run(&mut sys, 30);
        assert_eq!(rep.committed_ops(), 120);
        assert_eq!(q.len(&sys), 16, "enqueue+dequeue pairs keep length");
    }

    #[test]
    fn constrained_queue_preserves_length() {
        let q = ConcurrentQueue::new(QueueMethod::Tbeginc);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        q.seed(&mut sys, 16);
        let rep = q.run(&mut sys, 30);
        assert_eq!(rep.committed_ops(), 120);
        assert_eq!(q.len(&sys), 16);
        assert_eq!(rep.system.tx.commits, 2 * 120, "two transactions per op");
    }

    #[test]
    fn elided_queue_preserves_length() {
        let q = ConcurrentQueue::new(QueueMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        q.seed(&mut sys, 16);
        let rep = q.run(&mut sys, 30);
        assert_eq!(rep.committed_ops(), 120);
        assert_eq!(q.len(&sys), 16);
        assert!(rep.system.tx.commits > 0, "most ops elide the lock");
    }

    #[test]
    fn purestm_queue_preserves_length() {
        let q = ConcurrentQueue::new(QueueMethod::PureStm);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        q.seed(&mut sys, 16);
        let rep = q.run(&mut sys, 30);
        assert_eq!(rep.committed_ops(), 120);
        assert_eq!(q.len(&sys), 16);
        assert_eq!(
            rep.system.stm.commits,
            2 * 120,
            "two software transactions per op"
        );
    }

    #[test]
    fn hybrid_queue_preserves_length() {
        let q = ConcurrentQueue::new(QueueMethod::HtmStmFallback);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        q.seed(&mut sys, 16);
        let rep = q.run(&mut sys, 30);
        assert_eq!(rep.committed_ops(), 120);
        assert_eq!(q.len(&sys), 16);
        assert_eq!(
            rep.system.tx.commits + rep.system.stm.commits,
            2 * 120,
            "each enqueue/dequeue commits once, in hardware or software"
        );
    }

    #[test]
    fn constrained_queue_beats_lock() {
        // The paper's E2 claim: ~2× over locks under contention.
        let run = |method| {
            let q = ConcurrentQueue::new(method);
            let mut sys = System::new(SystemConfig::with_cpus(8));
            q.seed(&mut sys, 64);
            q.run(&mut sys, 25).throughput()
        };
        let lock = run(QueueMethod::Lock);
        let tx = run(QueueMethod::Tbeginc);
        assert!(tx > lock, "tx {tx} vs lock {lock}");
    }
}
