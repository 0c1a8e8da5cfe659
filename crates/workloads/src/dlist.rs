//! Doubly-linked-list insert/delete under constrained transactions.
//!
//! §II.D motivates the constrained-transaction limits with exactly this
//! operation: "the constraints are chosen such that many common operations
//! like double-linked list-insert/delete operations can be performed".
//! An insert touches the new node and its two neighbors; a delete touches
//! the node and its two neighbors — at most 3–4 aligned octowords, within
//! the 4-octoword budget, in ≤ 32 straight-line instructions.

use crate::harness::{self, emit_locked, timed, WorkloadReport, ARENA_SIZE};
use ztm_core::GrSaveMask;
use ztm_isa::{gr::*, Assembler, MemOperand, Program};
use ztm_mem::Address;
use ztm_sim::System;

/// Synchronization for the list operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListMethod {
    /// One global lock around each insert/delete pair.
    Lock,
    /// Each insert and each delete is one constrained transaction.
    Tbeginc,
}

/// A circular doubly-linked list with a fixed anchor node. Nodes are
/// 32-byte aligned records `{prev, next, value}` (one octoword each), so
/// every insert/delete fits the constrained footprint budget.
///
/// Each benchmark operation inserts a fresh node right after the anchor and
/// then deletes the node right after the anchor — under contention these
/// are different nodes, exercising real neighbor updates.
#[derive(Debug, Clone)]
pub struct DoublyLinkedList {
    method: ListMethod,
    anchor: u64,
    lock: u64,
    arena_base: u64,
}

impl DoublyLinkedList {
    /// Creates the list description.
    pub fn new(method: ListMethod) -> Self {
        DoublyLinkedList {
            method,
            anchor: 0x4000_0000,
            lock: 0x4000_0100,
            arena_base: 0x4100_0000,
        }
    }

    /// Seeds the circular list host-side with `n` nodes after the anchor.
    pub fn seed(&self, sys: &mut System, n: u64) {
        let mem = sys.mem_mut();
        // The anchor is its own node; start self-linked.
        mem.store_u64(Address::new(self.anchor), self.anchor); // prev
        mem.store_u64(Address::new(self.anchor + 8), self.anchor); // next
        let mut pred = self.anchor;
        for i in 0..n {
            let node = self.arena_base - ARENA_SIZE + 32 * i;
            mem.store_u64(Address::new(node), pred); // prev
            mem.store_u64(Address::new(node + 8), self.anchor); // next
            mem.store_u64(Address::new(node + 16), i); // value
            mem.store_u64(Address::new(pred + 8), node);
            mem.store_u64(Address::new(self.anchor), node);
            pred = node;
        }
    }

    /// Walks the list host-side, checking both directions agree; returns
    /// the element count (excluding the anchor).
    ///
    /// # Panics
    ///
    /// Panics if the forward and backward links disagree (corruption).
    pub fn len_checked(&self, sys: &System) -> u64 {
        let mut n = 0;
        let mut node = sys.mem().load_u64(Address::new(self.anchor + 8));
        let mut prev = self.anchor;
        while node != self.anchor {
            assert_eq!(
                sys.mem().load_u64(Address::new(node)),
                prev,
                "prev link of {node:#x} is broken"
            );
            prev = node;
            node = sys.mem().load_u64(Address::new(node + 8));
            n += 1;
            assert!(n < 1_000_000, "list does not cycle back to the anchor");
        }
        assert_eq!(
            sys.mem().load_u64(Address::new(self.anchor)),
            prev,
            "anchor prev must point at the tail"
        );
        n
    }

    /// Emits insert-after-anchor of the node at R7. Constrained: touches
    /// the anchor, the old first node, and the new node = 3 octowords.
    fn emit_insert(&self, a: &mut Assembler, constrained: bool) {
        if constrained {
            a.tbeginc(GrSaveMask::ALL);
        }
        a.lg(R3, MemOperand::absolute(self.anchor + 8)); // succ = anchor.next
        a.stg(R3, MemOperand::based(R7, 8)); // node.next = succ
        a.lghi(R2, self.anchor as i64);
        a.stg(R2, MemOperand::based(R7, 0)); // node.prev = anchor
        a.stg(R7, MemOperand::absolute(self.anchor + 8)); // anchor.next = node
        a.stg(R7, MemOperand::based(R3, 0)); // succ.prev = node
        if constrained {
            a.tend();
        }
    }

    /// Emits delete of the node right after the anchor (if non-empty).
    /// Touches the anchor, the victim, and its successor = 3 octowords.
    fn emit_delete(&self, a: &mut Assembler, constrained: bool, p: &str) {
        if constrained {
            a.tbeginc(GrSaveMask::ALL);
        }
        a.lg(R3, MemOperand::absolute(self.anchor + 8)); // victim
        a.cghi(R3, self.anchor as i64);
        a.jz(&format!("{p}_empty")); // forward branch
        a.lg(R4, MemOperand::based(R3, 8)); // succ = victim.next
        a.stg(R4, MemOperand::absolute(self.anchor + 8)); // anchor.next = succ
        a.lghi(R2, self.anchor as i64);
        a.stg(R2, MemOperand::based(R4, 0)); // succ.prev = anchor
        a.label(&format!("{p}_empty"));
        if constrained {
            a.tend();
        }
    }

    /// Builds the benchmark program (one insert + one delete per op).
    pub fn program(&self, ops_per_cpu: u64) -> Program {
        harness::op_loop(ops_per_cpu, |a| {
            // Pre-initialize the node to insert (private memory).
            a.lghi(R2, 0x77);
            a.stg(R2, MemOperand::based(R7, 16)); // value
            timed(a, |a| match self.method {
                ListMethod::Lock => emit_locked(a, "dl", MemOperand::absolute(self.lock), |a| {
                    self.emit_insert(a, false);
                    self.emit_delete(a, false, "dl_ops");
                }),
                ListMethod::Tbeginc => {
                    self.emit_insert(a, true);
                    self.emit_delete(a, true, "c_ops");
                }
            });
            a.aghi(R7, 32); // bump allocator (node is now owned by the list)
        })
    }

    /// Seeds per-CPU arenas and runs the workload.
    pub fn run(&self, sys: &mut System, ops_per_cpu: u64) -> WorkloadReport {
        harness::run(sys, &self.program(ops_per_cpu), Some(self.arena_base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ztm_sim::SystemConfig;

    #[test]
    fn seed_and_walk() {
        let l = DoublyLinkedList::new(ListMethod::Lock);
        let mut sys = System::new(SystemConfig::with_cpus(1));
        l.seed(&mut sys, 5);
        assert_eq!(l.len_checked(&sys), 5);
    }

    #[test]
    fn locked_list_stays_linked() {
        let l = DoublyLinkedList::new(ListMethod::Lock);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        l.seed(&mut sys, 8);
        let rep = l.run(&mut sys, 30);
        assert_eq!(rep.committed_ops(), 120);
        assert_eq!(l.len_checked(&sys), 8, "insert+delete pairs keep length");
    }

    #[test]
    fn constrained_list_stays_linked_under_contention() {
        let l = DoublyLinkedList::new(ListMethod::Tbeginc);
        let mut sys = System::new(SystemConfig::with_cpus(6));
        l.seed(&mut sys, 8);
        let rep = l.run(&mut sys, 30);
        assert_eq!(rep.committed_ops(), 180);
        assert_eq!(l.len_checked(&sys), 8);
        assert_eq!(
            rep.system.tx.commits,
            2 * 180,
            "one constrained transaction per insert and per delete"
        );
    }

    #[test]
    fn constrained_list_never_violates_constraints() {
        // The whole point of §II.D's budget: these operations must fit.
        let l = DoublyLinkedList::new(ListMethod::Tbeginc);
        let mut sys = System::new(SystemConfig::with_cpus(2));
        l.seed(&mut sys, 4);
        let rep = l.run(&mut sys, 50);
        assert!(
            !rep.system.tx.aborts_by_code.contains_key(&4),
            "no constraint-violation interruptions: {:?}",
            rep.system.tx.aborts_by_code
        );
        for cpu in 0..2 {
            assert!(sys.core(cpu).is_running() || sys.core(cpu).instructions > 0);
        }
        assert_eq!(l.len_checked(&sys), 4);
    }
}
