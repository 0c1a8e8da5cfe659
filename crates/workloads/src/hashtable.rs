//! The lock-elided hashtable of Fig 5(e).
//!
//! Models the IBM Testarossa JIT experiment: a `java/util/Hashtable`-style
//! chained hashtable whose single global lock ("synchronized") is elided
//! with transactions. Under the global lock, throughput is flat no matter
//! how many threads run; with elision it scales almost linearly (§IV).

use crate::harness::{self, emit_locked, emit_tx_with_fallback, timed, WorkloadReport, ARENA_SIZE};
use ztm_isa::{gr::*, MemOperand, Program, RegOrImm};
use ztm_mem::Address;
use ztm_sim::System;
use ztm_stm::{Stm, TmAccess};

/// Synchronization of the hashtable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableMethod {
    /// One global lock around every operation (`synchronized`).
    GlobalLock,
    /// Figure 1 lock elision: transactions that test the global lock, with
    /// the lock as fallback.
    Elision,
    /// Every operation is a TL2 software transaction ([`ztm_stm`]).
    PureStm,
    /// TBEGIN fast path subscribing to the TL2 stripe locks, falling back
    /// to the software path (not a global lock) after the retry budget.
    HtmStmFallback,
    /// No synchronization (upper bound; loses updates under contention).
    /// Also the purest view of raw instruction throughput — the measured-IPC
    /// headline comes from this row.
    Unsync,
}

/// A chained hashtable in simulated memory, operated on by generated
/// programs.
///
/// Layout: `buckets` head pointers (8 bytes each, packed 32 per cache
/// line) at `table_base`; nodes are 32-byte aligned records
/// `{key, value, next}`; each CPU allocates from its own arena with a bump
/// pointer in **R7** (transaction rollback automatically un-allocates, since
/// R7 is restored on abort).
#[derive(Debug, Clone)]
pub struct HashTable {
    /// Number of buckets (power of two).
    pub buckets: u64,
    /// Key space for random keys.
    pub key_space: u64,
    /// Percent of operations that are puts (rest are gets).
    pub put_percent: u64,
    method: TableMethod,
    table_base: u64,
    lock: u64,
    arena_base: u64,
    stm: Stm,
}

impl HashTable {
    /// Creates a table description.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two.
    pub fn new(buckets: u64, key_space: u64, put_percent: u64, method: TableMethod) -> Self {
        assert!(buckets.is_power_of_two(), "buckets must be a power of two");
        HashTable {
            buckets,
            key_space,
            put_percent,
            method,
            table_base: 0x1000_0000,
            lock: 0x0FFF_0000,
            arena_base: 0x2000_0000,
            stm: Stm::new(),
        }
    }

    fn bucket_addr(&self, b: u64) -> u64 {
        self.table_base + b * 8
    }

    /// Pre-populates the table host-side with `keys.len()` entries (key →
    /// key*10), using a dedicated init arena.
    pub fn populate(&self, sys: &mut System, keys: &[u64]) {
        let mut node = self.arena_base - ARENA_SIZE; // init arena below CPU 0's
        for &key in keys {
            let b = key & (self.buckets - 1);
            let head_addr = Address::new(self.bucket_addr(b));
            let old_head = sys.mem().load_u64(head_addr);
            let mem = sys.mem_mut();
            mem.store_u64(Address::new(node), key);
            mem.store_u64(Address::new(node + 8), key * 10);
            mem.store_u64(Address::new(node + 16), old_head);
            mem.store_u64(head_addr, node);
            node += 32;
        }
    }

    /// Host-side lookup (for verification).
    pub fn lookup(&self, sys: &System, key: u64) -> Option<u64> {
        let b = key & (self.buckets - 1);
        let mut node = sys.mem().load_u64(Address::new(self.bucket_addr(b)));
        while node != 0 {
            if sys.mem().load_u64(Address::new(node)) == key {
                return Some(sys.mem().load_u64(Address::new(node + 8)));
            }
            node = sys.mem().load_u64(Address::new(node + 16));
        }
        None
    }

    /// Total entries reachable from the buckets (host-side).
    pub fn len(&self, sys: &System) -> u64 {
        let mut n = 0;
        for b in 0..self.buckets {
            let mut node = sys.mem().load_u64(Address::new(self.bucket_addr(b)));
            while node != 0 {
                n += 1;
                node = sys.mem().load_u64(Address::new(node + 16));
            }
        }
        n
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self, sys: &System) -> bool {
        self.len(sys) == 0
    }

    /// Emits the hashtable operation (get or put based on R9) with a unique
    /// label `p`refix. Expects the key in R8, the put-value in R9's low
    /// bits reused, and the per-CPU bump pointer in R7.
    ///
    /// Shared accesses — bucket heads and the fields of published nodes —
    /// go through `t`, so the one body serves every method. A put miss
    /// initializes the new node with plain stores even under TL2: the node
    /// sits in the CPU's private arena and only the transactional head link
    /// publishes it, so its fields are invisible until commit, and R7 is
    /// spilled, so an abort un-allocates it.
    fn emit_op(&self, t: &mut dyn TmAccess, p: &str) {
        {
            let a = t.asm();
            a.lgr(R5, R8); // R5 = &bucket_head
            a.lghi(R4, (self.buckets - 1) as i64);
            a.ngr(R5, R4);
            a.sllg(R5, R5, 3);
            a.aghi(R5, self.table_base as i64);
        }
        t.read(R3, R5); // head
        t.asm().label(&format!("{p}_walk"));
        t.asm().cghi(R3, 0);
        t.asm().jz(&format!("{p}_miss"));
        t.read(R2, R3); // node.key
        t.asm().cgr(R2, R8);
        t.asm().jz(&format!("{p}_hit"));
        t.read_at(R3, R3, 16, R4); // next
        t.asm().j(&format!("{p}_walk"));
        t.asm().label(&format!("{p}_hit"));
        // Put updates in place; get loads the value.
        t.asm().cghi(R9, 0);
        t.asm().jnz(&format!("{p}_hit_put"));
        t.read_at(R2, R3, 8, R4); // value
        t.asm().j(&format!("{p}_done"));
        t.asm().label(&format!("{p}_hit_put"));
        t.write_at(R8, R3, 8, R4); // value := key (arbitrary)
        t.asm().j(&format!("{p}_done"));
        t.asm().label(&format!("{p}_miss"));
        t.asm().cghi(R9, 0);
        t.asm().jz(&format!("{p}_done")); // get miss: nothing to do
                                          // Put miss: allocate node from the bump arena and link at head.
        t.asm().stg(R8, MemOperand::based(R7, 0)); // key (private)
        t.asm().stg(R8, MemOperand::based(R7, 8)); // value (private)
        t.read(R2, R5); // old head
        t.asm().stg(R2, MemOperand::based(R7, 16)); // next (private)
        t.write(R7, R5); // head = node
        t.asm().aghi(R7, 32);
        t.asm().label(&format!("{p}_done"));
    }

    /// Builds the benchmark program.
    pub fn program(&self, ops_per_cpu: u64) -> Program {
        let lock = MemOperand::absolute(self.lock);
        harness::op_loop(ops_per_cpu, |a| {
            a.rand_mod(R8, RegOrImm::Imm(self.key_space)); // key
            a.rand_mod(R9, RegOrImm::Imm(100)); // op selector
            a.cgij_lt(R9, self.put_percent as i64, "is_put");
            a.lghi(R9, 0); // get
            a.j("selected");
            a.label("is_put");
            a.lghi(R9, 1);
            a.label("selected");
            timed(a, |a| match self.method {
                TableMethod::GlobalLock => emit_locked(a, "gl", lock, |a| self.emit_op(a, "gl_op")),
                TableMethod::Unsync => self.emit_op(a, "un"),
                TableMethod::Elision => emit_tx_with_fallback(
                    a,
                    "tx",
                    lock,
                    6,
                    |a| self.emit_op(a, "tx_op"),
                    |a| emit_locked(a, "fb", lock, |a| self.emit_op(a, "fb_op")),
                ),
                TableMethod::PureStm => {
                    self.stm
                        .emit_tx(a, "st", &[R7], |t| self.emit_op(t, "st_op"));
                }
                TableMethod::HtmStmFallback => {
                    self.stm
                        .emit_hybrid_tx(a, "hy", R10, 6, &[R7], |t, p| self.emit_op(t, p));
                }
            });
        })
    }

    /// Seeds the per-CPU arenas (bump pointer in R7), runs, and collects
    /// measurements.
    pub fn run(&self, sys: &mut System, ops_per_cpu: u64) -> WorkloadReport {
        if matches!(
            self.method,
            TableMethod::PureStm | TableMethod::HtmStmFallback
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

    fn table(method: TableMethod) -> HashTable {
        HashTable::new(256, 1024, 20, method)
    }

    /// `perfbench/src/workload.rs` keeps its own copy of this layout
    /// (`TABLE_BASE`, `ARENA_BASE`, `ARENA_SIZE`) because it times the
    /// load and install phases separately; a change here must be mirrored
    /// there, or perfbench would run a different memory layout from
    /// `HashTable::run`.
    #[test]
    fn layout_matches_the_perfbench_copy() {
        let t = table(TableMethod::Elision);
        let copy = "perfbench/src/workload.rs copies this layout; update it too";
        assert_eq!(t.table_base, 0x1000_0000, "table_base: {copy}");
        assert_eq!(t.arena_base, 0x2000_0000, "arena_base: {copy}");
        assert_eq!(ARENA_SIZE, 0x10_0000, "harness::ARENA_SIZE: {copy}");
    }

    #[test]
    fn populate_and_host_lookup() {
        let t = table(TableMethod::GlobalLock);
        let mut sys = System::new(SystemConfig::with_cpus(1));
        t.populate(&mut sys, &[1, 2, 257]); // 1 and 257 collide (256 buckets)
        assert_eq!(t.lookup(&sys, 1), Some(10));
        assert_eq!(t.lookup(&sys, 257), Some(2570));
        assert_eq!(t.lookup(&sys, 3), None);
        assert_eq!(t.len(&sys), 3);
        assert!(!t.is_empty(&sys));
    }

    #[test]
    fn locked_table_stays_consistent() {
        let t = table(TableMethod::GlobalLock);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        t.populate(&mut sys, &(0..128).collect::<Vec<_>>());
        let rep = t.run(&mut sys, 40);
        assert_eq!(rep.committed_ops(), 160);
        // Every key reachable exactly once: walk finds no duplicates.
        let len = t.len(&sys);
        assert!(len >= 128, "puts only add");
        assert!(len <= 128 + 160);
    }

    #[test]
    fn unsync_table_works_single_threaded() {
        // With one CPU there is nothing to race with; the unsynchronized
        // upper-bound row must behave exactly like a plain hashtable.
        let t = table(TableMethod::Unsync);
        let mut sys = System::new(SystemConfig::with_cpus(1));
        t.populate(&mut sys, &(0..128).collect::<Vec<_>>());
        let rep = t.run(&mut sys, 40);
        assert_eq!(rep.committed_ops(), 40);
        assert!((128..=128 + 40).contains(&t.len(&sys)));
    }

    fn assert_no_duplicate_keys(t: &HashTable, sys: &System) {
        for key in 0..64 {
            let b = key & (t.buckets - 1);
            let mut node = sys.mem().load_u64(Address::new(t.bucket_addr(b)));
            let mut seen = 0;
            while node != 0 {
                if sys.mem().load_u64(Address::new(node)) == key {
                    seen += 1;
                }
                node = sys.mem().load_u64(Address::new(node + 16));
            }
            assert!(seen <= 1, "key {key} inserted {seen} times");
        }
    }

    #[test]
    fn purestm_table_stays_consistent() {
        let t = table(TableMethod::PureStm);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        t.populate(&mut sys, &(0..128).collect::<Vec<_>>());
        let rep = t.run(&mut sys, 40);
        assert_eq!(rep.committed_ops(), 160);
        assert!((128..=128 + 160).contains(&t.len(&sys)));
        assert_eq!(rep.system.stm.commits, 160, "every op is a software tx");
        assert_no_duplicate_keys(&t, &sys);
        // The stripe table is fully released after the run.
        for s in 0..t.stm.layout.stripes {
            let lw = sys
                .mem()
                .load_u64(Address::new(t.stm.layout.stripe_lock_addr(s * 8)));
            assert_eq!(lw >> 63, 0, "stripe {s} left locked");
        }
    }

    #[test]
    fn hybrid_table_stays_consistent() {
        let t = table(TableMethod::HtmStmFallback);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        t.populate(&mut sys, &(0..128).collect::<Vec<_>>());
        let rep = t.run(&mut sys, 40);
        assert_eq!(rep.committed_ops(), 160);
        assert!((128..=128 + 160).contains(&t.len(&sys)));
        assert!(rep.system.tx.commits > 0, "fast path engages");
        assert_eq!(
            rep.system.tx.commits + rep.system.stm.commits,
            160,
            "each op commits exactly once, in hardware or software"
        );
        assert_no_duplicate_keys(&t, &sys);
    }

    #[test]
    fn elided_table_stays_consistent() {
        let t = table(TableMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        t.populate(&mut sys, &(0..128).collect::<Vec<_>>());
        let rep = t.run(&mut sys, 40);
        assert_eq!(rep.committed_ops(), 160);
        let len = t.len(&sys);
        assert!((128..=128 + 160).contains(&len));
        assert!(rep.system.tx.commits > 0, "most ops elide the lock");
        // No duplicate keys: a put that saw a concurrent insert must have
        // been serialized by the transaction.
        assert_no_duplicate_keys(&t, &sys);
    }
}
