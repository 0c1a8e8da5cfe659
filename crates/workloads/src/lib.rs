//! The §IV microbenchmark workloads and lock implementations of the paper,
//! as generated programs for the ztm simulator.
//!
//! * [`pool`] — the variable-pool update benchmark behind Fig 5(a)–(c) and
//!   the uncontended comparison: coarse/fine locks, Figure 1 TBEGIN with
//!   fallback, Figure 3 TBEGINC, and unsynchronized.
//! * [`rwlock`] — the read-dominated workload of Fig 5(d): counting
//!   read-write lock vs constrained transactions.
//! * [`hashtable`] — the lock-elided hashtable of Fig 5(e).
//! * [`queue`] — the `ConcurrentLinkedQueue`-style experiment (constrained
//!   transactions ≈ 2× locks).
//! * [`dlist`] — doubly-linked-list insert/delete, §II.D's canonical
//!   constrained operation (3 octowords per op).
//! * [`bank`] — bank transfers with a money-conservation invariant (the
//!   classic TM consistency stress).
//! * [`harness`] — the §IV program skeleton every workload shares (the op
//!   loop with its RDCLK timing, the spin lock, the Figure 1 elision ladder
//!   and the run driver) and the measurements (throughput = CPUs /
//!   avg-time-per-update, normalization).

pub mod bank;
pub mod dlist;
pub mod harness;
pub mod hashtable;
pub mod pool;
pub mod queue;
pub mod rwlock;

pub use bank::{Bank, BankMethod};
pub use dlist::{DoublyLinkedList, ListMethod};
pub use harness::{CpuMeasurement, WorkloadReport};
pub use hashtable::{HashTable, TableMethod};
pub use pool::{PoolLayout, PoolWorkload, SyncMethod};
pub use queue::{ConcurrentQueue, QueueMethod};
pub use rwlock::{ReadMethod, ReadWorkload};
