//! zEC12 cache hierarchy, coherence fabric, and gathering store cache.
//!
//! This crate is the memory-system substrate on which the ztm Transactional
//! Execution facility is built. It models, structurally, the machine described
//! in §III.A/§III.C/§III.D of the paper:
//!
//! * **Topology** ([`Topology`]): up to 144 cores — 6 cores per CP chip
//!   sharing an L3, 6 chips per multi-chip module (MCM) sharing an L4, up to
//!   4 MCMs in one coherent SMP.
//! * **Private cache unit** ([`PrivateCache`]): the per-CPU L1 (96 KB,
//!   6-way, 256-byte lines, 64 rows) and L2 (1 MB, 8-way, 512 rows), both
//!   store-through and inclusive. Each L1 directory entry carries the paper's
//!   **tx-read** and **tx-dirty** bits; a 64-row **LRU-extension vector**
//!   extends the transactional read footprint to L2 capacity (§III.C).
//! * **Gathering store cache** ([`StoreCache`]): 64 entries × 128 bytes with
//!   byte-precise valid bits; buffers transactional stores until commit, marks
//!   NTSTG doublewords so they survive aborts, and rejects XIs that compare to
//!   active transactional entries (§III.D).
//! * **Coherence fabric** ([`Fabric`]): a MESI-variant directory issuing
//!   cross-interrogates (XIs — exclusive, demote, read-only, LRU) with
//!   support for XI *reject* ("stiff-arming") and the reject-counter hang
//!   avoidance of §III.C.
//! * **Latency model** ([`LatencyModel`]): the cycle costs of hits and
//!   cache-to-cache transfers at every distance, parameterized from the
//!   paper's published L1/L2 numbers.
//!
//! The crate knows nothing about instructions or transactions as such — it
//! exposes footprint events ([`FootprintEvent`]) that the `ztm-core`
//! transaction engine converts into architected aborts.

#![forbid(unsafe_code)]

mod fabric;
mod geometry;
mod latency;
mod private;
mod set_assoc;
mod store_cache;
mod topology;
mod xi;

pub use fabric::{Fabric, FetchKind, Source};
pub use geometry::CacheGeometry;
pub use latency::LatencyModel;
pub use private::{AccessClass, CohState, InstallOutcome, LocalHit, PrivateCache, XiOutcome};
pub use set_assoc::SetAssoc;
pub use store_cache::{DrainWrite, StoreCache, StoreOutcome};
pub use topology::{ChipId, CpuId, Distance, McmId, Topology};
pub use xi::{FootprintEvent, Xi, XiKind, XiResponse};
