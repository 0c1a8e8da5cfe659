//! Simulated physical memory and addressing primitives for the ztm simulator.
//!
//! This crate is the lowest layer of the ztm workspace: it defines the
//! byte-addressable [`MainMemory`] image that the simulated SMP system operates
//! on, the strongly-typed address newtypes ([`Address`], [`LineAddr`],
//! [`HalfLineAddr`], [`PageAddr`], [`Octoword`]) used throughout the cache and
//! transaction layers, and a [`PageTable`] that models page residency so the
//! simulator can inject page faults into transactions (the paper's §II.C
//! interruption-filtering features depend on this).
//!
//! The geometry constants mirror the IBM zEC12 described in the paper:
//! 256-byte cache lines, 128-byte store-cache entries ("half lines"),
//! 32-byte octowords (the unit in which constrained transactions' footprints
//! are counted), and 4 KiB pages.
//!
//! # Examples
//!
//! ```
//! use ztm_mem::{Address, MainMemory};
//!
//! let mut mem = MainMemory::new();
//! mem.store_u64(Address::new(0x1000), 42);
//! assert_eq!(mem.load_u64(Address::new(0x1000)), 42);
//! ```

#![forbid(unsafe_code)]

mod addr;
mod error;
mod memory;
mod page;

pub use addr::{Address, HalfLineAddr, LineAddr, Octoword, PageAddr};
pub use addr::{HALF_LINE_SIZE, LINE_SIZE, OCTOWORD_SIZE, PAGE_SIZE};
pub use error::MemFault;
pub use memory::{AddrHashBuilder, AddrHasher, MainMemory};
pub use page::PageTable;
