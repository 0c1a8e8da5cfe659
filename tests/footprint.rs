//! Host-memory footprint of `System::new`.
//!
//! The per-chip L3 directories are 16,384 × 12; built eagerly they cost
//! 4.7 MB a chip, 113 MB for the 24 chips of a 144-CPU zEC12, although a
//! benchmark touches only a few thousand lines. Directory rows are
//! allocated on a class's first install, so a fresh system holds only the
//! index vectors. This pins that: a counting global allocator measures the
//! bytes `System::new` leaves live.
//!
//! The file holds exactly one `#[test]`, so no other test of this binary
//! allocates while the measurement runs.

use std::alloc::{GlobalAlloc, Layout, System as HostAlloc};
use std::sync::atomic::{AtomicIsize, Ordering};
use ztm::cache::Topology;
use ztm::sim::{System, SystemConfig};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The host allocator, counting the bytes it hands out.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the host
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are passed on as given.
        unsafe { HostAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are passed on as given.
        unsafe { HostAlloc.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are passed on as given.
        unsafe { HostAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's guarantees for this call are passed on as given.
        unsafe { HostAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes left live by building a system of `cpus` zEC12 CPUs.
fn system_new_bytes(cpus: usize) -> isize {
    let mut cfg = SystemConfig::with_cpus(cpus);
    cfg.topology = Topology::zec12(cpus);
    let before = LIVE.load(Ordering::Relaxed);
    let sys = System::new(cfg);
    let live = LIVE.load(Ordering::Relaxed) - before;
    drop(sys);
    live
}

#[test]
fn system_new_footprint_is_occupancy_sized() {
    const MB: isize = 1 << 20;
    let full = system_new_bytes(144);
    assert!(
        full < 8 * MB,
        "System::new(144 CPUs) left {:.1} MB live (limit 8 MB)",
        full as f64 / MB as f64
    );
    let one = system_new_bytes(1);
    assert!(
        one < MB,
        "System::new(1 CPU) left {:.2} MB live (limit 1 MB)",
        one as f64 / MB as f64
    );
}
