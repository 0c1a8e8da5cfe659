//! The multi-CPU discrete-event system simulator for the ztm workspace.
//!
//! [`System`] assembles the full machine of the paper: per CPU an
//! architectural core ([`ztm_isa::CpuCore`]), a private L1/L2 cache unit with
//! transactional footprint tracking ([`ztm_cache::PrivateCache`]) and a
//! transaction engine ([`ztm_core::TxEngine`]); globally the committed
//! memory image, the page table, and the coherence fabric issuing
//! cross-interrogates between CPUs.
//!
//! Simulation is single-threaded and deterministic (seeded RNG streams per
//! CPU): the scheduler always steps the runnable CPU with the smallest local
//! clock, and XIs are delivered synchronously at instruction boundaries —
//! the paper's "stall completion while XIs are pending" rule (§III.C).
//! Determinism makes every contention experiment exactly reproducible.
//! Every run method ([`System::step_one`], [`System::step_many`],
//! [`System::run_until_halt`]) stops on a step budget, none on a clock.
//! Untraced batched runs let a CPU step register-only instructions past
//! the scheduler's runner-up and undo any that end up past a budget, a
//! broadcast stop or a page-residency change, so the result is still
//! exactly the serial one; [`System::fingerprint`] folds the whole
//! simulated state, and the differential tests compare it.
//! [`System::set_sim_threads`] above 1 plans the same schedule in rounds of
//! provably node-local steps (`system/shard.rs`), still on the
//! calling thread and through the same step driver, so the state and the
//! statistics are identical either way.
//!
//! The simulator also implements the millicode *broadcast-stop* quiesce
//! (§III.E): when a struggling constrained transaction escalates to the last
//! rung of the retry ladder, all other CPUs are held while it retries, which
//! guarantees eventual success.
//!
//! Source layout: `system/mod.rs` (`System`, its step driver and run
//! methods), `system/view.rs` (the per-step memory and fabric glue, with the
//! one XI delivery path every fetch, LRU eviction and I/O store takes),
//! `system/shard.rs` (the round planner) and `sched.rs` (the winner tree).

#![forbid(unsafe_code)]

mod config;
mod report;
mod sched;
mod system;

pub use config::SystemConfig;
pub use report::{ScheduleStats, ShardingStats, StmCounts, SystemReport};
pub use system::{System, TraceRecord};

/// Reads a `ZTM_*` boolean switch. Per the workspace convention only the
/// value `"1"` engages a switch — `ZTM_FOO=0` and `ZTM_FOO=` must mean off,
/// so stray shell exports cannot flip behavior by accident. Anything else
/// (`"true"`, `"yes"`, `"0 "`, …) is a configuration error worth failing
/// loudly on, naming the bad token — silently reading those as *off* would
/// contradict what the user plainly asked for.
///
/// # Panics
///
/// Panics when the variable is set to something other than `"1"`, `"0"`,
/// or the empty string.
pub fn env_flag(name: &str) -> bool {
    match std::env::var(name) {
        Err(_) => false,
        Ok(v) => match v.as_str() {
            "1" => true,
            "0" | "" => false,
            _ => panic!("{name}: expected \"1\", \"0\", or empty, got {v:?}"),
        },
    }
}

/// Reads a `ZTM_*` positive-integer knob. Absent or empty → `None` (the
/// default engages); a valid positive integer engages it; anything else is a
/// configuration error worth failing loudly on, naming the bad token.
///
/// # Panics
///
/// Panics when the variable is set to something other than a positive
/// integer.
pub fn env_usize(name: &str) -> Option<usize> {
    let v = std::env::var(name).ok()?;
    if v.trim().is_empty() {
        return None;
    }
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("{name}: expected a positive integer, got {v:?}"),
    }
}
