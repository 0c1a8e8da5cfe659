//! Simulated outcomes pinned for the default seed.
//!
//! A change that only speeds the simulator up must reproduce these exactly.
//! Any other seed is a held-out seed: it runs every check except these.

use crate::workload::{SimStats, Workload};

/// The seed whose segments are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// One segment's pinned outcome and traced-run event digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Simulated outcome.
    pub sim: SimStats,
    /// Digest of the segment's event stream.
    pub digest: u64,
}

/// The pinned segments of a workload at its default spec. A sharded replay
/// must match them too: host threads change no simulated outcome.
pub fn pinned(workload: Workload) -> &'static [Pin] {
    match workload {
        Workload::Elision1 => ELISION_1,
        Workload::Elision144 => ELISION_144,
        Workload::StmBank36 => STM_BANK_36,
    }
}

#[allow(clippy::too_many_arguments)]
const fn pin(
    ops: u64,
    instructions: u64,
    cycles: u64,
    tx_commits: u64,
    tx_aborts: u64,
    xi: [u64; 4],
    stm_commits: u64,
    digest: u64,
) -> Pin {
    Pin {
        sim: SimStats {
            ops,
            instructions,
            cycles,
            tx_commits,
            tx_aborts,
            xi,
            stm_commits,
        },
        digest,
    }
}

// Columns: operations, instructions, cycles, HTM commits, HTM aborts,
// XIs (exclusive, demote, read-only, LRU), STM commits, event digest.
// Regenerate with `--seed 1 --trace 1 --dump-pins`.
#[rustfmt::skip]
const ELISION_1: &[Pin] = &[
    pin(40000, 1705176, 2364762, 40000, 0, [0, 0, 0, 0], 0, 0x6a2d0a8959e5d554),
    pin(40000, 1704125, 2362293, 40000, 0, [0, 0, 0, 0], 0, 0xe28fe5ed440e8d94),
    pin(40000, 1705937, 2367452, 40000, 0, [0, 0, 0, 0], 0, 0xa10382c12f30be54),
    pin(40000, 1705197, 2369950, 40000, 0, [0, 0, 0, 0], 0, 0xe6e7c4eca4bd1972),
    pin(40000, 1704015, 2365758, 40000, 0, [0, 0, 0, 0], 0, 0x39c65b0e5b5aad7b),
    pin(40000, 1704367, 2364058, 40000, 0, [0, 0, 0, 0], 0, 0x04e58119f8f7d96e),
    pin(40000, 1704218, 2364720, 40000, 0, [0, 0, 0, 0], 0, 0x0bf99cde1201a6af),
    pin(40000, 1703307, 2360105, 40000, 0, [0, 0, 0, 0], 0, 0xc4b26f89fd2a28d0),
];
#[rustfmt::skip]
const ELISION_144: &[Pin] = &[
    pin(4320, 11660341, 2610276, 1083, 20348, [223062, 61458, 795279, 75], 0, 0x1572614c0420c784),
    pin(4320, 9810335, 2295020, 1332, 19029, [195145, 53924, 711529, 69], 0, 0x5e9f414c254d0343),
];
#[rustfmt::skip]
const STM_BANK_36: &[Pin] = &[
    pin(10800, 5256752, 1901410, 0, 0, [11855, 77158, 157680, 0], 10800, 0xdaf7f5827d2c8e6b),
    pin(10800, 5203479, 1876964, 0, 0, [11999, 77408, 156575, 0], 10800, 0xb65b891baedc1fa7),
];
