//! SMP topology: cores, CP chips, and multi-chip modules.

use std::fmt;

/// Identifies one CPU (core) in the simulated SMP system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(pub usize);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Identifies one CP chip (six cores sharing an L3 on the zEC12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipId(pub usize);

impl fmt::Display for ChipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}", self.0)
    }
}

/// Identifies one multi-chip module (six CP chips sharing an L4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct McmId(pub usize);

impl fmt::Display for McmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mcm{}", self.0)
    }
}

/// Relative distance between two CPUs, which determines cache-to-cache
/// transfer latency. The step functions in the paper's Figure 5(a)/(b) come
/// from CPU counts crossing these boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Distance {
    /// The same core (L1/L2 local).
    SameCpu,
    /// Another core on the same CP chip — transfer through the shared L3.
    SameChip,
    /// Another chip on the same MCM — transfer through the shared L4.
    SameMcm,
    /// A chip on a different MCM — transfer across the SMP fabric.
    CrossMcm,
}

/// The physical arrangement of cores into chips and MCMs.
///
/// The zEC12 defaults are 6 cores per chip, 6 chips per MCM, up to 4 MCMs
/// (144 cores). Constructors validate that the requested CPU count fits.
///
/// # Examples
///
/// ```
/// use ztm_cache::{CpuId, Distance, Topology};
///
/// let t = Topology::zec12(100);
/// assert_eq!(t.cpus(), 100);
/// assert_eq!(t.distance(CpuId(0), CpuId(5)), Distance::SameChip);
/// assert_eq!(t.distance(CpuId(0), CpuId(6)), Distance::SameMcm);
/// assert_eq!(t.distance(CpuId(0), CpuId(36)), Distance::CrossMcm);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    cpus: usize,
    cores_per_chip: usize,
    chips_per_mcm: usize,
}

impl Topology {
    /// Maximum CPUs in a zEC12 SMP (4 MCMs × 6 chips × 6 cores).
    pub const ZEC12_MAX_CPUS: usize = 144;

    /// Creates the zEC12 topology with `cpus` cores (6 per chip, 36 per MCM).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is 0 or exceeds [`Self::ZEC12_MAX_CPUS`].
    pub fn zec12(cpus: usize) -> Self {
        assert!(
            cpus <= Self::ZEC12_MAX_CPUS,
            "zEC12 has at most {} cores",
            Self::ZEC12_MAX_CPUS
        );
        Self::new(cpus, 6, 6)
    }

    /// Creates a custom topology.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is 0, or `cores_per_chip`/`chips_per_mcm` is 0, or
    /// more than 8 MCMs or more than 64 chips would be needed (the widths of
    /// the fabric's L4- and L3-presence bitmasks).
    pub fn new(cpus: usize, cores_per_chip: usize, chips_per_mcm: usize) -> Self {
        assert!(cpus > 0, "topology needs at least one CPU");
        assert!(cores_per_chip > 0 && chips_per_mcm > 0);
        assert!(
            cpus <= 8 * chips_per_mcm * cores_per_chip,
            "at most 8 MCMs are supported ({} CPUs requested, {} fit)",
            cpus,
            8 * chips_per_mcm * cores_per_chip
        );
        let topology = Topology {
            cpus,
            cores_per_chip,
            chips_per_mcm,
        };
        assert!(
            topology.chip_count() <= 64,
            "at most 64 chips are supported ({} CPUs at {} per chip need {})",
            cpus,
            cores_per_chip,
            topology.chip_count()
        );
        topology
    }

    /// Number of CPUs in the system.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Cores sharing one L3.
    pub fn cores_per_chip(&self) -> usize {
        self.cores_per_chip
    }

    /// Chips sharing one L4.
    pub fn chips_per_mcm(&self) -> usize {
        self.chips_per_mcm
    }

    /// Cores sharing one L4 (one MCM node). On the zEC12 this is 36; the
    /// paper's Fig 5(b) notes throughput grows "up to 24 CPUs (the size of
    /// the MCM node in the tested system)" — the tested machine had fewer
    /// active cores per MCM, which [`Topology::new`] can model.
    pub fn cores_per_mcm(&self) -> usize {
        self.cores_per_chip * self.chips_per_mcm
    }

    /// The chip a CPU lives on.
    pub fn chip_of(&self, cpu: CpuId) -> ChipId {
        ChipId(cpu.0 / self.cores_per_chip)
    }

    /// The MCM a CPU lives on.
    pub fn mcm_of(&self, cpu: CpuId) -> McmId {
        McmId(cpu.0 / self.cores_per_mcm())
    }

    /// The MCM a chip lives on.
    pub fn mcm_of_chip(&self, chip: ChipId) -> McmId {
        McmId(chip.0 / self.chips_per_mcm)
    }

    /// Number of chips actually populated by the configured CPUs.
    pub fn chip_count(&self) -> usize {
        self.cpus.div_ceil(self.cores_per_chip)
    }

    /// Number of MCMs actually populated.
    pub fn mcm_count(&self) -> usize {
        self.cpus.div_ceil(self.cores_per_mcm())
    }

    /// Relative distance between two CPUs.
    pub fn distance(&self, a: CpuId, b: CpuId) -> Distance {
        if a == b {
            Distance::SameCpu
        } else if self.chip_of(a) == self.chip_of(b) {
            Distance::SameChip
        } else if self.mcm_of(a) == self.mcm_of(b) {
            Distance::SameMcm
        } else {
            Distance::CrossMcm
        }
    }

    /// Distance from a CPU to a chip's L3.
    pub fn distance_to_chip(&self, cpu: CpuId, chip: ChipId) -> Distance {
        if self.chip_of(cpu) == chip {
            Distance::SameChip
        } else if self.mcm_of(cpu) == self.mcm_of_chip(chip) {
            Distance::SameMcm
        } else {
            Distance::CrossMcm
        }
    }

    /// Iterates over all CPU ids in the system.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> {
        (0..self.cpus).map(CpuId)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::zec12(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zec12_structure() {
        let t = Topology::zec12(144);
        assert_eq!(t.cores_per_mcm(), 36);
        assert_eq!(t.chip_count(), 24);
        assert_eq!(t.mcm_count(), 4);
        assert_eq!(t.chip_of(CpuId(35)), ChipId(5));
        assert_eq!(t.mcm_of(CpuId(35)), McmId(0));
        assert_eq!(t.mcm_of(CpuId(36)), McmId(1));
    }

    #[test]
    fn distances() {
        let t = Topology::zec12(144);
        assert_eq!(t.distance(CpuId(3), CpuId(3)), Distance::SameCpu);
        assert_eq!(t.distance(CpuId(0), CpuId(5)), Distance::SameChip);
        assert_eq!(t.distance(CpuId(5), CpuId(6)), Distance::SameMcm);
        assert_eq!(t.distance(CpuId(35), CpuId(36)), Distance::CrossMcm);
        assert_eq!(t.distance_to_chip(CpuId(0), ChipId(0)), Distance::SameChip);
        assert_eq!(t.distance_to_chip(CpuId(0), ChipId(5)), Distance::SameMcm);
        assert_eq!(t.distance_to_chip(CpuId(0), ChipId(6)), Distance::CrossMcm);
    }

    #[test]
    fn partial_chips() {
        let t = Topology::zec12(7);
        assert_eq!(t.chip_count(), 2);
        assert_eq!(t.mcm_count(), 1);
    }

    #[test]
    #[should_panic(expected = "zEC12 has at most 144 cores")]
    fn too_many_cpus_panics() {
        let _ = Topology::zec12(145);
    }

    #[test]
    #[should_panic(expected = "at most 64 chips are supported")]
    fn too_many_chips_panics() {
        // 128 one-core chips fit in 8 MCMs of 16 but not in a u64 L3 mask.
        let _ = Topology::new(128, 1, 16);
    }

    #[test]
    fn sixty_four_chips_fit() {
        assert_eq!(Topology::new(64, 1, 8).chip_count(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_panics() {
        let _ = Topology::zec12(0);
    }

    #[test]
    fn iter_covers_all() {
        let t = Topology::zec12(10);
        let ids: Vec<_> = t.iter().collect();
        assert_eq!(ids.len(), 10);
        assert_eq!(ids[9], CpuId(9));
    }

    #[test]
    fn custom_mcm_size_matches_paper_testbed() {
        // The paper's tested system saturates an MCM node at 24 CPUs.
        let t = Topology::new(100, 6, 4);
        assert_eq!(t.cores_per_mcm(), 24);
        assert_eq!(t.distance(CpuId(23), CpuId(24)), Distance::CrossMcm);
    }
}
