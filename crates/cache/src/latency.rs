//! Cycle-cost model for the memory hierarchy.

use crate::{Distance, Source, Topology};

/// Cycle latencies of the simulated memory system.
///
/// The L1 and L2 values are published in the paper (§III.A: 4-cycle L1 use
/// latency, 7 additional cycles for an L1 miss that hits the L2). The deeper
/// levels are not published for the zEC12; the defaults are plausible values
/// for a 48 MB on-chip eDRAM L3, an off-chip 384 MB L4 on the same
/// glass-ceramic MCM, and cross-MCM transfers — see DESIGN.md. All fields are
/// public so experiments can sweep them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyModel {
    /// Effective L1 hit cost. The zEC12 L1 has a 4-cycle use latency
    /// (§III.A), but the out-of-order core overlaps it with surrounding
    /// work; the default charges the marginal 1 cycle.
    pub l1_hit: u64,
    /// L1 miss, L2 hit.
    pub l2_hit: u64,
    /// L2 miss sourced from the local chip's L3.
    pub l3_hit: u64,
    /// Sourced from the MCM's L4 or another chip's L3 on the same MCM.
    pub l4_hit: u64,
    /// Sourced from a different MCM.
    pub cross_mcm: u64,
    /// Sourced from main memory.
    pub memory: u64,
    /// Extra cycles for an intervention (cache-to-cache transfer requiring an
    /// XI round to the current owner) on top of the distance cost.
    pub intervention: u64,
    /// Delay before a requester repeats an access whose XI was rejected
    /// ("stiff-armed") by the owning CPU.
    pub xi_reject_retry: u64,
    /// Memory operations the LSU can issue per cycle. The zEC12 core has
    /// two load/store pipes (§II.B); the pipeline window
    /// (`ztm_isa::IssueWindow`) caps overlap with it. An access *issues*
    /// against a port for one cycle while its completion (the latencies
    /// above) proceeds in flight — issue and completion are decoupled.
    pub lsu_ports: u64,
}

impl LatencyModel {
    /// The zEC12-flavored default latency model.
    pub fn zec12() -> Self {
        LatencyModel {
            l1_hit: 1,
            l2_hit: 11,
            l3_hit: 45,
            l4_hit: 180,
            cross_mcm: 350,
            memory: 600,
            intervention: 15,
            xi_reject_retry: 40,
            lsu_ports: 2,
        }
    }

    /// The minimum number of cycles any fetch crossing a shard boundary
    /// takes to complete at the requester: the cheapest source on the far
    /// side of the boundary. `same_mcm` selects a chip-level boundary
    /// (shards are chips of one MCM); otherwise the boundary is the MCM
    /// (book) itself.
    ///
    /// The sharded simulator does not rely on this slack — XI state
    /// transitions are synchronous at the requester's step clock, so its
    /// rounds are bounded by exact `(clock, cpu)` ordering — but the bound
    /// anchors the latency proptest: no cross-shard install may complete
    /// earlier than `access clock + min_cross_boundary_latency`.
    pub fn min_cross_boundary_latency(&self, same_mcm: bool) -> u64 {
        if same_mcm {
            self.l4_hit.min(self.memory)
        } else {
            self.cross_mcm.min(self.memory)
        }
    }

    /// Latency of a cache-to-cache transfer from a holder at `distance`.
    pub fn transfer(&self, distance: Distance) -> u64 {
        let base = match distance {
            Distance::SameCpu => self.l2_hit,
            Distance::SameChip => self.l3_hit,
            Distance::SameMcm => self.l4_hit,
            Distance::CrossMcm => self.cross_mcm,
        };
        base + self.intervention
    }

    /// Latency of a fetch served from `source`, as planned by the fabric,
    /// seen by `requester`.
    pub fn fetch(&self, topology: &Topology, requester: crate::CpuId, source: Source) -> u64 {
        match source {
            Source::Cpu(owner) => self.transfer(topology.distance(requester, owner)),
            Source::L3(chip) => match topology.distance_to_chip(requester, chip) {
                Distance::SameCpu | Distance::SameChip => self.l3_hit,
                Distance::SameMcm => self.l4_hit,
                Distance::CrossMcm => self.cross_mcm,
            },
            Source::L4(mcm) => {
                if topology.mcm_of(requester) == mcm {
                    self.l4_hit
                } else {
                    self.cross_mcm
                }
            }
            Source::Memory => self.memory,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::zec12()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipId, CpuId, McmId};

    #[test]
    fn defaults_match_paper_l1_l2() {
        let m = LatencyModel::zec12();
        assert_eq!(m.l1_hit, 1); // 4-cycle use latency hidden by the OoO core
        assert_eq!(m.l2_hit, 11); // 4 + 7-cycle penalty
    }

    #[test]
    fn transfer_grows_with_distance() {
        let m = LatencyModel::zec12();
        assert!(m.transfer(Distance::SameChip) < m.transfer(Distance::SameMcm));
        assert!(m.transfer(Distance::SameMcm) < m.transfer(Distance::CrossMcm));
    }

    #[test]
    fn fetch_from_sources() {
        let m = LatencyModel::zec12();
        let t = Topology::zec12(144);
        let me = CpuId(0);
        assert_eq!(m.fetch(&t, me, Source::Memory), m.memory);
        assert_eq!(m.fetch(&t, me, Source::L3(ChipId(0))), m.l3_hit);
        assert_eq!(m.fetch(&t, me, Source::L3(ChipId(1))), m.l4_hit);
        assert_eq!(m.fetch(&t, me, Source::L3(ChipId(6))), m.cross_mcm);
        assert_eq!(m.fetch(&t, me, Source::L4(McmId(0))), m.l4_hit);
        assert_eq!(m.fetch(&t, me, Source::L4(McmId(1))), m.cross_mcm);
        // Transfer from a neighboring core costs more than plain L3 hit.
        assert!(m.fetch(&t, me, Source::Cpu(CpuId(1))) > m.l3_hit);
    }
}
