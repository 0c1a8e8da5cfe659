//! The SMP coherence fabric: a directory of line ownership issuing
//! hierarchical cross-interrogates (§III.A).

use crate::{ChipId, CpuId, Distance, McmId, SetAssoc, Topology, XiKind};
use std::collections::HashMap;
use ztm_mem::{AddrHashBuilder, LineAddr};
use ztm_trace::{Event, Tracer};

/// zEC12 L3 geometry: 48 MB / 256-byte lines / 12 ways = 16384 sets.
const L3_SETS: usize = 16_384;
/// zEC12 L3 associativity.
const L3_WAYS: usize = 12;

/// What kind of ownership a fetch requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Read-only (shared) ownership.
    Shared,
    /// Exclusive ownership (required before storing).
    Exclusive,
}

/// Where a fetch is sourced from, for latency purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Intervention: transferred from another CPU's private cache.
    Cpu(CpuId),
    /// A chip's shared L3.
    L3(ChipId),
    /// An MCM's shared L4.
    L4(McmId),
    /// Main memory.
    Memory,
}

/// The XIs that must be delivered (and accepted) before a fetch can be
/// granted, plus the planned data source.
#[derive(Debug, Clone)]
pub struct FetchPlan {
    /// Targets and XI kinds, in delivery order.
    pub xis: Vec<(CpuId, XiKind)>,
    /// Where the data will come from.
    pub source: Source,
}

/// Per-line directory state: at most one exclusive owner, or any number of
/// read-only sharers (the store-through hierarchy holds no dirty lines).
#[derive(Debug, Clone, Default)]
struct LineState {
    owner: Option<CpuId>,
    sharers: Vec<CpuId>,
}

/// The coherence directory for the whole SMP.
///
/// Tracks, per line: which private cache units hold it (exclusive or
/// read-only), which chips' L3s and which MCMs' L4s have a copy (for latency
/// source selection). L3/L4 presence is modeled as monotone within a run —
/// the 48 MB / 384 MB shared caches are far larger than any benchmark's
/// working set, so shared-cache capacity evictions are not simulated (see
/// DESIGN.md).
///
/// # Examples
///
/// ```
/// use ztm_cache::{CpuId, Fabric, FetchKind, Source, Topology, XiKind};
/// use ztm_mem::LineAddr;
///
/// let mut fabric = Fabric::new(Topology::zec12(12));
/// let line = LineAddr::new(5);
/// // First fetch comes from memory.
/// let plan = fabric.plan_fetch(CpuId(0), line, FetchKind::Exclusive);
/// assert!(plan.xis.is_empty());
/// assert_eq!(plan.source, Source::Memory);
/// let lru_xis = fabric.grant(CpuId(0), line, FetchKind::Exclusive);
/// assert!(lru_xis.is_empty()); // 48 MB L3: no capacity eviction here
/// // A second CPU reading the line demotes the owner.
/// let plan = fabric.plan_fetch(CpuId(1), line, FetchKind::Shared);
/// assert_eq!(plan.xis, vec![(CpuId(0), XiKind::Demote)]);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    topology: Topology,
    // Address-keyed and never iterated, so the cheap [`AddrHashBuilder`]
    // multiply-hash is unobservable (lookups are on the coherence hot path).
    lines: HashMap<LineAddr, LineState, AddrHashBuilder>,
    /// Chips whose L3 has a copy (bit per chip).
    l3_presence: HashMap<LineAddr, u64, AddrHashBuilder>,
    /// MCMs whose L4 has a copy (bit per MCM).
    l4_presence: HashMap<LineAddr, u8, AddrHashBuilder>,
    /// Per-chip L3 directories (capacity modeling): an associativity
    /// overflow here evicts the line from the chip and — by the inclusivity
    /// rule — sends LRU XIs to the private caches below (§III.A).
    l3: Vec<SetAssoc<()>>,
    /// Count of XIs sent, by kind, for statistics.
    xi_counts: [u64; 4],
    /// Shared (CPU-agnostic) tracer; emissions are attributed to the
    /// requesting CPU explicitly.
    tracer: Tracer,
}

impl Fabric {
    /// Creates a fabric for the given topology, with zEC12-sized (48 MB,
    /// 12-way) per-chip L3 directories.
    pub fn new(topology: Topology) -> Self {
        Self::with_l3_geometry(topology, L3_SETS, L3_WAYS)
    }

    /// Creates a fabric with custom L3 geometry (tests shrink it to force
    /// LRU XIs cheaply).
    pub fn with_l3_geometry(topology: Topology, l3_sets: usize, l3_ways: usize) -> Self {
        let chips = topology.chip_count();
        Fabric {
            topology,
            lines: HashMap::default(),
            l3_presence: HashMap::default(),
            l4_presence: HashMap::default(),
            l3: (0..chips)
                .map(|_| SetAssoc::new(l3_sets, l3_ways))
                .collect(),
            xi_counts: [0; 4],
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; XI-issue events are attributed to the requester.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The system topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Plans a fetch: which XIs must be delivered and where data will come
    /// from. Does not change directory state.
    pub fn plan_fetch(&self, requester: CpuId, line: LineAddr, kind: FetchKind) -> FetchPlan {
        let state = self.lines.get(&line);
        let mut xis = Vec::new();
        let mut intervention: Option<CpuId> = None;

        if let Some(s) = state {
            match kind {
                FetchKind::Exclusive => {
                    if let Some(owner) = s.owner {
                        if owner != requester {
                            xis.push((owner, XiKind::Exclusive));
                            intervention = Some(owner);
                        }
                    }
                    for &sh in &s.sharers {
                        if sh != requester {
                            xis.push((sh, XiKind::ReadOnly));
                        }
                    }
                }
                FetchKind::Shared => {
                    if let Some(owner) = s.owner {
                        if owner != requester {
                            xis.push((owner, XiKind::Demote));
                            intervention = Some(owner);
                        }
                    }
                }
            }
        }

        for &(to, kind) in &xis {
            self.tracer.emit_at(requester.0 as u16, || Event::XiIssue {
                to: to.0 as u16,
                line: line.index(),
                kind: kind.code(),
            });
        }
        let source = match intervention {
            Some(owner) => Source::Cpu(owner),
            None => self.nearest_source(requester, line),
        };
        FetchPlan { xis, source }
    }

    /// Selects the nearest non-intervention source for a line.
    fn nearest_source(&self, requester: CpuId, line: LineAddr) -> Source {
        if let Some(&chips) = self.l3_presence.get(&line) {
            if chips != 0 {
                let best = (0..64)
                    .filter(|c| chips >> c & 1 == 1)
                    .map(ChipId)
                    .min_by_key(|&c| match self.topology.distance_to_chip(requester, c) {
                        Distance::SameCpu | Distance::SameChip => 0,
                        Distance::SameMcm => 1,
                        Distance::CrossMcm => 2,
                    })
                    .expect("non-zero mask has a chip");
                return Source::L3(best);
            }
        }
        if let Some(&mcms) = self.l4_presence.get(&line) {
            if mcms != 0 {
                let me = self.topology.mcm_of(requester);
                let best = (0..8)
                    .filter(|m| mcms >> m & 1 == 1)
                    .map(McmId)
                    .min_by_key(|&m| usize::from(m != me))
                    .expect("non-zero mask has an MCM");
                return Source::L4(best);
            }
        }
        Source::Memory
    }

    /// Records the outcome of one delivered XI. Accepted XIs update the
    /// directory; rejected ones leave it unchanged (the sender will repeat).
    pub fn apply_xi_result(&mut self, target: CpuId, line: LineAddr, kind: XiKind, accepted: bool) {
        self.xi_counts[kind.code() as usize] += 1;
        if !accepted {
            return;
        }
        let state = self.lines.entry(line).or_default();
        match kind {
            XiKind::Exclusive | XiKind::ReadOnly | XiKind::Lru => {
                if state.owner == Some(target) {
                    state.owner = None;
                }
                state.sharers.retain(|&c| c != target);
            }
            XiKind::Demote => {
                if state.owner == Some(target) {
                    state.owner = None;
                    state.sharers.push(target);
                }
            }
        }
    }

    /// Grants the line to the requester after all planned XIs were accepted.
    ///
    /// Returns LRU XIs that the caller must deliver to private caches: when
    /// installing the line overflows the requester chip's L3 set, the
    /// evicted victim is forced out of every private cache under that L3
    /// (the inclusivity rule, §III.A — "we call those XIs LRU XIs").
    ///
    /// # Panics
    ///
    /// Panics (debug) if conflicting holders remain — the caller must deliver
    /// all planned XIs first.
    #[must_use = "deliver the returned LRU XIs to the victims' private caches"]
    pub fn grant(
        &mut self,
        requester: CpuId,
        line: LineAddr,
        kind: FetchKind,
    ) -> Vec<(CpuId, LineAddr)> {
        let state = self.lines.entry(line).or_default();
        match kind {
            FetchKind::Exclusive => {
                debug_assert!(
                    state.owner.is_none() || state.owner == Some(requester),
                    "exclusive grant with a live owner"
                );
                debug_assert!(
                    state.sharers.iter().all(|&c| c == requester),
                    "exclusive grant with live sharers"
                );
                state.owner = Some(requester);
                state.sharers.clear();
            }
            FetchKind::Shared => {
                debug_assert!(
                    state.owner.is_none() || state.owner == Some(requester),
                    "shared grant with a live foreign owner"
                );
                if state.owner != Some(requester) && !state.sharers.contains(&requester) {
                    state.sharers.push(requester);
                }
            }
        }
        let chip = self.topology.chip_of(requester);
        let mcm = self.topology.mcm_of(requester);
        *self.l3_presence.entry(line).or_default() |= 1 << chip.0;
        *self.l4_presence.entry(line).or_default() |= 1 << mcm.0;

        // Install into the chip's L3; an associativity overflow evicts the
        // victim from the chip and from every private cache below it.
        let mut lru_xis = Vec::new();
        if !self.l3[chip.0].contains(line) {
            if let Some((victim, ())) = self.l3[chip.0].insert(line, (), |_, _| 0) {
                if let Some(p) = self.l3_presence.get_mut(&victim) {
                    *p &= !(1 << chip.0);
                }
                if let Some(state) = self.lines.get(&victim) {
                    let holders = state.owner.into_iter().chain(state.sharers.iter().copied());
                    for cpu in holders {
                        if self.topology.chip_of(cpu) == chip {
                            lru_xis.push((cpu, victim));
                        }
                    }
                }
            }
        } else {
            self.l3[chip.0].get(line); // touch LRU
        }
        lru_xis
    }

    /// Removes a CPU from a line's holder set (L2 capacity eviction).
    pub fn drop_holder(&mut self, cpu: CpuId, line: LineAddr) {
        if let Some(state) = self.lines.get_mut(&line) {
            if state.owner == Some(cpu) {
                state.owner = None;
            }
            state.sharers.retain(|&c| c != cpu);
        }
    }

    /// Current holders of a line: `(exclusive owner, read-only sharers)`.
    pub fn holders(&self, line: LineAddr) -> (Option<CpuId>, Vec<CpuId>) {
        match self.lines.get(&line) {
            Some(s) => (s.owner, s.sharers.clone()),
            None => (None, Vec::new()),
        }
    }

    /// Total XIs recorded, by kind: `[exclusive, demote, read-only, lru]`.
    pub fn xi_counts(&self) -> [u64; 4] {
        self.xi_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::new(Topology::zec12(72))
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn cold_fetch_from_memory() {
        let f = fabric();
        let plan = f.plan_fetch(CpuId(0), line(1), FetchKind::Shared);
        assert!(plan.xis.is_empty());
        assert_eq!(plan.source, Source::Memory);
    }

    #[test]
    fn read_sharing_needs_no_xis() {
        let mut f = fabric();
        let _ = f.grant(CpuId(0), line(1), FetchKind::Shared);
        let plan = f.plan_fetch(CpuId(1), line(1), FetchKind::Shared);
        assert!(plan.xis.is_empty());
        assert_eq!(plan.source, Source::L3(ChipId(0)));
        let _ = f.grant(CpuId(1), line(1), FetchKind::Shared);
        let (owner, sharers) = f.holders(line(1));
        assert_eq!(owner, None);
        assert_eq!(sharers.len(), 2);
    }

    #[test]
    fn exclusive_fetch_invalidates_sharers() {
        let mut f = fabric();
        let _ = f.grant(CpuId(0), line(1), FetchKind::Shared);
        let _ = f.grant(CpuId(1), line(1), FetchKind::Shared);
        let plan = f.plan_fetch(CpuId(2), line(1), FetchKind::Exclusive);
        assert_eq!(plan.xis.len(), 2);
        assert!(plan.xis.iter().all(|&(_, k)| k == XiKind::ReadOnly));
        for &(t, k) in &plan.xis {
            f.apply_xi_result(t, line(1), k, true);
        }
        let _ = f.grant(CpuId(2), line(1), FetchKind::Exclusive);
        assert_eq!(f.holders(line(1)), (Some(CpuId(2)), vec![]));
    }

    #[test]
    fn shared_fetch_demotes_owner() {
        let mut f = fabric();
        let _ = f.grant(CpuId(0), line(1), FetchKind::Exclusive);
        let plan = f.plan_fetch(CpuId(1), line(1), FetchKind::Shared);
        assert_eq!(plan.xis, vec![(CpuId(0), XiKind::Demote)]);
        assert_eq!(plan.source, Source::Cpu(CpuId(0)));
        f.apply_xi_result(CpuId(0), line(1), XiKind::Demote, true);
        let _ = f.grant(CpuId(1), line(1), FetchKind::Shared);
        let (owner, sharers) = f.holders(line(1));
        assert_eq!(owner, None);
        assert!(sharers.contains(&CpuId(0)) && sharers.contains(&CpuId(1)));
    }

    #[test]
    fn rejected_xi_keeps_state() {
        let mut f = fabric();
        let _ = f.grant(CpuId(0), line(1), FetchKind::Exclusive);
        f.apply_xi_result(CpuId(0), line(1), XiKind::Exclusive, false);
        assert_eq!(f.holders(line(1)).0, Some(CpuId(0)));
        // The retry plans the same XI again.
        let plan = f.plan_fetch(CpuId(1), line(1), FetchKind::Exclusive);
        assert_eq!(plan.xis, vec![(CpuId(0), XiKind::Exclusive)]);
    }

    #[test]
    fn upgrade_from_shared() {
        let mut f = fabric();
        let _ = f.grant(CpuId(0), line(1), FetchKind::Shared);
        let _ = f.grant(CpuId(1), line(1), FetchKind::Shared);
        let plan = f.plan_fetch(CpuId(0), line(1), FetchKind::Exclusive);
        assert_eq!(plan.xis, vec![(CpuId(1), XiKind::ReadOnly)]);
        f.apply_xi_result(CpuId(1), line(1), XiKind::ReadOnly, true);
        let _ = f.grant(CpuId(0), line(1), FetchKind::Exclusive);
        assert_eq!(f.holders(line(1)), (Some(CpuId(0)), vec![]));
    }

    #[test]
    fn source_prefers_nearest_l3() {
        let mut f = fabric();
        // CPU 40 is on MCM 1; CPU 0 on MCM 0 chip 0.
        let _ = f.grant(CpuId(40), line(1), FetchKind::Shared);
        f.apply_xi_result(CpuId(40), line(1), XiKind::ReadOnly, true);
        f.drop_holder(CpuId(40), line(1));
        // No CPU holds it; L3 of chip 6 (MCM 1) has it.
        let plan = f.plan_fetch(CpuId(0), line(1), FetchKind::Shared);
        assert_eq!(plan.source, Source::L3(ChipId(6)));
        // Once CPU 0's chip also has it, prefer the local chip.
        let _ = f.grant(CpuId(0), line(1), FetchKind::Shared);
        f.drop_holder(CpuId(0), line(1));
        let plan = f.plan_fetch(CpuId(1), line(1), FetchKind::Shared);
        assert_eq!(plan.source, Source::L3(ChipId(0)));
    }

    #[test]
    fn drop_holder_releases_ownership() {
        let mut f = fabric();
        let _ = f.grant(CpuId(3), line(1), FetchKind::Exclusive);
        f.drop_holder(CpuId(3), line(1));
        assert_eq!(f.holders(line(1)), (None, vec![]));
        let plan = f.plan_fetch(CpuId(4), line(1), FetchKind::Exclusive);
        assert!(plan.xis.is_empty());
        assert!(matches!(plan.source, Source::L3(_)));
    }

    #[test]
    fn l3_overflow_returns_lru_xis_for_same_chip_holders() {
        // Tiny L3: 1 set × 2 ways. Three lines through one chip overflow it.
        let mut f = Fabric::with_l3_geometry(Topology::zec12(12), 1, 2);
        let _ = f.grant(CpuId(0), line(1), FetchKind::Shared);
        let _ = f.grant(CpuId(1), line(2), FetchKind::Shared);
        // CPU 6 is on chip 1: its traffic must not evict chip 0's lines.
        let lru = f.grant(CpuId(6), line(3), FetchKind::Shared);
        assert!(lru.is_empty(), "different chip, different L3");
        // Third line through chip 0 evicts the LRU victim (line 1).
        let lru = f.grant(CpuId(2), line(3), FetchKind::Shared);
        assert_eq!(lru, vec![(CpuId(0), line(1))]);
        // After the caller applies the XI, the holder is gone.
        f.apply_xi_result(CpuId(0), line(1), XiKind::Lru, true);
        assert_eq!(f.holders(line(1)), (None, vec![]));
        // The evicted line is no longer sourced from chip 0's L3.
        let plan = f.plan_fetch(CpuId(3), line(1), FetchKind::Shared);
        assert_ne!(plan.source, Source::L3(ChipId(0)));
    }

    #[test]
    fn xi_counts_accumulate() {
        let mut f = fabric();
        let _ = f.grant(CpuId(0), line(1), FetchKind::Exclusive);
        f.apply_xi_result(CpuId(0), line(1), XiKind::Exclusive, false);
        f.apply_xi_result(CpuId(0), line(1), XiKind::Exclusive, true);
        assert_eq!(f.xi_counts()[0], 2);
    }
}
