//! The SMP coherence fabric: a directory of line ownership that runs each
//! fetch as one coherence transaction — its hierarchical
//! cross-interrogates, the grant, the L3's LRU XIs and the MCM channel
//! (§III.A, §III.C).

use crate::{ChipId, CpuId, LatencyModel, McmId, SetAssoc, Topology, XiKind};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
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

/// Per-line directory record: at most one exclusive owner, or any number of
/// read-only sharers (the store-through hierarchy holds no dirty lines),
/// and the shared levels that have a copy, for source selection.
#[derive(Debug, Clone, Default, Hash)]
struct LineState {
    owner: Option<CpuId>,
    sharers: Vec<CpuId>,
    /// Chips whose L3 has a copy (bit per chip).
    l3: u64,
    /// MCMs whose L4 has a copy (bit per MCM).
    l4: u8,
}

/// The coherence directory for the whole SMP, and the one place that knows
/// the fetch protocol: the private caches only answer the XIs that
/// [`fetch`](Self::fetch) and [`invalidate`](Self::invalidate) deliver.
///
/// Tracks, per line: which private cache units hold it (exclusive or
/// read-only), and which chips' L3s and which MCMs' L4s have a copy. L3
/// capacity is modelled: each chip keeps a 48 MB, 16,384 × 12 L3
/// directory, and an associativity overflow there clears the victim's L3
/// bit and sends LRU XIs to the private caches on that chip (§III.A;
/// DESIGN.md point 6). Only L4 presence is monotone within a run: the
/// 384 MB L4s are far larger than any benchmark's working set, so their
/// capacity evictions are not simulated. A line transfer occupies its
/// requester's MCM channel for a fixed number of cycles.
///
/// # Examples
///
/// ```
/// use ztm_cache::{CpuId, Fabric, FetchKind, LatencyModel, Topology, XiKind};
/// use ztm_mem::LineAddr;
///
/// let latency = LatencyModel::zec12();
/// let mut fabric = Fabric::new(Topology::zec12(12), latency.clone(), 8, None);
/// let line = LineAddr::new(5);
/// let mut xis = Vec::new();
/// let mut accept = |to, kind, _line, _from| { xis.push((to, kind)); true };
/// // The first fetch comes from memory and sends no XIs.
/// let cycles = fabric.fetch(CpuId(0), line, FetchKind::Exclusive, 0, &mut accept);
/// assert_eq!(cycles, Some(latency.memory));
/// // A second CPU reading the line demotes the owner, and queues 8 cycles
/// // for the channel.
/// let cycles = fabric.fetch(CpuId(1), line, FetchKind::Shared, 0, &mut accept);
/// assert_eq!(cycles, Some(latency.l3_hit + latency.intervention + 8));
/// assert_eq!(xis, vec![(CpuId(0), XiKind::Demote)]);
/// assert_eq!(fabric.holders(line), (None, &[CpuId(0), CpuId(1)][..]));
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    topology: Topology,
    latency: LatencyModel,
    /// Cycles one line transfer occupies its MCM's channel.
    occupancy: u64,
    // Address-keyed and never iterated, so the cheap [`AddrHashBuilder`]
    // multiply-hash is unobservable (lookups are on the coherence hot path).
    lines: HashMap<LineAddr, LineState, AddrHashBuilder>,
    /// Per-chip L3 directories (capacity modeling): an associativity
    /// overflow here evicts the line from the chip and — by the inclusivity
    /// rule — sends LRU XIs to the private caches below (§III.A).
    l3: Vec<SetAssoc<()>>,
    /// Per-MCM fabric channel: the virtual time until which it is busy.
    busy: Vec<u64>,
    /// Count of XIs delivered, by kind, for statistics.
    xi_counts: [u64; 4],
    /// Shared (CPU-agnostic) tracer; emissions are attributed to the
    /// requesting CPU explicitly.
    tracer: Tracer,
}

impl Fabric {
    /// Creates a fabric for the given topology. `latency` prices each
    /// fetch by its source, `occupancy` is the channel cycles of one line
    /// transfer, and `l3_geometry` is the per-chip L3's `(sets, ways)`:
    /// `None` is the zEC12's 48 MB, 12-way L3 (tests shrink it to force
    /// LRU XIs cheaply).
    pub fn new(
        topology: Topology,
        latency: LatencyModel,
        occupancy: u64,
        l3_geometry: Option<(usize, usize)>,
    ) -> Self {
        let (sets, ways) = l3_geometry.unwrap_or((L3_SETS, L3_WAYS));
        Fabric {
            l3: (0..topology.chip_count())
                .map(|_| SetAssoc::new(sets, ways))
                .collect(),
            busy: vec![0; topology.mcm_count()],
            topology,
            latency,
            occupancy,
            lines: HashMap::default(),
            xi_counts: [0; 4],
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; XI-issue and channel events are attributed to
    /// the requester.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Runs one fetch of `line` for `requester`, whose clock reads `now`,
    /// as one coherence transaction:
    ///
    /// 1. announces every XI (an `XiIssue` each: the owner first, then the
    ///    sharers in directory order) and chooses the data source;
    /// 2. delivers them in that order through `deliver(target, kind, line,
    ///    from)`, which returns whether the target accepted, and records
    ///    each response;
    /// 3. grants the line and delivers the LRU XIs of any L3 overflow the
    ///    grant caused (§III.A — "we call those XIs LRU XIs");
    /// 4. occupies the requester's MCM channel.
    ///
    /// Returns the source's latency plus the channel queueing, or `None`
    /// at the first stiff-arm: nothing is granted or occupied, and the
    /// rejecting and undelivered holders stay in order. The requester
    /// retries.
    pub fn fetch(
        &mut self,
        requester: CpuId,
        line: LineAddr,
        kind: FetchKind,
        now: u64,
        mut deliver: impl FnMut(CpuId, XiKind, LineAddr, Option<CpuId>) -> bool,
    ) -> Option<u64> {
        let (exclusive, owner_xi) = match kind {
            FetchKind::Exclusive => (true, XiKind::Exclusive),
            FetchKind::Shared => (false, XiKind::Demote),
        };
        let state = self.lines.entry(line).or_default();
        let owner = state.owner.filter(|&o| o != requester);
        let sharers: &[CpuId] = if exclusive { &state.sharers } else { &[] };
        let sharers = sharers.iter().filter(|&&c| c != requester);
        let xis = owner.map(|o| (o, owner_xi)).into_iter();
        for (to, xi) in xis.chain(sharers.map(|&c| (c, XiKind::ReadOnly))) {
            self.tracer.emit_at(requester.0 as u16, || Event::XiIssue {
                to: to.0 as u16,
                line: line.index(),
                kind: xi.code(),
            });
        }
        let source = match owner {
            Some(o) => Source::Cpu(o),
            None => nearest_source(&self.topology, requester, state),
        };

        let counts = &mut self.xi_counts;
        let from = Some(requester);
        if let Some(o) = owner {
            if !send(counts, &mut deliver, o, owner_xi, line, from) {
                return None;
            }
            state.owner = None;
            if !exclusive {
                state.sharers.push(o);
            }
        }
        if exclusive {
            // Accepted sharers leave in place; a reject keeps itself and
            // every later sharer.
            let mut rejected = false;
            state.sharers.retain(|&c| {
                rejected = rejected
                    || (c != requester
                        && !send(counts, &mut deliver, c, XiKind::ReadOnly, line, from));
                rejected || c == requester
            });
            if rejected {
                return None;
            }
        }

        // Every foreign holder the grant excludes has accepted its XI.
        if exclusive {
            state.owner = Some(requester);
            state.sharers.clear();
        } else if state.owner != Some(requester) && !state.sharers.contains(&requester) {
            state.sharers.push(requester);
        }
        let chip = self.topology.chip_of(requester);
        let mcm = self.topology.mcm_of(requester);
        state.l3 |= 1 << chip.0;
        state.l4 |= 1 << mcm.0;

        // Install into the chip's L3; an associativity overflow evicts the
        // victim from the chip and from every private cache below it,
        // aborting transactions whose footprint it carried (§III.C).
        if !self.l3[chip.0].contains(line) {
            if let Some((victim, ())) = self.l3[chip.0].insert(line, (), |_, _| 0) {
                if let Some(state) = self.lines.get_mut(&victim) {
                    state.l3 &= !(1 << chip.0);
                    let topology = &self.topology;
                    let counts = &mut self.xi_counts;
                    let mut lru = |to| send(counts, &mut deliver, to, XiKind::Lru, victim, None);
                    if let Some(o) = state.owner.filter(|&o| topology.chip_of(o) == chip) {
                        if lru(o) {
                            state.owner = None;
                        }
                    }
                    state
                        .sharers
                        .retain(|&c| topology.chip_of(c) != chip || !lru(c));
                }
            }
        } else {
            self.l3[chip.0].get(line); // touch LRU
        }

        let busy = &mut self.busy[mcm.0];
        let start = now.max(*busy);
        *busy = start + self.occupancy;
        let queued = start - now;
        self.tracer
            .emit_at(requester.0 as u16, || Event::FabricOccupy { queued });
        Some(self.latency.fetch(&self.topology, requester, source) + queued)
    }

    /// Invalidates every cached copy of `line` for an I/O store (§II.A): an
    /// exclusive XI to the owner, then read-only XIs to the sharers in
    /// directory order, each through `deliver` (as in
    /// [`fetch`](Self::fetch)) and recorded. I/O XIs carry no requester and
    /// cannot be stiff-armed.
    pub fn invalidate(
        &mut self,
        line: LineAddr,
        mut deliver: impl FnMut(CpuId, XiKind, LineAddr, Option<CpuId>) -> bool,
    ) {
        let Some(state) = self.lines.get_mut(&line) else {
            return;
        };
        let counts = &mut self.xi_counts;
        if let Some(o) = state.owner {
            if send(counts, &mut deliver, o, XiKind::Exclusive, line, None) {
                state.owner = None;
            }
        }
        state
            .sharers
            .retain(|&c| !send(counts, &mut deliver, c, XiKind::ReadOnly, line, None));
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

    /// Current holders of a line: `(exclusive owner, read-only sharers in
    /// directory order)`.
    pub fn holders(&self, line: LineAddr) -> (Option<CpuId>, &[CpuId]) {
        match self.lines.get(&line) {
            Some(s) => (s.owner, &s.sharers),
            None => (None, &[]),
        }
    }

    /// Total XIs delivered, rejected ones included, by kind: `[exclusive,
    /// demote, read-only, lru]`.
    pub fn xi_counts(&self) -> [u64; 4] {
        self.xi_counts
    }
}

/// Counts one XI in `counts`, rejected or not, and delivers it to `to`;
/// returns whether `to` accepted. Every XI the fabric sends goes through
/// here.
fn send(
    counts: &mut [u64; 4],
    deliver: &mut impl FnMut(CpuId, XiKind, LineAddr, Option<CpuId>) -> bool,
    to: CpuId,
    xi: XiKind,
    line: LineAddr,
    from: Option<CpuId>,
) -> bool {
    counts[xi.code() as usize] += 1;
    deliver(to, xi, line, from)
}

/// Selects the nearest non-intervention source for a line: the requester's
/// own chip's L3, else the lowest-numbered L3 on its MCM, else the
/// lowest-numbered L3 anywhere; failing those the requester's own L4, else
/// the lowest-numbered L4; else memory. Ties go to the lowest index, and a
/// distance class is a bit range of the presence mask (chips are numbered
/// MCM-major), so each choice is one bit scan.
fn nearest_source(topology: &Topology, requester: CpuId, state: &LineState) -> Source {
    let chips = state.l3;
    if chips != 0 {
        let own = topology.chip_of(requester).0;
        let per_mcm = topology.chips_per_mcm();
        let first = topology.mcm_of(requester).0 * per_mcm;
        let same_mcm = match per_mcm {
            64.. => u64::MAX,
            n => (1u64 << n) - 1,
        } << first;
        let best = if chips >> own & 1 == 1 {
            own
        } else if chips & same_mcm != 0 {
            (chips & same_mcm).trailing_zeros() as usize
        } else {
            chips.trailing_zeros() as usize
        };
        return Source::L3(ChipId(best));
    }
    let mcms = state.l4;
    if mcms != 0 {
        let me = topology.mcm_of(requester).0;
        let best = if mcms >> me & 1 == 1 {
            me
        } else {
            mcms.trailing_zeros() as usize
        };
        return Source::L4(McmId(best));
    }
    Source::Memory
}

/// Folds the directory (in line order), every chip's L3 directory, the
/// channels' busy times and the XI counts. The topology, the latency model
/// and the occupancy are configuration and the tracer observes; they are
/// left out.
impl Hash for Fabric {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Fabric {
            topology: _,
            latency: _,
            occupancy: _,
            lines,
            l3,
            busy,
            xi_counts,
            tracer: _,
        } = self;
        let mut entries: Vec<_> = lines.iter().collect();
        entries.sort_unstable_by_key(|&(line, _)| *line);
        entries.hash(state);
        l3.hash(state);
        busy.hash(state);
        xi_counts.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distance;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A 72-CPU zEC12 fabric with a free channel, so a fetch's cycles are
    /// its source's latency.
    fn fabric() -> Fabric {
        Fabric::new(Topology::zec12(72), LatencyModel::zec12(), 0, None)
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    /// One fetch whose XIs all answer `accept`; returns its cycles and the
    /// XIs delivered, in order.
    fn fetch_with(
        f: &mut Fabric,
        cpu: usize,
        l: LineAddr,
        kind: FetchKind,
        mut accept: impl FnMut(CpuId) -> bool,
    ) -> (Option<u64>, Vec<(CpuId, XiKind, LineAddr)>) {
        let mut xis = Vec::new();
        let cycles = f.fetch(CpuId(cpu), l, kind, 0, |to, kind, l, _| {
            xis.push((to, kind, l));
            accept(to)
        });
        (cycles, xis)
    }

    /// One fetch with every XI accepted.
    fn fetch(
        f: &mut Fabric,
        cpu: usize,
        l: LineAddr,
        kind: FetchKind,
    ) -> (Option<u64>, Vec<(CpuId, XiKind, LineAddr)>) {
        fetch_with(f, cpu, l, kind, |_| true)
    }

    /// The cycles of a fetch by `cpu` served from `source`.
    fn cost(f: &Fabric, cpu: usize, source: Source) -> Option<u64> {
        Some(f.latency.fetch(&f.topology, CpuId(cpu), source))
    }

    /// The shared level a fetch of `l` by `cpu` reads when no CPU owns
    /// it, from the directory record as it stands. Two sources can cost
    /// the same (a sibling chip's L3 and the own L4), so tests name the
    /// source before the fetch rather than infer it from the cycles.
    fn source(f: &Fabric, cpu: usize, l: LineAddr) -> Source {
        let state = f.lines.get(&l).cloned().unwrap_or_default();
        assert_eq!(
            state.owner, None,
            "an owned line is sourced by intervention"
        );
        nearest_source(&f.topology, CpuId(cpu), &state)
    }

    /// Asserts that a fetch of `l` by `cpu` reads `expected`, then runs
    /// it with every XI accepted and checks its cycles against that
    /// source's latency.
    fn fetch_from(f: &mut Fabric, cpu: usize, l: LineAddr, kind: FetchKind, expected: Source) {
        assert_eq!(source(f, cpu, l), expected);
        let (cycles, _) = fetch(f, cpu, l, kind);
        assert_eq!(cycles, cost(f, cpu, expected));
    }

    #[test]
    fn cold_fetch_from_memory() {
        let mut f = fabric();
        assert_eq!(source(&f, 0, line(1)), Source::Memory);
        let (cycles, xis) = fetch(&mut f, 0, line(1), FetchKind::Shared);
        assert!(xis.is_empty());
        assert_eq!(cycles, cost(&f, 0, Source::Memory));
        // The grant records the requester's chip L3 and MCM L4.
        assert_eq!((f.lines[&line(1)].l3, f.lines[&line(1)].l4), (1, 1));
    }

    #[test]
    fn read_sharing_needs_no_xis() {
        let mut f = fabric();
        fetch(&mut f, 0, line(1), FetchKind::Shared);
        assert_eq!(source(&f, 1, line(1)), Source::L3(ChipId(0)));
        let (cycles, xis) = fetch(&mut f, 1, line(1), FetchKind::Shared);
        assert!(xis.is_empty());
        assert_eq!(cycles, cost(&f, 1, Source::L3(ChipId(0))));
        assert_eq!(f.holders(line(1)), (None, &[CpuId(0), CpuId(1)][..]));
    }

    #[test]
    fn exclusive_fetch_invalidates_sharers() {
        let mut f = fabric();
        fetch(&mut f, 0, line(1), FetchKind::Shared);
        fetch(&mut f, 1, line(1), FetchKind::Shared);
        let (_, xis) = fetch(&mut f, 2, line(1), FetchKind::Exclusive);
        assert_eq!(
            xis,
            vec![
                (CpuId(0), XiKind::ReadOnly, line(1)),
                (CpuId(1), XiKind::ReadOnly, line(1)),
            ]
        );
        assert_eq!(f.holders(line(1)), (Some(CpuId(2)), &[][..]));
    }

    #[test]
    fn shared_fetch_demotes_owner() {
        let mut f = fabric();
        fetch(&mut f, 0, line(1), FetchKind::Exclusive);
        let (cycles, xis) = fetch(&mut f, 1, line(1), FetchKind::Shared);
        assert_eq!(xis, vec![(CpuId(0), XiKind::Demote, line(1))]);
        assert_eq!(cycles, cost(&f, 1, Source::Cpu(CpuId(0))));
        assert_eq!(f.holders(line(1)), (None, &[CpuId(0), CpuId(1)][..]));
    }

    #[test]
    fn rejected_xi_keeps_state_and_grants_nothing() {
        let mut f = fabric();
        fetch(&mut f, 0, line(1), FetchKind::Exclusive);
        let (cycles, xis) = fetch_with(&mut f, 1, line(1), FetchKind::Exclusive, |_| false);
        assert_eq!(cycles, None);
        assert_eq!(xis, vec![(CpuId(0), XiKind::Exclusive, line(1))]);
        assert_eq!(f.holders(line(1)), (Some(CpuId(0)), &[][..]));
        // The retry sends the same XI again.
        let (_, xis) = fetch(&mut f, 1, line(1), FetchKind::Exclusive);
        assert_eq!(xis, vec![(CpuId(0), XiKind::Exclusive, line(1))]);
        assert_eq!(f.holders(line(1)), (Some(CpuId(1)), &[][..]));
    }

    #[test]
    fn a_reject_stops_the_sweep_and_keeps_the_later_sharers_in_order() {
        let mut f = fabric();
        for cpu in [4, 9, 2, 30] {
            fetch(&mut f, cpu, line(1), FetchKind::Shared);
        }
        // CPU 2 stiff-arms: CPU 4 and 9 were invalidated, CPU 30 was not
        // reached, and CPU 2 itself, the requester aside, keeps its place.
        let (cycles, xis) = fetch_with(&mut f, 9, line(1), FetchKind::Exclusive, |to| {
            to != CpuId(2)
        });
        assert_eq!(cycles, None);
        assert_eq!(
            xis,
            vec![
                (CpuId(4), XiKind::ReadOnly, line(1)),
                (CpuId(2), XiKind::ReadOnly, line(1)),
            ]
        );
        assert_eq!(
            f.holders(line(1)),
            (None, &[CpuId(9), CpuId(2), CpuId(30)][..])
        );
        // Rejected XIs count.
        assert_eq!(f.xi_counts(), [0, 0, 2, 0]);
    }

    #[test]
    fn upgrade_from_shared() {
        let mut f = fabric();
        fetch(&mut f, 0, line(1), FetchKind::Shared);
        fetch(&mut f, 1, line(1), FetchKind::Shared);
        let (_, xis) = fetch(&mut f, 0, line(1), FetchKind::Exclusive);
        assert_eq!(xis, vec![(CpuId(1), XiKind::ReadOnly, line(1))]);
        assert_eq!(f.holders(line(1)), (Some(CpuId(0)), &[][..]));
    }

    #[test]
    fn source_prefers_nearest_l3() {
        let mut f = fabric();
        // CPU 40 is on MCM 1 (chip 6); CPU 0 on MCM 0 chip 0.
        fetch(&mut f, 40, line(1), FetchKind::Shared);
        f.drop_holder(CpuId(40), line(1));
        // No CPU holds it; L3 of chip 6 (MCM 1) has it, and so does L4 1,
        // which costs the same: the source is named, not inferred.
        assert_eq!(
            (f.lines[&line(1)].l3, f.lines[&line(1)].l4),
            (1 << 6, 1 << 1)
        );
        fetch_from(&mut f, 0, line(1), FetchKind::Shared, Source::L3(ChipId(6)));
        assert_eq!(
            (f.lines[&line(1)].l3, f.lines[&line(1)].l4),
            (1 << 6 | 1, 1 << 1 | 1)
        );
        // Once CPU 0's chip also has it, prefer the local chip.
        f.drop_holder(CpuId(0), line(1));
        fetch_from(&mut f, 1, line(1), FetchKind::Shared, Source::L3(ChipId(0)));
        // A CPU on chip 1 (MCM 0) prefers its MCM's chip 0 to chip 6.
        f.drop_holder(CpuId(1), line(1));
        fetch_from(&mut f, 6, line(1), FetchKind::Shared, Source::L3(ChipId(0)));
    }

    /// The distance-ranked formulation `nearest_source` replaced: the
    /// first chip, in ascending order, at the smallest distance; then the
    /// first MCM, own MCM first.
    fn reference_source(topology: &Topology, requester: CpuId, state: &LineState) -> Source {
        if state.l3 != 0 {
            let best = (0..64)
                .filter(|c| state.l3 >> c & 1 == 1)
                .map(ChipId)
                .min_by_key(|&c| match topology.distance_to_chip(requester, c) {
                    Distance::SameCpu | Distance::SameChip => 0,
                    Distance::SameMcm => 1,
                    Distance::CrossMcm => 2,
                })
                .expect("non-zero mask has a chip");
            return Source::L3(best);
        }
        if state.l4 != 0 {
            let me = topology.mcm_of(requester);
            let best = (0..8)
                .filter(|m| state.l4 >> m & 1 == 1)
                .map(McmId)
                .min_by_key(|&m| usize::from(m != me))
                .expect("non-zero mask has an MCM");
            return Source::L4(best);
        }
        Source::Memory
    }

    #[test]
    fn nearest_source_matches_the_distance_ranked_reference() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for topology in [
            Topology::zec12(144),
            Topology::new(90, 4, 3),
            Topology::new(64, 1, 64),
        ] {
            let cpus = topology.cpus();
            let chips = topology.chip_count();
            for i in 0..20_000u64 {
                // Sparse and dense masks over the populated chips, empty
                // masks included, plus an occasional all-ones mask.
                let state = LineState {
                    l3: match rng.gen_range(0..4) {
                        0 => 0,
                        1 => 1 << rng.gen_range(0..chips),
                        2 => rng.next_u64() & rng.next_u64(),
                        _ => rng.next_u64() | (u64::MAX * u64::from(i % 97 == 0)),
                    },
                    l4: (rng.next_u64() & rng.next_u64()) as u8,
                    ..LineState::default()
                };
                let requester = CpuId(rng.gen_range(0..cpus));
                assert_eq!(
                    nearest_source(&topology, requester, &state),
                    reference_source(&topology, requester, &state),
                    "{topology:?}: requester {requester:?}, L3 mask {:#x}",
                    state.l3,
                );
            }
        }
    }

    #[test]
    fn drop_holder_releases_ownership() {
        let mut f = fabric();
        fetch(&mut f, 3, line(1), FetchKind::Exclusive);
        f.drop_holder(CpuId(3), line(1));
        assert_eq!(f.holders(line(1)), (None, &[][..]));
        assert_eq!(source(&f, 4, line(1)), Source::L3(ChipId(0)));
        let (cycles, xis) = fetch(&mut f, 4, line(1), FetchKind::Exclusive);
        assert!(xis.is_empty());
        assert_eq!(cycles, cost(&f, 4, Source::L3(ChipId(0))));
    }

    #[test]
    fn l3_overflow_sends_lru_xis_to_same_chip_holders() {
        // Tiny L3: 1 set × 2 ways. Three lines through one chip overflow it.
        let mut f = Fabric::new(Topology::zec12(12), LatencyModel::zec12(), 0, Some((1, 2)));
        fetch(&mut f, 0, line(1), FetchKind::Shared);
        fetch(&mut f, 1, line(2), FetchKind::Shared);
        // CPU 6 is on chip 1: its traffic must not evict chip 0's lines.
        let (_, xis) = fetch(&mut f, 6, line(3), FetchKind::Shared);
        assert!(xis.is_empty(), "different chip, different L3");
        // Third line through chip 0 evicts the LRU victim (line 1).
        let (_, xis) = fetch(&mut f, 2, line(3), FetchKind::Shared);
        assert_eq!(xis, vec![(CpuId(0), XiKind::Lru, line(1))]);
        assert_eq!(f.holders(line(1)), (None, &[][..]));
        // The evicted line is no longer in chip 0's L3; the MCM's L4
        // still has it.
        assert_eq!((f.lines[&line(1)].l3, f.lines[&line(1)].l4), (0, 1));
        fetch_from(&mut f, 3, line(1), FetchKind::Shared, Source::L4(McmId(0)));
    }

    #[test]
    fn the_channel_queues_back_to_back_transfers_per_mcm() {
        let latency = LatencyModel::zec12();
        let mut f = Fabric::new(Topology::zec12(144), latency.clone(), 8, None);
        let mut accept = |_, _, _, _| true;
        let mem = latency.memory;
        // CPUs 0 and 1 share MCM 0; CPU 40 is on MCM 1.
        assert_eq!(
            f.fetch(CpuId(0), line(1), FetchKind::Shared, 100, &mut accept),
            Some(mem)
        );
        assert_eq!(
            f.fetch(CpuId(1), line(2), FetchKind::Shared, 103, &mut accept),
            Some(mem + 5)
        );
        assert_eq!(
            f.fetch(CpuId(40), line(3), FetchKind::Shared, 103, &mut accept),
            Some(mem)
        );
        assert_eq!(
            f.fetch(CpuId(0), line(4), FetchKind::Shared, 200, &mut accept),
            Some(mem)
        );
        // A stiff-armed fetch leaves the channel alone.
        f.fetch(CpuId(0), line(5), FetchKind::Exclusive, 300, &mut accept);
        assert_eq!(
            f.fetch(
                CpuId(1),
                line(5),
                FetchKind::Exclusive,
                300,
                |_, _, _, _| false
            ),
            None
        );
        assert_eq!(f.busy, vec![308, 111, 0, 0]);
    }

    #[test]
    fn invalidate_reaches_every_holder_in_directory_order() {
        let mut f = fabric();
        for cpu in [4, 9, 2] {
            fetch(&mut f, cpu, line(1), FetchKind::Shared);
        }
        fetch(&mut f, 7, line(2), FetchKind::Exclusive);
        let mut xis = Vec::new();
        for l in [line(1), line(2), line(3)] {
            f.invalidate(l, |to, kind, l, from| {
                assert_eq!(from, None);
                xis.push((to, kind, l));
                true
            });
        }
        assert_eq!(
            xis,
            vec![
                (CpuId(4), XiKind::ReadOnly, line(1)),
                (CpuId(9), XiKind::ReadOnly, line(1)),
                (CpuId(2), XiKind::ReadOnly, line(1)),
                (CpuId(7), XiKind::Exclusive, line(2)),
            ]
        );
        assert_eq!(f.holders(line(1)), (None, &[][..]));
        assert_eq!(f.holders(line(2)), (None, &[][..]));
        assert_eq!(f.xi_counts(), [1, 0, 3, 0]);
    }
}
