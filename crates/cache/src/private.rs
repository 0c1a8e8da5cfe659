//! The per-CPU private cache unit: L1 + L2 directories with transactional
//! footprint tracking (§III.C), the LRU-extension vector, and XI handling
//! with stiff-arming.

use crate::store_cache::{DrainWrite, StoreCache, StoreOutcome};
use crate::{CacheGeometry, CpuId, FootprintEvent, SetAssoc, Xi, XiKind, XiResponse};
use ztm_mem::{Address, LineAddr};
use ztm_trace::{hit_level, Event, Tracer};

/// Coherence state of a line in the private cache unit (MESI variant of the
/// paper: lines are owned read-only/shared or exclusive; the store-through
/// L1/L2 never hold dirty data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CohState {
    /// Owned read-only (shared).
    ReadOnly,
    /// Owned exclusive.
    Exclusive,
}

/// L1 directory entry: the paper moved the valid bits into latches and added
/// the tx-read / tx-dirty bits (§III.C). Presence in the [`SetAssoc`] is the
/// valid bit.
#[derive(Debug, Clone, Copy, Default)]
struct L1Entry {
    tx_read: bool,
    tx_dirty: bool,
}

/// L2 directory entry; the unit's coherence state lives here (the L1 is
/// inclusive in the L2 and shares the state).
#[derive(Debug, Clone, Copy)]
struct L2Entry {
    state: CohState,
}

/// What a local lookup found, before going to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalHit {
    /// Present in the L1 with sufficient ownership.
    L1,
    /// Present in the L2 with sufficient ownership (L1 install needed).
    L2,
    /// Not present, or present read-only when exclusive is needed: the
    /// coherence fabric must be consulted. `held_read_only` reports whether
    /// this is an ownership upgrade.
    Miss {
        /// The unit already holds the line read-only (upgrade request).
        held_read_only: bool,
    },
}

/// The class of a CPU memory access, as seen by the cache unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// An instruction or operand fetch (read).
    Fetch,
    /// An operand store (needs exclusive ownership).
    Store,
}

/// Result of installing a fabric-granted line, or completing an access:
/// footprint events for the transaction engine plus lines this unit lost
/// (which the caller must report to the fabric).
#[derive(Debug, Clone, Default)]
pub struct InstallOutcome {
    /// Transactional footprint consequences (overflows, LRU-XI hits).
    pub events: Vec<FootprintEvent>,
    /// Lines evicted from the L2 (and thus from the whole unit).
    pub lost_lines: Vec<LineAddr>,
}

/// Result of delivering an XI to this unit.
#[derive(Debug, Clone)]
pub struct XiOutcome {
    /// Accept or reject (stiff-arm).
    pub response: XiResponse,
    /// Footprint events (conflict aborts) triggered by an accepted XI.
    pub events: Vec<FootprintEvent>,
}

/// One CPU's private cache unit: store-through L1 and L2 directories
/// (inclusive), the 64-row LRU-extension vector, the gathering store cache,
/// and the XI-reject counter.
///
/// The unit tracks *which* lines are cached and their transactional marking;
/// line *data* lives in the committed [`ztm_mem::MainMemory`] image overlaid
/// by this unit's [`StoreCache`] (speculative bytes), which is how isolation
/// falls out: speculative data is physically unreachable from other CPUs.
#[derive(Debug, Clone)]
pub struct PrivateCache {
    geom: CacheGeometry,
    l1: SetAssoc<L1Entry>,
    l2: SetAssoc<L2Entry>,
    /// One bit per L1 row: a tx-read line was evicted from this row (§III.C).
    lru_ext: Vec<bool>,
    store_cache: StoreCache,
    in_tx: bool,
    /// XI rejects per interrogating CPU since this CPU last completed an
    /// instruction. The hang-avoidance threshold (§III.C) counts repeated
    /// denial of the *same* requester: a CPU that merely has a long fetch
    /// in flight rejects many different requesters once or twice each,
    /// which is not a hang. Flat per-CPU slots (indexed by CPU id, grown on
    /// demand) validated by an epoch so that "reset all counters" — which
    /// happens once per completed instruction — is O(1) instead of a hash
    /// map clear.
    reject_counts: Vec<RejectSlot>,
    reject_epoch: u64,
    /// Journal of lines marked tx-read during the current transaction, in
    /// marking order (duplicates possible when a line is evicted and
    /// re-marked). Together with `tx_dirty_marks` this bounds every
    /// transaction-lifecycle operation by the *footprint* size instead of
    /// the full L1/L2 directory size: the tx bits of exactly these lines
    /// need clearing at begin/commit/abort, and only these lines can be
    /// L2-protected. Invariant: every L1 entry with `tx_read` set appears
    /// in this journal (and likewise for `tx_dirty`); entries whose line
    /// left the L1 or lost its bit are stale and filtered on use.
    tx_read_marks: Vec<LineAddr>,
    /// Journal of lines marked tx-dirty during the current transaction.
    tx_dirty_marks: Vec<LineAddr>,
    tracer: Tracer,
}

/// One per-requester XI-reject counter, valid only for a matching epoch.
#[derive(Debug, Clone, Copy, Default)]
struct RejectSlot {
    epoch: u64,
    count: u32,
}

impl PrivateCache {
    /// Creates a private cache unit with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        PrivateCache {
            l1: SetAssoc::new(geom.l1_sets, geom.l1_ways),
            l2: SetAssoc::new(geom.l2_sets, geom.l2_ways),
            lru_ext: vec![false; geom.l1_sets],
            store_cache: StoreCache::new(geom.store_cache_entries),
            geom,
            in_tx: false,
            reject_counts: Vec::new(),
            reject_epoch: 0,
            tx_read_marks: Vec::new(),
            tx_dirty_marks: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Creates a private cache unit with the XI-reject table pre-sized for
    /// `cpus` requesters (avoids growth on the XI path; any id beyond the
    /// pre-size still grows the table on demand).
    pub fn with_cpu_count(geom: CacheGeometry, cpus: usize) -> Self {
        let mut unit = Self::new(geom);
        unit.reject_counts = vec![RejectSlot::default(); cpus];
        unit
    }

    /// Attaches a tracer (also cloned into the gathering store cache, so its
    /// events carry the same CPU attribution).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.store_cache.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The unit's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Whether the unit is currently tracking a transaction footprint.
    pub fn in_tx(&self) -> bool {
        self.in_tx
    }

    /// Read access to the gathering store cache (for statistics).
    pub fn store_cache(&self) -> &StoreCache {
        &self.store_cache
    }

    /// Current coherence state of a line in this unit.
    pub fn state_of(&self, line: LineAddr) -> Option<CohState> {
        self.l2.peek(line).map(|e| e.state)
    }

    /// Pure (stamp-free) preview of what [`access_local`](Self::access_local)
    /// would return for a `need_excl` access to `line`: `Some(level)` with a
    /// [`hit_level`] code when the access hits locally, `None` when it would
    /// need the fabric. The shard classifier uses it to prove a step never
    /// leaves its node before letting the step run inside a parallel round.
    pub fn probe_local(&self, line: LineAddr, need_excl: bool) -> Option<u8> {
        match self.l2.peek(line).map(|e| e.state) {
            None => None,
            Some(state) => {
                if need_excl && state == CohState::ReadOnly {
                    None
                } else if self.l1.peek(line).is_some() {
                    Some(hit_level::L1)
                } else {
                    Some(hit_level::L2)
                }
            }
        }
    }

    /// Number of L1 rows with the LRU-extension bit set.
    pub fn lru_ext_rows(&self) -> usize {
        self.lru_ext.iter().filter(|b| **b).count()
    }

    /// Number of L1 lines currently marked tx-read: the journal filtered by
    /// the live L1 bits (marked lines may have been evicted since), deduped.
    pub fn tx_read_lines(&self) -> usize {
        let mut lines: Vec<LineAddr> = self
            .tx_read_marks
            .iter()
            .copied()
            .filter(|&l| self.l1.peek(l).map(|e| e.tx_read).unwrap_or(false))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    // ------------------------------------------------------------------
    // Access path
    // ------------------------------------------------------------------

    /// Installs a line granted by the fabric (or upgrades it), placing it in
    /// both the L2 and L1 and applying the transactional marking for the
    /// access that triggered the fetch.
    pub fn install(
        &mut self,
        line: LineAddr,
        state: CohState,
        class: AccessClass,
        tx: bool,
    ) -> InstallOutcome {
        let mut out = InstallOutcome::default();
        self.tracer.emit(|| Event::Install {
            line: line.index(),
            excl: state == CohState::Exclusive,
            tx,
        });
        match self.l2.get(line) {
            Some(e) => e.state = state,
            None => {
                let protected = self.l2_protected_lines();
                let evicted = self.l2.insert(line, L2Entry { state }, |l, _| {
                    u8::from(protected.binary_search(&l).is_ok())
                });
                if let Some((vline, _)) = evicted {
                    self.lru_evict_from_l2(vline, &mut out);
                }
            }
        }
        self.install_l1(line, &mut out);
        self.mark(line, class, tx);
        out
    }

    /// The local half of an access: one pass over each directory that
    /// decides whether the fabric is needed and, on a local hit, completes
    /// the access.
    ///
    /// The L2 is scanned once: the state check comes first and the LRU stamp
    /// is applied only on the hit path. On that path the L1 probe consumes
    /// an LRU stamp even when the line is not L1-resident. An L1 hit then
    /// applies the tx marking in place; an L2 hit installs the line into the
    /// L1 and marks it there. A miss has no completion side effects. `need_excl` is the lookup's
    /// exclusivity requirement (a store, or fetch with intent to update);
    /// `class` is the access class used for tx marking.
    pub fn access_local(
        &mut self,
        line: LineAddr,
        class: AccessClass,
        need_excl: bool,
        tx: bool,
    ) -> (LocalHit, InstallOutcome) {
        // Phase 1: the lookup — scans and LRU stamps only, no completion
        // side effects, so the `Access` event precedes any `Evict` the
        // completion emits.
        let (hit, l1_at) = match self.l2.find(line) {
            None => (
                LocalHit::Miss {
                    held_read_only: false,
                },
                None,
            ),
            Some(l2_at) => {
                if need_excl && self.l2.entry_at(l2_at).state == CohState::ReadOnly {
                    (
                        LocalHit::Miss {
                            held_read_only: true,
                        },
                        None,
                    )
                } else {
                    let l1_at = self.l1.get_index(line);
                    self.l2.touch_index(l2_at);
                    match l1_at {
                        Some(at) => (LocalHit::L1, Some(at)),
                        None => (LocalHit::L2, None),
                    }
                }
            }
        };
        self.tracer.emit(|| Event::Access {
            line: line.index(),
            store: need_excl,
            hit: match hit {
                LocalHit::L1 => hit_level::L1,
                LocalHit::L2 => hit_level::L2,
                LocalHit::Miss { .. } => hit_level::MISS,
            },
            tx: self.in_tx,
        });
        // Phase 2: completion — tx marking (and L1 install for L2 hits).
        let mut out = InstallOutcome::default();
        match hit {
            LocalHit::L1 => {
                if tx {
                    let e = self
                        .l1
                        .entry_at_mut(l1_at.expect("L1 hit carries its slot index"));
                    match class {
                        AccessClass::Fetch => {
                            if !e.tx_read {
                                e.tx_read = true;
                                self.tx_read_marks.push(line);
                            }
                        }
                        AccessClass::Store => {
                            if !e.tx_dirty {
                                e.tx_dirty = true;
                                self.tx_dirty_marks.push(line);
                            }
                        }
                    }
                }
            }
            LocalHit::L2 => {
                self.install_l1(line, &mut out);
                self.mark(line, class, tx);
            }
            LocalHit::Miss { .. } => {}
        }
        (hit, out)
    }

    fn install_l1(&mut self, line: LineAddr, out: &mut InstallOutcome) {
        if self.l1.contains(line) {
            return;
        }
        let evicted = self.l1.insert(line, L1Entry::default(), |_, e| {
            if e.tx_read {
                2
            } else if e.tx_dirty {
                1
            } else {
                0
            }
        });
        if let Some((vline, ventry)) = evicted {
            self.tracer.emit(|| Event::Evict {
                line: vline.index(),
                level: 1,
                tx_read: ventry.tx_read,
                tx_dirty: ventry.tx_dirty,
            });
            // tx-dirty lines may leave the L1 (data is safe in the store
            // cache and the line stays in the L2, §III.C). tx-read lines
            // set the LRU-extension bit, or abort without the extension.
            if ventry.tx_read {
                if self.geom.lru_extension {
                    let row = vline.congruence_class(self.geom.l1_sets);
                    self.lru_ext[row] = true;
                } else {
                    out.events
                        .push(FootprintEvent::FetchOverflow { line: vline });
                }
            }
        }
    }

    /// Applies tx-read / tx-dirty marking for a completed access. A bit's
    /// false→true transition is journaled so transaction-end processing can
    /// visit exactly the marked lines.
    fn mark(&mut self, line: LineAddr, class: AccessClass, tx: bool) {
        if !tx {
            return;
        }
        let Some(e) = self.l1.peek_mut(line) else {
            return;
        };
        match class {
            AccessClass::Fetch => {
                if !e.tx_read {
                    e.tx_read = true;
                    self.tx_read_marks.push(line);
                }
            }
            AccessClass::Store => {
                if !e.tx_dirty {
                    e.tx_dirty = true;
                    self.tx_dirty_marks.push(line);
                }
            }
        }
    }

    /// Sorted list of lines the L2 should prefer to keep: transactional store
    /// lines (must stay resident, §III.D) and L1 tx-read/tx-dirty lines.
    /// Built from the mark journals — O(footprint), not O(L1 directory) —
    /// filtering out journal entries whose line has since left the L1 or
    /// lost its bit (those lines are no longer protected).
    fn l2_protected_lines(&self) -> Vec<LineAddr> {
        let mut lines = self.store_cache.tx_lines();
        lines.extend(
            self.tx_read_marks
                .iter()
                .copied()
                .filter(|&l| self.l1.peek(l).map(|e| e.tx_read).unwrap_or(false)),
        );
        lines.extend(
            self.tx_dirty_marks
                .iter()
                .copied()
                .filter(|&l| self.l1.peek(l).map(|e| e.tx_dirty).unwrap_or(false)),
        );
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Handles an L2 eviction: the inclusivity rule forces the line out of
    /// the L1 too (an internal LRU XI), with transactional consequences.
    fn lru_evict_from_l2(&mut self, vline: LineAddr, out: &mut InstallOutcome) {
        out.lost_lines.push(vline);
        self.store_cache.drain_line(vline);
        let row = vline.congruence_class(self.geom.l1_sets);
        let l1_entry = self.l1.peek(vline).copied();
        self.tracer.emit(|| Event::Evict {
            line: vline.index(),
            level: 2,
            tx_read: l1_entry.map(|e| e.tx_read).unwrap_or(false),
            tx_dirty: l1_entry.map(|e| e.tx_dirty).unwrap_or(false),
        });
        if let Some(e) = self.l1.remove(vline) {
            if e.tx_dirty {
                // A transactionally dirty line must stay in the L2 (§III.D).
                out.events
                    .push(FootprintEvent::StoreOverflow { line: Some(vline) });
            } else if e.tx_read {
                out.events
                    .push(FootprintEvent::FetchOverflow { line: vline });
            }
        } else if self.in_tx && self.lru_ext[row] {
            // The internal LRU XI hits a valid extension row: tracking for
            // some tx-read line in this row may have been lost (§III.C).
            out.events
                .push(FootprintEvent::FetchOverflow { line: vline });
        }
        if self.store_cache.xi_conflicts(vline) {
            // Store-cache data for this line can no longer stay L2-resident.
            out.events
                .push(FootprintEvent::StoreOverflow { line: Some(vline) });
        }
    }

    /// Presents store data to the gathering store cache.
    ///
    /// Callers must have established exclusive ownership first. The store
    /// must not cross a 128-byte granule (the ISA layer splits such stores).
    pub fn buffer_store(
        &mut self,
        addr: Address,
        bytes: &[u8],
        tx: bool,
        ntstg: bool,
    ) -> StoreOutcome {
        let outcome = self.store_cache.store(addr, bytes, tx, ntstg);
        if outcome != StoreOutcome::Overflow && tx {
            self.mark(addr.line(), AccessClass::Store, true);
        }
        outcome
    }

    /// Store-forwards buffered bytes over a load (see [`StoreCache::forward`]).
    pub fn forward(&self, addr: Address, buf: &mut [u8]) {
        self.store_cache.forward(addr, buf);
    }

    // ------------------------------------------------------------------
    // XI handling (§III.C)
    // ------------------------------------------------------------------

    /// Delivers a cross-interrogate to this unit.
    pub fn handle_xi(&mut self, xi: Xi) -> XiOutcome {
        let line = xi.line;
        let l1_entry = self.l1.peek(line).copied();
        let footprint_store =
            l1_entry.map(|e| e.tx_dirty).unwrap_or(false) || self.store_cache.xi_conflicts(line);
        let footprint_fetch = l1_entry.map(|e| e.tx_read).unwrap_or(false);
        let row = line.congruence_class(self.geom.l1_sets);
        let ext_hit = self.in_tx && l1_entry.is_none() && self.lru_ext[row];
        let footprint_hit = footprint_store || footprint_fetch || ext_hit;

        // Only CPU-originated XIs can be stiff-armed; XIs from the I/O
        // subsystem or internal LRU processing carry no requester and are
        // always honored.
        if footprint_hit && xi.kind.rejectable() && self.geom.stiff_arm {
            if let Some(from) = xi.from {
                let count = self.bump_reject_count(from);
                if count <= self.geom.xi_reject_threshold {
                    self.tracer.emit(|| Event::XiReject {
                        line: line.index(),
                        kind: xi.kind.code(),
                        count,
                    });
                    return XiOutcome {
                        response: XiResponse::Reject,
                        events: Vec::new(),
                    };
                }
                // Reject budget exhausted without completing instructions:
                // accept the XI and abort to avoid a hang (§III.C).
                self.tracer.emit(|| Event::XiAccept {
                    line: line.index(),
                    kind: xi.kind.code(),
                    conflict: true,
                });
                self.tracer
                    .emit(|| Event::RejectHang { line: line.index() });
                let mut out = self.apply_xi_transition(xi);
                out.events.push(FootprintEvent::RejectHang { line });
                return out;
            }
        }

        self.tracer.emit(|| Event::XiAccept {
            line: line.index(),
            kind: xi.kind.code(),
            conflict: footprint_hit,
        });
        let mut out = self.apply_xi_transition(xi);
        if footprint_hit {
            out.events.push(FootprintEvent::Conflict {
                line,
                from: xi.from,
                store: footprint_store,
            });
        }
        out
    }

    fn apply_xi_transition(&mut self, xi: Xi) -> XiOutcome {
        // Losing (or downgrading) the line forces pending non-transactional
        // stores for it out of the gathering store cache first.
        self.store_cache.drain_line(xi.line);
        match xi.kind {
            XiKind::Exclusive | XiKind::ReadOnly | XiKind::Lru => {
                self.l1.remove(xi.line);
                self.l2.remove(xi.line);
            }
            XiKind::Demote => {
                if let Some(e) = self.l2.peek_mut(xi.line) {
                    e.state = CohState::ReadOnly;
                }
            }
        }
        XiOutcome {
            response: XiResponse::Accept,
            events: Vec::new(),
        }
    }

    /// Increments and returns the reject count charged to `from`.
    fn bump_reject_count(&mut self, from: CpuId) -> u32 {
        if from.0 >= self.reject_counts.len() {
            self.reject_counts.resize(from.0 + 1, RejectSlot::default());
        }
        let slot = &mut self.reject_counts[from.0];
        if slot.epoch != self.reject_epoch {
            *slot = RejectSlot {
                epoch: self.reject_epoch,
                count: 0,
            };
        }
        slot.count += 1;
        slot.count
    }

    /// Resets the XI-reject counters; called whenever the CPU completes an
    /// instruction (a progressing CPU may keep stiff-arming, §III.C).
    /// O(1): bumping the epoch invalidates every slot at once.
    pub fn note_instruction_complete(&mut self) {
        self.reject_epoch += 1;
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Clears the tx bits of every journaled line still holding one and
    /// empties both journals — O(footprint) instead of an L1 sweep.
    fn clear_tx_marks(&mut self) {
        for i in 0..self.tx_read_marks.len() {
            if let Some(e) = self.l1.peek_mut(self.tx_read_marks[i]) {
                e.tx_read = false;
            }
        }
        for i in 0..self.tx_dirty_marks.len() {
            if let Some(e) = self.l1.peek_mut(self.tx_dirty_marks[i]) {
                e.tx_dirty = false;
            }
        }
        self.tx_read_marks.clear();
        self.tx_dirty_marks.clear();
    }

    /// Starts footprint tracking for a new outermost transaction: resets the
    /// tx bits and the LRU-extension vector, and closes pre-existing store
    /// cache entries (§III.B/§III.D).
    pub fn begin_outermost_tx(&mut self) {
        self.in_tx = true;
        self.reject_epoch += 1;
        self.clear_tx_marks();
        self.lru_ext.fill(false);
        self.store_cache.begin_tx();
    }

    /// Commits the transaction: clears all transactional marking and returns
    /// the buffered stores for application to committed memory.
    pub fn commit_tx(&mut self) -> Vec<DrainWrite> {
        self.in_tx = false;
        self.clear_tx_marks();
        self.lru_ext.fill(false);
        self.store_cache.commit_tx()
    }

    /// Aborts the transaction: invalidates tx-dirty L1 lines (they remain
    /// L2-resident with the pre-transaction data, §III.C), discards buffered
    /// stores, and returns the NTSTG writes that must still be committed.
    pub fn abort_tx(&mut self) -> Vec<DrainWrite> {
        self.in_tx = false;
        for i in 0..self.tx_dirty_marks.len() {
            let line = self.tx_dirty_marks[i];
            // Journal entries can be stale: only remove lines whose live L1
            // entry still carries the dirty bit.
            if self.l1.peek(line).map(|e| e.tx_dirty).unwrap_or(false) {
                self.l1.remove(line);
            }
        }
        self.tx_dirty_marks.clear();
        for i in 0..self.tx_read_marks.len() {
            if let Some(e) = self.l1.peek_mut(self.tx_read_marks[i]) {
                e.tx_read = false;
            }
        }
        self.tx_read_marks.clear();
        self.lru_ext.fill(false);
        self.store_cache.abort_tx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuId;

    fn unit() -> PrivateCache {
        PrivateCache::new(CacheGeometry::zec12())
    }

    fn small_unit() -> PrivateCache {
        PrivateCache::new(CacheGeometry {
            l1_sets: 2,
            l1_ways: 2,
            l2_sets: 4,
            l2_ways: 2,
            store_cache_entries: 4,
            ..CacheGeometry::zec12()
        })
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    fn xi(kind: XiKind, l: LineAddr) -> Xi {
        Xi {
            kind,
            line: l,
            from: Some(CpuId(9)),
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut u = unit();
        assert_eq!(
            u.access_local(line(1), AccessClass::Fetch, false, false).0,
            LocalHit::Miss {
                held_read_only: false
            }
        );
        u.install(line(1), CohState::ReadOnly, AccessClass::Fetch, false);
        assert_eq!(
            u.access_local(line(1), AccessClass::Fetch, false, false).0,
            LocalHit::L1
        );
    }

    #[test]
    fn store_needs_exclusive() {
        let mut u = unit();
        u.install(line(1), CohState::ReadOnly, AccessClass::Fetch, false);
        assert_eq!(
            u.access_local(line(1), AccessClass::Store, true, false).0,
            LocalHit::Miss {
                held_read_only: true
            }
        );
        u.install(line(1), CohState::Exclusive, AccessClass::Store, false);
        assert_eq!(
            u.access_local(line(1), AccessClass::Store, true, false).0,
            LocalHit::L1
        );
    }

    #[test]
    fn tx_read_marking_and_conflict() {
        let mut u = unit();
        u.begin_outermost_tx();
        u.install(line(1), CohState::ReadOnly, AccessClass::Fetch, true);
        assert_eq!(u.tx_read_lines(), 1);
        // A read-only XI (not rejectable) hits the footprint: conflict.
        let out = u.handle_xi(xi(XiKind::ReadOnly, line(1)));
        assert_eq!(out.response, XiResponse::Accept);
        assert!(matches!(
            out.events.as_slice(),
            [FootprintEvent::Conflict { store: false, .. }]
        ));
        assert_eq!(u.state_of(line(1)), None, "line invalidated");
    }

    #[test]
    fn exclusive_xi_stiff_armed_until_threshold() {
        let mut u = unit();
        u.begin_outermost_tx();
        u.install(line(1), CohState::Exclusive, AccessClass::Store, true);
        u.buffer_store(line(1).base(), &[1], true, false);
        let threshold = u.geometry().xi_reject_threshold;
        for _ in 0..threshold {
            let out = u.handle_xi(xi(XiKind::Exclusive, line(1)));
            assert_eq!(out.response, XiResponse::Reject);
        }
        // Threshold reached: accepted with a hang-avoidance abort.
        let out = u.handle_xi(xi(XiKind::Exclusive, line(1)));
        assert_eq!(out.response, XiResponse::Accept);
        assert!(matches!(
            out.events.as_slice(),
            [FootprintEvent::RejectHang { .. }]
        ));
    }

    #[test]
    fn instruction_completion_resets_reject_budget() {
        let mut u = unit();
        u.begin_outermost_tx();
        u.install(line(1), CohState::Exclusive, AccessClass::Fetch, true);
        for _ in 0..u.geometry().xi_reject_threshold {
            assert_eq!(
                u.handle_xi(xi(XiKind::Demote, line(1))).response,
                XiResponse::Reject
            );
        }
        u.note_instruction_complete();
        assert_eq!(
            u.handle_xi(xi(XiKind::Demote, line(1))).response,
            XiResponse::Reject,
            "budget replenished by forward progress"
        );
    }

    #[test]
    fn no_stiff_arm_knob_aborts_immediately() {
        let mut u = PrivateCache::new(CacheGeometry {
            stiff_arm: false,
            ..CacheGeometry::zec12()
        });
        u.begin_outermost_tx();
        u.install(line(1), CohState::Exclusive, AccessClass::Fetch, true);
        let out = u.handle_xi(xi(XiKind::Exclusive, line(1)));
        assert_eq!(out.response, XiResponse::Accept);
        assert!(matches!(
            out.events.as_slice(),
            [FootprintEvent::Conflict { .. }]
        ));
    }

    #[test]
    fn non_tx_xi_has_no_events() {
        let mut u = unit();
        u.install(line(1), CohState::Exclusive, AccessClass::Fetch, false);
        let out = u.handle_xi(xi(XiKind::Exclusive, line(1)));
        assert_eq!(out.response, XiResponse::Accept);
        assert!(out.events.is_empty());
        assert_eq!(u.state_of(line(1)), None);
    }

    #[test]
    fn demote_keeps_line_read_only() {
        let mut u = unit();
        u.install(line(1), CohState::Exclusive, AccessClass::Fetch, false);
        let out = u.handle_xi(xi(XiKind::Demote, line(1)));
        assert_eq!(out.response, XiResponse::Accept);
        assert_eq!(u.state_of(line(1)), Some(CohState::ReadOnly));
    }

    #[test]
    fn l1_eviction_of_tx_read_sets_lru_extension() {
        let mut u = small_unit(); // L1: 2 sets × 2 ways
        u.begin_outermost_tx();
        // Three tx-read lines in L1 row 0 (lines 0, 2, 4 → class 0 of 2 sets).
        u.install(line(0), CohState::ReadOnly, AccessClass::Fetch, true);
        u.install(line(2), CohState::ReadOnly, AccessClass::Fetch, true);
        let out = u.install(line(4), CohState::ReadOnly, AccessClass::Fetch, true);
        assert!(out.events.is_empty(), "extension absorbs the eviction");
        assert_eq!(u.lru_ext_rows(), 1);
        // Any XI to a missing line in that row now aborts.
        let out = u.handle_xi(xi(XiKind::ReadOnly, line(6)));
        assert!(matches!(
            out.events.as_slice(),
            [FootprintEvent::Conflict { .. }]
        ));
    }

    #[test]
    fn without_extension_l1_eviction_overflows() {
        let mut u = PrivateCache::new(CacheGeometry {
            l1_sets: 2,
            l1_ways: 2,
            l2_sets: 4,
            l2_ways: 2,
            store_cache_entries: 4,
            lru_extension: false,
            ..CacheGeometry::zec12()
        });
        u.begin_outermost_tx();
        u.install(line(0), CohState::ReadOnly, AccessClass::Fetch, true);
        u.install(line(2), CohState::ReadOnly, AccessClass::Fetch, true);
        let out = u.install(line(4), CohState::ReadOnly, AccessClass::Fetch, true);
        assert!(matches!(
            out.events.as_slice(),
            [FootprintEvent::FetchOverflow { .. }]
        ));
    }

    #[test]
    fn l2_eviction_of_tx_line_overflows() {
        let mut u = small_unit(); // L2: 4 sets × 2 ways
        u.begin_outermost_tx();
        // Fill L2 set 0 (lines 0, 4 → class 0 of 4 sets) with tx-read lines.
        u.install(line(0), CohState::ReadOnly, AccessClass::Fetch, true);
        u.install(line(4), CohState::ReadOnly, AccessClass::Fetch, true);
        // Third line in the same L2 set must evict a protected tx line.
        let out = u.install(line(8), CohState::ReadOnly, AccessClass::Fetch, true);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, FootprintEvent::FetchOverflow { .. })));
        assert_eq!(out.lost_lines.len(), 1);
    }

    #[test]
    fn l2_prefers_evicting_non_tx_lines() {
        let mut u = small_unit();
        u.begin_outermost_tx();
        u.install(line(0), CohState::ReadOnly, AccessClass::Fetch, false); // non-tx
        u.install(line(4), CohState::ReadOnly, AccessClass::Fetch, true); // tx
        let out = u.install(line(8), CohState::ReadOnly, AccessClass::Fetch, true);
        assert!(out.events.is_empty());
        assert_eq!(out.lost_lines, vec![line(0)]);
        assert!(u.state_of(line(4)).is_some(), "tx line kept");
    }

    #[test]
    fn commit_clears_marking_and_returns_writes() {
        let mut u = unit();
        u.begin_outermost_tx();
        u.install(line(1), CohState::Exclusive, AccessClass::Store, true);
        u.buffer_store(line(1).base(), &[7; 8], true, false);
        let writes = u.commit_tx();
        assert_eq!(writes.len(), 1);
        assert!(!u.in_tx());
        assert_eq!(u.tx_read_lines(), 0);
        // Line is still cached after commit.
        assert_eq!(u.state_of(line(1)), Some(CohState::Exclusive));
    }

    #[test]
    fn abort_invalidates_tx_dirty_l1_lines() {
        let mut u = unit();
        u.begin_outermost_tx();
        u.install(line(1), CohState::Exclusive, AccessClass::Store, true);
        u.buffer_store(line(1).base(), &[7; 8], true, false);
        assert_eq!(
            u.access_local(line(1), AccessClass::Fetch, false, false).0,
            LocalHit::L1
        );
        let writes = u.abort_tx();
        assert!(writes.is_empty(), "no NTSTG data");
        // tx-dirty line left the L1 but stays in the L2 (7-cycle refill).
        assert_eq!(
            u.access_local(line(1), AccessClass::Fetch, false, false).0,
            LocalHit::L2
        );
    }

    #[test]
    fn store_forwarding_within_tx() {
        let mut u = unit();
        u.begin_outermost_tx();
        u.install(line(0), CohState::Exclusive, AccessClass::Store, true);
        u.buffer_store(Address::new(8), &[9; 4], true, false);
        let mut buf = [0u8; 8];
        u.forward(Address::new(8), &mut buf);
        assert_eq!(buf, [9, 9, 9, 9, 0, 0, 0, 0]);
    }

    #[test]
    fn begin_tx_resets_prior_marking() {
        let mut u = unit();
        u.begin_outermost_tx();
        u.install(line(1), CohState::ReadOnly, AccessClass::Fetch, true);
        u.commit_tx();
        u.begin_outermost_tx();
        assert_eq!(u.tx_read_lines(), 0);
        assert_eq!(u.lru_ext_rows(), 0);
    }
}
