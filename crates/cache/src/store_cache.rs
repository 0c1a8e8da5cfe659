//! The gathering store cache (§III.D).

use std::hash::{Hash, Hasher};
use ztm_mem::{Address, HalfLineAddr, LineAddr, MainMemory, HALF_LINE_SIZE};
use ztm_trace::{Event, Tracer};

/// One 128-byte gathering entry.
#[derive(Debug, Clone, Hash)]
struct Entry {
    half_line: HalfLineAddr,
    data: [u8; HALF_LINE_SIZE as usize],
    /// Byte-precise valid bits (bit *i* covers byte *i* of the granule).
    valid: u128,
    /// Per-doubleword NTSTG marks (bit *i* covers bytes `8i..8i+8`); these
    /// doublewords survive transaction aborts (§II.A, §III.D).
    ntstg: u16,
    /// Written by the (still pending) transaction.
    tx: bool,
    /// Closed for gathering (set on all pre-existing entries when a new
    /// outermost transaction begins).
    closed: bool,
    /// Age for FIFO ordering of the circular queue.
    age: u64,
}

/// A write drained from the store cache toward the L2/L3 and memory.
///
/// Produced when entries are evicted, when a transaction commits (all
/// transactional bytes), or when it aborts (only NTSTG doublewords).
#[derive(Debug, Clone)]
pub struct DrainWrite {
    half_line: HalfLineAddr,
    data: [u8; HALF_LINE_SIZE as usize],
    valid: u128,
}

impl DrainWrite {
    /// The granule this write targets.
    pub fn half_line(&self) -> HalfLineAddr {
        self.half_line
    }

    /// Number of valid bytes carried.
    pub fn byte_count(&self) -> u32 {
        self.valid.count_ones()
    }

    /// Applies the valid bytes to the committed memory image, one store
    /// per contiguous run of valid bytes.
    pub fn apply_to(&self, mem: &mut MainMemory) {
        let base = self.half_line.base();
        let mut valid = self.valid;
        while valid != 0 {
            let start = valid.trailing_zeros();
            let end = start + (valid >> start).trailing_ones();
            let run = start as usize..end as usize;
            mem.store_bytes(base.add(u64::from(start)), &self.data[run]);
            valid &= u128::MAX.checked_shl(end).unwrap_or(0);
        }
    }
}

/// Outcome of presenting a store to the store cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The store gathered into an existing open entry.
    Gathered,
    /// A new entry was allocated.
    NewEntry,
    /// The store cache is entirely filled with entries of the current
    /// transaction and the store matches none of them: the transaction must
    /// abort with a store-overflow condition (§III.D).
    Overflow,
    /// An NTSTG store overlapped bytes written by normal transactional
    /// stores; the architecture requires software to keep them disjoint
    /// (§II.A), so the simulator reports it for diagnostics.
    NtstgOverlap,
}

/// The gathering store cache: a circular queue of 64 × 128-byte entries with
/// byte-precise valid bits (§III.D).
///
/// Responsibilities modeled from the paper:
///
/// * gather neighboring stores before sending them to L2/L3 (store-bandwidth
///   relief — here it matters because entry count bounds the transactional
///   store footprint);
/// * buffer transactional stores until the transaction ends, blocking their
///   write-back;
/// * mark pre-existing entries *closed* when a new outermost transaction
///   begins;
/// * keep NTSTG doubleword marks so those bytes commit even on abort;
/// * answer "does this XI compare to an active transactional entry?" for XI
///   rejection;
/// * detect store-footprint overflow.
///
/// Functional note: in this simulator, *non-transactional* stores update the
/// committed memory image immediately at execution (the L1/L2 are
/// store-through, so their visibility latency is not architecturally
/// observable); non-transactional entries therefore carry redundant data and
/// exist to model gathering and occupancy. Transactional entries hold the
/// *only* copy of speculative data, which realizes isolation: no other CPU
/// can observe it before commit.
#[derive(Debug, Clone)]
pub struct StoreCache {
    entries: Vec<Entry>,
    capacity: usize,
    next_age: u64,
    /// Sorted, deduplicated cache of the lines carried by active
    /// transactional entries. Maintained incrementally (allocation on new
    /// tx entries, wholesale clear on commit/abort) so the per-XI conflict
    /// probe is a binary search instead of rebuilding a `Vec` per XI.
    tx_line_cache: Vec<LineAddr>,
    tracer: Tracer,
}

impl StoreCache {
    /// Creates a store cache with `capacity` entries (zEC12: 64).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store cache needs at least one entry");
        StoreCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_age: 0,
            tx_line_cache: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer for gather/close/drain/overflow events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries holding current-transaction data.
    pub fn tx_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.tx).count()
    }

    /// Presents a store of `bytes` at `addr` to the cache.
    ///
    /// `tx` marks transactional stores; `ntstg` marks the Non-Transactional
    /// Store instruction (only meaningful with `tx == true`).
    ///
    /// # Panics
    ///
    /// Panics if the store crosses a 128-byte granule boundary (callers split
    /// such stores) or is empty.
    pub fn store(&mut self, addr: Address, bytes: &[u8], tx: bool, ntstg: bool) -> StoreOutcome {
        assert!(!bytes.is_empty(), "empty store");
        let half = addr.half_line();
        let end = addr.add(bytes.len() as u64 - 1);
        assert_eq!(half, end.half_line(), "store crosses a 128-byte granule");

        let offset = addr.offset_in_half_line() as usize;
        let mask = Self::byte_mask(offset, bytes.len());

        // Gather into an existing open entry of the same transactional epoch.
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.half_line == half && !e.closed && e.tx == tx)
        {
            let overlap_plain = ntstg && e.valid & !Self::ntstg_byte_mask(e.ntstg) & mask != 0;
            let overlap_ntstg = !ntstg && Self::ntstg_byte_mask(e.ntstg) & mask != 0;
            e.data[offset..offset + bytes.len()].copy_from_slice(bytes);
            e.valid |= mask;
            if ntstg {
                e.ntstg |= Self::dw_mask(offset, bytes.len());
            }
            self.tracer.emit(|| Event::StoreGather {
                line: half.line().index(),
                tx,
                ntstg,
            });
            if overlap_plain || overlap_ntstg {
                return StoreOutcome::NtstgOverlap;
            }
            return StoreOutcome::Gathered;
        }

        // Need a new entry; make room if the queue is full.
        if self.entries.len() == self.capacity {
            // Evict the oldest non-transactional entry. If every entry
            // belongs to the current transaction, this is a store-footprint
            // overflow (§III.D).
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.tx)
                .min_by_key(|(_, e)| e.age)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    // Non-tx data is already in memory; just drop the entry.
                    self.entries.swap_remove(i);
                }
                None => {
                    self.tracer.emit(|| Event::StoreOverflow {
                        line: half.line().index(),
                    });
                    return StoreOutcome::Overflow;
                }
            }
        }

        let mut e = Entry {
            half_line: half,
            data: [0; HALF_LINE_SIZE as usize],
            valid: mask,
            ntstg: if ntstg {
                Self::dw_mask(offset, bytes.len())
            } else {
                0
            },
            tx,
            closed: false,
            age: self.next_age,
        };
        self.next_age += 1;
        e.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        if tx {
            let line = half.line();
            if let Err(at) = self.tx_line_cache.binary_search(&line) {
                self.tx_line_cache.insert(at, line);
            }
        }
        self.entries.push(e);
        self.tracer.emit(|| Event::StoreNewEntry {
            line: half.line().index(),
            tx,
            ntstg,
        });
        StoreOutcome::NewEntry
    }

    /// Called at a new outermost transaction begin: closes all existing
    /// entries so no new stores gather into them and (in this model) drains
    /// the non-transactional ones immediately.
    pub fn begin_tx(&mut self) {
        let closing = self.entries.len();
        self.tracer.emit(|| Event::StoreClose {
            entries: closing as u16,
        });
        // Non-tx entry data already lives in memory; dropping models the
        // started eviction to L2/L3.
        self.entries.retain(|e| e.tx);
        for e in &mut self.entries {
            e.closed = true;
        }
    }

    /// Commits the transaction: returns the buffered transactional writes for
    /// application to memory and converts the entries into normal (post-
    /// transaction) entries that later stores may gather into.
    pub fn commit_tx(&mut self) -> Vec<DrainWrite> {
        let mut writes = Vec::new();
        for e in &mut self.entries {
            if e.tx {
                writes.push(DrainWrite {
                    half_line: e.half_line,
                    data: e.data,
                    valid: e.valid,
                });
                e.tx = false;
                e.ntstg = 0;
                e.closed = false;
            }
        }
        for w in &writes {
            self.tracer.emit(|| Event::StoreDrain {
                half: w.half_line.index(),
                bytes: w.byte_count() as u16,
            });
        }
        self.tx_line_cache.clear();
        writes
    }

    /// Aborts the transaction: transactional entries are invalidated, except
    /// that NTSTG-marked doublewords are returned as writes to be committed
    /// anyway (§II.A "breadcrumb debugging").
    pub fn abort_tx(&mut self) -> Vec<DrainWrite> {
        let mut writes = Vec::new();
        for e in &self.entries {
            if e.tx && e.ntstg != 0 {
                let keep = Self::ntstg_byte_mask(e.ntstg) & e.valid;
                if keep != 0 {
                    writes.push(DrainWrite {
                        half_line: e.half_line,
                        data: e.data,
                        valid: keep,
                    });
                }
            }
        }
        self.entries.retain(|e| !e.tx);
        for w in &writes {
            self.tracer.emit(|| Event::StoreDrain {
                half: w.half_line.index(),
                bytes: w.byte_count() as u16,
            });
        }
        self.tx_line_cache.clear();
        writes
    }

    /// Whether an exclusive or demote XI for `line` compares against an
    /// active transactional entry (and must therefore be rejected, §III.D).
    /// A binary search over the maintained tx-line cache — the hot probe on
    /// every delivered XI.
    pub fn xi_conflicts(&self, line: LineAddr) -> bool {
        self.tx_line_cache.binary_search(&line).is_ok()
    }

    /// Drains (drops) non-transactional entries for `line`. Called when the
    /// line leaves the private cache — an accepted XI or an L2 eviction
    /// forces pending stores out to the L3 before ownership transfers; in
    /// this model their data is already in committed memory, so the entries
    /// simply vanish. Keeping them would forward stale bytes over data
    /// another CPU has since modified.
    pub fn drain_line(&mut self, line: LineAddr) {
        self.entries.retain(|e| e.tx || e.half_line.line() != line);
    }

    /// Distinct cache lines carrying transactional store data, sorted. These
    /// must stay L2-resident for the duration of the transaction (§III.D).
    pub fn tx_lines(&self) -> Vec<LineAddr> {
        self.tx_line_cache.clone()
    }

    /// Overlays buffered store data onto `buf` for a load of `buf.len()`
    /// bytes at `addr` (store forwarding). Only transactional entries can
    /// differ from committed memory, but all valid bytes are applied.
    pub fn forward(&self, addr: Address, buf: &mut [u8]) {
        let start = addr.raw();
        let end = start + buf.len() as u64;
        // One pass in age order (later, younger entries win), applying each
        // entry's overlap with the load — O(entries + len) rather than
        // O(entries × len).
        for e in &self.entries {
            let base = e.half_line.base().raw();
            if base >= end || base + HALF_LINE_SIZE <= start {
                continue;
            }
            let lo = start.max(base);
            let hi = end.min(base + HALF_LINE_SIZE);
            for a in lo..hi {
                let off = (a - base) as usize;
                if e.valid >> off & 1 == 1 {
                    buf[(a - start) as usize] = e.data[off];
                }
            }
        }
    }

    fn byte_mask(offset: usize, len: usize) -> u128 {
        debug_assert!(offset + len <= 128);
        if len == 128 {
            u128::MAX
        } else {
            ((1u128 << len) - 1) << offset
        }
    }

    /// Expands a per-doubleword mark mask into a per-byte mask.
    fn ntstg_byte_mask(dw: u16) -> u128 {
        let mut m = 0u128;
        for i in 0..16 {
            if dw >> i & 1 == 1 {
                m |= 0xffu128 << (8 * i);
            }
        }
        m
    }

    /// Doubleword marks covering a byte range.
    fn dw_mask(offset: usize, len: usize) -> u16 {
        let first = offset / 8;
        let last = (offset + len - 1) / 8;
        let mut m = 0u16;
        for i in first..=last {
            m |= 1 << i;
        }
        m
    }
}

impl Default for StoreCache {
    fn default() -> Self {
        StoreCache::new(64)
    }
}

/// Folds the entries in queue order with their bytes, valid bits, marks
/// and ages, the next age and the transactional line cache. The capacity
/// is configuration and the tracer observes; both are left out.
impl Hash for StoreCache {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let StoreCache {
            entries,
            capacity: _,
            next_age,
            tx_line_cache,
            tracer: _,
        } = self;
        entries.hash(state);
        next_age.hash(state);
        tx_line_cache.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u64) -> Address {
        Address::new(a)
    }

    #[test]
    fn drain_write_stores_only_its_valid_runs() {
        let half_line = HalfLineAddr::new(0x21);
        let base = half_line.base();
        let before = Address::new(base.raw() - 8);
        let data: [u8; HALF_LINE_SIZE as usize] = std::array::from_fn(|i| i as u8);
        // Runs at both ends, a lone byte, a doubleword, the full granule and
        // no byte at all.
        let sparse = 0b1 | 0xFF << 8 | 1 << 40 | 0b111 << 61 | 0b11 << 126;
        for valid in [sparse, u128::MAX, 0] {
            let mut mem = MainMemory::new();
            mem.store_bytes(before, &[0xEE; HALF_LINE_SIZE as usize + 16]);
            let write = DrainWrite {
                half_line,
                data,
                valid,
            };
            write.apply_to(&mut mem);
            let mut got = [0u8; HALF_LINE_SIZE as usize + 16];
            mem.load_bytes(before, &mut got);
            let expected: Vec<u8> = (0..got.len())
                .map(|i| match i.checked_sub(8) {
                    Some(b) if b < HALF_LINE_SIZE as usize && valid >> b & 1 == 1 => b as u8,
                    _ => 0xEE,
                })
                .collect();
            assert_eq!(got[..], expected[..], "valid mask {valid:#x}");
        }
    }

    #[test]
    fn gathering_into_same_granule() {
        let mut sc = StoreCache::new(4);
        assert_eq!(
            sc.store(addr(0), &[1; 8], false, false),
            StoreOutcome::NewEntry
        );
        assert_eq!(
            sc.store(addr(8), &[2; 8], false, false),
            StoreOutcome::Gathered
        );
        assert_eq!(sc.len(), 1);
        // A store to the next 128-byte granule allocates a second entry.
        assert_eq!(
            sc.store(addr(128), &[3; 8], false, false),
            StoreOutcome::NewEntry
        );
        assert_eq!(sc.len(), 2);
    }

    #[test]
    fn tx_overflow_when_all_entries_transactional() {
        let mut sc = StoreCache::new(2);
        assert_eq!(sc.store(addr(0), &[1], true, false), StoreOutcome::NewEntry);
        assert_eq!(
            sc.store(addr(128), &[1], true, false),
            StoreOutcome::NewEntry
        );
        assert_eq!(
            sc.store(addr(256), &[1], true, false),
            StoreOutcome::Overflow
        );
        // Gathering into an existing tx granule still works at capacity.
        assert_eq!(sc.store(addr(1), &[2], true, false), StoreOutcome::Gathered);
    }

    #[test]
    fn non_tx_eviction_frees_room() {
        let mut sc = StoreCache::new(2);
        sc.store(addr(0), &[1], false, false);
        sc.store(addr(128), &[1], true, false);
        // Full, but the non-tx entry can be evicted.
        assert_eq!(
            sc.store(addr(256), &[1], true, false),
            StoreOutcome::NewEntry
        );
        assert_eq!(sc.len(), 2);
        assert_eq!(sc.tx_entries(), 2);
    }

    #[test]
    fn begin_tx_closes_and_drops_non_tx() {
        let mut sc = StoreCache::new(4);
        sc.store(addr(0), &[1; 8], false, false);
        sc.begin_tx();
        assert!(sc.is_empty());
        // New tx store allocates fresh entry rather than gathering.
        assert_eq!(
            sc.store(addr(0), &[2; 8], true, false),
            StoreOutcome::NewEntry
        );
    }

    #[test]
    fn commit_returns_tx_bytes_and_reopens() {
        let mut mem = MainMemory::new();
        let mut sc = StoreCache::new(4);
        sc.store(addr(8), &0xdeadbeefu32.to_be_bytes(), true, false);
        let writes = sc.commit_tx();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].byte_count(), 4);
        for w in &writes {
            w.apply_to(&mut mem);
        }
        assert_eq!(mem.load_u32(addr(8)), 0xdeadbeef);
        // Post-commit stores gather into the (now normal) entry.
        assert_eq!(
            sc.store(addr(12), &[1], false, false),
            StoreOutcome::Gathered
        );
        assert_eq!(sc.tx_entries(), 0);
    }

    #[test]
    fn abort_discards_all_but_ntstg() {
        let mut mem = MainMemory::new();
        mem.store_u64(addr(0), 7); // pre-tx value
        let mut sc = StoreCache::new(4);
        sc.store(addr(0), &42u64.to_be_bytes(), true, false);
        sc.store(addr(16), &99u64.to_be_bytes(), true, true); // NTSTG
        let writes = sc.abort_tx();
        for w in &writes {
            w.apply_to(&mut mem);
        }
        assert_eq!(mem.load_u64(addr(0)), 7, "speculative store discarded");
        assert_eq!(mem.load_u64(addr(16)), 99, "NTSTG survives abort");
        assert!(sc.is_empty());
    }

    #[test]
    fn ntstg_overlap_detected() {
        let mut sc = StoreCache::new(4);
        sc.store(addr(0), &[1; 8], true, false);
        assert_eq!(
            sc.store(addr(0), &[2; 8], true, true),
            StoreOutcome::NtstgOverlap
        );
        let mut sc2 = StoreCache::new(4);
        sc2.store(addr(0), &[1; 8], true, true);
        assert_eq!(
            sc2.store(addr(0), &[2; 8], true, false),
            StoreOutcome::NtstgOverlap
        );
    }

    #[test]
    fn xi_conflict_only_for_tx_lines() {
        let mut sc = StoreCache::new(4);
        sc.store(addr(0), &[1], false, false);
        assert!(!sc.xi_conflicts(addr(0).line()));
        sc.store(addr(300), &[1], true, false);
        assert!(sc.xi_conflicts(addr(300).line()));
        assert!(!sc.xi_conflicts(addr(600).line()));
    }

    #[test]
    fn forwarding_returns_youngest_data() {
        let mut sc = StoreCache::new(4);
        sc.store(addr(0), &[1, 1, 1, 1], true, false);
        let mut buf = [0u8; 8];
        sc.forward(addr(0), &mut buf);
        assert_eq!(&buf[..4], &[1, 1, 1, 1]);
        assert_eq!(&buf[4..], &[0, 0, 0, 0], "invalid bytes untouched");
    }

    #[test]
    fn tx_lines_deduplicates() {
        let mut sc = StoreCache::new(4);
        sc.store(addr(0), &[1], true, false); // half 0, line 0
        sc.store(addr(128), &[1], true, false); // half 1, line 0
        sc.store(addr(256), &[1], true, false); // line 1
        assert_eq!(sc.tx_lines().len(), 2);
    }

    #[test]
    fn store_footprint_is_8kb_at_zec12_geometry() {
        let mut sc = StoreCache::default();
        for i in 0..64u64 {
            assert_eq!(
                sc.store(addr(i * 128), &[1], true, false),
                StoreOutcome::NewEntry
            );
        }
        assert_eq!(
            sc.store(addr(64 * 128), &[1], true, false),
            StoreOutcome::Overflow
        );
    }

    #[test]
    #[should_panic(expected = "crosses a 128-byte granule")]
    fn cross_granule_store_panics() {
        let mut sc = StoreCache::new(4);
        sc.store(addr(124), &[0; 8], false, false);
    }
}
