//! A generic set-associative directory with true-LRU replacement.

use ztm_mem::LineAddr;

#[derive(Debug, Clone)]
struct Slot<E> {
    line: LineAddr,
    lru: u64,
    entry: E,
}

/// A set-associative directory keyed by [`LineAddr`].
///
/// Used for both the L1 and L2 directories. Replacement is true LRU within a
/// congruence class, refined by an eviction-priority function supplied at
/// insert time: the victim is the slot with the *lowest* priority, ties
/// broken by least-recent use. This is how the private cache prefers to evict
/// non-transactional lines before transactional ones (§III.D requires
/// tx-dirty lines to stay L2-resident).
///
/// # Examples
///
/// ```
/// use ztm_cache::SetAssoc;
/// use ztm_mem::LineAddr;
///
/// let mut dir: SetAssoc<u32> = SetAssoc::new(4, 2);
/// assert!(dir.insert(LineAddr::new(0), 10, |_, _| 0).is_none());
/// assert!(dir.insert(LineAddr::new(4), 20, |_, _| 0).is_none());
/// // Third line in the same class evicts the LRU entry (line 0).
/// let evicted = dir.insert(LineAddr::new(8), 30, |_, _| 0);
/// assert_eq!(evicted, Some((LineAddr::new(0), 10)));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<E> {
    /// Flat `sets × ways` slot storage: row `c` occupies
    /// `slots[c*ways .. (c+1)*ways]`. One contiguous allocation — a lookup
    /// touches a single row instead of chasing a per-set `Vec` — with the
    /// invariant that each row's occupied slots form a compacted prefix
    /// (every `Some` precedes every `None`), so scans stop at the first
    /// empty slot. Slot order within a row reproduces the push/swap-remove
    /// order a per-set `Vec` would have.
    slots: Vec<Option<Slot<E>>>,
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (the common geometries); the
    /// class is then a mask instead of a `u64` modulo on every access.
    pow2_mask: Option<u64>,
    stamp: u64,
    /// Most-recently-touched slot `(line, flat slot index)` — the O(1) fast
    /// path for the repeated same-line lookups of spin loops. Invariant:
    /// when set, that slot holds `line` AND `line` carries the
    /// directory-wide maximum LRU stamp (it was set by the most recent
    /// `get`/`insert`), so serving a repeat `get` from it without
    /// re-stamping cannot change any row's relative LRU order. Any
    /// remove or slot move invalidates it.
    hot: Option<(LineAddr, usize)>,
}

impl<E> SetAssoc<E> {
    /// Creates a directory with `sets` congruence classes of `ways` slots.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "geometry must be non-zero");
        SetAssoc {
            slots: (0..sets * ways).map(|_| None).collect(),
            sets,
            ways,
            pow2_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            stamp: 0,
            hot: None,
        }
    }

    /// Number of congruence classes.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The congruence class of a line in this directory.
    pub fn class_of(&self, line: LineAddr) -> usize {
        match self.pow2_mask {
            Some(mask) => (line.index() & mask) as usize,
            None => line.congruence_class(self.sets),
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn row(&self, class: usize) -> &[Option<Slot<E>>] {
        &self.slots[class * self.ways..(class + 1) * self.ways]
    }

    fn row_mut(&mut self, class: usize) -> &mut [Option<Slot<E>>] {
        let ways = self.ways;
        &mut self.slots[class * ways..(class + 1) * ways]
    }

    /// Looks up a line without touching LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<&E> {
        if let Some((hot_line, idx)) = self.hot {
            if hot_line == line {
                return self.slots[idx].as_ref().map(|s| &s.entry);
            }
        }
        self.row(self.class_of(line))
            .iter()
            .map_while(|s| s.as_ref())
            .find(|s| s.line == line)
            .map(|s| &s.entry)
    }

    /// Looks up a line, marking it most-recently-used.
    pub fn get(&mut self, line: LineAddr) -> Option<&mut E> {
        let at = self.get_index(line)?;
        self.slots[at].as_mut().map(|s| &mut s.entry)
    }

    /// [`get`](Self::get) by flat slot index: identical LRU/stamp effects
    /// (a stamp is consumed even on a miss, matching `get`), but returns the
    /// slot position so callers that need the entry *and* other fields of
    /// their own struct can split the borrows.
    pub fn get_index(&mut self, line: LineAddr) -> Option<usize> {
        if let Some((hot_line, idx)) = self.hot {
            if hot_line == line {
                // Already the directory-wide MRU (see `hot`): re-stamping
                // would not change any relative order, so skip it.
                return Some(idx);
            }
        }
        let stamp = self.next_stamp();
        let class = self.class_of(line);
        let ways = self.ways;
        let base = class * ways;
        for at in base..base + ways {
            match self.slots[at].as_mut() {
                Some(slot) if slot.line == line => {
                    slot.lru = stamp;
                    self.hot = Some((line, at));
                    return Some(at);
                }
                Some(_) => {}
                None => break,
            }
        }
        None
    }

    /// Locates a line without touching LRU state, returning its flat slot
    /// index (the no-stamp analogue of [`get_index`](Self::get_index)).
    pub fn find(&self, line: LineAddr) -> Option<usize> {
        if let Some((hot_line, idx)) = self.hot {
            if hot_line == line {
                return Some(idx);
            }
        }
        let class = self.class_of(line);
        let ways = self.ways;
        let base = class * ways;
        for at in base..base + ways {
            match self.slots[at].as_ref() {
                Some(slot) if slot.line == line => return Some(at),
                Some(_) => {}
                None => break,
            }
        }
        None
    }

    /// Marks the slot found by [`find`](Self::find) most-recently-used —
    /// exactly the effect `get` would have had on a hit (hot-slot repeats
    /// skip the stamp, as in `get`).
    ///
    /// # Panics
    ///
    /// Panics if `at` does not hold an occupied slot.
    pub fn touch_index(&mut self, at: usize) {
        let line = self.slots[at]
            .as_ref()
            .expect("touched slot is occupied")
            .line;
        if self.hot == Some((line, at)) {
            return;
        }
        let stamp = self.next_stamp();
        let slot = self.slots[at].as_mut().expect("touched slot is occupied");
        slot.lru = stamp;
        self.hot = Some((line, at));
    }

    /// The entry at a flat slot index returned by
    /// [`find`](Self::find)/[`get_index`](Self::get_index).
    ///
    /// # Panics
    ///
    /// Panics if `at` does not hold an occupied slot.
    pub fn entry_at(&self, at: usize) -> &E {
        &self.slots[at]
            .as_ref()
            .expect("indexed slot is occupied")
            .entry
    }

    /// Mutable access to the entry at a flat slot index.
    ///
    /// # Panics
    ///
    /// Panics if `at` does not hold an occupied slot.
    pub fn entry_at_mut(&mut self, at: usize) -> &mut E {
        &mut self.slots[at]
            .as_mut()
            .expect("indexed slot is occupied")
            .entry
    }

    /// Mutable lookup without touching LRU state.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut E> {
        if let Some((hot_line, idx)) = self.hot {
            if hot_line == line {
                return self.slots[idx].as_mut().map(|s| &mut s.entry);
            }
        }
        let class = self.class_of(line);
        self.row_mut(class)
            .iter_mut()
            .map_while(|s| s.as_mut())
            .find(|s| s.line == line)
            .map(|s| &mut s.entry)
    }

    /// Whether the line is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line, returning the evicted `(line, entry)` if the class was
    /// full. The victim is the present slot with the lowest
    /// `evict_priority(line, entry)`, ties broken by LRU.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (callers must use
    /// [`get`](Self::get)/[`peek_mut`](Self::peek_mut) to update entries).
    pub fn insert(
        &mut self,
        line: LineAddr,
        entry: E,
        evict_priority: impl Fn(LineAddr, &E) -> u8,
    ) -> Option<(LineAddr, E)> {
        assert!(
            !self.contains(line),
            "line {line} already present in directory"
        );
        let stamp = self.next_stamp();
        let class = self.class_of(line);
        // Slots may move below and a victim may leave; the new line becomes
        // the MRU either way.
        self.hot = None;
        let row = self.row_mut(class);
        let filled = row.iter().take_while(|s| s.is_some()).count();
        let (evicted, at) = if filled == row.len() {
            let victim = row
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| {
                    let s = s.as_ref().expect("full row has no empty slots");
                    (evict_priority(s.line, &s.entry), s.lru)
                })
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            let slot = row[victim].take().expect("victim slot is occupied");
            // Compact like `Vec::swap_remove`: the last slot fills the hole.
            if victim != filled - 1 {
                row[victim] = row[filled - 1].take();
            }
            (Some((slot.line, slot.entry)), filled - 1)
        } else {
            (None, filled)
        };
        row[at] = Some(Slot {
            line,
            lru: stamp,
            entry,
        });
        self.hot = Some((line, class * self.ways + at));
        evicted
    }

    /// Removes a line, returning its entry.
    pub fn remove(&mut self, line: LineAddr) -> Option<E> {
        self.hot = None;
        let class = self.class_of(line);
        let row = self.row_mut(class);
        let filled = row.iter().take_while(|s| s.is_some()).count();
        let idx = row[..filled]
            .iter()
            .position(|s| s.as_ref().expect("prefix slot is occupied").line == line)?;
        let slot = row[idx].take().expect("found slot is occupied");
        // Compact like `Vec::swap_remove`.
        if idx != filled - 1 {
            row[idx] = row[filled - 1].take();
        }
        Some(slot.entry)
    }

    /// Iterates over `(line, entry)` pairs of one congruence class.
    pub fn iter_class(&self, class: usize) -> impl Iterator<Item = (LineAddr, &E)> {
        self.row(class)
            .iter()
            .map_while(|s| s.as_ref())
            .map(|s| (s.line, &s.entry))
    }

    /// Iterates over all `(line, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &E)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| (s.line, &s.entry))
    }

    /// Mutable iteration over all `(line, entry)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut E)> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.as_mut())
            .map(|s| (s.line, &mut s.entry))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the directory holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(_: LineAddr, _: &u32) -> u8 {
        0
    }

    #[test]
    fn insert_and_lookup() {
        let mut d: SetAssoc<u32> = SetAssoc::new(8, 2);
        d.insert(LineAddr::new(1), 11, flat);
        assert_eq!(d.peek(LineAddr::new(1)), Some(&11));
        assert!(d.contains(LineAddr::new(1)));
        assert!(!d.contains(LineAddr::new(9)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut d: SetAssoc<u32> = SetAssoc::new(1, 2);
        d.insert(LineAddr::new(0), 0, flat);
        d.insert(LineAddr::new(1), 1, flat);
        // Touch line 0 so line 1 becomes LRU.
        d.get(LineAddr::new(0));
        let ev = d.insert(LineAddr::new(2), 2, flat);
        assert_eq!(ev, Some((LineAddr::new(1), 1)));
    }

    #[test]
    fn eviction_priority_overrides_lru() {
        let mut d: SetAssoc<u32> = SetAssoc::new(1, 2);
        d.insert(LineAddr::new(0), 0, flat);
        d.insert(LineAddr::new(1), 1, flat);
        d.get(LineAddr::new(0)); // line 1 is LRU...
                                 // ...but priority protects it (entry==1 gets high priority).
        let ev = d.insert(LineAddr::new(2), 2, |_, e| if *e == 1 { 9 } else { 0 });
        assert_eq!(ev, Some((LineAddr::new(0), 0)));
    }

    #[test]
    fn remove_returns_entry() {
        let mut d: SetAssoc<u32> = SetAssoc::new(4, 2);
        d.insert(LineAddr::new(5), 55, flat);
        assert_eq!(d.remove(LineAddr::new(5)), Some(55));
        assert_eq!(d.remove(LineAddr::new(5)), None);
        assert!(d.is_empty());
    }

    #[test]
    fn classes_are_independent() {
        let mut d: SetAssoc<u32> = SetAssoc::new(2, 1);
        d.insert(LineAddr::new(0), 0, flat);
        // Line 1 maps to class 1; no eviction of line 0.
        assert!(d.insert(LineAddr::new(1), 1, flat).is_none());
        assert_eq!(d.len(), 2);
        let ev = d.insert(LineAddr::new(2), 2, flat); // class 0 again
        assert_eq!(ev, Some((LineAddr::new(0), 0)));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut d: SetAssoc<u32> = SetAssoc::new(2, 1);
        d.insert(LineAddr::new(0), 0, flat);
        d.insert(LineAddr::new(0), 1, flat);
    }

    #[test]
    fn iter_class_scoped() {
        let mut d: SetAssoc<u32> = SetAssoc::new(2, 2);
        d.insert(LineAddr::new(0), 0, flat);
        d.insert(LineAddr::new(1), 1, flat);
        d.insert(LineAddr::new(2), 2, flat);
        let class0: Vec<_> = d.iter_class(0).map(|(l, _)| l.index()).collect();
        assert_eq!(class0.len(), 2);
        assert!(class0.contains(&0) && class0.contains(&2));
    }
}
