//! The serial scheduler's pick: a winner (tournament) tree over CPUs.
//!
//! Every runnable CPU owns one leaf holding its packed `(clock, cpu)` key
//! ([`pack_entry`]); a halted CPU, or one with no program, holds
//! [`WinnerTree::IDLE`]. Each inner node holds the smaller of its two
//! children, so the root is the CPU the serial scheduler steps next:
//! smallest clock, ties toward the lowest index. A step changes one CPU's
//! clock, so it re-plays only that leaf's path to the root — `log2(cpus)`
//! word compares, with no stale entries to skip.

/// Packs a `(clock, cpu)` scheduling key into one `u64` whose natural
/// ordering matches the tuple's: smallest clock first, ties toward the
/// lowest CPU index. Clocks fit comfortably in 48 bits (a simulation would
/// need ~3 × 10¹⁴ cycles to overflow), but an overflowing clock would shift
/// bits into the CPU field and silently corrupt the ordering — so the bound
/// is a hard invariant, checked in release builds too.
pub(crate) fn pack_entry(clock: u64, cpu: usize) -> u64 {
    assert!(
        clock < 1 << 48,
        "scheduler clock {clock} exceeds the 48-bit key range"
    );
    debug_assert!(cpu < 1 << 16);
    clock << 16 | cpu as u64
}

/// The `(clock, cpu)` pair a [`pack_entry`] key encodes.
pub(crate) fn unpack_entry(entry: u64) -> (u64, usize) {
    (entry >> 16, (entry & 0xffff) as usize)
}

/// A fixed-shape min-tree over one leaf per CPU.
#[derive(Debug, Clone)]
pub(crate) struct WinnerTree {
    /// Heap-ordered nodes: the root at 1, node `k`'s children at `2k` and
    /// `2k + 1`, the leaves at `width..2 * width`. Slot 0 is unused, and
    /// leaves past the CPU count stay [`Self::IDLE`].
    nodes: Vec<u64>,
    /// Leaf count: the CPU count rounded up to a power of two.
    width: usize,
}

impl WinnerTree {
    /// The key of a CPU that cannot be scheduled. No CPU's [`pack_entry`]
    /// key reaches it: that would take the largest 48-bit clock on CPU
    /// `0xffff`.
    pub(crate) const IDLE: u64 = u64::MAX;

    /// A tree over `cpus` leaves, all idle.
    pub(crate) fn new(cpus: usize) -> WinnerTree {
        let width = cpus.next_power_of_two();
        WinnerTree {
            nodes: vec![Self::IDLE; 2 * width],
            width,
        }
    }

    /// The smallest key: the next CPU to step, or [`Self::IDLE`] when no
    /// CPU is runnable.
    pub(crate) fn min(&self) -> u64 {
        self.nodes[1]
    }

    /// Sets CPU `cpu`'s key and re-plays its path to the root. The common
    /// caller replaces the winner, whose whole path changes, so the replay
    /// carries the running minimum up instead of testing for an early stop.
    pub(crate) fn set(&mut self, cpu: usize, key: u64) {
        let mut k = self.width + cpu;
        let mut winner = key;
        self.nodes[k] = key;
        while k > 1 {
            winner = winner.min(self.nodes[k ^ 1]);
            k /= 2;
            self.nodes[k] = winner;
        }
    }

    /// The smallest key of every CPU other than `cpu`: the minimum of the
    /// siblings along `cpu`'s path to the root, or [`Self::IDLE`] when no
    /// other CPU is runnable (always, on a one-leaf tree). It never reads
    /// `cpu`'s own leaf, so it stays exact while that leaf is stale — a
    /// batch compares the stepping CPU's live key against it and writes the
    /// leaf once, when the batch ends.
    pub(crate) fn runner_up(&self, cpu: usize) -> u64 {
        let mut k = self.width + cpu;
        let mut best = Self::IDLE;
        while k > 1 {
            best = best.min(self.nodes[k ^ 1]);
            k /= 2;
        }
        best
    }

    /// Every leaf in CPU order: CPU `i`'s key at index `i`, then the idle
    /// padding up to the tree's power-of-two width.
    pub(crate) fn leaves(&self) -> &[u64] {
        &self.nodes[self.width..]
    }

    /// Replaces every leaf from `keys` (one per CPU, in CPU order) and
    /// recomputes every inner node.
    pub(crate) fn rebuild(&mut self, keys: impl IntoIterator<Item = u64>) {
        let leaves = &mut self.nodes[self.width..];
        leaves.fill(Self::IDLE);
        for (leaf, key) in leaves.iter_mut().zip(keys) {
            *leaf = key;
        }
        for k in (1..self.width).rev() {
            self.nodes[k] = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn pack_entry_round_trips_up_to_the_48_bit_boundary() {
        let max_clock = (1u64 << 48) - 1;
        assert_eq!(unpack_entry(pack_entry(0, 0)), (0, 0));
        assert_eq!(
            unpack_entry(pack_entry(max_clock, 0xffff)),
            (max_clock, 0xffff)
        );
        assert!(pack_entry(max_clock, 0xfffe) < WinnerTree::IDLE);
        // Ordering is (clock, cpu) lexicographic.
        assert!(pack_entry(1, 0xffff) < pack_entry(2, 0));
        assert!(pack_entry(5, 3) < pack_entry(5, 4));
    }

    #[test]
    #[should_panic(expected = "48-bit key range")]
    fn pack_entry_rejects_an_overflowing_clock() {
        pack_entry(1 << 48, 0);
    }

    #[test]
    fn an_empty_or_all_idle_tree_has_no_pick() {
        assert_eq!(WinnerTree::new(0).min(), WinnerTree::IDLE);
        let mut t = WinnerTree::new(5);
        assert_eq!(t.min(), WinnerTree::IDLE);
        t.set(4, pack_entry(9, 4));
        assert_eq!(unpack_entry(t.min()), (9, 4));
        t.set(4, WinnerTree::IDLE);
        assert_eq!(t.min(), WinnerTree::IDLE);
    }

    /// One step of a random scheduler history, drawn for up to 20 CPUs and
    /// folded onto the tree's CPU count: kind 0–3 sets a CPU's clock, 4 idles
    /// a CPU, 5 rebuilds every leaf from the listed clocks.
    type Op = (u8, usize, u64, Vec<Option<u64>>);

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..6,
            0usize..20,
            0u64..64,
            prop::collection::vec(prop::option::of(0u64..64), 20),
        )
    }

    proptest! {
        /// The root always equals the smallest key of a `BTreeSet` holding
        /// exactly the runnable CPUs' keys, for any CPU count (1 and
        /// non-powers of two included) and any set/idle/rebuild history.
        #[test]
        fn root_matches_a_btreeset_reference(
            cpus in 1usize..20,
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let mut tree = WinnerTree::new(cpus);
            let mut keys: Vec<Option<u64>> = vec![None; cpus];
            let mut reference: BTreeSet<u64> = BTreeSet::new();
            for (kind, cpu, clock, clocks) in ops {
                let cpu = cpu % cpus;
                match kind {
                    0..=4 => {
                        if let Some(old) = keys[cpu].take() {
                            reference.remove(&old);
                        }
                        let key = if kind == 4 {
                            WinnerTree::IDLE
                        } else {
                            let key = pack_entry(clock, cpu);
                            keys[cpu] = Some(key);
                            reference.insert(key);
                            key
                        };
                        tree.set(cpu, key);
                    }
                    _ => {
                        reference.clear();
                        for (c, t) in clocks[..cpus].iter().enumerate() {
                            keys[c] = t.map(|t| pack_entry(t, c));
                            reference.extend(keys[c]);
                        }
                        tree.rebuild(keys.iter().map(|k| k.unwrap_or(WinnerTree::IDLE)));
                    }
                }
                let want = reference.first().copied().unwrap_or(WinnerTree::IDLE);
                prop_assert_eq!(tree.min(), want);
            }
        }

        /// `runner_up(c)` equals the smallest key other than CPU `c`'s in the
        /// same `BTreeSet` reference, or `IDLE` when there is none, for every
        /// CPU after every step of a random set/idle/rebuild history.
        #[test]
        fn runner_up_matches_a_btreeset_reference(
            cpus in 1usize..20,
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let mut tree = WinnerTree::new(cpus);
            let mut keys: Vec<Option<u64>> = vec![None; cpus];
            for (kind, cpu, clock, clocks) in ops {
                let cpu = cpu % cpus;
                match kind {
                    0..=3 => {
                        keys[cpu] = Some(pack_entry(clock, cpu));
                        tree.set(cpu, pack_entry(clock, cpu));
                    }
                    4 => {
                        keys[cpu] = None;
                        tree.set(cpu, WinnerTree::IDLE);
                    }
                    _ => {
                        for (c, t) in clocks[..cpus].iter().enumerate() {
                            keys[c] = t.map(|t| pack_entry(t, c));
                        }
                        tree.rebuild(keys.iter().map(|k| k.unwrap_or(WinnerTree::IDLE)));
                    }
                }
                let reference: BTreeSet<u64> = keys.iter().flatten().copied().collect();
                for (c, own) in keys.iter().enumerate() {
                    let want = reference
                        .iter()
                        .copied()
                        .find(|&k| Some(k) != *own)
                        .unwrap_or(WinnerTree::IDLE);
                    prop_assert_eq!(tree.runner_up(c), want);
                }
            }
        }
    }

    #[test]
    fn a_one_leaf_tree_has_no_runner_up() {
        let mut t = WinnerTree::new(1);
        assert_eq!(t.runner_up(0), WinnerTree::IDLE);
        t.set(0, pack_entry(7, 0));
        assert_eq!(t.runner_up(0), WinnerTree::IDLE);
        assert_eq!(unpack_entry(t.min()), (7, 0));
    }
}
