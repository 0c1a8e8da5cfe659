//! Property tests for the cache substrate: the gathering store cache against
//! a reference byte model, LRU behavior of the set-associative directory,
//! and coherence-fabric invariants.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use std::collections::HashMap;
use ztm_cache::{
    CpuId, Fabric, FetchKind, LatencyModel, SetAssoc, StoreCache, StoreOutcome, Topology, XiKind,
};
use ztm_mem::{Address, LineAddr, MainMemory};

/// One generated store: offset, 1–8 bytes, and whether it is an NTSTG.
/// Normal stores live in bytes 0..512 and NTSTG stores in 512..1024 — the
/// architecture leaves overlap between the two unpredictable (§II.A), so
/// the generator keeps them disjoint.
fn store_strategy() -> impl Strategy<Value = (u64, Vec<u8>, bool)> {
    (
        0u64..512,
        prop::collection::vec(any::<u8>(), 1..9),
        any::<bool>(),
    )
        .prop_map(|(off, bytes, ntstg)| {
            if ntstg {
                (512 + (off & !7), bytes, true)
            } else {
                // Keep the store inside one 128-byte granule.
                let off = off.min(512 - bytes.len() as u64);
                let adjusted = off - (off % 128 + bytes.len() as u64).saturating_sub(128);
                (adjusted, bytes, false)
            }
        })
}

/// One reference slot: line, LRU stamp and `(value, eviction priority)`.
type RefSlot = (LineAddr, u64, (u64, u8));

/// The reference directory for the `SetAssoc` differential test: one `Vec`
/// per class, 1024 classes of 4 ways, a stamp consumed per lookup/insert.
#[derive(Default)]
struct RefDir {
    classes: HashMap<usize, Vec<RefSlot>>,
    stamp: u64,
}

impl RefDir {
    fn class(line: LineAddr) -> usize {
        line.congruence_class(1024)
    }

    fn insert(&mut self, line: LineAddr, entry: (u64, u8)) -> Option<(LineAddr, (u64, u8))> {
        self.stamp += 1;
        let row = self.classes.entry(Self::class(line)).or_default();
        let evicted = if row.len() == 4 {
            let victim = (0..row.len())
                .min_by_key(|&i| (row[i].2 .1, row[i].1))
                .unwrap();
            let (l, _, e) = row.swap_remove(victim);
            Some((l, e))
        } else {
            None
        };
        row.push((line, self.stamp, entry));
        evicted
    }

    fn touch(&mut self, line: LineAddr) -> Option<&mut (u64, u8)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let slot = self
            .classes
            .get_mut(&Self::class(line))?
            .iter_mut()
            .find(|s| s.0 == line)?;
        slot.1 = stamp;
        Some(&mut slot.2)
    }

    fn peek(&self, line: LineAddr) -> Option<(u64, u8)> {
        self.classes
            .get(&Self::class(line))?
            .iter()
            .find(|s| s.0 == line)
            .map(|s| s.2)
    }

    fn remove(&mut self, line: LineAddr) -> Option<(u64, u8)> {
        let row = self.classes.get_mut(&Self::class(line))?;
        let idx = row.iter().position(|s| s.0 == line)?;
        Some(row.swap_remove(idx).2)
    }

    fn class_order(&self, class: usize) -> Vec<(LineAddr, (u64, u8))> {
        self.classes
            .get(&class)
            .map(|row| row.iter().map(|s| (s.0, s.2)).collect())
            .unwrap_or_default()
    }
}

proptest! {
    /// Committing a transaction applies exactly the transactional bytes;
    /// aborting applies exactly the NTSTG-marked doublewords. Compared
    /// against a reference byte map.
    #[test]
    fn store_cache_commit_matches_reference(
        stores in prop::collection::vec(store_strategy(), 1..40),
        commit in any::<bool>(),
    ) {
        let mut sc = StoreCache::new(64);
        let mut mem = MainMemory::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        sc.begin_tx();
        for (off, bytes, ntstg) in &stores {
            // NTSTG must be doubleword-aligned 8-byte stores; emulate that.
            let (addr, data, nt) = if *ntstg {
                let a = off & !7;
                (a, vec![0xAB; 8], true)
            } else {
                (*off, bytes.clone(), false)
            };
            let out = sc.store(Address::new(addr), &data, true, nt);
            prop_assert_ne!(out, StoreOutcome::Overflow, "64 entries cover 1KB");
            if commit || nt {
                for (i, b) in data.iter().enumerate() {
                    reference.insert(addr + i as u64, *b);
                }
            }
        }
        let writes = if commit { sc.commit_tx() } else { sc.abort_tx() };
        for w in writes {
            w.apply_to(&mut mem);
        }
        for a in 0u64..1024 {
            let mut buf = [0u8; 1];
            mem.load_bytes(Address::new(a), &mut buf);
            let expect = reference.get(&a).copied().unwrap_or(0);
            prop_assert_eq!(buf[0], expect, "byte {}", a);
        }
    }

    /// The store cache never reports more entries than its capacity, and
    /// overflow is reported exactly when all entries are transactional and
    /// a new granule is needed.
    #[test]
    fn store_cache_capacity_invariant(
        granules in prop::collection::vec(0u64..96, 1..96),
    ) {
        let mut sc = StoreCache::new(16);
        sc.begin_tx();
        let mut distinct: Vec<u64> = Vec::new();
        for g in granules {
            let out = sc.store(Address::new(g * 128), &[1], true, false);
            let is_new = !distinct.contains(&g);
            if is_new && distinct.len() == 16 {
                prop_assert_eq!(out, StoreOutcome::Overflow);
            } else {
                prop_assert_ne!(out, StoreOutcome::Overflow);
                if is_new {
                    distinct.push(g);
                }
            }
            prop_assert!(sc.len() <= 16);
        }
    }

    /// SetAssoc with uniform priority implements true LRU per class:
    /// a line inserted and re-touched more recently than `ways` other
    /// same-class lines is still present.
    #[test]
    fn set_assoc_keeps_recently_used(
        touches in prop::collection::vec(0u64..32, 1..100),
    ) {
        let sets = 4usize;
        let ways = 3usize;
        let mut dir: SetAssoc<u64> = SetAssoc::new(sets, ways);
        // Reference: per-class recency list.
        let mut recency: HashMap<usize, Vec<u64>> = HashMap::new();
        for t in touches {
            let line = LineAddr::new(t);
            let class = line.congruence_class(sets);
            if dir.get(line).is_none() {
                dir.insert(line, t, |_, _| 0);
            }
            let list = recency.entry(class).or_default();
            list.retain(|&x| x != t);
            list.push(t);
            if list.len() > ways {
                list.remove(0);
            }
        }
        for (class, list) in &recency {
            for &t in list {
                prop_assert!(
                    dir.contains(LineAddr::new(t)),
                    "line {} of class {} should still be resident",
                    t,
                    class
                );
            }
        }
    }

    /// SetAssoc against a reference directory of per-class `Vec`s (push,
    /// `swap_remove`, victim = min (priority, LRU stamp)). Lines are sparse
    /// over 1024 classes, so most classes never own a row; every eviction,
    /// lookup result and per-class slot order must still match.
    #[test]
    fn set_assoc_matches_per_class_vec_reference(
        ops in prop::collection::vec(
            (0u8..6, 0u64..16, 0u64..8, 0u8..3, any::<u64>()),
            1..300,
        ),
    ) {
        const SETS: usize = 1024;
        const WAYS: usize = 4;
        let mut dir: SetAssoc<(u64, u8)> = SetAssoc::new(SETS, WAYS);
        let mut reference = RefDir::default();
        for (op, pick, tag, prio, value) in ops {
            // 16 scattered classes, 8 tags each: two lines per way.
            let class = (pick * 61 + 7) % SETS as u64;
            let line = LineAddr::new(tag * SETS as u64 + class);
            match op {
                0 | 1 => {
                    if !dir.contains(line) {
                        let evicted = dir.insert(line, (value, prio), |_, e| e.1);
                        prop_assert_eq!(evicted, reference.insert(line, (value, prio)));
                    }
                }
                2 => {
                    let got = dir.get(line).map(|e| {
                        e.0 = e.0.wrapping_add(1);
                        *e
                    });
                    let want = reference.touch(line).map(|e| {
                        e.0 = e.0.wrapping_add(1);
                        *e
                    });
                    prop_assert_eq!(got, want);
                }
                3 => {
                    prop_assert_eq!(dir.peek(line).copied(), reference.peek(line));
                }
                4 => {
                    let at = dir.find(line);
                    prop_assert_eq!(at.map(|at| *dir.entry_at(at)), reference.peek(line));
                    if let Some(at) = at {
                        dir.touch_index(at);
                        reference.touch(line);
                    }
                }
                _ => {
                    prop_assert_eq!(dir.remove(line), reference.remove(line));
                }
            }
            let order: Vec<_> = dir.iter_class(class as usize).map(|(l, e)| (l, *e)).collect();
            prop_assert_eq!(order, reference.class_order(class as usize));
        }
        let mut total = 0;
        for class in 0..SETS {
            let order: Vec<_> = dir.iter_class(class).map(|(l, e)| (l, *e)).collect();
            total += order.len();
            prop_assert_eq!(order, reference.class_order(class));
        }
        prop_assert_eq!(dir.len(), total);
    }

    /// Fabric invariants over random fetches on a tiny L3 (so grants
    /// overflow it and send LRU XIs), each fetch XI stiff-armed at random:
    /// - a fetch announces the owner first, then (for an exclusive fetch)
    ///   the sharers in directory order, never the requester, and delivers
    ///   a prefix of that list that ends at the first reject;
    /// - after a reject nothing is granted and no LRU XI is sent: the
    ///   directory only loses the targets that accepted, so the rejecting
    ///   and the undelivered sharers stay, in order;
    /// - after a grant a line has one exclusive owner and no sharers, or
    ///   no owner; an exclusive requester owns it, a shared one holds it;
    /// - LRU XIs go only to holders on the requester's chip, and those
    ///   holders leave the victim line.
    #[test]
    fn fabric_ownership_invariants(
        reqs in prop::collection::vec(
            (0usize..12, 0u64..8, any::<bool>(), any::<u8>(), any::<u8>()),
            1..80,
        ),
    ) {
        let topology = Topology::zec12(12);
        let mut fabric = Fabric::new(topology.clone(), LatencyModel::zec12(), 8, Some((2, 2)));
        for (cpu, line_idx, excl, r1, r2) in reqs {
            // Bit k of the mask rejects the k-th fetch XI (about one in four).
            let rejects = u32::from(r1 & r2);
            let (me, line) = (CpuId(cpu), LineAddr::new(line_idx));
            let kind = if excl { FetchKind::Exclusive } else { FetchKind::Shared };
            let (owner, sharers) = fabric.holders(line);
            let sharers = sharers.to_vec();
            let mut expected: Vec<(CpuId, XiKind)> = Vec::new();
            if let Some(o) = owner.filter(|&o| o != me) {
                expected.push((o, if excl { XiKind::Exclusive } else { XiKind::Demote }));
            }
            if excl {
                expected.extend(sharers.iter().filter(|&&c| c != me).map(|&c| (c, XiKind::ReadOnly)));
            }
            let (mut sent, mut lru) = (Vec::new(), Vec::new());
            let cycles = fabric.fetch(me, line, kind, 0, |to, xi, l, from| {
                if from.is_none() {
                    lru.push((to, xi, l));
                    return true;
                }
                assert_eq!((from, l), (Some(me), line));
                sent.push((to, xi));
                rejects >> (sent.len() - 1) & 1 == 0
            });
            prop_assert!(sent.len() <= expected.len());
            prop_assert_eq!(&sent[..], &expected[..sent.len()]);
            let (now_owner, now_sharers) = fabric.holders(line);
            match cycles {
                None => {
                    prop_assert!(!sent.is_empty());
                    prop_assert!(rejects >> (sent.len() - 1) & 1 == 1, "stops at the reject");
                    prop_assert!(lru.is_empty(), "a reject grants nothing");
                    let accepted = &sent[..sent.len() - 1];
                    let gone = |c: &CpuId| accepted.iter().any(|&(t, _)| t == *c);
                    let kept: Vec<CpuId> = sharers.iter().copied().filter(|c| !gone(c)).collect();
                    prop_assert_eq!(now_owner, owner.filter(|o| !gone(o)));
                    prop_assert_eq!(now_sharers, &kept[..]);
                }
                Some(_) => {
                    prop_assert_eq!(sent.len(), expected.len());
                    prop_assert_eq!(rejects & ((1 << sent.len()) - 1), 0);
                    if let Some(o) = now_owner {
                        prop_assert!(now_sharers.is_empty(), "owner excludes sharers");
                        if excl {
                            prop_assert_eq!(o, me);
                        }
                    } else {
                        prop_assert!(!excl);
                    }
                    prop_assert!(now_owner == Some(me) || now_sharers.contains(&me));
                    let mut s = now_sharers.to_vec();
                    s.sort();
                    s.dedup();
                    prop_assert_eq!(s.len(), now_sharers.len(), "no duplicate sharers");
                    for &(to, xi, victim) in &lru {
                        prop_assert_eq!(xi, XiKind::Lru);
                        prop_assert_ne!(victim, line);
                        prop_assert_eq!(topology.chip_of(to), topology.chip_of(me));
                        let (o, s) = fabric.holders(victim);
                        prop_assert!(o != Some(to) && !s.contains(&to), "LRU XI target left");
                    }
                }
            }
        }
    }

    /// Rejectability is the architecture's: only exclusive and demote XIs
    /// can be stiff-armed.
    #[test]
    fn xi_rejectability_total(kind in prop::sample::select(vec![
        XiKind::Exclusive, XiKind::Demote, XiKind::ReadOnly, XiKind::Lru
    ])) {
        let expected = matches!(kind, XiKind::Exclusive | XiKind::Demote);
        prop_assert_eq!(kind.rejectable(), expected);
    }

    /// [`LatencyModel::min_cross_boundary_latency`] is a true lower bound:
    /// for *any* latency values, any topology, and any fetch whose data
    /// source sits beyond a shard boundary (another MCM, or another chip of
    /// the same MCM when the machine is a single book), the fetch
    /// cost is at least the advertised boundary minimum. This is the bound
    /// the sharded simulator's determinism argument cites: no cross-shard
    /// install can complete earlier than `access clock + this latency`.
    #[test]
    fn cross_boundary_fetch_never_undercuts_the_minimum(
        l3 in 1u64..10_000,
        l4 in 1u64..10_000,
        cross in 1u64..10_000,
        memory in 1u64..10_000,
        intervention in 0u64..1_000,
        cpus in 2usize..64,
        per_chip in 1usize..8,
        chips_per_mcm in 1usize..5,
        req_pick in any::<usize>(),
        src_pick in any::<usize>(),
        src_kind in 0u8..4,
    ) {
        let mut lat = ztm_cache::LatencyModel::zec12();
        lat.l3_hit = l3;
        lat.l4_hit = l4;
        lat.cross_mcm = cross;
        lat.memory = memory;
        lat.intervention = intervention;
        // The topology supports at most 8 MCMs.
        let cpus = cpus.min(per_chip * chips_per_mcm * 8);
        let topo = Topology::new(cpus, per_chip, chips_per_mcm);
        let req = CpuId(req_pick % cpus);
        let other = CpuId(src_pick % cpus);
        let source = match src_kind {
            0 => ztm_cache::Source::Cpu(other),
            1 => ztm_cache::Source::L3(topo.chip_of(other)),
            2 => ztm_cache::Source::L4(topo.mcm_of(other)),
            _ => ztm_cache::Source::Memory,
        };
        // Which boundary (if any) the source sits beyond.
        let crosses_book = match source {
            ztm_cache::Source::Cpu(o) => topo.mcm_of(req) != topo.mcm_of(o),
            ztm_cache::Source::L3(c) => topo.mcm_of(req) != topo.mcm_of_chip(c),
            ztm_cache::Source::L4(m) => topo.mcm_of(req) != m,
            ztm_cache::Source::Memory => true,
        };
        let crosses_chip = match source {
            ztm_cache::Source::Cpu(o) => topo.chip_of(req) != topo.chip_of(o),
            ztm_cache::Source::L3(c) => topo.chip_of(req) != c,
            ztm_cache::Source::L4(_) => true,
            ztm_cache::Source::Memory => true,
        };
        let cost = lat.fetch(&topo, req, source);
        if crosses_book {
            prop_assert!(cost >= lat.min_cross_boundary_latency(false),
                "cross-book fetch {cost} under floor");
        } else if crosses_chip {
            // The chip-level boundary is the shard boundary of a
            // single-book machine, where every crossing stays on-MCM.
            prop_assert!(cost >= lat.min_cross_boundary_latency(true),
                "cross-chip fetch {cost} under floor");
        }
    }
}
