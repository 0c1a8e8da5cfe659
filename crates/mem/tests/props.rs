//! Property tests: the sparse memory image behaves like a flat byte array.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use std::collections::HashMap;
use ztm_mem::{Address, MainMemory};

proptest! {
    /// Arbitrary interleavings of stores and loads agree with a reference
    /// byte map (zero-default).
    #[test]
    fn memory_matches_reference_model(
        ops in prop::collection::vec(
            (0u64..0x4000, prop::collection::vec(any::<u8>(), 1..16)),
            1..60
        )
    ) {
        let mut mem = MainMemory::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for (addr, bytes) in &ops {
            mem.store_bytes(Address::new(*addr), bytes);
            for (i, b) in bytes.iter().enumerate() {
                reference.insert(addr + i as u64, *b);
            }
        }
        for (addr, bytes) in &ops {
            let mut buf = vec![0u8; bytes.len()];
            mem.load_bytes(Address::new(*addr), &mut buf);
            let expect: Vec<u8> = (0..bytes.len() as u64)
                .map(|i| reference.get(&(addr + i)).copied().unwrap_or(0))
                .collect();
            prop_assert_eq!(&buf, &expect);
        }
    }

    /// u64 round trips at any (possibly line-crossing) address.
    #[test]
    fn u64_round_trip(addr in 0u64..0x10000, value in any::<u64>()) {
        let mut mem = MainMemory::new();
        mem.store_u64(Address::new(addr), value);
        prop_assert_eq!(mem.load_u64(Address::new(addr)), value);
    }

    /// Address decomposition is consistent: reassembling the line base and
    /// in-line offset recovers the address, and containers nest.
    #[test]
    fn address_decomposition_consistent(raw in any::<u64>()) {
        let a = Address::new(raw & 0x000f_ffff_ffff_ffff); // avoid overflow at +255
        prop_assert_eq!(a.line().base().raw() + a.offset_in_line(), a.raw());
        prop_assert_eq!(a.half_line().line(), a.line());
        prop_assert_eq!(a.octoword().base().page(), a.octoword().base().page());
        prop_assert!(a.octoword().base().raw() <= a.raw());
        prop_assert!(a.page().base().raw() <= a.raw());
    }

    /// Congruence classes are stable under adding multiples of the set
    /// count.
    #[test]
    fn congruence_class_periodic(line in 0u64..1_000_000, k in 0u64..64, sets in 1usize..1024) {
        let l1 = ztm_mem::LineAddr::new(line);
        let l2 = ztm_mem::LineAddr::new(line + k * sets as u64);
        prop_assert_eq!(l1.congruence_class(sets), l2.congruence_class(sets));
    }
}
