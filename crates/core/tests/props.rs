//! Property tests for the transaction engine: TDB round trips, save-mask
//! algebra, constraint accounting, nesting discipline, and abort-code
//! classification.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ztm_cache::CpuId;
use ztm_core::{
    AbortCause, ConstraintTracker, GrSaveMask, InstrClass, TbeginParams, Tdb, TendOutcome,
    TxEngine, MAX_NESTING_DEPTH,
};
use ztm_mem::{Address, LineAddr, MainMemory};

fn arb_cause() -> impl Strategy<Value = AbortCause> {
    prop_oneof![
        (any::<u64>(), any::<bool>(), prop::option::of(0usize..144)).prop_map(
            |(line, store, from)| AbortCause::Conflict {
                line: LineAddr::new(line % 1_000_000),
                from: from.map(CpuId),
                store,
            }
        ),
        Just(AbortCause::FetchOverflow),
        Just(AbortCause::StoreOverflow),
        (0u64..1_000_000).prop_map(|l| AbortCause::RejectHang {
            line: LineAddr::new(l)
        }),
        Just(AbortCause::RestrictedInstruction),
        Just(AbortCause::NestingDepthExceeded),
        (256u64..1u64 << 40).prop_map(AbortCause::Tabort),
        Just(AbortCause::Diagnostic),
        Just(AbortCause::AsynchronousInterruption),
    ]
}

proptest! {
    /// Every abort cause maps to a valid architected code and a CC of 2/3,
    /// and TABORT's low bit selects the CC.
    #[test]
    fn abort_codes_are_total_and_classified(cause in arb_cause()) {
        let code = cause.abort_code();
        prop_assert!(code >= 2);
        let cc = cause.condition().value();
        prop_assert!(cc == 2 || cc == 3);
        if let AbortCause::Tabort(c) = cause {
            prop_assert_eq!(cc == 3, c & 1 == 1);
            prop_assert!(code >= 256);
        }
    }

    /// The TDB round-trips through memory for any cause, registers, and
    /// abort count.
    #[test]
    fn tdb_memory_round_trip(
        cause in arb_cause(),
        atia in any::<u64>(),
        grs in prop::array::uniform16(any::<u64>()),
        count in any::<u64>(),
        addr in (0u64..1_000_000).prop_map(|a| a & !0xff),
    ) {
        let tdb = Tdb::build(cause, atia, &grs, count, None);
        let mut mem = MainMemory::new();
        tdb.store_to(&mut mem, Address::new(addr));
        let back = Tdb::load_from(&mem, Address::new(addr));
        prop_assert_eq!(back.abort_code(), cause.abort_code());
        prop_assert_eq!(back.atia(), atia);
        prop_assert_eq!(back.abort_count(), count);
        for (i, g) in grs.iter().enumerate() {
            prop_assert_eq!(back.gr(i), *g);
        }
        prop_assert_eq!(
            back.conflict_token().is_some(),
            cause.conflict_token().is_some()
        );
    }

    /// GrSaveMask: a register is covered iff its pair bit is set, and the
    /// pair count equals the popcount.
    #[test]
    fn save_mask_algebra(mask in any::<u8>()) {
        let m = GrSaveMask::new(mask);
        prop_assert_eq!(m.pair_count(), mask.count_ones());
        for r in 0..16usize {
            prop_assert_eq!(m.covers_gr(r), mask >> (r / 2) & 1 == 1);
        }
        prop_assert_eq!(m.pairs().count() as u32, m.pair_count());
    }

    /// The constraint tracker counts distinct octowords exactly like a
    /// naive reference set, for arbitrary aligned accesses.
    #[test]
    fn octoword_accounting_matches_reference(
        accesses in prop::collection::vec((0u64..100u64, 1u64..9), 1..20),
    ) {
        let mut tracker = ConstraintTracker::new(0);
        let mut reference = std::collections::BTreeSet::new();
        for (i, (slot, len)) in accesses.iter().enumerate() {
            let addr = slot * 8; // doubleword-aligned accesses
            let first = addr / 32;
            let last = (addr + len - 1) / 32;
            let mut r = reference.clone();
            for ow in first..=last {
                r.insert(ow);
            }
            let res = tracker.note_data_access(Address::new(addr), *len);
            if r.len() <= 4 {
                prop_assert!(res.is_ok(), "access {} should fit", i);
                reference = r;
            } else {
                prop_assert!(res.is_err());
                break;
            }
        }
        prop_assert_eq!(tracker.octowords(), reference.len());
    }

    /// Retried instructions (same address) never consume extra budget; 32
    /// distinct addresses always fit, the 33rd never does.
    #[test]
    fn instruction_budget_dedupes_retries(retries in prop::collection::vec(0usize..32, 0..40)) {
        let mut t = ConstraintTracker::new(0);
        for i in 0..32u64 {
            t.note_instruction(i * 4, 4, InstrClass::General).unwrap();
            prop_assert_eq!(t.instructions(), (i + 1) as u32);
        }
        for r in retries {
            prop_assert!(t.note_instruction(r as u64 * 4, 4, InstrClass::General).is_ok());
            prop_assert_eq!(t.instructions(), 32);
        }
        prop_assert!(t.note_instruction(32 * 4, 4, InstrClass::General).is_err());
    }

    /// Nesting discipline: for any sequence of begins and ends, the depth
    /// follows push/pop semantics, caps at 16, and a commit only happens
    /// when the last level pops.
    #[test]
    fn nesting_depth_follows_begin_end(ops in prop::collection::vec(any::<bool>(), 1..64)) {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut tx = TxEngine::default();
        let mut depth = 0usize;
        for begin in ops {
            if begin {
                let res = tx.begin(TbeginParams::new(), false, &[0; 16], 0, 6, &mut rng);
                if depth == MAX_NESTING_DEPTH {
                    prop_assert!(res.is_err());
                    // The abort flattens the nest.
                    tx.process_abort(res.unwrap_err(), &[0; 16], 0, &mut rng);
                    depth = 0;
                } else {
                    prop_assert!(res.is_ok());
                    depth += 1;
                }
            } else {
                let out = tx.tend();
                match out {
                    TendOutcome::NotInTx => prop_assert_eq!(depth, 0),
                    TendOutcome::Inner => {
                        prop_assert!(depth > 1);
                        depth -= 1;
                    }
                    TendOutcome::Commit { .. } => {
                        prop_assert_eq!(depth, 1);
                        depth = 0;
                    }
                }
            }
            prop_assert_eq!(tx.depth(), depth);
            prop_assert_eq!(tx.in_tx(), depth > 0);
        }
    }

    /// GR restoration honors the mask exactly for arbitrary masks and
    /// register contents.
    #[test]
    fn gr_restore_matches_mask(
        mask in any::<u8>(),
        before in prop::array::uniform16(any::<u64>()),
    ) {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut tx = TxEngine::default();
        let params = TbeginParams {
            grsm: GrSaveMask::new(mask),
            ..TbeginParams::new()
        };
        tx.begin(params, false, &before, 0x100, 0x106, &mut rng).unwrap();
        let out = tx.process_abort(AbortCause::FetchOverflow, &[0; 16], 0x110, &mut rng);
        prop_assert_eq!(out.gr_restores.len() as u32, 2 * mask.count_ones());
        for (r, v) in out.gr_restores {
            prop_assert!(GrSaveMask::new(mask).covers_gr(r));
            prop_assert_eq!(v, before[r]);
        }
    }
}
