//! System-level property test: transactional atomicity holds for *random*
//! system shapes and seeds — effectively fuzzing the whole stack (ISA →
//! engine → cache → fabric) against its one unforgiving invariant.

use proptest::prelude::*;
use ztm::sim::{System, SystemConfig};
use ztm::workloads::bank::{Bank, BankMethod};
use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full multi-CPU simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn pool_updates_are_atomic_for_random_shapes(
        cpus in 2usize..10,
        pool in 1u64..32,
        vars in 1usize..5,
        seed in any::<u64>(),
        constrained in any::<bool>(),
        spec in any::<bool>(),
        occupancy in 0u64..20,
    ) {
        let method = if constrained { SyncMethod::Tbeginc } else { SyncMethod::Tbegin };
        let wl = PoolWorkload::new(PoolLayout::new(pool, vars), method, seed);
        let mut cfg = SystemConfig::with_cpus(cpus).seed(seed);
        if !spec {
            cfg.prefetch_probability = 0.0;
        }
        cfg.fabric_occupancy = occupancy;
        let mut sys = System::new(cfg);
        let ops = 15;
        let rep = wl.run(&mut sys, ops);
        prop_assert_eq!(rep.committed_ops(), cpus as u64 * ops);
        // With a pool of 1 the paper's methodology places the extra
        // variables on consecutive *non-pool* lines, so only one counted
        // increment happens per op.
        let per_op = if pool == 1 { 1 } else { vars as u64 };
        prop_assert_eq!(wl.pool_sum(&sys), cpus as u64 * ops * per_op);
    }

    #[test]
    fn money_is_conserved_for_random_banks(
        cpus in 2usize..8,
        accounts in 1u64..24,
        seed in any::<u64>(),
        method_sel in 0u8..3,
    ) {
        let method = match method_sel {
            0 => BankMethod::Lock,
            1 => BankMethod::Tbeginc,
            _ => BankMethod::Tbegin,
        };
        let bank = Bank::new(accounts, method);
        let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(seed));
        bank.open(&mut sys, 10_000);
        bank.run(&mut sys, 12);
        prop_assert_eq!(bank.total(&sys), accounts * 10_000);
    }
}
