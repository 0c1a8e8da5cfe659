//! Property tests for the ISA layer: assembler address discipline and the
//! interpreter against a reference evaluator for straight-line ALU code.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use ztm_isa::{gr::*, run_to_halt, Assembler, Instr, Reg, SimpleMachine};

#[derive(Debug, Clone)]
enum AluOp {
    Lghi(u8, i16),
    Aghi(u8, i16),
    Agr(u8, u8),
    Sgr(u8, u8),
    Ngr(u8, u8),
    Xgr(u8, u8),
    Msgr(u8, u8),
    Sllg(u8, u8, u8),
    Srlg(u8, u8, u8),
    Lgr(u8, u8),
}

fn arb_op() -> impl Strategy<Value = AluOp> {
    let r = 0u8..16;
    prop_oneof![
        (r.clone(), any::<i16>()).prop_map(|(a, i)| AluOp::Lghi(a, i)),
        (r.clone(), any::<i16>()).prop_map(|(a, i)| AluOp::Aghi(a, i)),
        (r.clone(), r.clone()).prop_map(|(a, b)| AluOp::Agr(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| AluOp::Sgr(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| AluOp::Ngr(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| AluOp::Xgr(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| AluOp::Msgr(a, b)),
        (r.clone(), r.clone(), 0u8..64).prop_map(|(a, b, n)| AluOp::Sllg(a, b, n)),
        (r.clone(), r.clone(), 0u8..64).prop_map(|(a, b, n)| AluOp::Srlg(a, b, n)),
        (r.clone(), r).prop_map(|(a, b)| AluOp::Lgr(a, b)),
    ]
}

/// Reference semantics of the ALU subset.
fn reference(ops: &[AluOp]) -> [u64; 16] {
    let mut g = [0u64; 16];
    for op in ops {
        match *op {
            AluOp::Lghi(a, i) => g[a as usize] = i as i64 as u64,
            AluOp::Aghi(a, i) => g[a as usize] = g[a as usize].wrapping_add(i as i64 as u64),
            AluOp::Agr(a, b) => g[a as usize] = g[a as usize].wrapping_add(g[b as usize]),
            AluOp::Sgr(a, b) => g[a as usize] = g[a as usize].wrapping_sub(g[b as usize]),
            AluOp::Ngr(a, b) => g[a as usize] &= g[b as usize],
            AluOp::Xgr(a, b) => g[a as usize] ^= g[b as usize],
            AluOp::Msgr(a, b) => g[a as usize] = g[a as usize].wrapping_mul(g[b as usize]),
            AluOp::Sllg(a, b, n) => g[a as usize] = g[b as usize] << n,
            AluOp::Srlg(a, b, n) => g[a as usize] = g[b as usize] >> n,
            AluOp::Lgr(a, b) => g[a as usize] = g[b as usize],
        }
    }
    g
}

fn emit(a: &mut Assembler, op: &AluOp) {
    match *op {
        AluOp::Lghi(r, i) => a.lghi(Reg(r), i as i64),
        AluOp::Aghi(r, i) => a.aghi(Reg(r), i as i64),
        AluOp::Agr(x, y) => a.agr(Reg(x), Reg(y)),
        AluOp::Sgr(x, y) => a.sgr(Reg(x), Reg(y)),
        AluOp::Ngr(x, y) => a.ngr(Reg(x), Reg(y)),
        AluOp::Xgr(x, y) => a.push(Instr::Xgr(Reg(x), Reg(y))),
        AluOp::Msgr(x, y) => a.push(Instr::Msgr(Reg(x), Reg(y))),
        AluOp::Sllg(x, y, n) => a.sllg(Reg(x), Reg(y), n),
        AluOp::Srlg(x, y, n) => a.push(Instr::Srlg(Reg(x), Reg(y), n)),
        AluOp::Lgr(x, y) => a.lgr(Reg(x), Reg(y)),
    };
}

proptest! {
    /// Straight-line ALU programs compute exactly what the reference
    /// evaluator says, both plainly and inside a committed transaction
    /// (transactions are invisible to register dataflow when they commit).
    #[test]
    fn alu_matches_reference(ops in prop::collection::vec(arb_op(), 0..40)) {
        let mut a = Assembler::new(0);
        for op in &ops {
            emit(&mut a, op);
        }
        a.halt();
        let prog = a.assemble().unwrap();
        let core = run_to_halt(&prog, &mut SimpleMachine::new(0), 10_000);
        prop_assert_eq!(core.grs, reference(&ops));

        let mut b = Assembler::new(0);
        b.tbegin(ztm_core::TbeginParams::new());
        b.jnz("out");
        for op in &ops {
            emit(&mut b, op);
        }
        b.tend();
        b.label("out");
        b.halt();
        let prog = b.assemble().unwrap();
        let core = run_to_halt(&prog, &mut SimpleMachine::new(0), 10_000);
        prop_assert_eq!(core.grs, reference(&ops));
    }

    /// Assembler addresses are strictly increasing, spaced by instruction
    /// lengths, and `index_of_addr` is the exact inverse of `addr_of`.
    #[test]
    fn assembler_address_discipline(
        ops in prop::collection::vec(arb_op(), 1..50),
        base in 0u64..0x10000,
    ) {
        let mut a = Assembler::new(base);
        for op in &ops {
            emit(&mut a, op);
        }
        a.halt();
        let prog = a.assemble().unwrap();
        let mut expect = base;
        for i in 0..prog.len() {
            prop_assert_eq!(prog.addr_of(i), expect);
            prop_assert_eq!(prog.index_of_addr(expect), Some(i));
            expect += prog.instr(i).len();
        }
        // No interior byte of an instruction maps to an index.
        prop_assert_eq!(prog.index_of_addr(base + 1), None);
    }

    /// Register rollback: for any subset mask, aborting restores exactly
    /// the masked registers and leaves the rest at their modified values.
    #[test]
    fn rollback_respects_arbitrary_masks(mask in any::<u8>()) {
        use ztm_core::{GrSaveMask, TbeginParams};
        let mut a = Assembler::new(0);
        // Set every register to its index + 1.
        for r in 0..16u8 {
            a.lghi(Reg(r), (r + 1) as i64);
        }
        let params = TbeginParams {
            grsm: GrSaveMask::new(mask),
            ..TbeginParams::new()
        };
        a.tbegin(params);
        a.jnz("out");
        // Clobber every register.
        for r in 0..16u8 {
            a.lghi(Reg(r), 100 + r as i64);
        }
        a.tabort(256);
        a.label("out");
        a.halt();
        let prog = a.assemble().unwrap();
        let core = run_to_halt(&prog, &mut SimpleMachine::new(0), 10_000);
        for r in 0..16usize {
            let expect = if GrSaveMask::new(mask).covers_gr(r) {
                (r + 1) as u64 // restored
            } else {
                100 + r as u64 // survives the abort (§II.B)
            };
            prop_assert_eq!(core.grs[r], expect, "GR{}", r);
        }
    }

    /// Condition-code truth table for BRC: a branch with mask `m` is taken
    /// iff bit `3 - cc` of `m` is set.
    #[test]
    fn brc_mask_semantics(mask in 0u8..16, cc_src in 0u8..3) {
        // Produce CC 0, 1 or 2 via a compare.
        let mut a = Assembler::new(0);
        a.lghi(R1, cc_src as i64); // compare value
        a.cghi(R1, 1); // CC: 0 if ==1, 1 if <1, 2 if >1
        a.brc(mask, "taken");
        a.lghi(R9, 1); // fall-through marker
        a.halt();
        a.label("taken");
        a.lghi(R9, 2);
        a.halt();
        let prog = a.assemble().unwrap();
        let core = run_to_halt(&prog, &mut SimpleMachine::new(0), 100);
        let cc = match cc_src {
            1 => 0u8, // equal
            0 => 1,   // low
            _ => 2,   // high
        };
        let taken = mask >> (3 - cc) & 1 == 1;
        prop_assert_eq!(core.gr(R9), if taken { 2 } else { 1 });
    }
}
