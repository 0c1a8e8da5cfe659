//! Differential tests for the predecoded interpreter (`ztm-isa::decoded`).
//!
//! The predecode pass lowers a `Program` once into a flat table of
//! fixed-size decoded records, and the hot interpreter dispatches on those
//! instead of walking the `Instr` enum. Both interpreters stay in the tree
//! (`System::set_legacy_interpreter`); these tests pin them to each other:
//! identical per-step outcomes, identical trace digests, and an exact
//! decode/reify round-trip for arbitrary assemblable instructions.

use proptest::prelude::*;
use ztm::core::{GrSaveMask, Pifc, TbeginParams};
use ztm::isa::gr::*;
use ztm::isa::{Assembler, CmpCond, Instr, MemOperand, Program, Reg, RegOrImm};
use ztm::mem::Address;
use ztm::sim::{System, SystemConfig};
use ztm::trace::{Recorder, Tracer};
use ztm::workloads::hashtable::{HashTable, TableMethod};

/// A program exercising every interpreter path that a well-formed workload
/// can reach: contended plain stores, lock-elision-shaped transactions with
/// an abort fallback, compare-and-swap, branches, ALU, clocks, and NTSTG.
fn mixed_program() -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 250); // outer loop count
    a.label("loop");
    // Contended read-modify-write on a shared line (XI traffic, stalls).
    a.lg(R1, MemOperand::absolute(0x1000));
    a.aghi(R1, 1);
    a.stg(R1, MemOperand::absolute(0x1000));
    // A transaction in the Figure 1 elision shape.
    a.tbegin(TbeginParams::new());
    a.jnz("fallback");
    a.ltg(R2, MemOperand::absolute(0x2000)); // "lock" word, stays 0
    a.jnz("fallback");
    a.lg(R3, MemOperand::absolute(0x3000));
    a.aghi(R3, 3);
    a.stg(R3, MemOperand::absolute(0x3000));
    a.ntstg(R3, MemOperand::absolute(0x3800));
    a.etnd(R4);
    a.tend();
    a.j("joined");
    a.label("fallback");
    a.ppa(R0);
    a.delay(16);
    a.label("joined");
    // CAS on a private line plus some ALU/clock coverage.
    a.lghi(R2, 0);
    a.lghi(R3, 1);
    a.csg(R2, R3, MemOperand::absolute(0x4000));
    a.stg(R2, MemOperand::absolute(0x4000)); // reset for the next round
    a.rdclk(R5);
    a.push(Instr::Xgr(R5, R5));
    a.sllg(R4, R6, 2);
    a.cgij_ge(R4, 0, "counted");
    a.label("counted");
    a.stckf(MemOperand::absolute(0x5000));
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().expect("mixed program assembles")
}

/// Builds a 4-CPU system running [`mixed_program`], with a recording tracer.
fn mixed_system(legacy: bool) -> (System, std::sync::Arc<std::sync::Mutex<Recorder>>) {
    let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
    sys.set_legacy_interpreter(legacy);
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    sys.load_program_all(&mixed_program());
    (sys, recorder)
}

/// The legacy `Instr` walk and the predecoded dispatch must agree on every
/// single step: same CPU scheduled, same [`ztm::isa::StepOutcome`]
/// (cycles, event, broadcast-stop), and the same state and trace digest at
/// the end.
#[test]
fn predecoded_and_legacy_interpreters_step_identically() {
    let (mut fast, fast_rec) = mixed_system(false);
    let (mut slow, slow_rec) = mixed_system(true);
    let mut steps = 0u64;
    loop {
        let a = fast.step_one();
        let b = slow.step_one();
        assert_eq!(a, b, "divergence at step {steps}");
        steps += 1;
        if a.is_none() {
            break;
        }
        assert!(steps < 2_000_000, "mixed program failed to halt");
    }
    assert!(
        steps > 10_000,
        "program too short to be a meaningful differential"
    );
    assert_eq!(fast.fingerprint(), slow.fingerprint());
    assert_eq!(
        fast_rec.lock().unwrap().digest(),
        slow_rec.lock().unwrap().digest()
    );
}

/// Same check through a full workload driver (the lock-elided hashtable of
/// Fig 5(e)), where aborts, retries, and the fallback lock all fire.
#[test]
fn predecoded_and_legacy_agree_on_the_elision_hashtable() {
    let run = |legacy: bool| {
        let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
        sys.set_legacy_interpreter(legacy);
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        t.populate(&mut sys, &(0..256).collect::<Vec<_>>());
        let rep = t.run(&mut sys, 60);
        let digest = recorder.lock().unwrap().digest();
        (rep.system.steps, sys.fingerprint(), digest)
    };
    assert_eq!(run(false), run(true));
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

fn arb_mem() -> impl Strategy<Value = MemOperand> {
    prop_oneof![
        (0u64..0x10_000).prop_map(MemOperand::absolute),
        (arb_reg(), 0i64..4096).prop_map(|(b, d)| MemOperand::based(b, d)),
        (arb_reg(), arb_reg(), 0i64..4096).prop_map(|(b, x, d)| MemOperand::indexed(b, x, d)),
    ]
}

fn arb_roi() -> impl Strategy<Value = RegOrImm> {
    prop_oneof![
        arb_reg().prop_map(RegOrImm::Reg),
        (256u64..2048).prop_map(RegOrImm::Imm),
    ]
}

fn arb_cond() -> impl Strategy<Value = CmpCond> {
    prop_oneof![
        Just(CmpCond::Eq),
        Just(CmpCond::Ne),
        Just(CmpCond::Lt),
        Just(CmpCond::Le),
        Just(CmpCond::Gt),
        Just(CmpCond::Ge),
    ]
}

fn arb_tbegin() -> impl Strategy<Value = TbeginParams> {
    (
        any::<u8>(),
        any::<bool>(),
        any::<bool>(),
        0u8..3,
        proptest::option::of(0u64..0x1000),
    )
        .prop_map(|(mask, ar, fp, pifc, tdb)| TbeginParams {
            grsm: GrSaveMask::new(mask),
            allow_ar_mod: ar,
            allow_fp_mod: fp,
            pifc: match pifc {
                0 => Pifc::None,
                1 => Pifc::Data,
                _ => Pifc::DataAndAccess,
            },
            tdb: tdb.map(|a| Address::new(a * 8)),
        })
}

/// Every `Instr` variant the assembler can emit. Branch targets are raw
/// instruction indices below `max_target`; the round-trip never executes
/// the program, so dangling targets are fine.
fn arb_instr(max_target: usize) -> impl Strategy<Value = Instr> {
    let t = 0..max_target;
    prop_oneof![
        (arb_reg(), arb_mem()).prop_map(|(r, m)| Instr::Lg(r, m)),
        (arb_reg(), arb_mem()).prop_map(|(r, m)| Instr::Stg(r, m)),
        (arb_reg(), arb_mem()).prop_map(|(r, m)| Instr::Ltg(r, m)),
        (arb_reg(), -0x8000i64..0x8000).prop_map(|(r, i)| Instr::Lghi(r, i)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Lgr(a, b)),
        (arb_reg(), arb_mem()).prop_map(|(r, m)| Instr::La(r, m)),
        (arb_reg(), arb_reg(), arb_mem()).prop_map(|(a, b, m)| Instr::Csg(a, b, m)),
        (arb_reg(), arb_mem()).prop_map(|(r, m)| Instr::Ntstg(r, m)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Agr(a, b)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Sgr(a, b)),
        (arb_reg(), -0x8000i64..0x8000).prop_map(|(r, i)| Instr::Aghi(r, i)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Ngr(a, b)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Xgr(a, b)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Msgr(a, b)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Dsgr(a, b)),
        (arb_reg(), arb_reg(), 0u8..64).prop_map(|(a, b, s)| Instr::Sllg(a, b, s)),
        (arb_reg(), arb_reg(), 0u8..64).prop_map(|(a, b, s)| Instr::Srlg(a, b, s)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Ltgr(a, b)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Cgr(a, b)),
        (arb_reg(), -0x8000i64..0x8000).prop_map(|(r, i)| Instr::Cghi(r, i)),
        (0u8..16, t.clone()).prop_map(|(mask, t)| Instr::Brc(mask, t)),
        (arb_reg(), -100i64..100, arb_cond(), t.clone())
            .prop_map(|(r, i, c, t)| Instr::Cgij(r, i, c, t)),
        (arb_reg(), t).prop_map(|(r, t)| Instr::Brctg(r, t)),
        arb_reg().prop_map(Instr::Br),
        arb_tbegin().prop_map(Instr::Tbegin),
        any::<u8>().prop_map(|m| Instr::Tbeginc(GrSaveMask::new(m))),
        Just(Instr::Tend),
        arb_roi().prop_map(Instr::Tabort),
        arb_reg().prop_map(Instr::Etnd),
        arb_reg().prop_map(Instr::Ppa),
        arb_mem().prop_map(Instr::Stckf),
        arb_reg().prop_map(Instr::Rdclk),
        (arb_reg(), arb_roi()).prop_map(|(r, b)| Instr::RandMod(r, b)),
        (0u8..16, arb_reg()).prop_map(|(ar, r)| Instr::Sar(ar, r)),
        (arb_reg(), 0u8..16).prop_map(|(r, ar)| Instr::Ear(r, ar)),
        (0u8..16, 0u8..16).prop_map(|(a, b)| Instr::Adbr(a, b)),
        Just(Instr::Decimal),
        Just(Instr::Privileged),
        Just(Instr::Nop),
        (1u64..10_000).prop_map(Instr::Delay),
        Just(Instr::Halt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// Predecode is lossless: reifying the decoded record of any assembled
    /// instruction produces the identical instruction (and therefore the
    /// identical disassembly), and the flat table preserves lengths and
    /// byte addresses exactly.
    #[test]
    fn predecode_round_trips_every_assemblable_instruction(
        instrs in proptest::collection::vec(arb_instr(48), 1..48),
        base in 0u64..0x4000,
    ) {
        let mut a = Assembler::new(base * 2);
        for i in &instrs {
            // Branch targets were drawn below the *maximum* program length;
            // wrap them into this program (predecode resolves target
            // addresses, so targets must be real instruction indices).
            let mut i = i.clone();
            if let Instr::Brc(_, t) | Instr::Cgij(_, _, _, t) | Instr::Brctg(_, t) = &mut i {
                *t %= instrs.len();
            }
            a.push(i);
        }
        let prog = a.assemble().expect("raw instruction streams assemble");
        let mut addr = base * 2;
        for idx in 0..prog.len() {
            let original = prog.instr(idx);
            let reified = prog.reconstruct(idx);
            prop_assert_eq!(&reified, original, "instr {} reifies differently", idx);
            prop_assert_eq!(reified.to_string(), original.to_string());
            prop_assert_eq!(prog.addr_of(idx), addr);
            addr += original.len();
        }
    }
}
