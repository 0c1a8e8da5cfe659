//! Architectural semantics on the full multi-CPU system: abort resume
//! points, TDB contents, NTSTG isolation, strong atomicity, and the
//! transactional footprint limits of §II/§III.

use ztm::core::{GrSaveMask, TbeginParams, Tdb};
use ztm::isa::{gr::*, Assembler, MemOperand};
use ztm::mem::Address;
use ztm::sim::{System, SystemConfig};

const TDB_ADDR: u64 = 0x8_0000;

/// Two CPUs: a reader transaction holding a line open, and a writer whose
/// plain store conflicts. Returns the system after both halted.
fn conflict_scenario() -> System {
    let shared = 0x5_0000u64;
    let mut a0 = Assembler::new(0);
    let params = TbeginParams {
        tdb: Some(Address::new(TDB_ADDR)),
        ..TbeginParams::new()
    };
    a0.lghi(R7, 0x77); // visible in the TDB GR snapshot
    a0.tbegin(params);
    a0.jnz("aborted");
    a0.label("spin");
    a0.lg(R3, MemOperand::absolute(shared));
    a0.cghi(R3, 0);
    a0.jz("spin");
    a0.tend();
    a0.halt();
    a0.label("aborted");
    a0.halt();
    let p0 = a0.assemble().unwrap();

    let mut a1 = Assembler::new(0x1000);
    a1.delay(2_000);
    a1.lghi(R1, 1);
    a1.stg(R1, MemOperand::absolute(shared));
    a1.halt();
    let p1 = a1.assemble().unwrap();

    let mut cfg = SystemConfig::with_cpus(2);
    cfg.prefetch_probability = 0.0;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p0);
    sys.load_program(1, &p1);
    sys.run_until_halt(10_000_000);
    sys
}

#[test]
fn conflict_abort_fills_tdb() {
    let sys = conflict_scenario();
    let tdb = Tdb::load_from(sys.mem(), Address::new(TDB_ADDR));
    assert_eq!(tdb.abort_code(), 9, "fetch conflict");
    assert!(tdb.conflict_token_valid());
    assert_eq!(
        tdb.conflict_token(),
        Some(Address::new(0x5_0000).line().base().raw())
    );
    assert_eq!(tdb.gr(7), 0x77, "GR snapshot at abort time");
    assert_eq!(sys.core(0).cc, 2, "conflicts are transient (CC 2)");
    assert_eq!(sys.tx_stats(0).aborts, 1);
}

#[test]
fn strong_atomicity_against_plain_stores() {
    // §II.A: transactions are isolated even against non-transactional
    // accesses from other CPUs — the scenario above relies on it, and the
    // writer's store must land.
    let sys = conflict_scenario();
    assert_eq!(sys.mem().load_u64(Address::new(0x5_0000)), 1);
}

#[test]
fn store_footprint_overflow_is_permanent() {
    // Fill more 128-byte granules than the 64-entry store cache can hold:
    // the transaction must abort with CC 3 (store overflow, code 8).
    let mut a = Assembler::new(0);
    a.tbegin(TbeginParams::new());
    a.jnz("handler");
    a.lghi(R1, 1);
    a.lghi(R5, 0x10_0000); // base address
    a.lghi(R6, 70); // 70 distinct granules > 64 entries
    a.label("fill");
    a.stg(R1, MemOperand::based(R5, 0));
    a.aghi(R5, 128);
    a.brctg(R6, "fill");
    a.tend();
    a.halt();
    a.label("handler");
    a.halt();
    let p = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.load_program(0, &p);
    sys.run_until_halt(1_000_000);
    assert_eq!(
        sys.core(0).cc,
        3,
        "overflow is permanent: take the fallback"
    );
    assert_eq!(sys.tx_stats(0).aborts_by_code.get(&8), Some(&1));
    // Nothing leaked to memory.
    assert_eq!(sys.mem().load_u64(Address::new(0x10_0000)), 0);
}

#[test]
fn read_footprint_survives_l1_via_lru_extension() {
    // Read 500 distinct lines transactionally: far beyond the 96KB L1's
    // 6-way tracking, but within the L2 thanks to the LRU extension
    // (§III.C). The transaction must commit.
    let mut a = Assembler::new(0);
    a.tbegin(TbeginParams::new());
    a.jnz("handler");
    a.lghi(R5, 0x20_0000);
    a.lghi(R6, 500);
    a.label("scan");
    a.lg(R1, MemOperand::based(R5, 0));
    a.aghi(R5, 256);
    a.brctg(R6, "scan");
    a.tend();
    a.halt();
    a.label("handler");
    a.halt();
    let p = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.load_program(0, &p);
    sys.run_until_halt(10_000_000);
    assert_eq!(sys.core(0).cc, 0, "committed");
    assert_eq!(sys.tx_stats(0).commits, 1);
    assert_eq!(sys.tx_stats(0).aborts, 0);
}

#[test]
fn read_footprint_aborts_without_lru_extension() {
    // The same 500-line scan with the extension disabled (the Fig 5f
    // "64x6way" configuration) must hit a fetch overflow.
    let mut a = Assembler::new(0);
    a.tbegin(TbeginParams::new());
    a.jnz("handler");
    a.lghi(R5, 0x20_0000);
    a.lghi(R6, 500);
    a.label("scan");
    a.lg(R1, MemOperand::based(R5, 0));
    a.aghi(R5, 256);
    a.brctg(R6, "scan");
    a.tend();
    a.halt();
    a.label("handler");
    a.halt();
    let p = a.assemble().unwrap();
    let mut cfg = SystemConfig::with_cpus(1);
    cfg.geometry.lru_extension = false;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p);
    sys.run_until_halt(10_000_000);
    assert_eq!(sys.core(0).cc, 3);
    assert_eq!(sys.tx_stats(0).aborts_by_code.get(&7), Some(&1));
}

#[test]
fn ntstg_is_isolated_until_end_but_survives_abort() {
    // CPU 0 writes an NTSTG breadcrumb then aborts itself. The breadcrumb
    // must be invisible to CPU 1 while the transaction runs (isolation) and
    // visible after the abort.
    let crumb = 0x6_0000u64;
    let flag = 0x6_1000u64;
    let mut a0 = Assembler::new(0);
    a0.tbegin(TbeginParams::new());
    a0.jnz("out");
    a0.lghi(R1, 0xAB);
    a0.ntstg(R1, MemOperand::absolute(crumb));
    a0.delay(3_000); // hold the transaction open
    a0.tabort(257);
    a0.label("out");
    a0.lghi(R2, 1);
    a0.stg(R2, MemOperand::absolute(flag)); // signal completion
    a0.halt();
    let p0 = a0.assemble().unwrap();

    // CPU 1 samples the crumb while CPU 0's transaction is open.
    let mut a1 = Assembler::new(0x1000);
    a1.delay(1_500);
    a1.lg(R5, MemOperand::absolute(crumb)); // mid-transaction sample
    a1.label("wait");
    a1.lg(R6, MemOperand::absolute(flag));
    a1.cghi(R6, 1);
    a1.jnz("wait");
    a1.lg(R7, MemOperand::absolute(crumb)); // post-abort sample
    a1.halt();
    let p1 = a1.assemble().unwrap();

    let mut cfg = SystemConfig::with_cpus(2);
    cfg.prefetch_probability = 0.0;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p0);
    sys.load_program(1, &p1);
    sys.run_until_halt(10_000_000);
    assert_eq!(sys.core(1).gr(R5), 0, "NTSTG invisible while tx pending");
    assert_eq!(
        sys.core(1).gr(R7),
        0xAB,
        "NTSTG committed despite the abort"
    );
}

#[test]
fn constrained_retry_resumes_at_tbeginc_with_restored_registers() {
    // A constrained transaction that conflicts retries at the TBEGINC with
    // the GRSM-covered registers restored — the increment must not be
    // applied twice even though the body re-executes.
    let var = 0x7_0000u64;
    let mut a = Assembler::new(0);
    a.lghi(R6, 200);
    a.label("loop");
    a.tbeginc(GrSaveMask::ALL);
    a.lg(R2, MemOperand::absolute(var));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(var));
    a.tend();
    a.brctg(R6, "loop");
    a.halt();
    let p = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(5));
    sys.load_program_all(&p);
    sys.run_until_halt(100_000_000);
    assert_eq!(sys.mem().load_u64(Address::new(var)), 5 * 200);
}

#[test]
fn nested_transactions_commit_only_at_outermost_tend() {
    let var = 0x7_1000u64;
    let witness = 0x7_2000u64;
    // CPU 0: outer tx stores, inner tx stores, inner TEND, then spins until
    // CPU 1 confirms it still sees nothing, then outer TEND.
    let mut a0 = Assembler::new(0);
    a0.tbegin(TbeginParams::new());
    a0.jnz("done0");
    a0.lghi(R1, 1);
    a0.stg(R1, MemOperand::absolute(var));
    a0.tbegin(TbeginParams::new());
    a0.jnz("done0");
    a0.lghi(R1, 2);
    a0.stg(R1, MemOperand::absolute(var + 8));
    a0.tend(); // inner: nothing becomes visible yet
    a0.delay(3_000);
    a0.tend(); // outermost: both stores commit
    a0.label("done0");
    a0.halt();
    let p0 = a0.assemble().unwrap();

    // CPU 1 samples var+8 after the inner TEND but before the outer one.
    let mut a1 = Assembler::new(0x1000);
    a1.delay(1_500);
    a1.lg(R5, MemOperand::absolute(var + 8));
    a1.stg(R5, MemOperand::absolute(witness));
    a1.halt();
    let p1 = a1.assemble().unwrap();

    let mut cfg = SystemConfig::with_cpus(2);
    cfg.prefetch_probability = 0.0;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p0);
    sys.load_program(1, &p1);
    sys.run_until_halt(10_000_000);
    // CPU 1's probe conflicts with the still-open outer transaction: either
    // the probe aborted CPU 0 (then nothing committed) or CPU 0 stiff-armed
    // through and committed both stores after the probe saw 0.
    let committed = sys.tx_stats(0).commits > 0;
    assert_eq!(
        sys.mem().load_u64(Address::new(0x7_2000)),
        0,
        "inner TEND must not publish stores"
    );
    if committed {
        assert_eq!(sys.mem().load_u64(Address::new(var)), 1);
        assert_eq!(sys.mem().load_u64(Address::new(var + 8)), 2);
    } else {
        assert_eq!(sys.mem().load_u64(Address::new(var)), 0);
        assert_eq!(sys.mem().load_u64(Address::new(var + 8)), 0);
    }
}

#[test]
fn instruction_fetch_faults_are_never_filtered() {
    // §II.C: "Exceptions related to instruction fetching are never
    // filtered" — otherwise a page fault on an instruction page used only
    // transactionally would never be resolved. Evict the program's text
    // page: even at PIFC 2 the OS must see the fault, page it in, and the
    // transaction must eventually commit.
    let var = 0xE_0000u64;
    let mut a = Assembler::new(0); // text occupies page 0
    a.label("retry");
    let params = TbeginParams {
        pifc: ztm::core::Pifc::DataAndAccess, // maximum filtering
        ..TbeginParams::new()
    };
    a.tbegin(params);
    a.jnz("aborted");
    a.lghi(R1, 7);
    a.stg(R1, MemOperand::absolute(var));
    a.tend();
    a.halt();
    a.label("aborted");
    a.j("retry");
    let p = a.assemble().unwrap();

    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.load_program(0, &p);
    // Let execution reach the middle of the transaction, then evict the
    // text page so the next instruction fetch faults inside the tx.
    for _ in 0..3 {
        sys.step_one();
    }
    sys.pages_mut().evict(Address::new(0).page());
    sys.run_until_halt(1_000_000);
    assert_eq!(sys.mem().load_u64(Address::new(var)), 7, "committed");
    assert!(
        sys.tx_stats(0).os_interruptions >= 1,
        "the ifetch fault reached the OS despite PIFC 2"
    );
    assert!(sys.pages_mut().is_resident(Address::new(0).page()));
}

#[test]
fn page_fault_filtering_controls_os_visibility() {
    // PIFC 2 filters the fault (no OS page-in: the page stays out and the
    // handler sees CC 3); PIFC 0 presents it (OS pages in, retry succeeds).
    let data = 0x9_0000u64;
    let build = |pifc| {
        let mut a = Assembler::new(0);
        let params = TbeginParams {
            pifc,
            ..TbeginParams::new()
        };
        a.lghi(R7, 3); // bounded retries
        a.label("retry");
        a.tbegin(params);
        a.jnz("aborted");
        a.lg(R1, MemOperand::absolute(data));
        a.tend();
        a.halt();
        a.label("aborted");
        a.brctg(R7, "retry");
        a.halt();
        a.assemble().unwrap()
    };

    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.pages_mut().evict(Address::new(data).page());
    sys.load_program(0, &build(ztm::core::Pifc::DataAndAccess));
    sys.run_until_halt(1_000_000);
    assert!(!sys.pages_mut().is_resident(Address::new(data).page()));
    assert_eq!(sys.tx_stats(0).commits, 0, "filtered fault loops forever");
    assert_eq!(sys.tx_stats(0).filtered_exceptions, 3);

    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.mem_mut().store_u64(Address::new(data), 0x5555);
    sys.pages_mut().evict(Address::new(data).page());
    sys.load_program(0, &build(ztm::core::Pifc::None));
    sys.run_until_halt(1_000_000);
    assert_eq!(sys.core(0).gr(R1), 0x5555, "OS serviced the fault");
    assert_eq!(sys.tx_stats(0).os_interruptions, 1);
}
