//! Transactional debugging features (§II.E): the Transaction Diagnostic
//! Block, NTSTG breadcrumbs, and diagnostic-control forced aborts.
//!
//! A transaction conflicts with another CPU; the abort handler inspects the
//! TDB (abort code, conflict token, registers at abort) and the NTSTG
//! breadcrumbs that survived the rollback — exactly the post-mortem
//! workflow the paper designed for enterprise software.
//!
//! ```sh
//! cargo run --release --example tdb_debugging
//! ```

use ztm::core::{TbeginParams, Tdb};
use ztm::isa::{gr::*, Assembler, MemOperand};
use ztm::mem::Address;
use ztm::sim::{System, SystemConfig};

const SHARED: u64 = 0x5_0000;
const TDB_ADDR: u64 = 0x8_0000;
const CRUMBS: u64 = 0x9_0000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // CPU 0: a transaction that reads SHARED, drops a breadcrumb for each
    // phase it reaches, then spins inside the transaction until CPU 1's
    // store conflicts and aborts it.
    let mut a0 = Assembler::new(0);
    let params = TbeginParams {
        tdb: Some(Address::new(TDB_ADDR)),
        ..TbeginParams::new()
    };
    a0.tbegin(params);
    a0.jnz("aborted");
    a0.lghi(R1, 1);
    a0.ntstg(R1, MemOperand::absolute(CRUMBS)); // phase 1 reached
    a0.lg(R2, MemOperand::absolute(SHARED)); // join the read set
    a0.lghi(R1, 2);
    a0.ntstg(R1, MemOperand::absolute(CRUMBS + 8)); // phase 2 reached
    a0.label("spin"); // hold the transaction open
    a0.lg(R3, MemOperand::absolute(SHARED));
    a0.cghi(R3, 0);
    a0.jz("spin");
    a0.tend();
    a0.halt();
    a0.label("aborted");
    a0.halt();
    let p0 = a0.assemble()?;

    // CPU 1: wait, then store to SHARED (a plain, non-transactional store —
    // strong atomicity makes it conflict with CPU 0's read set).
    let mut a1 = Assembler::new(0x1000);
    a1.delay(3_000);
    a1.lghi(R1, 42);
    a1.stg(R1, MemOperand::absolute(SHARED));
    a1.halt();
    let p1 = a1.assemble()?;

    let mut cfg = SystemConfig::with_cpus(2);
    cfg.prefetch_probability = 0.0;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p0);
    sys.load_program(1, &p1);
    sys.run_until_halt(10_000_000);

    // Post-mortem: decode the TDB the abort stored.
    let tdb = Tdb::load_from(sys.mem(), Address::new(TDB_ADDR));
    println!("Transaction Diagnostic Block after the abort:");
    println!(
        "  abort code        : {} (9 = fetch conflict)",
        tdb.abort_code()
    );
    println!(
        "  conflict token    : {:#x?} (the line CPU 1 stored to)",
        tdb.conflict_token()
    );
    println!("  abort count       : {}", tdb.abort_count());
    println!("  GR2 at abort      : {:#x}", tdb.gr(2));
    println!();
    println!("NTSTG breadcrumbs that survived the rollback:");
    println!(
        "  phase-1 crumb = {}, phase-2 crumb = {}",
        sys.mem().load_u64(Address::new(CRUMBS)),
        sys.mem().load_u64(Address::new(CRUMBS + 8)),
    );
    assert_eq!(tdb.abort_code(), 9);
    assert_eq!(
        tdb.conflict_token(),
        Some(Address::new(SHARED).line().base().raw())
    );
    assert_eq!(sys.mem().load_u64(Address::new(CRUMBS)), 1);
    assert_eq!(sys.mem().load_u64(Address::new(CRUMBS + 8)), 2);
    println!();
    println!("The breadcrumbs show the program reached phase 2 before the");
    println!("conflict — while every transactional store was rolled back.");
    Ok(())
}
