use super::*;
use crate::SystemConfig;
use ztm_core::TbeginParams;
use ztm_isa::{gr::*, Assembler, CpuState, HaltReason, MemOperand};

/// Each CPU transactionally increments a shared counter `n` times,
/// retrying forever on abort. Total must be exactly `cpus * n`.
fn tx_increment_program(var: u64, n: i64) -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, n); // iterations
    a.lghi(R0, 0); // abort count for PPA
    a.label("loop");
    a.tbegin(TbeginParams::new());
    a.jnz("aborted");
    a.lg(R2, MemOperand::absolute(var));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(var));
    a.tend();
    a.lghi(R0, 0);
    a.brctg(R6, "loop");
    a.halt();
    a.label("aborted");
    a.aghi(R0, 1);
    a.ppa(R0);
    a.j("loop");
    a.assemble().unwrap()
}

#[test]
fn transactional_atomicity_across_cpus() {
    let var = 0x10_000u64;
    let mut sys = System::new(SystemConfig::with_cpus(4));
    let prog = tx_increment_program(var, 50);
    sys.load_program_all(&prog);
    sys.run_until_halt(3_000_000);
    assert_eq!(
        sys.mem().load_u64(Address::new(var)),
        4 * 50,
        "no increment lost or duplicated despite conflicts"
    );
    let r = sys.report();
    assert_eq!(r.tx.commits, 4 * 50);
    // Contention is resolved by stiff-arming (stalls) and, rarely,
    // aborts; either way there must be evidence of conflicts.
    assert!(
        r.stalls + r.tx.aborts > 0,
        "contention must cause stalls or aborts"
    );
}

#[test]
fn cas_lock_mutual_exclusion() {
    // Classic test-and-CAS spinlock protecting an increment.
    let lock = 0x20_000u64;
    let var = 0x20_100u64;
    let mut a = Assembler::new(0);
    a.lghi(R6, 30);
    a.label("loop");
    a.lghi(R3, 0);
    a.lghi(R4, 1);
    a.label("acquire");
    a.ltg(R1, MemOperand::absolute(lock));
    a.jnz("acquire"); // spin while held
    a.lgr(R5, R3);
    a.csg(R5, R4, MemOperand::absolute(lock));
    a.jnz("acquire");
    a.lg(R2, MemOperand::absolute(var));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(var));
    a.lghi(R7, 0);
    a.stg(R7, MemOperand::absolute(lock));
    a.brctg(R6, "loop");
    a.halt();
    let prog = a.assemble().unwrap();

    let mut sys = System::new(SystemConfig::with_cpus(3));
    sys.load_program_all(&prog);
    sys.run_until_halt(3_000_000);
    assert_eq!(sys.mem().load_u64(Address::new(var)), 3 * 30);
}

#[test]
fn constrained_transactions_make_forward_progress() {
    // Adversarial: every CPU hammers the same two lines constrained.
    let var = 0x30_000u64;
    let mut a = Assembler::new(0);
    a.lghi(R6, 25);
    a.label("loop");
    a.tbeginc(ztm_core::GrSaveMask::ALL);
    a.lg(R2, MemOperand::absolute(var));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(var));
    a.tend();
    a.brctg(R6, "loop");
    a.halt();
    let prog = a.assemble().unwrap();

    let mut sys = System::new(SystemConfig::with_cpus(6));
    sys.load_program_all(&prog);
    sys.run_until_halt(8_000_000);
    assert_eq!(
        sys.mem().load_u64(Address::new(var)),
        6 * 25,
        "constrained transactions eventually succeed (§II.D)"
    );
}

#[test]
fn read_sharing_causes_no_aborts() {
    let var = 0x40_000u64;
    let mut a = Assembler::new(0);
    a.lghi(R6, 100);
    a.label("loop");
    a.tbegin(TbeginParams::new());
    a.jnz("aborted");
    a.lg(R2, MemOperand::absolute(var));
    a.tend();
    a.brctg(R6, "loop");
    a.halt();
    a.label("aborted");
    a.j("loop");
    let prog = a.assemble().unwrap();

    let mut cfg = SystemConfig::with_cpus(8);
    cfg.speculative_prefetch = false; // pure read-sharing
    let mut sys = System::new(cfg);
    sys.load_program_all(&prog);
    sys.run_until_halt(3_000_000);
    let r = sys.report();
    assert_eq!(r.tx.commits, 8 * 100);
    assert_eq!(r.tx.aborts, 0, "read-read sharing never conflicts");
}

#[test]
fn stiff_arm_rejects_appear_under_contention() {
    let var = 0x50_000u64;
    let mut sys = System::new(SystemConfig::with_cpus(8));
    let prog = tx_increment_program(var, 40);
    sys.load_program_all(&prog);
    sys.run_until_halt(8_000_000);
    let r = sys.report();
    assert!(r.stalls > 0, "XI rejects must stall requesters");
    assert_eq!(sys.mem().load_u64(Address::new(var)), 8 * 40);
}

#[test]
fn timer_interruption_aborts_transactions() {
    let var = 0x60_000u64;
    let mut cfg = SystemConfig::with_cpus(1);
    cfg.timer_interval = Some(2_000);
    let mut sys = System::new(cfg);
    let prog = tx_increment_program(var, 200);
    sys.load_program_all(&prog);
    sys.run_until_halt(3_000_000);
    let r = sys.report();
    assert_eq!(sys.mem().load_u64(Address::new(var)), 200);
    assert!(
        r.tx.aborts_by_code.contains_key(&2),
        "some aborts from async interruptions: {:?}",
        r.tx.aborts_by_code
    );
}

/// An adversarial constrained kernel on 10 CPUs: half update the two
/// lines at `var` and `var + 256` in one order, half in the other —
/// cross-holding deadlocks force RejectHang aborts, escalating to
/// broadcast-stop.
fn broadcast_stop_system(var: u64) -> System {
    let build = |first: u64, second: u64| {
        let mut a = Assembler::new(0);
        a.lghi(R6, 30);
        a.label("loop");
        a.tbeginc(ztm_core::GrSaveMask::ALL);
        a.lg(R2, MemOperand::absolute(first));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(first));
        a.lg(R3, MemOperand::absolute(second));
        a.aghi(R3, 1);
        a.stg(R3, MemOperand::absolute(second));
        a.tend();
        a.brctg(R6, "loop");
        a.halt();
        a.assemble().unwrap()
    };
    let fwd = build(var, var + 256);
    let rev = build(var + 256, var);
    let mut cfg = SystemConfig::with_cpus(10);
    // Make the ladder escalate quickly.
    cfg.engine.retry_ladder.broadcast_stop_after = 2;
    let mut sys = System::new(cfg);
    for i in 0..10 {
        sys.load_program(i, if i % 2 == 0 { &fwd } else { &rev });
    }
    sys
}

#[test]
fn broadcast_stop_quiesces_and_resynchronizes_clocks() {
    let var = 0xE0_000u64;
    let mut sys = broadcast_stop_system(var);
    sys.run_until_halt(80_000_000);
    assert_eq!(sys.mem().load_u64(Address::new(var)), 10 * 30);
    assert_eq!(sys.mem().load_u64(Address::new(var + 256)), 10 * 30);
    let r = sys.report();
    assert!(
        r.tx.broadcast_stops > 0,
        "the last-resort quiesce must have fired"
    );
}

/// The pick the winner tree replaces: a linear scan of the cores for the
/// smallest `(clock, cpu)` over running CPUs with a program.
fn linear_pick(sys: &System) -> u64 {
    (0..sys.cpus())
        .filter(|&i| sys.cores[i].is_running() && sys.programs[i].is_some())
        .map(|i| pack_entry(sys.cores[i].clock, i))
        .min()
        .unwrap_or(WinnerTree::IDLE)
}

/// Runs `step_one` to halt, calling `poke` before every step. Each step
/// first checks that the winner tree's root equals [`linear_pick`] and
/// that `step_one` then steps that CPU, or the running quiesce holder.
/// Returns the steps executed and how many ran under a quiesce.
fn step_checking_the_tree(
    sys: &mut System,
    max_steps: u64,
    mut poke: impl FnMut(&mut System, u64),
) -> (u64, u64) {
    let mut quiesced = 0;
    for n in 0..max_steps {
        poke(sys, n);
        if sys.sched_stale {
            sys.rebuild_sched();
        }
        let want = linear_pick(sys);
        assert_eq!(sys.sched.min(), want, "winner tree root before step {n}");
        let holder = sys.quiesce.filter(|&h| sys.cores[h].is_running());
        quiesced += u64::from(holder.is_some());
        match sys.step_one() {
            None => {
                assert_eq!(want, WinnerTree::IDLE, "step {n}: runnable CPUs left");
                return (n, quiesced);
            }
            Some((cpu, _)) => {
                let expected = holder.unwrap_or_else(|| unpack_entry(want).1);
                assert_eq!(cpu, expected, "CPU picked at step {n}");
            }
        }
    }
    panic!("system did not halt within {max_steps} steps");
}

#[test]
fn winner_tree_tracks_a_linear_scan_under_contention() {
    let var = 0xC0_000u64;
    let mut sys = System::new(SystemConfig::with_cpus(7));
    sys.load_program_all(&tx_increment_program(var, 25));
    let (steps, _) = step_checking_the_tree(&mut sys, 10_000_000, |_, _| {});
    assert!(steps > 0);
    assert_eq!(sys.mem().load_u64(Address::new(var)), 7 * 25);
    let r = sys.report();
    assert!(r.stalls + r.tx.aborts > 0, "the run must be contended");
}

#[test]
fn winner_tree_tracks_a_linear_scan_through_broadcast_stops() {
    let var = 0xE0_000u64;
    let mut sys = broadcast_stop_system(var);
    let (_, quiesced) = step_checking_the_tree(&mut sys, 80_000_000, |_, _| {});
    assert!(sys.report().tx.broadcast_stops > 0);
    assert!(quiesced > 0, "some steps must run under the quiesce");
    assert_eq!(sys.mem().load_u64(Address::new(var)), 10 * 30);
}

#[test]
fn winner_tree_tracks_a_linear_scan_across_sharded_rounds() {
    // 12 CPUs = two chips, so `set_sim_threads(2)` routes `step_many`
    // through the round planner. Its steps go through `run_batch`, which
    // must leave every leaf current at each chunk boundary.
    let var = 0xA8_000u64;
    let mut sys = System::new(SystemConfig::with_cpus(12));
    sys.set_sim_threads(2);
    sys.load_program_all(&tx_increment_program(var, 200));
    for (n, chunk) in [1u64, 7, 3, 64, 2]
        .into_iter()
        .cycle()
        .take(400)
        .enumerate()
    {
        assert!(sys.step_many(chunk) > 0, "chunk {n}: the run ended early");
        assert_eq!(sys.sched.min(), linear_pick(&sys), "after chunk {n}");
    }
    assert!(sys.report().sharding.rounds > 0, "no round ran");
    // `step_one` takes the serial scheduler from here, checking each pick.
    step_checking_the_tree(&mut sys, 10_000_000, |_, _| {});
    assert_eq!(sys.mem().load_u64(Address::new(var)), 12 * 200);
}

#[test]
fn winner_tree_tracks_a_linear_scan_across_clock_pokes_and_halts() {
    // Plain (non-transactional) increments of one shared counter: the
    // line ping-pongs between CPUs, and halting a CPU mid-run strands
    // no transaction or lock.
    let var = 0xB0_000u64;
    let mut a = Assembler::new(0);
    a.lghi(R6, 200);
    a.label("loop");
    a.lg(R2, MemOperand::absolute(var));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(var));
    a.brctg(R6, "loop");
    a.halt();
    let prog = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(5));
    sys.load_program_all(&prog);
    let mut pokes = 0;
    step_checking_the_tree(&mut sys, 1_000_000, |sys, n| {
        match n {
            // Halt CPU 3, then CPU 0, while they still run.
            500 | 900 => {
                let cpu = if n == 500 { 3 } else { 0 };
                assert!(sys.core(cpu).is_running());
                sys.core_mut(cpu).state = CpuState::Halted(HaltReason::Completed);
            }
            // Move a clock forward or back, both past and behind peers.
            _ if n % 41 == 0 => {
                let cpu = (n / 41) as usize % 5;
                let clock = sys.core(cpu).clock;
                sys.core_mut(cpu).clock = if n % 2 == 0 {
                    clock + 300
                } else {
                    clock.saturating_sub(150)
                };
                pokes += 1;
            }
            _ => {}
        }
    });
    assert!(pokes > 10);
    assert!(!sys.any_running());
}

#[test]
fn run_for_cycles_stops_at_the_horizon() {
    let var = 0xD0_000u64;
    let mut sys = System::new(SystemConfig::with_cpus(2));
    let prog = tx_increment_program(var, 1_000_000); // effectively endless
    sys.load_program_all(&prog);
    sys.run_for_cycles(5_000);
    let r = sys.report();
    assert!(r.elapsed_cycles >= 5_000);
    assert!(r.elapsed_cycles < 20_000, "stops near the horizon");
    assert!(sys.any_running());
    // Resuming continues cleanly.
    sys.run_for_cycles(10_000);
    assert!(sys.report().elapsed_cycles >= 10_000);
}

#[test]
fn io_store_aborts_conflicting_transaction() {
    // §II.A: "the transaction cannot observe changes made by other CPUs
    // or the I/O subsystem" — an I/O store to a tx-read line aborts the
    // transaction, and the target cannot stiff-arm the channel.
    let var = 0xC0_000u64;
    let mut a = Assembler::new(0);
    a.tbegin(TbeginParams::new());
    a.jnz("aborted");
    a.lg(R2, MemOperand::absolute(var));
    a.label("spin");
    a.lg(R3, MemOperand::absolute(var));
    a.cghi(R3, 0);
    a.jz("spin");
    a.tend();
    a.halt();
    a.label("aborted");
    a.lghi(R9, 1);
    a.halt();
    let p = a.assemble().unwrap();
    let mut cfg = SystemConfig::with_cpus(1);
    cfg.speculative_prefetch = false;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p);
    for _ in 0..8 {
        sys.step_one();
    }
    sys.io_store(Address::new(var), 0xD1A0);
    sys.run_until_halt(100_000);
    assert_eq!(sys.core(0).gr(R9), 1, "transaction aborted by I/O");
    assert_eq!(sys.mem().load_u64(Address::new(var)), 0xD1A0);
    // The abort is a plain fetch conflict (code 9) with no CPU id.
    assert_eq!(sys.tx_stats(0).aborts_by_code.get(&9), Some(&1));
}

#[test]
fn io_store_to_uncached_line_is_plain() {
    let mut sys = System::new(SystemConfig::with_cpus(2));
    sys.io_store(Address::new(0x123450), 7);
    assert_eq!(sys.mem().load_u64(Address::new(0x123450)), 7);
    assert_eq!(sys.report().tx.aborts, 0);
}

#[test]
fn fabric_bandwidth_queueing_slows_parallel_misses() {
    // Two CPUs streaming disjoint misses: with a huge per-transfer
    // occupancy the shared channel serializes them.
    let prog = |base: u64| {
        let mut a = Assembler::new(0);
        a.lghi(R6, 50);
        a.lghi(R5, base as i64);
        a.label("stream");
        a.lg(R1, MemOperand::based(R5, 0));
        a.aghi(R5, 256);
        a.brctg(R6, "stream");
        a.halt();
        a.assemble().unwrap()
    };
    let run = |occupancy: u64| {
        let mut cfg = SystemConfig::with_cpus(2);
        cfg.fabric_occupancy = occupancy;
        let mut sys = System::new(cfg);
        sys.load_program(0, &prog(0x100_0000));
        sys.load_program(1, &prog(0x200_0000));
        sys.run_until_halt(100_000);
        sys.report().elapsed_cycles
    };
    let free = run(0);
    let contended = run(2_000);
    // 100 transfers × 2000 cycles of channel time ≈ 200k cycles lower
    // bound when serialized.
    assert!(
        contended > free + 100_000,
        "queueing must dominate: {free} vs {contended}"
    );
}

#[test]
fn tracing_records_disassembled_steps() {
    let mut a = Assembler::new(0);
    a.lghi(R1, 5);
    a.tbegin(TbeginParams::new());
    a.jnz("out");
    a.tend();
    a.label("out");
    a.halt();
    let p = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(2));
    sys.load_program_all(&p);
    sys.set_trace(0, true); // only CPU 0
    sys.run_until_halt(1_000);
    let records: Vec<_> = sys.trace().collect();
    assert!(records.iter().all(|r| r.cpu == 0));
    assert!(records.iter().any(|r| r.text.starts_with("TBEGIN")));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, StepEvent::Committed)));
    let listing = sys.trace_listing();
    assert!(listing.contains("LGHI    r1,5"));
}

#[test]
fn event_tracer_captures_a_contended_run() {
    let var = 0x88_000u64;
    let (tracer, recorder) = Tracer::recording(1 << 16);
    let mut sys = System::new(SystemConfig::with_cpus(4));
    sys.set_tracer(tracer);
    let prog = tx_increment_program(var, 20);
    sys.load_program_all(&prog);
    sys.run_until_halt(3_000_000);

    let rec = recorder.lock().unwrap();
    assert_eq!(rec.dropped(), 0, "ring must be large enough for the run");
    let m = rec.metrics();
    let report = sys.report();
    assert_eq!(m.tx_commits, report.tx.commits);
    assert_eq!(m.tx_aborts, report.tx.aborts);
    assert_eq!(
        m.xi_issued.iter().sum::<u64>(),
        report.xi_counts.iter().sum::<u64>()
    );
    assert!(m.accesses.iter().sum::<u64>() > 0 && m.store_new > 0);
    // The recorded stream must satisfy every trace invariant.
    let events = rec.snapshot();
    if let Err(violations) = ztm_trace::check_invariants(&events) {
        panic!("invariant violations: {violations:#?}");
    }
}

#[test]
fn l3_capacity_eviction_aborts_transactions() {
    // Shrink the shared L3 to 4 lines. CPU 0 opens a transaction over
    // one line and spins; CPU 1 (same chip) streams through enough
    // lines to evict CPU 0's footprint from the L3 — the resulting LRU
    // XI must abort CPU 0 (§III.A "LRU XIs" as an abort cause).
    let txline = 0xA0_000u64;
    let mut a0 = Assembler::new(0);
    a0.tbegin(TbeginParams::new());
    a0.jnz("aborted");
    a0.lg(R2, MemOperand::absolute(txline));
    a0.label("spin");
    a0.lg(R3, MemOperand::absolute(txline));
    a0.cghi(R3, 0);
    a0.jz("spin");
    a0.tend();
    a0.halt();
    a0.label("aborted");
    a0.lghi(R9, 1);
    a0.halt();
    let p0 = a0.assemble().unwrap();

    let mut a1 = Assembler::new(0x1000);
    a1.delay(2_000);
    a1.lghi(R6, 32);
    a1.lghi(R5, 0xB0_000);
    a1.label("stream");
    a1.lg(R1, MemOperand::based(R5, 0));
    a1.aghi(R5, 256);
    a1.brctg(R6, "stream");
    a1.halt();
    let p1 = a1.assemble().unwrap();

    let mut cfg = SystemConfig::with_cpus(2);
    cfg.l3_geometry = Some((1, 4));
    cfg.speculative_prefetch = false;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p0);
    sys.load_program(1, &p1);
    sys.run_until_halt(1_000_000);
    assert_eq!(sys.core(0).gr(R9), 1, "transaction aborted by LRU XI");
    assert!(sys.tx_stats(0).aborts >= 1);
}

#[test]
fn full_zec12_topology_smoke() {
    // All 144 cores of the real machine, hammering a small pool.
    let var = 0x90_000u64;
    let mut cfg = SystemConfig::with_cpus(1);
    cfg.topology = ztm_cache::Topology::zec12(144);
    let mut sys = System::new(cfg);
    let prog = tx_increment_program(var, 5);
    sys.load_program_all(&prog);
    sys.run_until_halt(80_000_000);
    assert_eq!(sys.mem().load_u64(Address::new(var)), 144 * 5);
}

#[test]
fn non_tx_store_conflicts_with_tx_reader() {
    // Strong atomicity (§II.A): CPU 1's plain store aborts CPU 0's
    // transaction that read the line.
    let var = 0x70_000u64;
    // CPU 0: long transaction reading var then spinning on a flag.
    let mut a0 = Assembler::new(0);
    a0.tbegin(TbeginParams::new());
    a0.jnz("aborted");
    a0.lg(R2, MemOperand::absolute(var));
    a0.label("wait"); // poll a flag inside the tx until aborted
    a0.lg(R3, MemOperand::absolute(var + 8));
    a0.cghi(R3, 0);
    a0.jz("wait");
    a0.tend();
    a0.halt();
    a0.label("aborted");
    a0.lghi(R9, 1);
    a0.halt();
    let p0 = a0.assemble().unwrap();
    // CPU 1: wait a bit, then store to var (plain store).
    let mut a1 = Assembler::new(0x1000);
    a1.lghi(R6, 50);
    a1.label("delay");
    a1.brctg(R6, "delay");
    a1.lghi(R1, 99);
    a1.stg(R1, MemOperand::absolute(var));
    a1.halt();
    let p1 = a1.assemble().unwrap();

    let mut cfg = SystemConfig::with_cpus(2);
    cfg.speculative_prefetch = false;
    let mut sys = System::new(cfg);
    sys.load_program(0, &p0);
    sys.load_program(1, &p1);
    sys.run_until_halt(1_000_000);
    assert_eq!(sys.core(0).gr(R9), 1, "reader transaction aborted");
    assert_eq!(sys.mem().load_u64(Address::new(var)), 99);
    let r = sys.report();
    assert!(r.tx.aborts >= 1);
}
