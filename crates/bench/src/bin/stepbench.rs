//! Simulator-speed brackets: ns/step for the interpreter, the memory
//! system, and the scheduler in isolation. Not part of the figure set —
//! this is the attribution tool behind DESIGN.md's "Interpreter dispatch"
//! numbers. Run several times and take the minimum per bracket; shared
//! hosts jitter by double-digit percentages.
//!
//! Brackets, cheapest first: a pure ALU loop (interpreter floor), a
//! same-line spin (repeat-access fast path), rotating-line loads (L1-hit
//! directory walk), a 36-CPU CAS handoff (XI storm), and the two fig 5(e)
//! hashtable shapes (the real mix).

use std::time::Instant;
use ztm_isa::{gr::*, Assembler, MemOperand};
use ztm_mem::Address;
use ztm_sim::{System, SystemConfig};
use ztm_stm::Stm;
use ztm_trace::{Recorder, Tracer};
use ztm_workloads::hashtable::{HashTable, TableMethod};

fn spin_prog() -> ztm_isa::Program {
    // The GlobalLock spin shape: load, compare-branch, delay, branch.
    let mut a = Assembler::new(0);
    a.lghi(R6, 1_000_000_000);
    a.label("loop");
    a.ltg(R1, MemOperand::absolute(0xF000));
    a.jnz("loop");
    a.delay(24);
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().unwrap()
}

fn alu_prog() -> ztm_isa::Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 1_000_000_000);
    a.label("loop");
    a.aghi(R2, 1);
    a.aghi(R2, 1);
    a.aghi(R2, 1);
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().unwrap()
}

/// Eight loads at different offsets of ONE line — the struct-walk shape the
/// line-window coalescing targets (every load after the first can skip the
/// directory walk).
fn burst_prog() -> ztm_isa::Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 1_000_000_000);
    a.label("loop");
    for k in 0..8 {
        a.lg(R1, MemOperand::absolute(0x10_000 + k * 8));
    }
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().unwrap()
}

/// Eight loads rotating across eight different lines — every access lands
/// on a different line than its predecessor, so the line window always
/// misses and the full (L1-hit) directory walk runs each time.
fn rotating_prog() -> ztm_isa::Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 1_000_000_000);
    a.label("loop");
    for k in 0..8 {
        a.lg(R1, MemOperand::absolute(0x10_000 + k * 256));
    }
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().unwrap()
}

fn time_steps(sys: &mut System, n: u64, label: &str) {
    // Warm caches first.
    sys.step_many(100_000);
    let t = Instant::now();
    let mut left = n;
    while left > 0 {
        let took = sys.step_many(left);
        if took == 0 {
            break;
        }
        left -= took;
    }
    let el = t.elapsed().as_secs_f64();
    // Report against the steps that actually executed: a program that halts
    // early would otherwise divide the elapsed time by the *requested* count
    // and print a falsely fast ns/step.
    let done = n - left;
    if done == 0 {
        println!("{label:<28} WARNING: system halted before any timed step");
        return;
    }
    let short = if done < n {
        format!(" WARNING: halted after {done} of {n} steps")
    } else {
        String::new()
    };
    println!(
        "{label:<28} {done} steps in {el:.3}s = {:.1} ns/step ({:.1}M steps/s){short}",
        el / done as f64 * 1e9,
        done as f64 / el / 1e6
    );
}

/// The sharded-driver bracket (5e below), also runnable on its own via
/// `ZTM_STEPBENCH_ONLY_SHARDED=1` so CI can track the sharded ns/step
/// without paying for the whole attribution grid.
fn sharded_bracket(n: u64) {
    for (label, threads) in [
        ("fig5e elision 36cpu serial", 1usize),
        ("fig5e elision 36cpu 2t", 2),
    ] {
        let table = HashTable::new(256, 1024, 20, TableMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
        sys.set_sim_threads(threads);
        table.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
        let prog = table.program(1_000_000);
        sys.load_program_all(&prog);
        for i in 0..sys.cpus() {
            let arena = 0x2000_0000u64 + i as u64 * 0x10_0000;
            sys.core_mut(i).set_gr(R7, arena);
        }
        time_steps(&mut sys, n, label);
        let s = sys.report().sharding;
        if s.rounds > 0 {
            println!(
                "{:<28} rounds={} mean_round={:.1} chain_max={}",
                "",
                s.rounds,
                s.mean_round_steps(),
                s.chain_max
            );
        }
    }
}

fn main() {
    let n = 4_000_000u64;

    if ztm_sim::env_flag("ZTM_STEPBENCH_ONLY_SHARDED") {
        sharded_bracket(n);
        return;
    }

    // 1. Bare spin, one CPU: interpreter + memory path, trivial scheduler.
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    sys.load_program(0, &spin_prog());
    time_steps(&mut sys, n, "spin 1cpu");

    // 2. Bare spin, 36 CPUs all spinning on the same (read-shared) line.
    let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
    sys.load_program_all(&spin_prog());
    time_steps(&mut sys, n, "spin 36cpu");

    // 3. Pure ALU loop, one CPU: interpreter only, no data accesses.
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    sys.load_program(0, &alu_prog());
    time_steps(&mut sys, n, "alu 1cpu");

    // 4. ALU loop, 36 CPUs: adds scheduler pressure, still no data.
    let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
    sys.load_program_all(&alu_prog());
    time_steps(&mut sys, n, "alu 36cpu");

    // 4a. Same ALU loop through the width-3 issue window: the scoreboard's
    // host overhead on the cheapest possible bracket.
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    sys.set_issue_width(3);
    sys.load_program(0, &alu_prog());
    time_steps(&mut sys, n, "alu 1cpu w3");

    // 4b. Varied-line loads, one CPU: L1 hits on rotating lines (hot-miss
    // row scans), no coherence traffic.
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    sys.load_program(0, &rotating_prog());
    time_steps(&mut sys, n, "varied loads 1cpu");

    // 4c. Lock handoff: every CPU csg/stg's one line — XI storm.
    let mut a = Assembler::new(0);
    a.lghi(R6, 1_000_000_000);
    a.label("loop");
    a.lghi(R2, 0);
    a.lghi(R3, 1);
    a.csg(R2, R3, MemOperand::absolute(0xF000));
    a.lghi(R2, 0);
    a.stg(R2, MemOperand::absolute(0xF000));
    a.brctg(R6, "loop");
    a.halt();
    let p = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
    sys.load_program_all(&p);
    time_steps(&mut sys, n, "lock handoff 36cpu");

    // 5. The real fig5e point shape.
    let table = HashTable::new(256, 1024, 20, TableMethod::GlobalLock);
    let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
    table.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    let prog = table.program(1_000_000);
    sys.load_program_all(&prog);
    for i in 0..sys.cpus() {
        let arena = 0x2000_0000u64 + i as u64 * 0x10_0000;
        sys.core_mut(i).set_gr(R7, arena);
    }
    time_steps(&mut sys, n, "fig5e lock 36cpu");

    // The elision shape per tracing tier: untraced, the digest-only sink,
    // and a full recorder. This is the "what does tracing cost on the real
    // mix" attribution behind the digest-only export path.
    for sink in ["untraced", "digest", "recorder"] {
        let table = HashTable::new(256, 1024, 20, TableMethod::Elision);
        let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
        match sink {
            "digest" => {
                let (tracer, _sink) = Tracer::digest_only();
                sys.set_tracer(tracer);
            }
            "recorder" => {
                let (tracer, _rec) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
                sys.set_tracer(tracer);
            }
            _ => {}
        }
        table.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
        let prog = table.program(1_000_000);
        sys.load_program_all(&prog);
        for i in 0..sys.cpus() {
            let arena = 0x2000_0000u64 + i as u64 * 0x10_0000;
            sys.core_mut(i).set_gr(R7, arena);
        }
        time_steps(&mut sys, n, &format!("fig5e elision 36cpu {sink}"));
    }

    // 5b. The same elision shape through the width-3 window: what the
    // pipelined mode costs on the real mix (scoreboard + drain churn).
    let table = HashTable::new(256, 1024, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
    sys.set_issue_width(3);
    table.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    let prog = table.program(1_000_000);
    sys.load_program_all(&prog);
    for i in 0..sys.cpus() {
        let arena = 0x2000_0000u64 + i as u64 * 0x10_0000;
        sys.core_mut(i).set_gr(R7, arena);
    }
    time_steps(&mut sys, n, "fig5e elision 36cpu w3");

    // 5c. STM instrumentation cost. The same two-read/two-write op as a
    // raw load/store loop and wrapped in a TL2 software transaction
    // (stripe arithmetic, read-set append + post-validation, write-set
    // buffering, the commit's acquire/validate/write-back/release). The
    // ns/step gap is the *host* dispatch cost of the STM's instruction
    // mix; the instrumentation factor itself is the simulated
    // instructions-per-op ratio, visible in the two loops' step counts.
    const STM_A: u64 = 0x10_000;
    const STM_B: u64 = 0x10_100;
    let mut a = Assembler::new(0);
    a.lghi(R6, 1_000_000_000);
    a.label("loop");
    for addr in [STM_A, STM_B] {
        a.lg(R2, MemOperand::absolute(addr));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(addr));
    }
    a.brctg(R6, "loop");
    a.halt();
    let raw = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    sys.load_program(0, &raw);
    time_steps(&mut sys, n, "rmw pair raw 1cpu");

    let stm = Stm::new();
    let mut a = Assembler::new(0);
    a.lghi(R6, 1_000_000_000);
    a.label("loop");
    a.lghi(R8, STM_A as i64);
    a.lghi(R9, STM_B as i64);
    stm.emit_tx(&mut a, "op", &[], |tx| {
        tx.read(R2, R8);
        tx.asm().aghi(R2, 1);
        tx.write(R2, R8);
        tx.read(R2, R9);
        tx.asm().aghi(R2, 1);
        tx.write(R2, R9);
    });
    a.brctg(R6, "loop");
    a.halt();
    let instrumented = a.assemble().unwrap();
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    sys.load_program(0, &instrumented);
    stm.layout.install(&mut sys);
    time_steps(&mut sys, n, "rmw pair stm 1cpu");

    // 5d. The PureStm hashtable shape at 36 CPUs: the software-TM analogue
    // of the fig5e elision bracket (CSG clock traffic, stripe-lock lines,
    // real contention).
    let table = HashTable::new(256, 1024, 20, TableMethod::PureStm);
    let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
    table.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    let prog = table.program(1_000_000);
    sys.load_program_all(&prog);
    table.stm_layout().install(&mut sys);
    for i in 0..sys.cpus() {
        let arena = 0x2000_0000u64 + i as u64 * 0x10_0000;
        sys.core_mut(i).set_gr(R7, arena);
    }
    time_steps(&mut sys, n, "fig5e purestm 36cpu");

    // 5e. The sharded driver on the real mix: the same fig5e elision shape
    // stepped serially and sharded over two host threads. Both produce
    // byte-identical simulated outcomes; the ns/step spread is the
    // host-side price of round coordination on a given host core count.
    sharded_bracket(n);

    // 6. Coalescing × tracing attribution grid. Two memory shapes — the
    // same-line burst (where the line window serves 7 of 8 loads) and
    // rotating lines (where it never hits) — each with coalescing on/off
    // ("coal"/"walk") and with no tracer, the digest-only sink, and a full
    // recorder attached. The grid isolates both tentpole optimizations:
    // burst coal-vs-walk is the coalescing win, and per-sink columns show
    // what each tracing tier costs per step.
    for (shape, prog, stride) in [
        ("burst", burst_prog(), 8u64),
        ("rotate", rotating_prog(), 256),
    ] {
        for coalesce in [true, false] {
            for sink in ["untraced", "digest", "recorder"] {
                let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
                sys.set_coalescing(coalesce);
                // Struct walks read data somebody wrote: populate the lines
                // so the loads hit allocated memory, as real workloads do.
                for k in 0..8 {
                    sys.io_store(Address::new(0x10_000 + k * stride), k + 1);
                }
                match sink {
                    "digest" => {
                        let (tracer, _sink) = Tracer::digest_only();
                        sys.set_tracer(tracer);
                    }
                    "recorder" => {
                        let (tracer, _rec) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
                        sys.set_tracer(tracer);
                    }
                    _ => {}
                }
                sys.load_program(0, &prog);
                let mode = if coalesce { "coal" } else { "walk" };
                time_steps(&mut sys, n, &format!("{shape} {mode} {sink} 1cpu"));
            }
        }
    }
}
