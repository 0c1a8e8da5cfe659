//! In-order issue window: a timing overlay over the scalar interpreter.
//!
//! The zEC12 core decodes three instructions per cycle and overlaps load
//! latency inside the GRSM micro-op pipeline (§II.B); the scalar [`step`]
//! retires one instruction per scheduler step with a purely additive cost
//! model. [`step_pipelined`] keeps the *functional* execution exactly as it
//! is — one instruction fully executes per call, in program order, so TX
//! journals, store-cache gathering, and the stamp-exact directory walk see
//! the identical access sequence — and layers a compact scoreboard on top
//! that decides *when* each instruction issues:
//!
//! - up to `width` instructions issue per cycle, at most `lsu_ports` of
//!   them memory operations;
//! - an instruction issues once its source registers (and the condition
//!   code, for conditional branches) are ready; register results become
//!   ready `cycles` after issue, so an L1/L2 load miss overlaps with
//!   younger non-dependent ALU work;
//! - loads and stores never issue before an older store's completion (no
//!   forwarding model — conservative, but order-exact);
//! - a taken branch closes the current issue group (one redirect per
//!   cycle);
//! - serializing instructions (TBEGIN/TBEGINC/TEND/TABORT, CSG, PPA, ETND,
//!   clock reads, access/FP registers, privileged ops, HALT) *drain* the
//!   window: every in-flight completion lands first, then the instruction
//!   executes alone. Pending aborts drain too, so millicode always sees a
//!   quiesced pipeline.
//!
//! The core's clock advances to each instruction's *issue* cycle (the
//! scheduler therefore interleaves CPUs by issue time), while the window's
//! `horizon` tracks the latest completion; drain points and HALT push the
//! clock to the horizon, so `elapsed_cycles` is the true retire time.
//!
//! At `width == 1` every instruction takes the drain path with an empty
//! window, which reduces to `clock += cycles` — byte-identical to the
//! scalar interpreter, which the lockstep differential in
//! `tests/pipeline.rs` pins down.
//!
//! [`step`]: crate::step

use crate::asm::Program;
use crate::cpu::{step_inner, StepEvent, StepOutcome};
use crate::decoded::{DecodedInstr, Op, FLAG_OPERAND_REG, NO_REG};
use crate::machine::Machine;
use crate::reg::CpuCore;

/// Why an instruction's issue was delayed past its candidate cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// A source register was still in flight (RAW hazard).
    RegisterDep,
    /// The condition code was still in flight (conditional branch after an
    /// uncompleted CC setter).
    ConditionCode,
    /// An older store had not completed (no store forwarding).
    StoreOrder,
}

impl StallReason {
    /// Stable small-integer code used in trace events.
    pub fn code(self) -> u8 {
        match self {
            StallReason::RegisterDep => 0,
            StallReason::ConditionCode => 1,
            StallReason::StoreOrder => 2,
        }
    }
}

/// What the window observed during the last [`step_pipelined`] call, for
/// trace emission by the system (the window itself has no tracer handle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct IssueReport {
    /// An issue group closed this step; carries its size in instructions.
    pub closed_group: Option<u8>,
    /// Issue was delayed by a hazard: the reason and the cycles waited.
    pub stall: Option<(StallReason, u64)>,
}

/// Whether an instruction reaches the memory pipes, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemKind {
    None,
    Load,
    Store,
}

/// Register/CC/memory hazard sources and sinks of one decoded instruction.
struct Deps {
    src: [u8; 3],
    dst: u8,
    reads_cc: bool,
    sets_cc: bool,
    kind: MemKind,
}

impl Default for Deps {
    fn default() -> Self {
        Deps {
            src: [NO_REG; 3],
            dst: NO_REG,
            reads_cc: false,
            sets_cc: false,
            kind: MemKind::None,
        }
    }
}

/// Instructions that drain the window before executing: transaction
/// boundaries (journals and footprint walks must see a quiesced pipeline),
/// interlocked CSG, millicoded helpers, clock reads (they read `core.clock`,
/// which must equal the retire horizon), and the rare AR/FP/privileged ops.
fn is_serial(op: Op) -> bool {
    matches!(
        op,
        Op::Tbegin
            | Op::Tbeginc
            | Op::Tend
            | Op::Tabort
            | Op::Csg
            | Op::Ppa
            | Op::Etnd
            | Op::Stckf
            | Op::Rdclk
            | Op::Privileged
            | Op::Delay
            | Op::Halt
            | Op::Sar
            | Op::Ear
            | Op::Adbr
    )
}

/// The hazard classifier, mirroring the operand slots the predecode pass
/// (`decoded.rs`) fills and `step_inner` reads. Serial ops never reach it.
fn deps(d: &DecodedInstr) -> Deps {
    let mut p = Deps::default();
    match d.op {
        Op::Lg => {
            p.kind = MemKind::Load;
            p.src = [d.base, d.index, NO_REG];
            p.dst = d.r1;
        }
        Op::Ltg => {
            p.kind = MemKind::Load;
            p.src = [d.base, d.index, NO_REG];
            p.dst = d.r1;
            p.sets_cc = true;
        }
        Op::Stg | Op::Ntstg => {
            p.kind = MemKind::Store;
            p.src = [d.r1, d.base, d.index];
        }
        Op::Lghi => p.dst = d.r1,
        Op::Lgr => {
            p.src[0] = d.r2;
            p.dst = d.r1;
        }
        Op::La => {
            p.src = [d.base, d.index, NO_REG];
            p.dst = d.r1;
        }
        Op::Agr | Op::Sgr | Op::Ngr | Op::Xgr => {
            p.src = [d.r1, d.r2, NO_REG];
            p.dst = d.r1;
            p.sets_cc = true;
        }
        Op::Aghi => {
            p.src[0] = d.r1;
            p.dst = d.r1;
            p.sets_cc = true;
        }
        Op::Msgr | Op::Dsgr => {
            p.src = [d.r1, d.r2, NO_REG];
            p.dst = d.r1;
        }
        Op::Sllg | Op::Srlg => {
            p.src[0] = d.r2;
            p.dst = d.r1;
        }
        Op::Ltgr => {
            p.src[0] = d.r2;
            p.dst = d.r1;
            p.sets_cc = true;
        }
        Op::Cgr => {
            p.src = [d.r1, d.r2, NO_REG];
            p.sets_cc = true;
        }
        Op::Cghi => {
            p.src[0] = d.r1;
            p.sets_cc = true;
        }
        Op::Cg => {
            p.kind = MemKind::Load;
            p.src = [d.r1, d.base, d.index];
            p.sets_cc = true;
        }
        // Mask 15 branches unconditionally and mask 0 never branches —
        // neither consults the CC (`d.aux` is the mask).
        Op::Brc => p.reads_cc = d.aux != 15 && d.aux != 0,
        Op::Cgij => p.src[0] = d.r1,
        Op::Brctg => {
            p.src[0] = d.r1;
            p.dst = d.r1;
        }
        Op::Br => p.src[0] = d.r1,
        Op::RandMod => {
            if d.flags & FLAG_OPERAND_REG != 0 {
                p.src[0] = d.r2;
            }
            p.dst = d.r1;
        }
        // STMNOTE only reads its register for the machine hook; it writes
        // nothing and costs nothing.
        Op::StmNote => p.src[0] = d.r1,
        Op::Decimal | Op::Nop => {}
        // Serial ops are drained before execution and never scoreboarded.
        _ => debug_assert!(is_serial(d.op), "unclassified op {:?}", d.op),
    }
    p
}

/// Per-core scoreboard state. All times are absolute core-clock values, so
/// the window survives external clock bumps (quiesce release) by resyncing.
#[derive(Debug, Clone, Hash)]
pub struct IssueWindow {
    width: u64,
    lsu_ports: u64,
    /// Current issue cycle (== `core.clock` after every pipelined step).
    cycle: u64,
    /// Instructions issued in the current cycle.
    issued: u64,
    /// Memory operations issued in the current cycle.
    mem_issued: u64,
    /// Completion clock of the last writer of each GR.
    reg_ready: [u64; 16],
    /// Completion clock of the last CC setter.
    cc_ready: u64,
    /// Completion clock of the last store (no forwarding model).
    store_ready: u64,
    /// Latest completion in flight — the retire horizon drains land on.
    horizon: u64,
    report: IssueReport,
}

impl IssueWindow {
    /// A window issuing up to `width` instructions per cycle, at most
    /// `lsu_ports` of them memory operations.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `lsu_ports` is zero.
    pub fn new(width: u64, lsu_ports: u64) -> IssueWindow {
        assert!(width > 0, "issue width must be at least 1");
        assert!(lsu_ports > 0, "at least one LSU port is required");
        IssueWindow {
            width,
            lsu_ports,
            cycle: 0,
            issued: 0,
            mem_issued: 0,
            reg_ready: [0; 16],
            cc_ready: 0,
            store_ready: 0,
            horizon: 0,
            report: IssueReport::default(),
        }
    }

    /// The configured issue width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Takes (and clears) the issue/stall observations of the last step.
    pub fn take_report(&mut self) -> IssueReport {
        std::mem::take(&mut self.report)
    }

    /// Empties the window at `clock`: everything in flight has completed.
    fn reset_to(&mut self, clock: u64) {
        self.cycle = clock;
        self.issued = 0;
        self.mem_issued = 0;
        self.horizon = clock;
    }

    /// Realigns with an externally bumped core clock (quiesce release,
    /// direct `core_mut` pokes). Ready times are absolute, so only the
    /// issue cycle and group counters need to move.
    fn resync(&mut self, clock: u64) {
        self.cycle = clock;
        self.issued = 0;
        self.mem_issued = 0;
        if self.horizon < clock {
            self.horizon = clock;
        }
    }

    /// Closes the current issue group, recording its size.
    fn close_group(&mut self, next_cycle: u64) {
        if self.issued > 0 {
            self.report.closed_group = Some(self.issued.min(255) as u8);
        }
        self.cycle = next_cycle;
        self.issued = 0;
        self.mem_issued = 0;
    }
}

/// Executes one instruction through the issue window.
///
/// Functionally identical to [`step`](crate::step) — the same `step_inner`
/// runs, in program order — but `core.clock` advances to the instruction's
/// issue cycle as computed by the scoreboard, and the returned
/// [`StepOutcome::cycles`] is the clock delta (possibly zero when several
/// instructions issue in one cycle). Serializing instructions and any
/// non-retiring step (stall, abort, fault retry) drain the window first.
pub fn step_pipelined(
    core: &mut CpuCore,
    prog: &Program,
    m: &mut impl Machine,
    win: &mut IssueWindow,
) -> StepOutcome {
    if !core.is_running() {
        return StepOutcome {
            cycles: 0,
            event: StepEvent::Halted,
            broadcast_stop: false,
        };
    }
    if core.clock > win.cycle {
        win.resync(core.clock);
    }
    let start = core.clock;
    let idx = core.pc;
    let d = *prog.decoded(idx);

    if win.width == 1 || is_serial(d.op) || m.pending_abort() {
        // Drain: land every in-flight completion, then execute alone. At
        // width 1 the window is always empty (horizon == clock), so this
        // path is exactly the scalar `clock += cycles`.
        if win.horizon > core.clock {
            core.clock = win.horizon;
        }
        win.reset_to(core.clock);
        let out = step_inner(core, prog, m);
        core.clock += out.cycles;
        win.reset_to(core.clock);
        return StepOutcome {
            cycles: core.clock - start,
            ..out
        };
    }

    let pre_instructions = core.instructions;
    let out = step_inner(core, prog, m);
    if core.instructions == pre_instructions {
        // The step did not retire (XI stall, abort, fault retry,
        // termination): drain, then charge the scalar cost on top. Sound
        // because none of those paths read `core.clock`.
        core.clock = core.clock.max(win.horizon) + out.cycles;
        win.reset_to(core.clock);
        return StepOutcome {
            cycles: core.clock - start,
            ..out
        };
    }

    // Retired normally: find the issue cycle the scoreboard allows.
    let dep = deps(&d);
    let mem = dep.kind != MemKind::None;
    let mut candidate = win.cycle;
    if win.issued >= win.width || (mem && win.mem_issued >= win.lsu_ports) {
        candidate += 1;
    }
    let mut issue_at = candidate;
    let mut stall = None;
    for &s in &dep.src {
        if s != NO_REG && win.reg_ready[s as usize] > issue_at {
            issue_at = win.reg_ready[s as usize];
            stall = Some(StallReason::RegisterDep);
        }
    }
    if dep.reads_cc && win.cc_ready > issue_at {
        issue_at = win.cc_ready;
        stall = Some(StallReason::ConditionCode);
    }
    if mem && win.store_ready > issue_at {
        issue_at = win.store_ready;
        stall = Some(StallReason::StoreOrder);
    }
    if issue_at > win.cycle {
        win.close_group(issue_at);
    }
    if let Some(reason) = stall {
        let waited = issue_at - candidate;
        if waited > 0 {
            win.report.stall = Some((reason, waited));
        }
    }

    // The scalar cost model charges every instruction a 1-cycle
    // fetch/decode base on top of its execute latency. In the pipelined
    // view that base cycle is the issue slot itself (fetch/decode proceed
    // under older instructions), so a dependent consumer waits only the
    // execute latency: an L1-hit load (scalar cost 2) forwards to its
    // consumer on the next cycle, while a genuine miss still keeps it
    // waiting out the full memory latency.
    let completion = issue_at + out.cycles.saturating_sub(1).max(1);
    if dep.dst != NO_REG {
        win.reg_ready[dep.dst as usize] = completion;
    }
    if dep.sets_cc {
        win.cc_ready = completion;
    }
    if dep.kind == MemKind::Store {
        win.store_ready = completion;
    }
    if completion > win.horizon {
        win.horizon = completion;
    }
    win.issued += 1;
    if mem {
        win.mem_issued += 1;
    }
    core.clock = issue_at;
    if core.pc != idx + 1 {
        // Taken branch: the redirect closes the group.
        win.close_group(issue_at + 1);
    }
    StepOutcome {
        cycles: core.clock - start,
        ..out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::instr::MemOperand;
    use crate::machine::SimpleMachine;
    use crate::reg::gr::*;

    fn alu_pair_prog() -> Program {
        // Two independent 1-cycle chains: at width 2+ they issue in pairs.
        let mut a = Assembler::new(0);
        a.lghi(R6, 100);
        a.label("loop");
        a.aghi(R2, 1);
        a.sllg(R3, R4, 1);
        a.aghi(R2, 1);
        a.sllg(R3, R4, 1);
        a.brctg(R6, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    fn run(width: u64) -> (u64, u64) {
        let prog = alu_pair_prog();
        let mut core = CpuCore::default();
        let mut m = SimpleMachine::new(99);
        let mut win = IssueWindow::new(width, 2);
        loop {
            let out = step_pipelined(&mut core, &prog, &mut m, &mut win);
            if out.event == StepEvent::Halted {
                break;
            }
        }
        (core.clock, core.instructions)
    }

    #[test]
    fn width_1_matches_the_scalar_interpreter_exactly() {
        let prog = alu_pair_prog();
        let mut scalar = CpuCore::default();
        let mut m = SimpleMachine::new(99);
        loop {
            let out = crate::cpu::step(&mut scalar, &prog, &mut m);
            if out.event == StepEvent::Halted {
                break;
            }
        }
        let (clock, instructions) = run(1);
        assert_eq!(clock, scalar.clock);
        assert_eq!(instructions, scalar.instructions);
    }

    #[test]
    fn wider_windows_overlap_independent_alu_ops() {
        let (w1, n1) = run(1);
        let (w3, n3) = run(3);
        assert_eq!(n1, n3, "width changes timing, never the work done");
        assert!(
            w3 < w1,
            "width 3 must beat width 1: {w3} !< {w1} on independent ALU pairs"
        );
        // IPC must exceed 1.0 on this ALU-dominated kernel.
        assert!(
            n3 as f64 / w3 as f64 > 1.0,
            "ipc {} <= 1",
            n3 as f64 / w3 as f64
        );
    }

    #[test]
    fn dependent_chain_does_not_dual_issue() {
        // A fully dependent AGHI chain issues one per cycle at any width.
        let mut a = Assembler::new(0);
        for _ in 0..32 {
            a.aghi(R2, 1);
        }
        a.halt();
        let prog = a.assemble().unwrap();
        let run = |width| {
            let mut core = CpuCore::default();
            let mut m = SimpleMachine::new(99);
            let mut win = IssueWindow::new(width, 2);
            loop {
                if step_pipelined(&mut core, &prog, &mut m, &mut win).event == StepEvent::Halted {
                    break;
                }
            }
            core.clock
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn loads_overlap_with_younger_independent_alu_work() {
        // A load followed by independent ALU ops: the ALU ops issue under
        // the load's latency shadow, so width 3 finishes earlier.
        let mut a = Assembler::new(0);
        a.lghi(R6, 50);
        a.label("loop");
        a.lg(R1, MemOperand::absolute(0x1000));
        a.aghi(R2, 1);
        a.sllg(R3, R4, 2);
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();
        let run = |width| {
            let mut core = CpuCore::default();
            let mut m = SimpleMachine::new(99);
            let mut win = IssueWindow::new(width, 2);
            loop {
                if step_pipelined(&mut core, &prog, &mut m, &mut win).event == StepEvent::Halted {
                    break;
                }
            }
            core.clock
        };
        assert!(run(3) < run(1));
    }
}
