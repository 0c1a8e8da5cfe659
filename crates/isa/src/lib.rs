//! A z-flavored instruction set, assembler, and CPU interpreter for the ztm
//! simulator.
//!
//! This crate provides the architectural layer above the `ztm-core`
//! transaction engine:
//!
//! * [`Instr`] — a compact subset of z/Architecture plus the six
//!   Transactional Execution instructions (TBEGIN, TBEGINC, TEND, TABORT,
//!   ETND, NTSTG) and PPA (§II.A of the paper).
//! * [`Assembler`]/[`Program`] — a two-pass assembler with labels, producing
//!   programs with realistic byte addresses (needed for abort resume points
//!   and the constrained-transaction text-span rule).
//! * [`CpuCore`]/[`step`] — an interpreter that executes programs against a
//!   [`Machine`], handling condition codes, transaction begin/end/abort,
//!   interruption filtering, PER (§II.E.2), and XI-stall retries.
//! * [`Machine`] — the port implemented by the full system simulator
//!   (`ztm-sim`), with [`SimpleMachine`] as a single-CPU reference.
//!
//! # Example: the paper's Figure 1 shape
//!
//! ```
//! use ztm_isa::{Assembler, MemOperand, SimpleMachine, run_to_halt, gr::*};
//! use ztm_core::TbeginParams;
//!
//! let mut a = Assembler::new(0);
//! a.lghi(R0, 0);                         // retry count
//! a.label("loop");
//! a.tbegin(TbeginParams::new());         // begin transaction
//! a.jnz("abort");                        // CC!=0 → abort handler
//! a.ltg(R1, MemOperand::absolute(0x4000)); // load & test the fallback lock
//! a.jnz("abort");
//! a.lg(R2, MemOperand::absolute(0x4100));
//! a.aghi(R2, 1);
//! a.stg(R2, MemOperand::absolute(0x4100));
//! a.tend();                              // commit
//! a.halt();
//! a.label("abort");
//! a.halt();
//! let prog = a.assemble()?;
//!
//! let mut m = SimpleMachine::new(7);
//! run_to_halt(&prog, &mut m, 1_000);
//! assert_eq!(m.mem.load_u64(ztm_mem::Address::new(0x4100)), 1);
//! # Ok::<(), ztm_isa::AsmError>(())
//! ```

mod asm;
mod cpu;
pub mod decoded;
mod disasm;
mod instr;
mod machine;
mod per;
mod pipeline;
mod reg;

pub use asm::{AsmError, Assembler, Program};
pub use cpu::{effective_address_decoded, run_to_halt, step, step_legacy, StepEvent, StepOutcome};
pub use decoded::{DecodedInstr, Op};
pub use instr::{cc_mask, CmpCond, Instr, MemOperand, RegOrImm};
pub use machine::{
    finish_abort, stm_note, AbortApply, AccessResult, CasResult, EndResult, ExceptionDisposition,
    Machine, OsDisposition, OsModel, SimpleMachine,
};
pub use per::PerControls;
pub use pipeline::{step_pipelined, IssueReport, IssueWindow, StallReason};
pub use reg::{gr, CpuCore, CpuState, HaltReason, Reg};
