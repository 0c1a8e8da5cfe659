//! A small two-pass assembler producing executable [`Program`]s.

use crate::decoded::{self, DecodedInstr};
use crate::instr::{cc_mask, CmpCond, Instr, MemOperand, RegOrImm};
use crate::reg::Reg;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use ztm_core::{GrSaveMask, TbeginParams};

/// An assembled program: instructions plus their byte addresses, so that
/// transaction resume points (§II.A) and the constrained text-span rule
/// (§II.D) operate on realistic instruction addresses. Assembly also lowers
/// the program once into a flat [`DecodedInstr`] table, which is what the
/// interpreter dispatches over.
#[derive(Debug, Clone)]
pub struct Program {
    instrs: Vec<Instr>,
    addrs: Vec<u64>,
    decoded: Vec<DecodedInstr>,
    tparams: Vec<TbeginParams>,
    base: u64,
}

impl Program {
    /// The instruction at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn instr(&self, idx: usize) -> &Instr {
        &self.instrs[idx]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Byte address of instruction `idx`.
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.addrs[idx]
    }

    /// The instruction index at a byte address (used to resume after abort).
    /// `addrs` is strictly increasing by construction, so a binary search
    /// replaces the hash map this used to keep.
    pub fn index_of_addr(&self, addr: u64) -> Option<usize> {
        self.addrs.binary_search(&addr).ok()
    }

    /// The decoded record for instruction `idx` (the interpreter's view).
    #[inline]
    pub fn decoded(&self, idx: usize) -> &DecodedInstr {
        &self.decoded[idx]
    }

    /// The TBEGIN/TBEGINC operand side table referenced by
    /// [`DecodedInstr::params`].
    #[inline]
    pub fn tbegin_params(&self, slot: u16) -> &TbeginParams {
        &self.tparams[slot as usize]
    }

    /// Reconstructs instruction `idx` from its decoded record (exact
    /// inverse of the predecode lowering; used by the round-trip tests).
    pub fn reconstruct(&self, idx: usize) -> Instr {
        self.decoded[idx].reify(&self.tparams)
    }

    /// The full instruction slice (legacy interpreter path).
    pub(crate) fn raw_instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Base byte address of the program text.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Whether a branch from `from` to `target` points backward (§II.D
    /// forbids backward branches in constrained transactions).
    pub fn is_backward(&self, from: usize, target: usize) -> bool {
        self.addrs[target] <= self.addrs[from]
    }
}

/// Error from [`Assembler::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch references a label that was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl Error for AsmError {}

/// A two-pass assembler with named labels.
///
/// # Examples
///
/// ```
/// use ztm_isa::{Assembler, gr::*};
///
/// let mut a = Assembler::new(0x1000);
/// a.lghi(R0, 0);
/// a.label("loop");
/// a.aghi(R0, 1);
/// a.cgij_lt(R0, 10, "loop");
/// a.halt();
/// let prog = a.assemble()?;
/// assert_eq!(prog.len(), 4);
/// assert_eq!(prog.base(), 0x1000);
/// # Ok::<(), ztm_isa::AsmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    instrs: Vec<Instr>,
    /// For each instruction with a label operand: (instr index, label).
    fixups: Vec<(usize, String)>,
    labels: HashMap<String, usize>,
    base: u64,
    duplicate: Option<String>,
}

impl Assembler {
    /// Creates an assembler placing the program text at `base`.
    pub fn new(base: u64) -> Self {
        Assembler {
            base,
            ..Assembler::default()
        }
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_string(), self.instrs.len())
            .is_some()
        {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    fn push_branch(&mut self, i: Instr, label: &str) -> &mut Self {
        self.fixups.push((self.instrs.len(), label.to_string()));
        self.instrs.push(i);
        self
    }

    /// Resolves labels and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] or [`AsmError::DuplicateLabel`].
    pub fn assemble(&self) -> Result<Program, AsmError> {
        if let Some(d) = &self.duplicate {
            return Err(AsmError::DuplicateLabel(d.clone()));
        }
        let mut instrs = self.instrs.clone();
        for (idx, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
            match &mut instrs[*idx] {
                Instr::Brc(_, t) | Instr::Cgij(_, _, _, t) | Instr::Brctg(_, t) => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        let mut addrs = Vec::with_capacity(instrs.len());
        let mut a = self.base;
        for instr in &instrs {
            addrs.push(a);
            a += instr.len();
        }
        let (decoded, tparams) = decoded::predecode(&instrs, &addrs);
        Ok(Program {
            instrs,
            addrs,
            decoded,
            tparams,
            base: self.base,
        })
    }

    // ---- convenience constructors (Figure 1 / Figure 3 style) ----

    /// `LGHI r, imm`.
    pub fn lghi(&mut self, r: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Lghi(r, imm))
    }

    /// `LG r, mem`.
    pub fn lg(&mut self, r: Reg, mem: MemOperand) -> &mut Self {
        self.push(Instr::Lg(r, mem))
    }

    /// `STG r, mem`.
    pub fn stg(&mut self, r: Reg, mem: MemOperand) -> &mut Self {
        self.push(Instr::Stg(r, mem))
    }

    /// `LTG r, mem` — load and test (the lock check of Figure 1).
    pub fn ltg(&mut self, r: Reg, mem: MemOperand) -> &mut Self {
        self.push(Instr::Ltg(r, mem))
    }

    /// `LGR r1, r2`.
    pub fn lgr(&mut self, r1: Reg, r2: Reg) -> &mut Self {
        self.push(Instr::Lgr(r1, r2))
    }

    /// `LA r, mem`.
    pub fn la(&mut self, r: Reg, mem: MemOperand) -> &mut Self {
        self.push(Instr::La(r, mem))
    }

    /// `CSG r1, r3, mem` — compare and swap.
    pub fn csg(&mut self, r1: Reg, r3: Reg, mem: MemOperand) -> &mut Self {
        self.push(Instr::Csg(r1, r3, mem))
    }

    /// `NTSTG r, mem` — non-transactional store (§II.A).
    pub fn ntstg(&mut self, r: Reg, mem: MemOperand) -> &mut Self {
        self.push(Instr::Ntstg(r, mem))
    }

    /// `AGHI r, imm`.
    pub fn aghi(&mut self, r: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Aghi(r, imm))
    }

    /// `AGR r1, r2`.
    pub fn agr(&mut self, r1: Reg, r2: Reg) -> &mut Self {
        self.push(Instr::Agr(r1, r2))
    }

    /// `SGR r1, r2`.
    pub fn sgr(&mut self, r1: Reg, r2: Reg) -> &mut Self {
        self.push(Instr::Sgr(r1, r2))
    }

    /// `SLLG r1, r2, amount`.
    pub fn sllg(&mut self, r1: Reg, r2: Reg, amount: u8) -> &mut Self {
        self.push(Instr::Sllg(r1, r2, amount))
    }

    /// `SRLG r1, r2, amount`.
    pub fn srlg(&mut self, r1: Reg, r2: Reg, amount: u8) -> &mut Self {
        self.push(Instr::Srlg(r1, r2, amount))
    }

    /// `NGR r1, r2`.
    pub fn ngr(&mut self, r1: Reg, r2: Reg) -> &mut Self {
        self.push(Instr::Ngr(r1, r2))
    }

    /// `CGHI r, imm` — compare immediate.
    pub fn cghi(&mut self, r: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Cghi(r, imm))
    }

    /// `CGR r1, r2` — compare registers.
    pub fn cgr(&mut self, r1: Reg, r2: Reg) -> &mut Self {
        self.push(Instr::Cgr(r1, r2))
    }

    /// `CG r, mem` — compare register with memory.
    pub fn cg(&mut self, r: Reg, mem: MemOperand) -> &mut Self {
        self.push(Instr::Cg(r, mem))
    }

    /// `LTGR r1, r2` — load and test register.
    pub fn ltgr(&mut self, r1: Reg, r2: Reg) -> &mut Self {
        self.push(Instr::Ltgr(r1, r2))
    }

    /// `J label` — unconditional jump.
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.push_branch(Instr::Brc(cc_mask::ALWAYS, 0), label)
    }

    /// `JZ label` — jump if CC = 0.
    pub fn jz(&mut self, label: &str) -> &mut Self {
        self.push_branch(Instr::Brc(cc_mask::ZERO, 0), label)
    }

    /// `JNZ label` — jump if CC ≠ 0 (Figure 1's abort check after TBEGIN).
    pub fn jnz(&mut self, label: &str) -> &mut Self {
        self.push_branch(Instr::Brc(cc_mask::NOT_ZERO, 0), label)
    }

    /// `JO label` — jump if CC = 3 (Figure 1: "no retry if CC=3").
    pub fn jo(&mut self, label: &str) -> &mut Self {
        self.push_branch(Instr::Brc(cc_mask::ONES, 0), label)
    }

    /// `JL label` — jump if CC = 1.
    pub fn jl(&mut self, label: &str) -> &mut Self {
        self.push_branch(Instr::Brc(cc_mask::LOW, 0), label)
    }

    /// `JH label` — jump if CC = 2.
    pub fn jh(&mut self, label: &str) -> &mut Self {
        self.push_branch(Instr::Brc(cc_mask::HIGH, 0), label)
    }

    /// `BRC mask, label` with an explicit mask.
    pub fn brc(&mut self, mask: u8, label: &str) -> &mut Self {
        self.push_branch(Instr::Brc(mask, 0), label)
    }

    /// `CGIJNL r, imm, label` — compare and jump if not low (Figure 1's
    /// retry-threshold check).
    pub fn cgij_ge(&mut self, r: Reg, imm: i64, label: &str) -> &mut Self {
        self.push_branch(Instr::Cgij(r, imm, CmpCond::Ge, 0), label)
    }

    /// Compare and jump if less.
    pub fn cgij_lt(&mut self, r: Reg, imm: i64, label: &str) -> &mut Self {
        self.push_branch(Instr::Cgij(r, imm, CmpCond::Lt, 0), label)
    }

    /// Compare and jump if equal.
    pub fn cgij_eq(&mut self, r: Reg, imm: i64, label: &str) -> &mut Self {
        self.push_branch(Instr::Cgij(r, imm, CmpCond::Eq, 0), label)
    }

    /// Compare and jump if not equal.
    pub fn cgij_ne(&mut self, r: Reg, imm: i64, label: &str) -> &mut Self {
        self.push_branch(Instr::Cgij(r, imm, CmpCond::Ne, 0), label)
    }

    /// `BRCTG r, label` — decrement and branch while non-zero.
    pub fn brctg(&mut self, r: Reg, label: &str) -> &mut Self {
        self.push_branch(Instr::Brctg(r, 0), label)
    }

    /// `TBEGIN` with the given operand fields.
    pub fn tbegin(&mut self, params: TbeginParams) -> &mut Self {
        self.push(Instr::Tbegin(params))
    }

    /// `TBEGINC` (§II.D).
    pub fn tbeginc(&mut self, grsm: GrSaveMask) -> &mut Self {
        self.push(Instr::Tbeginc(grsm))
    }

    /// `TEND`.
    pub fn tend(&mut self) -> &mut Self {
        self.push(Instr::Tend)
    }

    /// `TABORT imm`.
    pub fn tabort(&mut self, code: u64) -> &mut Self {
        self.push(Instr::Tabort(RegOrImm::Imm(code)))
    }

    /// `ETND r`.
    pub fn etnd(&mut self, r: Reg) -> &mut Self {
        self.push(Instr::Etnd(r))
    }

    /// `PPA r` (function code TX).
    pub fn ppa(&mut self, r: Reg) -> &mut Self {
        self.push(Instr::Ppa(r))
    }

    /// `STCKF mem`.
    pub fn stckf(&mut self, mem: MemOperand) -> &mut Self {
        self.push(Instr::Stckf(mem))
    }

    /// Read the cycle clock into a register (simulator helper).
    pub fn rdclk(&mut self, r: Reg) -> &mut Self {
        self.push(Instr::Rdclk(r))
    }

    /// `r ← uniform(0..bound)` (simulator helper, zero cost).
    pub fn rand_mod(&mut self, r: Reg, bound: RegOrImm) -> &mut Self {
        self.push(Instr::RandMod(r, bound))
    }

    /// `STMNOTE kind, r` — software-TM observability marker (zero cost).
    pub fn stm_note(&mut self, kind: u8, r: Reg) -> &mut Self {
        self.push(Instr::StmNote(kind, r))
    }

    /// `NOP`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    /// Burn `n` cycles (back-off pause).
    pub fn delay(&mut self, n: u64) -> &mut Self {
        self.push(Instr::Delay(n))
    }

    /// `HALT` — stop the CPU.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::gr::*;

    #[test]
    fn label_resolution() {
        let mut a = Assembler::new(0);
        a.label("start");
        a.lghi(R0, 1);
        a.j("end");
        a.lghi(R0, 2);
        a.label("end");
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.instr(1).branch_target(), Some(3));
    }

    #[test]
    fn forward_label() {
        let mut a = Assembler::new(0);
        a.jnz("later");
        a.nop();
        a.label("later");
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.instr(0).branch_target(), Some(2));
        assert!(!p.is_backward(0, 2));
        assert!(p.is_backward(2, 0));
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new(0);
        a.j("nowhere");
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Assembler::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        a.halt();
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::DuplicateLabel("x".into())
        );
    }

    #[test]
    fn byte_addresses_accumulate_lengths() {
        let mut a = Assembler::new(0x100);
        a.nop(); // 2 bytes at 0x100
        a.lghi(R0, 1); // 4 bytes at 0x102
        a.lg(R1, MemOperand::absolute(0)); // 6 bytes at 0x106
        a.halt(); // at 0x10c
        let p = a.assemble().unwrap();
        assert_eq!(p.addr_of(0), 0x100);
        assert_eq!(p.addr_of(1), 0x102);
        assert_eq!(p.addr_of(2), 0x106);
        assert_eq!(p.addr_of(3), 0x10c);
        assert_eq!(p.index_of_addr(0x106), Some(2));
        assert_eq!(p.index_of_addr(0x107), None);
        assert_eq!(p.base(), 0x100);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn self_branch_is_backward() {
        let mut a = Assembler::new(0);
        a.label("spin");
        a.j("spin");
        let p = a.assemble().unwrap();
        assert!(p.is_backward(0, 0));
    }
}
