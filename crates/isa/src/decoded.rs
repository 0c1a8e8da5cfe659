//! Predecoded micro-op table: the interpreter's fast path.
//!
//! [`Program::assemble`](crate::Assembler::assemble) lowers every program
//! once into a flat, contiguous vector of fixed-size [`DecodedInstr`]
//! records — one per instruction — with the operand `Option<Reg>` chains
//! resolved to plain register slots, the instruction length and byte
//! address precomputed, the [`InstrClass`] (including the backward-branch
//! bit, which is static once the assembler has resolved targets) folded in,
//! and the store-follows window (load-with-intent-to-update, §III.C) walked
//! ahead of time. `step` then dispatches over the compact [`Op`] tag
//! instead of matching (and cloning) the full [`Instr`] enum on every
//! executed instruction.
//!
//! The lowering is loss-free: [`DecodedInstr::reify`] reconstructs the
//! original [`Instr`] exactly, which the property tests use to prove the
//! decoded table and the legacy walk describe the same program.

use crate::instr::{CmpCond, Instr, MemOperand, RegOrImm};
use crate::reg::Reg;
use ztm_core::{InstrClass, TbeginParams};

/// Sentinel for an absent register slot (valid registers are 0..=15).
pub const NO_REG: u8 = 16;

/// `flags` bit: an `Lg` whose line is stored to within the merge window —
/// fetch it exclusive up front (load with intent to update, §III.C).
pub const FLAG_FOR_UPDATE: u8 = 1;
/// `flags` bit: the TABORT / RAND operand is a register (in `r2`) rather
/// than the immediate in `imm`.
pub const FLAG_OPERAND_REG: u8 = 2;

/// Compact operation tag, one per [`Instr`] variant. `#[repr(u8)]` so the
/// interpreter's dispatch is a dense jump table over a single byte.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// See [`Instr::Lg`].
    Lg,
    /// See [`Instr::Stg`].
    Stg,
    /// See [`Instr::Ltg`].
    Ltg,
    /// See [`Instr::Lghi`].
    Lghi,
    /// See [`Instr::Lgr`].
    Lgr,
    /// See [`Instr::La`].
    La,
    /// See [`Instr::Csg`].
    Csg,
    /// See [`Instr::Ntstg`].
    Ntstg,
    /// See [`Instr::Agr`].
    Agr,
    /// See [`Instr::Sgr`].
    Sgr,
    /// See [`Instr::Aghi`].
    Aghi,
    /// See [`Instr::Ngr`].
    Ngr,
    /// See [`Instr::Xgr`].
    Xgr,
    /// See [`Instr::Msgr`].
    Msgr,
    /// See [`Instr::Dsgr`].
    Dsgr,
    /// See [`Instr::Sllg`].
    Sllg,
    /// See [`Instr::Srlg`].
    Srlg,
    /// See [`Instr::Ltgr`].
    Ltgr,
    /// See [`Instr::Cgr`].
    Cgr,
    /// See [`Instr::Cghi`].
    Cghi,
    /// See [`Instr::Cg`].
    Cg,
    /// See [`Instr::Brc`].
    Brc,
    /// See [`Instr::Cgij`].
    Cgij,
    /// See [`Instr::Brctg`].
    Brctg,
    /// See [`Instr::Br`].
    Br,
    /// See [`Instr::Tbegin`].
    Tbegin,
    /// See [`Instr::Tbeginc`].
    Tbeginc,
    /// See [`Instr::Tend`].
    Tend,
    /// See [`Instr::Tabort`].
    Tabort,
    /// See [`Instr::Etnd`].
    Etnd,
    /// See [`Instr::Ppa`].
    Ppa,
    /// See [`Instr::Stckf`].
    Stckf,
    /// See [`Instr::Rdclk`].
    Rdclk,
    /// See [`Instr::RandMod`].
    RandMod,
    /// See [`Instr::Sar`].
    Sar,
    /// See [`Instr::Ear`].
    Ear,
    /// See [`Instr::Adbr`].
    Adbr,
    /// See [`Instr::Decimal`].
    Decimal,
    /// See [`Instr::Privileged`].
    Privileged,
    /// See [`Instr::StmNote`].
    StmNote,
    /// See [`Instr::Nop`].
    Nop,
    /// See [`Instr::Delay`].
    Delay,
    /// See [`Instr::Halt`].
    Halt,
}

/// One fixed-size (32-byte) decoded instruction record.
///
/// Field meanings vary by [`Op`]; [`DecodedInstr::reify`] is the definitive
/// inverse mapping. Register slots hold plain indices (`r1`, `r2`; AR and
/// FPR numbers reuse the same slots), memory operands are `base`/`index`
/// slots (or [`NO_REG`]) plus the displacement in `imm`, and `aux` carries
/// the BRC mask, CGIJ condition code, or shift amount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// Immediate / displacement / delay count / TABORT-or-RAND immediate
    /// (unsigned values bit-cast through `i64`).
    pub imm: i64,
    /// Byte address of the instruction (what `addr_of` returns).
    pub addr: u64,
    /// Branch target, already resolved to an instruction index.
    pub target: u32,
    /// Index into the program's [`TbeginParams`] side table (TBEGIN /
    /// TBEGINC only; TBEGINC entries are already `TbeginParams::constrained`).
    pub params: u16,
    /// Transactional-legality class with the backward-branch bit folded in.
    pub class: InstrClass,
    /// Operation tag.
    pub op: Op,
    /// First register slot (also AR number for SAR, FPR number for ADBR).
    pub r1: u8,
    /// Second register slot.
    pub r2: u8,
    /// Memory-operand base register slot, or [`NO_REG`].
    pub base: u8,
    /// Memory-operand index register slot, or [`NO_REG`].
    pub index: u8,
    /// BRC mask / CGIJ condition code / SLLG-SRLG shift amount.
    pub aux: u8,
    /// Encoded length in bytes (2, 4 or 6).
    pub len: u8,
    /// [`FLAG_FOR_UPDATE`] | [`FLAG_OPERAND_REG`].
    pub flags: u8,
}

fn reg_slot(r: Option<Reg>) -> u8 {
    match r {
        Some(Reg(n)) => n,
        None => NO_REG,
    }
}

fn slot_reg(s: u8) -> Option<Reg> {
    if s == NO_REG {
        None
    } else {
        Some(Reg(s))
    }
}

fn encode_cond(c: CmpCond) -> u8 {
    match c {
        CmpCond::Eq => 0,
        CmpCond::Ne => 1,
        CmpCond::Lt => 2,
        CmpCond::Le => 3,
        CmpCond::Gt => 4,
        CmpCond::Ge => 5,
    }
}

/// Decodes the condition code produced by the private `encode_cond`.
pub fn decode_cond(code: u8) -> CmpCond {
    match code {
        0 => CmpCond::Eq,
        1 => CmpCond::Ne,
        2 => CmpCond::Lt,
        3 => CmpCond::Le,
        4 => CmpCond::Gt,
        5 => CmpCond::Ge,
        _ => unreachable!("invalid condition code {code}"),
    }
}

/// Whether a store to the same memory operand appears within the next few
/// instructions — the out-of-order LSU would merge the load miss with the
/// store's exclusive fetch, so the line is fetched exclusive once (zEC12
/// store-hit-load-miss merging; this is what lets stiff-arming protect a
/// transactional read-modify-write, §III.C). Purely static over the program
/// text, which is why the predecode pass can fold it into the record.
pub(crate) fn store_follows(instrs: &[Instr], idx: usize, mem: &MemOperand) -> bool {
    const WINDOW: usize = 4;
    for instr in instrs
        .iter()
        .take((idx + 1 + WINDOW).min(instrs.len()))
        .skip(idx + 1)
    {
        match instr {
            // Same base/index registers and displacement within the same
            // 256-byte line.
            Instr::Stg(_, m) | Instr::Ntstg(_, m) | Instr::Csg(_, _, m)
                if m.base == mem.base && m.index == mem.index && m.disp / 256 == mem.disp / 256 =>
            {
                return true;
            }
            // A branch or transaction boundary ends the merge window.
            Instr::Brc(..)
            | Instr::Cgij(..)
            | Instr::Brctg(..)
            | Instr::Br(..)
            | Instr::Tend
            | Instr::Tbegin(..)
            | Instr::Tbeginc(..)
            | Instr::Halt => return false,
            _ => {}
        }
    }
    false
}

/// Lowers an assembled instruction sequence into the decoded table plus the
/// TBEGIN-parameter side table. `addrs[i]` is the byte address of
/// instruction `i` (branch direction is derived from it).
pub(crate) fn predecode(instrs: &[Instr], addrs: &[u64]) -> (Vec<DecodedInstr>, Vec<TbeginParams>) {
    let mut table = Vec::with_capacity(instrs.len());
    let mut tparams: Vec<TbeginParams> = Vec::new();
    for (idx, instr) in instrs.iter().enumerate() {
        let backward = instr
            .branch_target()
            .map(|t| addrs[t] <= addrs[idx])
            .unwrap_or(false);
        let mut d = DecodedInstr {
            imm: 0,
            addr: addrs[idx],
            target: 0,
            params: 0,
            class: instr.class(backward),
            op: Op::Nop,
            r1: 0,
            r2: 0,
            base: NO_REG,
            index: NO_REG,
            aux: 0,
            len: instr.len() as u8,
            flags: 0,
        };
        let set_mem = |d: &mut DecodedInstr, m: &MemOperand| {
            d.base = reg_slot(m.base);
            d.index = reg_slot(m.index);
            d.imm = m.disp;
        };
        match instr {
            Instr::Lg(r, m) => {
                d.op = Op::Lg;
                d.r1 = r.0;
                set_mem(&mut d, m);
                if store_follows(instrs, idx, m) {
                    d.flags |= FLAG_FOR_UPDATE;
                }
            }
            Instr::Stg(r, m) => {
                d.op = Op::Stg;
                d.r1 = r.0;
                set_mem(&mut d, m);
            }
            Instr::Ltg(r, m) => {
                d.op = Op::Ltg;
                d.r1 = r.0;
                set_mem(&mut d, m);
            }
            Instr::Lghi(r, i) => {
                d.op = Op::Lghi;
                d.r1 = r.0;
                d.imm = *i;
            }
            Instr::Lgr(a, b) => {
                d.op = Op::Lgr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::La(r, m) => {
                d.op = Op::La;
                d.r1 = r.0;
                set_mem(&mut d, m);
            }
            Instr::Csg(a, b, m) => {
                d.op = Op::Csg;
                d.r1 = a.0;
                d.r2 = b.0;
                set_mem(&mut d, m);
            }
            Instr::Ntstg(r, m) => {
                d.op = Op::Ntstg;
                d.r1 = r.0;
                set_mem(&mut d, m);
            }
            Instr::Agr(a, b) => {
                d.op = Op::Agr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Sgr(a, b) => {
                d.op = Op::Sgr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Aghi(r, i) => {
                d.op = Op::Aghi;
                d.r1 = r.0;
                d.imm = *i;
            }
            Instr::Ngr(a, b) => {
                d.op = Op::Ngr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Xgr(a, b) => {
                d.op = Op::Xgr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Msgr(a, b) => {
                d.op = Op::Msgr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Dsgr(a, b) => {
                d.op = Op::Dsgr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Sllg(a, b, n) => {
                d.op = Op::Sllg;
                d.r1 = a.0;
                d.r2 = b.0;
                d.aux = *n;
            }
            Instr::Srlg(a, b, n) => {
                d.op = Op::Srlg;
                d.r1 = a.0;
                d.r2 = b.0;
                d.aux = *n;
            }
            Instr::Ltgr(a, b) => {
                d.op = Op::Ltgr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Cgr(a, b) => {
                d.op = Op::Cgr;
                d.r1 = a.0;
                d.r2 = b.0;
            }
            Instr::Cghi(r, i) => {
                d.op = Op::Cghi;
                d.r1 = r.0;
                d.imm = *i;
            }
            Instr::Cg(r, m) => {
                d.op = Op::Cg;
                d.r1 = r.0;
                set_mem(&mut d, m);
            }
            Instr::Brc(mask, t) => {
                d.op = Op::Brc;
                d.aux = *mask;
                d.target = *t as u32;
            }
            Instr::Cgij(r, i, c, t) => {
                d.op = Op::Cgij;
                d.r1 = r.0;
                d.imm = *i;
                d.aux = encode_cond(*c);
                d.target = *t as u32;
            }
            Instr::Brctg(r, t) => {
                d.op = Op::Brctg;
                d.r1 = r.0;
                d.target = *t as u32;
            }
            Instr::Br(r) => {
                d.op = Op::Br;
                d.r1 = r.0;
            }
            Instr::Tbegin(p) => {
                d.op = Op::Tbegin;
                d.params = tparams.len() as u16;
                tparams.push(*p);
            }
            Instr::Tbeginc(grsm) => {
                d.op = Op::Tbeginc;
                d.params = tparams.len() as u16;
                // The implicit constrained controls are static too (§II.D).
                tparams.push(TbeginParams::constrained(*grsm));
            }
            Instr::Tend => d.op = Op::Tend,
            Instr::Tabort(code) => {
                d.op = Op::Tabort;
                match code {
                    RegOrImm::Reg(r) => {
                        d.flags |= FLAG_OPERAND_REG;
                        d.r2 = r.0;
                    }
                    RegOrImm::Imm(v) => d.imm = *v as i64,
                }
            }
            Instr::Etnd(r) => {
                d.op = Op::Etnd;
                d.r1 = r.0;
            }
            Instr::Ppa(r) => {
                d.op = Op::Ppa;
                d.r1 = r.0;
            }
            Instr::Stckf(m) => {
                d.op = Op::Stckf;
                set_mem(&mut d, m);
            }
            Instr::Rdclk(r) => {
                d.op = Op::Rdclk;
                d.r1 = r.0;
            }
            Instr::RandMod(r, bound) => {
                d.op = Op::RandMod;
                d.r1 = r.0;
                match bound {
                    RegOrImm::Reg(b) => {
                        d.flags |= FLAG_OPERAND_REG;
                        d.r2 = b.0;
                    }
                    RegOrImm::Imm(v) => d.imm = *v as i64,
                }
            }
            Instr::Sar(ar, r) => {
                d.op = Op::Sar;
                d.r1 = *ar;
                d.r2 = r.0;
            }
            Instr::Ear(r, ar) => {
                d.op = Op::Ear;
                d.r1 = r.0;
                d.r2 = *ar;
            }
            Instr::Adbr(a, b) => {
                d.op = Op::Adbr;
                d.r1 = *a;
                d.r2 = *b;
            }
            Instr::Decimal => d.op = Op::Decimal,
            Instr::Privileged => d.op = Op::Privileged,
            Instr::StmNote(kind, r) => {
                d.op = Op::StmNote;
                d.aux = *kind;
                d.r1 = r.0;
            }
            Instr::Nop => d.op = Op::Nop,
            Instr::Delay(n) => {
                d.op = Op::Delay;
                d.imm = *n as i64;
            }
            Instr::Halt => d.op = Op::Halt,
        }
        table.push(d);
    }
    (table, tparams)
}

impl DecodedInstr {
    /// The memory operand encoded in `base`/`index`/`imm`.
    pub fn mem(&self) -> MemOperand {
        MemOperand {
            base: slot_reg(self.base),
            index: slot_reg(self.index),
            disp: self.imm,
        }
    }

    fn operand(&self) -> RegOrImm {
        if self.flags & FLAG_OPERAND_REG != 0 {
            RegOrImm::Reg(Reg(self.r2))
        } else {
            RegOrImm::Imm(self.imm as u64)
        }
    }

    /// Reconstructs the original [`Instr`] (exact inverse of the predecode
    /// lowering). `tparams` is the owning program's side table.
    pub fn reify(&self, tparams: &[TbeginParams]) -> Instr {
        match self.op {
            Op::Lg => Instr::Lg(Reg(self.r1), self.mem()),
            Op::Stg => Instr::Stg(Reg(self.r1), self.mem()),
            Op::Ltg => Instr::Ltg(Reg(self.r1), self.mem()),
            Op::Lghi => Instr::Lghi(Reg(self.r1), self.imm),
            Op::Lgr => Instr::Lgr(Reg(self.r1), Reg(self.r2)),
            Op::La => Instr::La(Reg(self.r1), self.mem()),
            Op::Csg => Instr::Csg(Reg(self.r1), Reg(self.r2), self.mem()),
            Op::Ntstg => Instr::Ntstg(Reg(self.r1), self.mem()),
            Op::Agr => Instr::Agr(Reg(self.r1), Reg(self.r2)),
            Op::Sgr => Instr::Sgr(Reg(self.r1), Reg(self.r2)),
            Op::Aghi => Instr::Aghi(Reg(self.r1), self.imm),
            Op::Ngr => Instr::Ngr(Reg(self.r1), Reg(self.r2)),
            Op::Xgr => Instr::Xgr(Reg(self.r1), Reg(self.r2)),
            Op::Msgr => Instr::Msgr(Reg(self.r1), Reg(self.r2)),
            Op::Dsgr => Instr::Dsgr(Reg(self.r1), Reg(self.r2)),
            Op::Sllg => Instr::Sllg(Reg(self.r1), Reg(self.r2), self.aux),
            Op::Srlg => Instr::Srlg(Reg(self.r1), Reg(self.r2), self.aux),
            Op::Ltgr => Instr::Ltgr(Reg(self.r1), Reg(self.r2)),
            Op::Cgr => Instr::Cgr(Reg(self.r1), Reg(self.r2)),
            Op::Cghi => Instr::Cghi(Reg(self.r1), self.imm),
            Op::Cg => Instr::Cg(Reg(self.r1), self.mem()),
            Op::Brc => Instr::Brc(self.aux, self.target as usize),
            Op::Cgij => Instr::Cgij(
                Reg(self.r1),
                self.imm,
                decode_cond(self.aux),
                self.target as usize,
            ),
            Op::Brctg => Instr::Brctg(Reg(self.r1), self.target as usize),
            Op::Br => Instr::Br(Reg(self.r1)),
            Op::Tbegin => Instr::Tbegin(tparams[self.params as usize]),
            Op::Tbeginc => Instr::Tbeginc(tparams[self.params as usize].grsm),
            Op::Tend => Instr::Tend,
            Op::Tabort => Instr::Tabort(self.operand()),
            Op::Etnd => Instr::Etnd(Reg(self.r1)),
            Op::Ppa => Instr::Ppa(Reg(self.r1)),
            Op::Stckf => Instr::Stckf(self.mem()),
            Op::Rdclk => Instr::Rdclk(Reg(self.r1)),
            Op::RandMod => Instr::RandMod(Reg(self.r1), self.operand()),
            Op::Sar => Instr::Sar(self.r1, Reg(self.r2)),
            Op::Ear => Instr::Ear(Reg(self.r1), self.r2),
            Op::Adbr => Instr::Adbr(self.r1, self.r2),
            Op::Decimal => Instr::Decimal,
            Op::Privileged => Instr::Privileged,
            Op::StmNote => Instr::StmNote(self.aux, Reg(self.r1)),
            Op::Nop => Instr::Nop,
            Op::Delay => Instr::Delay(self.imm as u64),
            Op::Halt => Instr::Halt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_stays_compact() {
        // The whole point of the table is host-cache density: two records
        // per 64-byte line.
        assert!(std::mem::size_of::<DecodedInstr>() <= 32);
    }

    #[test]
    fn cond_codes_round_trip() {
        use CmpCond::*;
        for c in [Eq, Ne, Lt, Le, Gt, Ge] {
            assert_eq!(decode_cond(encode_cond(c)), c);
        }
    }
}
