//! Constrained-transaction programming constraints (§II.D).

use std::error::Error;
use std::fmt;
use ztm_mem::{Address, Octoword};

/// Maximum instructions a constrained transaction may execute.
pub const MAX_CONSTRAINED_INSTRUCTIONS: u32 = 32;
/// All instruction text must lie within this many consecutive bytes.
pub const MAX_CONSTRAINED_TEXT_SPAN: u64 = 256;
/// Maximum aligned octowords (32-byte blocks) of memory accessed.
pub const MAX_CONSTRAINED_OCTOWORDS: usize = 4;

/// Classification of an instruction for transactional-execution legality.
///
/// The ISA layer classifies every instruction; the transaction engine applies
/// the rules of §II.A (restricted instructions), §II.B (AR/FPR modification
/// controls) and §II.D (constrained-transaction constraints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// A simple instruction, allowed in any transaction.
    General,
    /// A relative branch; constrained transactions require forward targets.
    BranchRelative {
        /// Whether the branch target precedes the branch instruction.
        backward: bool,
    },
    /// A branch that is not relative (e.g. via register); forbidden in
    /// constrained transactions (no sub-routine calls, §II.D).
    BranchOther,
    /// Modifies an access register (subject to the AR control, §II.B).
    ArModifying,
    /// Modifies a floating-point register (subject to the FPR control).
    FprModifying,
    /// Complex/decimal/floating-point operations excluded from constrained
    /// transactions but legal in normal ones (§II.D).
    RestrictedInConstrained,
    /// Privileged or complex instructions never allowed in any transaction
    /// (§II.A) — always a restricted-instruction abort.
    RestrictedInTx,
}

/// A violated constrained-transaction programming constraint. Raising one
/// causes a non-filterable constraint-violation program interruption (§II.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintViolation {
    /// More than 32 instructions executed.
    TooManyInstructions,
    /// Instruction text spans more than 256 consecutive bytes.
    TextSpanTooLarge,
    /// A backward branch was executed.
    BackwardBranch,
    /// A non-relative branch (e.g. sub-routine call) was executed.
    NonRelativeBranch,
    /// An instruction excluded from constrained transactions was executed.
    RestrictedInstruction,
    /// More than 4 aligned octowords of memory were accessed.
    FootprintTooLarge,
    /// An AR/FPR-modifying instruction was executed (controls are zero).
    RegisterControl,
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ConstraintViolation::TooManyInstructions => {
                "constrained transaction executed more than 32 instructions"
            }
            ConstraintViolation::TextSpanTooLarge => {
                "constrained transaction text spans more than 256 bytes"
            }
            ConstraintViolation::BackwardBranch => {
                "constrained transaction executed a backward branch"
            }
            ConstraintViolation::NonRelativeBranch => {
                "constrained transaction executed a non-relative branch"
            }
            ConstraintViolation::RestrictedInstruction => {
                "instruction is excluded from constrained transactions"
            }
            ConstraintViolation::FootprintTooLarge => {
                "constrained transaction accessed more than 4 octowords"
            }
            ConstraintViolation::RegisterControl => "constrained transaction modified an AR/FPR",
        };
        f.write_str(msg)
    }
}

impl Error for ConstraintViolation {}

/// Dynamically tracks a running constrained transaction against its
/// programming constraints.
///
/// # Examples
///
/// ```
/// use ztm_core::{ConstraintTracker, InstrClass};
/// use ztm_mem::Address;
///
/// let mut t = ConstraintTracker::new(0x100);
/// t.note_instruction(0x100, 6, InstrClass::General)?;
/// t.note_data_access(Address::new(0x4000), 8)?;
/// # Ok::<(), ztm_core::ConstraintViolation>(())
/// ```
#[derive(Debug, Clone, Hash)]
pub struct ConstraintTracker {
    /// Addresses of counted instructions. Constrained transactions contain
    /// no loops (forward branches only), so each address executes at most
    /// once — re-presenting an address means the instruction is being
    /// *retried* (e.g. after a stiff-armed memory access) and must not be
    /// counted again.
    counted: Vec<u64>,
    min_ia: u64,
    max_ia_end: u64,
    octowords: Vec<Octoword>,
}

impl ConstraintTracker {
    /// Starts tracking at the TBEGINC instruction address.
    pub fn new(tbeginc_ia: u64) -> Self {
        ConstraintTracker {
            counted: Vec::with_capacity(MAX_CONSTRAINED_INSTRUCTIONS as usize),
            min_ia: tbeginc_ia,
            max_ia_end: tbeginc_ia,
            octowords: Vec::with_capacity(MAX_CONSTRAINED_OCTOWORDS),
        }
    }

    /// Instructions executed so far (excluding TBEGINC itself).
    pub fn instructions(&self) -> u32 {
        self.counted.len() as u32
    }

    /// Distinct octowords accessed so far.
    pub fn octowords(&self) -> usize {
        self.octowords.len()
    }

    /// Records the execution of one instruction at `ia` of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint, which the engine turns into a
    /// constraint-violation program interruption.
    pub fn note_instruction(
        &mut self,
        ia: u64,
        len: u64,
        class: InstrClass,
    ) -> Result<(), ConstraintViolation> {
        if !self.counted.contains(&ia) {
            self.counted.push(ia);
        }
        if self.counted.len() as u32 > MAX_CONSTRAINED_INSTRUCTIONS {
            return Err(ConstraintViolation::TooManyInstructions);
        }
        self.min_ia = self.min_ia.min(ia);
        self.max_ia_end = self.max_ia_end.max(ia + len);
        if self.max_ia_end - self.min_ia > MAX_CONSTRAINED_TEXT_SPAN {
            return Err(ConstraintViolation::TextSpanTooLarge);
        }
        match class {
            InstrClass::General => Ok(()),
            InstrClass::BranchRelative { backward: false } => Ok(()),
            InstrClass::BranchRelative { backward: true } => {
                Err(ConstraintViolation::BackwardBranch)
            }
            InstrClass::BranchOther => Err(ConstraintViolation::NonRelativeBranch),
            InstrClass::ArModifying | InstrClass::FprModifying => {
                Err(ConstraintViolation::RegisterControl)
            }
            InstrClass::RestrictedInConstrained | InstrClass::RestrictedInTx => {
                Err(ConstraintViolation::RestrictedInstruction)
            }
        }
    }

    /// Records an operand access of `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`ConstraintViolation::FootprintTooLarge`] if the access
    /// brings the footprint over 4 aligned octowords.
    pub fn note_data_access(&mut self, addr: Address, len: u64) -> Result<(), ConstraintViolation> {
        debug_assert!(len > 0);
        let first = addr.octoword().index();
        let last = addr.add(len - 1).octoword().index();
        for i in first..=last {
            let ow = Octoword::new(i);
            if !self.octowords.contains(&ow) {
                if self.octowords.len() == MAX_CONSTRAINED_OCTOWORDS {
                    return Err(ConstraintViolation::FootprintTooLarge);
                }
                self.octowords.push(ow);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_budget() {
        let mut t = ConstraintTracker::new(0);
        for i in 0..32 {
            t.note_instruction(i * 4, 4, InstrClass::General).unwrap();
        }
        assert_eq!(
            t.note_instruction(128, 4, InstrClass::General),
            Err(ConstraintViolation::TooManyInstructions)
        );
    }

    #[test]
    fn text_span_includes_tbeginc() {
        let mut t = ConstraintTracker::new(0x100);
        t.note_instruction(0x1f0, 6, InstrClass::General).unwrap(); // span 0x100..0x1f6 ≤ 256
        assert_eq!(
            t.note_instruction(0x200, 4, InstrClass::General),
            Err(ConstraintViolation::TextSpanTooLarge)
        );
    }

    #[test]
    fn branch_rules() {
        let mut t = ConstraintTracker::new(0);
        assert!(t
            .note_instruction(0, 4, InstrClass::BranchRelative { backward: false })
            .is_ok());
        assert_eq!(
            t.note_instruction(4, 4, InstrClass::BranchRelative { backward: true }),
            Err(ConstraintViolation::BackwardBranch)
        );
        assert_eq!(
            t.note_instruction(8, 4, InstrClass::BranchOther),
            Err(ConstraintViolation::NonRelativeBranch)
        );
    }

    #[test]
    fn restricted_classes() {
        let mut t = ConstraintTracker::new(0);
        assert_eq!(
            t.note_instruction(0, 4, InstrClass::RestrictedInConstrained),
            Err(ConstraintViolation::RestrictedInstruction)
        );
        assert_eq!(
            t.note_instruction(4, 4, InstrClass::FprModifying),
            Err(ConstraintViolation::RegisterControl)
        );
    }

    #[test]
    fn octoword_budget_allows_4() {
        let mut t = ConstraintTracker::new(0);
        for i in 0..4u64 {
            t.note_data_access(Address::new(i * 32), 8).unwrap();
        }
        // Re-touching the same octowords is free.
        t.note_data_access(Address::new(0), 32).unwrap();
        assert_eq!(t.octowords(), 4);
        assert_eq!(
            t.note_data_access(Address::new(4 * 32), 1),
            Err(ConstraintViolation::FootprintTooLarge)
        );
    }

    #[test]
    fn straddling_access_counts_two_octowords() {
        let mut t = ConstraintTracker::new(0);
        t.note_data_access(Address::new(28), 8).unwrap();
        assert_eq!(t.octowords(), 2);
    }

    #[test]
    fn double_linked_list_insert_fits() {
        // The paper notes common operations like doubly-linked-list insert
        // fit the constraints: 3 distinct nodes + head ≈ 4 octowords.
        let mut t = ConstraintTracker::new(0x40);
        let nodes = [0x1000u64, 0x2000, 0x3000, 0x4000];
        for (i, n) in nodes.iter().enumerate() {
            t.note_instruction(0x40 + 6 * i as u64 + 6, 6, InstrClass::General)
                .unwrap();
            t.note_data_access(Address::new(*n), 16).unwrap();
        }
        assert_eq!(t.octowords(), 4);
    }

    #[test]
    fn violation_display_nonempty() {
        assert!(!ConstraintViolation::FootprintTooLarge
            .to_string()
            .is_empty());
        assert!(ConstraintViolation::TooManyInstructions
            .to_string()
            .contains("32"));
    }
}
