//! Transaction abort causes, architected abort codes, and condition codes.

use std::fmt;
use ztm_cache::{CpuId, FootprintEvent};
use ztm_mem::LineAddr;

/// The condition code presented to the abort handler (§II.A): 2 for
/// *transient* conditions worth retrying, 3 for *permanent* conditions where
/// the program should branch to its fallback path immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCc {
    /// Condition code 2 — transient; a retry may succeed.
    Transient,
    /// Condition code 3 — permanent; retrying is futile.
    Permanent,
}

impl AbortCc {
    /// The architected condition-code value (2 or 3).
    pub fn value(self) -> u8 {
        match self {
            AbortCc::Transient => 2,
            AbortCc::Permanent => 3,
        }
    }
}

/// Classes of program-exception conditions for interruption filtering
/// (§II.C groups exceptions into four classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionClass {
    /// Cannot occur inside a transaction (e.g. exceptions of instructions
    /// that are themselves restricted).
    Impossible,
    /// Always a programming error; never filtered (e.g. undefined opcode).
    Error,
    /// Related to memory access (e.g. page faults); filtered at PIFC ≥ 2.
    Access,
    /// Arithmetic/data exceptions (e.g. divide by zero); filtered at PIFC ≥ 1.
    Data,
}

/// Program-exception conditions the simulator can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramException {
    /// Page-translation exception (class [`ExceptionClass::Access`]).
    PageFault {
        /// Faulting byte address.
        address: u64,
    },
    /// Fixed-point divide exception (class [`ExceptionClass::Data`]).
    FixedPointDivide,
    /// Operation exception — undefined opcode (class [`ExceptionClass::Error`]).
    Operation,
    /// Transaction-constraint exception: a constrained transaction violated
    /// its programming constraints (§II.D; never filterable).
    ConstraintViolation,
    /// Specification exception (bad operand alignment etc.).
    Specification,
    /// A Program Event Recording event (store/fetch/TEND monitoring,
    /// §II.E.2); inside a transaction it causes an abort and a
    /// non-filterable interruption into the OS.
    PerEvent,
}

impl ProgramException {
    /// The filtering class of this exception.
    pub fn class(self) -> ExceptionClass {
        match self {
            ProgramException::PageFault { .. } => ExceptionClass::Access,
            ProgramException::FixedPointDivide => ExceptionClass::Data,
            ProgramException::Operation => ExceptionClass::Error,
            ProgramException::ConstraintViolation => ExceptionClass::Error,
            ProgramException::Specification => ExceptionClass::Access,
            ProgramException::PerEvent => ExceptionClass::Error,
        }
    }

    /// The z-style program-interruption code stored in the TDB.
    pub fn interruption_code(self) -> u16 {
        match self {
            ProgramException::Operation => 0x0001,
            ProgramException::Specification => 0x0006,
            ProgramException::FixedPointDivide => 0x0009,
            ProgramException::PageFault { .. } => 0x0011,
            ProgramException::ConstraintViolation => 0x0018,
            ProgramException::PerEvent => 0x0080,
        }
    }
}

/// Why a transaction aborted. Carries enough detail to build the Transaction
/// Diagnostic Block (§II.E.1) and select condition code and abort code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// An XI from another CPU (or the I/O subsystem) hit the footprint.
    Conflict {
        /// The conflicting line (TDB conflict token).
        line: LineAddr,
        /// The interrogating CPU, when known.
        from: Option<CpuId>,
        /// Whether the write set (vs read set) was hit.
        store: bool,
    },
    /// Transactional read footprint exceeded tracking capability.
    FetchOverflow,
    /// Transactional store footprint exceeded the store cache / L2.
    StoreOverflow,
    /// XI-reject threshold reached without forward progress (§III.C).
    RejectHang {
        /// The line whose XI finally had to be accepted.
        line: LineAddr,
    },
    /// A restricted instruction was decoded inside the transaction.
    RestrictedInstruction,
    /// The maximum transaction nesting depth (16) was exceeded.
    NestingDepthExceeded,
    /// A program-exception condition that will be *filtered* (no OS
    /// interruption; §II.C).
    FilteredProgramException(ProgramException),
    /// A program-exception condition presented to the OS.
    UnfilteredProgramException(ProgramException),
    /// An asynchronous interruption (timer, I/O, external).
    AsynchronousInterruption,
    /// TABORT was executed with the given code (§II.A: codes < 256 are
    /// reserved; the low bit selects CC 2 vs 3).
    Tabort(u64),
    /// A forced random abort from the Transaction Diagnostic Control
    /// (§II.E.3).
    Diagnostic,
}

impl AbortCause {
    /// The architected transaction abort code (z/Architecture flavored;
    /// see the TDB documentation in this crate).
    pub fn abort_code(self) -> u64 {
        match self {
            AbortCause::AsynchronousInterruption => 2,
            AbortCause::UnfilteredProgramException(_) => 4,
            AbortCause::FetchOverflow => 7,
            AbortCause::StoreOverflow => 8,
            AbortCause::Conflict { store: false, .. } => 9,
            AbortCause::Conflict { store: true, .. } => 10,
            AbortCause::RestrictedInstruction => 11,
            AbortCause::FilteredProgramException(_) => 12,
            AbortCause::NestingDepthExceeded => 13,
            AbortCause::RejectHang { .. } => 16,
            AbortCause::Diagnostic => 255,
            AbortCause::Tabort(code) => code.max(256),
        }
    }

    /// The condition code the abort presents (transient vs permanent).
    pub fn condition(self) -> AbortCc {
        match self {
            AbortCause::Conflict { .. }
            | AbortCause::RejectHang { .. }
            | AbortCause::AsynchronousInterruption
            | AbortCause::UnfilteredProgramException(_)
            | AbortCause::Diagnostic => AbortCc::Transient,
            AbortCause::FetchOverflow | AbortCause::StoreOverflow => AbortCc::Permanent,
            AbortCause::RestrictedInstruction
            | AbortCause::NestingDepthExceeded
            | AbortCause::FilteredProgramException(_) => AbortCc::Permanent,
            AbortCause::Tabort(code) => {
                if code & 1 == 0 {
                    AbortCc::Transient
                } else {
                    AbortCc::Permanent
                }
            }
        }
    }

    /// The conflict token (conflicting line address) if one is known.
    pub fn conflict_token(self) -> Option<LineAddr> {
        match self {
            AbortCause::Conflict { line, .. } | AbortCause::RejectHang { line } => Some(line),
            _ => None,
        }
    }

    /// Converts a cache-layer footprint event into an abort cause.
    pub fn from_footprint(ev: FootprintEvent) -> Self {
        match ev {
            FootprintEvent::Conflict { line, from, store } => {
                AbortCause::Conflict { line, from, store }
            }
            FootprintEvent::FetchOverflow { .. } => AbortCause::FetchOverflow,
            FootprintEvent::StoreOverflow { .. } => AbortCause::StoreOverflow,
            FootprintEvent::RejectHang { line } => AbortCause::RejectHang { line },
        }
    }

    /// Whether this abort also presents a program interruption to the OS.
    pub fn interrupts_os(self) -> bool {
        matches!(
            self,
            AbortCause::UnfilteredProgramException(_) | AbortCause::AsynchronousInterruption
        )
    }
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCause::Conflict { line, from, store } => {
                let kind = if *store { "store" } else { "fetch" };
                match from {
                    Some(cpu) => write!(f, "{kind} conflict on {line} with {cpu}"),
                    None => write!(f, "{kind} conflict on {line}"),
                }
            }
            AbortCause::FetchOverflow => write!(f, "fetch footprint overflow"),
            AbortCause::StoreOverflow => write!(f, "store footprint overflow"),
            AbortCause::RejectHang { line } => {
                write!(f, "XI-reject threshold reached on {line}")
            }
            AbortCause::RestrictedInstruction => write!(f, "restricted instruction"),
            AbortCause::NestingDepthExceeded => write!(f, "nesting depth exceeded"),
            AbortCause::FilteredProgramException(pe) => {
                write!(
                    f,
                    "filtered program exception (code {:#06x})",
                    pe.interruption_code()
                )
            }
            AbortCause::UnfilteredProgramException(pe) => {
                write!(
                    f,
                    "program interruption (code {:#06x})",
                    pe.interruption_code()
                )
            }
            AbortCause::AsynchronousInterruption => write!(f, "asynchronous interruption"),
            AbortCause::Tabort(code) => write!(f, "TABORT code {code}"),
            AbortCause::Diagnostic => write!(f, "diagnostic-control forced abort"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condition_code_values() {
        assert_eq!(AbortCc::Transient.value(), 2);
        assert_eq!(AbortCc::Permanent.value(), 3);
    }

    #[test]
    fn conflicts_are_transient() {
        let c = AbortCause::Conflict {
            line: LineAddr::new(1),
            from: None,
            store: false,
        };
        assert_eq!(c.condition(), AbortCc::Transient);
        assert_eq!(c.abort_code(), 9);
        let s = AbortCause::Conflict {
            line: LineAddr::new(1),
            from: None,
            store: true,
        };
        assert_eq!(s.abort_code(), 10);
    }

    #[test]
    fn restricted_and_nesting_are_permanent() {
        assert_eq!(
            AbortCause::RestrictedInstruction.condition(),
            AbortCc::Permanent
        );
        assert_eq!(AbortCause::RestrictedInstruction.abort_code(), 11);
        assert_eq!(
            AbortCause::NestingDepthExceeded.condition(),
            AbortCc::Permanent
        );
        assert_eq!(AbortCause::NestingDepthExceeded.abort_code(), 13);
    }

    #[test]
    fn tabort_low_bit_selects_cc() {
        assert_eq!(AbortCause::Tabort(256).condition(), AbortCc::Transient);
        assert_eq!(AbortCause::Tabort(257).condition(), AbortCc::Permanent);
        // Codes below 256 are reserved and forced up.
        assert_eq!(AbortCause::Tabort(10).abort_code(), 256);
    }

    #[test]
    fn filtering_classes() {
        assert_eq!(
            ProgramException::PageFault { address: 0 }.class(),
            ExceptionClass::Access
        );
        assert_eq!(
            ProgramException::FixedPointDivide.class(),
            ExceptionClass::Data
        );
        assert_eq!(ProgramException::Operation.class(), ExceptionClass::Error);
        assert_eq!(
            ProgramException::ConstraintViolation.class(),
            ExceptionClass::Error
        );
    }

    #[test]
    fn footprint_conversion_keeps_token() {
        let ev = FootprintEvent::Conflict {
            line: LineAddr::new(3),
            from: Some(CpuId(1)),
            store: true,
        };
        let cause = AbortCause::from_footprint(ev);
        assert_eq!(cause.conflict_token(), Some(LineAddr::new(3)));
        assert_eq!(cause.abort_code(), 10);
    }

    #[test]
    fn os_interruption_only_for_unfiltered() {
        assert!(
            AbortCause::UnfilteredProgramException(ProgramException::FixedPointDivide)
                .interrupts_os()
        );
        assert!(
            !AbortCause::FilteredProgramException(ProgramException::FixedPointDivide)
                .interrupts_os()
        );
        assert!(AbortCause::AsynchronousInterruption.interrupts_os());
        assert!(!AbortCause::Diagnostic.interrupts_os());
    }

    #[test]
    fn display_is_informative() {
        let c = AbortCause::Conflict {
            line: LineAddr::new(4),
            from: Some(CpuId(2)),
            store: true,
        };
        assert_eq!(c.to_string(), "store conflict on line:0x4 with cpu2");
        assert_eq!(AbortCause::Tabort(258).to_string(), "TABORT code 258");
        assert!(
            AbortCause::FilteredProgramException(ProgramException::FixedPointDivide)
                .to_string()
                .contains("0x0009")
        );
        assert!(!AbortCause::Diagnostic.to_string().is_empty());
    }

    #[test]
    fn overflow_is_permanent() {
        // Retrying an oversized footprint cannot help; the program should
        // take its fallback path (paper §IV discusses practical size limits).
        assert_eq!(AbortCause::FetchOverflow.condition(), AbortCc::Permanent);
        assert_eq!(AbortCause::StoreOverflow.condition(), AbortCc::Permanent);
    }
}
