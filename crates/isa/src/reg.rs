//! Architectural register state: GRs, ARs, FPRs, and the PSW essentials.

use crate::per::PerControls;
use std::fmt;

/// A general-register designation (0–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Creates a register designation.
    ///
    /// # Panics
    ///
    /// Panics if `n > 15`.
    pub fn new(n: u8) -> Self {
        assert!(n < 16, "GR designation out of range");
        Reg(n)
    }

    /// The register number as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Convenient register constants (`R0`–`R15`).
pub mod gr {
    use super::Reg;
    /// General register 0.
    pub const R0: Reg = Reg(0);
    /// General register 1.
    pub const R1: Reg = Reg(1);
    /// General register 2.
    pub const R2: Reg = Reg(2);
    /// General register 3.
    pub const R3: Reg = Reg(3);
    /// General register 4.
    pub const R4: Reg = Reg(4);
    /// General register 5.
    pub const R5: Reg = Reg(5);
    /// General register 6.
    pub const R6: Reg = Reg(6);
    /// General register 7.
    pub const R7: Reg = Reg(7);
    /// General register 8.
    pub const R8: Reg = Reg(8);
    /// General register 9.
    pub const R9: Reg = Reg(9);
    /// General register 10.
    pub const R10: Reg = Reg(10);
    /// General register 11.
    pub const R11: Reg = Reg(11);
    /// General register 12.
    pub const R12: Reg = Reg(12);
    /// General register 13.
    pub const R13: Reg = Reg(13);
    /// General register 14.
    pub const R14: Reg = Reg(14);
    /// General register 15.
    pub const R15: Reg = Reg(15);
}

/// Why a CPU stopped running.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HaltReason {
    /// The program executed HALT (normal completion).
    Completed,
    /// The simulated OS terminated the program (unrecoverable exception).
    Terminated(String),
}

/// Execution state of a simulated CPU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CpuState {
    /// Executing instructions.
    Running,
    /// Stopped.
    Halted(HaltReason),
}

/// The architectural core state of one simulated CPU: 16 general registers,
/// 16 access registers, 16 floating-point registers, the condition code, the
/// instruction counter, and a local cycle clock (read by STCKF, §IV).
#[derive(Debug, Clone, Hash)]
pub struct CpuCore {
    /// General registers.
    pub grs: [u64; 16],
    /// Access registers (no transactional save/restore — §II.B).
    pub ars: [u32; 16],
    /// Floating-point registers (no transactional save/restore).
    pub fprs: [u64; 16],
    /// Condition code (0–3).
    pub cc: u8,
    /// Program counter: an index into the current [`crate::Program`].
    pub pc: usize,
    /// Local cycle clock.
    pub clock: u64,
    /// Run state.
    pub state: CpuState,
    /// PER controls (§II.E.2).
    pub per: PerControls,
    /// Count of PER events presented (for debugger modeling, §II.E.2).
    pub per_events: u64,
    /// Count of completed instructions.
    pub instructions: u64,
}

impl CpuCore {
    /// Creates a zeroed core at instruction index 0.
    pub fn new() -> Self {
        CpuCore {
            grs: [0; 16],
            ars: [0; 16],
            fprs: [0; 16],
            cc: 0,
            pc: 0,
            clock: 0,
            state: CpuState::Running,
            per: PerControls::disabled(),
            per_events: 0,
            instructions: 0,
        }
    }

    /// Reads a general register.
    pub fn gr(&self, r: Reg) -> u64 {
        self.grs[r.index()]
    }

    /// Writes a general register.
    pub fn set_gr(&mut self, r: Reg, v: u64) {
        self.grs[r.index()] = v;
    }

    /// Whether the CPU is still running.
    pub fn is_running(&self) -> bool {
        self.state == CpuState::Running
    }

    /// Sets the condition code from a signed comparison.
    pub fn set_cc_cmp(&mut self, a: i64, b: i64) {
        self.cc = match a.cmp(&b) {
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Less => 1,
            std::cmp::Ordering::Greater => 2,
        };
    }

    /// Sets the condition code from a signed value (load-and-test style).
    pub fn set_cc_value(&mut self, v: i64) {
        self.cc = match v.cmp(&0) {
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Less => 1,
            std::cmp::Ordering::Greater => 2,
        };
    }
}

impl Default for CpuCore {
    fn default() -> Self {
        CpuCore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_bounds() {
        assert_eq!(Reg::new(15).index(), 15);
        assert_eq!(gr::R7, Reg(7));
        assert_eq!(gr::R7.to_string(), "r7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range() {
        let _ = Reg::new(16);
    }

    #[test]
    fn cc_helpers() {
        let mut c = CpuCore::new();
        c.set_cc_cmp(1, 1);
        assert_eq!(c.cc, 0);
        c.set_cc_cmp(0, 1);
        assert_eq!(c.cc, 1);
        c.set_cc_cmp(2, 1);
        assert_eq!(c.cc, 2);
        c.set_cc_value(-5);
        assert_eq!(c.cc, 1);
        c.set_cc_value(0);
        assert_eq!(c.cc, 0);
        c.set_cc_value(5);
        assert_eq!(c.cc, 2);
    }

    #[test]
    fn gr_accessors() {
        let mut c = CpuCore::new();
        c.set_gr(gr::R3, 42);
        assert_eq!(c.gr(gr::R3), 42);
        assert!(c.is_running());
    }
}
