//! The Transaction Diagnostic Block (§II.E.1).

use crate::abort::AbortCause;
use ztm_mem::{Address, MainMemory};

/// Size of a TDB in bytes.
pub const TDB_SIZE: usize = 256;

/// The Transaction Diagnostic Block: 256 bytes of abort diagnostics stored
/// when a transaction with a TDB address aborts (§II.E.1), and also stored
/// into the CPU's prefix area on every abort caused by a program
/// interruption.
///
/// Layout used by this simulator (offsets in bytes):
///
/// | Offset | Field |
/// |---|---|
/// | 0 | format (1) |
/// | 1 | flags — bit 7 (0x80): conflict token valid |
/// | 8..16 | transaction abort code |
/// | 16..24 | conflict token (byte address of the conflicting line) |
/// | 24..32 | aborted-transaction instruction address (ATIA) |
/// | 36..38 | program interruption code (when applicable) |
/// | 40..48 | translation-exception address (page faults) |
/// | 48..56 | abort count at the time of this abort (CPU-specific info) |
/// | 128..256 | general registers 0–15 at the time of abort |
///
/// # Examples
///
/// ```
/// use ztm_core::{AbortCause, Tdb};
///
/// let tdb = Tdb::build(AbortCause::FetchOverflow, 0x100, &[0; 16], 3, None);
/// assert_eq!(tdb.abort_code(), 7);
/// assert_eq!(tdb.atia(), 0x100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tdb {
    bytes: [u8; TDB_SIZE],
}

impl Tdb {
    /// Builds a TDB image for an abort.
    ///
    /// * `atia` — instruction address at which the abort was detected.
    /// * `grs` — general-register contents at the time of abort.
    /// * `abort_count` — CPU-specific diagnostic: how many aborts this
    ///   transaction has taken.
    /// * `translation_address` — faulting address for access exceptions.
    pub fn build(
        cause: AbortCause,
        atia: u64,
        grs: &[u64; 16],
        abort_count: u64,
        translation_address: Option<u64>,
    ) -> Self {
        let mut b = [0u8; TDB_SIZE];
        b[0] = 1; // format
        if let Some(line) = cause.conflict_token() {
            b[1] |= 0x80;
            b[16..24].copy_from_slice(&line.base().raw().to_be_bytes());
        }
        b[8..16].copy_from_slice(&cause.abort_code().to_be_bytes());
        b[24..32].copy_from_slice(&atia.to_be_bytes());
        if let crate::abort::AbortCause::FilteredProgramException(pe)
        | crate::abort::AbortCause::UnfilteredProgramException(pe) = cause
        {
            b[36..38].copy_from_slice(&pe.interruption_code().to_be_bytes());
        }
        if let Some(ta) = translation_address {
            b[40..48].copy_from_slice(&ta.to_be_bytes());
        }
        b[48..56].copy_from_slice(&abort_count.to_be_bytes());
        for (i, gr) in grs.iter().enumerate() {
            b[128 + 8 * i..128 + 8 * (i + 1)].copy_from_slice(&gr.to_be_bytes());
        }
        Tdb { bytes: b }
    }

    /// The raw 256-byte image.
    pub fn as_bytes(&self) -> &[u8; TDB_SIZE] {
        &self.bytes
    }

    /// Stores the TDB image to memory at `addr`.
    pub fn store_to(&self, mem: &mut MainMemory, addr: Address) {
        mem.store_bytes(addr, &self.bytes);
    }

    /// Loads a TDB image from memory at `addr`.
    pub fn load_from(mem: &MainMemory, addr: Address) -> Self {
        let mut b = [0u8; TDB_SIZE];
        mem.load_bytes(addr, &mut b);
        Tdb { bytes: b }
    }

    fn u64_at(&self, off: usize) -> u64 {
        u64::from_be_bytes(self.bytes[off..off + 8].try_into().expect("8 bytes"))
    }

    /// The transaction abort code.
    pub fn abort_code(&self) -> u64 {
        self.u64_at(8)
    }

    /// Whether the conflict token field is valid.
    pub fn conflict_token_valid(&self) -> bool {
        self.bytes[1] & 0x80 != 0
    }

    /// The conflict token (address of the conflicting line), if valid.
    pub fn conflict_token(&self) -> Option<u64> {
        self.conflict_token_valid().then(|| self.u64_at(16))
    }

    /// The aborted-transaction instruction address.
    pub fn atia(&self) -> u64 {
        self.u64_at(24)
    }

    /// The program interruption code, if any.
    pub fn program_interruption_code(&self) -> u16 {
        u16::from_be_bytes(self.bytes[36..38].try_into().expect("2 bytes"))
    }

    /// The translation-exception address field.
    pub fn translation_address(&self) -> u64 {
        self.u64_at(40)
    }

    /// The abort count recorded as CPU-specific diagnostic information.
    pub fn abort_count(&self) -> u64 {
        self.u64_at(48)
    }

    /// A general register value at the time of abort.
    ///
    /// # Panics
    ///
    /// Panics if `r > 15`.
    pub fn gr(&self, r: usize) -> u64 {
        assert!(r < 16, "GR index out of range");
        self.u64_at(128 + 8 * r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::ProgramException;
    use ztm_cache::CpuId;
    use ztm_mem::LineAddr;

    #[test]
    fn conflict_tdb_round_trip() {
        let mut grs = [0u64; 16];
        grs[5] = 0x55;
        let cause = AbortCause::Conflict {
            line: LineAddr::new(4),
            from: Some(CpuId(2)),
            store: true,
        };
        let tdb = Tdb::build(cause, 0x1234, &grs, 7, None);
        assert_eq!(tdb.abort_code(), 10);
        assert!(tdb.conflict_token_valid());
        assert_eq!(tdb.conflict_token(), Some(4 * 256));
        assert_eq!(tdb.atia(), 0x1234);
        assert_eq!(tdb.gr(5), 0x55);
        assert_eq!(tdb.abort_count(), 7);
    }

    #[test]
    fn non_conflict_has_no_token() {
        let tdb = Tdb::build(AbortCause::StoreOverflow, 0, &[0; 16], 0, None);
        assert!(!tdb.conflict_token_valid());
        assert_eq!(tdb.conflict_token(), None);
        assert_eq!(tdb.abort_code(), 8);
    }

    #[test]
    fn page_fault_fields() {
        let cause =
            AbortCause::UnfilteredProgramException(ProgramException::PageFault { address: 0x9000 });
        let tdb = Tdb::build(cause, 0x40, &[0; 16], 1, Some(0x9000));
        assert_eq!(tdb.program_interruption_code(), 0x0011);
        assert_eq!(tdb.translation_address(), 0x9000);
    }

    #[test]
    fn memory_round_trip() {
        let mut mem = MainMemory::new();
        let tdb = Tdb::build(AbortCause::Tabort(300), 0x10, &[9; 16], 2, None);
        tdb.store_to(&mut mem, Address::new(0x2000));
        let back = Tdb::load_from(&mem, Address::new(0x2000));
        assert_eq!(back, tdb);
        assert_eq!(back.abort_code(), 300);
        assert_eq!(back.gr(0), 9);
    }
}
