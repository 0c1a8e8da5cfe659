//! TBEGIN operand fields and interruption-filtering controls (§II.B/§II.C).

use crate::abort::ExceptionClass;
use ztm_mem::Address;

/// The General Register Save Mask: 8 bits, each covering an even/odd pair of
/// the 16 GRs (§II.B). Bit *i* covers GRs `2i` and `2i+1`.
///
/// # Examples
///
/// ```
/// use ztm_core::GrSaveMask;
///
/// let all = GrSaveMask::ALL;
/// assert!(all.covers_pair(7));
/// let some = GrSaveMask::new(0b0000_0101);
/// assert!(some.covers_gr(0) && some.covers_gr(1));
/// assert!(some.covers_gr(4) && some.covers_gr(5));
/// assert!(!some.covers_gr(2));
/// assert_eq!(some.pair_count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GrSaveMask(u8);

impl GrSaveMask {
    /// Save/restore every register pair.
    pub const ALL: GrSaveMask = GrSaveMask(0xff);
    /// Save/restore nothing.
    pub const NONE: GrSaveMask = GrSaveMask(0);

    /// Creates a mask from its raw 8-bit value.
    pub const fn new(mask: u8) -> Self {
        GrSaveMask(mask)
    }

    /// The raw 8-bit value.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Whether GR pair `i` (GRs `2i`, `2i+1`) is covered.
    ///
    /// # Panics
    ///
    /// Panics if `i > 7`.
    pub fn covers_pair(self, i: usize) -> bool {
        assert!(i < 8, "GR pair index out of range");
        self.0 >> i & 1 == 1
    }

    /// Whether a specific GR is covered.
    ///
    /// # Panics
    ///
    /// Panics if `r > 15`.
    pub fn covers_gr(self, r: usize) -> bool {
        assert!(r < 16, "GR index out of range");
        self.covers_pair(r / 2)
    }

    /// Number of pairs covered (TBEGIN cracks one save micro-op per pair,
    /// §III.B — this drives the cost model).
    pub fn pair_count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over the covered pair indices.
    pub fn pairs(self) -> impl Iterator<Item = usize> {
        (0..8).filter(move |i| self.0 >> i & 1 == 1)
    }
}

/// The Program Interruption Filtering Control of TBEGIN (§II.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Pifc {
    /// 0 — no filtering: every exception interrupts into the OS.
    #[default]
    None,
    /// 1 — filter data/arithmetic exceptions (class 4) only.
    Data,
    /// 2 — filter access exceptions (class 3) and data exceptions (class 4).
    DataAndAccess,
}

impl Pifc {
    /// Whether an exception of `class` is filtered at this PIFC level.
    /// Instruction-fetch related exceptions are never filtered (§II.C); the
    /// caller distinguishes fetch from operand access.
    pub fn filters(self, class: ExceptionClass) -> bool {
        match class {
            ExceptionClass::Impossible | ExceptionClass::Error => false,
            ExceptionClass::Access => self == Pifc::DataAndAccess,
            ExceptionClass::Data => self >= Pifc::Data,
        }
    }

    /// The architected field value (0–2).
    pub fn value(self) -> u8 {
        match self {
            Pifc::None => 0,
            Pifc::Data => 1,
            Pifc::DataAndAccess => 2,
        }
    }
}

/// The operand fields of a TBEGIN instruction (§II.B, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TbeginParams {
    /// Which GR pairs to save/restore.
    pub grsm: GrSaveMask,
    /// Access-register modification control: when `false`, any AR-modifying
    /// instruction in the transaction is a restricted-instruction abort.
    pub allow_ar_mod: bool,
    /// Floating-point-register modification control.
    pub allow_fp_mod: bool,
    /// Program interruption filtering control.
    pub pifc: Pifc,
    /// Optional Transaction Diagnostic Block address (stored on abort).
    pub tdb: Option<Address>,
}

impl TbeginParams {
    /// Conventional defaults: save all GR pairs, forbid AR/FPR modification,
    /// no filtering, no TDB.
    pub fn new() -> Self {
        TbeginParams {
            grsm: GrSaveMask::ALL,
            allow_ar_mod: false,
            allow_fp_mod: false,
            pifc: Pifc::None,
            tdb: None,
        }
    }

    /// The implicit controls of TBEGINC: the FPR control and PIFC fields "do
    /// not exist and the controls are considered to be zero" (§II.D).
    pub fn constrained(grsm: GrSaveMask) -> Self {
        TbeginParams {
            grsm,
            allow_ar_mod: false,
            allow_fp_mod: false,
            pifc: Pifc::None,
            tdb: None,
        }
    }
}

impl Default for TbeginParams {
    fn default() -> Self {
        TbeginParams::new()
    }
}

/// The effective controls of a transaction nest: AR/FPR controls are the AND
/// of all levels, PIFC is the maximum of all levels (§II.B/§II.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EffectiveControls {
    /// Effective AR-modification permission.
    pub allow_ar_mod: bool,
    /// Effective FPR-modification permission.
    pub allow_fp_mod: bool,
    /// Effective filtering level.
    pub pifc: Pifc,
}

impl EffectiveControls {
    /// Effective controls of a single-level nest.
    pub fn from_params(p: &TbeginParams) -> Self {
        EffectiveControls {
            allow_ar_mod: p.allow_ar_mod,
            allow_fp_mod: p.allow_fp_mod,
            pifc: p.pifc,
        }
    }

    /// Merges an inner nesting level into the effective controls.
    pub fn merge(self, inner: &TbeginParams) -> Self {
        EffectiveControls {
            allow_ar_mod: self.allow_ar_mod && inner.allow_ar_mod,
            allow_fp_mod: self.allow_fp_mod && inner.allow_fp_mod,
            pifc: self.pifc.max(inner.pifc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grsm_pairs() {
        let m = GrSaveMask::new(0b1000_0001);
        assert_eq!(m.pairs().collect::<Vec<_>>(), vec![0, 7]);
        assert!(m.covers_gr(14) && m.covers_gr(15));
        assert!(!m.covers_gr(13));
        assert_eq!(m.pair_count(), 2);
        assert_eq!(GrSaveMask::ALL.pair_count(), 8);
        assert_eq!(GrSaveMask::NONE.pair_count(), 0);
    }

    #[test]
    fn pifc_filtering_matrix() {
        use ExceptionClass::*;
        assert!(!Pifc::None.filters(Data));
        assert!(!Pifc::None.filters(Access));
        assert!(Pifc::Data.filters(Data));
        assert!(!Pifc::Data.filters(Access));
        assert!(Pifc::DataAndAccess.filters(Data));
        assert!(Pifc::DataAndAccess.filters(Access));
        // Programming errors are never filtered.
        for p in [Pifc::None, Pifc::Data, Pifc::DataAndAccess] {
            assert!(!p.filters(Error));
        }
    }

    #[test]
    fn effective_controls_merge() {
        let outer = TbeginParams {
            allow_ar_mod: true,
            allow_fp_mod: false,
            pifc: Pifc::Data,
            ..TbeginParams::new()
        };
        let inner = TbeginParams {
            allow_ar_mod: false,
            allow_fp_mod: true,
            pifc: Pifc::DataAndAccess,
            ..TbeginParams::new()
        };
        let eff = EffectiveControls::from_params(&outer).merge(&inner);
        assert!(!eff.allow_ar_mod, "AND of AR controls");
        assert!(!eff.allow_fp_mod, "AND of FPR controls");
        assert_eq!(eff.pifc, Pifc::DataAndAccess, "max of PIFCs");
    }

    #[test]
    fn constrained_params_have_zero_controls() {
        let p = TbeginParams::constrained(GrSaveMask::ALL);
        assert!(!p.allow_fp_mod);
        assert_eq!(p.pifc, Pifc::None);
        assert!(p.tdb.is_none());
    }
}
