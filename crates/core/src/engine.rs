//! The per-CPU transaction state machine (§II.A/§II.D, §III.B/§III.E).

use crate::abort::{AbortCause, ExceptionClass, ProgramException};
use crate::constraints::{ConstraintTracker, InstrClass};
use crate::controls::{EffectiveControls, GrSaveMask, TbeginParams};
use crate::diag::DiagnosticControl;
use crate::millicode::{ConstrainedRetry, MillicodeCosts, RetryAction, RetryLadderConfig};
use crate::stats::TxStats;
use crate::tdb::Tdb;
use rand::Rng;
use std::hash::{Hash, Hasher};
use ztm_cache::FootprintEvent;
use ztm_mem::Address;
use ztm_trace::{Event, Tracer};

/// Maximum supported transaction nesting depth (§II.A).
pub const MAX_NESTING_DEPTH: usize = 16;

/// Configuration of a [`TxEngine`].
#[derive(Debug, Clone, Default)]
pub struct TxEngineConfig {
    /// OS-set diagnostic control (forced random aborts, §II.E.3).
    pub diagnostic: DiagnosticControl,
    /// Constrained-retry escalation ladder configuration.
    pub retry_ladder: RetryLadderConfig,
    /// Millicode cycle costs.
    pub costs: MillicodeCosts,
}

/// State captured at the outermost TBEGIN, needed for abort processing.
#[derive(Debug, Clone, Hash)]
struct OuterState {
    grsm: GrSaveMask,
    backup_grs: [u64; 16],
    resume_ia: u64,
    tdb_addr: Option<Address>,
    constrained: bool,
    tracker: Option<ConstraintTracker>,
}

/// Outcome of a transaction-begin instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// An outermost transaction started; `cycles` models the cracked
    /// micro-ops saving GR pairs into the backup register file (§III.B).
    Outermost {
        /// Execution cost of the begin.
        cycles: u64,
    },
    /// A nested level was opened.
    Nested,
}

/// Outcome of a TEND instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TendOutcome {
    /// TEND executed outside transactional-execution mode (no effect beyond
    /// setting the condition code).
    NotInTx,
    /// An inner nesting level closed; the transaction continues.
    Inner,
    /// The outermost transaction committed; `cycles` is the commit cost.
    Commit {
        /// Execution cost of the commit.
        cycles: u64,
    },
}

/// Everything the CPU model needs to apply a transaction abort (§III.E).
#[derive(Debug, Clone)]
pub struct AbortOutcome {
    /// Why the transaction aborted.
    pub cause: AbortCause,
    /// The architected abort code.
    pub abort_code: u64,
    /// The condition code to present (2 or 3).
    pub cc: u8,
    /// Where execution resumes: after the outermost TBEGIN, or *at* the
    /// TBEGINC for constrained transactions (§II.D).
    pub resume_ia: u64,
    /// `(register, value)` pairs to restore from the backup register file.
    pub gr_restores: Vec<(usize, u64)>,
    /// TDB image to store at the program-specified address, if any.
    pub tdb: Option<(Address, Tdb)>,
    /// TDB copy for the CPU prefix area (stored on program-interruption
    /// aborts, §II.E.1).
    pub prefix_tdb: Option<Tdb>,
    /// Whether an interruption into the OS is presented.
    pub os_interruption: bool,
    /// Whether the aborted transaction was constrained.
    pub constrained: bool,
    /// Millicode retry escalation for constrained transactions.
    pub retry: Option<RetryAction>,
    /// Millicode abort-processing cost in cycles.
    pub cycles: u64,
}

/// The per-CPU Transactional Execution engine.
///
/// Owns the architectural transaction state: nesting depth, effective
/// controls, the transaction-backup register file contents, the constraint
/// tracker for constrained transactions, pending asynchronous abort causes,
/// the diagnostic control, and the millicode retry ladder. It owns *no*
/// memory or cache state — the system simulator coordinates this engine with
/// the [`ztm_cache::PrivateCache`].
///
/// # Examples
///
/// ```
/// use ztm_core::{TbeginParams, TendOutcome, TxEngine};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut tx = TxEngine::default();
/// let grs = [0u64; 16];
/// tx.begin(TbeginParams::new(), false, &grs, 0x100, 0x106, &mut rng)
///     .expect("outermost begin");
/// assert_eq!(tx.depth(), 1);
/// assert!(matches!(tx.tend(), TendOutcome::Commit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct TxEngine {
    level_params: Vec<TbeginParams>,
    effective: EffectiveControls,
    outer: Option<OuterState>,
    pending: Option<AbortCause>,
    tdc: DiagnosticControl,
    tdc_countdown: Option<u32>,
    retry: ConstrainedRetry,
    costs: MillicodeCosts,
    stats: TxStats,
    speculation_disabled: bool,
    /// Consecutive aborts of the current transaction site (reset on commit);
    /// recorded into the TDB as CPU-specific diagnostic information.
    abort_streak: u64,
    /// Abort code of the most recently processed abort (0 before any).
    /// The STM fallback path reads this through `Machine::stm_note` to
    /// attribute fallback engagements to their cause without the emitted
    /// program having to parse the TDB.
    last_abort_code: u16,
    tracer: Tracer,
}

impl TxEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: TxEngineConfig) -> Self {
        TxEngine {
            level_params: Vec::new(),
            effective: EffectiveControls::from_params(&TbeginParams::new()),
            outer: None,
            pending: None,
            tdc: config.diagnostic,
            tdc_countdown: None,
            retry: ConstrainedRetry::new(config.retry_ladder),
            costs: config.costs,
            stats: TxStats::new(),
            speculation_disabled: false,
            abort_streak: 0,
            last_abort_code: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer (also cloned into the millicode retry ladder).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.retry.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Current nesting depth (0 = not in transactional-execution mode).
    pub fn depth(&self) -> usize {
        self.level_params.len()
    }

    /// Whether the CPU is in transactional-execution mode.
    pub fn in_tx(&self) -> bool {
        !self.level_params.is_empty()
    }

    /// Whether the current transaction is constrained.
    pub fn constrained(&self) -> bool {
        self.outer.as_ref().map(|o| o.constrained).unwrap_or(false)
    }

    /// Whether the millicode retry ladder has disabled speculative fetching
    /// for the current retry (§III.E).
    pub fn speculation_disabled(&self) -> bool {
        self.speculation_disabled
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TxStats {
        &self.stats
    }

    /// Abort code of the most recently processed abort (0 before any).
    pub fn last_abort_code(&self) -> u16 {
        self.last_abort_code
    }

    // ------------------------------------------------------------------
    // Begin / end
    // ------------------------------------------------------------------

    /// Executes a transaction-begin (TBEGIN or, with `constrained`,
    /// TBEGINC). `tbegin_ia` is the instruction's address; `next_ia` the
    /// address of the following instruction.
    ///
    /// # Errors
    ///
    /// Returns the abort cause if beginning is itself an abort condition:
    /// exceeding the maximum nesting depth, or any transaction-begin decoded
    /// inside a constrained transaction (§II.D, §III.B).
    pub fn begin(
        &mut self,
        params: TbeginParams,
        constrained: bool,
        grs: &[u64; 16],
        tbegin_ia: u64,
        next_ia: u64,
        rng: &mut impl Rng,
    ) -> Result<BeginOutcome, AbortCause> {
        if self.constrained() {
            return Err(AbortCause::RestrictedInstruction);
        }
        if self.depth() == MAX_NESTING_DEPTH {
            return Err(AbortCause::NestingDepthExceeded);
        }
        if self.depth() > 0 {
            // A TBEGINC inside a non-constrained transaction opens a normal
            // nesting level (§II.D).
            let p = if constrained {
                TbeginParams::constrained(params.grsm)
            } else {
                params
            };
            self.effective = self.effective.merge(&p);
            self.level_params.push(p);
            self.stats.nested_begins += 1;
            let depth = self.depth() as u16;
            self.tracer.emit(|| Event::TxBegin {
                constrained: false,
                depth,
            });
            return Ok(BeginOutcome::Nested);
        }

        // Outermost begin.
        self.effective = EffectiveControls::from_params(&params);
        self.level_params.push(params);
        self.outer = Some(OuterState {
            grsm: params.grsm,
            backup_grs: *grs,
            resume_ia: if constrained { tbegin_ia } else { next_ia },
            tdb_addr: params.tdb,
            constrained,
            tracker: constrained.then(|| ConstraintTracker::new(tbegin_ia)),
        });
        self.pending = None;
        self.tdc_countdown = self.tdc.draw_countdown(constrained, rng);
        if constrained {
            self.stats.tbegincs += 1;
        } else {
            self.stats.tbegins += 1;
        }
        self.tracer.emit(|| Event::TxBegin {
            constrained,
            depth: 1,
        });
        // TBEGIN is cracked into micro-ops: the two FXUs save two GR pairs
        // per cycle into the backup register file (§III.B), plus a TDB
        // accessibility test when one is specified.
        let cycles = 3
            + u64::from(params.grsm.pair_count().div_ceil(2))
            + if params.tdb.is_some() { 2 } else { 0 };
        Ok(BeginOutcome::Outermost { cycles })
    }

    /// Executes TEND.
    pub fn tend(&mut self) -> TendOutcome {
        if self.level_params.pop().is_none() {
            return TendOutcome::NotInTx;
        }
        if self.level_params.is_empty() {
            self.stats.commits += 1;
            self.outer = None;
            self.pending = None;
            self.tdc_countdown = None;
            self.speculation_disabled = false;
            self.abort_streak = 0;
            self.retry.on_commit();
            self.effective = EffectiveControls::from_params(&TbeginParams::new());
            self.tracer.emit(|| Event::TxCommit);
            TendOutcome::Commit { cycles: 2 }
        } else {
            // Recompute effective controls for the remaining nest.
            let mut eff = EffectiveControls::from_params(&self.level_params[0]);
            for p in &self.level_params[1..] {
                eff = eff.merge(p);
            }
            self.effective = eff;
            TendOutcome::Inner
        }
    }

    // ------------------------------------------------------------------
    // Per-instruction checks
    // ------------------------------------------------------------------

    /// Checks an instruction about to execute against the transactional
    /// rules: restricted instructions (§II.A), AR/FPR modification controls
    /// (§II.B), and the constrained-transaction constraints (§II.D).
    ///
    /// # Errors
    ///
    /// Returns the abort cause the instruction triggers.
    pub fn check_instruction(
        &mut self,
        class: InstrClass,
        ia: u64,
        len: u64,
    ) -> Result<(), AbortCause> {
        if !self.in_tx() {
            return Ok(());
        }
        if let Some(tracker) = self.outer.as_mut().and_then(|o| o.tracker.as_mut()) {
            if tracker.note_instruction(ia, len, class).is_err() {
                // Constraint violations are a non-filterable program
                // interruption (§II.D).
                return Err(AbortCause::UnfilteredProgramException(
                    ProgramException::ConstraintViolation,
                ));
            }
        }
        match class {
            InstrClass::RestrictedInTx => Err(AbortCause::RestrictedInstruction),
            InstrClass::ArModifying if !self.effective.allow_ar_mod => {
                Err(AbortCause::RestrictedInstruction)
            }
            InstrClass::FprModifying if !self.effective.allow_fp_mod => {
                Err(AbortCause::RestrictedInstruction)
            }
            _ => Ok(()),
        }
    }

    /// Records an operand access for the constrained footprint budget.
    ///
    /// # Errors
    ///
    /// Returns a constraint-violation abort cause when the 4-octoword budget
    /// is exceeded.
    pub fn note_data_access(&mut self, addr: Address, len: u64) -> Result<(), AbortCause> {
        if let Some(tracker) = self.outer.as_mut().and_then(|o| o.tracker.as_mut()) {
            if tracker.note_data_access(addr, len).is_err() {
                return Err(AbortCause::UnfilteredProgramException(
                    ProgramException::ConstraintViolation,
                ));
            }
        }
        Ok(())
    }

    /// Records a footprint event delivered by the cache layer (XI conflict,
    /// overflow). The first cause wins; later ones are ignored.
    pub fn note_footprint_event(&mut self, ev: FootprintEvent) {
        if self.in_tx() && self.pending.is_none() {
            self.pending = Some(AbortCause::from_footprint(ev));
        }
    }

    /// Raises an asynchronous interruption (timer/I/O), which aborts any
    /// pending transaction.
    pub fn raise_async_interruption(&mut self) {
        if self.in_tx() && self.pending.is_none() {
            self.pending = Some(AbortCause::AsynchronousInterruption);
        }
    }

    /// Records an arbitrary pending abort cause (TABORT, restricted
    /// instruction, diagnostic abort, program exception). The first pending
    /// cause wins; calls outside a transaction are ignored.
    pub fn set_pending(&mut self, cause: AbortCause) {
        if self.in_tx() && self.pending.is_none() {
            self.pending = Some(cause);
        }
    }

    /// The pending asynchronous abort cause, if any. The CPU model checks
    /// this at instruction boundaries (completion stalls against XIs,
    /// §III.C).
    pub fn pending_abort(&self) -> Option<AbortCause> {
        self.pending
    }

    /// Decides filtering for a program-exception condition detected inside
    /// the transaction. `instruction_fetch` exceptions are never filtered
    /// (§II.C).
    pub fn classify_exception(&self, pe: ProgramException, instruction_fetch: bool) -> AbortCause {
        let filtered = !instruction_fetch
            && pe.class() != ExceptionClass::Error
            && self.effective.pifc.filters(pe.class());
        if filtered {
            AbortCause::FilteredProgramException(pe)
        } else {
            AbortCause::UnfilteredProgramException(pe)
        }
    }

    /// Per-instruction diagnostic-control tick: returns a forced random
    /// abort cause when the TDC fires (§II.E.3).
    pub fn tdc_tick(&mut self, rng: &mut impl Rng) -> Option<AbortCause> {
        if !self.in_tx() {
            return None;
        }
        if let Some(cd) = self.tdc_countdown.as_mut() {
            *cd = cd.saturating_sub(1);
            if *cd == 0 {
                return Some(AbortCause::Diagnostic);
            }
        }
        if self.tdc.instruction_fires(rng) && !self.constrained() {
            return Some(AbortCause::Diagnostic);
        }
        None
    }

    /// Whether the diagnostic control could draw from the RNG or force an
    /// abort on upcoming instructions. With the control off and no armed
    /// countdown, `tdc_tick` is a pure no-op — the predicate the shard
    /// classifier needs before admitting in-transaction steps into a round
    /// (where an unexpected RNG draw or forced abort would diverge from the
    /// serial schedule).
    pub fn tdc_active(&self) -> bool {
        !matches!(self.tdc, DiagnosticControl::Off) || self.tdc_countdown.is_some()
    }

    /// Whether the diagnostic control demands an abort *instead of* the
    /// outermost TEND ("at latest before the outermost TEND", §II.E.3).
    pub fn tdc_forces_abort_at_tend(&self) -> bool {
        self.depth() == 1 && self.tdc_countdown.is_some() && !self.constrained()
    }

    /// The PPA (Perform Processor Assist) transaction-abort assist: the
    /// machine-owned random backoff delay for the given abort count (§II.A).
    pub fn ppa_tx_assist(&self, abort_count: u64, rng: &mut impl Rng) -> u64 {
        self.costs.ppa_delay(abort_count, rng)
    }

    // ------------------------------------------------------------------
    // Abort processing (millicode, §III.E)
    // ------------------------------------------------------------------

    /// Processes a transaction abort: restores architectural state, builds
    /// TDB images, selects the resume address and condition code, and runs
    /// the constrained-retry ladder.
    ///
    /// `grs` are the register contents *at the time of abort* (stored into
    /// the TDB); `atia` is the aborted-transaction instruction address.
    ///
    /// # Panics
    ///
    /// Panics if the CPU is not in transactional-execution mode.
    pub fn process_abort(
        &mut self,
        cause: AbortCause,
        grs: &[u64; 16],
        atia: u64,
        rng: &mut impl Rng,
    ) -> AbortOutcome {
        let outer = self
            .outer
            .take()
            .expect("abort processed outside a transaction");
        self.level_params.clear();
        self.pending = None;
        self.tdc_countdown = None;
        self.effective = EffectiveControls::from_params(&TbeginParams::new());

        self.abort_streak += 1;
        self.last_abort_code = cause.abort_code() as u16;
        self.stats.record_abort(cause);
        self.tracer.emit(|| Event::TxAbort {
            code: cause.abort_code() as u16,
            cc: cause.condition().value(),
            constrained: outer.constrained,
        });

        let gr_restores: Vec<(usize, u64)> = outer
            .grsm
            .pairs()
            .flat_map(|p| [2 * p, 2 * p + 1])
            .map(|r| (r, outer.backup_grs[r]))
            .collect();

        let translation = match cause {
            AbortCause::FilteredProgramException(ProgramException::PageFault { address })
            | AbortCause::UnfilteredProgramException(ProgramException::PageFault { address }) => {
                Some(address)
            }
            _ => None,
        };
        let tdb_image = Tdb::build(cause, atia, grs, self.abort_streak, translation);
        let os_interruption = cause.interrupts_os();

        let retry = if outer.constrained {
            if os_interruption {
                self.retry.on_os_interruption();
                None
            } else {
                let action = self.retry.on_abort(rng);
                if action.disable_speculation {
                    self.speculation_disabled = true;
                }
                if action.broadcast_stop {
                    self.stats.broadcast_stops += 1;
                }
                Some(action)
            }
        } else {
            None
        };

        let mut cycles = self.costs.abort_base
            + u64::from(outer.grsm.pair_count()) * self.costs.per_gr_pair_restore;
        if outer.tdb_addr.is_some() {
            cycles += self.costs.tdb_store;
        }

        AbortOutcome {
            cause,
            abort_code: cause.abort_code(),
            cc: cause.condition().value(),
            resume_ia: outer.resume_ia,
            gr_restores,
            tdb: outer.tdb_addr.map(|a| (a, tdb_image)),
            prefix_tdb: os_interruption.then_some(tdb_image),
            os_interruption,
            constrained: outer.constrained,
            retry,
            cycles,
        }
    }
}

impl Default for TxEngine {
    fn default() -> Self {
        TxEngine::new(TxEngineConfig::default())
    }
}

/// Folds the engine's state: the nest (levels, effective controls, the
/// outermost TBEGIN's saved state), the pending abort, the diagnostic
/// countdown, the retry ladder, the statistics, the speculation switch,
/// the abort streak and the last abort code. The diagnostic control and
/// the millicode costs are configuration and the tracer observes; they are
/// left out.
impl Hash for TxEngine {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let TxEngine {
            level_params,
            effective,
            outer,
            pending,
            tdc: _,
            tdc_countdown,
            retry,
            costs: _,
            stats,
            speculation_disabled,
            abort_streak,
            last_abort_code,
            tracer: _,
        } = self;
        level_params.hash(state);
        effective.hash(state);
        outer.hash(state);
        pending.hash(state);
        tdc_countdown.hash(state);
        retry.hash(state);
        stats.hash(state);
        speculation_disabled.hash(state);
        abort_streak.hash(state);
        last_abort_code.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ztm_cache::CpuId;
    use ztm_mem::LineAddr;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn begin(tx: &mut TxEngine, rng: &mut SmallRng) {
        tx.begin(TbeginParams::new(), false, &[0; 16], 0x100, 0x106, rng)
            .unwrap();
    }

    #[test]
    fn begin_tend_round_trip() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        assert!(!tx.in_tx());
        begin(&mut tx, &mut r);
        assert!(tx.in_tx());
        assert_eq!(tx.depth(), 1);
        assert!(matches!(tx.tend(), TendOutcome::Commit { .. }));
        assert!(!tx.in_tx());
        assert_eq!(tx.stats().commits, 1);
    }

    #[test]
    fn tend_outside_tx() {
        let mut tx = TxEngine::default();
        assert_eq!(tx.tend(), TendOutcome::NotInTx);
    }

    #[test]
    fn nesting_flattens_on_abort() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        begin(&mut tx, &mut r);
        for _ in 0..3 {
            tx.begin(TbeginParams::new(), false, &[0; 16], 0x200, 0x206, &mut r)
                .unwrap();
        }
        assert_eq!(tx.depth(), 4);
        let out = tx.process_abort(AbortCause::FetchOverflow, &[0; 16], 0x210, &mut r);
        assert_eq!(tx.depth(), 0, "flattened nesting: entire nest aborts");
        assert_eq!(out.resume_ia, 0x106, "resumes after the outermost TBEGIN");
    }

    #[test]
    fn max_nesting_depth_aborts() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        begin(&mut tx, &mut r);
        for _ in 1..MAX_NESTING_DEPTH {
            tx.begin(TbeginParams::new(), false, &[0; 16], 0, 6, &mut r)
                .unwrap();
        }
        assert_eq!(tx.depth(), 16);
        let err = tx
            .begin(TbeginParams::new(), false, &[0; 16], 0, 6, &mut r)
            .unwrap_err();
        assert_eq!(err, AbortCause::NestingDepthExceeded);
    }

    #[test]
    fn tbegin_inside_constrained_is_restricted() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        tx.begin(
            TbeginParams::constrained(GrSaveMask::ALL),
            true,
            &[0; 16],
            0x100,
            0x106,
            &mut r,
        )
        .unwrap();
        assert!(tx.constrained());
        let err = tx
            .begin(TbeginParams::new(), false, &[0; 16], 0x110, 0x116, &mut r)
            .unwrap_err();
        assert_eq!(err, AbortCause::RestrictedInstruction);
    }

    #[test]
    fn tbeginc_nested_in_tbegin_is_normal_level() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        begin(&mut tx, &mut r);
        let out = tx
            .begin(
                TbeginParams::constrained(GrSaveMask::ALL),
                true,
                &[0; 16],
                0x200,
                0x206,
                &mut r,
            )
            .unwrap();
        assert_eq!(out, BeginOutcome::Nested);
        assert!(!tx.constrained(), "nest stays non-constrained");
        assert_eq!(tx.stats().nested_begins, 1);
    }

    #[test]
    fn constrained_resumes_at_tbeginc() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        tx.begin(
            TbeginParams::constrained(GrSaveMask::ALL),
            true,
            &[0; 16],
            0x100,
            0x106,
            &mut r,
        )
        .unwrap();
        let out = tx.process_abort(
            AbortCause::Conflict {
                line: LineAddr::new(1),
                from: Some(CpuId(1)),
                store: false,
            },
            &[0; 16],
            0x110,
            &mut r,
        );
        assert_eq!(out.resume_ia, 0x100, "retry at the TBEGINC itself");
        assert!(out.constrained);
        assert!(out.retry.is_some());
    }

    #[test]
    fn gr_restore_respects_mask() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        let mut grs = [0u64; 16];
        for (i, g) in grs.iter_mut().enumerate() {
            *g = i as u64;
        }
        let params = TbeginParams {
            grsm: GrSaveMask::new(0b0000_0011), // pairs 0 and 1 → GRs 0..=3
            ..TbeginParams::new()
        };
        tx.begin(params, false, &grs, 0x100, 0x106, &mut r).unwrap();
        let out = tx.process_abort(AbortCause::Tabort(256), &[99; 16], 0x120, &mut r);
        assert_eq!(out.gr_restores.len(), 4);
        assert!(out.gr_restores.contains(&(3, 3)));
        assert!(!out.gr_restores.iter().any(|&(reg, _)| reg > 3));
    }

    #[test]
    fn tdb_stored_when_address_given() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        let params = TbeginParams {
            tdb: Some(Address::new(0x8000)),
            ..TbeginParams::new()
        };
        tx.begin(params, false, &[0; 16], 0x100, 0x106, &mut r)
            .unwrap();
        let out = tx.process_abort(
            AbortCause::Conflict {
                line: LineAddr::new(2),
                from: None,
                store: true,
            },
            &[5; 16],
            0x140,
            &mut r,
        );
        let (addr, tdb) = out.tdb.expect("TDB requested");
        assert_eq!(addr, Address::new(0x8000));
        assert_eq!(tdb.abort_code(), 10);
        assert_eq!(tdb.atia(), 0x140);
        assert_eq!(tdb.gr(4), 5);
        assert!(out.cycles > MillicodeCosts::zec12().abort_base);
    }

    #[test]
    fn prefix_tdb_only_on_os_interruption() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        begin(&mut tx, &mut r);
        let out = tx.process_abort(AbortCause::Tabort(258), &[0; 16], 0, &mut r);
        assert!(out.prefix_tdb.is_none());

        begin(&mut tx, &mut r);
        let out = tx.process_abort(
            AbortCause::UnfilteredProgramException(ProgramException::PageFault { address: 0x9000 }),
            &[0; 16],
            0,
            &mut r,
        );
        assert!(out.prefix_tdb.is_some());
        assert!(out.os_interruption);
        assert_eq!(out.prefix_tdb.unwrap().translation_address(), 0x9000);
    }

    #[test]
    fn restricted_instruction_checks() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        // Outside a transaction everything is allowed.
        assert!(tx
            .check_instruction(InstrClass::RestrictedInTx, 0, 4)
            .is_ok());
        begin(&mut tx, &mut r);
        assert!(tx.check_instruction(InstrClass::General, 0, 4).is_ok());
        assert_eq!(
            tx.check_instruction(InstrClass::RestrictedInTx, 0, 4),
            Err(AbortCause::RestrictedInstruction)
        );
        // Default controls forbid AR/FPR modification.
        assert_eq!(
            tx.check_instruction(InstrClass::FprModifying, 0, 4),
            Err(AbortCause::RestrictedInstruction)
        );
    }

    #[test]
    fn ar_mod_allowed_when_control_set() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        let params = TbeginParams {
            allow_ar_mod: true,
            ..TbeginParams::new()
        };
        tx.begin(params, false, &[0; 16], 0, 6, &mut r).unwrap();
        assert!(tx.check_instruction(InstrClass::ArModifying, 0, 4).is_ok());
        // Nested level with the control off makes the effective control off.
        tx.begin(TbeginParams::new(), false, &[0; 16], 0, 6, &mut r)
            .unwrap();
        assert_eq!(
            tx.check_instruction(InstrClass::ArModifying, 0, 4),
            Err(AbortCause::RestrictedInstruction)
        );
        // Closing the inner level restores the outer effective control.
        assert_eq!(tx.tend(), TendOutcome::Inner);
        assert!(tx.check_instruction(InstrClass::ArModifying, 0, 4).is_ok());
    }

    #[test]
    fn constrained_constraint_violation_is_unfiltered_exception() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        tx.begin(
            TbeginParams::constrained(GrSaveMask::ALL),
            true,
            &[0; 16],
            0x100,
            0x106,
            &mut r,
        )
        .unwrap();
        let mut err = None;
        for i in 0..40 {
            if let Err(e) = tx.check_instruction(InstrClass::General, 0x106 + 4 * i, 4) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(
            err,
            Some(AbortCause::UnfilteredProgramException(
                ProgramException::ConstraintViolation
            ))
        );
    }

    #[test]
    fn footprint_event_sets_pending_once() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        begin(&mut tx, &mut r);
        tx.note_footprint_event(FootprintEvent::Conflict {
            line: LineAddr::new(1),
            from: None,
            store: false,
        });
        tx.note_footprint_event(FootprintEvent::StoreOverflow { line: None });
        match tx.pending_abort() {
            Some(AbortCause::Conflict { line, .. }) => assert_eq!(line, LineAddr::new(1)),
            other => panic!("first cause should win, got {other:?}"),
        }
    }

    #[test]
    fn footprint_event_ignored_outside_tx() {
        let mut tx = TxEngine::default();
        tx.note_footprint_event(FootprintEvent::FetchOverflow {
            line: LineAddr::new(0),
        });
        assert_eq!(tx.pending_abort(), None);
    }

    #[test]
    fn exception_filtering_honors_pifc() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        let params = TbeginParams {
            pifc: crate::controls::Pifc::DataAndAccess,
            ..TbeginParams::new()
        };
        tx.begin(params, false, &[0; 16], 0, 6, &mut r).unwrap();
        let pf = ProgramException::PageFault { address: 0x1000 };
        assert!(matches!(
            tx.classify_exception(pf, false),
            AbortCause::FilteredProgramException(_)
        ));
        // Instruction-fetch exceptions are never filtered (§II.C).
        assert!(matches!(
            tx.classify_exception(pf, true),
            AbortCause::UnfilteredProgramException(_)
        ));
        // Programming errors are never filtered.
        assert!(matches!(
            tx.classify_exception(ProgramException::Operation, false),
            AbortCause::UnfilteredProgramException(_)
        ));
    }

    #[test]
    fn tdc_always_abort_fires_before_tend() {
        let mut r = rng();
        let mut tx = TxEngine::new(TxEngineConfig {
            diagnostic: DiagnosticControl::AlwaysAbort { max_point: 1000 },
            ..TxEngineConfig::default()
        });
        begin(&mut tx, &mut r);
        // Either a tick fires first, or the TEND-time check forces it.
        let mut fired = tx.tdc_tick(&mut r).is_some();
        fired |= tx.tdc_forces_abort_at_tend();
        assert!(fired);
    }

    #[test]
    fn abort_streak_recorded_in_tdb() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        let params = TbeginParams {
            tdb: Some(Address::new(0x8000)),
            ..TbeginParams::new()
        };
        for expected in 1..=3u64 {
            tx.begin(params, false, &[0; 16], 0, 6, &mut r).unwrap();
            let out = tx.process_abort(AbortCause::FetchOverflow, &[0; 16], 0, &mut r);
            assert_eq!(out.tdb.unwrap().1.abort_count(), expected);
        }
        tx.begin(params, false, &[0; 16], 0, 6, &mut r).unwrap();
        tx.tend();
        tx.begin(params, false, &[0; 16], 0, 6, &mut r).unwrap();
        let out = tx.process_abort(AbortCause::FetchOverflow, &[0; 16], 0, &mut r);
        assert_eq!(out.tdb.unwrap().1.abort_count(), 1, "commit resets streak");
    }

    #[test]
    fn speculation_disabled_persists_until_commit() {
        let mut r = rng();
        let mut tx = TxEngine::default();
        for _ in 0..5 {
            tx.begin(
                TbeginParams::constrained(GrSaveMask::ALL),
                true,
                &[0; 16],
                0x100,
                0x106,
                &mut r,
            )
            .unwrap();
            tx.process_abort(
                AbortCause::Conflict {
                    line: LineAddr::new(1),
                    from: None,
                    store: false,
                },
                &[0; 16],
                0x110,
                &mut r,
            );
        }
        assert!(tx.speculation_disabled());
        tx.begin(
            TbeginParams::constrained(GrSaveMask::ALL),
            true,
            &[0; 16],
            0x100,
            0x106,
            &mut r,
        )
        .unwrap();
        tx.tend();
        assert!(!tx.speculation_disabled(), "commit re-enables speculation");
    }
}
