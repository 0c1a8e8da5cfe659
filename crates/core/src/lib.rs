//! The zEC12 Transactional Execution facility — the paper's primary
//! contribution, implemented as a library over the `ztm-cache` substrate.
//!
//! This crate owns the *architectural* transaction machinery of
//! *"Transactional Memory Architecture and Implementation for IBM System z"*
//! (MICRO-45, 2012):
//!
//! * [`TxEngine`] — the per-CPU transaction state machine: nesting (up to
//!   depth 16, flattened on abort), the transaction-backup register file,
//!   effective AR/FPR/PIFC controls, and millicode abort processing
//!   (§II.A/§II.B, §III.B/§III.E).
//! * [`TbeginParams`]/[`GrSaveMask`]/[`Pifc`] — the TBEGIN operand fields
//!   (§II.B, Figure 2) and interruption filtering (§II.C).
//! * [`ConstraintTracker`] — the constrained-transaction programming
//!   constraints: ≤ 32 instructions, 256-byte text span, forward relative
//!   branches only, ≤ 4 octowords of data (§II.D).
//! * [`Tdb`] — the 256-byte Transaction Diagnostic Block (§II.E.1).
//! * [`DiagnosticControl`] — forced random aborts for testing abort and
//!   fallback paths (§II.E.3).
//! * [`ConstrainedRetry`]/[`MillicodeCosts`] — the millicode retry
//!   escalation ladder that makes constrained transactions eventually
//!   succeed, and the PPA random-backoff assist (§III.E).
//! * [`AbortCause`]/[`AbortCc`] — abort reasons, architected abort codes,
//!   and the transient/permanent condition-code split (§II.A).
//!
//! The engine owns no memory or cache state; the `ztm-sim` system simulator
//! coordinates it with [`ztm_cache::PrivateCache`] and delivers
//! [`ztm_cache::FootprintEvent`]s into [`TxEngine::note_footprint_event`].

#![forbid(unsafe_code)]

mod abort;
mod constraints;
mod controls;
mod diag;
mod engine;
mod millicode;
mod stats;
mod tdb;

pub use abort::{AbortCause, AbortCc, ExceptionClass, ProgramException};
pub use constraints::{
    ConstraintTracker, ConstraintViolation, InstrClass, MAX_CONSTRAINED_INSTRUCTIONS,
    MAX_CONSTRAINED_OCTOWORDS, MAX_CONSTRAINED_TEXT_SPAN,
};
pub use controls::{EffectiveControls, GrSaveMask, Pifc, TbeginParams};
pub use diag::DiagnosticControl;
pub use engine::{
    AbortOutcome, BeginOutcome, TendOutcome, TxEngine, TxEngineConfig, MAX_NESTING_DEPTH,
};
pub use millicode::{ConstrainedRetry, MillicodeCosts, RetryAction, RetryLadderConfig};
pub use stats::TxStats;
pub use tdb::{Tdb, TDB_SIZE};
