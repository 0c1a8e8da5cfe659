//! Per-CPU transactional-execution statistics.

use crate::abort::AbortCause;
use std::collections::BTreeMap;

/// Counters describing one CPU's transactional activity. Benchmarks
/// aggregate these to compute abort rates and abort-reason histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TxStats {
    /// Outermost TBEGIN executions.
    pub tbegins: u64,
    /// Outermost TBEGINC executions.
    pub tbegincs: u64,
    /// Nested (inner) transaction begins.
    pub nested_begins: u64,
    /// Successful outermost commits.
    pub commits: u64,
    /// Aborts, total.
    pub aborts: u64,
    /// Aborts by architected abort code.
    pub aborts_by_code: BTreeMap<u64, u64>,
    /// Aborts whose program-exception condition was filtered.
    pub filtered_exceptions: u64,
    /// Aborts that interrupted into the OS.
    pub os_interruptions: u64,
    /// Broadcast-stop quiesce events requested by constrained retries.
    pub broadcast_stops: u64,
}

impl TxStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an abort.
    pub fn record_abort(&mut self, cause: AbortCause) {
        self.aborts += 1;
        *self.aborts_by_code.entry(cause.abort_code()).or_default() += 1;
        if matches!(cause, AbortCause::FilteredProgramException(_)) {
            self.filtered_exceptions += 1;
        }
        if cause.interrupts_os() {
            self.os_interruptions += 1;
        }
    }

    /// Fraction of started outermost transactions that aborted at least
    /// once: `aborts / (commits + aborts)`. Returns 0 for no activity.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Merges another CPU's counters into this one.
    pub fn merge(&mut self, other: &TxStats) {
        self.tbegins += other.tbegins;
        self.tbegincs += other.tbegincs;
        self.nested_begins += other.nested_begins;
        self.commits += other.commits;
        self.aborts += other.aborts;
        for (code, n) in &other.aborts_by_code {
            *self.aborts_by_code.entry(*code).or_default() += n;
        }
        self.filtered_exceptions += other.filtered_exceptions;
        self.os_interruptions += other.os_interruptions;
        self.broadcast_stops += other.broadcast_stops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ztm_mem::LineAddr;

    #[test]
    fn abort_rate_math() {
        let mut s = TxStats::new();
        assert_eq!(s.abort_rate(), 0.0);
        s.commits = 3;
        s.record_abort(AbortCause::FetchOverflow);
        assert!((s.abort_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_by_code() {
        let mut s = TxStats::new();
        s.record_abort(AbortCause::Conflict {
            line: LineAddr::new(0),
            from: None,
            store: false,
        });
        s.record_abort(AbortCause::Conflict {
            line: LineAddr::new(1),
            from: None,
            store: false,
        });
        s.record_abort(AbortCause::StoreOverflow);
        assert_eq!(s.aborts_by_code.get(&9), Some(&2));
        assert_eq!(s.aborts_by_code.get(&8), Some(&1));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = TxStats::new();
        a.commits = 1;
        a.record_abort(AbortCause::Diagnostic);
        let mut b = TxStats::new();
        b.commits = 2;
        b.record_abort(AbortCause::Diagnostic);
        a.merge(&b);
        assert_eq!(a.commits, 3);
        assert_eq!(a.aborts, 2);
        assert_eq!(a.aborts_by_code.get(&255), Some(&2));
    }
}
