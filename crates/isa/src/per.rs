//! Program Event Recording (PER) with the two transactional-memory
//! extensions of §II.E.2: event suppression and the PER TEND event.

/// PER controls for one CPU (a simplified model of the z control registers).
///
/// PER monitors instruction fetches and stores within address ranges and is
/// the mechanism behind watch-points and single-stepping (z/OS SLIP traps,
/// GDB). For transactional memory the paper adds:
///
/// * **event suppression** ([`Self::event_suppression`]): no PER events are
///   recognized while in transactional-execution mode, making a transaction
///   look like one "big instruction" to a single-stepping debugger;
/// * **the TEND event** ([`Self::tend_event`]): triggers on successful
///   completion of an outermost TEND, so a debugger can re-check its
///   watch-points at transaction granularity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PerControls {
    /// Master enable.
    pub enabled: bool,
    /// Suppress PER events while in transactional-execution mode (§II.E.2).
    pub event_suppression: bool,
    /// Trigger an event when an outermost TEND completes (§II.E.2).
    pub tend_event: bool,
    /// Instruction-fetch monitoring range `[start, end]` (inclusive).
    pub ifetch_range: Option<(u64, u64)>,
    /// Store monitoring range `[start, end]` (inclusive).
    pub store_range: Option<(u64, u64)>,
}

impl PerControls {
    /// PER disabled entirely.
    pub fn disabled() -> Self {
        Self::default()
    }

    fn in_range(range: Option<(u64, u64)>, lo: u64, hi: u64) -> bool {
        match range {
            Some((s, e)) => lo <= e && hi >= s,
            None => false,
        }
    }

    /// Whether fetching the instruction at `ia` raises a PER event, given
    /// the CPU's transactional state.
    pub fn ifetch_event(&self, ia: u64, in_tx: bool) -> bool {
        self.enabled
            && !(in_tx && self.event_suppression)
            && Self::in_range(self.ifetch_range, ia, ia)
    }

    /// Whether a store of `len` bytes at `addr` raises a PER event.
    pub fn store_event(&self, addr: u64, len: u64, in_tx: bool) -> bool {
        self.enabled
            && !(in_tx && self.event_suppression)
            && Self::in_range(self.store_range, addr, addr + len.saturating_sub(1))
    }

    /// Whether an outermost TEND completion raises the PER TEND event.
    /// (The transaction has already committed; suppression does not apply.)
    pub fn tend_event_fires(&self) -> bool {
        self.enabled && self.tend_event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let p = PerControls::disabled();
        assert!(!p.ifetch_event(0, false));
        assert!(!p.store_event(0, 8, false));
        assert!(!p.tend_event_fires());
    }

    #[test]
    fn ifetch_range_matching() {
        let p = PerControls {
            enabled: true,
            ifetch_range: Some((0x100, 0x1ff)),
            ..PerControls::default()
        };
        assert!(p.ifetch_event(0x100, false));
        assert!(p.ifetch_event(0x1ff, false));
        assert!(!p.ifetch_event(0x200, false));
        assert!(!p.ifetch_event(0xff, false));
    }

    #[test]
    fn store_range_overlap() {
        let p = PerControls {
            enabled: true,
            store_range: Some((0x1000, 0x100f)),
            ..PerControls::default()
        };
        // 8-byte store straddling the range start.
        assert!(p.store_event(0xff8, 16, false));
        assert!(p.store_event(0x1008, 8, false));
        assert!(!p.store_event(0x1010, 8, false));
    }

    #[test]
    fn suppression_only_in_tx() {
        let p = PerControls {
            enabled: true,
            event_suppression: true,
            ifetch_range: Some((0, u64::MAX)),
            store_range: Some((0, u64::MAX)),
            ..PerControls::default()
        };
        assert!(p.ifetch_event(0x100, false), "fires outside tx");
        assert!(!p.ifetch_event(0x100, true), "suppressed inside tx");
        assert!(!p.store_event(0x100, 8, true));
    }

    #[test]
    fn tend_event_knob() {
        let p = PerControls {
            enabled: true,
            tend_event: true,
            ..PerControls::default()
        };
        assert!(p.tend_event_fires());
        let q = PerControls {
            enabled: false,
            tend_event: true,
            ..PerControls::default()
        };
        assert!(!q.tend_event_fires());
    }
}
