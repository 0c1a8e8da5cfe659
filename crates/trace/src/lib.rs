//! Deterministic event tracing, metrics export, and trace-invariant checking
//! for the ztm simulator.
//!
//! The crate sits at the bottom of the workspace dependency stack (it depends
//! on nothing, every simulator layer depends on it), so events carry plain
//! integers rather than the typed addresses and CPU ids of the upper layers.
//!
//! Three pieces:
//!
//! * [`Tracer`] — a cheap cloneable handle threaded through the cache
//!   hierarchy, transaction engine, millicode ladder and fabric. When tracing
//!   is disabled (the default) an emission is a single `Option` check and the
//!   event-construction closure is never evaluated.
//! * [`Recorder`] — a bounded ring buffer of [`TracedEvent`]s that also folds
//!   every event (including ones later overwritten by ring wraparound) into a
//!   64-bit order- and content-sensitive digest and into incremental
//!   [`Metrics`]. Exports Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`) and machine-readable metrics JSON.
//! * [`check_invariants`] — a trace-replay checker asserting the isolation
//!   and coherence properties the zEC12 design promises: no commit after a
//!   conflicting exclusive XI was accepted inside the transaction window,
//!   tx-dirty lines are never observed by another CPU pre-commit, inclusive
//!   hierarchy containment, and constrained-retry ladder monotonicity.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// XI kind codes mirrored from `ztm_cache::XiKind` (which cannot be imported
/// here without inverting the dependency direction).
pub mod xi_kind {
    /// Exclusive (invalidating) cross-interrogate.
    pub const EXCLUSIVE: u8 = 0;
    /// Demote (exclusive → read-only) cross-interrogate.
    pub const DEMOTE: u8 = 1;
    /// Read-only-copy invalidation.
    pub const READ_ONLY: u8 = 2;
    /// LRU (capacity) eviction notice.
    pub const LRU: u8 = 3;

    /// Human-readable name for a kind code.
    pub fn name(kind: u8) -> &'static str {
        match kind {
            EXCLUSIVE => "exclusive",
            DEMOTE => "demote",
            READ_ONLY => "read-only",
            LRU => "lru",
            _ => "unknown",
        }
    }
}

/// Where an access was satisfied locally.
pub mod hit_level {
    /// Missed both private levels.
    pub const MISS: u8 = 0;
    /// Satisfied by the L1.
    pub const L1: u8 = 1;
    /// Satisfied by the L2 (L1 refill).
    pub const L2: u8 = 2;
}

/// One simulator event. Fields are plain integers; `line` is always a
/// [`LineAddr` index](https://docs.rs/), i.e. byte address / 256, and
/// `half` a 128-byte granule index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A data access presented to the private cache.
    Access {
        /// Line index.
        line: u64,
        /// Whether the access wants store (exclusive) rights.
        store: bool,
        /// [`hit_level`] code.
        hit: u8,
        /// Issued inside a transaction.
        tx: bool,
    },
    /// A line installed into the private hierarchy after a fetch.
    Install {
        /// Line index.
        line: u64,
        /// Installed with exclusive rights.
        excl: bool,
        /// Installed on behalf of a transaction.
        tx: bool,
    },
    /// A line evicted from a private cache level.
    Evict {
        /// Line index.
        line: u64,
        /// Cache level it left (1 or 2).
        level: u8,
        /// The line was transactionally read (L1 footprint).
        tx_read: bool,
        /// The line carried transactional store data (L2 footprint).
        tx_dirty: bool,
    },
    /// The fabric announced a cross-interrogate at a remote CPU (every XI
    /// of a fetch is announced before the first is delivered).
    XiIssue {
        /// Target CPU.
        to: u16,
        /// Line index.
        line: u64,
        /// [`xi_kind`] code.
        kind: u8,
    },
    /// The receiving CPU accepted an XI.
    XiAccept {
        /// Line index.
        line: u64,
        /// [`xi_kind`] code.
        kind: u8,
        /// The XI compared against the receiver's transactional footprint.
        conflict: bool,
    },
    /// The receiving CPU stiff-armed (rejected) an XI.
    XiReject {
        /// Line index.
        line: u64,
        /// [`xi_kind`] code.
        kind: u8,
        /// Running per-requester reject count (§III.C).
        count: u32,
    },
    /// Reject threshold exceeded: the receiver aborts rather than hang the
    /// requester (§III.C).
    RejectHang {
        /// Line index.
        line: u64,
    },
    /// A store gathered into an existing open store-cache entry.
    StoreGather {
        /// Line index.
        line: u64,
        /// Transactional store.
        tx: bool,
        /// Non-Transactional Store instruction.
        ntstg: bool,
    },
    /// A store allocated a new store-cache entry.
    StoreNewEntry {
        /// Line index.
        line: u64,
        /// Transactional store.
        tx: bool,
        /// Non-Transactional Store instruction.
        ntstg: bool,
    },
    /// Outermost TBEGIN closed the pre-existing store-cache entries for
    /// gathering (§III.D).
    StoreClose {
        /// Entries dropped/closed at that point.
        entries: u16,
    },
    /// A gathered granule drained toward L2/L3 at commit (all bytes) or
    /// abort (NTSTG doublewords only).
    StoreDrain {
        /// 128-byte granule index.
        half: u64,
        /// Valid bytes carried.
        bytes: u16,
    },
    /// Store-footprint overflow: every entry belongs to the current
    /// transaction and the store matches none (§III.D).
    StoreOverflow {
        /// Line index of the store that could not be placed.
        line: u64,
    },
    /// TBEGIN / TBEGINC executed successfully.
    TxBegin {
        /// Constrained transaction (TBEGINC).
        constrained: bool,
        /// Nesting depth after the begin (1 = outermost).
        depth: u16,
    },
    /// Outermost TEND committed.
    TxCommit,
    /// Transaction aborted.
    TxAbort {
        /// Architected abort code.
        code: u16,
        /// Condition code delivered to the TBEGIN path.
        cc: u8,
        /// The aborted transaction was constrained.
        constrained: bool,
    },
    /// The constrained-retry millicode ladder produced its next action
    /// (§III.E).
    LadderStage {
        /// Consecutive abort count driving the ladder.
        attempt: u32,
        /// Random exponential-backoff delay in cycles.
        delay: u64,
        /// Speculative instruction fetch disabled for the retry.
        disable_spec: bool,
        /// Broadcast-stop (quiesce other CPUs) requested for the retry.
        broadcast_stop: bool,
    },
    /// A fabric channel transfer was serialized behind earlier traffic.
    FabricOccupy {
        /// Queueing delay in cycles added by channel occupancy.
        queued: u64,
    },
    /// The in-order pipeline window closed an issue group (emitted only
    /// when the issue width is above 1, so width-1 streams are unchanged).
    IssueGroup {
        /// Configured issue width.
        width: u8,
        /// Instructions that issued together in the closed cycle.
        size: u8,
    },
    /// An instruction's issue was delayed by a pipeline hazard.
    IssueStall {
        /// `ztm_isa::StallReason` code: 0 register, 1 condition code,
        /// 2 store ordering.
        reason: u8,
        /// Cycles waited beyond the hazard-free issue cycle.
        waited: u64,
    },
    /// The software-TM runtime acquired or released a stripe write-lock.
    StmLock {
        /// Acquired (true) or released (false).
        acquired: bool,
        /// Simulated byte address of the stripe lockword.
        addr: u64,
    },
    /// TL2 read-set validation outcome at STM commit.
    StmValidation {
        /// Validation passed.
        ok: bool,
        /// Read-set size on pass; offending lockword address on failure.
        info: u64,
    },
    /// The HTM retry ladder dropped into the STM fallback path.
    StmFallback {
        /// HTM attempt count at the transition.
        attempt: u32,
        /// Architected abort code of the final HTM attempt.
        code: u16,
    },
    /// Software-TM transaction phase marker.
    StmTx {
        /// 0 = begin, 1 = commit, 2 = abort-retry.
        phase: u8,
        /// Sampled read version (begin), write-set size (commit), or
        /// attempt count (abort-retry).
        info: u64,
    },
}

impl Event {
    /// Short stable name used as the Chrome trace-event `name` field.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::Access { .. } => "access",
            Event::Install { .. } => "install",
            Event::Evict { .. } => "evict",
            Event::XiIssue { .. } => "xi-issue",
            Event::XiAccept { .. } => "xi-accept",
            Event::XiReject { .. } => "xi-reject",
            Event::RejectHang { .. } => "reject-hang",
            Event::StoreGather { .. } => "store-gather",
            Event::StoreNewEntry { .. } => "store-new",
            Event::StoreClose { .. } => "store-close",
            Event::StoreDrain { .. } => "store-drain",
            Event::StoreOverflow { .. } => "store-overflow",
            Event::TxBegin { .. } => "tx",
            Event::TxCommit => "tx",
            Event::TxAbort { .. } => "tx",
            Event::LadderStage { .. } => "ladder",
            Event::FabricOccupy { .. } => "fabric",
            Event::IssueGroup { .. } => "issue-group",
            Event::IssueStall { .. } => "issue-stall",
            Event::StmLock { .. } => "stm-lock",
            Event::StmValidation { .. } => "stm-validate",
            Event::StmFallback { .. } => "stm-fallback",
            Event::StmTx { .. } => "stm-tx",
        }
    }

    /// Compact, stable, line-oriented encoding: a two-letter tag followed by
    /// `key=value` pairs. Feeds the trace digest and the `args.enc` field of
    /// the Chrome export, from which [`decode`](Event::decode) round-trips.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        self.encode_into(&mut s)
            .expect("writing to a String cannot fail");
        s
    }

    /// Streams the [`encode`](Event::encode) bytes into any [`fmt::Write`]
    /// without materializing a `String`. The digest path folds through this
    /// (see the private `fold_digest`), so digest bytes and `encode()`
    /// output are identical by construction.
    ///
    /// Every value in the encoding is an unsigned decimal integer, so the
    /// fields are written with the private `write_dec` rather than through
    /// `fmt::Arguments` — the `write!` interpreter cost per field was the
    /// dominant term of the digest fold on the hot path.
    pub fn encode_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        fn b(v: bool) -> &'static str {
            if v {
                "1"
            } else {
                "0"
            }
        }
        match *self {
            Event::Access {
                line,
                store,
                hit,
                tx,
            } => {
                out.write_str("AC l=")?;
                write_dec(out, line)?;
                out.write_str(" s=")?;
                out.write_str(b(store))?;
                out.write_str(" h=")?;
                write_dec(out, hit as u64)?;
                out.write_str(" t=")?;
                out.write_str(b(tx))
            }
            Event::Install { line, excl, tx } => {
                out.write_str("IN l=")?;
                write_dec(out, line)?;
                out.write_str(" e=")?;
                out.write_str(b(excl))?;
                out.write_str(" t=")?;
                out.write_str(b(tx))
            }
            Event::Evict {
                line,
                level,
                tx_read,
                tx_dirty,
            } => {
                out.write_str("EV l=")?;
                write_dec(out, line)?;
                out.write_str(" v=")?;
                write_dec(out, level as u64)?;
                out.write_str(" r=")?;
                out.write_str(b(tx_read))?;
                out.write_str(" d=")?;
                out.write_str(b(tx_dirty))
            }
            Event::XiIssue { to, line, kind } => {
                out.write_str("XI t=")?;
                write_dec(out, to as u64)?;
                out.write_str(" l=")?;
                write_dec(out, line)?;
                out.write_str(" k=")?;
                write_dec(out, kind as u64)
            }
            Event::XiAccept {
                line,
                kind,
                conflict,
            } => {
                out.write_str("XA l=")?;
                write_dec(out, line)?;
                out.write_str(" k=")?;
                write_dec(out, kind as u64)?;
                out.write_str(" c=")?;
                out.write_str(b(conflict))
            }
            Event::XiReject { line, kind, count } => {
                out.write_str("XR l=")?;
                write_dec(out, line)?;
                out.write_str(" k=")?;
                write_dec(out, kind as u64)?;
                out.write_str(" n=")?;
                write_dec(out, count as u64)
            }
            Event::RejectHang { line } => {
                out.write_str("RH l=")?;
                write_dec(out, line)
            }
            Event::StoreGather { line, tx, ntstg } => {
                out.write_str("SG l=")?;
                write_dec(out, line)?;
                out.write_str(" t=")?;
                out.write_str(b(tx))?;
                out.write_str(" n=")?;
                out.write_str(b(ntstg))
            }
            Event::StoreNewEntry { line, tx, ntstg } => {
                out.write_str("SN l=")?;
                write_dec(out, line)?;
                out.write_str(" t=")?;
                out.write_str(b(tx))?;
                out.write_str(" n=")?;
                out.write_str(b(ntstg))
            }
            Event::StoreClose { entries } => {
                out.write_str("SC e=")?;
                write_dec(out, entries as u64)
            }
            Event::StoreDrain { half, bytes } => {
                out.write_str("SD h=")?;
                write_dec(out, half)?;
                out.write_str(" b=")?;
                write_dec(out, bytes as u64)
            }
            Event::StoreOverflow { line } => {
                out.write_str("SO l=")?;
                write_dec(out, line)
            }
            Event::TxBegin { constrained, depth } => {
                out.write_str("TB c=")?;
                out.write_str(b(constrained))?;
                out.write_str(" d=")?;
                write_dec(out, depth as u64)
            }
            Event::TxCommit => out.write_str("TC"),
            Event::TxAbort {
                code,
                cc,
                constrained,
            } => {
                out.write_str("TA a=")?;
                write_dec(out, code as u64)?;
                out.write_str(" c=")?;
                write_dec(out, cc as u64)?;
                out.write_str(" n=")?;
                out.write_str(b(constrained))
            }
            Event::LadderStage {
                attempt,
                delay,
                disable_spec,
                broadcast_stop,
            } => {
                out.write_str("LS a=")?;
                write_dec(out, attempt as u64)?;
                out.write_str(" w=")?;
                write_dec(out, delay)?;
                out.write_str(" s=")?;
                out.write_str(b(disable_spec))?;
                out.write_str(" b=")?;
                out.write_str(b(broadcast_stop))
            }
            Event::FabricOccupy { queued } => {
                out.write_str("FO q=")?;
                write_dec(out, queued)
            }
            Event::IssueGroup { width, size } => {
                out.write_str("IG w=")?;
                write_dec(out, width as u64)?;
                out.write_str(" s=")?;
                write_dec(out, size as u64)
            }
            Event::IssueStall { reason, waited } => {
                out.write_str("IS r=")?;
                write_dec(out, reason as u64)?;
                out.write_str(" w=")?;
                write_dec(out, waited)
            }
            Event::StmLock { acquired, addr } => {
                out.write_str("SL a=")?;
                out.write_str(b(acquired))?;
                out.write_str(" d=")?;
                write_dec(out, addr)
            }
            Event::StmValidation { ok, info } => {
                out.write_str("SV o=")?;
                out.write_str(b(ok))?;
                out.write_str(" i=")?;
                write_dec(out, info)
            }
            Event::StmFallback { attempt, code } => {
                out.write_str("SF a=")?;
                write_dec(out, attempt as u64)?;
                out.write_str(" c=")?;
                write_dec(out, code as u64)
            }
            Event::StmTx { phase, info } => {
                out.write_str("SP p=")?;
                write_dec(out, phase as u64)?;
                out.write_str(" i=")?;
                write_dec(out, info)
            }
        }
    }

    /// Parses a string produced by [`encode`](Event::encode).
    pub fn decode(s: &str) -> Result<Event, String> {
        let mut parts = s.split_whitespace();
        let tag = parts.next().ok_or_else(|| "empty event".to_string())?;
        let mut fields: BTreeMap<&str, u64> = BTreeMap::new();
        for p in parts {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| format!("malformed field {p:?} in {s:?}"))?;
            let v: u64 = v
                .parse()
                .map_err(|_| format!("non-numeric value {p:?} in {s:?}"))?;
            fields.insert(k, v);
        }
        let get = |k: &str| -> Result<u64, String> {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| format!("missing field {k:?} in {s:?}"))
        };
        let ev = match tag {
            "AC" => Event::Access {
                line: get("l")?,
                store: get("s")? != 0,
                hit: get("h")? as u8,
                tx: get("t")? != 0,
            },
            "IN" => Event::Install {
                line: get("l")?,
                excl: get("e")? != 0,
                tx: get("t")? != 0,
            },
            "EV" => Event::Evict {
                line: get("l")?,
                level: get("v")? as u8,
                tx_read: get("r")? != 0,
                tx_dirty: get("d")? != 0,
            },
            "XI" => Event::XiIssue {
                to: get("t")? as u16,
                line: get("l")?,
                kind: get("k")? as u8,
            },
            "XA" => Event::XiAccept {
                line: get("l")?,
                kind: get("k")? as u8,
                conflict: get("c")? != 0,
            },
            "XR" => Event::XiReject {
                line: get("l")?,
                kind: get("k")? as u8,
                count: get("n")? as u32,
            },
            "RH" => Event::RejectHang { line: get("l")? },
            "SG" => Event::StoreGather {
                line: get("l")?,
                tx: get("t")? != 0,
                ntstg: get("n")? != 0,
            },
            "SN" => Event::StoreNewEntry {
                line: get("l")?,
                tx: get("t")? != 0,
                ntstg: get("n")? != 0,
            },
            "SC" => Event::StoreClose {
                entries: get("e")? as u16,
            },
            "SD" => Event::StoreDrain {
                half: get("h")?,
                bytes: get("b")? as u16,
            },
            "SO" => Event::StoreOverflow { line: get("l")? },
            "TB" => Event::TxBegin {
                constrained: get("c")? != 0,
                depth: get("d")? as u16,
            },
            "TC" => Event::TxCommit,
            "TA" => Event::TxAbort {
                code: get("a")? as u16,
                cc: get("c")? as u8,
                constrained: get("n")? != 0,
            },
            "LS" => Event::LadderStage {
                attempt: get("a")? as u32,
                delay: get("w")?,
                disable_spec: get("s")? != 0,
                broadcast_stop: get("b")? != 0,
            },
            "FO" => Event::FabricOccupy { queued: get("q")? },
            "IG" => Event::IssueGroup {
                width: get("w")? as u8,
                size: get("s")? as u8,
            },
            "IS" => Event::IssueStall {
                reason: get("r")? as u8,
                waited: get("w")?,
            },
            "SL" => Event::StmLock {
                acquired: get("a")? != 0,
                addr: get("d")?,
            },
            "SV" => Event::StmValidation {
                ok: get("o")? != 0,
                info: get("i")?,
            },
            "SF" => Event::StmFallback {
                attempt: get("a")? as u32,
                code: get("c")? as u16,
            },
            "SP" => Event::StmTx {
                phase: get("p")? as u8,
                info: get("i")?,
            },
            other => return Err(format!("unknown event tag {other:?}")),
        };
        Ok(ev)
    }
}

/// An event stamped with the emitting CPU and the simulated cycle clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Simulated cycle at emission.
    pub clock: u64,
    /// Emitting (or attributed) CPU.
    pub cpu: u16,
    /// The event payload.
    pub event: Event,
}

/// Consumer of traced events. [`Recorder`] is the in-tree implementation;
/// tests substitute their own.
pub trait TraceSink {
    /// Receives one event.
    fn record(&mut self, clock: u64, cpu: u16, event: Event);
}

/// Cheap cloneable tracing handle.
///
/// A disabled tracer (the [`Default`]) makes [`emit`](Tracer::emit) a single
/// `Option` check; the event-construction closure is never run, so the
/// instrumented fast paths pay nothing when tracing is off.
///
/// All clones share the sink and the cycle clock; [`for_cpu`](Tracer::for_cpu)
/// derives a clone whose emissions are attributed to a given CPU.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<dyn TraceSink + Send>>>,
    clock: Arc<AtomicU64>,
    cpu: u16,
}

/// A streaming trace digest: folds every stamped event into an FNV-1a state
/// and counts the events, keeping nothing else. [`Recorder`] digests through
/// one of these, so any sink that embeds a `DigestSink` reports the
/// recorder's digest for the same stream.
#[derive(Debug, Clone)]
pub struct DigestSink {
    state: u64,
    events: u64,
}

impl DigestSink {
    /// An empty sink (digest of the empty stream).
    pub fn new() -> DigestSink {
        DigestSink {
            state: FNV_OFFSET,
            events: 0,
        }
    }

    /// Folds one stamped event.
    #[inline]
    pub fn fold(&mut self, clock: u64, cpu: u16, event: &Event) {
        self.state = fold_digest(self.state, clock, cpu, event);
        self.events += 1;
    }

    /// The running digest over everything folded so far.
    pub fn digest(&self) -> u64 {
        self.state
    }

    /// How many events have been folded.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .field("cpu", &self.cpu)
            .finish()
    }
}

impl Tracer {
    /// A tracer that drops everything (the default state of every component).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer feeding a fresh bounded [`Recorder`]; returns both.
    pub fn recording(capacity: usize) -> (Tracer, Arc<Mutex<Recorder>>) {
        let recorder = Arc::new(Mutex::new(Recorder::new(capacity)));
        (Tracer::with_sink(recorder.clone()), recorder)
    }

    /// A tracer over an arbitrary sink.
    pub fn with_sink(sink: Arc<Mutex<dyn TraceSink + Send>>) -> Tracer {
        Tracer {
            sink: Some(sink),
            clock: Arc::new(AtomicU64::new(0)),
            cpu: 0,
        }
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A clone whose emissions are attributed to `cpu`.
    pub fn for_cpu(&self, cpu: u16) -> Tracer {
        Tracer {
            sink: self.sink.clone(),
            clock: self.clock.clone(),
            cpu,
        }
    }

    /// Advances the shared cycle clock (shared across all clones).
    pub fn set_clock(&self, now: u64) {
        self.clock.store(now, Ordering::Relaxed);
    }

    /// Current value of the shared cycle clock.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Emits an event attributed to this clone's CPU. `f` runs only when a
    /// sink is attached.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        self.emit_at(self.cpu, f);
    }

    /// Emits an event attributed to an explicit CPU (used by the shared
    /// fabric, which acts on behalf of a requester).
    #[inline]
    pub fn emit_at(&self, cpu: u16, f: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("trace sink poisoned")
                .record(self.clock(), cpu, f());
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Incremental FNV-1a over `fmt` output: every chunk the formatting
/// machinery produces folds straight into the digest state, so no per-event
/// line buffer is ever materialized.
struct FnvWrite(u64);

impl fmt::Write for FnvWrite {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// Writes `v` in decimal — the same bytes `Display` would produce — without
/// the `fmt::Arguments` interpreter. Every value in the event encoding is an
/// unsigned integer, so this one helper covers the whole digest byte stream.
#[inline]
fn write_dec<W: fmt::Write>(out: &mut W, v: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"))
}

/// Folds one stamped event into a digest state. Order- and
/// content-sensitive; independent of recorder capacity because it is applied
/// at record time, before any ring wraparound. The folded bytes are exactly
/// `"{clock}|{cpu}|{encode()}\n"`, streamed through [`FnvWrite`] without
/// allocating.
fn fold_digest(state: u64, clock: u64, cpu: u16, event: &Event) -> u64 {
    use fmt::Write as _;
    let mut w = FnvWrite(state);
    let _ = write_dec(&mut w, clock);
    let _ = w.write_str("|");
    let _ = write_dec(&mut w, cpu as u64);
    let _ = w.write_str("|");
    let _ = event.encode_into(&mut w);
    let _ = w.write_str("\n");
    w.0
}

/// Digest of a complete event slice, matching what a [`Recorder`] fed the
/// same stream reports.
pub fn digest_of(events: &[TracedEvent]) -> u64 {
    events
        .iter()
        .fold(FNV_OFFSET, |d, e| fold_digest(d, e.clock, e.cpu, &e.event))
}

/// Aggregate counters and histograms, updated incrementally per event so they
/// cover the full stream even after ring wraparound discards old events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total events observed.
    pub events: u64,
    /// Data accesses by hit level: `[miss, l1, l2]`.
    pub accesses: [u64; 3],
    /// Accesses issued inside transactions.
    pub tx_accesses: u64,
    /// Lines installed.
    pub installs: u64,
    /// Evictions by level: `[_, l1, l2]` (index 0 unused).
    pub evictions: [u64; 3],
    /// XIs issued by the fabric, indexed by [`xi_kind`].
    pub xi_issued: [u64; 4],
    /// XIs accepted, indexed by [`xi_kind`].
    pub xi_accepted: [u64; 4],
    /// XIs rejected (stiff-armed), indexed by [`xi_kind`].
    pub xi_rejected: [u64; 4],
    /// Reject-threshold hangs (receiver aborts to unblock requester).
    pub reject_hangs: u64,
    /// Stores gathered into open entries.
    pub store_gathered: u64,
    /// Stores allocating new entries.
    pub store_new: u64,
    /// Store-footprint overflows.
    pub store_overflows: u64,
    /// Granules drained at commit/abort.
    pub store_drains: u64,
    /// Bytes drained at commit/abort.
    pub store_drain_bytes: u64,
    /// Outermost transaction begins.
    pub tx_begins: u64,
    /// Nested (interior) begins.
    pub tx_nested_begins: u64,
    /// Outermost commits.
    pub tx_commits: u64,
    /// Aborts.
    pub tx_aborts: u64,
    /// Aborts of constrained transactions.
    pub tx_aborts_constrained: u64,
    /// Abort-code histogram.
    pub abort_codes: BTreeMap<u16, u64>,
    /// Committed-transaction latency histogram; key is `floor(log2(cycles))`.
    pub commit_latency_log2: BTreeMap<u32, u64>,
    /// Aborted-transaction (begin → abort) latency histogram, same bucketing.
    pub abort_latency_log2: BTreeMap<u32, u64>,
    /// Retry-ladder stages entered.
    pub ladder_stages: u64,
    /// Deepest consecutive-abort count seen on the ladder.
    pub ladder_max_attempt: u32,
    /// Ladder stages that disabled speculation.
    pub ladder_disable_spec: u64,
    /// Ladder stages that requested broadcast-stop.
    pub ladder_broadcast_stop: u64,
    /// Fabric transfers delayed by channel occupancy.
    pub fabric_queued: u64,
    /// Total cycles of fabric queueing delay.
    pub fabric_queued_cycles: u64,
    /// Pipeline issue groups closed (width > 1 only).
    pub issue_groups: u64,
    /// Instructions issued across all closed groups.
    pub issue_group_instrs: u64,
    /// Issue-group size histogram (instructions issued in one cycle).
    pub issue_group_sizes: BTreeMap<u16, u64>,
    /// Pipeline hazard stalls observed at issue.
    pub issue_stalls: u64,
    /// Total cycles spent waiting on issue hazards.
    pub issue_stall_cycles: u64,
    /// Software-TM transaction attempts begun.
    pub stm_begins: u64,
    /// Software-TM commits.
    pub stm_commits: u64,
    /// Software-TM aborts (acquire/validation failures that retried).
    pub stm_aborts: u64,
    /// Stripe write-locks acquired.
    pub stm_lock_acquires: u64,
    /// Stripe write-locks released.
    pub stm_lock_releases: u64,
    /// TL2 read-set validations that passed.
    pub stm_validation_passes: u64,
    /// TL2 read-set validations that failed.
    pub stm_validation_failures: u64,
    /// HTM→STM fallback transitions.
    pub stm_fallbacks: u64,
    /// Abort code of the final HTM attempt at each fallback transition.
    pub stm_fallback_codes: BTreeMap<u16, u64>,
    /// Open outermost-begin clock per CPU (internal latency bookkeeping).
    open_begin: BTreeMap<u16, u64>,
}

fn log2_bucket(cycles: u64) -> u32 {
    63 - cycles.max(1).leading_zeros()
}

impl Metrics {
    /// Folds one stamped event into the aggregates.
    pub fn observe(&mut self, clock: u64, cpu: u16, event: &Event) {
        self.events += 1;
        match *event {
            Event::Access { hit, tx, .. } => {
                self.accesses[(hit as usize).min(2)] += 1;
                if tx {
                    self.tx_accesses += 1;
                }
            }
            Event::Install { .. } => self.installs += 1,
            Event::Evict { level, .. } => self.evictions[(level as usize).min(2)] += 1,
            Event::XiIssue { kind, .. } => self.xi_issued[(kind as usize).min(3)] += 1,
            Event::XiAccept { kind, .. } => self.xi_accepted[(kind as usize).min(3)] += 1,
            Event::XiReject { kind, .. } => self.xi_rejected[(kind as usize).min(3)] += 1,
            Event::RejectHang { .. } => self.reject_hangs += 1,
            Event::StoreGather { .. } => self.store_gathered += 1,
            Event::StoreNewEntry { .. } => self.store_new += 1,
            Event::StoreClose { .. } => {}
            Event::StoreDrain { bytes, .. } => {
                self.store_drains += 1;
                self.store_drain_bytes += bytes as u64;
            }
            Event::StoreOverflow { .. } => self.store_overflows += 1,
            Event::TxBegin { depth, .. } => {
                if depth == 1 {
                    self.tx_begins += 1;
                    self.open_begin.insert(cpu, clock);
                } else {
                    self.tx_nested_begins += 1;
                }
            }
            Event::TxCommit => {
                self.tx_commits += 1;
                if let Some(begin) = self.open_begin.remove(&cpu) {
                    *self
                        .commit_latency_log2
                        .entry(log2_bucket(clock.saturating_sub(begin)))
                        .or_insert(0) += 1;
                }
            }
            Event::TxAbort {
                code, constrained, ..
            } => {
                self.tx_aborts += 1;
                if constrained {
                    self.tx_aborts_constrained += 1;
                }
                *self.abort_codes.entry(code).or_insert(0) += 1;
                if let Some(begin) = self.open_begin.remove(&cpu) {
                    *self
                        .abort_latency_log2
                        .entry(log2_bucket(clock.saturating_sub(begin)))
                        .or_insert(0) += 1;
                }
            }
            Event::LadderStage {
                attempt,
                disable_spec,
                broadcast_stop,
                ..
            } => {
                self.ladder_stages += 1;
                self.ladder_max_attempt = self.ladder_max_attempt.max(attempt);
                if disable_spec {
                    self.ladder_disable_spec += 1;
                }
                if broadcast_stop {
                    self.ladder_broadcast_stop += 1;
                }
            }
            Event::FabricOccupy { queued } => {
                if queued > 0 {
                    self.fabric_queued += 1;
                    self.fabric_queued_cycles += queued;
                }
            }
            Event::IssueGroup { size, .. } => {
                self.issue_groups += 1;
                self.issue_group_instrs += size as u64;
                *self.issue_group_sizes.entry(size as u16).or_insert(0) += 1;
            }
            Event::IssueStall { waited, .. } => {
                self.issue_stalls += 1;
                self.issue_stall_cycles += waited;
            }
            Event::StmLock { acquired, .. } => {
                if acquired {
                    self.stm_lock_acquires += 1;
                } else {
                    self.stm_lock_releases += 1;
                }
            }
            Event::StmValidation { ok, .. } => {
                if ok {
                    self.stm_validation_passes += 1;
                } else {
                    self.stm_validation_failures += 1;
                }
            }
            Event::StmFallback { code, .. } => {
                self.stm_fallbacks += 1;
                *self.stm_fallback_codes.entry(code).or_insert(0) += 1;
            }
            Event::StmTx { phase, .. } => match phase {
                0 => self.stm_begins += 1,
                1 => self.stm_commits += 1,
                _ => self.stm_aborts += 1,
            },
        }
    }

    /// Aggregates a complete event slice (e.g. one re-parsed from a trace
    /// file by [`parse_chrome_trace`]).
    pub fn from_events(events: &[TracedEvent]) -> Metrics {
        let mut m = Metrics::default();
        for e in events {
            m.observe(e.clock, e.cpu, &e.event);
        }
        m
    }

    /// Renders the machine-readable metrics JSON document.
    ///
    /// `digest`/`dropped` come from the recorder; pass `0` when aggregating a
    /// re-parsed stream whose recorder state is unknown.
    pub fn to_json(&self, digest: u64, dropped: u64) -> String {
        fn hist<K: fmt::Display>(map: &BTreeMap<K, u64>) -> String {
            let body: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", body.join(", "))
        }
        fn arr(xs: &[u64]) -> String {
            let body: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
            format!("[{}]", body.join(", "))
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"digest\": \"{digest:#018x}\",\n"));
        s.push_str(&format!("  \"events\": {},\n", self.events));
        s.push_str(&format!("  \"dropped\": {dropped},\n"));
        s.push_str(&format!(
            "  \"accesses\": {{\"miss\": {}, \"l1\": {}, \"l2\": {}, \"tx\": {}}},\n",
            self.accesses[0], self.accesses[1], self.accesses[2], self.tx_accesses
        ));
        s.push_str(&format!("  \"installs\": {},\n", self.installs));
        s.push_str(&format!(
            "  \"evictions\": {{\"l1\": {}, \"l2\": {}}},\n",
            self.evictions[1], self.evictions[2]
        ));
        s.push_str(&format!(
            "  \"xi\": {{\"issued\": {}, \"accepted\": {}, \"rejected\": {}, \"reject_hangs\": {}}},\n",
            arr(&self.xi_issued),
            arr(&self.xi_accepted),
            arr(&self.xi_rejected),
            self.reject_hangs
        ));
        s.push_str(&format!(
            "  \"store_cache\": {{\"gathered\": {}, \"new\": {}, \"overflows\": {}, \"drains\": {}, \"drain_bytes\": {}}},\n",
            self.store_gathered,
            self.store_new,
            self.store_overflows,
            self.store_drains,
            self.store_drain_bytes
        ));
        s.push_str(&format!(
            "  \"tx\": {{\"begins\": {}, \"nested_begins\": {}, \"commits\": {}, \"aborts\": {}, \"aborts_constrained\": {}}},\n",
            self.tx_begins,
            self.tx_nested_begins,
            self.tx_commits,
            self.tx_aborts,
            self.tx_aborts_constrained
        ));
        s.push_str(&format!(
            "  \"abort_codes\": {},\n",
            hist(&self.abort_codes)
        ));
        s.push_str(&format!(
            "  \"commit_latency_log2\": {},\n",
            hist(&self.commit_latency_log2)
        ));
        s.push_str(&format!(
            "  \"abort_latency_log2\": {},\n",
            hist(&self.abort_latency_log2)
        ));
        s.push_str(&format!(
            "  \"ladder\": {{\"stages\": {}, \"max_attempt\": {}, \"disable_spec\": {}, \"broadcast_stop\": {}}},\n",
            self.ladder_stages,
            self.ladder_max_attempt,
            self.ladder_disable_spec,
            self.ladder_broadcast_stop
        ));
        s.push_str(&format!(
            "  \"fabric\": {{\"queued_transfers\": {}, \"queued_cycles\": {}}},\n",
            self.fabric_queued, self.fabric_queued_cycles
        ));
        // The "stm" object appears only when STM events were observed, so
        // pre-existing (HTM-only) metrics documents stay byte-identical.
        let stm_active = self.stm_begins
            + self.stm_commits
            + self.stm_aborts
            + self.stm_lock_acquires
            + self.stm_lock_releases
            + self.stm_validation_passes
            + self.stm_validation_failures
            + self.stm_fallbacks
            > 0;
        s.push_str(&format!(
            "  \"pipeline\": {{\"issue_groups\": {}, \"issue_group_instrs\": {}, \"group_sizes\": {}, \"stalls\": {}, \"stall_cycles\": {}}}{}\n",
            self.issue_groups,
            self.issue_group_instrs,
            hist(&self.issue_group_sizes),
            self.issue_stalls,
            self.issue_stall_cycles,
            if stm_active { "," } else { "" }
        ));
        if stm_active {
            s.push_str(&format!(
                "  \"stm\": {{\"begins\": {}, \"commits\": {}, \"aborts\": {}, \"lock_acquires\": {}, \"lock_releases\": {}, \"validation_passes\": {}, \"validation_failures\": {}, \"fallbacks\": {}, \"fallback_codes\": {}}}\n",
                self.stm_begins,
                self.stm_commits,
                self.stm_aborts,
                self.stm_lock_acquires,
                self.stm_lock_releases,
                self.stm_validation_passes,
                self.stm_validation_failures,
                self.stm_fallbacks,
                hist(&self.stm_fallback_codes)
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// Bounded ring-buffer sink with incremental digest and metrics.
///
/// The ring keeps the most recent `capacity` events for export; the digest
/// and [`Metrics`] are folded at record time and therefore describe the
/// *entire* stream, independent of capacity.
#[derive(Debug, Clone)]
pub struct Recorder {
    ring: VecDeque<TracedEvent>,
    capacity: usize,
    dropped: u64,
    digest: DigestSink,
    metrics: Metrics,
}

impl Recorder {
    /// Default ring capacity: enough for the workloads in `tests/figures.rs`
    /// without wraparound.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a recorder keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Recorder {
        assert!(
            capacity > 0,
            "recorder needs capacity for at least one event"
        );
        Recorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            digest: DigestSink::new(),
            metrics: Metrics::default(),
        }
    }

    /// Events currently held (after any wraparound).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events discarded by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Order- and content-sensitive digest over the full stream.
    pub fn digest(&self) -> u64 {
        self.digest.digest()
    }

    /// Full-stream aggregates.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Copies the retained events out in arrival order.
    pub fn snapshot(&self) -> Vec<TracedEvent> {
        self.ring.iter().copied().collect()
    }

    /// Renders the metrics JSON document (counters, histograms, digest).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json(self.digest(), self.dropped)
    }

    /// Renders the retained events as Chrome trace-event JSON.
    ///
    /// Transactions appear as `B`/`E` duration spans on a per-CPU track
    /// (`tid` = CPU); everything else is an instant. Every real event carries
    /// its [`Event::encode`] string under `args.enc`, which
    /// [`parse_chrome_trace`] uses to reconstruct the stream losslessly.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.snapshot(), self.digest(), self.dropped)
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, clock: u64, cpu: u16, event: Event) {
        self.digest.fold(clock, cpu, &event);
        self.metrics.observe(clock, cpu, &event);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TracedEvent { clock, cpu, event });
    }
}

/// Renders an event slice as a Chrome trace-event JSON document (see
/// [`Recorder::chrome_trace_json`]).
pub fn chrome_trace_json(events: &[TracedEvent], digest: u64, dropped: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "\"otherData\": {{\"digest\": \"{digest:#018x}\", \"dropped\": {dropped}}},\n"
    ));
    out.push_str("\"traceEvents\": [\n");
    // CPUs with a currently-open "B" span, to pair commits/aborts correctly
    // even when ring wraparound cut the stream mid-transaction.
    let mut open: Vec<u16> = Vec::new();
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for e in events {
        let (ph, extra) = match e.event {
            Event::TxBegin { depth: 1, .. } if !open.contains(&e.cpu) => {
                open.push(e.cpu);
                ("B", "")
            }
            Event::TxCommit | Event::TxAbort { .. } => {
                if let Some(i) = open.iter().position(|&c| c == e.cpu) {
                    open.swap_remove(i);
                    ("E", "")
                } else {
                    ("i", ", \"s\": \"t\"")
                }
            }
            _ => ("i", ", \"s\": \"t\""),
        };
        push(
            format!(
                "{{\"name\": \"{}\", \"ph\": \"{ph}\", \"ts\": {}, \"pid\": 0, \"tid\": {}{extra}, \"args\": {{\"enc\": \"{}\"}}}}",
                e.event.kind_name(),
                e.clock,
                e.cpu,
                e.event.encode()
            ),
            &mut first,
        );
    }
    // Close dangling spans so strict viewers render the tail; these carry no
    // "enc" and are skipped by the parser.
    let last_ts = events.last().map(|e| e.clock).unwrap_or(0);
    for cpu in open {
        push(
            format!(
                "{{\"name\": \"tx\", \"ph\": \"E\", \"ts\": {last_ts}, \"pid\": 0, \"tid\": {cpu}, \"args\": {{\"synthetic\": true}}}}"
            ),
            &mut first,
        );
    }
    out.push_str("\n]\n}\n");
    out
}

/// Extracts the `"key": <number>` field from a single-line JSON object.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the `"key": "<string>"` field from a single-line JSON object.
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// Reconstructs the event stream from a Chrome trace JSON document produced
/// by [`chrome_trace_json`]. Objects without an `args.enc` payload (the
/// synthetic span closers) are skipped.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TracedEvent>, String> {
    let mut events = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"name\"") {
            continue;
        }
        let Some(enc) = json_str_field(line, "enc") else {
            continue;
        };
        let clock =
            json_u64_field(line, "ts").ok_or_else(|| format!("trace object without ts: {line}"))?;
        let cpu = json_u64_field(line, "tid")
            .ok_or_else(|| format!("trace object without tid: {line}"))? as u16;
        events.push(TracedEvent {
            clock,
            cpu,
            event: Event::decode(enc)?,
        });
    }
    Ok(events)
}

/// Extracts the digest recorded in a Chrome trace document's `otherData`.
pub fn parse_trace_digest(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.contains("\"digest\""))?;
    let hex = json_str_field(line, "digest")?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

#[derive(Debug, Default)]
struct CpuCheckState {
    /// Open outermost transaction window: (begin clock, doomed-by-accepted-
    /// conflicting-XI).
    window: Option<(u64, bool)>,
    /// Lines holding this CPU's uncommitted transactional store data.
    dirty: Vec<u64>,
    /// Observed presence per line: `Some(true)` installed, `Some(false)`
    /// evicted/surrendered; lines never observed stay unknown (ring
    /// truncation tolerance).
    present: BTreeMap<u64, bool>,
    /// Last retry-ladder stage seen: (attempt, disable_spec, broadcast_stop).
    ladder: Option<(u32, bool, bool)>,
}

/// Replays a trace and checks the architectural invariants the zEC12 design
/// promises. Returns all violations, each as a human-readable description.
///
/// The checker is tolerant of ring-truncated streams: windows whose begin was
/// not observed are skipped, and containment is only enforced for lines whose
/// install/evict history was observed.
///
/// Checked invariants:
///
/// 1. **Isolation at commit** — a transaction window in which a conflicting
///    exclusive/demote XI was *accepted* must not commit (the accept
///    surrendered footprint, so the hardware must abort).
/// 2. **Pre-commit isolation** — a line carrying a transaction's uncommitted
///    store data is never installed by another CPU while the owner still
///    holds it (an accepted XI first revokes the owner's copy).
/// 3. **Inclusive containment** — no L1/L2 hit on a line after its observed
///    L2 eviction or surrender without an intervening install.
/// 4. **Ladder monotonicity** — consecutive-abort counts grow by exactly one
///    within a streak (or reset to one), and the escalation flags never
///    de-escalate within a streak.
pub fn check_invariants(events: &[TracedEvent]) -> Result<(), Vec<String>> {
    let mut cpus: BTreeMap<u16, CpuCheckState> = BTreeMap::new();
    // line -> owning cpu, for lines currently holding uncommitted tx stores.
    let mut dirty_owner: BTreeMap<u64, u16> = BTreeMap::new();
    let mut violations = Vec::new();

    for e in events {
        let clock = e.clock;
        let cpu = e.cpu;
        match e.event {
            Event::TxBegin { depth: 1, .. } => {
                cpus.entry(cpu).or_default().window = Some((clock, false));
            }
            Event::TxBegin { .. } => {}
            Event::TxCommit => {
                let st = cpus.entry(cpu).or_default();
                if let Some((begin, doomed)) = st.window.take() {
                    if doomed {
                        violations.push(format!(
                            "cpu {cpu}: commit at cycle {clock} of the transaction begun at \
                             cycle {begin} after a conflicting XI was accepted inside the window"
                        ));
                    }
                }
                for line in st.dirty.drain(..) {
                    dirty_owner.remove(&line);
                }
                if let Some(l) = &mut st.ladder {
                    // Commit resets the consecutive-abort count.
                    *l = (0, false, false);
                }
            }
            Event::TxAbort { .. } => {
                let st = cpus.entry(cpu).or_default();
                st.window = None;
                for line in st.dirty.drain(..) {
                    dirty_owner.remove(&line);
                }
            }
            Event::StoreGather { line, tx: true, .. }
            | Event::StoreNewEntry { line, tx: true, .. } => {
                let st = cpus.entry(cpu).or_default();
                if !st.dirty.contains(&line) {
                    st.dirty.push(line);
                }
                dirty_owner.insert(line, cpu);
            }
            Event::XiAccept {
                line,
                kind,
                conflict,
            } => {
                let st = cpus.entry(cpu).or_default();
                if conflict {
                    if let Some(w) = &mut st.window {
                        w.1 = true;
                    }
                }
                // The accept surrenders the copy (demote keeps a read-only
                // copy but still revokes store rights and tx-dirty data).
                if let Some(i) = st.dirty.iter().position(|&l| l == line) {
                    st.dirty.swap_remove(i);
                    dirty_owner.remove(&line);
                }
                if kind != xi_kind::DEMOTE {
                    st.present.insert(line, false);
                }
            }
            Event::Install { line, .. } => {
                if let Some(&owner) = dirty_owner.get(&line) {
                    if owner != cpu {
                        violations.push(format!(
                            "cpu {cpu}: installed line {line:#x} at cycle {clock} while cpu \
                             {owner} still holds uncommitted transactional stores to it"
                        ));
                    }
                }
                cpus.entry(cpu).or_default().present.insert(line, true);
            }
            Event::Evict { line, level: 2, .. } => {
                cpus.entry(cpu).or_default().present.insert(line, false);
            }
            Event::Evict { .. } => {}
            Event::Access { line, hit, .. } if hit != hit_level::MISS => {
                let st = cpus.entry(cpu).or_default();
                if st.present.get(&line) == Some(&false) {
                    violations.push(format!(
                        "cpu {cpu}: {} hit on line {line:#x} at cycle {clock} after its \
                         observed eviction (inclusion violated)",
                        if hit == hit_level::L1 { "L1" } else { "L2" }
                    ));
                }
            }
            Event::LadderStage {
                attempt,
                disable_spec,
                broadcast_stop,
                ..
            } => {
                let st = cpus.entry(cpu).or_default();
                if let Some((prev, prev_spec, prev_stop)) = st.ladder {
                    let continues = attempt == prev + 1;
                    let resets = attempt == 1;
                    if !continues && !resets {
                        violations.push(format!(
                            "cpu {cpu}: retry ladder jumped from attempt {prev} to {attempt} \
                             at cycle {clock}"
                        ));
                    }
                    if continues && ((prev_spec && !disable_spec) || (prev_stop && !broadcast_stop))
                    {
                        violations.push(format!(
                            "cpu {cpu}: retry ladder de-escalated at attempt {attempt} \
                             (cycle {clock})"
                        ));
                    }
                }
                st.ladder = Some((attempt, disable_spec, broadcast_stop));
            }
            _ => {}
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(clock: u64, cpu: u16, event: Event) -> TracedEvent {
        TracedEvent { clock, cpu, event }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Access {
                line: 0x40,
                store: true,
                hit: hit_level::L2,
                tx: true,
            },
            Event::Install {
                line: 0x40,
                excl: true,
                tx: true,
            },
            Event::Evict {
                line: 0x41,
                level: 2,
                tx_read: false,
                tx_dirty: true,
            },
            Event::XiIssue {
                to: 3,
                line: 0x40,
                kind: xi_kind::EXCLUSIVE,
            },
            Event::XiAccept {
                line: 0x40,
                kind: xi_kind::DEMOTE,
                conflict: false,
            },
            Event::XiReject {
                line: 0x40,
                kind: xi_kind::EXCLUSIVE,
                count: 7,
            },
            Event::RejectHang { line: 0x40 },
            Event::StoreGather {
                line: 0x40,
                tx: true,
                ntstg: false,
            },
            Event::StoreNewEntry {
                line: 0x42,
                tx: false,
                ntstg: true,
            },
            Event::StoreClose { entries: 5 },
            Event::StoreDrain {
                half: 0x81,
                bytes: 96,
            },
            Event::StoreOverflow { line: 0x99 },
            Event::TxBegin {
                constrained: true,
                depth: 1,
            },
            Event::TxCommit,
            Event::TxAbort {
                code: 9,
                cc: 2,
                constrained: false,
            },
            Event::LadderStage {
                attempt: 4,
                delay: 96,
                disable_spec: true,
                broadcast_stop: false,
            },
            Event::FabricOccupy { queued: 12 },
            Event::IssueGroup { width: 3, size: 2 },
            Event::IssueStall {
                reason: 1,
                waited: 44,
            },
            Event::StmLock {
                acquired: true,
                addr: 0x6000_0040,
            },
            Event::StmValidation {
                ok: false,
                info: 0x6000_0048,
            },
            Event::StmFallback {
                attempt: 6,
                code: 8,
            },
            Event::StmTx { phase: 1, info: 12 },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        for ev in sample_events() {
            let enc = ev.encode();
            assert_eq!(Event::decode(&enc), Ok(ev), "through {enc:?}");
        }
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(Event::decode("").is_err());
        assert!(Event::decode("ZZ l=1").is_err());
        assert!(Event::decode("AC l=1").is_err(), "missing fields");
        assert!(Event::decode("AC l=x s=0 h=0 t=0").is_err());
    }

    #[test]
    fn disabled_tracer_never_builds_the_event() {
        let t = Tracer::disabled();
        t.emit(|| panic!("closure must not run with tracing disabled"));
        t.emit_at(7, || panic!("closure must not run with tracing disabled"));
        assert!(!t.is_enabled());
    }

    #[test]
    fn recorder_receives_attributed_events() {
        let (t, rec) = Tracer::recording(16);
        t.set_clock(100);
        t.for_cpu(2).emit(|| Event::TxCommit);
        t.emit_at(5, || Event::RejectHang { line: 1 });
        let events = rec.lock().unwrap().snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], te(100, 2, Event::TxCommit));
        assert_eq!(events[1], te(100, 5, Event::RejectHang { line: 1 }));
    }

    #[test]
    fn ring_wraparound_keeps_recent_drops_old() {
        let (t, rec) = Tracer::recording(4);
        for i in 0..10u64 {
            t.set_clock(i);
            t.emit(|| Event::FabricOccupy { queued: i });
        }
        let r = rec.lock().unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let clocks: Vec<u64> = r.snapshot().iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![6, 7, 8, 9]);
        // Metrics cover the full stream, not just the retained window.
        assert_eq!(r.metrics().events, 10);
    }

    #[test]
    fn digest_is_capacity_independent() {
        let (small_t, small) = Tracer::recording(4);
        let (large_t, large) = Tracer::recording(1024);
        for i in 0..50u64 {
            small_t.set_clock(i);
            large_t.set_clock(i);
            small_t.emit(|| Event::FabricOccupy { queued: i });
            large_t.emit(|| Event::FabricOccupy { queued: i });
        }
        assert_eq!(
            small.lock().unwrap().digest(),
            large.lock().unwrap().digest()
        );
    }

    #[test]
    fn digest_sink_matches_recorder_bit_for_bit() {
        // Fold every variant (varied clocks and CPUs) straight into a
        // `DigestSink` and emit the same stamped stream through a tracer
        // into a full recorder: the digests and event counts must agree.
        let (t, rec) = Tracer::recording(8); // tiny ring: digest ignores wraparound
        let mut dig = DigestSink::default();
        for (i, ev) in sample_events().into_iter().enumerate() {
            let clock = 10 * i as u64 + 3;
            let cpu = (i % 5) as u16;
            t.set_clock(clock);
            t.for_cpu(cpu).emit(|| ev);
            dig.fold(clock, cpu, &ev);
        }
        let r = rec.lock().unwrap();
        assert_eq!(dig.digest(), r.digest());
        assert_eq!(dig.events(), r.metrics().events);
        assert_eq!(dig.events(), sample_events().len() as u64);
        assert_ne!(dig.digest(), FNV_OFFSET, "stream must have been folded");
    }

    #[test]
    fn encode_into_streams_the_same_bytes_as_encode() {
        for ev in sample_events() {
            let mut streamed = String::new();
            ev.encode_into(&mut streamed).unwrap();
            assert_eq!(streamed, ev.encode());
        }
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = [
            te(1, 0, Event::TxCommit),
            te(2, 0, Event::RejectHang { line: 9 }),
        ];
        let b = [
            te(2, 0, Event::RejectHang { line: 9 }),
            te(1, 0, Event::TxCommit),
        ];
        let c = [
            te(1, 0, Event::TxCommit),
            te(2, 0, Event::RejectHang { line: 8 }),
        ];
        assert_ne!(digest_of(&a), digest_of(&b));
        assert_ne!(digest_of(&a), digest_of(&c));
        assert_eq!(digest_of(&a), digest_of(a.as_ref()));
    }

    #[test]
    fn chrome_export_parses_back_losslessly() {
        let (t, rec) = Tracer::recording(64);
        let mut clock = 0;
        for (i, ev) in sample_events().into_iter().enumerate() {
            clock += 3;
            t.set_clock(clock);
            t.for_cpu((i % 3) as u16).emit(|| ev);
        }
        let r = rec.lock().unwrap();
        let json = r.chrome_trace_json();
        let parsed = parse_chrome_trace(&json).expect("parse back");
        assert_eq!(parsed, r.snapshot());
        assert_eq!(digest_of(&parsed), r.digest());
        assert_eq!(parse_trace_digest(&json), Some(r.digest()));
        // The dangling TxBegin of the sample stream gets a synthetic closer.
        assert!(json.contains("\"synthetic\": true"));
    }

    #[test]
    fn metrics_aggregate_histograms() {
        let mut m = Metrics::default();
        m.observe(
            10,
            0,
            &Event::TxBegin {
                constrained: false,
                depth: 1,
            },
        );
        m.observe(
            100,
            0,
            &Event::TxAbort {
                code: 9,
                cc: 2,
                constrained: false,
            },
        );
        m.observe(
            200,
            1,
            &Event::TxBegin {
                constrained: true,
                depth: 1,
            },
        );
        m.observe(264, 1, &Event::TxCommit);
        assert_eq!(m.tx_begins, 2);
        assert_eq!(m.abort_codes.get(&9), Some(&1));
        // 100 - 10 = 90 cycles -> bucket 6; 264 - 200 = 64 -> bucket 6.
        assert_eq!(m.abort_latency_log2.get(&6), Some(&1));
        assert_eq!(m.commit_latency_log2.get(&6), Some(&1));
        let json = m.to_json(0xabc, 3);
        assert!(json.contains("\"abort_codes\": {\"9\": 1}"));
        assert!(json.contains("\"dropped\": 3"));
    }

    #[test]
    fn checker_accepts_a_legal_window() {
        let events = vec![
            te(
                1,
                0,
                Event::TxBegin {
                    constrained: false,
                    depth: 1,
                },
            ),
            te(
                2,
                0,
                Event::Install {
                    line: 5,
                    excl: true,
                    tx: true,
                },
            ),
            te(
                3,
                0,
                Event::StoreNewEntry {
                    line: 5,
                    tx: true,
                    ntstg: false,
                },
            ),
            te(
                4,
                0,
                Event::Access {
                    line: 5,
                    store: false,
                    hit: hit_level::L1,
                    tx: true,
                },
            ),
            // A rejected XI does not doom the window.
            te(
                5,
                0,
                Event::XiReject {
                    line: 5,
                    kind: xi_kind::EXCLUSIVE,
                    count: 1,
                },
            ),
            te(6, 0, Event::TxCommit),
            // Post-commit the other CPU may take the line.
            te(
                7,
                1,
                Event::Install {
                    line: 5,
                    excl: true,
                    tx: false,
                },
            ),
        ];
        assert_eq!(check_invariants(&events), Ok(()));
    }

    #[test]
    fn checker_flags_commit_after_accepted_conflicting_xi() {
        let events = vec![
            te(
                1,
                0,
                Event::TxBegin {
                    constrained: false,
                    depth: 1,
                },
            ),
            te(
                2,
                0,
                Event::XiAccept {
                    line: 5,
                    kind: xi_kind::EXCLUSIVE,
                    conflict: true,
                },
            ),
            te(3, 0, Event::TxCommit),
        ];
        let err = check_invariants(&events).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("conflicting XI was accepted"), "{err:?}");
    }

    #[test]
    fn checker_flags_observed_dirty_line() {
        let events = vec![
            te(
                1,
                0,
                Event::TxBegin {
                    constrained: false,
                    depth: 1,
                },
            ),
            te(
                2,
                0,
                Event::StoreNewEntry {
                    line: 7,
                    tx: true,
                    ntstg: false,
                },
            ),
            te(
                3,
                1,
                Event::Install {
                    line: 7,
                    excl: false,
                    tx: false,
                },
            ),
        ];
        let err = check_invariants(&events).unwrap_err();
        assert!(
            err[0].contains("uncommitted transactional stores"),
            "{err:?}"
        );
        // Once the owner surrendered the line via an accepted XI, the install
        // is legal (the tx is doomed instead).
        let events = vec![
            te(
                1,
                0,
                Event::TxBegin {
                    constrained: false,
                    depth: 1,
                },
            ),
            te(
                2,
                0,
                Event::StoreNewEntry {
                    line: 7,
                    tx: true,
                    ntstg: false,
                },
            ),
            te(
                3,
                0,
                Event::XiAccept {
                    line: 7,
                    kind: xi_kind::EXCLUSIVE,
                    conflict: true,
                },
            ),
            te(
                4,
                1,
                Event::Install {
                    line: 7,
                    excl: false,
                    tx: false,
                },
            ),
            te(
                5,
                0,
                Event::TxAbort {
                    code: 2,
                    cc: 2,
                    constrained: false,
                },
            ),
        ];
        assert_eq!(check_invariants(&events), Ok(()));
    }

    #[test]
    fn checker_flags_hit_after_eviction() {
        let events = vec![
            te(
                1,
                0,
                Event::Install {
                    line: 3,
                    excl: false,
                    tx: false,
                },
            ),
            te(
                2,
                0,
                Event::Evict {
                    line: 3,
                    level: 2,
                    tx_read: false,
                    tx_dirty: false,
                },
            ),
            te(
                3,
                0,
                Event::Access {
                    line: 3,
                    store: false,
                    hit: hit_level::L2,
                    tx: false,
                },
            ),
        ];
        let err = check_invariants(&events).unwrap_err();
        assert!(err[0].contains("inclusion violated"), "{err:?}");
        // A hit on a line with unobserved history is tolerated (truncation).
        let events = vec![te(
            3,
            0,
            Event::Access {
                line: 9,
                store: false,
                hit: hit_level::L1,
                tx: false,
            },
        )];
        assert_eq!(check_invariants(&events), Ok(()));
    }

    #[test]
    fn checker_flags_ladder_jump_and_deescalation() {
        let stage = |attempt, spec, stop| Event::LadderStage {
            attempt,
            delay: 0,
            disable_spec: spec,
            broadcast_stop: stop,
        };
        let jump = vec![
            te(1, 0, stage(1, false, false)),
            te(2, 0, stage(3, false, false)),
        ];
        assert!(check_invariants(&jump).unwrap_err()[0].contains("jumped"));
        let deescalate = vec![
            te(1, 0, stage(3, true, false)),
            te(2, 0, stage(4, false, false)),
        ];
        assert!(check_invariants(&deescalate).unwrap_err()[0].contains("de-escalated"));
        let legal = vec![
            te(1, 0, stage(2, false, false)), // truncated stream: starts mid-streak
            te(2, 0, stage(3, true, false)),
            te(3, 0, stage(4, true, true)),
            te(4, 0, stage(1, false, false)), // reset after OS interruption
        ];
        assert_eq!(check_invariants(&legal), Ok(()));
    }

    #[test]
    fn checker_tolerates_truncated_window() {
        // Commit with no observed begin: skipped, not flagged.
        let events = vec![
            te(
                1,
                0,
                Event::XiAccept {
                    line: 5,
                    kind: xi_kind::EXCLUSIVE,
                    conflict: true,
                },
            ),
            te(2, 0, Event::TxCommit),
        ];
        assert_eq!(check_invariants(&events), Ok(()));
    }
}
