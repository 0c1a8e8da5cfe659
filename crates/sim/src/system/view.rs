//! The per-step [`Machine`] view of a [`System`](super::System) and its
//! memory and fabric glue: access preparation, line fetches, XI delivery,
//! store buffering and the transaction-engine hooks.

use super::{IfetchBuffer, Node};
use crate::config::SystemConfig;
use rand::Rng;
use ztm_cache::{
    AccessClass, CohState, CpuId, Fabric, FetchKind, FootprintEvent, InstallOutcome, LocalHit, Xi,
    XiKind, XiResponse,
};
use ztm_core::{AbortCause, ProgramException, TbeginParams, TendOutcome};
use ztm_isa::{
    finish_abort, AbortApply, AccessResult, CasResult, EndResult, ExceptionDisposition, Machine,
};
use ztm_mem::{Address, LineAddr, MainMemory, PageTable, HALF_LINE_SIZE};
use ztm_trace::{Event, Tracer};

/// Delivers one XI to `target`, whatever its source (a remote fetch from
/// `from`, an L3 LRU eviction or I/O, §III.C): the target's cache accepts or
/// stiff-arms it and the footprint consequences go to the target's engine.
/// Returns whether the XI was accepted; the fabric records the response.
/// XIs with no requester (LRU and I/O) are not rejectable.
pub(super) fn deliver_xi(
    nodes: &mut [Node],
    target: CpuId,
    kind: XiKind,
    line: LineAddr,
    from: Option<CpuId>,
) -> bool {
    let node = &mut nodes[target.0];
    let out = node.cache.handle_xi(Xi { kind, line, from });
    let accepted = out.response == XiResponse::Accept;
    debug_assert!(
        accepted || (from.is_some() && kind.rejectable()),
        "LRU and I/O XIs are not rejectable"
    );
    for ev in out.events {
        node.engine.note_footprint_event(ev);
    }
    accepted
}

/// The per-step [`Machine`] view: disjoint borrows of the system's fields
/// excluding the stepped CPU's core (borrowed by the interpreter).
pub(super) struct View<'a> {
    pub(super) cpu: usize,
    /// The stepped CPU's local clock at instruction start (for fabric
    /// channel queueing).
    pub(super) now: u64,
    pub(super) tracer: &'a Tracer,
    pub(super) nodes: &'a mut [Node],
    pub(super) fabric: &'a mut Fabric,
    pub(super) mem: &'a mut MainMemory,
    pub(super) pages: &'a mut PageTable,
    pub(super) config: &'a SystemConfig,
}

impl View<'_> {
    fn me(&mut self) -> &mut Node {
        &mut self.nodes[self.cpu]
    }

    fn node(&self) -> &Node {
        &self.nodes[self.cpu]
    }

    /// Fetches `line` through the fabric's coherence transaction (see
    /// [`Fabric::fetch`]) into this CPU's private cache. Returns the
    /// transfer's cycles, or `None` when a target stiff-armed: the caller
    /// retries the access or drops the prefetch.
    fn fetch_line(
        &mut self,
        line: LineAddr,
        excl: bool,
        class: AccessClass,
        tx: bool,
    ) -> Option<u64> {
        let (kind, state) = if excl {
            (FetchKind::Exclusive, CohState::Exclusive)
        } else {
            (FetchKind::Shared, CohState::ReadOnly)
        };
        let nodes = &mut *self.nodes;
        let cycles = self.fabric.fetch(
            CpuId(self.cpu),
            line,
            kind,
            self.now,
            |target, xi, line, from| deliver_xi(nodes, target, xi, line, from),
        )?;
        let out = self.me().cache.install(line, state, class, tx);
        self.absorb_install(out);
        Some(cycles)
    }

    /// Applies an install's consequences: the lines it pushed out of this
    /// CPU's L2 leave the fabric's directory, and its footprint events go to
    /// this CPU's engine.
    fn absorb_install(&mut self, out: InstallOutcome) {
        let who = CpuId(self.cpu);
        for l in out.lost_lines {
            self.fabric.drop_holder(who, l);
        }
        for ev in out.events {
            self.me().engine.note_footprint_event(ev);
        }
    }

    /// Speculative next-line prefetch; with the configured probability it
    /// represents a wrong-path load and over-marks the line tx-read
    /// (§III.C). Abandoned silently when anybody stiff-arms. A speculative
    /// transfer consumes channel bandwidth like any other.
    fn speculative_prefetch(&mut self, line: LineAddr) {
        let next = LineAddr::new(line.index() + 1);
        if self.node().cache.state_of(next).is_some() {
            return;
        }
        let p = self.config.overmark_probability;
        let overmark = self.me().rng.gen_bool(p);
        self.fetch_line(next, false, AccessClass::Fetch, overmark);
    }

    /// Common access preparation: faults, constrained footprint, ownership.
    /// `want_excl` requests exclusive ownership even for fetches (load with
    /// intent to update). `Err` carries an early [`AccessResult`].
    fn prepare(
        &mut self,
        addr: Address,
        len: u8,
        class: AccessClass,
        want_excl: bool,
    ) -> Result<u64, AccessResult> {
        let excl = class == AccessClass::Store || want_excl;
        if !addr.fits_in_line(len as u64) {
            return Err(AccessResult::Fault(ProgramException::Specification));
        }
        let line = addr.line();
        if self.pages.access(addr).is_err() {
            return Err(AccessResult::Fault(ProgramException::PageFault {
                address: addr.raw(),
            }));
        }
        let tx = self.me().engine.in_tx();
        if tx && self.me().engine.note_data_access(addr, len as u64).is_err() {
            self.me()
                .engine
                .set_pending(AbortCause::UnfilteredProgramException(
                    ProgramException::ConstraintViolation,
                ));
        }
        let (hit, out) = self.me().cache.access_local(line, class, excl, tx);
        let cycles = match hit {
            LocalHit::L1 => {
                debug_assert!(out.lost_lines.is_empty() && out.events.is_empty());
                self.config.latency.l1_hit
            }
            LocalHit::L2 => {
                // An L2 hit re-installs into the L1 only, which drops no L2
                // lines — `lost_lines` is empty here.
                self.absorb_install(out);
                self.config.latency.l2_hit
            }
            LocalHit::Miss { .. } => match self.fetch_line(line, excl, class, tx) {
                Some(c) => c,
                None => {
                    return Err(AccessResult::Stall {
                        cycles: self.config.latency.xi_reject_retry,
                    })
                }
            },
        };
        let prefetch_p = self.config.prefetch_probability;
        if class == AccessClass::Fetch
            && tx
            && prefetch_p > 0.0
            && !self.me().engine.speculation_disabled()
            && self.me().rng.gen_bool(prefetch_p)
        {
            self.speculative_prefetch(line);
        }
        Ok(cycles)
    }

    fn read_value(&self, addr: Address, len: u8) -> u64 {
        // Common shape: a full-width load with no buffered stores to overlay
        // (spinners and read-mostly code never populate the store cache).
        // One fixed-size memory read, no forwarding scan, no byte loop.
        if len == 8 && self.node().cache.store_cache().is_empty() {
            return self.mem.load_u64(addr);
        }
        let mut buf = [0u8; 8];
        self.mem.load_bytes(addr, &mut buf[..len as usize]);
        self.node().cache.forward(addr, &mut buf[..len as usize]);
        let mut v = 0u64;
        for b in &buf[..len as usize] {
            v = v << 8 | *b as u64;
        }
        v
    }

    /// Buffers store data (splitting at the 128-byte granule) and applies it
    /// to committed memory when non-transactional.
    fn write_value(&mut self, addr: Address, len: u8, value: u64, ntstg: bool) {
        let tx = self.me().engine.in_tx();
        let bytes = value.to_be_bytes();
        let data = &bytes[8 - len as usize..];
        let split = (HALF_LINE_SIZE - addr.offset_in_half_line()).min(len as u64) as usize;
        let mut overflow = false;
        let out1 = self
            .me()
            .cache
            .buffer_store(addr, &data[..split], tx, ntstg);
        overflow |= out1 == ztm_cache::StoreOutcome::Overflow;
        if split < len as usize {
            let out2 =
                self.me()
                    .cache
                    .buffer_store(addr.add(split as u64), &data[split..], tx, ntstg);
            overflow |= out2 == ztm_cache::StoreOutcome::Overflow;
        }
        if overflow {
            self.me()
                .engine
                .note_footprint_event(FootprintEvent::StoreOverflow {
                    line: Some(addr.line()),
                });
        }
        if !tx {
            self.mem.store_bytes(addr, data);
        }
    }
}

impl Machine for View<'_> {
    fn ifetch(&mut self, addr: Address) -> AccessResult {
        let line = addr.line();
        let page_epoch = self.pages.epoch();
        let node = &mut self.nodes[self.cpu];
        let buf = &mut node.ifetch;
        // Two-line fast path. Straight-line code fetches the same 256-byte
        // text line many instructions in a row, and a loop that straddles a
        // line boundary alternates between two lines. While no page
        // residency changed since the last directory walk, either buffered
        // line would hit (0 cycles) — skip the walk. LRU order is
        // unaffected: each buffered line is the MRU of its own congruence
        // class (it was the last line walked there, and the two lines'
        // classes differ), so re-stamping it could not change any victim
        // choice, and skipping the stamp keeps `SetAssoc::hot` valid. A
        // successful page access has no side effects, so the elided calls
        // are pure.
        if buf.epoch == page_epoch {
            if buf.prev == Some(line) {
                std::mem::swap(&mut buf.last, &mut buf.prev);
            }
            if buf.last == Some(line) {
                return AccessResult::Done {
                    value: 0,
                    cycles: 0,
                };
            }
        }
        if self.pages.access(addr).is_err() {
            *buf = IfetchBuffer::default();
            return AccessResult::Fault(ProgramException::PageFault {
                address: addr.raw(),
            });
        }
        // The line walked last stays buffered if its epoch still holds and
        // this walk cannot touch its class.
        let class = node.icache.class_of(line);
        let prev = buf
            .last
            .filter(|&last| buf.epoch == page_epoch && node.icache.class_of(last) != class);
        let cycles = if node.icache.get(line).is_some() {
            0
        } else {
            node.icache.insert(line, (), |_, _| 0);
            self.config.latency.l2_hit
        };
        node.ifetch = IfetchBuffer {
            last: Some(line),
            prev,
            epoch: page_epoch,
        };
        AccessResult::Done { value: 0, cycles }
    }

    fn load(&mut self, addr: Address, len: u8, for_update: bool) -> AccessResult {
        match self.prepare(addr, len, AccessClass::Fetch, for_update) {
            Ok(cycles) => AccessResult::Done {
                value: self.read_value(addr, len),
                cycles,
            },
            Err(early) => early,
        }
    }

    fn store(&mut self, addr: Address, len: u8, value: u64) -> AccessResult {
        match self.prepare(addr, len, AccessClass::Store, true) {
            Ok(cycles) => {
                self.write_value(addr, len, value, false);
                AccessResult::Done { value: 0, cycles }
            }
            Err(early) => early,
        }
    }

    fn store_nontx(&mut self, addr: Address, value: u64) -> AccessResult {
        if !addr.is_aligned(8) {
            return AccessResult::Fault(ProgramException::Specification);
        }
        match self.prepare(addr, 8, AccessClass::Store, true) {
            Ok(cycles) => {
                let in_tx = self.me().engine.in_tx();
                self.write_value(addr, 8, value, in_tx);
                AccessResult::Done { value: 0, cycles }
            }
            Err(early) => early,
        }
    }

    fn compare_and_swap(&mut self, addr: Address, expected: u64, new: u64) -> CasResult {
        match self.prepare(addr, 8, AccessClass::Store, true) {
            Ok(cycles) => {
                let old = self.read_value(addr, 8);
                let swapped = old == expected;
                if swapped {
                    self.write_value(addr, 8, new, false);
                }
                CasResult::Done {
                    swapped,
                    old,
                    // Interlocked update: the serialization penalty of CSG
                    // is what makes uncontended transactions ~30% cheaper
                    // than lock acquire/release (§IV).
                    cycles: cycles + 12,
                }
            }
            Err(AccessResult::Stall { cycles }) => CasResult::Stall { cycles },
            Err(AccessResult::Fault(pe)) => CasResult::Fault(pe),
            Err(AccessResult::Done { .. }) => unreachable!("prepare never returns Done"),
        }
    }

    fn tx_begin(
        &mut self,
        constrained: bool,
        params: TbeginParams,
        grs: &[u64; 16],
        ia: u64,
        next_ia: u64,
    ) -> u64 {
        let node = self.me();
        let rng = &mut node.rng;
        match node
            .engine
            .begin(params, constrained, grs, ia, next_ia, rng)
        {
            Ok(ztm_core::BeginOutcome::Outermost { cycles }) => {
                node.cache.begin_outermost_tx();
                cycles
            }
            Ok(ztm_core::BeginOutcome::Nested) => 2,
            Err(cause) => {
                node.engine.set_pending(cause);
                1
            }
        }
    }

    fn tx_end(&mut self) -> EndResult {
        let node = self.me();
        if node.engine.in_tx() && node.engine.tdc_forces_abort_at_tend() {
            node.engine.set_pending(AbortCause::Diagnostic);
            return EndResult::AbortPending;
        }
        match node.engine.tend() {
            TendOutcome::NotInTx => EndResult::NotInTx,
            TendOutcome::Inner => EndResult::Inner { cycles: 1 },
            TendOutcome::Commit { cycles } => {
                let writes = node.cache.commit_tx();
                for w in writes {
                    w.apply_to(self.mem);
                }
                EndResult::Commit { cycles }
            }
        }
    }

    fn tx_abort_request(&mut self, code: u64) {
        self.me()
            .engine
            .set_pending(AbortCause::Tabort(code.max(256)));
    }

    fn tx_depth(&self) -> u64 {
        self.node().engine.depth() as u64
    }

    fn in_tx(&self) -> bool {
        self.node().engine.in_tx()
    }

    fn check_instruction(&mut self, class: ztm_core::InstrClass, ia: u64, len: u64) {
        let node = self.me();
        if let Err(cause) = node.engine.check_instruction(class, ia, len) {
            node.engine.set_pending(cause);
            return;
        }
        let rng = &mut node.rng;
        if let Some(cause) = node.engine.tdc_tick(rng) {
            node.engine.set_pending(cause);
        }
    }

    fn instruction_retired(&mut self) {
        self.me().cache.note_instruction_complete();
    }

    fn pending_abort(&self) -> bool {
        self.node().engine.pending_abort().is_some()
    }

    fn take_abort(&mut self, grs: &[u64; 16], atia: u64) -> AbortApply {
        let cause = self
            .node()
            .engine
            .pending_abort()
            .expect("take_abort without pending abort");
        let ntstg_writes = self.me().cache.abort_tx();
        for w in ntstg_writes {
            w.apply_to(self.mem);
        }
        let node = &mut self.nodes[self.cpu];
        let out = node.engine.process_abort(cause, grs, atia, &mut node.rng);
        let prefix_area = node.prefix_area;
        finish_abort(out, self.mem, self.pages, &self.config.os, prefix_area)
    }

    fn report_exception(
        &mut self,
        pe: ProgramException,
        instruction_fetch: bool,
    ) -> ExceptionDisposition {
        let node = self.me();
        if node.engine.in_tx() {
            let cause = node.engine.classify_exception(pe, instruction_fetch);
            node.engine.set_pending(cause);
            return ExceptionDisposition::PendingAbort;
        }
        match self.config.os.disposition(pe) {
            ztm_isa::OsDisposition::PageIn(page) => {
                self.pages.page_in(page);
                ExceptionDisposition::Retry {
                    cycles: self.config.os.page_in_cost,
                }
            }
            ztm_isa::OsDisposition::Observe => ExceptionDisposition::Retry {
                cycles: self.config.os.observe_cost,
            },
            ztm_isa::OsDisposition::Terminate(msg) => ExceptionDisposition::Terminate(msg),
        }
    }

    fn ppa(&mut self, abort_count: u64) -> u64 {
        let node = self.me();
        let rng = &mut node.rng;
        node.engine.ppa_tx_assist(abort_count, rng)
    }

    fn stm_note(&mut self, kind: u8, value: u64) {
        use ztm_isa::stm_note as k;
        let cpu = self.cpu as u16;
        let node = &mut self.nodes[self.cpu];
        let ev = match kind {
            k::BEGIN => {
                node.stm.begins += 1;
                Event::StmTx {
                    phase: 0,
                    info: value,
                }
            }
            k::COMMIT => {
                node.stm.commits += 1;
                Event::StmTx {
                    phase: 1,
                    info: value,
                }
            }
            k::ABORT => {
                node.stm.aborts += 1;
                Event::StmTx {
                    phase: 2,
                    info: value,
                }
            }
            k::LOCK_ACQ => {
                node.stm.lock_acquires += 1;
                Event::StmLock {
                    acquired: true,
                    addr: value,
                }
            }
            k::LOCK_REL => Event::StmLock {
                acquired: false,
                addr: value,
            },
            k::VAL_PASS => Event::StmValidation {
                ok: true,
                info: value,
            },
            k::VAL_FAIL => {
                node.stm.validation_failures += 1;
                Event::StmValidation {
                    ok: false,
                    info: value,
                }
            }
            k::FALLBACK => {
                // The note marks the HTM→STM transition; the hardware abort
                // that forced it is the engine's most recent abort.
                let code = node.engine.last_abort_code();
                node.stm.fallbacks += 1;
                *node.stm.fallback_codes.entry(code).or_insert(0) += 1;
                Event::StmFallback {
                    attempt: value as u32,
                    code,
                }
            }
            _ => return,
        };
        self.tracer.emit_at(cpu, || ev);
    }

    fn rand(&mut self, bound: u64) -> u64 {
        if bound <= 1 {
            0
        } else {
            self.me().rng.gen_range(0..bound)
        }
    }
}
