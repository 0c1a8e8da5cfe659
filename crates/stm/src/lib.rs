//! A TL2-style software transactional memory, emitted as programs on the
//! simulated ISA.
//!
//! Everything the STM does — version-clock reads, stripe-lock CSGs, read-set
//! validation, write-back — executes as ordinary instructions on the
//! simulated CPUs, so every cache miss, XI, and fabric transfer the
//! algorithm causes shows up in the deterministic trace digest exactly like
//! the hardware-TM experiments do. The design follows TL2 (Dice, Shalev,
//! Shavit, DISC 2006) adapted to the z ISA subset:
//!
//! * a striped table of versioned write-locks lives in simulated memory at
//!   [`StmLayout::lock_base`]; bit 63 of a stripe word is the lock bit, so a
//!   locked stripe is *negative* and `LTG`'s sign test (`JL`) detects it;
//! * a global version clock at [`StmLayout::clock_addr`] is advanced with
//!   `CSG` at commit (the serializing-drain semantics of `CSG` in the issue
//!   window keep the increment atomic under multi-issue, see DESIGN.md);
//! * each CPU keeps its transaction descriptor — read version, read set of
//!   stripe addresses, redo-log write set — in a private context block at
//!   [`StmLayout::ctx_addr`], addressed through [`CTX_REG`] (R11);
//! * reads post-validate (stripe unlocked, version ≤ rv, unchanged across
//!   the data load) and look the address up in the write set first, so
//!   read-after-write inside one transaction sees the transaction's own
//!   buffered store;
//! * commit acquires the write stripes with `CSG` (setting bit 63),
//!   fetch-and-increments the clock, validates the read set (skipped when
//!   `rv + 1 == wv`, i.e. no concurrent commit), writes the redo log back
//!   in append order, and releases the stripes with the new write version;
//! * aborts release any stripes already acquired (restoring their version),
//!   bump the attempt counter, back off through `PPA`, and retry.
//!
//! The hybrid path ([`Stm::emit_hybrid_tx`]) runs a TBEGIN fast path that
//! *subscribes* to the stripe of every STM-managed location (an `LTG` pulls
//! the stripe line into the transactional read set, so a software committer
//! locking it kills the hardware transaction) and publishes stripe versions
//! plus the clock transactionally before TEND; after `retry_limit` hardware
//! attempts (immediately on a persistent CC3 abort) it falls back to the
//! full software path instead of a global lock, so readers and
//! non-conflicting writers keep running concurrently.
//!
//! A critical section is written once, against [`TmAccess`]: the same
//! body emits plain loads and stores through an [`Assembler`] (locks,
//! elision, constrained transactions), TL2 barriers inside
//! [`Stm::emit_tx`], and stripe subscriptions on the hybrid fast path.
//!
//! `STMNOTE` marker instructions (zero cycles, no architectural effect)
//! announce begins, commits, aborts, lock traffic, validation outcomes, and
//! fallback transitions to the simulator, which turns them into typed trace
//! events and per-CPU counters ([`ztm_sim::StmCounts`]).

#![forbid(unsafe_code)]

use ztm_core::TbeginParams;
use ztm_isa::gr::*;
use ztm_isa::{cc_mask, stm_note, Assembler, MemOperand, Reg};
use ztm_sim::System;

/// The register holding the per-CPU STM context pointer. Chosen to stay
/// clear of the workload conventions (R6/R12–R15 measurement, R7–R10
/// workload inputs); the pool workload uses R11 as an address register and
/// therefore keeps its hardware-only sync methods.
pub const CTX_REG: Reg = R11;

/// `JNL` — branch when a preceding compare did not set CC1 (i.e. `>=`).
const NOT_LOW: u8 = cc_mask::ZERO | cc_mask::HIGH;

/// Byte offsets inside a per-CPU context block (addressed via [`CTX_REG`]).
pub mod ctx {
    /// Read version: the global clock sampled at transaction begin.
    pub const RV: i64 = 0;
    /// Read-set entry count.
    pub const RC: i64 = 8;
    /// Write-set entry count.
    pub const WC: i64 = 16;
    /// Write version claimed from the clock at commit.
    pub const WV: i64 = 24;
    /// Attempt counter (drives `PPA` backoff).
    pub const ATT: i64 = 32;
    /// Spill slots for live registers across a retry (8 × 8 bytes).
    pub const SPILL: i64 = 40;
    /// Read set: stripe-lock addresses, 8 bytes each (capacity 240 — not
    /// checked by emitted code, workload transactions are bounded far
    /// below it).
    pub const RSET: i64 = 128;
    /// Write set: 32-byte entries `{addr, value, stripe, acquired}`.
    /// `acquired` is zero from append until commit CSGs the stripe; it
    /// doubles as the duplicate-stripe and release marker.
    pub const WSET: i64 = 2048;
}

/// Simulated-memory placement of the STM metadata. All regions sit above
/// every workload's data (tables and arenas at 0x0100_0000–0x5fff_ffff) and
/// below the per-CPU prefix areas at 0xFFFF_0000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmLayout {
    /// Number of lock stripes (power of two). An address maps to stripe
    /// `(addr >> 3) & (stripes - 1)` — consecutive 8-byte words hit
    /// consecutive stripes.
    pub stripes: u64,
    /// Base of the stripe-lock table (8 bytes per stripe).
    pub lock_base: u64,
    /// Address of the global version clock.
    pub clock_addr: u64,
    /// Base of the per-CPU context blocks.
    pub ctx_base: u64,
    /// Stride between CPU context blocks (bounds the write set).
    pub ctx_stride: u64,
}

impl Default for StmLayout {
    fn default() -> Self {
        StmLayout {
            stripes: 1024,
            lock_base: 0x6000_0000,
            clock_addr: 0x6100_0000,
            ctx_base: 0x6200_0000,
            ctx_stride: 0x1_0000,
        }
    }
}

impl StmLayout {
    /// A layout with a different stripe count (tests shrink it to force
    /// stripe sharing and false conflicts).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is not a power of two.
    pub fn with_stripes(stripes: u64) -> Self {
        assert!(stripes.is_power_of_two(), "stripes must be a power of two");
        StmLayout {
            stripes,
            ..StmLayout::default()
        }
    }

    /// Host-side stripe-lock address of `addr` (mirrors the emitted code).
    pub fn stripe_lock_addr(&self, addr: u64) -> u64 {
        self.lock_base + (((addr >> 3) & (self.stripes - 1)) << 3)
    }

    /// Context-block base of `cpu`.
    pub fn ctx_addr(&self, cpu: usize) -> u64 {
        self.ctx_base + cpu as u64 * self.ctx_stride
    }

    /// Points every CPU's [`CTX_REG`] at its context block. Call before
    /// running; loading a program leaves the registers alone.
    pub fn install(&self, sys: &mut System) {
        for i in 0..sys.cpus() {
            sys.core_mut(i).set_gr(CTX_REG, self.ctx_addr(i));
        }
    }

    /// Host-side read of the global version clock (for tests).
    pub fn clock(&self, sys: &System) -> u64 {
        sys.mem().load_u64(ztm_mem::Address::new(self.clock_addr))
    }
}

/// The STM emitter: stamps TL2 transaction machinery into an [`Assembler`].
///
/// Register contract: [`CTX_REG`] (R11) holds the context pointer and is
/// never written; R0 and R1 are scratch inside every helper; the commit and
/// abort sequences additionally clobber R2–R5. Workload input registers the
/// body modifies must be listed in `spill` so a retry restores them.
#[derive(Debug, Clone, Default)]
pub struct Stm {
    /// Memory placement.
    pub layout: StmLayout,
}

impl Stm {
    /// Creates an emitter over the default layout.
    pub fn new() -> Self {
        Stm::default()
    }

    /// Creates an emitter over a specific layout.
    pub fn with_layout(layout: StmLayout) -> Self {
        Stm { layout }
    }

    /// Emits `stripe = &stripe_lock(addr)`. Clobbers R0.
    fn emit_stripe(&self, a: &mut Assembler, stripe: Reg, addr: Reg) {
        a.lgr(stripe, addr);
        a.srlg(stripe, stripe, 3);
        a.lghi(R0, (self.layout.stripes - 1) as i64);
        a.ngr(stripe, R0);
        a.sllg(stripe, stripe, 3);
        a.aghi(stripe, self.layout.lock_base as i64);
    }

    /// Emits a complete software transaction with label prefix `p`: begin
    /// (spill live registers, reset the read/write sets, sample the clock),
    /// the `body`, and the TL2 commit with its abort/retry path. The body's
    /// [`TmAccess`] reads and writes emit the TL2 barriers.
    ///
    /// `spill` lists the registers the body clobbers that must be restored
    /// when an abort rewinds to the retry label (at most 8; R0–R5 need not
    /// appear — they are scratch by contract).
    pub fn emit_tx<F>(&self, a: &mut Assembler, p: &str, spill: &[Reg], body: F)
    where
        F: FnOnce(&mut dyn TmAccess),
    {
        assert!(spill.len() <= 8, "at most 8 spill slots");
        let c = CTX_REG;
        a.lghi(R0, 0);
        a.stg(R0, MemOperand::based(c, ctx::ATT));
        for (i, &r) in spill.iter().enumerate() {
            a.stg(r, MemOperand::based(c, ctx::SPILL + 8 * i as i64));
        }
        a.label(&format!("{p}_stm_retry"));
        for (i, &r) in spill.iter().enumerate() {
            a.lg(r, MemOperand::based(c, ctx::SPILL + 8 * i as i64));
        }
        a.lghi(R0, 0);
        a.stg(R0, MemOperand::based(c, ctx::RC));
        a.stg(R0, MemOperand::based(c, ctx::WC));
        // rv := clock. An ordinary load: a concurrent committer bumping the
        // clock afterwards is caught by read validation, exactly as in TL2.
        a.lg(R0, MemOperand::absolute(self.layout.clock_addr));
        a.stg(R0, MemOperand::based(c, ctx::RV));
        a.stm_note(stm_note::BEGIN, R0);
        {
            let mut tx = TxBody {
                a,
                stm: self,
                p: p.to_string(),
                n: 0,
            };
            body(&mut tx);
        }
        self.emit_commit(a, p);
    }

    /// Emits the TL2 commit sequence plus the shared abort path
    /// (`{p}_stm_abort`, also the target of failed in-body reads) and the
    /// final `{p}_stm_done` label.
    fn emit_commit(&self, a: &mut Assembler, p: &str) {
        let c = CTX_REG;
        let clock = MemOperand::absolute(self.layout.clock_addr);

        // Read-only transactions commit immediately: every read was already
        // validated against rv when it happened.
        a.lg(R2, MemOperand::based(c, ctx::WC));
        a.cghi(R2, 0);
        a.jz(&format!("{p}_stm_commit"));

        // Phase 1: acquire the write stripes in append order (R3 = entry
        // index, R2 = entry count). A stripe an earlier entry already
        // acquired is skipped; its `acquired` word stays zero from append.
        a.lghi(R3, 0);
        a.label(&format!("{p}_stm_acq"));
        a.cgr(R3, R2);
        a.brc(NOT_LOW, &format!("{p}_stm_acqd"));
        a.lgr(R4, R3); // R4 = &entry[i]
        a.sllg(R4, R4, 5);
        a.agr(R4, c);
        a.aghi(R4, ctx::WSET);
        a.lg(R1, MemOperand::based(R4, 16)); // stripe address
        a.lghi(R5, 0); // duplicate scan over entries 0..i
        a.label(&format!("{p}_stm_dup"));
        a.cgr(R5, R3);
        a.brc(NOT_LOW, &format!("{p}_stm_dupd"));
        a.lgr(R0, R5);
        a.sllg(R0, R0, 5);
        a.cg(R1, MemOperand::indexed(c, R0, ctx::WSET + 16));
        a.jz(&format!("{p}_stm_acqn")); // duplicate: already ours
        a.aghi(R5, 1);
        a.j(&format!("{p}_stm_dup"));
        a.label(&format!("{p}_stm_dupd"));
        // CSG the lock bit on: expected = version (must be non-negative),
        // new = version + 2^63. A hit on someone else's lock aborts.
        a.ltg(R0, MemOperand::based(R1, 0));
        a.jl(&format!("{p}_stm_abort"));
        a.lghi(R5, 1);
        a.sllg(R5, R5, 63);
        a.agr(R5, R0);
        a.csg(R0, R5, MemOperand::based(R1, 0));
        a.jnz(&format!("{p}_stm_abort"));
        a.stg(R1, MemOperand::based(R4, 24)); // acquired marker
        a.stm_note(stm_note::LOCK_ACQ, R1);
        a.label(&format!("{p}_stm_acqn"));
        a.aghi(R3, 1);
        a.j(&format!("{p}_stm_acq"));
        a.label(&format!("{p}_stm_acqd"));

        // Phase 2: wv = ++clock (CSG retry loop; a failed CSG reloads the
        // current value into R0).
        a.lg(R0, clock);
        a.label(&format!("{p}_stm_clk"));
        a.lgr(R1, R0);
        a.aghi(R1, 1);
        a.csg(R0, R1, clock);
        a.jnz(&format!("{p}_stm_clk"));
        a.stg(R1, MemOperand::based(c, ctx::WV));

        // Phase 3: validate the read set — skipped when rv + 1 == wv, since
        // then no other transaction committed while we ran (TL2's fast
        // path). R3 = read-set byte offset, R2 = byte bound.
        a.lg(R0, MemOperand::based(c, ctx::RV));
        a.aghi(R0, 1);
        a.cgr(R0, R1);
        a.jz(&format!("{p}_stm_valok"));
        a.lg(R2, MemOperand::based(c, ctx::RC));
        a.sllg(R2, R2, 3);
        a.lghi(R3, 0);
        a.label(&format!("{p}_stm_val"));
        a.cgr(R3, R2);
        a.brc(NOT_LOW, &format!("{p}_stm_valok"));
        a.lg(R5, MemOperand::indexed(c, R3, ctx::RSET)); // stripe address
        a.ltg(R0, MemOperand::based(R5, 0));
        a.jl(&format!("{p}_stm_vlock"));
        a.cg(R0, MemOperand::based(c, ctx::RV)); // version ≤ rv?
        a.jh(&format!("{p}_stm_vfail"));
        a.j(&format!("{p}_stm_valn"));
        a.label(&format!("{p}_stm_vlock"));
        // Locked stripe: only valid if *we* hold it (a write to the same
        // stripe) — scan the write set's acquired markers (R1 = byte
        // offset, R4 = byte bound).
        a.lg(R4, MemOperand::based(c, ctx::WC));
        a.sllg(R4, R4, 5);
        a.lghi(R1, 0);
        a.label(&format!("{p}_stm_own"));
        a.cgr(R1, R4);
        a.brc(NOT_LOW, &format!("{p}_stm_vfail")); // not ours: conflict
        a.cg(R5, MemOperand::indexed(c, R1, ctx::WSET + 24));
        a.jz(&format!("{p}_stm_ownf"));
        a.aghi(R1, 32);
        a.j(&format!("{p}_stm_own"));
        a.label(&format!("{p}_stm_ownf"));
        // Ours: the pre-lock version is lockword − 2^63; check it ≤ rv.
        a.lghi(R1, 1);
        a.sllg(R1, R1, 63);
        a.sgr(R0, R1);
        a.cg(R0, MemOperand::based(c, ctx::RV));
        a.jh(&format!("{p}_stm_vfail"));
        a.label(&format!("{p}_stm_valn"));
        a.aghi(R3, 8);
        a.j(&format!("{p}_stm_val"));
        a.label(&format!("{p}_stm_vfail"));
        a.stm_note(stm_note::VAL_FAIL, R5);
        a.j(&format!("{p}_stm_abort"));
        a.label(&format!("{p}_stm_valok"));
        a.lg(R0, MemOperand::based(c, ctx::RC));
        a.stm_note(stm_note::VAL_PASS, R0);

        // Phase 4: write the redo log back in append order, so the newest
        // of duplicate writes to one address lands last.
        a.lg(R2, MemOperand::based(c, ctx::WC));
        a.sllg(R2, R2, 5);
        a.lghi(R3, 0);
        a.label(&format!("{p}_stm_wb"));
        a.cgr(R3, R2);
        a.brc(NOT_LOW, &format!("{p}_stm_wbd"));
        a.lg(R4, MemOperand::indexed(c, R3, ctx::WSET));
        a.lg(R5, MemOperand::indexed(c, R3, ctx::WSET + 8));
        a.stg(R5, MemOperand::based(R4, 0));
        a.aghi(R3, 32);
        a.j(&format!("{p}_stm_wb"));
        a.label(&format!("{p}_stm_wbd"));

        // Phase 5: release every acquired stripe with wv (clears the lock
        // bit and publishes the new version in one store).
        a.lg(R0, MemOperand::based(c, ctx::WV));
        a.lghi(R3, 0);
        a.label(&format!("{p}_stm_rel"));
        a.cgr(R3, R2);
        a.brc(NOT_LOW, &format!("{p}_stm_reld"));
        a.ltg(R4, MemOperand::indexed(c, R3, ctx::WSET + 24));
        a.jz(&format!("{p}_stm_reln"));
        a.stg(R0, MemOperand::based(R4, 0));
        a.stm_note(stm_note::LOCK_REL, R4);
        a.label(&format!("{p}_stm_reln"));
        a.aghi(R3, 32);
        a.j(&format!("{p}_stm_rel"));
        a.label(&format!("{p}_stm_reld"));

        a.label(&format!("{p}_stm_commit"));
        a.lg(R0, MemOperand::based(c, ctx::WC));
        a.stm_note(stm_note::COMMIT, R0);
        a.j(&format!("{p}_stm_done"));

        // Abort path: restore the version of every stripe acquired this
        // attempt (lockword − 2^63), note the abort, back off, retry.
        a.label(&format!("{p}_stm_abort"));
        a.lg(R2, MemOperand::based(c, ctx::WC));
        a.sllg(R2, R2, 5);
        a.lghi(R3, 0);
        a.lghi(R5, 1);
        a.sllg(R5, R5, 63);
        a.label(&format!("{p}_stm_ab"));
        a.cgr(R3, R2);
        a.brc(NOT_LOW, &format!("{p}_stm_abd"));
        a.ltg(R4, MemOperand::indexed(c, R3, ctx::WSET + 24));
        a.jz(&format!("{p}_stm_abn"));
        a.lg(R0, MemOperand::based(R4, 0));
        a.sgr(R0, R5);
        a.stg(R0, MemOperand::based(R4, 0));
        a.stm_note(stm_note::LOCK_REL, R4);
        a.label(&format!("{p}_stm_abn"));
        a.aghi(R3, 32);
        a.j(&format!("{p}_stm_ab"));
        a.label(&format!("{p}_stm_abd"));
        a.lg(R0, MemOperand::based(c, ctx::ATT));
        a.aghi(R0, 1);
        a.stg(R0, MemOperand::based(c, ctx::ATT));
        a.stm_note(stm_note::ABORT, R0);
        a.ppa(R0);
        a.j(&format!("{p}_stm_retry"));
        a.label(&format!("{p}_stm_done"));
    }

    /// Emits a hybrid transaction from one `body`, emitted once per path:
    /// a TBEGIN fast path whose [`TmAccess`] accesses subscribe to stripe
    /// locks and publish stripe versions plus the clock transactionally,
    /// and the full software path ([`Self::emit_tx`]) it falls back to
    /// after `retry_limit` transient aborts, or at once on a persistent
    /// one. The body's second argument is a label prefix, `{p}_hop` on the
    /// fast path and `{p}_sop` on the software path, so labels the body
    /// defines stay unique.
    ///
    /// `clk` is a register free across the hardware body; it carries the
    /// new clock value (0 until the first write, so read-only fast paths
    /// never touch — and never subscribe to — the clock line). The fallback
    /// transition is marked with a `FALLBACK` note whose simulator-side
    /// counter records the hardware abort code that forced it.
    pub fn emit_hybrid_tx<F>(
        &self,
        a: &mut Assembler,
        p: &str,
        clk: Reg,
        retry_limit: i64,
        spill: &[Reg],
        body: F,
    ) where
        F: Fn(&mut dyn TmAccess, &str),
    {
        assert!(
            clk != R0 && clk != R1 && clk != CTX_REG,
            "clk must avoid the scratch registers and the context pointer"
        );
        a.lghi(R0, 0);
        a.label(&format!("{p}_hretry"));
        a.lghi(clk, 0);
        a.tbegin(TbeginParams::new());
        a.jnz(&format!("{p}_habort"));
        {
            let mut h = HtmBody {
                a,
                stm: self,
                p: p.to_string(),
                n: 0,
                clk,
            };
            body(&mut h, &format!("{p}_hop"));
        }
        // Publish the new clock value if anything was written; read-only
        // fast paths leave the clock line untouched.
        a.cghi(clk, 0);
        a.jz(&format!("{p}_hro"));
        a.stg(clk, MemOperand::absolute(self.layout.clock_addr));
        a.label(&format!("{p}_hro"));
        a.tend();
        a.j(&format!("{p}_hdone"));
        // A stripe the software path holds locked: transient — the lock is
        // released in bounded time, so retry (code 257 distinguishes it
        // from the elision ladder's lock-busy 256 in the abort statistics).
        a.label(&format!("{p}_hbusy"));
        a.tabort(257);
        a.label(&format!("{p}_habort"));
        a.jo(&format!("{p}_hfall"));
        a.aghi(R0, 1);
        a.cgij_ge(R0, retry_limit, &format!("{p}_hfall"));
        a.ppa(R0);
        a.j(&format!("{p}_hretry"));
        a.label(&format!("{p}_hfall"));
        a.stm_note(stm_note::FALLBACK, R0);
        self.emit_tx(a, p, spill, |tx| body(tx, &format!("{p}_sop")));
        a.label(&format!("{p}_hdone"));
    }
}

/// How a transactional body emits its shared-memory accesses.
///
/// A workload writes each critical section once, against this trait, and
/// every synchronization method instruments the same body its own way:
///
/// * [`Assembler`] emits plain `LG`/`STG` — the body as it runs under a
///   lock, inside a hardware transaction (Figure 1 elision, `TBEGINC`), or
///   unsynchronized;
/// * the body handed to [`Stm::emit_tx`] emits the TL2 read and write
///   barriers;
/// * the fast-path body of [`Stm::emit_hybrid_tx`] subscribes to stripe
///   locks and publishes stripe versions.
///
/// Transaction-private instructions — arithmetic, branches, labels, stores
/// to memory no other CPU can see yet — go through [`TmAccess::asm`]
/// uninstrumented.
pub trait TmAccess {
    /// The underlying assembler, for uninstrumented instructions.
    fn asm(&mut self) -> &mut Assembler;

    /// Emits a shared 8-byte read: `dst = *addr`.
    fn read(&mut self, dst: Reg, addr: Reg);

    /// Emits a shared 8-byte write: `*addr = src`.
    fn write(&mut self, src: Reg, addr: Reg);

    /// Emits `dst = *(base + disp)`. The instrumented forms compute the
    /// address into `scratch` with `LA` and call [`TmAccess::read`]; the
    /// plain form folds `disp` into the load and leaves `scratch` alone.
    fn read_at(&mut self, dst: Reg, base: Reg, disp: i64, scratch: Reg) {
        self.asm().la(scratch, MemOperand::based(base, disp));
        self.read(dst, scratch);
    }

    /// Emits `*(base + disp) = src`, forming the address like
    /// [`TmAccess::read_at`].
    fn write_at(&mut self, src: Reg, base: Reg, disp: i64, scratch: Reg) {
        self.asm().la(scratch, MemOperand::based(base, disp));
        self.write(src, scratch);
    }
}

/// The uninstrumented body: plain loads and stores.
impl TmAccess for Assembler {
    fn asm(&mut self) -> &mut Assembler {
        self
    }

    fn read(&mut self, dst: Reg, addr: Reg) {
        self.lg(dst, MemOperand::based(addr, 0));
    }

    fn write(&mut self, src: Reg, addr: Reg) {
        self.stg(src, MemOperand::based(addr, 0));
    }

    fn read_at(&mut self, dst: Reg, base: Reg, disp: i64, _scratch: Reg) {
        self.lg(dst, MemOperand::based(base, disp));
    }

    fn write_at(&mut self, src: Reg, base: Reg, disp: i64, _scratch: Reg) {
        self.stg(src, MemOperand::based(base, disp));
    }
}

/// Panics unless `r` avoids the barriers' scratch registers (R0, R1) and
/// the context pointer: an operand there would be overwritten before use.
fn assert_operand(what: &str, r: Reg) {
    assert!(r != R0 && r != R1 && r != CTX_REG, "{what} {r} is reserved");
}

/// The body of [`Stm::emit_tx`]: shared accesses go through the TL2 read
/// and write sets.
struct TxBody<'a, 'b> {
    a: &'a mut Assembler,
    stm: &'b Stm,
    p: String,
    n: u32,
}

impl TmAccess for TxBody<'_, '_> {
    fn asm(&mut self) -> &mut Assembler {
        self.a
    }

    /// A transactional read, validated TL2 style. Checks the write set
    /// first (newest entry wins), so a transaction reads its own pending
    /// writes. Clobbers R0 and R1; `dst` must avoid R0, R1, and [`CTX_REG`]
    /// (`dst == addr` is fine — the address is consumed before the result
    /// lands).
    fn read(&mut self, dst: Reg, addr: Reg) {
        assert_operand("dst", dst);
        assert_operand("addr", addr);
        let c = CTX_REG;
        let u = format!("{}_r{}", self.p, self.n);
        self.n += 1;
        let a = &mut *self.a;
        // Write-set lookup, newest to oldest (R0 = byte offset).
        a.lg(R0, MemOperand::based(c, ctx::WC));
        a.sllg(R0, R0, 5);
        a.label(&format!("{u}_ws"));
        a.cghi(R0, 0);
        a.jz(&format!("{u}_rd"));
        a.aghi(R0, -32);
        a.cg(addr, MemOperand::indexed(c, R0, ctx::WSET));
        a.jnz(&format!("{u}_ws"));
        a.lg(dst, MemOperand::indexed(c, R0, ctx::WSET + 8)); // forwarded
        a.j(&format!("{u}_ok"));
        a.label(&format!("{u}_rd"));
        // TL2 read: v1 (unlocked, ≤ rv), data, stripe unchanged.
        self.stm.emit_stripe(a, R1, addr);
        a.ltg(R0, MemOperand::based(R1, 0));
        a.jl(&format!("{}_stm_abort", self.p));
        a.lg(dst, MemOperand::based(addr, 0));
        a.cg(R0, MemOperand::based(R1, 0));
        a.jnz(&format!("{}_stm_abort", self.p));
        a.cg(R0, MemOperand::based(c, ctx::RV));
        a.jh(&format!("{}_stm_abort", self.p));
        // Append the stripe address to the read set.
        a.lg(R0, MemOperand::based(c, ctx::RC));
        a.sllg(R0, R0, 3);
        a.stg(R1, MemOperand::indexed(c, R0, ctx::RSET));
        a.srlg(R0, R0, 3);
        a.aghi(R0, 1);
        a.stg(R0, MemOperand::based(c, ctx::RC));
        a.label(&format!("{u}_ok"));
    }

    /// A transactional write: appends `{addr, src, stripe, 0}` to the redo
    /// log (the store reaches memory at commit). Clobbers R0 and R1;
    /// `src`/`addr` must avoid R0, R1, and [`CTX_REG`].
    fn write(&mut self, src: Reg, addr: Reg) {
        assert_operand("src", src);
        assert_operand("addr", addr);
        let c = CTX_REG;
        let a = &mut *self.a;
        self.stm.emit_stripe(a, R1, addr);
        a.lg(R0, MemOperand::based(c, ctx::WC));
        a.sllg(R0, R0, 5);
        a.stg(addr, MemOperand::indexed(c, R0, ctx::WSET));
        a.stg(src, MemOperand::indexed(c, R0, ctx::WSET + 8));
        a.stg(R1, MemOperand::indexed(c, R0, ctx::WSET + 16));
        a.lghi(R1, 0);
        a.stg(R1, MemOperand::indexed(c, R0, ctx::WSET + 24));
        a.srlg(R0, R0, 5);
        a.aghi(R0, 1);
        a.stg(R0, MemOperand::based(c, ctx::WC));
    }
}

/// The hardware fast-path body of [`Stm::emit_hybrid_tx`]: every shared
/// access tests (and thereby subscribes to) its stripe lock, and writes
/// publish the new stripe version so concurrent software transactions
/// validate correctly against hardware commits.
struct HtmBody<'a, 'b> {
    a: &'a mut Assembler,
    stm: &'b Stm,
    p: String,
    n: u32,
    clk: Reg,
}

impl HtmBody<'_, '_> {
    /// The label that aborts the hardware attempt with code 257 (stripe
    /// held by a software committer).
    fn busy_label(&self) -> String {
        format!("{}_hbusy", self.p)
    }
}

impl TmAccess for HtmBody<'_, '_> {
    fn asm(&mut self) -> &mut Assembler {
        self.a
    }

    /// A fast-path read: subscribe to the stripe (abort if a software
    /// transaction holds it), then load. Clobbers R0 and R1.
    fn read(&mut self, dst: Reg, addr: Reg) {
        assert_operand("dst", dst);
        assert_operand("addr", addr);
        let busy = self.busy_label();
        let a = &mut *self.a;
        self.stm.emit_stripe(a, R1, addr);
        a.ltg(R0, MemOperand::based(R1, 0));
        a.jl(&busy);
        a.lg(dst, MemOperand::based(addr, 0));
    }

    /// A fast-path write: lazily claim the next clock value on the first
    /// write (subscribing to the clock line only in writer transactions),
    /// publish it as the stripe's version, then store the data. Clobbers
    /// R0 and R1.
    fn write(&mut self, src: Reg, addr: Reg) {
        assert_operand("src", src);
        assert_operand("addr", addr);
        assert!(
            src != self.clk && addr != self.clk,
            "clk register collides with operands"
        );
        let busy = self.busy_label();
        let u = format!("{}_hw{}", self.p, self.n);
        self.n += 1;
        let clk = self.clk;
        let a = &mut *self.a;
        a.cghi(clk, 0);
        a.jnz(&format!("{u}_have"));
        a.lg(clk, MemOperand::absolute(self.stm.layout.clock_addr));
        a.aghi(clk, 1);
        a.label(&format!("{u}_have"));
        self.stm.emit_stripe(a, R1, addr);
        a.ltg(R0, MemOperand::based(R1, 0));
        a.jl(&busy);
        a.stg(clk, MemOperand::based(R1, 0));
        a.stg(src, MemOperand::based(addr, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ztm_mem::Address;
    use ztm_sim::SystemConfig;

    const VAR: u64 = 0x0100_0000;

    /// Emits `ops` STM increments of the word at `addr` per CPU.
    fn increment_program(stm: &Stm, addr: u64, ops: u64) -> ztm_isa::Program {
        let mut a = Assembler::new(0);
        a.lghi(R6, ops as i64);
        a.label("loop");
        a.lghi(R8, addr as i64);
        stm.emit_tx(&mut a, "inc", &[], |tx| {
            tx.read(R2, R8);
            tx.asm().aghi(R2, 1);
            tx.write(R2, R8);
        });
        a.brctg(R6, "loop");
        a.halt();
        a.assemble().expect("stm increment program assembles")
    }

    fn run_increments(cpus: usize, ops: u64, stripes: u64) -> (System, Stm) {
        let stm = Stm::with_layout(StmLayout::with_stripes(stripes));
        let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(7));
        let prog = increment_program(&stm, VAR, ops);
        sys.load_program_all(&prog);
        stm.layout.install(&mut sys);
        sys.run_until_halt(2_000_000_000);
        (sys, stm)
    }

    #[test]
    fn single_cpu_increments_commit() {
        let (sys, stm) = run_increments(1, 25, 1024);
        assert_eq!(sys.mem().load_u64(Address::new(VAR)), 25);
        let r = sys.report();
        assert_eq!(r.stm.commits, 25);
        assert_eq!(r.stm.aborts, 0, "uncontended transactions never abort");
        // Every commit locked exactly one stripe and bumped the clock once.
        assert_eq!(r.stm.lock_acquires, 25);
        assert_eq!(stm.layout.clock(&sys), 25);
    }

    #[test]
    fn contended_increments_are_atomic() {
        let (sys, stm) = run_increments(4, 25, 1024);
        assert_eq!(
            sys.mem().load_u64(Address::new(VAR)),
            100,
            "no increment may be lost"
        );
        let r = sys.report();
        assert_eq!(r.stm.commits, 100);
        assert!(r.stm.begins >= 100);
        assert_eq!(stm.layout.clock(&sys), 100);
        // The stripe the shared word maps to ends unlocked at version ≤ clock.
        let lock = stm.layout.stripe_lock_addr(VAR);
        let word = sys.mem().load_u64(Address::new(lock));
        assert!(word as i64 >= 0, "stripe left locked");
        assert!(word <= 100);
    }

    #[test]
    fn tiny_stripe_table_forces_conflicts_but_stays_atomic() {
        // Two stripes: every address collides with half the others; false
        // conflicts galore, yet atomicity must hold.
        let stm = Stm::with_layout(StmLayout::with_stripes(2));
        let mut sys = System::new(SystemConfig::with_cpus(6).seed(11));
        let mut a = Assembler::new(0);
        a.lghi(R6, 20);
        a.label("loop");
        a.rand_mod(R8, ztm_isa::RegOrImm::Imm(4));
        a.sllg(R8, R8, 8);
        a.aghi(R8, VAR as i64);
        stm.emit_tx(&mut a, "inc", &[], |tx| {
            tx.read(R2, R8);
            tx.asm().aghi(R2, 1);
            tx.write(R2, R8);
        });
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();
        sys.load_program_all(&prog);
        stm.layout.install(&mut sys);
        sys.run_until_halt(2_000_000_000);
        let sum: u64 = (0..4)
            .map(|i| sys.mem().load_u64(Address::new(VAR + i * 256)))
            .sum();
        assert_eq!(sum, 6 * 20, "increments survive stripe aliasing");
        assert_eq!(sys.report().stm.commits, 6 * 20);
    }

    #[test]
    fn read_after_write_sees_own_store() {
        // Transfer from an account to itself: the second read must observe
        // the first buffered write or money is created from nothing.
        let stm = Stm::new();
        let mut sys = System::new(SystemConfig::with_cpus(1));
        sys.mem_mut().store_u64(Address::new(VAR), 500);
        let mut a = Assembler::new(0);
        a.lghi(R8, VAR as i64);
        a.lghi(R9, VAR as i64);
        stm.emit_tx(&mut a, "xfer", &[], |tx| {
            tx.read(R2, R8);
            tx.asm().aghi(R2, -70);
            tx.write(R2, R8);
            tx.read(R2, R9);
            tx.asm().aghi(R2, 70);
            tx.write(R2, R9);
        });
        a.halt();
        let prog = a.assemble().unwrap();
        sys.load_program_all(&prog);
        stm.layout.install(&mut sys);
        sys.run_until_halt(1_000_000);
        assert_eq!(
            sys.mem().load_u64(Address::new(VAR)),
            500,
            "self-transfer must net to zero"
        );
    }

    #[test]
    fn read_only_transaction_takes_no_locks() {
        let stm = Stm::new();
        let mut sys = System::new(SystemConfig::with_cpus(1));
        sys.mem_mut().store_u64(Address::new(VAR), 42);
        let mut a = Assembler::new(0);
        a.lghi(R8, VAR as i64);
        stm.emit_tx(&mut a, "ro", &[], |tx| {
            tx.read(R2, R8);
            tx.asm().lgr(R9, R2); // commit clobbers R2–R5; park the result
        });
        a.halt();
        let prog = a.assemble().unwrap();
        sys.load_program_all(&prog);
        stm.layout.install(&mut sys);
        sys.run_until_halt(1_000_000);
        assert_eq!(sys.core(0).gr(R9), 42);
        let r = sys.report();
        assert_eq!(r.stm.commits, 1);
        assert_eq!(r.stm.lock_acquires, 0);
        assert_eq!(
            stm.layout.clock(&sys),
            0,
            "read-only commits skip the clock"
        );
    }

    #[test]
    fn hybrid_increments_are_atomic_and_use_the_fast_path() {
        let stm = Stm::new();
        let mut sys = System::new(SystemConfig::with_cpus(4).seed(3));
        let mut a = Assembler::new(0);
        a.lghi(R6, 25);
        a.label("loop");
        a.lghi(R8, VAR as i64);
        stm.emit_hybrid_tx(&mut a, "inc", R5, 6, &[], |t, _| {
            t.read(R2, R8);
            t.asm().aghi(R2, 1);
            t.write(R2, R8);
        });
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();
        sys.load_program_all(&prog);
        stm.layout.install(&mut sys);
        sys.run_until_halt(2_000_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(VAR)), 100);
        let r = sys.report();
        assert!(r.tx.commits > 0, "hardware fast path must commit");
        assert_eq!(
            r.tx.commits + r.stm.commits,
            100,
            "every op commits exactly once, in hardware or software"
        );
        // Hardware commits publish the clock; software commits CSG it; the
        // final clock equals the number of writer commits either way.
        assert_eq!(stm.layout.clock(&sys), 100);
    }

    #[test]
    fn capacity_abort_escalates_to_software_fallback() {
        // 80 distinct cache lines overflow the 64-entry gathering store
        // cache: the hardware attempt dies with StoreOverflow (code 8,
        // CC3 = permanent), the ladder must skip its transient retries and
        // fall straight back to the software path, which has no footprint
        // limit and commits.
        const BASE: u64 = 0x7000_0000;
        const LINES: i64 = 80;
        let stm = Stm::new();
        let mut sys = System::new(SystemConfig::with_cpus(1).seed(11));
        let mut a = Assembler::new(0);
        stm.emit_hybrid_tx(&mut a, "cap", R9, 6, &[], |t, p| {
            let lp = format!("{p}_loop");
            t.asm().lghi(R7, LINES);
            t.asm().lghi(R8, BASE as i64);
            t.asm().lghi(R2, 1);
            t.asm().label(&lp);
            t.write(R2, R8);
            t.asm().aghi(R8, 256);
            t.asm().brctg(R7, &lp);
        });
        a.halt();
        let prog = a.assemble().unwrap();
        sys.load_program_all(&prog);
        stm.layout.install(&mut sys);
        sys.run_until_halt(2_000_000_000);
        let r = sys.report();
        assert_eq!(r.tx.commits, 0, "the hardware attempt cannot fit");
        assert_eq!(r.stm.fallbacks, 1, "one escalation to software");
        assert_eq!(
            r.stm.fallback_codes.get(&8).copied(),
            Some(1),
            "the fallback is attributed to StoreOverflow (abort code 8)"
        );
        assert_eq!(r.stm.commits, 1, "the software path commits");
        for i in 0..LINES as u64 {
            assert_eq!(
                sys.mem().load_u64(Address::new(BASE + i * 256)),
                1,
                "line {i} written by the software commit"
            );
        }
    }

    #[test]
    #[should_panic(expected = "addr r1 is reserved")]
    fn fast_path_rejects_a_reserved_address_register() {
        // The stripe lands in R1 before the data load, so an address there
        // would load the stripe word instead of the data.
        let mut a = Assembler::new(0);
        Stm::new().emit_hybrid_tx(&mut a, "x", R5, 6, &[], |t, _| t.read(R2, R1));
    }

    #[test]
    fn stripe_mapping_matches_emitted_arithmetic() {
        let l = StmLayout::default();
        assert_eq!(l.stripe_lock_addr(0), l.lock_base);
        assert_eq!(l.stripe_lock_addr(8), l.lock_base + 8);
        assert_eq!(l.stripe_lock_addr(8 * 1024), l.lock_base);
        let small = StmLayout::with_stripes(2);
        assert_eq!(small.stripe_lock_addr(24), small.lock_base + 8);
    }
}
