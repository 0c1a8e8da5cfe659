//! The committed architectural memory image.

use crate::{Address, LineAddr, LINE_SIZE};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A multiplicative hasher for the simulator's internal address-keyed maps.
///
/// Line/page indices are dense, low-entropy, and simulator-internal (never
/// attacker-controlled), so the DoS hardening of the default SipHash buys
/// nothing — and the line map is consulted on every simulated load/store.
/// A single Fibonacci multiply mixes the low bits of a line index into the
/// high bits that the hash table's control bytes are taken from.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

/// `BuildHasher` for [`AddrHasher`], usable with `HashMap::with_hasher`.
pub type AddrHashBuilder = BuildHasherDefault<AddrHasher>;

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The committed (architecturally visible) memory of the simulated system.
///
/// Storage is sparse: lines are allocated on first touch and zero-filled, so a
/// benchmark can place data anywhere in the 64-bit space without cost.
///
/// `MainMemory` holds only *committed* state. Speculative transactional stores
/// live in each CPU's gathering store cache / L1 overlay (see `ztm-cache`) and
/// are merged in on commit; on abort they are simply discarded, which is how
/// the simulator realizes the all-or-nothing atomicity of §II.A.
///
/// # Examples
///
/// ```
/// use ztm_mem::{Address, MainMemory};
///
/// let mut mem = MainMemory::new();
/// assert_eq!(mem.load_u64(Address::new(0)), 0); // untouched memory reads 0
/// mem.store_u64(Address::new(8), 0xdead_beef);
/// assert_eq!(mem.load_u64(Address::new(8)), 0xdead_beef);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    /// Line index → arena slot. Lines are allocated on first store and never
    /// freed, so a slot number, once handed out, stays valid forever — that
    /// immutability is what makes the `front` cache safe.
    index: HashMap<LineAddr, u32, AddrHashBuilder>,
    /// Line payloads, contiguous. Dense storage beats one `Box` per line
    /// both on allocator traffic and on host-cache locality: lines populated
    /// together (a workload's table, a CPU's arena) end up adjacent.
    arena: Vec<[u8; LINE_SIZE as usize]>,
    /// Direct-mapped front cache over `index`: `front[line % N]` remembers
    /// `(line index, arena slot)`. Purely an accessor-side memo — slots never
    /// move or die — so it lives in `Cell`s and loads stay `&self`.
    front: Box<[Cell<(u64, u32)>]>,
}

/// Folds the memory image: every line holding a non-zero byte, with its
/// address, in address order. A line never stored to and a line of zeros
/// read the same, so they fold the same; the arena layout and the `front`
/// memo are left out.
impl Hash for MainMemory {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let MainMemory {
            index,
            arena,
            front: _,
        } = self;
        let mut lines: Vec<(LineAddr, u32)> = index.iter().map(|(&l, &s)| (l, s)).collect();
        lines.sort_unstable();
        for (line, slot) in lines {
            let bytes = &arena[slot as usize];
            if bytes.iter().any(|&b| b != 0) {
                line.hash(state);
                bytes.hash(state);
            }
        }
    }
}

/// Front-cache size; must be a power of two.
const FRONT_WAYS: usize = 512;
/// Sentinel line key meaning "empty front slot" (no real line maps to it:
/// a line index is an address shifted right by 8, so it is < 2^56).
const FRONT_EMPTY: u64 = u64::MAX;

impl MainMemory {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    fn front(&self) -> &[Cell<(u64, u32)>] {
        // `Default` derives an empty box; materialize the table lazily is
        // not possible under `&self`, so treat "empty" as "all misses".
        &self.front
    }

    fn ensure_front(&mut self) {
        if self.front.is_empty() {
            self.front = (0..FRONT_WAYS)
                .map(|_| Cell::new((FRONT_EMPTY, 0)))
                .collect();
        }
    }

    /// Finds the arena slot for a line, if it has ever been stored to.
    #[inline]
    fn slot_of(&self, line: LineAddr) -> Option<u32> {
        let key = line.index();
        let front = self.front();
        if front.is_empty() {
            return self.index.get(&line).copied();
        }
        let way = &front[key as usize & (FRONT_WAYS - 1)];
        let (ck, cs) = way.get();
        if ck == key {
            return Some(cs);
        }
        let slot = self.index.get(&line).copied();
        if let Some(s) = slot {
            way.set((key, s));
        }
        slot
    }

    /// Number of lines that have been touched (allocated).
    pub fn resident_lines(&self) -> usize {
        self.index.len()
    }

    /// The arena slot backing `line`, if the line has ever been stored to.
    ///
    /// Slots are immutable once handed out — lines are never freed and the
    /// arena never reorders — so a slot stays valid for the lifetime of the
    /// memory image.
    #[inline]
    pub fn line_slot(&self, line: LineAddr) -> Option<u32> {
        self.slot_of(line)
    }

    /// Reads `buf.len()` bytes starting at `addr`. The access may span lines;
    /// each line touched costs one (cached) map lookup.
    pub fn load_bytes(&self, addr: Address, buf: &mut [u8]) {
        let mut i = 0;
        while i < buf.len() {
            let a = addr.add(i as u64);
            let off = a.offset_in_line() as usize;
            let n = (LINE_SIZE as usize - off).min(buf.len() - i);
            match self.slot_of(a.line()) {
                Some(slot) => {
                    buf[i..i + n].copy_from_slice(&self.arena[slot as usize][off..off + n])
                }
                None => buf[i..i + n].fill(0),
            }
            i += n;
        }
    }

    /// Writes `buf` starting at `addr`. The access may span lines; each line
    /// touched costs one (cached) map lookup.
    pub fn store_bytes(&mut self, addr: Address, buf: &[u8]) {
        let mut i = 0;
        while i < buf.len() {
            let a = addr.add(i as u64);
            let off = a.offset_in_line() as usize;
            let n = (LINE_SIZE as usize - off).min(buf.len() - i);
            let slot = match self.slot_of(a.line()) {
                Some(s) => s,
                None => {
                    self.ensure_front();
                    let s = u32::try_from(self.arena.len()).expect("arena slot overflow");
                    self.arena.push([0u8; LINE_SIZE as usize]);
                    self.index.insert(a.line(), s);
                    self.front()[a.line().index() as usize & (FRONT_WAYS - 1)]
                        .set((a.line().index(), s));
                    s
                }
            };
            self.arena[slot as usize][off..off + n].copy_from_slice(&buf[i..i + n]);
            i += n;
        }
    }

    /// Reads a big-endian `u64` (z/Architecture is big-endian).
    pub fn load_u64(&self, addr: Address) -> u64 {
        let off = addr.offset_in_line() as usize;
        if off + 8 <= LINE_SIZE as usize {
            // Within one line: a single slot lookup and a fixed-size read.
            return match self.slot_of(addr.line()) {
                Some(slot) => {
                    let line = &self.arena[slot as usize];
                    u64::from_be_bytes(line[off..off + 8].try_into().expect("8-byte slice"))
                }
                None => 0,
            };
        }
        let mut buf = [0u8; 8];
        self.load_bytes(addr, &mut buf);
        u64::from_be_bytes(buf)
    }

    /// Writes a big-endian `u64`.
    pub fn store_u64(&mut self, addr: Address, value: u64) {
        self.store_bytes(addr, &value.to_be_bytes());
    }

    /// Reads a big-endian `u32`.
    pub fn load_u32(&self, addr: Address) -> u32 {
        let mut buf = [0u8; 4];
        self.load_bytes(addr, &mut buf);
        u32::from_be_bytes(buf)
    }

    /// Writes a big-endian `u32`.
    pub fn store_u32(&mut self, addr: Address, value: u32) {
        self.store_bytes(addr, &value.to_be_bytes());
    }

    /// Returns a copy of the full line containing `addr` (zero-filled if
    /// untouched).
    pub fn line_contents(&self, line: LineAddr) -> [u8; LINE_SIZE as usize] {
        match self.slot_of(line) {
            Some(slot) => self.arena[slot as usize],
            None => [0u8; LINE_SIZE as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let mem = MainMemory::new();
        assert_eq!(mem.load_u64(Address::new(0xdead_0000)), 0);
        assert_eq!(mem.resident_lines(), 0);
    }

    #[test]
    fn u64_round_trip_big_endian() {
        let mut mem = MainMemory::new();
        mem.store_u64(Address::new(16), 0x0102_0304_0506_0708);
        let mut b = [0u8; 8];
        mem.load_bytes(Address::new(16), &mut b);
        assert_eq!(b, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(mem.load_u64(Address::new(16)), 0x0102_0304_0506_0708);
    }

    #[test]
    fn u32_round_trip() {
        let mut mem = MainMemory::new();
        mem.store_u32(Address::new(100), 0xCAFE_F00D);
        assert_eq!(mem.load_u32(Address::new(100)), 0xCAFE_F00D);
    }

    #[test]
    fn cross_line_access() {
        let mut mem = MainMemory::new();
        // Write 8 bytes straddling the line boundary at 256.
        mem.store_u64(Address::new(252), u64::MAX);
        assert_eq!(mem.load_u64(Address::new(252)), u64::MAX);
        assert_eq!(mem.resident_lines(), 2);
    }

    #[test]
    fn line_contents_reflects_stores() {
        let mut mem = MainMemory::new();
        mem.store_u64(Address::new(256 + 8), 0x1122_3344_5566_7788);
        let line = mem.line_contents(LineAddr::new(1));
        assert_eq!(line[8], 0x11);
        assert_eq!(line[15], 0x88);
        assert_eq!(line[0], 0);
        // Untouched line is zero.
        assert_eq!(mem.line_contents(LineAddr::new(42)), [0u8; 256]);
    }

    #[test]
    fn overlapping_stores_last_wins() {
        let mut mem = MainMemory::new();
        mem.store_u64(Address::new(0), 1);
        mem.store_u64(Address::new(4), 2);
        assert_eq!(mem.load_u32(Address::new(0)), 0);
        assert_eq!(mem.load_u64(Address::new(4)), 2);
    }
}
