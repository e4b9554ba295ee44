//! Virtual address space layout.
//!
//! The simulated address space is a 64-bit flat space carved into fixed
//! regions. Addresses below [`GLOBAL_BASE`] are never mapped so that null
//! and near-null dereferences fault in every mode, as they would on a real
//! OS with an unmapped zero page.
//!
//! ```text
//!   0x0000_0000_0000_0000 .. GLOBAL_BASE     unmapped (null page)
//!   GLOBAL_BASE .. GLOBAL_BASE+len           globals and string literals
//!   HEAP_BASE   .. HEAP_BASE+len             heap (free-list allocator)
//!   STACK_BASE  .. STACK_BASE+len            stack (grows downward)
//!   OOB_ZONE_BASE ..                         out-of-bounds descriptors
//! ```
//!
//! The OOB zone is never backed by bytes: addresses in it encode an index
//! into the [`crate::oob::OobRegistry`], mirroring how CRED replaces
//! out-of-bounds pointer values with pointers to descriptor objects.

/// Base address of the global data region.
pub const GLOBAL_BASE: u64 = 0x0001_0000;

/// Base address of the heap region.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// Base address of the stack region. The stack grows downward from
/// `STACK_BASE + stack_len` toward `STACK_BASE`.
pub const STACK_BASE: u64 = 0x7000_0000;

/// Base of the out-of-bounds descriptor zone.
///
/// Pointer arithmetic that leaves its data unit produces an address in this
/// zone; dereferencing such an address is a memory error in every checked
/// mode. The zone is placed far above all mapped regions so no legitimate
/// address can collide with it.
pub const OOB_ZONE_BASE: u64 = 0xF000_0000_0000_0000;

/// Stride between consecutive OOB descriptor addresses.
///
/// A non-unit stride keeps distinct descriptors from comparing equal after
/// small integer offsets are folded into the encoded address.
pub const OOB_STRIDE: u64 = 0x10;

/// Which mapped region an address falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Global variables and string literals.
    Global,
    /// The simulated heap.
    Heap,
    /// The simulated stack.
    Stack,
}

/// Width of a single memory access, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSize {
    /// One byte (`char`).
    B1,
    /// Two bytes (`short`).
    B2,
    /// Four bytes (`int`).
    B4,
    /// Eight bytes (`long` and pointers).
    B8,
}

impl AccessSize {
    /// Number of bytes covered by the access.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            AccessSize::B1 => 1,
            AccessSize::B2 => 2,
            AccessSize::B4 => 4,
            AccessSize::B8 => 8,
        }
    }

    /// Access size for a value of `bytes` width.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not 1, 2, 4, or 8.
    #[inline]
    pub fn from_bytes(bytes: u64) -> AccessSize {
        match bytes {
            1 => AccessSize::B1,
            2 => AccessSize::B2,
            4 => AccessSize::B4,
            8 => AccessSize::B8,
            other => panic!("unsupported access width: {other}"),
        }
    }
}

/// A contiguous mapped region, committed lazily.
///
/// The region *reserves* `len` bytes of address space but backs only a
/// committed window `[commit_base, commit_base + bytes.len())` with real
/// storage; everything outside the window is logically zero. Reads
/// manufacture those zeros without allocating; writes grow the window
/// geometrically toward the touched offset (which handles both the
/// upward-growing heap and the downward-growing stack).
///
/// **The window is what everything downstream pays for, byte for
/// byte**: a cold boot zeroes it, `grow` reallocates it, `Clone` — the
/// region half of a boot checkpoint, so every supervised restart —
/// memcpys it, the checkpoint cache holds one per entry, and resident
/// memory carries it. So the rule is that a window tracks what the
/// guest *touched*, never what the region reserves: it anchors at the
/// first touch, opens at two to four pages ([`COMMIT_PAGE`]: one of
/// padding on each side that the region has room for, edges rounded
/// outward) and at most doubles per growth. Grown from its region's edge
/// — the heap from its base, the stack from its top — it stays within
/// 2 × touched + 2 pages, and sequential growth is O(final size). A
/// booted server's three windows come to 16–188 KiB (Apache 24 KiB)
/// against 76 MB reserved.
#[derive(Debug, Clone)]
pub struct Region {
    kind: RegionKind,
    base: u64,
    /// Reserved size in bytes; bounds checks answer against this.
    len: usize,
    /// Offset of `bytes[0]` within the region.
    commit_base: usize,
    /// The committed window's storage.
    bytes: Vec<u8>,
}

/// Commit granularity: window edges are aligned to it, or clipped to
/// the region's own bounds.
///
/// Measured, not inherited (ISSUE 18). At 64 KiB — chosen before
/// checkpoints existed — a booted Apache worker committed 3 × 128 KiB
/// to hold 1 720 B of globals, ≤160 B of heap and <1 KiB of stack, and
/// restoring that memcpy was 42% of `apache_flood`'s wall
/// (`BENCHMARK.json` harness, `throughput_rps`: 25.9k req/s at 64 KiB,
/// 35.3k at 16 KiB, 39.6k at 4 KiB, 41.4k at 1 KiB — within 5% at and
/// below the page, where the copy is no longer the restart's largest
/// term, so the page it is). Not a setting: nothing a caller knows
/// could pick a better value than the measurement did.
const COMMIT_PAGE: usize = 4 << 10;

impl Region {
    /// Creates a logically zero region of `len` bytes starting at
    /// `base`, committing no storage yet.
    pub fn new(kind: RegionKind, base: u64, len: usize) -> Region {
        Region {
            kind,
            base,
            len,
            commit_base: 0,
            bytes: Vec::new(),
        }
    }

    /// Bytes of real storage currently committed (diagnostics).
    pub fn committed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Extends the committed window to cover `[off, end)`, padding
    /// geometrically (at least the current window size, at least one
    /// page) in the direction(s) that grew so repeated nearby touches
    /// amortise to O(final window).
    #[cold]
    fn grow(&mut self, off: usize, end: usize) {
        // An empty window anchors at the touched range, not at offset 0
        // — the stack's first touch is near the *top* of its region, and
        // anchoring low would commit the whole region eagerly.
        let (cur_lo, cur_hi) = if self.bytes.is_empty() {
            (off, end)
        } else {
            (self.commit_base, self.commit_base + self.bytes.len())
        };
        let pad = self.bytes.len().max(COMMIT_PAGE);
        let mut lo = cur_lo.min(off);
        let mut hi = cur_hi.max(end);
        if self.bytes.is_empty() || off < cur_lo {
            lo = lo.saturating_sub(pad);
        }
        if self.bytes.is_empty() || end > cur_hi {
            hi = hi.saturating_add(pad);
        }
        lo -= lo % COMMIT_PAGE;
        hi = hi.div_ceil(COMMIT_PAGE) * COMMIT_PAGE;
        hi = hi.min(self.len);
        debug_assert!(lo <= off && end <= hi);
        let mut grown = vec![0u8; hi - lo];
        if !self.bytes.is_empty() {
            grown[cur_lo - lo..cur_hi - lo].copy_from_slice(&self.bytes);
        }
        self.commit_base = lo;
        self.bytes = grown;
    }

    /// Copies the committed overlap of `[off, off + out.len())` into
    /// `out`; bytes outside the window keep their existing (zero)
    /// contents. The one place the window-overlap arithmetic lives.
    #[inline]
    fn copy_committed(&self, off: usize, out: &mut [u8]) {
        let lo = off.max(self.commit_base);
        let hi = (off + out.len()).min(self.commit_base + self.bytes.len());
        if lo < hi {
            out[lo - off..hi - off]
                .copy_from_slice(&self.bytes[lo - self.commit_base..hi - self.commit_base]);
        }
    }

    /// Ensures `[off, end)` is backed by committed storage.
    #[inline]
    fn commit(&mut self, off: usize, end: usize) {
        if off < self.commit_base || end > self.commit_base + self.bytes.len() {
            self.grow(off, end);
        }
    }

    /// The region's kind.
    #[inline]
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// First mapped address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last mapped address.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.len as u64
    }

    /// Whether the whole access `[addr, addr + len)` is inside the region.
    #[inline]
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.checked_add(len).is_some_and(|e| e <= self.end())
    }

    /// Reads `size` bytes at `addr` as a little-endian unsigned value.
    /// Bytes outside the committed window read as zero.
    ///
    /// Returns `None` when any byte of the access is outside the region.
    #[inline]
    pub fn read(&self, addr: u64, size: AccessSize) -> Option<u64> {
        let len = size.bytes() as usize;
        if !self.contains(addr, len as u64) {
            return None;
        }
        let off = (addr - self.base) as usize;
        let mut buf = [0u8; 8];
        self.copy_committed(off, &mut buf[..len]);
        Some(u64::from_le_bytes(buf))
    }

    /// Writes the low `size` bytes of `value` at `addr`, little-endian,
    /// committing storage as needed.
    ///
    /// Returns `false` when any byte of the access is outside the region.
    #[inline]
    pub fn write(&mut self, addr: u64, size: AccessSize, value: u64) -> bool {
        let len = size.bytes() as usize;
        if !self.contains(addr, len as u64) {
            return false;
        }
        let off = (addr - self.base) as usize;
        self.commit(off, off + len);
        let at = off - self.commit_base;
        self.bytes[at..at + len].copy_from_slice(&value.to_le_bytes()[..len]);
        true
    }

    /// Copies `len` raw bytes starting at `addr` out to the host; bytes
    /// outside the committed window read as zero.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Option<Vec<u8>> {
        if !self.contains(addr, len) {
            return None;
        }
        let off = (addr - self.base) as usize;
        let mut out = vec![0u8; len as usize];
        self.copy_committed(off, &mut out);
        Some(out)
    }

    /// Mutably borrows `len` raw bytes starting at `addr`, committing
    /// storage as needed.
    pub fn slice_mut(&mut self, addr: u64, len: u64) -> Option<&mut [u8]> {
        if !self.contains(addr, len) {
            return None;
        }
        let off = (addr - self.base) as usize;
        let len = len as usize;
        self.commit(off, off + len);
        let at = off - self.commit_base;
        Some(&mut self.bytes[at..at + len])
    }

    /// Borrows the longest prefix of `[addr, addr + len)` that is inside
    /// the committed window, committing nothing: empty when `addr` is
    /// outside the window (those bytes are logical zeros with no
    /// storage to lend) or outside the region.
    pub fn committed_prefix(&self, addr: u64, len: u64) -> &[u8] {
        let window = self.base + self.commit_base as u64;
        match addr.checked_sub(window) {
            Some(at) if at < self.bytes.len() as u64 => {
                let rest = &self.bytes[at as usize..];
                &rest[..len.min(rest.len() as u64) as usize]
            }
            _ => &[],
        }
    }

    /// The committed window as it stands: the address of its first byte
    /// and its storage. Nothing reachable through the borrow can grow
    /// or move the window, so an offset into it stays valid for as long
    /// as the borrow does.
    #[inline]
    pub fn committed_mut(&mut self) -> (u64, &mut [u8]) {
        (self.base + self.commit_base as u64, &mut self.bytes)
    }
}

/// Whether `addr` encodes an out-of-bounds descriptor.
#[inline]
pub const fn is_oob_zone(addr: u64) -> bool {
    addr >= OOB_ZONE_BASE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Absolute on purpose: a bound written in terms of the granule
    /// constant passes at any granule.
    const PAGE: usize = 4096;

    #[test]
    fn region_round_trips_all_access_sizes() {
        let mut r = Region::new(RegionKind::Heap, 0x1000, 64);
        for (size, value) in [
            (AccessSize::B1, 0xABu64),
            (AccessSize::B2, 0xBEEF),
            (AccessSize::B4, 0xDEAD_BEEF),
            (AccessSize::B8, 0x0123_4567_89AB_CDEF),
        ] {
            assert!(r.write(0x1008, size, value));
            assert_eq!(r.read(0x1008, size), Some(value));
        }
    }

    #[test]
    fn region_truncates_to_access_width() {
        let mut r = Region::new(RegionKind::Heap, 0, 16);
        assert!(r.write(0, AccessSize::B8, 0));
        assert!(r.write(0, AccessSize::B1, 0x1FF));
        assert_eq!(r.read(0, AccessSize::B8), Some(0xFF));
    }

    #[test]
    fn region_rejects_out_of_range_accesses() {
        let mut r = Region::new(RegionKind::Stack, 0x100, 8);
        assert_eq!(r.read(0xFF, AccessSize::B1), None);
        assert_eq!(r.read(0x108, AccessSize::B1), None);
        assert_eq!(r.read(0x101, AccessSize::B8), None);
        assert!(!r.write(0x105, AccessSize::B4, 1));
        // The final in-bounds byte is still writable.
        assert!(r.write(0x107, AccessSize::B1, 1));
    }

    #[test]
    fn region_rejects_wrapping_accesses() {
        let r = Region::new(RegionKind::Heap, 0x1000, 64);
        assert_eq!(r.read(u64::MAX - 2, AccessSize::B8), None);
        assert!(!r.contains(u64::MAX, 8));
    }

    #[test]
    fn little_endian_layout_is_observable_bytewise() {
        let mut r = Region::new(RegionKind::Global, 0, 8);
        assert!(r.write(0, AccessSize::B4, 0x0403_0201));
        assert_eq!(r.read(0, AccessSize::B1), Some(0x01));
        assert_eq!(r.read(1, AccessSize::B1), Some(0x02));
        assert_eq!(r.read(2, AccessSize::B1), Some(0x03));
        assert_eq!(r.read(3, AccessSize::B1), Some(0x04));
    }

    #[test]
    fn lazy_commit_stays_near_the_touched_offset() {
        // A fresh region commits nothing.
        let mut r = Region::new(RegionKind::Stack, 0, 8 << 20);
        assert_eq!(r.committed_bytes(), 0);
        // Reads never commit.
        assert_eq!(r.read(4 << 20, AccessSize::B8), Some(0));
        assert_eq!(
            r.read_bytes(1 << 20, 1 << 16).map(|b| b.len()),
            Some(1 << 16)
        );
        assert!(r.committed_prefix(4 << 20, 64).is_empty());
        assert_eq!(r.committed_bytes(), 0);
        // The first write near the TOP of the region (where the
        // downward-growing stack starts) anchors the window at the
        // touched offset: pages, not a share of the reservation.
        let top = (8 << 20) - 16;
        assert!(r.write(top, AccessSize::B8, 0xDEAD));
        assert!(
            r.committed_bytes() <= 3 * PAGE,
            "first stack write committed {} bytes",
            r.committed_bytes()
        );
        // The window then grows toward deeper frames, and reads
        // straddling the window edge see committed and zero bytes.
        assert!(r.write(top - (1 << 20), AccessSize::B8, 0xBEEF));
        assert_eq!(r.read(top, AccessSize::B8), Some(0xDEAD));
        assert_eq!(r.read(top - (1 << 20), AccessSize::B8), Some(0xBEEF));
        assert_eq!(r.read(1024, AccessSize::B8), Some(0));
        assert!(r.committed_bytes() <= (1 << 20) + 4 * PAGE);
        // Reads outside the grown window still commit nothing.
        let before = r.committed_bytes();
        assert_eq!(r.read(64, AccessSize::B8), Some(0));
        assert_eq!(r.committed_bytes(), before);
    }

    /// Writes `span` bytes in 64-byte steps (ascending from offset 0, or
    /// descending from the region's top) and returns how many distinct
    /// window sizes the region passed through. At every step the window
    /// must stay within 2 × touched + 2 pages.
    fn sweep(r: &mut Region, span: usize, downward: bool) -> usize {
        let mut sizes = 0;
        let mut last = 0;
        for step in 0..span / 64 {
            let off = if downward {
                r.len - 64 * (step + 1)
            } else {
                64 * step
            };
            assert!(r.write(r.base + off as u64, AccessSize::B8, step as u64 + 1));
            if r.committed_bytes() != last {
                last = r.committed_bytes();
                sizes += 1;
                let touched = 64 * (step + 1);
                assert!(
                    last <= 2 * touched + 2 * PAGE,
                    "{last} bytes committed for {touched} touched"
                );
            }
        }
        sizes
    }

    #[test]
    fn growth_stays_geometric_at_page_granularity() {
        // A page-sized granule must not make sequential growth
        // quadratic: 4 MiB touched 64 bytes at a time reallocates the
        // window a dozen times, not a thousand, in either direction.
        let span = 4 << 20;
        let mut heap = Region::new(RegionKind::Heap, 0x1000_0000, 64 << 20);
        let sizes = sweep(&mut heap, span, false);
        assert!(sizes <= 12, "heap passed through {sizes} window sizes");
        assert!(heap.committed_bytes() >= span);
        let mut stack = Region::new(RegionKind::Stack, 0x7000_0000, 8 << 20);
        let sizes = sweep(&mut stack, span, true);
        assert!(sizes <= 12, "stack passed through {sizes} window sizes");
        assert!(stack.committed_bytes() >= span);
        // Every byte written survived every reallocation.
        assert_eq!(heap.read(0x1000_0000 + 640, AccessSize::B8), Some(11));
        let top = stack.end();
        assert_eq!(stack.read(top - 64 * 11, AccessSize::B8), Some(11));
    }

    #[test]
    fn window_edges_are_page_aligned_or_clipped_to_the_region() {
        // A region smaller than a page commits itself, not a page.
        let mut tiny = Region::new(RegionKind::Heap, 0x1000, 64);
        assert!(tiny.write(0x1020, AccessSize::B8, 7));
        assert_eq!((tiny.commit_base, tiny.committed_bytes()), (0, 64));
        // A ragged region: interior edges sit on pages, the top edge on
        // the region's own end.
        let len = 10 * PAGE + 100;
        let mut r = Region::new(RegionKind::Global, 0x1_0000, len);
        assert!(r.write(0x1_0000 + 5 * PAGE as u64 + 8, AccessSize::B8, 1));
        assert_eq!(r.commit_base % PAGE, 0);
        assert_eq!((r.commit_base + r.committed_bytes()) % PAGE, 0);
        assert!(r.committed_bytes() <= 3 * PAGE);
        assert!(r.write(r.end() - 8, AccessSize::B8, 2));
        assert_eq!(r.commit_base % PAGE, 0);
        assert_eq!(r.commit_base + r.committed_bytes(), len);
    }

    #[test]
    fn oob_zone_is_disjoint_from_regions() {
        assert!(is_oob_zone(OOB_ZONE_BASE));
        assert!(!is_oob_zone(STACK_BASE + 0x100_0000));
        // Any mapped region must end far below the zone.
        let r = Region::new(RegionKind::Stack, STACK_BASE, 64 << 20);
        assert!(!is_oob_zone(r.end()));
    }
}
