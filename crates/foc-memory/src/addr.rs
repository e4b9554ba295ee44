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

use crate::restore;

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
/// short list of committed windows with real storage — sorted, disjoint
/// and never adjacent, each edge on a page ([`COMMIT_PAGE`]) or on the
/// region's own bounds; every byte outside every window is logically
/// zero. Reads manufacture those zeros without allocating; writes grow
/// the nearest window geometrically toward the touched offset (which
/// handles both the upward-growing heap and the downward-growing stack),
/// or open a window of their own when the gap to it is longer than the
/// window.
///
/// **The windows are what everything downstream pays for, byte for
/// byte**: a cold boot zeroes them, `grow` reallocates them, `Clone` —
/// the region half of a boot checkpoint, so every supervised restart —
/// memcpys each of them, the checkpoint cache holds one copy per entry,
/// and resident memory carries them. So the rule is that the windows
/// track the pages the guest *touched*, never what the region reserves
/// nor the span between two distant touches: a window opens at its first
/// touch at two to four pages (one of padding on each side that the
/// region has room for, edges rounded outward), at most doubles per
/// growth, and merges with any window it meets; a loader's all-zero
/// pages commit nothing ([`Region::write_bytes`]). Grown from its
/// region's edge — the heap from its base, the stack from its top — a
/// window stays within 2 × touched + 2 pages, and sequential growth is
/// O(final size). A booted server's windows come to 16–36 KiB (Apache
/// 24 KiB; Pine 36 KiB, its 128-slot message table a gap until mail
/// arrives) against 76 MB reserved.
#[derive(Debug, Clone)]
pub struct Region {
    kind: RegionKind,
    base: u64,
    /// Reserved size in bytes; bounds checks answer against this.
    len: usize,
    /// The committed windows, in address order, no two meeting.
    windows: Vec<Window>,
}

/// One committed window of a [`Region`]: its storage and where that
/// starts within the region.
#[derive(Debug, Clone)]
pub(crate) struct Window {
    /// Offset of `bytes[0]` within the region.
    pub(crate) at: usize,
    pub(crate) bytes: Vec<u8>,
}

impl Window {
    /// One past the window's last offset within the region.
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.at + self.bytes.len()
    }

    /// Overwrites this window with `src` in its own storage
    /// ([`crate::restore`]).
    fn restore_from(&mut self, src: &Window) {
        let Window { at, bytes } = self;
        *at = src.at;
        restore::vec(bytes, &src.bytes);
    }
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

/// The never-written bytes between two windows, as
/// [`Region::committed_prefix`] lends them.
static ZEROS: [u8; COMMIT_PAGE] = [0; COMMIT_PAGE];

impl Region {
    /// Creates a logically zero region of `len` bytes starting at
    /// `base`, committing no storage yet.
    pub fn new(kind: RegionKind, base: u64, len: usize) -> Region {
        Region {
            kind,
            base,
            len,
            windows: Vec::new(),
        }
    }

    /// Overwrites this region with `src` in place: window `i` is copied
    /// into the storage of this region's window `i`, so a restored
    /// process allocates nothing unless its predecessor had fewer
    /// windows ([`crate::restore`]).
    pub fn restore_from(&mut self, src: &Region) {
        let Region {
            kind,
            base,
            len,
            windows,
        } = self;
        *kind = src.kind;
        *base = src.base;
        *len = src.len;
        restore::each(windows, &src.windows, Window::restore_from);
    }

    /// Bytes each buffer of this region holds: the window list, then
    /// each window's storage.
    #[cfg(test)]
    pub(crate) fn held(&self) -> Vec<usize> {
        let windows = self.windows.iter().map(|w| restore::held(&w.bytes));
        std::iter::once(restore::held(&self.windows))
            .chain(windows)
            .collect()
    }

    /// Bytes of real storage currently committed (diagnostics).
    pub fn committed_bytes(&self) -> usize {
        self.windows.iter().map(|w| w.bytes.len()).sum()
    }

    /// The committed windows, for a borrow that can grow none of them.
    #[inline]
    pub(crate) fn windows_mut(&mut self) -> &mut [Window] {
        &mut self.windows
    }

    /// Index of the window holding `[off, end)`, committing it first
    /// when none does. The first window that ends at or past `end` is
    /// the only one that can hold the range.
    #[inline]
    fn commit(&mut self, off: usize, end: usize) -> usize {
        let i = self.windows.partition_point(|w| w.end() < end);
        match self.windows.get(i) {
            Some(w) if w.at <= off => i,
            _ => self.grow(off, end),
        }
    }

    /// Commits `[off, end)` and returns the index of the window now
    /// holding it. The nearest window grows to cover the range when the
    /// gap to it is no longer than the window, padding geometrically (at
    /// least the window's size, at least one page) in the direction(s)
    /// that grew so repeated nearby touches amortise to O(final window);
    /// otherwise the range opens a window of its own, a page of padding
    /// on each side. The result absorbs every window the range meets,
    /// and padding that reaches a window beyond stops at that window's
    /// far edge: it merges the two instead of committing past it.
    #[cold]
    fn grow(&mut self, off: usize, end: usize) -> usize {
        let gap = |w: &Window| off.saturating_sub(w.end()) + w.at.saturating_sub(end);
        let next = self.windows.partition_point(|w| w.end() < off);
        let near = self.windows[next.saturating_sub(1)..(next + 1).min(self.windows.len())]
            .iter()
            .min_by_key(|w| gap(w))
            .filter(|w| gap(w) <= w.bytes.len());
        // An opened window anchors at the touched range, not at offset
        // 0 — the stack's first touch is near the *top* of its region,
        // and anchoring low would commit it eagerly.
        let (core_lo, core_hi) = near.map_or((off, end), |w| (w.at.min(off), w.end().max(end)));
        let pad = near.map_or(0, |w| w.bytes.len()).max(COMMIT_PAGE);
        let mut lo = core_lo.saturating_sub(if near.is_none_or(|w| off < w.at) {
            pad
        } else {
            0
        });
        let mut hi = core_hi
            + if near.is_none_or(|w| end > w.end()) {
                pad
            } else {
                0
            };
        lo -= lo % COMMIT_PAGE;
        hi = (hi.div_ceil(COMMIT_PAGE) * COMMIT_PAGE).min(self.len);
        // Windows the touched range meets merge into it; padding that
        // reaches the next window out stops at that window's far edge.
        let mut first = self.windows.partition_point(|w| w.end() < core_lo);
        let mut last = self.windows.partition_point(|w| w.at <= core_hi);
        if first > 0 && self.windows[first - 1].end() >= lo {
            first -= 1;
            lo = self.windows[first].at;
        }
        if last < self.windows.len() && self.windows[last].at <= hi {
            hi = self.windows[last].end();
            last += 1;
        }
        let met = &self.windows[first..last];
        if let (Some(a), Some(b)) = (met.first(), met.last()) {
            (lo, hi) = (lo.min(a.at), hi.max(b.end()));
        }
        debug_assert!(lo <= off && end <= hi);
        let mut bytes = vec![0u8; hi - lo];
        for w in met {
            bytes[w.at - lo..w.end() - lo].copy_from_slice(&w.bytes);
        }
        self.windows.splice(first..last, [Window { at: lo, bytes }]);
        first
    }

    /// Copies the committed overlap of `[off, off + out.len())` into
    /// `out`; bytes outside every window keep their existing (zero)
    /// contents. The one place the window-overlap arithmetic lives.
    #[inline]
    fn copy_committed(&self, off: usize, out: &mut [u8]) {
        let end = off + out.len();
        let from = self.windows.partition_point(|w| w.end() <= off);
        for w in self.windows[from..].iter().take_while(|w| w.at < end) {
            let (lo, hi) = (off.max(w.at), end.min(w.end()));
            out[lo - off..hi - off].copy_from_slice(&w.bytes[lo - w.at..hi - w.at]);
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
    /// Bytes outside every committed window read as zero.
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
        let dst = self.slice_mut(addr, len as u64);
        dst.map(|dst| dst.copy_from_slice(&value.to_le_bytes()[..len]))
            .is_some()
    }

    /// Copies `len` raw bytes starting at `addr` out to the host; bytes
    /// outside every committed window read as zero.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Option<Vec<u8>> {
        if !self.contains(addr, len) {
            return None;
        }
        let off = (addr - self.base) as usize;
        let mut out = vec![0u8; len as usize];
        self.copy_committed(off, &mut out);
        Some(out)
    }

    /// Index of the window holding `[addr, addr + len)`, committing it
    /// as needed; `None` when any byte is outside the region.
    #[inline]
    pub(crate) fn commit_range(&mut self, addr: u64, len: u64) -> Option<usize> {
        self.contains(addr, len).then(|| {
            let off = (addr - self.base) as usize;
            self.commit(off, off + len as usize)
        })
    }

    /// Mutably borrows `len` raw bytes starting at `addr`, committing
    /// storage as needed: one window holds them all.
    #[inline]
    pub fn slice_mut(&mut self, addr: u64, len: u64) -> Option<&mut [u8]> {
        let i = self.commit_range(addr, len)?;
        let w = &mut self.windows[i];
        let at = (addr - self.base) as usize - w.at;
        Some(&mut w.bytes[at..at + len as usize])
    }

    /// Copies `bytes` in at `addr`, committing storage only where they
    /// change a byte: a page's worth of zeros that no window overlaps
    /// is already what the region reads there. So a loader writing a
    /// zero-initialised table commits the pages that hold something.
    ///
    /// Returns `false` when any byte is outside the region.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> bool {
        if !self.contains(addr, bytes.len() as u64) {
            return false;
        }
        let mut off = (addr - self.base) as usize;
        let (head, tail) = bytes.split_at((COMMIT_PAGE - off % COMMIT_PAGE).min(bytes.len()));
        for piece in std::iter::once(head).chain(tail.chunks(COMMIT_PAGE)) {
            let end = off + piece.len();
            let from = self.windows.partition_point(|w| w.end() <= off);
            let overlaps = self.windows.get(from).is_some_and(|w| w.at < end);
            // An OR over the whole piece, not a short-circuiting scan:
            // it vectorises, and an all-zero page is the common case.
            if overlaps || piece.iter().fold(0, |acc, &b| acc | b) != 0 {
                let i = self.commit(off, end);
                let w = &mut self.windows[i];
                w.bytes[off - w.at..end - w.at].copy_from_slice(piece);
            }
            off = end;
        }
        true
    }

    /// Borrows the longest prefix of `[addr, addr + len)` that one window
    /// holds, or one gap between two windows: the window's storage, or
    /// (at most a page of) the zeros the gap reads as. Commits nothing,
    /// and is empty outside the span from the lowest window to the
    /// highest — where a touch may yet open or grow a window — and
    /// outside the region.
    pub fn committed_prefix(&self, addr: u64, len: u64) -> &[u8] {
        let Some(off) = addr.checked_sub(self.base) else {
            return &[];
        };
        let next = self.windows.partition_point(|w| w.end() as u64 <= off);
        let held = match self.windows.get(next) {
            Some(w) if w.at as u64 <= off => &w.bytes[(off - w.at as u64) as usize..],
            Some(w) if next > 0 => &ZEROS[..(w.at as u64 - off).min(ZEROS.len() as u64) as usize],
            _ => &[],
        };
        &held[..len.min(held.len() as u64) as usize]
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
    use proptest::prelude::*;

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
        let edges = |r: &Region| -> Vec<(usize, usize)> {
            r.windows.iter().map(|w| (w.at, w.end())).collect()
        };
        // A region smaller than a page commits itself, not a page.
        let mut tiny = Region::new(RegionKind::Heap, 0x1000, 64);
        assert!(tiny.write(0x1020, AccessSize::B8, 7));
        assert_eq!(edges(&tiny), [(0, 64)]);
        // A ragged region: interior edges sit on pages, the top edge on
        // the region's own end.
        let len = 10 * PAGE + 100;
        let mut r = Region::new(RegionKind::Global, 0x1_0000, len);
        assert!(r.write(0x1_0000 + 5 * PAGE as u64 + 8, AccessSize::B8, 1));
        assert_eq!(edges(&r), [(4 * PAGE, 7 * PAGE)]);
        assert!(r.write(r.end() - 8, AccessSize::B8, 2));
        let [.., (at, end)] = edges(&r)[..] else {
            panic!("no window")
        };
        assert_eq!((at % PAGE, end), (0, len));
        assert!(r.committed_bytes() <= 6 * PAGE + 100);
    }

    /// The region a [`Model`] mirrors: ragged, so its top window edge
    /// is clipped, not page-aligned.
    const MODEL_LEN: usize = 40 * PAGE + 100;

    /// A flat copy of a whole region, the pages written into it, and the
    /// region under test.
    struct Model {
        flat: Vec<u8>,
        touched: Vec<bool>,
        region: Region,
    }

    impl Model {
        fn new(base: u64) -> Model {
            Model {
                flat: vec![0; MODEL_LEN],
                touched: vec![false; MODEL_LEN.div_ceil(PAGE)],
                region: Region::new(RegionKind::Heap, base, MODEL_LEN),
            }
        }

        /// An address the ops aim at, biased toward where windows
        /// change: their edges, the pages beside them, the gaps between
        /// them, accesses straddling an edge, the region's own edges
        /// and the top of the address space.
        fn aim(&self, pick: u64, delta: i64, width: u64) -> u64 {
            let ws = &self.region.windows;
            let at = |off: usize| self.region.base.wrapping_add(off as u64);
            let edge = match ws.get(pick as usize / 8 % ws.len().max(1)) {
                Some(w) if pick.is_multiple_of(2) => w.at,
                Some(w) => w.end(),
                None => (pick as usize) % MODEL_LEN,
            };
            let nudge = |a: u64| a.wrapping_add(delta as u64);
            match pick % 8 {
                0 => nudge(at(edge)),
                1 => nudge(at(edge)).wrapping_sub(PAGE as u64),
                2 => at(edge).wrapping_sub(width / 2),
                3 => {
                    let gaps: Vec<usize> =
                        ws.windows(2).map(|p| (p[0].end() + p[1].at) / 2).collect();
                    at(gaps
                        .get(pick as usize / 8 % gaps.len().max(1))
                        .copied()
                        .unwrap_or(edge))
                }
                4 => nudge(at(0)),
                5 => nudge(at(MODEL_LEN)),
                6 => u64::MAX.wrapping_sub(delta.unsigned_abs()),
                _ => at((pick as usize >> 3) % MODEL_LEN),
            }
        }

        /// The model's bytes at `[addr, addr + len)`, or `None` past the
        /// region.
        fn span(&self, addr: u64, len: u64) -> Option<std::ops::Range<usize>> {
            let off = addr.checked_sub(self.region.base)? as usize;
            let end = off.checked_add(len as usize)?;
            (end <= MODEL_LEN).then_some(off..end)
        }

        fn touch(&mut self, range: std::ops::Range<usize>) {
            for page in range.start / PAGE..range.end.div_ceil(PAGE) {
                self.touched[page] = true;
            }
        }

        /// Sorted, disjoint, never adjacent, edges on pages or the
        /// region's end; storage equal to the model and zeros outside
        /// every window; each window within 4 × the pages from its
        /// lowest touched page to its highest, plus 4.
        fn check(&self) {
            let ws = &self.region.windows;
            for pair in ws.windows(2) {
                assert!(
                    pair[0].end() < pair[1].at,
                    "windows meet: {:?}",
                    self.edges()
                );
            }
            let mut outside = 0;
            for w in ws {
                assert!(
                    !w.bytes.is_empty() && w.at % PAGE == 0,
                    "{:?}",
                    self.edges()
                );
                assert!(
                    w.end() % PAGE == 0 || w.end() == MODEL_LEN,
                    "{:?}",
                    self.edges()
                );
                assert!(w.end() <= MODEL_LEN);
                assert!(
                    w.bytes == self.flat[w.at..w.end()],
                    "window at {} diverges",
                    w.at
                );
                assert!(
                    self.flat[outside..w.at].iter().all(|&b| b == 0),
                    "bytes outside windows"
                );
                outside = w.end();
                let pages = w.at / PAGE..w.end().div_ceil(PAGE);
                let touched: Vec<usize> = pages.filter(|&p| self.touched[p]).collect();
                let (lo, hi) = (
                    touched.first().expect("a touched page"),
                    touched.last().unwrap(),
                );
                assert!(
                    w.bytes.len() <= (4 * (hi - lo + 1) + 4) * PAGE,
                    "window {:?} for touched pages {lo}..={hi}",
                    (w.at, w.end())
                );
            }
            assert!(
                self.flat[outside..].iter().all(|&b| b == 0),
                "bytes past the windows"
            );
            let sum: usize = ws.iter().map(|w| w.bytes.len()).sum();
            assert_eq!(self.region.committed_bytes(), sum);
        }

        fn edges(&self) -> Vec<(usize, usize)> {
            self.region
                .windows
                .iter()
                .map(|w| (w.at, w.end()))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random writes (scalar and bulk), reads, borrows and clones
        /// against a flat copy of the region, at the addresses where
        /// windows open, grow and merge; the window invariants hold after
        /// every op.
        #[test]
        fn windows_equal_a_flat_region(
            high in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..7, any::<u64>(), -9i64..10, 0usize..4, any::<u64>()),
                1..48,
            ),
        ) {
            // A region ending a page below `2^64`, or an ordinary one.
            let base = if high { 0u64.wrapping_sub(MODEL_LEN as u64 + PAGE as u64) } else { 0x1000_0000 };
            let mut m = Model::new(base);
            let sizes = [AccessSize::B1, AccessSize::B2, AccessSize::B4, AccessSize::B8];
            for (kind, pick, delta, size, value) in ops {
                let size = sizes[size];
                let len = match value % 4 {
                    0 => value >> 2 & 15,
                    1 => 1 + (value >> 2) % (3 * PAGE as u64),
                    _ => 1 + (value >> 2) % 64,
                };
                match kind {
                    0 => {
                        let a = m.aim(pick, delta, size.bytes());
                        let ok = m.region.write(a, size, value);
                        prop_assert_eq!(ok, m.span(a, size.bytes()).is_some());
                        if let Some(r) = m.span(a, size.bytes()) {
                            let n = r.len();
                            m.flat[r.clone()].copy_from_slice(&value.to_le_bytes()[..n]);
                            m.touch(r);
                        }
                    }
                    1 => {
                        let a = m.aim(pick, delta, size.bytes());
                        let want = m.span(a, size.bytes()).map(|r| {
                            let mut buf = [0u8; 8];
                            buf[..r.len()].copy_from_slice(&m.flat[r]);
                            u64::from_le_bytes(buf)
                        });
                        prop_assert_eq!(m.region.read(a, size), want);
                    }
                    2 => {
                        let a = m.aim(pick, delta, len);
                        let want = m.span(a, len).map(|r| m.flat[r].to_vec());
                        prop_assert_eq!(m.region.read_bytes(a, len), want);
                    }
                    3 if len > 0 => {
                        let a = m.aim(pick, delta, len);
                        let fill = value as u8;
                        let got = m.region.slice_mut(a, len).map(|s| s.fill(fill)).is_some();
                        prop_assert_eq!(got, m.span(a, len).is_some());
                        if let Some(r) = m.span(a, len) {
                            m.flat[r.clone()].fill(fill);
                            m.touch(r);
                        }
                    }
                    4 => {
                        let a = m.aim(pick, delta, len);
                        let held = m.region.committed_prefix(a, len);
                        if let Some(off) = a.checked_sub(base).map(|o| o as usize).filter(|&o| o < MODEL_LEN) {
                            prop_assert_eq!(held, &m.flat[off..off + held.len()]);
                            let ws = &m.region.windows;
                            let next = ws.iter().position(|w| w.end() > off);
                            let room = match next.map(|i| (i, &ws[i])) {
                                Some((_, w)) if w.at <= off => w.end() - off,
                                Some((i, w)) if i > 0 => (w.at - off).min(PAGE),
                                _ => 0,
                            };
                            prop_assert_eq!(held.len() as u64, len.min(room as u64));
                        } else {
                            prop_assert!(held.is_empty());
                        }
                    }
                    5 => {
                        // Mostly zeros, which commit only where a
                        // window already is.
                        let mut bytes = vec![0u8; len as usize];
                        if value % 3 != 0 && len > 0 {
                            bytes[(value >> 8) as usize % len as usize] = value as u8 | 1;
                        }
                        let a = m.aim(pick, delta, len);
                        prop_assert_eq!(m.region.write_bytes(a, &bytes), m.span(a, len).is_some());
                        if let Some(r) = m.span(a, len) {
                            m.flat[r.clone()].copy_from_slice(&bytes);
                            m.touch(r);
                        }
                    }
                    _ => {
                        let copy = m.region.clone();
                        prop_assert_eq!(copy.committed_bytes(), m.region.committed_bytes());
                        m.region = copy;
                    }
                }
                m.check();
            }
        }
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
