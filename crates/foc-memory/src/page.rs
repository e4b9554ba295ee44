//! The paged lookup layer: shift+mask in-bounds resolution.
//!
//! The object table answers "which data unit contains this address?" with
//! a search — splay rotations, a B-tree descent, or a binary search. Real
//! memory subsystems answer the same question with a page table: divide
//! the address space into fixed power-of-two pages and key a flat map by
//! `addr >> PAGE_SHIFT`, so the common case is one shift, one bounds
//! mask, and one array load. This module is that layer for the simulated
//! space: a per-region page map sitting *above* the object table, which
//! stays authoritative and serves as the fallback for pages the map
//! cannot answer alone.
//!
//! Each [`PAGE_SIZE`]-byte page of guest address space carries two words
//! of bookkeeping: how many live units intersect the page, and a
//! candidate unit id. The three answers a lookup can produce:
//!
//! * **guard page** — no live unit intersects the page. Any unit
//!   containing the queried address would necessarily intersect its
//!   page, so the access is a violation with no referent and routes
//!   straight to the `#[cold]` continuation handlers, exactly as an
//!   object-table miss does. Every unmapped page is a guard page, so
//!   units whose neighbours live on other pages are automatically
//!   fenced on both sides.
//! * **single unit** — exactly one unit intersects the page (the
//!   interior of a multi-page allocation, or a lone unit on its page).
//!   The candidate id resolves through the generation-checked unit
//!   store; a bounds compare against the unit finishes the check with
//!   no search at all. An address on the page but outside the unit is
//!   a definitive miss for the same intersection argument as above.
//! * **fallback** — several small units share the page, or a unit
//!   boundary is torn across it. The candidate (the most recently
//!   inserted or most recently hit unit on the page) is probed first —
//!   containment in any live unit is proof enough, since units never
//!   overlap — and only a candidate miss pays the full table search.
//!
//! The map is maintained by the space's unit bookkeeping (insert on
//! allocation, invalidate on death) and is only an accelerator: every
//! answer it gives is provably the answer the object table would give,
//! which is what the paged-vs-table equivalence battery pins end to end.

use std::fmt;

use crate::addr;
use crate::unit::UnitId;

/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Bytes per page of guest address space (4 KiB, the classic small page).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Which in-bounds lookup path the space runs.
///
/// Like the execution tier, this is a pure performance axis: both layers
/// are observationally identical (transcripts, stats, log records), so it
/// is threaded through configs and bench CLIs but excluded from sweep
/// fingerprints and report-equality checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LookupLayer {
    /// Every checked access searches the object table (the historical
    /// path, kept as the reference oracle).
    Table,
    /// Checked accesses resolve through the per-space page map first and
    /// fall back to the object table only for shared or torn pages (the
    /// shipped default).
    #[default]
    Paged,
}

impl LookupLayer {
    /// Every layer, in bench-report order.
    pub const ALL: [LookupLayer; 2] = [LookupLayer::Table, LookupLayer::Paged];

    /// Stable lower-case name (bench rows, CLI flags, env).
    pub fn name(self) -> &'static str {
        match self {
            LookupLayer::Table => "table",
            LookupLayer::Paged => "paged",
        }
    }

    /// The layer selected by the [`LOOKUP_ENV`] environment variable,
    /// or the default. Like `ExecTier::from_env`, an unknown value is a
    /// configuration error: the process exits with a one-line
    /// diagnostic listing the valid layers rather than silently running
    /// a different lookup path than the operator asked for (the layers
    /// are observationally identical, but the bench gates are not).
    /// Read once per process. Library embedders who want an error value
    /// instead of an exit parse through `FromStr` (what
    /// `foc-servers`' `BootSpec::from_env` does).
    pub fn from_env() -> LookupLayer {
        static LAYER: std::sync::OnceLock<LookupLayer> = std::sync::OnceLock::new();
        *LAYER.get_or_init(|| match std::env::var(LOOKUP_ENV) {
            Ok(v) => v.parse().unwrap_or_else(|e| {
                eprintln!("{LOOKUP_ENV}: {e}");
                std::process::exit(2);
            }),
            Err(_) => LookupLayer::default(),
        })
    }
}

/// Environment variable selecting the in-bounds lookup layer.
pub const LOOKUP_ENV: &str = "FOC_LOOKUP";

impl fmt::Display for LookupLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for LookupLayer {
    type Err = String;

    fn from_str(s: &str) -> Result<LookupLayer, String> {
        match s.to_ascii_lowercase().as_str() {
            "table" => Ok(LookupLayer::Table),
            "paged" => Ok(LookupLayer::Paged),
            other => Err(format!(
                "unknown lookup layer {other:?} (expected table or paged)"
            )),
        }
    }
}

/// What the page map knows about an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageHit {
    /// No live unit intersects the page: the access is a violation with
    /// no referent. The table would answer `None`; skip the search.
    Guard,
    /// Exactly one live unit intersects the page; a bounds compare
    /// against it is the complete answer.
    One(UnitId),
    /// The page is shared or its candidate is unknown: probe the hint
    /// (if any), then fall back to the object table.
    Table(Option<UnitId>),
}

/// Candidate sentinel: no unit id recorded for the page.
const NO_UNIT: u32 = u32::MAX;

/// Per-page bookkeeping: intersecting-unit count plus a candidate id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageEntry {
    cand: u32,
    count: u32,
}

const EMPTY: PageEntry = PageEntry {
    cand: NO_UNIT,
    count: 0,
};

/// Committed pages are grown in chunks of this many entries (one chunk
/// is 512 bytes of host memory covering 256 KiB of guest space).
const CHUNK: u64 = 64;

/// A lazily committed window of page entries, in the style of
/// [`crate::addr::Region`]'s committed byte window: a fresh space pays
/// nothing, and a space only commits entries around the pages its units
/// actually touch. Growth is geometric at both ends so stack-shaped
/// (downward) and heap-shaped (upward) unit churn both amortise to O(1).
#[derive(Debug, Clone, Default)]
struct PageWindow {
    /// First committed page index (region-relative); meaningful only
    /// when `entries` is non-empty.
    lo: u64,
    entries: Vec<PageEntry>,
}

impl PageWindow {
    /// The entry for `rel`, with uncommitted pages reading as [`EMPTY`].
    #[inline]
    fn get(&self, rel: u64) -> PageEntry {
        match rel.checked_sub(self.lo) {
            Some(off) => *self.entries.get(off as usize).unwrap_or(&EMPTY),
            None => EMPTY,
        }
    }

    /// The committed entry for `rel`, if any (no growth).
    #[inline]
    fn get_mut(&mut self, rel: u64) -> Option<&mut PageEntry> {
        let off = rel.checked_sub(self.lo)?;
        self.entries.get_mut(off as usize)
    }

    /// The entry for `rel`, committing (and growing) as needed.
    fn entry_mut(&mut self, rel: u64) -> &mut PageEntry {
        if self.entries.is_empty() {
            self.lo = rel - (rel % CHUNK);
            self.entries = vec![EMPTY; CHUNK as usize];
        } else if rel < self.lo {
            let needed = self.lo - rel;
            let grow = needed
                .max(self.entries.len() as u64)
                .max(CHUNK)
                .min(self.lo);
            let mut fresh = vec![EMPTY; grow as usize + self.entries.len()];
            fresh[grow as usize..].copy_from_slice(&self.entries);
            self.entries = fresh;
            self.lo -= grow;
        } else if rel >= self.lo + self.entries.len() as u64 {
            let needed = rel + 1 - (self.lo + self.entries.len() as u64);
            let grow = needed.max(self.entries.len() as u64).max(CHUNK);
            self.entries
                .resize(self.entries.len() + grow as usize, EMPTY);
        }
        &mut self.entries[(rel - self.lo) as usize]
    }
}

/// Page bookkeeping for one address region.
#[derive(Debug, Clone)]
struct RegionPages {
    /// First byte of the region (page-aligned by the address layout).
    base: u64,
    /// One past the last byte of the region.
    end: u64,
    win: PageWindow,
}

impl RegionPages {
    fn new(base: u64, len: usize) -> RegionPages {
        debug_assert_eq!(base % PAGE_SIZE, 0, "region base must be page-aligned");
        RegionPages {
            base,
            end: base + len as u64,
            win: PageWindow::default(),
        }
    }

    #[inline]
    fn rel_page(&self, a: u64) -> u64 {
        (a - self.base) >> PAGE_SHIFT
    }
}

/// The per-space page map: one [`RegionPages`] per address region.
///
/// Spaces running [`LookupLayer::Table`] carry an empty (never-updated)
/// map, so the layer axis costs nothing when it is off.
#[derive(Debug, Clone)]
pub struct PageMap {
    globals: RegionPages,
    heap: RegionPages,
    stack: RegionPages,
}

impl PageMap {
    /// An empty map covering the configured region sizes.
    pub fn new(global_len: usize, heap_len: usize, stack_len: usize) -> PageMap {
        PageMap {
            globals: RegionPages::new(addr::GLOBAL_BASE, global_len),
            heap: RegionPages::new(addr::HEAP_BASE, heap_len),
            stack: RegionPages::new(addr::STACK_BASE, stack_len),
        }
    }

    /// The region covering `a`, ordered as the space's own region probe.
    #[inline]
    fn region_for(&self, a: u64) -> Option<&RegionPages> {
        if a >= self.stack.base && a < self.stack.end {
            Some(&self.stack)
        } else if a >= self.heap.base && a < self.heap.end {
            Some(&self.heap)
        } else if a >= self.globals.base && a < self.globals.end {
            Some(&self.globals)
        } else {
            None
        }
    }

    #[inline]
    fn region_for_mut(&mut self, a: u64) -> Option<&mut RegionPages> {
        if a >= self.stack.base && a < self.stack.end {
            Some(&mut self.stack)
        } else if a >= self.heap.base && a < self.heap.end {
            Some(&mut self.heap)
        } else if a >= self.globals.base && a < self.globals.end {
            Some(&mut self.globals)
        } else {
            None
        }
    }

    /// Resolves `a` to what the map knows: one shift, one window probe.
    /// Addresses outside every region (null and wild pointers) are guard
    /// hits — no unit can live there.
    #[inline]
    pub fn hit(&self, a: u64) -> PageHit {
        let Some(r) = self.region_for(a) else {
            return PageHit::Guard;
        };
        let e = r.win.get(r.rel_page(a));
        match e.count {
            0 => PageHit::Guard,
            1 if e.cand != NO_UNIT => PageHit::One(UnitId(e.cand)),
            _ => PageHit::Table((e.cand != NO_UNIT).then_some(UnitId(e.cand))),
        }
    }

    /// Registers a unit placement: every page the unit intersects gains
    /// an intersection count and adopts the unit as its candidate.
    /// Multi-page units fill the contiguous run of entries.
    pub fn cover(&mut self, base: u64, size: u64, unit: UnitId) {
        if size == 0 {
            return; // zero-size units occupy no bytes, hence no pages
        }
        let Some(r) = self.region_for_mut(base) else {
            debug_assert!(false, "unit outside every region: {base:#x}");
            return;
        };
        let (first, last) = (r.rel_page(base), r.rel_page(base + size - 1));
        for page in first..=last {
            let e = r.win.entry_mut(page);
            e.count += 1;
            e.cand = unit.0;
        }
    }

    /// Unregisters a dead unit's placement, restoring guard pages where
    /// it was the last occupant and dropping it as a candidate
    /// elsewhere, so no entry can name a recycled store slot.
    pub fn uncover(&mut self, base: u64, size: u64, unit: UnitId) {
        if size == 0 {
            return;
        }
        let Some(r) = self.region_for_mut(base) else {
            return;
        };
        let (first, last) = (r.rel_page(base), r.rel_page(base + size - 1));
        for page in first..=last {
            let Some(e) = r.win.get_mut(page) else {
                debug_assert!(false, "uncover of an uncommitted page");
                continue;
            };
            debug_assert!(e.count > 0, "uncover of an empty page");
            e.count = e.count.saturating_sub(1);
            if e.count == 0 {
                *e = EMPTY;
            } else if e.cand == unit.0 {
                e.cand = NO_UNIT;
            }
        }
    }

    /// Adopts `unit` as the candidate for `a`'s page after a fallback
    /// search found it — the page-granular analogue of the flat table's
    /// last-hit memo.
    #[inline]
    pub fn note(&mut self, a: u64, unit: UnitId) {
        if let Some(r) = self.region_for_mut(a) {
            let page = r.rel_page(a);
            if let Some(e) = r.win.get_mut(page) {
                if e.count > 0 {
                    e.cand = unit.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> PageMap {
        PageMap::new(64 << 10, 256 << 10, 64 << 10)
    }

    #[test]
    fn layer_names_round_trip() {
        for layer in LookupLayer::ALL {
            assert_eq!(layer.name().parse::<LookupLayer>().unwrap(), layer);
        }
        assert_eq!("PAGED".parse::<LookupLayer>().unwrap(), LookupLayer::Paged);
        assert!("tlb".parse::<LookupLayer>().is_err());
        assert_eq!(LookupLayer::default(), LookupLayer::Paged);
    }

    #[test]
    fn fresh_map_answers_guard_everywhere() {
        let m = map();
        assert_eq!(m.hit(0), PageHit::Guard); // null, outside every region
        assert_eq!(m.hit(addr::GLOBAL_BASE), PageHit::Guard);
        assert_eq!(m.hit(addr::HEAP_BASE + 123), PageHit::Guard);
        assert_eq!(m.hit(addr::STACK_BASE + (63 << 10)), PageHit::Guard);
    }

    #[test]
    fn single_unit_pages_resolve_without_the_table() {
        let mut m = map();
        let base = addr::HEAP_BASE + 100;
        m.cover(base, 40, UnitId(7));
        assert_eq!(m.hit(base), PageHit::One(UnitId(7)));
        assert_eq!(m.hit(base + 39), PageHit::One(UnitId(7)));
        // Same page, outside the unit: still a One hit — the bounds
        // compare at the space layer turns it into a definitive miss.
        assert_eq!(m.hit(base + 200), PageHit::One(UnitId(7)));
        // A different page entirely: guard.
        assert_eq!(m.hit(base + 2 * PAGE_SIZE), PageHit::Guard);
    }

    #[test]
    fn multi_page_units_fill_a_contiguous_run() {
        let mut m = map();
        let base = addr::HEAP_BASE + PAGE_SIZE + 16;
        let size = 3 * PAGE_SIZE; // spans 4 pages (torn at both ends)
        m.cover(base, size, UnitId(9));
        for off in (0..size).step_by(PAGE_SIZE as usize / 2) {
            assert_eq!(m.hit(base + off), PageHit::One(UnitId(9)));
        }
        // Pages on either side of the run are guards.
        assert_eq!(m.hit(addr::HEAP_BASE), PageHit::Guard);
        assert_eq!(m.hit(base + size + PAGE_SIZE), PageHit::Guard);
        m.uncover(base, size, UnitId(9));
        for off in (0..size).step_by(PAGE_SIZE as usize / 2) {
            assert_eq!(m.hit(base + off), PageHit::Guard);
        }
    }

    #[test]
    fn shared_pages_fall_back_with_the_latest_candidate() {
        let mut m = map();
        let page = addr::HEAP_BASE;
        m.cover(page + 16, 32, UnitId(1));
        m.cover(page + 64, 32, UnitId(2));
        assert_eq!(m.hit(page + 20), PageHit::Table(Some(UnitId(2))));
        // A fallback search that lands on unit 1 re-seeds the candidate.
        m.note(page + 20, UnitId(1));
        assert_eq!(m.hit(page + 70), PageHit::Table(Some(UnitId(1))));
        // Removing the candidate clears it — the page keeps its count
        // but must never name a dead unit; the survivor is found through
        // the table and can be re-adopted via `note`.
        m.uncover(page + 16, 32, UnitId(1));
        assert_eq!(m.hit(page + 70), PageHit::Table(None));
        m.note(page + 70, UnitId(2));
        assert_eq!(m.hit(page + 70), PageHit::One(UnitId(2)));
        m.uncover(page + 64, 32, UnitId(2));
        assert_eq!(m.hit(page + 70), PageHit::Guard);
    }

    #[test]
    fn removing_the_candidate_demotes_to_table_fallback() {
        let mut m = map();
        let page = addr::HEAP_BASE;
        m.cover(page + 16, 32, UnitId(1));
        m.cover(page + 64, 32, UnitId(2));
        // Candidate is unit 2; removing it must not leave its id behind.
        m.uncover(page + 64, 32, UnitId(2));
        assert_eq!(m.hit(page + 20), PageHit::Table(None));
        m.uncover(page + 16, 32, UnitId(1));
        assert_eq!(m.hit(page + 20), PageHit::Guard);
    }

    #[test]
    fn windows_grow_downward_for_stack_churn() {
        let mut m = map();
        let top = addr::STACK_BASE + (64 << 10);
        // Units marching downward from the stack top, as frames push.
        for i in 0..16u64 {
            let base = top - (i + 1) * PAGE_SIZE;
            m.cover(base, 64, UnitId(i as u32));
        }
        for i in 0..16u64 {
            let base = top - (i + 1) * PAGE_SIZE;
            assert_eq!(m.hit(base), PageHit::One(UnitId(i as u32)));
        }
    }

    #[test]
    fn zero_size_units_occupy_no_pages() {
        let mut m = map();
        m.cover(addr::HEAP_BASE + 8, 0, UnitId(1));
        assert_eq!(m.hit(addr::HEAP_BASE + 8), PageHit::Guard);
        m.uncover(addr::HEAP_BASE + 8, 0, UnitId(1));
    }
}
