//! The object table: locations → data units.
//!
//! Jones & Kelly's checking scheme keeps every live allocation in an
//! ordered structure searched by address on each pointer operation. The
//! table stores `(base, size, unit)` entries keyed by base address; a
//! lookup finds the entry with the greatest base not exceeding the query
//! address and checks that the address falls inside it. The memory space
//! guarantees entries never overlap.
//!
//! A space holds its table by value as a [`Table`], one of two
//! structures chosen by [`TableKind`] when the space is built:
//!
//! * [`FlatTable`], the shipped default — a base-sorted vector with a
//!   last-hit memo. No guest server ever holds more than a few dozen
//!   live units at once (36 at most over every committed workload; the
//!   tripwire is `tests/substrate_props.rs`), so the whole table is a
//!   handful of cache lines and a miss of the memo is a five-step binary
//!   search. Most units are stack locals, which come and go a frame at a
//!   time: a frame's locals are base-sorted and no other unit lies
//!   between them, so entering a frame is one [`Table::insert_run`] (one
//!   `splice`) and returning is one [`Table::remove_run`] (one `drain`),
//!   each shifting the tail once per call rather than once per local.
//!   Nothing with pointers in it can beat that at this size, and a page
//!   map in front of it only added a second structure to keep coherent.
//! * [`Table::Reference`] — the reference oracle: an ordered map from
//!   base to placement, whose lookup is the definition above written
//!   out (`range(..=addr).next_back()`, then the bounds test).
//!   `BootSpec::oracle` (and so the sweep's oracle gate point) runs on
//!   it, and every equivalence battery compares the shipped table
//!   against it. It takes a run one unit at a time, so those batteries
//!   also hold the run path to the per-unit one.
//!
//! Both give byte-identical failure-oblivious semantics, so the choice
//! never shows in a transcript, a counter or a log record. Only the
//! [`LookupProfile`] — diagnostics, kept out of every equivalence
//! relation — tells them apart.

use std::collections::BTreeMap;
use std::fmt;

use crate::roomy::RoomyVec;
use crate::unit::UnitId;

/// A table entry: a live allocation's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// First byte of the unit.
    pub base: u64,
    /// Size of the unit in bytes.
    pub size: u64,
    /// The unit occupying `[base, base + size)`.
    pub unit: UnitId,
}

/// Which object-table structure a space runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableKind {
    /// Sorted interval vector with last-hit memoization (the shipped
    /// default).
    #[default]
    Flat,
    /// Ordered map from base to placement (the reference oracle).
    Reference,
}

impl TableKind {
    /// Both structures, oracle first (the order of the equivalence
    /// batteries' table loops).
    pub const ALL: [TableKind; 2] = [TableKind::Reference, TableKind::Flat];

    /// Stable lower-case name (test diagnostics and the end-to-end
    /// benchmark's description lines).
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Flat => "flat",
            TableKind::Reference => "reference",
        }
    }
}

impl fmt::Display for TableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a table answered its lookups (diagnostics: it differs between
/// the two structures, so it stays out of `SpaceStats` and every
/// equivalence relation). Counted on the table's own path, which the
/// native view reaches only when its memo misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupProfile {
    /// Calls to [`Table::lookup`].
    pub lookups: u64,
    /// Lookups the table's own memo did not answer: a binary search on
    /// the flat table, every lookup on the oracle (which has no memo).
    pub searches: u64,
}

/// A space's object table, held by value.
///
/// Lookup takes `&mut self` because it counts into the
/// [`LookupProfile`] (and the flat table moves its memo).
#[derive(Debug, Clone)]
pub enum Table {
    /// The shipped sorted vector.
    Flat(FlatTable),
    /// The oracle: live units by base.
    Reference {
        /// Every live unit, keyed by its base.
        units: BTreeMap<u64, Placement>,
        /// How its lookups were answered.
        profile: LookupProfile,
    },
}

impl Table {
    /// An empty table of the given kind.
    pub fn new(kind: TableKind) -> Table {
        Table::with_room(kind, 0)
    }

    /// An empty table that holds `units` entries before it reallocates
    /// (the oracle's map has no capacity to reserve and ignores the
    /// hint).
    pub fn with_room(kind: TableKind, units: usize) -> Table {
        match kind {
            TableKind::Flat => Table::Flat(FlatTable {
                entries: RoomyVec::with_capacity(units),
                ..FlatTable::default()
            }),
            TableKind::Reference => Table::Reference {
                units: BTreeMap::new(),
                profile: LookupProfile::default(),
            },
        }
    }

    /// Overwrites this table with `src` in place ([`crate::restore`]).
    /// The oracle's map has no allocation to reuse and is cloned.
    pub fn restore_from(&mut self, src: &Table) {
        match (self, src) {
            (Table::Flat(table), Table::Flat(src)) => table.restore_from(src),
            (
                Table::Reference { units, profile },
                Table::Reference {
                    units: src_units,
                    profile: src_profile,
                },
            ) => {
                units.clone_from(src_units);
                *profile = *src_profile;
            }
            (table, src) => *table = src.clone(),
        }
    }

    /// Bytes the flat table's entries hold (the oracle's map reuses
    /// nothing and reports none).
    #[cfg(test)]
    pub(crate) fn held(&self) -> Vec<usize> {
        match self {
            Table::Flat(table) => vec![crate::restore::held(&table.entries)],
            Table::Reference { .. } => Vec::new(),
        }
    }

    /// Registers a live unit. The caller guarantees the range does not
    /// overlap any registered range.
    pub fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        match self {
            Table::Flat(t) => t.insert(base, size, unit),
            Table::Reference { units, .. } => {
                units.insert(base, Placement { base, size, unit });
            }
        }
    }

    /// Registers a run of live units at once: what `insert` of each in
    /// turn would leave. The caller guarantees the run is base-sorted,
    /// overlaps no registered range, and has no registered unit between
    /// its first and last base — a stack frame's locals.
    pub fn insert_run(&mut self, run: &[Placement]) {
        match self {
            Table::Flat(t) => t.insert_run(run),
            Table::Reference { units, .. } => run.iter().for_each(|p| {
                units.insert(p.base, *p);
            }),
        }
    }

    /// Removes the unit based at exactly `base`, returning it if present.
    pub fn remove(&mut self, base: u64) -> Option<Placement> {
        match self {
            Table::Flat(t) => t.remove(base),
            Table::Reference { units, .. } => units.remove(&base),
        }
    }

    /// Removes a run [`Table::insert_run`] registered: what `remove` of
    /// each unit, last first, would leave. `false` when the table did not
    /// hold exactly these entries — a bug in the caller's bookkeeping,
    /// after which the table's contents are unspecified.
    pub fn remove_run(&mut self, run: &[Placement]) -> bool {
        match self {
            Table::Flat(t) => t.remove_run(run),
            Table::Reference { units, .. } => {
                run.iter().rev().all(|p| units.remove(&p.base) == Some(*p))
            }
        }
    }

    /// Finds the unit whose range contains `addr`.
    ///
    /// Deliberately not `#[inline]` (nor are the structures' own
    /// lookups), pending a change that measures it: with the attribute
    /// the four end-to-end workloads read +5.4 / +7.1 / +5.4 / +5.8%,
    /// but inlined into `foc-vm`'s native executor the searches crowded
    /// its pure-local loop, which a dispatch-bound loop read as 2.1–2.5×
    /// the baseline interpreter against 2.7–3.6× without. The view's
    /// memo keeps the call off the hot path anyway.
    pub fn lookup(&mut self, addr: u64) -> Option<Placement> {
        match self {
            Table::Flat(t) => t.lookup(addr),
            Table::Reference { units, profile } => {
                profile.lookups += 1;
                profile.searches += 1;
                let (_, p) = units.range(..=addr).next_back()?;
                (addr - p.base < p.size).then_some(*p)
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match self {
            Table::Flat(t) => t.len(),
            Table::Reference { units, .. } => units.len(),
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How the lookups so far were answered.
    pub fn lookup_profile(&self) -> LookupProfile {
        match self {
            Table::Flat(t) => t.profile,
            Table::Reference { profile, .. } => *profile,
        }
    }
}

/// Sorted interval vector with last-hit memoization.
///
/// Entries live base-sorted in one contiguous `Vec`, so a lookup is a
/// branch-light binary search over cache-dense memory, and the
/// temporal locality of server traffic is served by a
/// one-entry memo: the index of the last hit is probed first, in
/// O(1) and with no structural writes. Inserts and removes shift the
/// tail (`memmove`) — once per run of units, not once per unit — which
/// is exactly the right trade for server-shaped tables: a few dozen
/// mostly-stable entries hammered by lookups. The memo follows its entry
/// across every shift and is dropped only when its entry is.
#[derive(Debug, Clone, Default)]
pub struct FlatTable {
    entries: RoomyVec<Placement>,
    /// Index of the most recent lookup hit (memo; may be stale).
    last_hit: usize,
    profile: LookupProfile,
}

impl FlatTable {
    /// Creates an empty table.
    pub fn new() -> FlatTable {
        FlatTable::default()
    }

    /// Overwrites this table with `src` in place ([`crate::restore`]).
    pub fn restore_from(&mut self, src: &FlatTable) {
        let FlatTable {
            entries,
            last_hit,
            profile,
        } = self;
        entries.restore_from(&src.entries);
        *last_hit = src.last_hit;
        *profile = src.profile;
    }

    /// Index of the first entry with `base > addr`.
    #[inline]
    fn upper_bound(&self, addr: u64) -> usize {
        self.entries.partition_point(|p| p.base <= addr)
    }

    /// Registers a live unit (see [`Table::insert`]).
    pub fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        let at = self.upper_bound(base);
        self.entries.insert(at, Placement { base, size, unit });
        if self.last_hit >= at {
            self.last_hit += 1;
        }
    }

    /// Registers a run of live units (see [`Table::insert_run`]): one
    /// splice at the place its first base sorts to.
    pub fn insert_run(&mut self, run: &[Placement]) {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return;
        };
        let at = self.upper_bound(first.base);
        debug_assert!(
            run.windows(2).all(|w| w[0].base < w[1].base),
            "unsorted run"
        );
        debug_assert!(
            self.entries
                .get(at)
                .is_none_or(|next| next.base > last.base),
            "a registered unit lies inside the run"
        );
        self.entries.splice(at..at, run.iter().copied());
        if self.last_hit >= at {
            self.last_hit += run.len();
        }
    }

    /// Removes the unit based at exactly `base`.
    pub fn remove(&mut self, base: u64) -> Option<Placement> {
        let at = self.upper_bound(base).checked_sub(1)?;
        if self.entries[at].base != base {
            return None;
        }
        let removed = self.entries.remove(at);
        self.forget(at, 1);
        Some(removed)
    }

    /// Removes a run (see [`Table::remove_run`]): one drain, provided
    /// the entries from the run's first base on are exactly the run.
    pub fn remove_run(&mut self, run: &[Placement]) -> bool {
        let Some(first) = run.first() else {
            return true;
        };
        let at = self.entries.partition_point(|p| p.base < first.base);
        let end = at + run.len();
        if self.entries.get(at..end) != Some(run) {
            return false;
        }
        self.entries.drain(at..end);
        self.forget(at, run.len());
        true
    }

    /// Moves the memo past `n` entries removed at `at`: down when it
    /// sat above them, nowhere when below, dropped when it was one.
    fn forget(&mut self, at: usize, n: usize) {
        if self.last_hit >= at + n {
            self.last_hit -= n;
        } else if self.last_hit >= at {
            self.last_hit = 0;
        }
    }

    /// Finds the unit whose range contains `addr`.
    pub fn lookup(&mut self, addr: u64) -> Option<Placement> {
        self.profile.lookups += 1;
        // Memo probe: server traffic touches the same unit in runs.
        if let Some(p) = self.entries.get(self.last_hit) {
            if p.base <= addr && addr - p.base < p.size {
                return Some(*p);
            }
        }
        self.profile.searches += 1;
        let at = self.upper_bound(addr);
        if at == 0 {
            return None;
        }
        let p = self.entries[at - 1];
        if addr - p.base < p.size {
            self.last_hit = at - 1;
            Some(p)
        } else {
            None
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut t: Table) -> Table {
        t.insert(100, 10, UnitId(1));
        t.insert(200, 20, UnitId(2));
        t.insert(50, 5, UnitId(3));
        assert_eq!(t.len(), 3);

        assert_eq!(t.lookup(100).unwrap().unit, UnitId(1));
        assert_eq!(t.lookup(109).unwrap().unit, UnitId(1));
        assert_eq!(t.lookup(110), None);
        assert_eq!(t.lookup(55), None);
        assert_eq!(t.lookup(54).unwrap().unit, UnitId(3));
        assert_eq!(t.lookup(219).unwrap().unit, UnitId(2));
        assert_eq!(t.lookup(220), None);
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.lookup(u64::MAX), None);

        assert_eq!(t.remove(200).unwrap().unit, UnitId(2));
        assert_eq!(t.remove(200), None);
        assert_eq!(t.lookup(210), None);
        assert_eq!(t.len(), 2);

        // Re-insert at the removed base.
        t.insert(200, 8, UnitId(4));
        assert_eq!(t.lookup(207).unwrap().unit, UnitId(4));
        assert_eq!(t.lookup(208), None);

        // A unit that ends at the top of the address space: the
        // containment test forms no `base + size`.
        t.insert(u64::MAX - 15, 16, UnitId(5));
        assert_eq!(t.lookup(u64::MAX).unwrap().unit, UnitId(5));
        assert_eq!(t.lookup(u64::MAX - 16), None);
        t
    }

    #[test]
    fn flat_table_basics() {
        let t = exercise(Table::new(TableKind::Flat));
        assert!(matches!(t, Table::Flat(_)), "flat builds a sorted vector");
    }

    #[test]
    fn every_kind_builds_a_working_backend() {
        for kind in TableKind::ALL {
            assert!(Table::new(kind).is_empty());
            assert_eq!(exercise(Table::new(kind)).len(), 4, "{kind}");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TableKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(TableKind::ALL.map(TableKind::name), ["reference", "flat"]);
        assert_eq!(TableKind::default(), TableKind::Flat);
    }

    #[test]
    fn flat_memo_survives_interleaved_mutation() {
        let mut t = FlatTable::new();
        for i in 0..64u64 {
            t.insert(i * 32, 16, UnitId(i as u32));
        }
        // Warm the memo on unit 40, then remove a lower entry (shifting
        // the memoized index) and verify lookups stay correct.
        assert_eq!(t.lookup(40 * 32 + 3).unwrap().unit, UnitId(40));
        assert_eq!(t.remove(10 * 32).unwrap().unit, UnitId(10));
        assert_eq!(t.lookup(40 * 32 + 3).unwrap().unit, UnitId(40));
        assert_eq!(t.lookup(10 * 32 + 3), None);
        // Insert below the memoized slot, shifting entries up.
        t.insert(10 * 32, 16, UnitId(99));
        assert_eq!(t.lookup(10 * 32 + 3).unwrap().unit, UnitId(99));
        assert_eq!(t.lookup(40 * 32 + 3).unwrap().unit, UnitId(40));
    }

    /// A frame-shaped run: `n` units of varied sizes from `base` up,
    /// with gaps between them.
    fn run_at(base: u64, n: u64, first_id: u32) -> Vec<Placement> {
        (0..n)
            .map(|i| Placement {
                base: base + i * 48,
                size: 8 + i * 8,
                unit: UnitId(first_id + i as u32),
            })
            .collect()
    }

    /// Every lookup that could tell two tables apart: each entry's
    /// edges, one byte either side of them, and the middle.
    fn probe_edges(t: &mut Table, of: &[Placement]) -> Vec<Option<Placement>> {
        of.iter()
            .flat_map(|p| {
                let end = p.base + p.size;
                [
                    p.base - 1,
                    p.base,
                    p.base + 1,
                    p.base + p.size / 2,
                    end - 1,
                    end,
                    end + 1,
                ]
            })
            .map(|a| t.lookup(a))
            .collect()
    }

    #[test]
    fn runs_equal_the_per_unit_operations_on_both_kinds() {
        // Existing entries at 1000.., 5000.. and 9000..; runs under all
        // of them, between two, over all, and empty.
        let resident: Vec<Placement> = [1000, 5000, 9000]
            .iter()
            .enumerate()
            .flat_map(|(i, &b)| run_at(b, 2, 100 + 10 * i as u32))
            .collect();
        let runs = [
            run_at(200, 3, 1),
            run_at(3000, 4, 1),
            run_at(20_000, 2, 1),
            run_at(7000, 1, 1),
            Vec::new(),
        ];
        for kind in TableKind::ALL {
            for run in &runs {
                let (mut by_run, mut by_unit) = (Table::new(kind), Table::new(kind));
                for t in [&mut by_run, &mut by_unit] {
                    resident
                        .iter()
                        .for_each(|p| t.insert(p.base, p.size, p.unit));
                }
                by_run.insert_run(run);
                run.iter()
                    .for_each(|p| by_unit.insert(p.base, p.size, p.unit));
                let all: Vec<Placement> = resident.iter().chain(run).copied().collect();
                assert_eq!(by_run.len(), all.len(), "{kind}");
                assert_eq!(
                    probe_edges(&mut by_run, &all),
                    probe_edges(&mut by_unit, &all)
                );

                assert!(by_run.remove_run(run), "{kind}: the run is registered");
                for p in run.iter().rev() {
                    assert_eq!(by_unit.remove(p.base), Some(*p), "{kind}");
                }
                assert_eq!(by_run.len(), resident.len(), "{kind}");
                assert_eq!(
                    probe_edges(&mut by_run, &all),
                    probe_edges(&mut by_unit, &all)
                );
            }
        }
    }

    #[test]
    fn a_run_the_table_does_not_hold_exactly_is_refused() {
        for kind in TableKind::ALL {
            let mut t = Table::new(kind);
            let run = run_at(4000, 3, 1);
            t.insert_run(&run);
            let mut renamed = run.clone();
            renamed[2].unit = UnitId(77);
            assert!(!t.remove_run(&renamed), "{kind}: another unit at a base");
            let mut t = Table::new(kind);
            t.insert_run(&run[..2]);
            assert!(!t.remove_run(&run), "{kind}: a unit the table lacks");
        }
        let mut t = Table::new(TableKind::Flat);
        let run = run_at(4000, 3, 1);
        t.insert_run(&run);
        let shifted: Vec<Placement> = run
            .iter()
            .map(|p| Placement {
                base: p.base + 1,
                ..*p
            })
            .collect();
        assert!(!t.remove_run(&shifted), "a run must start at an entry");
        assert!(!t.remove_run(&[run[0], run[2]]), "and be contiguous");
        assert_eq!(t.len(), 3, "a refused run leaves the flat table whole");
    }

    #[test]
    fn flat_memo_follows_its_entry_across_inserts_and_removals() {
        let mut t = FlatTable::new();
        let run = run_at(10_000, 4, 1);
        for i in 0..8u64 {
            t.insert(i * 1000, 16, UnitId(50 + i as u32));
        }
        t.insert_run(&run);
        let hot = 5 * 1000 + 3;
        let memo_hits = |t: &mut FlatTable| {
            let before = t.profile;
            assert_eq!(t.lookup(hot).map(|p| p.unit), Some(UnitId(55)));
            t.profile.searches == before.searches
        };
        assert!(!memo_hits(&mut t), "the first lookup searches");
        assert!(memo_hits(&mut t));
        assert_eq!(t.remove(7000).map(|p| p.unit), Some(UnitId(57)));
        assert!(memo_hits(&mut t), "a removal above keeps the memo");
        assert!(t.remove_run(&run));
        assert!(memo_hits(&mut t), "a run removed above keeps the memo");
        assert_eq!(t.remove(1000).map(|p| p.unit), Some(UnitId(51)));
        assert!(memo_hits(&mut t), "a removal below shifts the memo");
        t.insert(1000, 16, UnitId(91));
        assert!(memo_hits(&mut t), "an insert below shifts the memo");
        t.insert_run(&run_at(100, 3, 1));
        assert!(memo_hits(&mut t), "a run inserted below shifts the memo");
        assert!(t.remove_run(&run_at(100, 3, 1)));
        assert!(memo_hits(&mut t), "a run removed below shifts the memo");
        assert_eq!(t.remove(5000).map(|p| p.unit), Some(UnitId(55)));
        assert_eq!(t.lookup(hot), None, "the memo dies with its entry");
    }

    #[test]
    fn the_profile_counts_what_each_kind_searched() {
        for kind in TableKind::ALL {
            let mut t = Table::new(kind);
            t.insert_run(&run_at(100, 3, 1));
            for a in [100, 101, 102, 150, 151] {
                t.lookup(a);
            }
            let profile = t.lookup_profile();
            assert_eq!(profile.lookups, 5, "{kind}");
            // The flat memo answers the repeats; the oracle has no memo.
            let searches = if kind == TableKind::Flat { 2 } else { 5 };
            assert_eq!(profile.searches, searches, "{kind}");
        }
    }
}
