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
//! * [`SplayTable`] — the self-adjusting tree Jones & Kelly's runtime
//!   (and CRED's) used because accesses have high temporal locality. It
//!   is kept as the reference oracle: `BootSpec::oracle` (and so the
//!   sweep's oracle gate point) runs on it, and every equivalence
//!   battery compares the shipped table against it. It takes a run one
//!   unit at a time, so those batteries also hold the run path to the
//!   per-unit one.
//!
//! Both give byte-identical failure-oblivious semantics, so the choice
//! never shows in a transcript, a counter or a log record. Only the
//! [`LookupProfile`] — diagnostics, kept out of every equivalence
//! relation — tells them apart.

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
    /// Self-adjusting splay tree (as in Jones & Kelly; the reference
    /// oracle).
    Splay,
}

impl TableKind {
    /// Both structures, oracle first (the order of `farm_stress`'s rows
    /// and of the equivalence batteries' table loops).
    pub const ALL: [TableKind; 2] = [TableKind::Splay, TableKind::Flat];

    /// Stable lower-case name (bench rows).
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Flat => "flat",
            TableKind::Splay => "splay",
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
    /// the flat table, a splay on the oracle (which has no memo).
    pub searches: u64,
}

/// A space's object table, held by value.
///
/// Lookup takes `&mut self` because both structures reorganise on a
/// query (the splay tree rotates, the flat table moves its memo).
#[derive(Debug, Clone)]
pub enum Table {
    /// The shipped sorted vector.
    Flat(FlatTable),
    /// The oracle splay tree.
    Splay(SplayTable),
}

impl Table {
    /// An empty table of the given kind.
    pub fn new(kind: TableKind) -> Table {
        Table::with_room(kind, 0)
    }

    /// An empty table that holds `units` entries before it reallocates
    /// (the oracle allocates per node and ignores the hint).
    pub fn with_room(kind: TableKind, units: usize) -> Table {
        match kind {
            TableKind::Flat => Table::Flat(FlatTable {
                entries: RoomyVec::with_capacity(units),
                ..FlatTable::default()
            }),
            TableKind::Splay => Table::Splay(SplayTable::new()),
        }
    }

    /// Registers a live unit. The caller guarantees the range does not
    /// overlap any registered range.
    pub fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        match self {
            Table::Flat(t) => t.insert(base, size, unit),
            Table::Splay(t) => t.insert(base, size, unit),
        }
    }

    /// Registers a run of live units at once: what `insert` of each in
    /// turn would leave. The caller guarantees the run is base-sorted,
    /// overlaps no registered range, and has no registered unit between
    /// its first and last base — a stack frame's locals.
    pub fn insert_run(&mut self, run: &[Placement]) {
        match self {
            Table::Flat(t) => t.insert_run(run),
            Table::Splay(t) => run.iter().for_each(|p| t.insert(p.base, p.size, p.unit)),
        }
    }

    /// Removes the unit based at exactly `base`, returning it if present.
    pub fn remove(&mut self, base: u64) -> Option<Placement> {
        match self {
            Table::Flat(t) => t.remove(base),
            Table::Splay(t) => t.remove(base),
        }
    }

    /// Removes a run [`Table::insert_run`] registered: what `remove` of
    /// each unit, last first, would leave. `false` when the table did not
    /// hold exactly these entries — a bug in the caller's bookkeeping,
    /// after which the table's contents are unspecified.
    pub fn remove_run(&mut self, run: &[Placement]) -> bool {
        match self {
            Table::Flat(t) => t.remove_run(run),
            Table::Splay(t) => run.iter().rev().all(|p| t.remove(p.base) == Some(*p)),
        }
    }

    /// Finds the unit whose range contains `addr`.
    ///
    /// Deliberately not `#[inline]` (nor are the structures' own
    /// lookups): inlined into `foc-vm`'s native executor the searches
    /// crowd its pure-local loop — `native_cost`'s dispatch gate read
    /// 2.1–2.5× with the attribute against 2.7–3.6× without — and the
    /// view's memo keeps the call off the hot path anyway.
    pub fn lookup(&mut self, addr: u64) -> Option<Placement> {
        match self {
            Table::Flat(t) => t.lookup(addr),
            Table::Splay(t) => t.lookup(addr),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match self {
            Table::Flat(t) => t.len(),
            Table::Splay(t) => t.len(),
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
            Table::Splay(t) => t.profile,
        }
    }
}

/// Sorted interval vector with last-hit memoization.
///
/// Entries live base-sorted in one contiguous `Vec`, so a lookup is a
/// branch-light binary search over cache-dense memory, and the
/// temporal-locality case the splay tree rotates for is served by a
/// one-entry memo instead: the index of the last hit is probed first, in
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

/// Index of a splay tree node, with `NONE` as the null sentinel.
type NodeIdx = u32;
const NONE: NodeIdx = u32::MAX;

#[derive(Debug, Clone)]
struct SplayNode {
    base: u64,
    size: u64,
    unit: UnitId,
    left: NodeIdx,
    right: NodeIdx,
}

/// Self-adjusting object table, as in the Jones & Kelly runtime.
///
/// Nodes live in a `Vec` and are addressed by index; removed slots are
/// recycled through a free list. Every lookup splays the closest entry to
/// the root, so repeated accesses to the same data unit are O(1) after the
/// first — the common case for server request processing.
#[derive(Debug, Clone, Default)]
pub struct SplayTable {
    nodes: Vec<SplayNode>,
    root: NodeIdx,
    free: Vec<NodeIdx>,
    len: usize,
    profile: LookupProfile,
}

impl SplayTable {
    /// Creates an empty table.
    pub fn new() -> SplayTable {
        SplayTable {
            nodes: Vec::new(),
            root: NONE,
            free: Vec::new(),
            len: 0,
            profile: LookupProfile::default(),
        }
    }

    fn node(&self, i: NodeIdx) -> &SplayNode {
        &self.nodes[i as usize]
    }

    fn node_mut(&mut self, i: NodeIdx) -> &mut SplayNode {
        &mut self.nodes[i as usize]
    }

    fn placement(&self, i: NodeIdx) -> Placement {
        let n = self.node(i);
        Placement {
            base: n.base,
            size: n.size,
            unit: n.unit,
        }
    }

    fn alloc_node(&mut self, base: u64, size: u64, unit: UnitId) -> NodeIdx {
        let node = SplayNode {
            base,
            size,
            unit,
            left: NONE,
            right: NONE,
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeIdx
        }
    }

    /// Top-down splay: reorganises the subtree rooted at `root` so the node
    /// with key `key` (or the last node on the search path) becomes the
    /// root. This is the classic Sleator–Tarjan top-down formulation.
    fn splay(&mut self, mut root: NodeIdx, key: u64) -> NodeIdx {
        if root == NONE {
            return NONE;
        }
        // `left_tail` / `right_tail` are the attachment points of the
        // assembled left and right trees; `header` slots stand in for the
        // missing parent of each.
        let mut left_head = NONE;
        let mut left_tail = NONE;
        let mut right_head = NONE;
        let mut right_tail = NONE;

        loop {
            let rb = self.node(root).base;
            if key < rb {
                let mut child = self.node(root).left;
                if child == NONE {
                    break;
                }
                if key < self.node(child).base {
                    // Zig-zig: rotate right.
                    self.node_mut(root).left = self.node(child).right;
                    self.node_mut(child).right = root;
                    root = child;
                    child = self.node(root).left;
                    if child == NONE {
                        break;
                    }
                }
                // Link right.
                if right_tail == NONE {
                    right_head = root;
                } else {
                    self.node_mut(right_tail).left = root;
                }
                right_tail = root;
                root = child;
            } else if key > rb {
                let mut child = self.node(root).right;
                if child == NONE {
                    break;
                }
                if key > self.node(child).base {
                    // Zig-zig: rotate left.
                    self.node_mut(root).right = self.node(child).left;
                    self.node_mut(child).left = root;
                    root = child;
                    child = self.node(root).right;
                    if child == NONE {
                        break;
                    }
                }
                // Link left.
                if left_tail == NONE {
                    left_head = root;
                } else {
                    self.node_mut(left_tail).right = root;
                }
                left_tail = root;
                root = child;
            } else {
                break;
            }
        }

        // Assemble.
        let root_left = self.node(root).left;
        let root_right = self.node(root).right;
        if left_tail == NONE {
            left_head = root_left;
        } else {
            self.node_mut(left_tail).right = root_left;
        }
        if right_tail == NONE {
            right_head = root_right;
        } else {
            self.node_mut(right_tail).left = root_right;
        }
        self.node_mut(root).left = left_head;
        self.node_mut(root).right = right_head;
        root
    }

    #[cfg(test)]
    fn check_bst(&self) {
        fn walk(t: &SplayTable, n: NodeIdx, lo: Option<u64>, hi: Option<u64>, count: &mut usize) {
            if n == NONE {
                return;
            }
            let node = t.node(n);
            if let Some(lo) = lo {
                assert!(node.base > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(node.base < hi, "BST order violated");
            }
            *count += 1;
            walk(t, node.left, lo, Some(node.base), count);
            walk(t, node.right, Some(node.base), hi, count);
        }
        let mut count = 0;
        walk(self, self.root, None, None, &mut count);
        assert_eq!(count, self.len, "node count mismatch");
    }

    /// Registers a live unit (see [`Table::insert`]).
    pub fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        let fresh = self.alloc_node(base, size, unit);
        if self.root == NONE {
            self.root = fresh;
            self.len += 1;
            return;
        }
        let root = self.splay(self.root, base);
        let rb = self.node(root).base;
        if base == rb {
            // Replace in place (the caller never does this for live units,
            // but replacement keeps the structure consistent regardless).
            let (l, r) = (self.node(root).left, self.node(root).right);
            self.node_mut(fresh).left = l;
            self.node_mut(fresh).right = r;
            self.free.push(root);
            self.root = fresh;
            return;
        }
        if base < rb {
            self.node_mut(fresh).left = self.node(root).left;
            self.node_mut(fresh).right = root;
            self.node_mut(root).left = NONE;
        } else {
            self.node_mut(fresh).right = self.node(root).right;
            self.node_mut(fresh).left = root;
            self.node_mut(root).right = NONE;
        }
        self.root = fresh;
        self.len += 1;
    }

    /// Removes the unit based at exactly `base`.
    pub fn remove(&mut self, base: u64) -> Option<Placement> {
        if self.root == NONE {
            return None;
        }
        let root = self.splay(self.root, base);
        self.root = root;
        if self.node(root).base != base {
            return None;
        }
        let removed = self.placement(root);
        let (left, right) = (self.node(root).left, self.node(root).right);
        self.root = if left == NONE {
            right
        } else {
            // Splay the maximum of the left subtree to its root; it then
            // has no right child and adopts `right`.
            let new_root = self.splay(left, u64::MAX);
            self.node_mut(new_root).right = right;
            new_root
        };
        self.free.push(root);
        self.len -= 1;
        Some(removed)
    }

    /// Finds the unit whose range contains `addr`.
    pub fn lookup(&mut self, addr: u64) -> Option<Placement> {
        self.profile.lookups += 1;
        if self.root == NONE {
            return None;
        }
        self.profile.searches += 1;
        let root = self.splay(self.root, addr);
        self.root = root;
        let mut at = root;
        if self.node(root).base > addr {
            // Root is the successor of `addr`; the containing unit, if any,
            // is the maximum of the left subtree.
            at = self.node(root).left;
            if at == NONE {
                return None;
            }
            while self.node(at).right != NONE {
                at = self.node(at).right;
            }
        }
        let p = self.placement(at);
        (addr - p.base < p.size).then_some(p)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    fn splay_table_basics() {
        let Table::Splay(t) = exercise(Table::new(TableKind::Splay)) else {
            panic!("splay builds a splay tree");
        };
        t.check_bst();
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
        assert_eq!(TableKind::ALL.map(TableKind::name), ["splay", "flat"]);
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

    #[test]
    fn splay_handles_many_interleaved_ops() {
        let mut t = SplayTable::new();
        // Insert 1000 spaced units, remove every third, verify lookups.
        for i in 0..1000u64 {
            t.insert(i * 16, 8, UnitId(i as u32));
        }
        t.check_bst();
        for i in (0..1000u64).step_by(3) {
            assert!(t.remove(i * 16).is_some());
        }
        t.check_bst();
        for i in 0..1000u64 {
            let hit = t.lookup(i * 16 + 4);
            if i % 3 == 0 {
                assert!(hit.is_none(), "unit {i} should be gone");
            } else {
                assert_eq!(hit.unwrap().unit, UnitId(i as u32));
            }
            // The 8-byte gap between units never resolves.
            assert!(t.lookup(i * 16 + 12).is_none());
        }
        t.check_bst();
    }

    #[test]
    fn splay_reuses_freed_slots() {
        let mut t = SplayTable::new();
        for i in 0..64u64 {
            t.insert(i * 32, 16, UnitId(i as u32));
        }
        let nodes_before = t.nodes.len();
        for i in 0..64u64 {
            t.remove(i * 32);
        }
        for i in 0..64u64 {
            t.insert(i * 32 + 4096, 16, UnitId(i as u32 + 100));
        }
        assert_eq!(t.nodes.len(), nodes_before, "slots must be recycled");
    }
}
