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
//!   handful of cache lines, a miss of the memo is a five-step binary
//!   search, and an insert or remove shifts a few hundred bytes. Nothing
//!   with pointers in it can beat that at this size, and a page map in
//!   front of it only added a second structure to keep coherent.
//! * [`SplayTable`] — the self-adjusting tree Jones & Kelly's runtime
//!   (and CRED's) used because accesses have high temporal locality. It
//!   is kept as the reference oracle: `BootSpec::oracle` (and so the
//!   sweep's oracle gate point) runs on it, and every equivalence
//!   battery compares the shipped table against it.
//!
//! Both give byte-identical failure-oblivious semantics, so the choice
//! never shows in a transcript, a counter or a log record.

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
                last_hit: 0,
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

    /// Removes the unit based at exactly `base`, returning it if present.
    pub fn remove(&mut self, base: u64) -> Option<Placement> {
        match self {
            Table::Flat(t) => t.remove(base),
            Table::Splay(t) => t.remove(base),
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
}

/// Sorted interval vector with last-hit memoization.
///
/// Entries live base-sorted in one contiguous `Vec`, so a lookup is a
/// branch-light binary search over cache-dense memory, and the
/// temporal-locality case the splay tree rotates for is served by a
/// one-entry memo instead: the index of the last hit is probed first, in
/// O(1) and with no structural writes. Inserts and removes shift the
/// tail (`memmove`), which is exactly the right trade for server-shaped
/// tables — a few dozen mostly-stable entries hammered by lookups.
#[derive(Debug, Clone, Default)]
pub struct FlatTable {
    entries: RoomyVec<Placement>,
    /// Index of the most recent lookup hit (memo; may be stale).
    last_hit: usize,
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
    }

    /// Removes the unit based at exactly `base`.
    pub fn remove(&mut self, base: u64) -> Option<Placement> {
        let at = self.upper_bound(base);
        if at == 0 || self.entries[at - 1].base != base {
            return None;
        }
        let removed = self.entries.remove(at - 1);
        self.last_hit = 0;
        Some(removed)
    }

    /// Finds the unit whose range contains `addr`.
    pub fn lookup(&mut self, addr: u64) -> Option<Placement> {
        // Memo probe: server traffic touches the same unit in runs.
        if let Some(p) = self.entries.get(self.last_hit) {
            if p.base <= addr && addr - p.base < p.size {
                return Some(*p);
            }
        }
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
}

impl SplayTable {
    /// Creates an empty table.
    pub fn new() -> SplayTable {
        SplayTable {
            nodes: Vec::new(),
            root: NONE,
            free: Vec::new(),
            len: 0,
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
        if self.root == NONE {
            return None;
        }
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
