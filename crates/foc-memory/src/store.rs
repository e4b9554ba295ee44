//! The arena-backed unit store.
//!
//! Every [`crate::space::MemorySpace`] owns one [`UnitStore`]: a
//! generational slab holding all of the space's [`DataUnit`]s. The store
//! exists to keep per-machine allocator traffic near zero at farm scale —
//! thousands of simulated server processes each carry a store, so a
//! per-unit `Box` or per-label `String` multiplies into real host heap
//! churn:
//!
//! * units live inline in one `Vec` (the slab), addressed by the slot
//!   half of their [`UnitId`];
//! * vacated slots form an **intrusive** free list threaded through the
//!   slab itself — no side `Vec<u32>` of free indices to grow and shrink;
//! * debug labels (global/variable names) are appended to one shared
//!   string arena per store instead of one `String` per unit (arena
//!   allocation, not interning — repeated labels store repeated bytes,
//!   which is still far cheaper than one heap box per unit);
//! * each slot carries a **generation**, bumped on reuse and packed into
//!   the ids it mints, so a stale id held across its unit's death and the
//!   slot's recycling resolves to `None` instead of aliasing the slot's
//!   new occupant.
//!
//! Dead units stay readable (for dangling-pointer diagnostics) until their
//! slot is actually reused, matching the behaviour the error log and the
//! out-of-bounds registry were built against.

use crate::roomy::RoomyVec;
use crate::unit::{DataUnit, UnitId, UnitKind};

/// Sentinel for "no next free slot".
const NONE: u32 = u32::MAX;

/// One slab slot: the unit, the intrusive free link, and the label span
/// into the store's string arena. The slot's current generation is not
/// stored separately — it *is* `unit.id.generation()`, so the id check
/// in `get`/`kill`/`label` has a single source of truth.
#[derive(Debug, Clone)]
struct Slot {
    unit: DataUnit,
    /// Next vacant slot when this slot is on the free list.
    next_free: u32,
    /// `(offset, len)` into [`UnitStore::label_arena`]; `len == 0` means
    /// unlabelled.
    label: (u32, u32),
}

/// Units a checked space has room for before any vector of its unit
/// bookkeeping (this slab, the flat table, the frames' unit lists)
/// reallocates: the ceiling `tests/substrate_props.rs` holds every guest
/// under (the servers peak at 36). The vectors keep their capacity
/// through `clone`, so a process restored from a checkpoint serves its
/// first request without a `realloc` on the call path.
pub const UNIT_ROOM: usize = 64;

/// Generational slab of data units with arena-allocated labels.
/// `Clone` snapshots the whole slab (boot checkpoints).
#[derive(Debug, Clone)]
pub struct UnitStore {
    slots: RoomyVec<Slot>,
    /// Head of the intrusive free list (`NONE` when full).
    free_head: u32,
    /// Number of live units.
    live: usize,
    /// Shared label text; spans never move (append-only).
    label_arena: String,
}

impl Default for UnitStore {
    fn default() -> UnitStore {
        UnitStore::new()
    }
}

impl UnitStore {
    /// Creates an empty store.
    pub fn new() -> UnitStore {
        UnitStore::with_room(0)
    }

    /// An empty store that holds `units` slots before it reallocates.
    pub fn with_room(units: usize) -> UnitStore {
        UnitStore {
            slots: RoomyVec::with_capacity(units),
            free_head: NONE,
            live: 0,
            label_arena: String::new(),
        }
    }

    /// Allocates a live unit, recycling a vacant slot when one exists.
    /// The returned id carries the slot's current generation.
    ///
    /// `#[inline]` throughout the alloc/kill/get trio: these sit on the
    /// per-access hot path of every checked machine, and without
    /// cross-crate inlining the call overhead alone costs more than the
    /// slab work.
    #[inline]
    pub fn alloc(&mut self, base: u64, size: u64, kind: UnitKind, label: Option<&str>) -> UnitId {
        let label_span = match label {
            Some(text) if !text.is_empty() => {
                let offset = self.label_arena.len() as u32;
                self.label_arena.push_str(text);
                (offset, text.len() as u32)
            }
            _ => (0, 0),
        };
        self.live += 1;
        if self.free_head != NONE {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            let id = UnitId::new(index, slot.unit.id.generation().wrapping_add(1));
            self.free_head = slot.next_free;
            *slot = Slot {
                unit: DataUnit {
                    id,
                    base,
                    size,
                    kind,
                    live: true,
                },
                next_free: NONE,
                label: label_span,
            };
            return id;
        }
        let index = self.slots.len() as u32;
        let id = UnitId::new(index, 0);
        self.slots.push(Slot {
            unit: DataUnit {
                id,
                base,
                size,
                kind,
                live: true,
            },
            next_free: NONE,
            label: label_span,
        });
        id
    }

    /// Marks the unit dead and queues its slot for recycling. The unit
    /// stays readable through [`UnitStore::get`] until the slot is
    /// actually reused. Returns the unit's placement base.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not name a live unit (killing twice, or
    /// killing through a stale id, is a space-layer bug).
    #[inline]
    pub fn kill(&mut self, id: UnitId) -> u64 {
        let index = id.slot();
        let slot = &mut self.slots[index as usize];
        assert!(
            slot.unit.id == id && slot.unit.live,
            "unit {id} is stale or already dead"
        );
        slot.unit.live = false;
        slot.next_free = self.free_head;
        self.free_head = index;
        self.live -= 1;
        slot.unit.base
    }

    /// Resolves an id to its unit — live or dead-but-not-yet-recycled.
    /// Returns `None` when the slot has been recycled under a newer
    /// generation (or never existed).
    #[inline]
    pub fn get(&self, id: UnitId) -> Option<&DataUnit> {
        let slot = self.slots.get(id.slot() as usize)?;
        if slot.unit.id == id {
            Some(&slot.unit)
        } else {
            None
        }
    }

    /// The arena-allocated debug label of a unit, when it has one.
    #[inline]
    pub fn label(&self, id: UnitId) -> Option<&str> {
        let slot = self.slots.get(id.slot() as usize)?;
        if slot.unit.id != id || slot.label.1 == 0 {
            return None;
        }
        let (offset, len) = (slot.label.0 as usize, slot.label.1 as usize);
        Some(&self.label_arena[offset..offset + len])
    }

    /// Number of live units.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Number of slab slots (live + recyclable) — the arena's footprint.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of label text in the arena.
    pub fn label_bytes(&self) -> usize {
        self.label_arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_round_trip() {
        let mut s = UnitStore::new();
        let a = s.alloc(0x1000, 16, UnitKind::Heap, None);
        let b = s.alloc(0x2000, 32, UnitKind::Global, Some("counter"));
        assert_eq!(s.live_len(), 2);
        assert_eq!(s.get(a).unwrap().base, 0x1000);
        assert_eq!(s.get(b).unwrap().size, 32);
        assert_eq!(s.get(b).unwrap().id, b);
        assert_eq!(s.label(a), None);
        assert_eq!(s.label(b), Some("counter"));
    }

    #[test]
    fn dead_units_stay_readable_until_recycled() {
        let mut s = UnitStore::new();
        let a = s.alloc(0x1000, 16, UnitKind::Heap, None);
        assert_eq!(s.kill(a), 0x1000);
        assert_eq!(s.live_len(), 0);
        // Still resolvable, flagged dead — dangling diagnostics depend on
        // this window.
        let dead = s.get(a).unwrap();
        assert!(!dead.live);
        assert_eq!(dead.base, 0x1000);
        // Recycling the slot retires the old id.
        let b = s.alloc(0x3000, 8, UnitKind::Stack, None);
        assert_eq!(b.slot(), a.slot(), "slot must be recycled");
        assert_eq!(b.generation(), a.generation() + 1);
        assert!(s.get(a).is_none(), "stale id must not alias");
        assert_eq!(s.get(b).unwrap().base, 0x3000);
    }

    #[test]
    fn free_list_is_intrusive_and_lifo() {
        let mut s = UnitStore::new();
        let ids: Vec<UnitId> = (0..4)
            .map(|i| s.alloc(i * 64, 16, UnitKind::Heap, None))
            .collect();
        assert_eq!(s.slot_count(), 4);
        for &id in &ids {
            s.kill(id);
        }
        // Reuse consumes the most recently freed slot first and never
        // grows the slab.
        let r = s.alloc(0x9000, 16, UnitKind::Heap, None);
        assert_eq!(r.slot(), ids[3].slot());
        assert_eq!(s.slot_count(), 4);
        for _ in 0..3 {
            s.alloc(0xA000, 16, UnitKind::Heap, None);
        }
        assert_eq!(s.slot_count(), 4);
        let grown = s.alloc(0xB000, 16, UnitKind::Heap, None);
        assert_eq!(grown.slot(), 4, "slab grows only when the free list is dry");
    }

    #[test]
    fn generation_wraps_without_losing_the_slot() {
        let mut s = UnitStore::new();
        let mut id = s.alloc(0, 8, UnitKind::Heap, None);
        for i in 0..600u64 {
            s.kill(id);
            id = s.alloc(i, 8, UnitKind::Heap, None);
            assert_eq!(id.slot(), 0);
        }
        assert_eq!(s.slot_count(), 1);
        assert_eq!(s.get(id).unwrap().base, 599);
    }

    #[test]
    fn labels_share_one_arena() {
        let mut s = UnitStore::new();
        let ids: Vec<UnitId> = (0..16)
            .map(|i| s.alloc(i * 32, 8, UnitKind::Global, Some("g")))
            .collect();
        assert_eq!(s.label_bytes(), 16);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(s.label(*id), Some("g"), "unit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "stale or already dead")]
    fn double_kill_is_a_bug() {
        let mut s = UnitStore::new();
        let a = s.alloc(0, 8, UnitKind::Heap, None);
        s.kill(a);
        s.kill(a);
    }
}
