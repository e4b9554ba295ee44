//! Out-of-bounds pointer registry.
//!
//! CRED's key enhancement over the original Jones & Kelly scheme is that
//! pointer arithmetic which leaves a data unit does not immediately abort:
//! the result is replaced with a pointer to an *out-of-bounds object* that
//! records the intended address and the referent unit. The program may
//! hold, copy, compare, and further offset such a pointer — only
//! *dereferencing* it is a memory error. Arithmetic that brings the
//! intended address back inside the referent restores an ordinary pointer.
//!
//! We reproduce this with a registry of descriptors addressed through a
//! reserved zone of the virtual address space (see [`crate::addr`]). The
//! encoded address can be stored to memory and reloaded like any other
//! 8-byte value without losing the association, exactly as CRED's
//! descriptor pointers survive a round trip through memory.

use std::collections::HashMap;

use crate::addr::{OOB_STRIDE, OOB_ZONE_BASE};
use crate::unit::UnitId;

/// Identifier of an out-of-bounds descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OobId(pub u32);

/// A single out-of-bounds descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobEntry {
    /// The unit the pointer was derived from.
    pub referent: UnitId,
    /// Base address of the referent at the time of derivation.
    pub referent_base: u64,
    /// Size of the referent at the time of derivation.
    pub referent_size: u64,
    /// The address the program arithmetic actually produced.
    pub intended: u64,
}

impl OobEntry {
    /// Byte offset of the intended address relative to the referent base.
    ///
    /// Negative when the pointer underflows the unit.
    pub fn offset(&self) -> i64 {
        self.intended.wrapping_sub(self.referent_base) as i64
    }
}

/// Registry of live out-of-bounds descriptors.
///
/// Descriptors are deduplicated on `(referent, intended)`, so repeatedly
/// computing the same out-of-bounds pointer (e.g. in a loop) does not grow
/// the registry. When a data unit dies the memory space purges its
/// descriptors and the slots are recycled; a stale encoded address held by
/// the guest across its referent's death may afterwards decode to an
/// unrelated descriptor, which is harmless — dereferencing it was already a
/// memory error, and the policy layer treats it as such either way. (CRED
/// leaks its out-of-bounds objects instead; recycling keeps multi-day
/// stability runs in bounded memory.)
#[derive(Debug, Clone, Default)]
pub struct OobRegistry {
    entries: Vec<Option<OobEntry>>,
    dedup: HashMap<(UnitId, u64), OobId>,
    by_unit: HashMap<UnitId, Vec<OobId>>,
    free: Vec<OobId>,
    live: usize,
}

impl OobRegistry {
    /// Creates an empty registry.
    pub fn new() -> OobRegistry {
        OobRegistry::default()
    }

    /// Registers (or finds) the descriptor for `intended` relative to the
    /// given referent, returning the encoded address for the guest.
    pub fn intern(
        &mut self,
        referent: UnitId,
        referent_base: u64,
        referent_size: u64,
        intended: u64,
    ) -> u64 {
        let key = (referent, intended);
        let id = if let Some(&id) = self.dedup.get(&key) {
            id
        } else {
            let entry = OobEntry {
                referent,
                referent_base,
                referent_size,
                intended,
            };
            let id = if let Some(id) = self.free.pop() {
                self.entries[id.0 as usize] = Some(entry);
                id
            } else {
                self.entries.push(Some(entry));
                OobId((self.entries.len() - 1) as u32)
            };
            self.dedup.insert(key, id);
            self.by_unit.entry(referent).or_default().push(id);
            self.live += 1;
            id
        };
        encode(id)
    }

    /// Decodes a guest address in the OOB zone back to its descriptor.
    ///
    /// Returns `None` for addresses that are in the zone but do not
    /// correspond to a registered descriptor (a wild pointer manufactured
    /// by the guest).
    pub fn decode(&self, addr: u64) -> Option<&OobEntry> {
        let id = decode(addr)?;
        self.entries.get(id.0 as usize)?.as_ref()
    }

    /// The address a pointer value *means*: a registered descriptor
    /// resolves to its intended address, anything else is itself.
    #[inline]
    pub fn effective_addr(&self, ptr: u64) -> u64 {
        if crate::addr::is_oob_zone(ptr) {
            if let Some(entry) = self.decode(ptr) {
                return entry.intended;
            }
        }
        ptr
    }

    /// Drops every descriptor derived from `unit`, recycling their slots.
    pub fn purge_unit(&mut self, unit: UnitId) {
        // Every dying unit comes through here (each local on every
        // `Ret`); with no descriptors at all there is nothing to hash.
        if self.by_unit.is_empty() {
            return;
        }
        let Some(ids) = self.by_unit.remove(&unit) else {
            return;
        };
        for id in ids {
            if let Some(entry) = self.entries[id.0 as usize].take() {
                self.dedup.remove(&(entry.referent, entry.intended));
                self.free.push(id);
                self.live -= 1;
            }
        }
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no descriptors exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Encodes a descriptor id as a guest address.
#[inline]
fn encode(id: OobId) -> u64 {
    OOB_ZONE_BASE + id.0 as u64 * OOB_STRIDE
}

/// Decodes a guest address to a descriptor id, if exactly on a stride.
#[inline]
fn decode(addr: u64) -> Option<OobId> {
    if addr < OOB_ZONE_BASE {
        return None;
    }
    let off = addr - OOB_ZONE_BASE;
    if !off.is_multiple_of(OOB_STRIDE) {
        return None;
    }
    Some(OobId((off / OOB_STRIDE) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips() {
        let mut reg = OobRegistry::new();
        let addr = reg.intern(UnitId(7), 1000, 16, 1024);
        let entry = reg.decode(addr).unwrap();
        assert_eq!(entry.referent, UnitId(7));
        assert_eq!(entry.intended, 1024);
        assert_eq!(entry.offset(), 24);
    }

    #[test]
    fn intern_deduplicates() {
        let mut reg = OobRegistry::new();
        let a = reg.intern(UnitId(1), 0x1000, 8, 0x1010);
        let b = reg.intern(UnitId(1), 0x1000, 8, 0x1010);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        let c = reg.intern(UnitId(1), 0x1000, 8, 0x1018);
        assert_ne!(a, c);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn underflow_offsets_are_negative() {
        let mut reg = OobRegistry::new();
        let addr = reg.intern(UnitId(2), 0x2000, 8, 0x1FF0);
        assert_eq!(reg.decode(addr).unwrap().offset(), -16);
    }

    #[test]
    fn purge_unit_recycles_slots() {
        let mut reg = OobRegistry::new();
        let a = reg.intern(UnitId(1), 0x1000, 8, 0x1010);
        let _b = reg.intern(UnitId(2), 0x2000, 8, 0x2010);
        assert_eq!(reg.len(), 2);
        reg.purge_unit(UnitId(1));
        assert_eq!(reg.len(), 1);
        assert!(reg.decode(a).is_none());
        // The freed slot is reused by the next intern.
        let c = reg.intern(UnitId(3), 0x3000, 8, 0x3010);
        assert_eq!(c, a, "slot must be recycled");
        assert_eq!(reg.decode(c).unwrap().referent, UnitId(3));
    }

    #[test]
    fn purge_unknown_unit_is_noop() {
        let mut reg = OobRegistry::new();
        reg.intern(UnitId(1), 0, 8, 16);
        reg.purge_unit(UnitId(99));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn decode_rejects_wild_zone_addresses() {
        let mut reg = OobRegistry::new();
        reg.intern(UnitId(1), 0, 8, 16);
        // Mis-aligned within the zone.
        assert!(reg.decode(OOB_ZONE_BASE + 3).is_none());
        // Aligned but never interned.
        assert!(reg.decode(OOB_ZONE_BASE + 100 * OOB_STRIDE).is_none());
        // Not in the zone at all.
        assert!(reg.decode(0x1234).is_none());
    }
}
