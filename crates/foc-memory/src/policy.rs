//! Access policies: the three compilers of §4.1 plus the §5.1 variants.

use std::collections::HashMap;

use crate::restore;
use crate::unit::UnitId;

/// How memory accesses are checked and what happens on a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// The *Standard* version: no checks. Out-of-bounds accesses hit
    /// whatever bytes are at the target address; unmapped addresses fault
    /// with a segmentation violation.
    Standard,
    /// The *Bounds Check* version (CRED): every access is checked and the
    /// first violation terminates the program with a memory error.
    BoundsCheck,
    /// The *Failure Oblivious* version: invalid writes are discarded,
    /// invalid reads return manufactured values, execution continues.
    #[default]
    FailureOblivious,
    /// §5.1 variant — boundless memory blocks: out-of-bounds writes are
    /// stored in a hash table indexed by data unit and offset; matching
    /// out-of-bounds reads return the stored values. Accesses with no known
    /// referent behave as in failure-oblivious mode.
    Boundless,
    /// §5.1 variant — redirection: out-of-bounds accesses are redirected
    /// back into the referent data unit at the intended offset wrapped
    /// modulo the unit size. Accesses with no known referent behave as in
    /// failure-oblivious mode.
    Redirect,
}

impl Mode {
    /// Whether accesses consult the object table at all.
    #[inline]
    pub fn is_checked(self) -> bool {
        !matches!(self, Mode::Standard)
    }

    /// Whether a detected violation continues execution (rather than
    /// terminating, as the Bounds Check version does).
    #[inline]
    pub fn continues_through_errors(self) -> bool {
        matches!(
            self,
            Mode::FailureOblivious | Mode::Boundless | Mode::Redirect
        )
    }

    /// Short human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Standard => "Standard",
            Mode::BoundsCheck => "Bounds Check",
            Mode::FailureOblivious => "Failure Oblivious",
            Mode::Boundless => "Boundless",
            Mode::Redirect => "Redirect",
        }
    }

    /// All modes, for matrix experiments.
    pub const ALL: [Mode; 5] = [
        Mode::Standard,
        Mode::BoundsCheck,
        Mode::FailureOblivious,
        Mode::Boundless,
        Mode::Redirect,
    ];
}

/// Backing store for boundless memory blocks.
///
/// Values written out of bounds are kept per byte, keyed by the referent
/// unit and the byte's offset from the unit base. A read that finds all of
/// its bytes returns the stored value; a read with any missing byte falls
/// back to value manufacturing (the write never happened, so there is
/// nothing to return — this matches the conceptual model of an infinitely
/// extended block whose untouched bytes are undefined).
#[derive(Debug, Clone, Default)]
pub struct BoundlessStore {
    bytes: HashMap<(UnitId, i64), u8>,
}

impl BoundlessStore {
    /// Creates an empty store.
    pub fn new() -> BoundlessStore {
        BoundlessStore::default()
    }

    /// Overwrites this store with `src` in place ([`crate::restore`]).
    pub fn restore_from(&mut self, src: &BoundlessStore) {
        let BoundlessStore { bytes } = self;
        restore::map(bytes, &src.bytes);
    }

    /// Bytes of entries the map has room for.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        restore::held_map(&self.bytes)
    }

    /// Stores `len` bytes of `value` at `offset` from the unit base.
    pub fn store(&mut self, unit: UnitId, offset: i64, len: u64, value: u64) {
        let bytes = value.to_le_bytes();
        for i in 0..len {
            self.bytes
                .insert((unit, offset + i as i64), bytes[i as usize]);
        }
    }

    /// Loads `len` bytes at `offset` from the unit base, if all present.
    pub fn load(&self, unit: UnitId, offset: i64, len: u64) -> Option<u64> {
        let mut buf = [0u8; 8];
        for i in 0..len {
            buf[i as usize] = *self.bytes.get(&(unit, offset + i as i64))?;
        }
        Some(u64::from_le_bytes(buf))
    }

    /// Number of stored bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Discards everything stored for the given unit (called on free, since
    /// a new unit may reuse the identifier-less address range).
    pub fn forget_unit(&mut self, unit: UnitId) {
        if self.bytes.is_empty() {
            return;
        }
        self.bytes.retain(|(u, _), _| *u != unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(!Mode::Standard.is_checked());
        assert!(Mode::BoundsCheck.is_checked());
        assert!(!Mode::BoundsCheck.continues_through_errors());
        for m in [Mode::FailureOblivious, Mode::Boundless, Mode::Redirect] {
            assert!(m.is_checked());
            assert!(m.continues_through_errors());
        }
    }

    #[test]
    fn boundless_store_round_trips_multibyte() {
        let mut s = BoundlessStore::new();
        s.store(UnitId(1), 100, 4, 0xDDCC_BBAA);
        assert_eq!(s.load(UnitId(1), 100, 4), Some(0xDDCC_BBAA));
        // Partial overlap reads see the little-endian bytes.
        assert_eq!(s.load(UnitId(1), 101, 2), Some(0xCCBB));
        // A byte outside the written range is missing.
        assert_eq!(s.load(UnitId(1), 101, 4), None);
    }

    #[test]
    fn boundless_store_is_per_unit() {
        let mut s = BoundlessStore::new();
        s.store(UnitId(1), 0, 1, 7);
        assert_eq!(s.load(UnitId(2), 0, 1), None);
    }

    #[test]
    fn boundless_store_supports_negative_offsets() {
        let mut s = BoundlessStore::new();
        s.store(UnitId(3), -8, 8, u64::MAX);
        assert_eq!(s.load(UnitId(3), -8, 8), Some(u64::MAX));
    }

    #[test]
    fn forget_unit_drops_only_that_unit() {
        let mut s = BoundlessStore::new();
        s.store(UnitId(1), 0, 4, 1);
        s.store(UnitId(2), 0, 4, 2);
        s.forget_unit(UnitId(1));
        assert_eq!(s.load(UnitId(1), 0, 4), None);
        assert_eq!(s.load(UnitId(2), 0, 4), Some(2));
    }
}
