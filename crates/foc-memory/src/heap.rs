//! Free-list heap allocator with in-memory block headers.
//!
//! The allocator's metadata (a magic word and the block size) lives in the
//! simulated address space immediately before each payload, exactly like a
//! classic `dlmalloc`-style allocator. This is load-bearing for the
//! Standard-mode experiments: a heap buffer overflow tramples the next
//! block's header, and the corruption is detected — as a fatal fault — on a
//! subsequent `malloc`/`free`, reproducing the paper's "writes beyond the
//! end of the buffer, corrupts its heap, and terminates with a segmentation
//! violation" behaviour for Pine and Mutt. In the checked modes the bounds
//! checks make headers unreachable from guest code, so the same allocator
//! never observes corruption.
//!
//! Blocks are never coalesced; server workloads allocate and free a small
//! set of sizes repeatedly, so first-fit reuse keeps fragmentation bounded.

use std::fmt;

use crate::addr::{AccessSize, Region};

/// Magic word marking a live allocated block.
const MAGIC_ALLOCATED: u64 = 0xA110_C8ED_0B5E_55ED;
/// Magic word marking a freed block on the free list.
const MAGIC_FREE: u64 = 0xF4EE_B10C_F4EE_B10C;

/// Header size in bytes: `[magic: u64][size: u64]`.
pub const HEADER_SIZE: u64 = 16;

/// Payload alignment and rounding granule.
const ALIGN: u64 = 16;

/// Fatal allocator conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// A block header no longer carries a valid magic word — guest writes
    /// corrupted allocator metadata (only possible in Standard mode).
    CorruptHeader {
        /// Payload address of the block whose header is damaged.
        addr: u64,
        /// The corrupted magic value found.
        found: u64,
    },
    /// `free` called on an address that is not a live allocation.
    InvalidFree {
        /// The address passed to `free`.
        addr: u64,
    },
    /// `free` called twice on the same allocation.
    DoubleFree {
        /// The address passed to `free`.
        addr: u64,
    },
    /// The heap region is exhausted.
    OutOfMemory,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::CorruptHeader { addr, found } => {
                write!(f, "corrupt heap header at {addr:#x} (magic {found:#x})")
            }
            HeapError::InvalidFree { addr } => write!(f, "invalid free of {addr:#x}"),
            HeapError::DoubleFree { addr } => write!(f, "double free of {addr:#x}"),
            HeapError::OutOfMemory => write!(f, "heap exhausted"),
        }
    }
}

/// First-fit free-list allocator over a [`Region`].
#[derive(Debug, Clone)]
pub struct HeapAllocator {
    /// Payload address of the first free block, or 0 when the list is
    /// empty. Free blocks store the next free payload address in their
    /// first 8 payload bytes.
    free_head: u64,
    /// Bump pointer: next never-allocated address.
    brk: u64,
    /// Number of live allocations.
    live: u64,
    /// Total bytes handed out and not yet freed (payload bytes).
    live_bytes: u64,
}

impl HeapAllocator {
    /// Creates an allocator managing the given region.
    pub fn new(region: &Region) -> HeapAllocator {
        HeapAllocator {
            free_head: 0,
            brk: region.base(),
            live: 0,
            live_bytes: 0,
        }
    }

    /// Rounds a request up to the allocation granule. Zero-byte requests
    /// consume a granule so the returned pointer is unique. `None` when
    /// the block, header included, could not fit `region` even if it
    /// were empty — which bounds every sum formed from the result, so a
    /// guest-chosen size (`malloc(-1)`) cannot wrap one.
    fn rounded(region: &Region, size: u64) -> Option<u64> {
        let want = size.max(1).checked_next_multiple_of(ALIGN)?;
        let room = region.end() - region.base();
        (want <= room.saturating_sub(HEADER_SIZE)).then_some(want)
    }

    /// Allocates `size` payload bytes, returning the payload address.
    ///
    /// The payload is *not* zeroed when recycled from the free list —
    /// uninitialised heap memory retains stale bytes, as with real
    /// `malloc`. (Fresh memory from the bump pointer is zero because the
    /// region starts zeroed; that also matches common OS behaviour.)
    pub fn malloc(&mut self, region: &mut Region, size: u64) -> Result<u64, HeapError> {
        let want = Self::rounded(region, size).ok_or(HeapError::OutOfMemory)?;

        // First fit over the free list.
        let mut prev: u64 = 0;
        let mut cur = self.free_head;
        while cur != 0 {
            let header = cur - HEADER_SIZE;
            let magic = region
                .read(header, AccessSize::B8)
                .ok_or(HeapError::CorruptHeader {
                    addr: cur,
                    found: 0,
                })?;
            if magic != MAGIC_FREE {
                // Guest writes trampled a free block header (or the free
                // list pointer led somewhere wild).
                return Err(HeapError::CorruptHeader {
                    addr: cur,
                    found: magic,
                });
            }
            let bsize = region.read(header + 8, AccessSize::B8).unwrap_or(0);
            let next = region.read(cur, AccessSize::B8).unwrap_or(0);
            if !(next == 0 || region.contains(next, 1)) {
                // The intrusive next pointer was overwritten with a value
                // that cannot be a heap payload.
                return Err(HeapError::CorruptHeader {
                    addr: cur,
                    found: next,
                });
            }
            if bsize >= want {
                // Unlink.
                if prev == 0 {
                    self.free_head = next;
                } else {
                    region.write(prev, AccessSize::B8, next);
                }
                // Split when the remainder can hold a header plus a
                // minimal payload; the remainder becomes a new free block
                // immediately after the handed-out payload — which is what
                // puts allocator metadata directly in the path of heap
                // buffer overflows, as with a real dlmalloc-style heap.
                let handed = if bsize >= want + HEADER_SIZE + ALIGN {
                    let rem_header = cur + want;
                    let rem_payload = rem_header + HEADER_SIZE;
                    let rem_size = bsize - want - HEADER_SIZE;
                    region.write(rem_header, AccessSize::B8, MAGIC_FREE);
                    region.write(rem_header + 8, AccessSize::B8, rem_size);
                    region.write(rem_payload, AccessSize::B8, self.free_head);
                    self.free_head = rem_payload;
                    region.write(header + 8, AccessSize::B8, want);
                    want
                } else {
                    bsize
                };
                region.write(header, AccessSize::B8, MAGIC_ALLOCATED);
                self.live += 1;
                self.live_bytes += handed;
                return Ok(cur);
            }
            prev = cur;
            cur = next;
        }

        // Bump allocation.
        let header = self.brk;
        let payload = header + HEADER_SIZE;
        if !region.contains(header, HEADER_SIZE + want) {
            return Err(HeapError::OutOfMemory);
        }
        self.brk = payload + want;
        region.write(header, AccessSize::B8, MAGIC_ALLOCATED);
        region.write(header + 8, AccessSize::B8, want);
        self.live += 1;
        self.live_bytes += want;
        Ok(payload)
    }

    /// Frees the allocation at payload address `addr`, returning its stored
    /// capacity on success.
    pub fn free(&mut self, region: &mut Region, addr: u64) -> Result<u64, HeapError> {
        if addr < region.base() + HEADER_SIZE || !region.contains(addr, 1) {
            return Err(HeapError::InvalidFree { addr });
        }
        let header = addr - HEADER_SIZE;
        let magic = region.read(header, AccessSize::B8).unwrap_or(0);
        match magic {
            MAGIC_ALLOCATED => {}
            MAGIC_FREE => return Err(HeapError::DoubleFree { addr }),
            found => return Err(HeapError::CorruptHeader { addr, found }),
        }
        let size = region.read(header + 8, AccessSize::B8).unwrap_or(0);
        if size == 0 || !region.contains(addr, size) {
            // Size word trampled: treat as corruption.
            return Err(HeapError::CorruptHeader { addr, found: size });
        }
        // Validate the physically adjacent block's header, as glibc's
        // consolidation path does — this is how real allocators detect the
        // classic heap-buffer-overflow pattern at `free` time. Every block
        // below the bump pointer is followed by another header.
        let block_end = addr + size;
        if block_end < self.brk {
            match region.read(block_end, AccessSize::B8) {
                Some(MAGIC_ALLOCATED) | Some(MAGIC_FREE) => {}
                other => {
                    return Err(HeapError::CorruptHeader {
                        addr: block_end + HEADER_SIZE,
                        found: other.unwrap_or(0),
                    });
                }
            }
        }
        region.write(header, AccessSize::B8, MAGIC_FREE);
        region.write(addr, AccessSize::B8, self.free_head);
        self.free_head = addr;
        self.live -= 1;
        self.live_bytes -= size;
        Ok(size)
    }

    /// Stored payload capacity of the live allocation at `addr`.
    pub fn block_size(&self, region: &Region, addr: u64) -> Result<u64, HeapError> {
        if addr < region.base() + HEADER_SIZE {
            return Err(HeapError::InvalidFree { addr });
        }
        let header = addr - HEADER_SIZE;
        match region.read(header, AccessSize::B8) {
            Some(MAGIC_ALLOCATED) => Ok(region.read(header + 8, AccessSize::B8).unwrap_or(0)),
            Some(found) => Err(HeapError::CorruptHeader { addr, found }),
            None => Err(HeapError::InvalidFree { addr }),
        }
    }

    /// Number of live allocations.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Live payload bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark of the bump pointer.
    pub fn brk(&self) -> u64 {
        self.brk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::RegionKind;

    fn heap() -> (HeapAllocator, Region) {
        let region = Region::new(RegionKind::Heap, 0x1000, 64 * 1024);
        let alloc = HeapAllocator::new(&region);
        (alloc, region)
    }

    #[test]
    fn malloc_returns_aligned_disjoint_blocks() {
        let (mut a, mut r) = heap();
        let p1 = a.malloc(&mut r, 10).unwrap();
        let p2 = a.malloc(&mut r, 10).unwrap();
        assert_eq!(p1 % ALIGN, 0);
        assert_eq!(p2 % ALIGN, 0);
        assert!(p2 >= p1 + 16, "payloads must not overlap");
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn free_then_malloc_reuses_block() {
        let (mut a, mut r) = heap();
        let p1 = a.malloc(&mut r, 32).unwrap();
        a.free(&mut r, p1).unwrap();
        let p2 = a.malloc(&mut r, 32).unwrap();
        assert_eq!(p1, p2, "first fit must recycle the freed block");
    }

    #[test]
    fn free_list_is_lifo_and_skips_small_blocks() {
        let (mut a, mut r) = heap();
        let small = a.malloc(&mut r, 16).unwrap();
        let big = a.malloc(&mut r, 256).unwrap();
        a.free(&mut r, small).unwrap();
        a.free(&mut r, big).unwrap();
        // Request bigger than `small`: must skip it and take `big`.
        let p = a.malloc(&mut r, 100).unwrap();
        assert_eq!(p, big);
        // The split remainder of `big` heads the free list now.
        let q = a.malloc(&mut r, 8).unwrap();
        assert_eq!(q, big + 112 + HEADER_SIZE, "remainder payload expected");
        // `small` is still reachable once the remainders are consumed: a
        // request too big for every remainder but fitting `small`... is
        // impossible (16 is the minimum), so exhaust the list instead and
        // verify `small` gets reused eventually.
        let mut seen_small = false;
        for _ in 0..8 {
            if a.malloc(&mut r, 16).unwrap() == small {
                seen_small = true;
                break;
            }
        }
        assert!(seen_small, "small block must be reused by first fit");
    }

    #[test]
    fn splitting_creates_adjacent_free_block() {
        let (mut a, mut r) = heap();
        let big = a.malloc(&mut r, 512).unwrap();
        a.free(&mut r, big).unwrap();
        // Take a 96-byte slice out of the 512 block.
        let p = a.malloc(&mut r, 96).unwrap();
        assert_eq!(p, big);
        // The remainder's header sits immediately after the payload: an
        // overflow past `p` tramples it, and the corruption is caught on
        // the next free-list walk.
        r.write(p + 96, AccessSize::B8, 0x4141_4141_4141_4141);
        assert!(matches!(
            a.malloc(&mut r, 200),
            Err(HeapError::CorruptHeader { .. })
        ));
    }

    #[test]
    fn double_free_detected() {
        let (mut a, mut r) = heap();
        let p = a.malloc(&mut r, 8).unwrap();
        a.free(&mut r, p).unwrap();
        assert_eq!(a.free(&mut r, p), Err(HeapError::DoubleFree { addr: p }));
    }

    #[test]
    fn invalid_free_detected() {
        let (mut a, mut r) = heap();
        assert!(matches!(
            a.free(&mut r, 0x20),
            Err(HeapError::InvalidFree { .. })
        ));
        assert!(matches!(
            a.free(&mut r, 0x1000 + 24),
            Err(HeapError::CorruptHeader { .. }) | Err(HeapError::InvalidFree { .. })
        ));
    }

    #[test]
    fn overflow_corrupting_next_header_is_detected_on_free() {
        let (mut a, mut r) = heap();
        let p1 = a.malloc(&mut r, 16).unwrap();
        let p2 = a.malloc(&mut r, 16).unwrap();
        // Simulate a Standard-mode overflow: write past p1 into p2's header.
        let next_header = p2 - HEADER_SIZE;
        r.write(next_header, AccessSize::B8, 0x4141_4141_4141_4141);
        // Freeing the victim itself is caught by the magic check...
        assert!(matches!(
            a.free(&mut r, p2),
            Err(HeapError::CorruptHeader { .. })
        ));
        // ...and freeing the overflowing neighbour is caught by the
        // adjacent-header (consolidation) check.
        assert!(matches!(
            a.free(&mut r, p1),
            Err(HeapError::CorruptHeader { .. })
        ));
    }

    #[test]
    fn overflow_corrupting_free_list_is_detected_on_malloc() {
        let (mut a, mut r) = heap();
        let p1 = a.malloc(&mut r, 16).unwrap();
        let _p2 = a.malloc(&mut r, 16).unwrap();
        a.free(&mut r, p1).unwrap();
        // Trample the freed block's magic word.
        r.write(p1 - HEADER_SIZE, AccessSize::B8, 0xBAD0_BAD0);
        assert!(matches!(
            a.malloc(&mut r, 16),
            Err(HeapError::CorruptHeader { .. })
        ));
    }

    #[test]
    fn overflow_into_neighbour_detected_at_free_time() {
        let (mut a, mut r) = heap();
        let p1 = a.malloc(&mut r, 16).unwrap();
        let _p2 = a.malloc(&mut r, 16).unwrap();
        // Overflow p1 into p2's header (the glibc-abort scenario).
        r.write(p1 + 16, AccessSize::B8, 0x6161_6161_6161_6161);
        assert!(matches!(
            a.free(&mut r, p1),
            Err(HeapError::CorruptHeader { .. })
        ));
    }

    #[test]
    fn out_of_memory_is_reported() {
        let region = Region::new(RegionKind::Heap, 0x1000, 256);
        let mut a = HeapAllocator::new(&region);
        let mut r = region;
        let mut got = Vec::new();
        loop {
            match a.malloc(&mut r, 64) {
                Ok(p) => got.push(p),
                Err(HeapError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(!got.is_empty());
        // Freeing everything makes allocation succeed again.
        for p in got {
            a.free(&mut r, p).unwrap();
        }
        assert!(a.malloc(&mut r, 64).is_ok());
    }

    #[test]
    fn sizes_no_heap_could_hold_change_nothing() {
        for reuse in [false, true] {
            let (mut a, mut r) = heap();
            let keep = a.malloc(&mut r, 48).unwrap();
            let q = a.malloc(&mut r, 48).unwrap();
            if reuse {
                a.free(&mut r, q).unwrap();
            }
            let state = |a: &HeapAllocator| (a.free_head, a.brk, a.live, a.live_bytes);
            let before = state(&a);
            // Within a granule, a header and a heap base of `2^64`, the
            // sign bit, and one granule more than the region can hold.
            for size in [
                u64::MAX,
                u64::MAX - 14,
                u64::MAX - 15,
                u64::MAX - 16,
                u64::MAX - 31,
                u64::MAX - 0x1000 - 47,
                1 << 63,
                64 * 1024 - HEADER_SIZE + 1,
            ] {
                assert_eq!(
                    a.malloc(&mut r, size),
                    Err(HeapError::OutOfMemory),
                    "size {size:#x}"
                );
                assert_eq!(state(&a), before, "size {size:#x}");
            }
            // The freed block (or the bump pointer) still serves.
            let p = a.malloc(&mut r, 48).unwrap();
            assert_eq!(p == q, reuse);
            a.free(&mut r, p).unwrap();
            a.free(&mut r, keep).unwrap();
        }
    }

    #[test]
    fn zero_byte_allocations_get_unique_pointers() {
        let (mut a, mut r) = heap();
        let p1 = a.malloc(&mut r, 0).unwrap();
        let p2 = a.malloc(&mut r, 0).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn live_bytes_tracks_capacity() {
        let (mut a, mut r) = heap();
        let p = a.malloc(&mut r, 20).unwrap();
        assert_eq!(a.live_bytes(), 32); // rounded to granule
        a.free(&mut r, p).unwrap();
        assert_eq!(a.live_bytes(), 0);
    }
}
