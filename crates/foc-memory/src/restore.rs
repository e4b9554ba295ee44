//! In-place restore: a dead process overwritten with its checkpoint.
//!
//! A supervised restart once cloned the frozen boot and dropped the dead
//! process, so every buffer of the process was allocated afresh and
//! every buffer of the dead one freed: fifteen of each for the Bounds
//! Check Apache worker `apache_flood` restarts on every attack. Each
//! struct on the restart path now has one hand-written
//! `restore_from(&mut self, src: &Self)` that copies `src` into the
//! allocations `self` already holds, so a restart copies the booted
//! bytes into cache-warm buffers and allocates nothing.
//!
//! The derived `Clone` stays: first boots and the checkpoint itself use
//! it, and it is the oracle every restore is tested against
//! (`checkpoint_equiv`'s `a_restart_in_place_equals_a_fresh_clone`). A
//! hand-written copy that missed a field would hand a dead process's
//! state to its successor, so every restore destructures its struct
//! exhaustively, with no `..`: a field added later fails to build until
//! it gets a restore line.
//!
//! The helpers here are the buffer half of that rule. A dead process
//! may have run away — a looping guest can intern out-of-bounds
//! descriptors by the million — and a clone used to free such growth on
//! restart. So after its copy each reused buffer gives back what it
//! holds beyond [`keep`]: twice its source's capacity, or a page,
//! whichever is more. That is a no-op unless the dead process ran away;
//! the page is there so that a buffer the checkpoint never used (an
//! empty error log) is not freed on one restart to be allocated again on
//! the next death.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Bytes any reused buffer may keep whatever its source's capacity.
pub(crate) const KEEP_FLOOR: usize = 4 << 10;

/// Elements of `T` a reused buffer keeps after its copy: twice its
/// source's capacity, or a page of them, whichever is more.
pub fn keep<T>(src_capacity: usize) -> usize {
    (2 * src_capacity).max(KEEP_FLOOR / size_of::<T>().max(1))
}

/// Overwrites `dst` with `src` in `dst`'s allocation, then gives back
/// what a runaway grew.
pub fn vec<T: Clone>(dst: &mut Vec<T>, src: &Vec<T>) {
    dst.clone_from(src);
    dst.shrink_to(keep::<T>(src.capacity()));
}

/// [`vec()`] for elements that own buffers of their own: each reused
/// element is overwritten by `restore`, the rest cloned.
pub fn each<T: Clone>(dst: &mut Vec<T>, src: &Vec<T>, restore: impl Fn(&mut T, &T)) {
    dst.truncate(src.len());
    let reused = dst.len();
    for (d, s) in dst.iter_mut().zip(src) {
        restore(d, s);
    }
    dst.extend_from_slice(&src[reused..]);
    dst.shrink_to(keep::<T>(src.capacity()));
}

/// [`each`] for lists indexed by a slot, where an empty list is room: a
/// list past the source's is kept, emptied, up to [`keep`]'s bound on
/// the lists and on each list's room, so the next process's first entry
/// on that slot does not allocate the list the last process's freed.
pub fn lists<T: Clone>(dst: &mut Vec<Vec<T>>, src: &Vec<Vec<T>>) {
    dst.truncate(keep::<Vec<T>>(src.capacity()));
    for (i, list) in dst.iter_mut().enumerate() {
        match src.get(i) {
            Some(from) => vec(list, from),
            None => {
                list.clear();
                list.shrink_to(keep::<T>(0));
            }
        }
    }
    let reused = dst.len().min(src.len());
    dst.extend_from_slice(&src[reused..]);
    dst.shrink_to(keep::<Vec<T>>(src.capacity()));
}

/// [`vec()`] for a `String`.
pub fn text(dst: &mut String, src: &String) {
    dst.clone_from(src);
    dst.shrink_to(keep::<u8>(src.capacity()));
}

/// [`vec()`] for a `VecDeque`.
pub fn deque<T: Clone>(dst: &mut VecDeque<T>, src: &VecDeque<T>) {
    dst.clone_from(src);
    dst.shrink_to(keep::<T>(src.capacity()));
}

/// [`vec()`] for a `HashMap`. `clone_from` reuses the table only when the
/// two have as many buckets, and frees it otherwise — so does a map
/// the dead process grew, or a checkpoint's map that never allocated —
/// so a map of another size is cleared and refilled instead.
pub fn map<K: Clone + Eq + Hash, V: Clone>(dst: &mut HashMap<K, V>, src: &HashMap<K, V>) {
    if dst.capacity() == src.capacity() {
        dst.clone_from(src);
    } else {
        dst.clear();
        dst.extend(src.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
    dst.shrink_to(keep::<(K, V)>(src.capacity()));
}

/// Bytes a vector's allocation holds (the runaway tests).
#[cfg(test)]
pub(crate) fn held<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes of entries a map has room for (the runaway tests).
#[cfg(test)]
pub(crate) fn held_map<K, V>(m: &HashMap<K, V>) -> usize {
    m.capacity() * size_of::<(K, V)>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_restored_buffer_keeps_its_allocation_and_gives_back_a_runaway() {
        let src: Vec<u64> = (0..600).collect();
        let mut dst: Vec<u64> = (0..900).rev().collect();
        let at = dst.as_ptr();
        vec(&mut dst, &src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_ptr(), at, "a restore reuses the allocation");

        let mut runaway: Vec<u64> = (0..100_000).collect();
        vec(&mut runaway, &src);
        assert_eq!(runaway, src);
        assert!(runaway.capacity() <= 2 * src.capacity());

        // A checkpoint that never used a buffer does not free the dead
        // process's.
        let mut used = vec![7u64; 4];
        vec(&mut used, &Vec::new());
        assert!(used.is_empty() && used.capacity() >= 4);
    }

    #[test]
    fn a_restored_map_equals_its_source_whatever_its_size() {
        let src: HashMap<u64, u8> = (0..50).map(|k| (k, k as u8)).collect();
        for n in [0, 50, 5_000] {
            let mut dst: HashMap<u64, u8> = (1_000..1_000 + n).map(|k| (k, 1)).collect();
            map(&mut dst, &src);
            assert_eq!(dst, src);
            // A map's room rounds up to a power of two buckets.
            assert!(dst.capacity() < 2 * keep::<(u64, u8)>(src.capacity()));
        }
        let mut same = src.clone();
        same.insert(7, 99);
        map(&mut same, &src);
        assert_eq!(same, src);
    }

    #[test]
    fn restored_lists_keep_the_surplus_emptied() {
        let src = vec![vec![1u32; 3]];
        let mut dst = vec![vec![9u32; 10_000], vec![8; 2], vec![]];
        let kept = dst[1].as_ptr();
        lists(&mut dst, &src);
        assert_eq!(dst, [vec![1; 3], vec![], vec![]]);
        assert!(dst[0].capacity() <= keep::<u32>(3));
        assert_eq!(dst[1].as_ptr(), kept, "a surplus list keeps its allocation");
        // Past keep's bound, the surplus goes.
        let mut runaway = vec![vec![1u32]; 10_000];
        lists(&mut runaway, &src);
        assert_eq!(runaway.len(), keep::<Vec<u32>>(src.capacity()));
        let mut short = Vec::new();
        lists(&mut short, &src);
        assert_eq!(short, src);
    }

    #[test]
    fn each_restores_nested_buffers_in_place() {
        let src = vec![vec![1u8; 3], vec![2; 5]];
        let mut dst = vec![vec![9u8; 10_000], vec![8; 1], vec![7; 4]];
        each(&mut dst, &src, vec);
        assert_eq!(dst, src);
        assert!(dst[0].capacity() <= keep::<u8>(3));
    }
}
