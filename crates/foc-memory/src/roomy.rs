//! A `Vec` whose clone keeps its spare capacity.
//!
//! `Vec::clone` allocates exactly `len`, so a process restored from a
//! checkpoint met a full vector wherever the checkpointed one had grown
//! headroom — the object table, the unit slab, the frame stacks — and
//! its first guest call reallocated every one of them. Under
//! `apache_flood`, where every attack ends in a restore, that was one
//! sample in twenty. The fields that grow on a guest call are
//! [`RoomyVec`]s instead; everything else about them is `Vec`'s, through
//! `Deref`, and the structs holding them keep their derived `Clone`.

use std::ops::{Deref, DerefMut};

/// A `Vec<T>` whose `clone` has the source's capacity.
#[derive(Debug)]
pub struct RoomyVec<T>(Vec<T>);

impl<T> RoomyVec<T> {
    /// An empty vector with room for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> RoomyVec<T> {
        RoomyVec(Vec::with_capacity(capacity))
    }
}

impl<T> Default for RoomyVec<T> {
    fn default() -> RoomyVec<T> {
        RoomyVec(Vec::new())
    }
}

impl<T: Clone> Clone for RoomyVec<T> {
    fn clone(&self) -> RoomyVec<T> {
        let mut copy = Vec::with_capacity(self.0.capacity());
        copy.extend_from_slice(&self.0);
        RoomyVec(copy)
    }
}

impl<T> Deref for RoomyVec<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> DerefMut for RoomyVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_keeps_the_contents_and_the_headroom() {
        let mut v = RoomyVec::with_capacity(32);
        v.extend_from_slice(&[1u32, 2, 3]);
        let copy = v.clone();
        assert_eq!(copy[..], [1, 2, 3]);
        assert!(copy.capacity() >= 32, "{}", copy.capacity());
        assert!(RoomyVec::<u32>::default().clone().capacity() == 0);
    }
}
