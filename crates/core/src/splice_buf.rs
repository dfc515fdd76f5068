//! A contiguous double-ended splice buffer for the per-component
//! parallel arrays of a profile.
//!
//! `Vec::remove` shifts the whole tail, so evicting a long-resident
//! task — by far the most common delta in a churn loop, where the
//! oldest admissions leave first — costs O(set) memmoves across every
//! parallel array (exact components, scaled components, contributions,
//! splice keys). [`SpliceBuf`] keeps the same elements in a
//! [`VecDeque`] and re-establishes contiguity after every mutation, so
//!
//! * removals and insertions shift only the shorter side
//!   (`O(min(i, n − i))` — a front eviction is O(1)), and
//! * every read still sees one plain `&[T]` slice, which is what the
//!   walk kernels, the narrow-headroom folds, and the differential
//!   tests consume.
//!
//! Contiguity is an invariant, not a per-read fixup: mutating methods
//! call [`VecDeque::make_contiguous`] when an operation wrapped the
//! ring. A wrap needs the tail to reach the buffer's capacity edge,
//! which after a doubling growth policy happens at most once per O(n)
//! front-biased removals, so the rotation amortizes to O(1) per
//! mutation — the sequence of elements (and therefore every query
//! result downstream) is identical to the `Vec` it replaces.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

/// Where an element inserted before pre-edit index `pre` lands once the
/// elements at `removed` (pre-edit, strictly ascending) are gone and
/// `landed` earlier inserts (ascending by pre-edit index, ties in
/// order) are in: inserting in that order at these indices reproduces
/// the final sequence, because every element before an insert point is
/// already in its final place when the insert lands.
pub(crate) fn post_edit_index(removed: &[usize], pre: usize, landed: usize) -> usize {
    pre - removed.partition_point(|&r| r < pre) + landed
}

/// A `Vec`-observable sequence with two-sided splice costs. See the
/// module docs for the contiguity invariant.
#[derive(Debug, Clone)]
pub(crate) struct SpliceBuf<T> {
    buf: VecDeque<T>,
}

impl<T> Default for SpliceBuf<T> {
    fn default() -> SpliceBuf<T> {
        SpliceBuf::new()
    }
}

impl<T> SpliceBuf<T> {
    /// An empty buffer.
    pub(crate) fn new() -> SpliceBuf<T> {
        SpliceBuf {
            buf: VecDeque::new(),
        }
    }

    /// Restores the contiguity invariant after a mutation. Reserving
    /// linear slack first keeps the next wrap Ω(len) mutations away, so
    /// the rotation really amortizes to O(1) — without it a buffer at
    /// exact capacity (e.g. one built `From<Vec>`) would wrap on every
    /// front-removal/append round and rotate the whole ring each time.
    fn fixup(&mut self) {
        if !self.buf.as_slices().1.is_empty() {
            self.buf.reserve(self.buf.len() + 1);
            self.buf.make_contiguous();
        }
    }

    /// Inserts `value` at `index` (`len` appends), shifting the shorter
    /// side.
    pub(crate) fn insert(&mut self, index: usize, value: T) {
        self.buf.insert(index, value);
        self.fixup();
    }

    /// Removes and returns the element at `index`, shifting the shorter
    /// side.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub(crate) fn remove(&mut self, index: usize) -> T {
        let removed = self
            .buf
            .remove(index)
            .expect("SpliceBuf::remove index in bounds");
        self.fixup();
        removed
    }

    /// Removes the elements at `indices` (strictly ascending) in one
    /// order-preserving compaction pass over the *shorter* side: only
    /// the elements between the nearest buffer end and the farthest
    /// removed index move — each survivor once, as part of a block
    /// rotation — so evicting front-resident elements, the churn loop's
    /// common case, stays O(indices), not O(len).
    pub(crate) fn remove_sorted(&mut self, indices: &[usize]) {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        let (&first, &last) = match (indices.first(), indices.last()) {
            (Some(first), Some(last)) => (first, last),
            _ => return,
        };
        let len = self.buf.len();
        assert!(last < len, "SpliceBuf::remove_sorted index in bounds");
        let slice: &mut [T] = self;
        if last < len - first {
            // Gather the removed elements at the front, right to left:
            // each window is the survivors below a hole followed by the
            // `j + 1` removed elements gathered so far.
            for (j, &hole) in indices.iter().rev().enumerate() {
                let begin = indices[..indices.len() - 1 - j]
                    .last()
                    .map_or(0, |&h| h + 1);
                slice[begin..=hole + j].rotate_right(j + 1);
            }
            for _ in indices {
                self.buf.pop_front();
            }
        } else {
            // Gather the removed elements at the back, left to right.
            for (j, &hole) in indices.iter().enumerate() {
                let end = indices.get(j + 1).copied().unwrap_or(len);
                slice[hole - j..end].rotate_left(j + 1);
            }
            for _ in indices {
                self.buf.pop_back();
            }
        }
        self.fixup();
    }

    /// The elements as one contiguous slice.
    pub(crate) fn as_slice(&self) -> &[T] {
        let (head, tail) = self.buf.as_slices();
        debug_assert!(tail.is_empty(), "SpliceBuf contiguity invariant broken");
        head
    }

    /// The elements, moved into a plain `Vec`.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.buf.into()
    }
}

impl<T> Deref for SpliceBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for SpliceBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        let (head, tail) = self.buf.as_mut_slices();
        debug_assert!(tail.is_empty(), "SpliceBuf contiguity invariant broken");
        head
    }
}

impl<T> From<Vec<T>> for SpliceBuf<T> {
    fn from(values: Vec<T>) -> SpliceBuf<T> {
        SpliceBuf { buf: values.into() }
    }
}

impl<T: PartialEq> PartialEq for SpliceBuf<T> {
    fn eq(&self, other: &SpliceBuf<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for SpliceBuf<T> {}

impl<T> FromIterator<T> for SpliceBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SpliceBuf<T> {
        SpliceBuf {
            buf: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_vec_under_mixed_splices() {
        let mut buf: SpliceBuf<u32> = SpliceBuf::new();
        let mut vec: Vec<u32> = Vec::new();
        let mut x = 1u32;
        for round in 0..2000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let pick = x % 4;
            match pick {
                0 => {
                    buf.insert(buf.len(), x);
                    vec.push(x);
                }
                1 if !vec.is_empty() => {
                    let i = (x as usize / 7) % vec.len();
                    assert_eq!(buf.remove(i), vec.remove(i));
                }
                2 => {
                    let i = (x as usize / 7) % (vec.len() + 1);
                    buf.insert(i, x);
                    vec.insert(i, x);
                }
                _ if !vec.is_empty() => {
                    let i = (x as usize / 7) % vec.len();
                    buf[i] = x;
                    vec[i] = x;
                }
                _ => {}
            }
            assert_eq!(buf.as_slice(), vec.as_slice(), "diverged at round {round}");
        }
    }

    #[test]
    fn remove_sorted_matches_sequential_removes() {
        // Front-heavy, back-heavy, single and adjacent holes: both
        // compaction sides.
        for indices in [
            &[0usize, 3, 4, 17, 49][..],
            &[1, 2, 3],
            &[45, 46, 49],
            &[7],
            &[42],
            &[0, 49],
        ] {
            let mut buf: SpliceBuf<u32> = (0..50).collect();
            let mut vec: Vec<u32> = (0..50).collect();
            buf.remove_sorted(indices);
            for &i in indices.iter().rev() {
                vec.remove(i);
            }
            assert_eq!(buf.as_slice(), vec.as_slice(), "{indices:?}");
        }
    }

    #[test]
    fn front_churn_stays_contiguous() {
        let mut buf: SpliceBuf<u32> = (0..64).collect();
        for i in 64..10_000 {
            buf.remove(0);
            buf.insert(buf.len(), i);
            assert_eq!(buf.as_slice().len(), 64);
            assert_eq!(*buf.as_slice().last().expect("nonempty"), i);
        }
    }
}
