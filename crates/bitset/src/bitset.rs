//! The core fixed-capacity bitset type.

use crate::{words_for, Ones, WORD_BITS};
use std::fmt;

/// A dense, fixed-capacity set of bits backed by `u64` words.
///
/// The capacity (`len`) is fixed at construction; indexes must be
/// `< len()`. Binary operations (`union_with`, [`BitSet::and_not_count`], …)
/// require both operands to have the same capacity and panic otherwise —
/// mismatched capacities in the DMC tail phase would be a logic bug, not a
/// recoverable condition.
///
/// Unused high bits of the last word are kept zero as an internal invariant,
/// so equality and popcount never need masking.
///
/// # Examples
///
/// ```
/// use dmc_bitset::BitSet;
///
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(64);
/// let mut b = BitSet::new(100);
/// b.insert(64);
///
/// // Misses of `a` against `b`: bits set in `a` but not in `b`.
/// assert_eq!(a.and_not_count(&b), 1);
/// assert_eq!(a.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Box<[u64]>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset able to hold `len` bits, all zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; words_for(len)].into_boxed_slice(),
            len,
        }
    }

    /// Creates a bitset of capacity `len` with the given bits set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    #[must_use]
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut set = Self::new(len);
        for idx in indices {
            set.insert(idx);
        }
        set
    }

    /// Number of bits this set can hold.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the capacity is zero bits.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when no bit is set.
    #[inline]
    #[must_use]
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    fn check(&self, bit: usize) {
        assert!(
            bit < self.len,
            "bit index {bit} out of range for BitSet of len {}",
            self.len
        );
    }

    /// Sets `bit` to 1. Returns `true` if the bit was previously 0.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len()`.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        self.check(bit);
        let word = &mut self.words[bit / WORD_BITS];
        let mask = 1u64 << (bit % WORD_BITS);
        let was_clear = *word & mask == 0;
        *word |= mask;
        was_clear
    }

    /// Sets `bit` to 0. Returns `true` if the bit was previously 1.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len()`.
    #[inline]
    pub fn remove(&mut self, bit: usize) -> bool {
        self.check(bit);
        let word = &mut self.words[bit / WORD_BITS];
        let mask = 1u64 << (bit % WORD_BITS);
        let was_set = *word & mask != 0;
        *word &= !mask;
        was_set
    }

    /// Returns the value of `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len()`.
    #[inline]
    #[must_use]
    pub fn contains(&self, bit: usize) -> bool {
        self.check(bit);
        self.words[bit / WORD_BITS] & (1u64 << (bit % WORD_BITS)) != 0
    }

    /// Clears every bit, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[inline]
    fn check_same_len(&self, other: &Self) {
        assert_eq!(
            self.len, other.len,
            "BitSet capacity mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// `popcount(self & !other)` — the number of bits set in `self` but not
    /// in `other`.
    ///
    /// This is the miss count of Phase 1 of Algorithm 4.1: with `self` the
    /// tail bitmap of the rule's LHS column and `other` the RHS column's,
    /// it counts tail rows where the LHS is 1 and the RHS is 0.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    #[must_use]
    pub fn and_not_count(&self, other: &Self) -> usize {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// `popcount(self & other)` — the number of bits set in both.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    #[must_use]
    pub fn and_count(&self, other: &Self) -> usize {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `popcount(self | other)`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    #[must_use]
    pub fn or_count(&self, other: &Self) -> usize {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &Self) {
        self.check_same_len(other);
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection: `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &Self) {
        self.check_same_len(other);
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// In-place difference: `self &= !other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &Self) {
        self.check_same_len(other);
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// `true` when `self` and `other` share no set bit.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(&a, &b)| a & b == 0)
    }

    /// `true` when every set bit of `self` is set in `other`.
    ///
    /// A subset check is a zero-miss check: `c_j ⇒ c_k` holds at 100%
    /// confidence over the tail iff `bm(c_j).is_subset(bm(c_k))`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Iterates over the indices of set bits in ascending order.
    #[must_use]
    pub fn ones(&self) -> Ones<'_> {
        Ones::new(&self.words)
    }

    /// Index of the lowest set bit, or `None` when no bit is set.
    ///
    /// Word-batched: scans whole `u64` words and finishes with a single
    /// `trailing_zeros`, so it is O(words) rather than O(bits).
    #[inline]
    #[must_use]
    pub fn first_one(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i * WORD_BITS + self.words[i].trailing_zeros() as usize)
    }

    /// Raw storage words (low bit of word 0 is bit 0).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes used by the storage.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.ones()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a bitset sized to hold the largest index.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |&m| m + 1);
        Self::from_indices(len, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear() {
        let set = BitSet::new(130);
        assert_eq!(set.len(), 130);
        assert!(set.is_clear());
        assert_eq!(set.count_ones(), 0);
        assert!(!set.contains(0));
        assert!(!set.contains(129));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut set = BitSet::new(200);
        assert!(set.insert(0));
        assert!(set.insert(63));
        assert!(set.insert(64));
        assert!(set.insert(199));
        assert!(!set.insert(63), "second insert reports already-set");
        assert_eq!(set.count_ones(), 4);
        assert!(set.remove(63));
        assert!(!set.remove(63), "second remove reports already-clear");
        assert_eq!(set.count_ones(), 3);
        assert!(set.contains(0) && set.contains(64) && set.contains(199));
        assert!(!set.contains(63));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(64).insert(64);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn binary_op_len_mismatch_panics() {
        let a = BitSet::new(64);
        let b = BitSet::new(65);
        let _ = a.and_not_count(&b);
    }

    #[test]
    fn and_not_count_is_miss_count() {
        let a = BitSet::from_indices(100, [1, 5, 64, 99]);
        let b = BitSet::from_indices(100, [5, 64]);
        // Bits in a but not in b: 1 and 99.
        assert_eq!(a.and_not_count(&b), 2);
        // Bits in b but not in a: none.
        assert_eq!(b.and_not_count(&a), 0);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn and_or_counts() {
        let a = BitSet::from_indices(70, [0, 1, 2, 68]);
        let b = BitSet::from_indices(70, [2, 3, 68, 69]);
        assert_eq!(a.and_count(&b), 2);
        assert_eq!(a.or_count(&b), 6);
        assert!(!a.is_disjoint(&b));
        let c = BitSet::from_indices(70, [10, 11]);
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn in_place_ops() {
        let mut a = BitSet::from_indices(80, [1, 2, 3]);
        let b = BitSet::from_indices(80, [3, 4]);
        a.union_with(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        a.intersect_with(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![3, 4]);
        a.difference_with(&BitSet::from_indices(80, [4]));
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn equality_ignores_nothing_because_high_bits_stay_zero() {
        let a = BitSet::from_indices(65, [64]);
        let mut b = BitSet::new(65);
        b.insert(64);
        assert_eq!(a, b);
        b.remove(64);
        assert_ne!(a, b);
        assert_eq!(b, BitSet::new(65));
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let set: BitSet = [3usize, 7, 2].into_iter().collect();
        assert_eq!(set.len(), 8);
        assert_eq!(set.ones().collect::<Vec<_>>(), vec![2, 3, 7]);
        let empty: BitSet = std::iter::empty::<usize>().collect();
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn first_one_finds_lowest_bit() {
        assert_eq!(BitSet::new(200).first_one(), None);
        assert_eq!(BitSet::from_indices(200, [199]).first_one(), Some(199));
        assert_eq!(BitSet::from_indices(200, [64, 65]).first_one(), Some(64));
        assert_eq!(BitSet::from_indices(200, [0, 150]).first_one(), Some(0));
        assert_eq!(BitSet::new(0).first_one(), None);
    }

    #[test]
    fn clear_resets_all() {
        let mut set = BitSet::from_indices(129, [0, 64, 128]);
        set.clear();
        assert!(set.is_clear());
        assert_eq!(set.len(), 129);
    }

    #[test]
    fn debug_format_lists_ones() {
        let set = BitSet::from_indices(10, [1, 4]);
        assert_eq!(format!("{set:?}"), "{1, 4}");
    }

    #[test]
    fn zero_capacity_set_is_usable() {
        let a = BitSet::new(0);
        let b = BitSet::new(0);
        assert!(a.is_empty() && a.is_clear());
        assert_eq!(a.and_not_count(&b), 0);
        assert!(a.is_subset(&b));
        assert_eq!(a.ones().count(), 0);
    }

    #[test]
    fn heap_bytes_tracks_words() {
        assert_eq!(BitSet::new(0).heap_bytes(), 0);
        assert_eq!(BitSet::new(1).heap_bytes(), 8);
        assert_eq!(BitSet::new(64).heap_bytes(), 8);
        assert_eq!(BitSet::new(65).heap_bytes(), 16);
    }
}
