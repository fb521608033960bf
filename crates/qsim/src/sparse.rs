//! Sorted sparse bit sets over `u32` indices.
//!
//! Error symptoms and detector sensitivity regions are small sets (almost
//! always ≤ 8 elements), so a sorted `Vec<u32>` with merge-based symmetric
//! difference beats any hash- or word-packed representation.

use std::fmt;

/// A set of `u32` indices stored as a sorted, duplicate-free vector.
///
/// The primary operation is [`SparseBits::xor_in_place`] (symmetric
/// difference), matching the GF(2) linear structure of Pauli error
/// propagation: the symptom of a composite error is the XOR of the
/// symptoms of its parts.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SparseBits(Vec<u32>);

impl SparseBits {
    /// Creates an empty set.
    pub fn new() -> Self {
        SparseBits(Vec::new())
    }

    /// Creates a set containing a single index.
    pub fn singleton(index: u32) -> Self {
        SparseBits(vec![index])
    }

    /// Creates a set from a vector that is already sorted and
    /// duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `items` is not strictly increasing.
    pub fn from_sorted(items: Vec<u32>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
        SparseBits(items)
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `index` is a member.
    pub fn contains(&self, index: u32) -> bool {
        self.0.binary_search(&index).is_ok()
    }

    /// Iterates over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().copied()
    }

    /// The members as a sorted slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Consumes the set, returning the sorted member vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.0
    }

    /// Toggles membership of a single index.
    pub fn toggle(&mut self, index: u32) {
        match self.0.binary_search(&index) {
            Ok(pos) => {
                self.0.remove(pos);
            }
            Err(pos) => {
                self.0.insert(pos, index);
            }
        }
    }

    /// Replaces `self` with the symmetric difference `self ⊕ other`.
    pub fn xor_in_place(&mut self, other: &SparseBits) {
        if other.0.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.0.len() + other.0.len());
        xor_sorted(&self.0, &other.0, &mut out);
        self.0 = out;
    }
}

/// Writes the symmetric difference of the sorted sets `a` and `b` to
/// `out`, reusing its capacity.
pub(crate) fn xor_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl FromIterator<u32> for SparseBits {
    /// Collects indices with XOR semantics: an index appearing an even
    /// number of times cancels out.
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = SparseBits::new();
        for i in iter {
            s.toggle(i);
        }
        s
    }
}

impl fmt::Debug for SparseBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseBits{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor(mut a: SparseBits, b: &SparseBits) -> SparseBits {
        a.xor_in_place(b);
        a
    }

    #[test]
    fn empty_set_basics() {
        let s = SparseBits::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(3));
        assert_eq!(format!("{s:?}"), "SparseBits[]");
    }

    #[test]
    fn toggle_inserts_and_removes() {
        let mut s = SparseBits::new();
        s.toggle(5);
        s.toggle(1);
        s.toggle(9);
        assert_eq!(s.as_slice(), &[1, 5, 9]);
        s.toggle(5);
        assert_eq!(s.as_slice(), &[1, 9]);
    }

    #[test]
    fn xor_cancels_common_elements() {
        let a = SparseBits::from_sorted(vec![1, 2, 3]);
        let b = SparseBits::from_sorted(vec![2, 3, 4]);
        let c = xor(a, &b);
        assert_eq!(c.as_slice(), &[1, 4]);
    }

    #[test]
    fn xor_with_empty_is_identity() {
        let a = SparseBits::from_sorted(vec![7, 8]);
        let mut b = a.clone();
        b.xor_in_place(&SparseBits::new());
        assert_eq!(a, b);
        let mut e = SparseBits::new();
        e.xor_in_place(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn from_iter_uses_xor_semantics() {
        let s: SparseBits = [3u32, 1, 3, 2, 1, 1].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2]);
    }

    #[test]
    fn xor_is_associative_and_commutative() {
        let a = SparseBits::from_sorted(vec![0, 2, 4]);
        let b = SparseBits::from_sorted(vec![1, 2, 5]);
        let c = SparseBits::from_sorted(vec![0, 5, 9]);
        let ab_c = xor(xor(a.clone(), &b), &c);
        let a_bc = xor(a.clone(), &xor(b.clone(), &c));
        assert_eq!(ab_c, a_bc);
        let ba = xor(b, &a);
        let ab = xor(a, &SparseBits::from_sorted(vec![1, 2, 5]));
        assert_eq!(ab, ba);
    }

    #[test]
    fn self_xor_is_empty() {
        let a = SparseBits::from_sorted(vec![1, 4, 6]);
        let z = xor(a.clone(), &a);
        assert!(z.is_empty());
    }
}
