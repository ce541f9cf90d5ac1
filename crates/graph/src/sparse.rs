//! Sparse feature vectors.
//!
//! Vertex representations are sparse PMI vectors over a large feature
//! space. They are stored as id-sorted `(u32, f32)` pairs so that dot
//! products are a single linear merge with no hashing in the inner loop.

#![warn(clippy::cast_possible_truncation)]

/// A sparse vector: strictly id-sorted `(feature id, value)` pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVec {
    entries: Vec<(u32, f32)>,
}

impl SparseVec {
    /// Build from unsorted `(id, value)` pairs; duplicate ids are summed
    /// and zero values dropped.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> SparseVec {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(u32, f32)> = Vec::with_capacity(pairs.len());
        for (id, v) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == id => last.1 += v,
                _ => entries.push((id, v)),
            }
        }
        entries.retain(|&(_, v)| v != 0.0);
        SparseVec { entries }
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| (v as f64) * (v as f64)).sum::<f64>().sqrt()
    }

    /// Scale all values in place.
    pub fn scale(&mut self, factor: f32) {
        for (_, v) in self.entries.iter_mut() {
            *v *= factor;
        }
    }

    /// Normalize to unit Euclidean norm (no-op on the zero vector).
    /// After normalization, [`SparseVec::dot`] *is* cosine similarity.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the entries are f32, so the scale factor is rounded to f32 like them"
            )]
            self.scale((1.0 / n) as f32);
        }
    }

    /// Dot product by sorted merge.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        let mut sum = 0.0f64;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 as f64 * b[j].1 as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Cosine similarity (0 when either vector is zero).
    pub fn cosine(&self, other: &SparseVec) -> f64 {
        let na = self.norm();
        let nb = other.norm();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        self.dot(other) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_merges_and_drops_zeros() {
        let v = SparseVec::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (7, 0.0)]);
        assert_eq!(v.entries(), &[(2, 2.0), (5, 4.0)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn dot_of_disjoint_is_zero() {
        let a = SparseVec::from_pairs(vec![(1, 1.0), (3, 2.0)]);
        let b = SparseVec::from_pairs(vec![(2, 5.0), (4, 5.0)]);
        assert_eq!(a.dot(&b), 0.0);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_identity_and_bounds() {
        let a = SparseVec::from_pairs(vec![(1, 3.0), (2, 4.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        let b = SparseVec::from_pairs(vec![(1, 4.0), (2, 3.0)]);
        let c = a.cosine(&b);
        assert!(c > 0.0 && c <= 1.0);
        assert!((c - 24.0 / 25.0).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        let z = SparseVec::default();
        let a = SparseVec::from_pairs(vec![(0, 1.0)]);
        assert_eq!(z.cosine(&a), 0.0);
        assert_eq!(z.norm(), 0.0);
        assert!(z.is_empty());
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut a = SparseVec::from_pairs(vec![(1, 3.0), (2, 4.0)]);
        a.normalize();
        assert!((a.norm() - 1.0).abs() < 1e-6);
        // dot of normalized vectors equals cosine
        let mut b = SparseVec::from_pairs(vec![(2, 1.0), (3, 1.0)]);
        let expected = a.cosine(&b);
        b.normalize();
        assert!((a.dot(&b) - expected).abs() < 1e-6);
    }
}
