//! Pointwise-mutual-information vertex representations.
//!
//! "A vertex is represented as a vector of pointwise mutual information
//! between the 3-gram associated with it and possible feature instances
//! such as surrounding words." Counts of `(vertex, feature instance)`
//! co-occurrences are gathered per vertex from the corpus scan, then
//! turned into positive-PMI vectors (negative PMI clipped to zero, the
//! standard sparsity-preserving choice) and unit-normalized so the k-NN
//! stage can use plain dot products as cosine similarity.
//!
//! The counts are dense: each vertex holds one run of `(feature, count)`
//! sorted by feature id, and the vertex and feature totals are vectors
//! indexed by id. Every count is an integer held in an `f64`, so the
//! totals are exact in any summation order.

use crate::sparse::SparseVec;
use rayon::prelude::*;

/// Vertex–feature co-occurrence counts.
#[derive(Clone, Debug, Default)]
pub struct VertexFeatureCounts {
    /// Per vertex: `(feature, count)` sorted by feature id.
    runs: Vec<Vec<(u32, f64)>>,
    vertex_total: Vec<f64>,
    feature_total: Vec<f64>,
    grand_total: f64,
}

impl VertexFeatureCounts {
    /// Count co-occurrences from per-vertex occurrence lists:
    /// `occurrences[v]` names a feature id once per co-occurrence of that
    /// feature with vertex `v`, in any order.
    pub fn from_occurrences(occurrences: Vec<Vec<u32>>) -> VertexFeatureCounts {
        let runs: Vec<Vec<(u32, f64)>> = occurrences
            .into_par_iter()
            .map(|mut features| {
                features.sort_unstable();
                let mut run: Vec<(u32, f64)> = Vec::new();
                for f in features {
                    match run.last_mut() {
                        Some((last, c)) if *last == f => *c += 1.0,
                        _ => run.push((f, 1.0)),
                    }
                }
                run
            })
            .collect();
        let mut vertex_total = Vec::with_capacity(runs.len());
        let mut feature_total: Vec<f64> = Vec::new();
        for run in &runs {
            let mut total = 0.0;
            for &(f, c) in run {
                let f = f as usize;
                if f >= feature_total.len() {
                    feature_total.resize(f + 1, 0.0);
                }
                feature_total[f] += c;
                total += c;
            }
            vertex_total.push(total);
        }
        let grand_total = vertex_total.iter().sum();
        VertexFeatureCounts { runs, vertex_total, feature_total, grand_total }
    }

    /// Total co-occurrence count.
    pub fn total(&self) -> f64 {
        self.grand_total
    }

    /// Raw PMI of one pair:
    /// `ln( c(v,f)·N / (c(v)·c(f)) )`, or `None` if the pair was never
    /// seen.
    pub fn pmi(&self, vertex: u32, feature: u32) -> Option<f64> {
        let run = self.runs.get(vertex as usize)?;
        let at = run.binary_search_by_key(&feature, |&(f, _)| f).ok()?;
        Some(self.pmi_of(vertex as usize, run[at]))
    }

    fn pmi_of(&self, vertex: usize, (f, c_vf): (u32, f64)) -> f64 {
        let c_v = self.vertex_total[vertex];
        let c_f = self.feature_total[f as usize];
        (c_vf * self.grand_total / (c_v * c_f)).ln()
    }

    /// Build one positive-PMI vector per vertex, unit-normalized.
    ///
    /// `num_vertices` sizes the output; vertices with no counts (or only
    /// negative-PMI features) get empty vectors.
    pub fn pmi_vectors(&self, num_vertices: usize) -> Vec<SparseVec> {
        (0..num_vertices)
            .into_par_iter()
            .map(|v| {
                let run = self.runs.get(v).map_or(&[][..], Vec::as_slice);
                let pairs = run
                    .iter()
                    .map(|&(f, c)| (f, self.pmi_of(v, (f, c))))
                    .filter(|&(_, pmi)| pmi > 0.0)
                    .map(|(f, pmi)| (f, pmi as f32))
                    .collect();
                let mut vector = SparseVec::from_pairs(pairs);
                vector.normalize();
                vector
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Occurrence lists from `(vertex, feature, count)` triples.
    fn counts(triples: &[(u32, u32, usize)]) -> VertexFeatureCounts {
        let mut occurrences: Vec<Vec<u32>> = Vec::new();
        for &(v, f, n) in triples {
            let v = v as usize;
            if v >= occurrences.len() {
                occurrences.resize(v + 1, Vec::new());
            }
            occurrences[v].extend(std::iter::repeat_n(f, n));
        }
        VertexFeatureCounts::from_occurrences(occurrences)
    }

    #[test]
    fn pmi_of_independent_pair_is_zero() {
        // two vertices, two features, perfectly uniform joint: PMI = 0
        let c = counts(&[(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]);
        for v in 0..2 {
            for f in 0..2 {
                assert!(c.pmi(v, f).unwrap().abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pmi_positive_for_associated_pair() {
        // vertex 0 strongly associated with feature 0
        let c = counts(&[(0, 0, 10), (0, 1, 1), (1, 1, 10), (1, 0, 1)]);
        assert!(c.pmi(0, 0).unwrap() > 0.0);
        assert!(c.pmi(0, 1).unwrap() < 0.0);
        assert_eq!(c.pmi(0, 2), None);
    }

    #[test]
    fn vectors_are_unit_norm_and_clipped() {
        let c = counts(&[(0, 0, 10), (0, 1, 1), (1, 1, 10), (1, 0, 1)]);
        let vecs = c.pmi_vectors(3);
        assert_eq!(vecs.len(), 3);
        // negative-PMI entries clipped: each vertex keeps only its
        // associated feature
        assert_eq!(vecs[0].nnz(), 1);
        assert_eq!(vecs[0].entries()[0].0, 0);
        assert!((vecs[0].norm() - 1.0).abs() < 1e-6);
        // vertex 2 never seen -> empty vector
        assert!(vecs[2].is_empty());
    }

    #[test]
    fn similar_vertices_have_high_cosine() {
        // vertices 0 and 1 share features 10, 11; vertex 2 uses 20, 21;
        // a shared background feature 99 makes the totals interact
        let c = counts(&[
            (0, 10, 5),
            (1, 10, 5),
            (0, 11, 5),
            (1, 11, 5),
            (2, 20, 5),
            (2, 21, 5),
            (0, 99, 1),
            (1, 99, 1),
            (2, 99, 1),
        ]);
        let vecs = c.pmi_vectors(3);
        let sim01 = vecs[0].dot(&vecs[1]);
        let sim02 = vecs[0].dot(&vecs[2]);
        assert!(sim01 > 0.9, "sim01 = {sim01}");
        assert!(sim01 > sim02);
    }

    #[test]
    fn totals_track_additions() {
        let c = VertexFeatureCounts::from_occurrences(vec![vec![1, 0, 1, 0, 1]]);
        assert_eq!(c.total(), 5.0);
        // two distinct pairs, (0,0) and (0,1); feature 2 never co-occurs
        assert!(c.pmi(0, 0).is_some());
        assert_eq!(c.pmi(0, 2), None);
        // c(0,1) = 3 of N = 5, c(v) = 5, c(f) = 3: PMI 0
        assert_eq!(c.pmi(0, 1), Some(0.0));
    }
}
