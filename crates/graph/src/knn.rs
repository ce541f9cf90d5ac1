//! Cosine k-nearest-neighbour graph construction.
//!
//! This is the paper's stated bottleneck — "computing the cosine
//! similarity between all pairs of vertices would have a time complexity
//! of O(V²F)" — and the reason GraphNER stays transductive.
//! [`knn_inverted_index`] computes the exact k-NN graph by
//! scatter-gather over an inverted index (feature → postings), which
//! skips all pairs with no shared feature. The literal O(V²·nnz)
//! pairwise scan survives as the test-only `knn_brute_force` oracle
//! the tests compare it against.
//!
//! Both are data-parallel over query vertices with rayon. Input vectors
//! must be unit-normalized (as produced by
//! [`crate::pmi::VertexFeatureCounts::pmi_vectors`]) so dot products are
//! cosines. Only strictly positive similarities become edges, ties are
//! broken by vertex id, and self-edges are excluded — so both builders
//! return identical graphs.

#![warn(clippy::cast_possible_truncation)]

use crate::graph::KnnGraph;
use crate::sparse::SparseVec;
use graphner_obs::obs_summary;
use graphner_text::exactly_zero_f32;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Select the `k` best `(id, score)` candidates, descending by score,
/// ties broken by ascending id.
// hot: per-vertex candidate selection, runs once per graph vertex
fn top_k(mut candidates: Vec<(u32, f32)>, k: usize) -> Vec<(u32, f32)> {
    let by_quality = |a: &(u32, f32), b: &(u32, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if candidates.len() > k {
        candidates.select_nth_unstable_by(k - 1, by_quality);
        candidates.truncate(k);
    }
    candidates.sort_unstable_by(by_quality);
    candidates
}

/// Record build metrics for one adjacency and log the build summary.
///
/// `candidate_pairs` counts the positive-similarity pairs each builder
/// scored; everything a `top_k` call then discarded is a pruned edge.
fn record_build_metrics(method: &str, adj: &[Vec<(u32, f32)>], candidate_pairs: u64) {
    let edges: u64 = adj.iter().map(|row| row.len() as u64).sum();
    graphner_obs::counter("knn.candidate_pairs").add(candidate_pairs);
    graphner_obs::counter("knn.pruned_edges").add(candidate_pairs - edges);
    let degree = graphner_obs::histogram("knn.out_degree");
    for row in adj {
        degree.record(row.len() as f64);
    }
    // trace attributes for whatever build span is open at the caller
    graphner_obs::attr("knn.vertices", adj.len());
    graphner_obs::attr("knn.edges", edges);
    graphner_obs::attr("knn.candidate_pairs", candidate_pairs);
    obs_summary!(
        "knn[{method}]: {} vertices, {edges} edges kept of {candidate_pairs} candidate pairs \
         ({} pruned)",
        adj.len(),
        candidate_pairs - edges
    );
}

/// Exact k-NN by pairwise cosine over all vertex pairs: the parity
/// oracle for [`knn_inverted_index`].
#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "j < n <= u32::MAX vertices and cosine sims are in [0, 1] where f32 keeps ranking precision"
)]
fn knn_brute_force(vectors: &[SparseVec], k: usize) -> KnnGraph {
    assert!(k > 0);
    let n = vectors.len();
    let candidate_pairs = AtomicU64::new(0);
    let adj: Vec<Vec<(u32, f32)>> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut cands = Vec::new();
            for j in 0..n {
                if i == j {
                    continue;
                }
                let sim = vectors[i].dot(&vectors[j]);
                if sim > 0.0 {
                    cands.push((j as u32, sim as f32));
                }
            }
            candidate_pairs.fetch_add(cands.len() as u64, Ordering::Relaxed);
            top_k(cands, k)
        })
        .collect();
    record_build_metrics("brute_force", &adj, candidate_pairs.into_inner());
    KnnGraph::from_adjacency(adj, k)
}

/// Exact k-NN via an inverted index over features.
#[expect(
    clippy::cast_possible_truncation,
    reason = "i < n <= u32::MAX vertices by the vocab-size guard"
)]
// hot: postings-driven scoring sweep, the default graph builder
pub fn knn_inverted_index(vectors: &[SparseVec], k: usize) -> KnnGraph {
    assert!(k > 0);
    let n = vectors.len();

    // Build postings: feature id -> [(vertex, value)].
    let num_features = vectors
        .iter()
        .flat_map(|v| v.entries().iter().map(|&(f, _)| f as usize + 1))
        .max()
        .unwrap_or(0);
    // alloc: one postings list per feature, built once per graph build
    let mut postings: Vec<Vec<(u32, f32)>> = vec![Vec::new(); num_features];
    for (i, vec) in vectors.iter().enumerate() {
        for &(f, val) in vec.entries() {
            // alloc: amortized push into the postings list
            postings[f as usize].push((i as u32, val));
        }
    }

    let candidate_pairs = AtomicU64::new(0);
    // alloc: one adjacency row per vertex, the builder's output
    let adj: Vec<Vec<(u32, f32)>> = (0..n)
        .into_par_iter()
        .map_init(
            // alloc: per-worker scratch, reused across every vertex a
            // worker scores — not a per-vertex allocation
            || (vec![0.0f32; n], Vec::<u32>::new()),
            |(scores, touched), i| {
                for &(f, val) in vectors[i].entries() {
                    for &(j, w) in &postings[f as usize] {
                        // untouched-slot sentinel: must be an exact
                        // bit test, an epsilon would mistake small
                        // accumulated scores for untouched slots
                        if exactly_zero_f32(scores[j as usize]) {
                            // alloc: amortized push into reused scratch
                            touched.push(j);
                        }
                        scores[j as usize] += val * w;
                    }
                }
                // alloc: per-vertex candidate buffer, consumed by top_k
                let mut cands = Vec::with_capacity(touched.len());
                for &j in touched.iter() {
                    let s = scores[j as usize];
                    scores[j as usize] = 0.0;
                    if j as usize != i && s > 0.0 {
                        // alloc: within the with_capacity reservation
                        cands.push((j, s));
                    }
                }
                touched.clear();
                candidate_pairs.fetch_add(cands.len() as u64, Ordering::Relaxed);
                top_k(cands, k)
            },
        )
        .collect();
    record_build_metrics("inverted_index", &adj, candidate_pairs.into_inner());
    KnnGraph::from_adjacency(adj, k)
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test graphs are tiny")]
mod tests {
    use super::*;

    fn unit(pairs: Vec<(u32, f32)>) -> SparseVec {
        let mut v = SparseVec::from_pairs(pairs);
        v.normalize();
        v
    }

    fn random_vectors(n: usize, num_features: u32, nnz: usize, seed: u64) -> Vec<SparseVec> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let pairs: Vec<(u32, f32)> = (0..nnz)
                    .map(|_| {
                        let f = (next() % num_features as u64) as u32;
                        let v = ((next() % 1000) as f32 / 1000.0) + 0.001;
                        (f, v)
                    })
                    .collect();
                unit(pairs)
            })
            .collect()
    }

    fn edges(g: &KnnGraph) -> Vec<(u32, u32, f32)> {
        (0..g.num_vertices() as u32)
            .flat_map(|v| g.neighbors(v).map(move |(nb, w)| (v, nb, w)))
            .collect()
    }

    #[test]
    fn brute_force_simple_clusters() {
        // two tight clusters in feature space
        let vecs = vec![
            unit(vec![(0, 1.0), (1, 0.1)]),
            unit(vec![(0, 1.0), (1, 0.2)]),
            unit(vec![(5, 1.0), (6, 0.1)]),
            unit(vec![(5, 1.0), (6, 0.2)]),
        ];
        let g = knn_brute_force(&vecs, 1);
        let nb: Vec<u32> = (0..4).map(|v| g.neighbors(v).next().unwrap().0).collect();
        assert_eq!(nb, vec![1, 0, 3, 2]);
    }

    #[test]
    fn inverted_index_matches_brute_force() {
        for seed in 1..4u64 {
            let vecs = random_vectors(60, 40, 6, seed);
            let a = knn_brute_force(&vecs, 5);
            let b = knn_inverted_index(&vecs, 5);
            let (ea, eb) = (edges(&a), edges(&b));
            assert_eq!(ea.len(), eb.len(), "seed {seed}");
            for ((va, na, wa), (vb, nb, wb)) in ea.iter().zip(&eb) {
                assert_eq!((va, na), (vb, nb), "seed {seed}");
                assert!((wa - wb).abs() < 1e-5, "seed {seed}: {wa} vs {wb}");
            }
        }
    }

    #[test]
    fn out_degree_is_k_when_enough_neighbours() {
        let vecs = random_vectors(50, 10, 5, 9);
        let g = knn_inverted_index(&vecs, 10);
        for v in 0..50u32 {
            assert!(g.out_degree(v) <= 10);
            // dense feature overlap here: everyone has 10 positive sims
            assert_eq!(g.out_degree(v), 10);
        }
    }

    #[test]
    fn disjoint_vectors_get_no_edges() {
        let vecs = vec![unit(vec![(0, 1.0)]), unit(vec![(1, 1.0)]), unit(vec![(2, 1.0)])];
        for g in [knn_brute_force(&vecs, 3), knn_inverted_index(&vecs, 3)] {
            assert_eq!(g.num_edges(), 0);
        }
    }

    #[test]
    fn no_self_edges() {
        let vecs = random_vectors(20, 8, 4, 3);
        let g = knn_inverted_index(&vecs, 5);
        for v in 0..20u32 {
            assert!(g.neighbors(v).all(|(nb, _)| nb != v));
        }
    }

    #[test]
    fn neighbours_sorted_by_similarity() {
        let vecs = random_vectors(30, 12, 5, 17);
        let g = knn_inverted_index(&vecs, 6);
        for v in 0..30u32 {
            let ws: Vec<f32> = g.neighbors(v).map(|(_, w)| w).collect();
            for pair in ws.windows(2) {
                assert!(pair[0] >= pair[1]);
            }
        }
    }

    #[test]
    fn empty_vector_set() {
        let g = knn_inverted_index(&[], 5);
        assert_eq!(g.num_vertices(), 0);
    }
}
