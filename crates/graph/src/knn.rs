//! Cosine k-nearest-neighbour graph construction.
//!
//! This is the paper's stated bottleneck — "computing the cosine
//! similarity between all pairs of vertices would have a time complexity
//! of O(V²F)" — and the reason GraphNER stays transductive.
//! [`knn_inverted_index`] computes the exact k-NN graph with MaxScore
//! (Turtle & Flood 1995; the all-pairs bound of Bayardo et al. 2007)
//! over an inverted index (feature → vertex postings). The literal
//! O(V²·nnz) pairwise scan survives as the test-only `knn_brute_force`
//! oracle the tests compare it against.
//!
//! **The bound.** Let `max_w[f]` be the largest value of feature `f`
//! over all vectors. Against query `i`, feature `f` adds at most
//! `val_i(f) · max_w[f]` to any vertex's score. The query's features
//! are sorted by that bound (computed in f64, where the product of two
//! f32s is exact) and walked from the largest down; every vertex in a
//! walked feature's postings is admitted once and scored in full at
//! once. When `k` positive scores are held, θ is the k-th best of them.
//! A vertex not yet admitted has only features still ahead in the walk,
//! so its score is at most their bound sum. The walk stops when that
//! sum, inflated by the f32 summation-error factor of `score_ceiling`,
//! is strictly `< θ`: no unseen vertex can then reach θ. With a strict
//! `<`, a vertex tied at θ is still scored, and the id tie-break decides
//! between it and the held one.
//!
//! **Bit-identical scores.** An admitted vertex `j` is scored by
//! accumulating `q[f] * w_j(f)` in f32 over `j`'s entries in ascending
//! feature id, where `q` is a dense copy of the query's values (zero
//! elsewhere). Those are the same products, in the same order, as
//! scattering every posting of every query feature into a score array:
//! a feature `j` does not share adds an exact `+0.0`. So every kept
//! weight is the exhaustive scan's weight, bit for bit; pruning changes
//! which pairs are scored, never a result.
//!
//! **Precondition.** The bound needs non-negative entries: for a
//! negative query value, `val_i(f) · max_w[f]` is a lower bound on the
//! feature's term, and a negative bound in the sum still ahead could
//! undercut a vertex that lacks that feature. [`knn_inverted_index`]
//! asserts that every entry is finite and strictly positive, which the
//! PPMI vectors of [`crate::pmi::VertexFeatureCounts::pmi_vectors`]
//! satisfy. It also asserts that no vector holds 2²⁵ (`MAX_QUERY_ENTRIES`)
//! or more entries, the limit of the summation-error factor.
//!
//! Both builders are data-parallel over query vertices with rayon.
//! Input vectors must be unit-normalized so dot products are cosines.
//! Only strictly positive similarities become edges, ties are broken by
//! vertex id, and self-edges are excluded — so both builders return
//! identical graphs.

#![warn(clippy::cast_possible_truncation)]

use crate::graph::KnnGraph;
use crate::sparse::SparseVec;
use graphner_obs::obs_summary;
use rayon::prelude::*;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};

/// Candidate order: descending by score, ties by ascending id.
fn by_quality(a: &(u32, f32), b: &(u32, f32)) -> CmpOrdering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Record build metrics for one adjacency and log the build summary.
///
/// `candidate_pairs` counts the pairs a builder scored in full:
/// MaxScore's admitted pairs for [`knn_inverted_index`], every
/// positive-similarity pair for the brute-force oracle. Every kept
/// edge is a scored pair; the rest are pruned edges.
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
            cands.sort_unstable_by(by_quality);
            cands.truncate(k);
            cands
        })
        .collect();
    record_build_metrics("brute_force", &adj, candidate_pairs.into_inner());
    KnnGraph::from_adjacency(adj, k)
}

/// The inverted index: each feature's vertex ids, ascending, and each
/// feature's largest value over all vectors.
struct Postings {
    ids: Vec<Vec<u32>>,
    max_w: Vec<f32>,
}

impl Postings {
    /// Index `vectors`, asserting the MaxScore precondition on every
    /// entry.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "i < n <= u32::MAX vertices by the vocab-size guard"
    )]
    fn build(vectors: &[SparseVec]) -> Postings {
        let num_features = vectors
            .iter()
            .flat_map(|v| v.entries().iter().map(|&(f, _)| f as usize + 1))
            .max()
            .unwrap_or(0);
        // alloc: one postings list per feature, built once per graph build
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); num_features];
        // alloc: per-feature largest value, once per graph build
        let mut max_w = vec![0.0f32; num_features];
        for (i, vec) in vectors.iter().enumerate() {
            assert!(
                vec.nnz() < MAX_QUERY_ENTRIES,
                "knn_inverted_index needs vectors of fewer than {MAX_QUERY_ENTRIES} entries \
                 (the score ceiling's error factor is invalid otherwise): vertex {i} has {}",
                vec.nnz()
            );
            for &(f, val) in vec.entries() {
                assert!(
                    val.is_finite() && val > 0.0,
                    "knn_inverted_index needs finite, strictly positive vector entries \
                     (the MaxScore bound is invalid otherwise): vertex {i}, feature {f} is {val}"
                );
                // alloc: amortized push into the postings list
                ids[f as usize].push(i as u32);
                max_w[f as usize] = max_w[f as usize].max(val);
            }
        }
        Postings { ids, max_w }
    }
}

/// Entries a vector may hold: below 2²⁵, [`score_ceiling`]'s error
/// factor covers the f32 rounding of a score.
const MAX_QUERY_ENTRIES: usize = 1 << 25;

/// Largest f32 score a vertex can compute from features whose f64
/// bound sum is `reach`, for a query of `m` entries.
///
/// The score accumulates at most `m` non-zero products of non-negative
/// f32s, so its rounding is at most `(1 + 2⁻²⁴)^m` relative. The factor
/// `1 + (m + 4)·2⁻²²` covers that, with the f64 rounding of `reach`,
/// for any `m` below [`MAX_QUERY_ENTRIES`]. A product in the subnormal
/// range rounds by up to half the smallest subnormal, absolutely; `m`
/// smallest subnormals cover those.
fn score_ceiling(reach: f64, m: usize) -> f64 {
    const SUBNORMAL: f64 = 1.401_298_464_324_817e-45; // 2⁻¹⁴⁹, the smallest f32 subnormal
    const ULP_SLACK: f64 = 2.384_185_791_015_625e-7; // 2⁻²²
    let m = m as f64;
    (reach + m * SUBNORMAL) * (1.0 + (m + 4.0) * ULP_SLACK)
}

/// Offer a positive-score candidate to `best`, the `k` best held in
/// [`by_quality`] order.
fn offer(best: &mut Vec<(u32, f32)>, k: usize, cand: (u32, f32)) {
    let pos = best.partition_point(|held| by_quality(held, &cand).is_lt());
    if pos < k {
        if best.len() == k {
            best.pop();
        }
        // alloc: within the with_capacity(k) reservation, one was
        // popped when full
        best.insert(pos, cand);
    }
}

/// Per-worker scratch, reused across every query vertex a worker
/// handles.
struct Scratch {
    /// Dense copy of the query's values, zero off its features.
    q: Vec<f32>,
    /// `seen[j] == i + 1` once `j` is admitted for query `i`: every
    /// query stamps its own epoch, so the array is never cleared.
    seen: Vec<u32>,
    /// The query's `(bound, feature)` pairs, then `(inclusive prefix sum
    /// of bounds, feature)` in ascending bound order.
    walk: Vec<(f64, u32)>,
    /// The `k` best `(vertex, score)` so far, in [`by_quality`] order.
    best: Vec<(u32, f32)>,
}

impl Scratch {
    fn new(n: usize, num_features: usize, k: usize) -> Scratch {
        Scratch {
            // alloc: per-worker dense query, reused across its vertices
            q: vec![0.0; num_features],
            // alloc: per-worker admission stamps, reused likewise
            seen: vec![0; n],
            // alloc: per-worker walk buffer, grows to the widest query
            walk: Vec::new(),
            // alloc: per-worker top-k buffer, never above k entries
            best: Vec::with_capacity(k),
        }
    }

    /// MaxScore query for vertex `i`: its exact top-`k` row and the
    /// number of pairs scored in full.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "i < n <= u32::MAX vertices by the vocab-size guard, so i + 1 fits too"
    )]
    fn query(
        &mut self,
        vectors: &[SparseVec],
        postings: &Postings,
        i: usize,
        k: usize,
    ) -> (Vec<(u32, f32)>, u64) {
        let Scratch { q, seen, walk, best } = self;
        let entries = vectors[i].entries();
        for &(f, val) in entries {
            q[f as usize] = val;
            let bound = f64::from(val) * f64::from(postings.max_w[f as usize]);
            // alloc: amortized push into reused scratch
            walk.push((bound, f));
        }
        walk.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut reach = 0.0f64;
        for step in walk.iter_mut() {
            reach += step.0;
            step.0 = reach;
        }

        let stamp = i as u32 + 1;
        seen[i] = stamp;
        let mut scored = 0u64;
        for &(reach, f) in walk.iter().rev() {
            // θ is the k-th held score; stop once no unseen vertex can reach it
            let ceiling = score_ceiling(reach, entries.len());
            if best.len() == k && best.last().is_some_and(|held| ceiling < f64::from(held.1)) {
                break;
            }
            for &j in &postings.ids[f as usize] {
                if seen[j as usize] == stamp {
                    continue;
                }
                seen[j as usize] = stamp;
                scored += 1;
                let mut s = 0.0f32;
                for &(g, w) in vectors[j as usize].entries() {
                    s += q[g as usize] * w;
                }
                if s > 0.0 {
                    offer(best, k, (j, s));
                }
            }
        }

        for &(f, _) in entries {
            q[f as usize] = 0.0;
        }
        walk.clear();
        // alloc: the exactly-sized adjacency row, the builder's output
        let row = best.to_vec();
        best.clear();
        (row, scored)
    }
}

/// Exact k-NN via MaxScore over an inverted index of features.
///
/// # Panics
///
/// If `k == 0`, or if any vector entry is not finite and strictly
/// positive (see the module docs' precondition).
// hot: MaxScore postings walk, the default graph builder
pub fn knn_inverted_index(vectors: &[SparseVec], k: usize) -> KnnGraph {
    assert!(k > 0);
    let n = vectors.len();
    let postings = Postings::build(vectors);
    let scored_pairs = AtomicU64::new(0);
    // alloc: one adjacency row per vertex, the builder's output
    let adj: Vec<Vec<(u32, f32)>> = (0..n)
        .into_par_iter()
        .map_init(
            || Scratch::new(n, postings.max_w.len(), k),
            |scratch, i| {
                let (row, scored) = scratch.query(vectors, &postings, i, k);
                scored_pairs.fetch_add(scored, Ordering::Relaxed);
                row
            },
        )
        .collect();
    record_build_metrics("inverted_index", &adj, scored_pairs.into_inner());
    KnnGraph::from_adjacency(adj, k)
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test graphs are tiny")]
mod tests {
    use super::*;
    use graphner_obs::{span, with_capture, AttrValue, SpanName};

    fn unit(pairs: Vec<(u32, f32)>) -> SparseVec {
        let mut v = SparseVec::from_pairs(pairs);
        v.normalize();
        v
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.max(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn random_vectors(n: usize, num_features: u32, nnz: usize, seed: u64) -> Vec<SparseVec> {
        let mut next = xorshift(seed);
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

    /// Skewed feature frequencies: three common features in about 90%
    /// of the vectors with small values, plus a few rare features drawn
    /// from a wide vocabulary with large values.
    fn skewed_vectors(n: usize, seed: u64) -> Vec<SparseVec> {
        let mut next = xorshift(seed);
        (0..n)
            .map(|_| {
                let mut pairs = Vec::new();
                for common in 0..3u32 {
                    if !next().is_multiple_of(10) {
                        pairs.push((common, 0.02 + (next() % 100) as f32 / 10_000.0));
                    }
                }
                for _ in 0..3 {
                    let rare = 3 + (next() % 40) as u32;
                    pairs.push((rare, 0.5 + (next() % 500) as f32 / 1000.0));
                }
                unit(pairs)
            })
            .collect()
    }

    fn edges(g: &KnnGraph) -> Vec<(u32, u32, f32)> {
        (0..g.num_vertices() as u32)
            .flat_map(|v| g.neighbors(v).map(move |(nb, w)| (v, nb, w)))
            .collect()
    }

    /// Build a graph and read the `knn.candidate_pairs` attribute it
    /// attaches to the open `graph.knn` span.
    fn build_counted(
        build: fn(&[SparseVec], usize) -> KnnGraph,
        vectors: &[SparseVec],
        k: usize,
    ) -> (KnnGraph, u64) {
        let (g, spans) = with_capture(|| {
            let _s = span(SpanName::GraphKnn);
            build(vectors, k)
        });
        let knn = spans.iter().find(|s| s.name == SpanName::GraphKnn.as_str()).unwrap();
        match knn.attr("knn.candidate_pairs") {
            Some(AttrValue::U64(pairs)) => (g, *pairs),
            other => panic!("knn.candidate_pairs attribute missing: {other:?}"),
        }
    }

    /// Dot product accumulated in f32 over shared features in
    /// ascending id, the exhaustive scatter's arithmetic.
    fn f32_dot(a: &SparseVec, b: &SparseVec) -> f32 {
        let mut sum = 0.0f32;
        for &(f, x) in a.entries() {
            if let Ok(at) = b.entries().binary_search_by_key(&f, |&(g, _)| g) {
                sum += x * b.entries()[at].1;
            }
        }
        sum
    }

    /// The pruning checks: neighbour ids equal the brute-force oracle's,
    /// weight bits equal the f32 ascending-id dot, and fewer pairs were
    /// scored than have positive similarity.
    fn assert_exact_and_pruned(vectors: &[SparseVec], k: usize) {
        let (oracle, positive_pairs) = build_counted(knn_brute_force, vectors, k);
        let (g, scored_pairs) = build_counted(knn_inverted_index, vectors, k);
        let (eo, eg) = (edges(&oracle), edges(&g));
        let ids = |es: &[(u32, u32, f32)]| es.iter().map(|&(v, nb, _)| (v, nb)).collect::<Vec<_>>();
        assert_eq!(ids(&eo), ids(&eg));
        for &(v, nb, w) in &eg {
            let expected = f32_dot(&vectors[v as usize], &vectors[nb as usize]);
            assert_eq!(w.to_bits(), expected.to_bits(), "edge {v} -> {nb}");
        }
        assert!(
            scored_pairs < positive_pairs,
            "pruning never fired: {scored_pairs} scored of {positive_pairs} positive pairs"
        );
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
    fn maxscore_prunes_skewed_features_exactly() {
        for seed in 1..4u64 {
            assert_exact_and_pruned(&skewed_vectors(300, seed), 5);
        }
    }

    #[test]
    fn maxscore_keeps_exact_ties_at_the_kth_score() {
        // each base vector appears four times, so a vertex has three
        // exact copies at the top score and, with k = 2, ties at the
        // k-th score that only the id tie-break settles
        let base = skewed_vectors(60, 7);
        let vecs: Vec<SparseVec> = (0..4).flat_map(|_| base.iter().cloned()).collect();
        assert_exact_and_pruned(&vecs, 2);
        let g = knn_inverted_index(&vecs, 2);
        for v in 0..base.len() as u32 {
            let copies: Vec<u32> = g.neighbors(v).map(|(nb, _)| nb).collect();
            let first = base.len() as u32;
            assert_eq!(copies, vec![v + first, v + 2 * first], "vertex {v}");
        }
    }

    #[test]
    #[should_panic(expected = "finite, strictly positive vector entries")]
    fn negative_entries_are_refused() {
        let vecs = vec![unit(vec![(0, 1.0), (1, -0.5)]), unit(vec![(0, 1.0)])];
        knn_inverted_index(&vecs, 1);
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
