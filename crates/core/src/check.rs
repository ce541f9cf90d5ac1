//! Debug-mode numeric guards — the runtime counterpart of the static
//! policy checks (clippy's workspace lints, `float_cmp` among them, and
//! the `graphner-audit` hot-path test).
//!
//! Clippy and the audit enforce what the *source* must look like; this
//! module enforces what the *numbers* must look like while the pipeline
//! runs. Every guard returns immediately in release builds
//! (`cfg!(debug_assertions)` is const-folded to `false`), so the
//! configurations the paper's tables are produced with pay nothing,
//! while every `cargo test` run (debug profile) sweeps the full guard
//! set over the posterior, averaging, propagation, interpolation and
//! persistence stages.
//!
//! On violation a guard panics with the calling context and the first
//! offending index/value, which is exactly what a failing invariant
//! should do in a test run: the panic site names the stage, not the
//! arithmetic that happened to trip downstream.

use graphner_graph::{KnnGraph, LabelDist, SparseVec};

/// How far a probability row may drift from summing to exactly 1
/// before [`assert_distributions`] treats it as a bug. Forward–backward
/// posteriors and the Jacobi sweeps renormalize analytically, so
/// anything beyond accumulated rounding noise indicates a real defect.
pub const DISTRIBUTION_TOL: f64 = 1e-6;

/// Slack for "non-negative": convex combinations of distributions can
/// round a true zero to a tiny negative value.
const NEG_SLACK: f64 = -1e-12;

/// Tolerance for edge-weight agreement between the two directions of a
/// mutual edge. Weights are cosines stored as `f32`; both directions
/// are computed from the same dot product, so they must agree to `f32`
/// rounding, not merely "be similar".
const WEIGHT_TOL: f32 = 1e-6;

/// Assert every row of a belief table (one row per vertex or token) is
/// a probability distribution: every entry finite and non-negative,
/// entries summing to 1 within [`DISTRIBUTION_TOL`]. No-op in release
/// builds.
#[inline]
pub fn assert_distributions(ctx: &str, rows: &[LabelDist]) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (i, row) in rows.iter().enumerate() {
        let mut sum = 0.0;
        for (j, &p) in row.iter().enumerate() {
            assert!(p.is_finite(), "{ctx}: row {i} entry {j} is not finite ({p})");
            assert!(p >= NEG_SLACK, "{ctx}: row {i} entry {j} is negative ({p})");
            sum += p;
        }
        assert!(
            (sum - 1.0).abs() <= DISTRIBUTION_TOL,
            "{ctx}: row {i} sums to {sum}, expected 1 within {DISTRIBUTION_TOL}"
        );
    }
}

/// Assert every entry of a dense matrix (any row-major shape whose rows
/// deref to `[f64]`) is finite. No-op in release builds.
#[inline]
pub fn assert_finite_matrix<R: AsRef<[f64]>>(ctx: &str, rows: &[R]) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.as_ref().iter().enumerate() {
            assert!(v.is_finite(), "{ctx}: entry ({i}, {j}) is not finite ({v})");
        }
    }
}

/// Assert every stored value of a sparse PMI vector is finite. A NaN
/// here poisons every cosine the vertex participates in, so the guard
/// fires at construction, not at the first corrupted similarity.
/// No-op in release builds.
#[inline]
pub fn assert_finite_sparse(ctx: &str, vectors: &[SparseVec]) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (v, vec) in vectors.iter().enumerate() {
        for &(f, w) in vec.entries() {
            assert!(w.is_finite(), "{ctx}: vertex {v} feature {f} is not finite ({w})");
        }
    }
}

/// Assert the *mutual* edges of a directed k-NN graph carry consistent
/// weights: whenever both `u → v` and `v → u` exist, their weights must
/// agree to `f32` rounding, because cosine similarity is symmetric and
/// both directions score the same vector pair. The raw k-NN graph is
/// directed (v may be among u's nearest without the converse), so this
/// — not full symmetry — is its invariant. No-op in release builds.
#[inline]
pub fn assert_edge_weights_symmetric(ctx: &str, graph: &KnnGraph) {
    if !cfg!(debug_assertions) {
        return;
    }
    for u in 0..graph.num_vertices() as u32 {
        for (v, w_uv) in graph.neighbors(u) {
            assert!(w_uv.is_finite(), "{ctx}: edge {u} → {v} has non-finite weight {w_uv}");
            if let Some((_, w_vu)) = graph.neighbors(v).find(|&(back, _)| back == u) {
                assert!(
                    (w_uv - w_vu).abs() <= WEIGHT_TOL,
                    "{ctx}: mutual edge {u} ↔ {v} weights disagree ({w_uv} vs {w_vu})"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The guards are meaningful only where debug assertions are on —
    // which is exactly the configuration `cargo test` builds.

    #[test]
    fn accepts_valid_distributions() {
        assert_distributions(
            "ok",
            &[
                [0.2, 0.3, 0.5],
                [1.0, 0.0, 0.0],
                // rounding-noise negative zero is tolerated
                [1.0 + 1e-13, -1e-13, 0.0],
                [0.5, 0.25, 0.25],
                [1.0 / 3.0; 3],
            ],
        );
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn rejects_unnormalized() {
        assert_distributions("bad", &[[0.5, 0.5, 0.5]]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_mass() {
        assert_distributions("bad", &[[1.1, -0.1, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_nan() {
        assert_distributions("bad", &[[f64::NAN, 0.5, 0.5]]);
    }

    #[test]
    #[should_panic(expected = "row 1")]
    fn names_the_offending_row() {
        assert_distributions("bad", &[[0.5, 0.25, 0.25], [0.9, 0.0, 0.0]]);
    }

    #[test]
    fn finite_matrix_accepts_and_rejects() {
        assert_finite_matrix("ok", &[[0.0, 1.5], [2.0, -3.0]]);
        let caught = std::panic::catch_unwind(|| {
            assert_finite_matrix("bad", &[[0.0, f64::INFINITY]]);
        });
        assert!(caught.is_err());
    }

    #[test]
    #[should_panic(expected = "vertex 1")]
    fn sparse_guard_names_the_vertex() {
        let good = SparseVec::from_pairs(vec![(0, 1.0)]);
        let bad = SparseVec::from_pairs(vec![(3, f32::NAN)]);
        assert_finite_sparse("bad", &[good, bad]);
    }

    #[test]
    fn one_way_and_equal_mutual_edges_pass_weight_consistency() {
        // 0 → 1 with no reverse edge: fine for the directed invariant
        let g = KnnGraph::from_adjacency(vec![vec![(1, 0.5)], vec![]], 1);
        assert_edge_weights_symmetric("ok", &g);
        let g = KnnGraph::from_adjacency(vec![vec![(1, 0.5)], vec![(0, 0.5)]], 1);
        assert_edge_weights_symmetric("ok", &g);
    }

    #[test]
    #[should_panic(expected = "weights disagree")]
    fn mutual_edge_weight_mismatch_is_caught() {
        let g = KnnGraph::from_adjacency(vec![vec![(1, 0.5)], vec![(0, 0.7)]], 1);
        assert_edge_weights_symmetric("bad", &g);
    }
}
