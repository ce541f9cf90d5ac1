//! Graph propagation — equation (2) of the paper.
//!
//! The propagation objective (equation 1) trades off three terms: stay
//! close to the reference distribution on labelled vertices, agree with
//! graph neighbours, and stay close to uniform absent evidence. Setting
//! its derivative to zero yields the fixed-point update
//!
//! ```text
//! X(i) ← [ δ(i∈Vₗ)·X_ref(i) + μ·Σ_k w_ik·X(k) + ν/Y ]
//!        / [ δ(i∈Vₗ) + ν + μ·Σ_k w_ik ]
//! ```
//!
//! iterated `#iterations` times. The update is Jacobi-style: every
//! vertex reads the previous iterate and writes a fresh buffer, which
//! makes each sweep embarrassingly parallel and the result independent
//! of vertex order.
//!
//! Sweeps run through the sharded engine
//! ([`propagate_partitioned`]): the vertex range is cut into the
//! contiguous shards of a [`Partition`], each shard updates its block
//! *and* folds its own max residual in the same pass (no separate
//! residual sweep), and the per-shard residuals merge in fixed shard
//! order. Because every vertex still reads the previous iterate and
//! `f64::max` is exact, the result is byte-identical to the unsharded
//! update at any shard count and any `GRAPHNER_THREADS` — the
//! unsharded implementation survives as the test-only
//! `propagate_reference` oracle this module's tests compare against.
//! Active-set scheduling
//! (skip shards that stopped moving) is opt-in via
//! [`SweepSchedule`](crate::shard::SweepSchedule) and changes results
//! only within [`ACTIVE_SET_TOL`]-sized slack of the fixed point.

#![warn(clippy::cast_possible_truncation)]

use crate::graph::KnnGraph;
use crate::shard::Partition;
use graphner_obs::{obs_debug, obs_summary};
use graphner_text::NUM_TAGS;
use rayon::prelude::*;

/// A label distribution over the BIO tags.
pub type LabelDist = [f64; NUM_TAGS];

/// The uniform distribution `U`.
pub const UNIFORM: LabelDist = [1.0 / NUM_TAGS as f64; NUM_TAGS];

/// Hyper-parameters of the propagation (Table IV of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PropagationParams {
    /// Weight `μ` of the neighbour-agreement term.
    pub mu: f64,
    /// Weight `ν` of the uniform prior term.
    pub nu: f64,
    /// Number of update sweeps (`#iterations`).
    pub iterations: usize,
    /// Self-anchor weight for *unlabelled* vertices, expressed as a
    /// fraction of their neighbour mass `μ·Σ_k w_ik`. Equation (2) gives
    /// unlabelled vertices no anchor of their own, so a few sweeps
    /// diffuse away the information their initial distributions carried
    /// (the averaged CRF posteriors of Algorithm 1, line 6). A non-zero
    /// anchor adds `κ‖X(u) − X⁰(u)‖²` to the objective for unlabelled
    /// `u` with `κ = self_anchor·μ·Σw` — the injection term familiar
    /// from label-propagation variants such as modified adsorption.
    /// `0.0` reproduces equation (2) exactly.
    pub self_anchor: f64,
}

impl Default for PropagationParams {
    fn default() -> PropagationParams {
        // The cross-validated values the paper settles on for BC2GM;
        // pure equation (2) (no self-anchor).
        PropagationParams { mu: 1e-6, nu: 1e-6, iterations: 3, self_anchor: 0.0 }
    }
}

/// The equation (2) update for one vertex: reads the previous iterate
/// `x` (and the initial beliefs `x0` for the self-anchor term),
/// returns the fresh distribution. Shared by the sharded engine and
/// the unsharded reference so both compute identical bits.
#[inline]
#[allow(clippy::too_many_arguments)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "vertex ids fit u32: the graph builder caps V at u32::MAX"
)]
// hot: per-vertex propagation kernel, runs O(V * sweeps) times
fn jacobi_update(
    graph: &KnnGraph,
    i: usize,
    x: &[LabelDist],
    x0: &[LabelDist],
    x_ref: &[Option<LabelDist>],
    weight_sums: &[f64],
    params: &PropagationParams,
    nu_term: f64,
) -> LabelDist {
    let mut gamma = [nu_term; NUM_TAGS];
    let mut k_i = params.nu + params.mu * weight_sums[i];
    if let Some(r) = &x_ref[i] {
        k_i += 1.0;
        for (g, ry) in gamma.iter_mut().zip(r) {
            *g += ry;
        }
    } else if params.self_anchor > 0.0 {
        let kappa = params.self_anchor * params.mu * weight_sums[i];
        k_i += kappa;
        for (g, iy) in gamma.iter_mut().zip(&x0[i]) {
            *g += kappa * iy;
        }
    }
    for (nb, w) in graph.neighbors(i as u32) {
        let xw = &x[nb as usize];
        let w = params.mu * w as f64;
        for (g, xy) in gamma.iter_mut().zip(xw) {
            *g += w * xy;
        }
    }
    let mut dst = [0.0; NUM_TAGS];
    for (d, g) in dst.iter_mut().zip(gamma) {
        *d = g / k_i;
    }
    dst
}

/// One block of a Jacobi sweep: update the vertices `[start, end)`
/// into `out` and fold the block's max per-entry change in the same
/// pass. The fused residual is what lets the engine drop the separate
/// full-array residual sweep — `f64::max` is exact and
/// order-independent, so merging per-shard maxima in shard order gives
/// the same bits as one global reduction.
#[allow(clippy::too_many_arguments)]
// hot: per-shard sweep loop, the propagation engine's inner body
fn sweep_shard(
    graph: &KnnGraph,
    start: u32,
    end: u32,
    x: &[LabelDist],
    x0: &[LabelDist],
    x_ref: &[Option<LabelDist>],
    weight_sums: &[f64],
    params: &PropagationParams,
    out: &mut [LabelDist],
) -> f64 {
    let nu_term = params.nu / NUM_TAGS as f64;
    let mut residual = 0.0f64;
    for (dst, i) in out.iter_mut().zip(start as usize..end as usize) {
        let d = jacobi_update(graph, i, x, x0, x_ref, weight_sums, params, nu_term);
        for (new, old) in d.iter().zip(&x[i]) {
            residual = residual.max((new - old).abs());
        }
        *dst = d;
    }
    residual
}

/// Residual below which a sweep is considered converged: the largest
/// per-entry change is noise relative to the label probabilities the
/// decoder consumes.
pub const CONVERGENCE_TOL: f64 = 1e-6;

/// Deactivation threshold of the active-set schedule: a shard whose
/// sweep residual falls at or below this is skipped until one of its
/// dependency shards moves again. Two orders of magnitude below
/// [`CONVERGENCE_TOL`], so even with the worst-case geometric
/// accumulation of skipped updates (`threshold / (1 − ρ)` for a
/// contraction factor ρ ≤ 0.99) the drift from the true fixed point
/// stays within [`CONVERGENCE_TOL`].
pub const ACTIVE_SET_TOL: f64 = CONVERGENCE_TOL / 100.0;

/// Debug-build check that every row of a belief table lies on the
/// probability simplex. Equation (2) renormalizes analytically — the
/// numerator terms sum to exactly the denominator when the inputs are
/// distributions — so each sweep must preserve the simplex to rounding
/// noise; drifting beyond `1e-9` means the update itself is wrong, not
/// the arithmetic. This crate sits below `graphner-core`, so it cannot
/// use `graphner_core::check`; the guard is local but follows the same
/// contract: a no-op in release builds.
#[inline]
fn debug_assert_simplex(ctx: &str, x: &[LabelDist]) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (i, row) in x.iter().enumerate() {
        let mut sum = 0.0;
        for &p in row {
            debug_assert!(p.is_finite(), "{ctx}: row {i} has non-finite entry {p}");
            debug_assert!(p >= -1e-12, "{ctx}: row {i} has negative entry {p}");
            sum += p;
        }
        debug_assert!((sum - 1.0).abs() <= 1e-9, "{ctx}: row {i} sums to {sum}");
    }
}

/// Convergence diagnostics of one [`propagate_partitioned`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PropagationReport {
    /// Sweeps actually executed (always `params.iterations`; the count
    /// is fixed by the paper's protocol, never cut short).
    pub iterations: usize,
    /// Maximum per-entry change of the final sweep. Under active-set
    /// scheduling, skipped shards contribute their last computed
    /// residual (an upper bound on their current motion).
    pub final_residual: f64,
    /// Whether `final_residual` is at or below [`CONVERGENCE_TOL`].
    /// With the paper's 3 sweeps this is typically `false` — the
    /// protocol runs a fixed budget, not to convergence.
    pub converged: bool,
    /// Shards in the partition the engine swept over (0 for an empty
    /// graph).
    pub shards: usize,
    /// Shard sweeps skipped by active-set scheduling, summed over all
    /// iterations; always 0 with `active_set` off.
    pub shards_skipped: usize,
    /// Cross-shard edges in the partition.
    pub boundary_edges: usize,
}

/// Propagate label distributions over the graph (Algorithm 1, line 7)
/// with the sharded engine: block-synchronous Jacobi sweeps, shard by
/// shard through the worker pool.
///
/// `x` holds the initial distributions (averaged CRF posteriors for
/// vertices seen at test time); it is updated in place. Returns a
/// [`PropagationReport`] with the per-call convergence diagnostics.
/// Build the [`Partition`] once per graph and reuse it across calls
/// (ablation sweeps); `active_set = false` is the paper-protocol
/// semantics.
///
/// Every sweep splits the write buffer into the partition's contiguous
/// shard blocks and fans them out; each shard computes its update and
/// its own max residual in one pass over its CSR rows, and the
/// per-shard residuals merge in fixed shard order. All shards read the
/// same immutable previous iterate, so the schedule the pool picks
/// cannot affect any bit of the output (DESIGN.md §12).
///
/// With `active_set` set, a shard whose residual fell at or below
/// [`ACTIVE_SET_TOL`] is skipped — its block is copied forward — until
/// one of its dependency shards (those it reads across a boundary)
/// moves again. Skipping is decided purely from per-shard residuals of
/// previous sweeps, which are themselves deterministic, so active-set
/// runs are also byte-identical at any thread count; they differ from
/// non-active-set runs by at most the [`ACTIVE_SET_TOL`]-bounded drift
/// documented on the constant. `active_set = false` reproduces the
/// unsharded update exactly.
pub fn propagate_partitioned(
    graph: &KnnGraph,
    partition: &Partition,
    x: &mut Vec<LabelDist>,
    x_ref: &[Option<LabelDist>],
    params: &PropagationParams,
    active_set: bool,
) -> PropagationReport {
    let n = graph.num_vertices();
    assert_eq!(x.len(), n, "distribution count must match vertex count");
    assert_eq!(x_ref.len(), n, "reference count must match vertex count");
    assert_eq!(partition.num_vertices(), n, "partition must be built from this graph");
    let num_shards = partition.num_shards();
    if n == 0 || params.iterations == 0 {
        // an empty graph is trivially at its fixed point; a zero-sweep
        // budget on a non-empty graph proves nothing
        return PropagationReport {
            iterations: 0,
            final_residual: 0.0,
            converged: n == 0,
            shards: num_shards,
            shards_skipped: 0,
            boundary_edges: partition.boundary_edges(),
        };
    }
    debug_assert_simplex("propagate: initial beliefs", x);
    let weight_sums = partition.weight_sums();
    let x0: Vec<LabelDist> = x.clone();
    let mut buf = vec![[0.0; NUM_TAGS]; n];
    // per-shard schedule state: residual of the last *computed* sweep
    // (∞ before the first, so every shard starts active) and whether
    // the shard moved beyond the deactivation threshold last sweep
    let mut last_residual = vec![f64::INFINITY; num_shards];
    let mut moved = vec![true; num_shards];
    let mut compute = vec![true; num_shards];
    let mut skipped_total = 0usize;
    let mut residual = 0.0;
    for iter in 0..params.iterations {
        if active_set && iter > 0 {
            for s in 0..num_shards {
                compute[s] = last_residual[s] > ACTIVE_SET_TOL
                    || partition.deps(s).iter().any(|&d| moved[d as usize]);
            }
        }
        // split the write buffer into the shard blocks; each job owns
        // exactly one block while every job reads the shared previous
        // iterate
        let mut blocks: Vec<(usize, &mut [LabelDist])> = Vec::with_capacity(num_shards);
        let mut rest: &mut [LabelDist] = &mut buf;
        for (s, shard) in partition.shards().iter().enumerate() {
            let (block, tail) = rest.split_at_mut(shard.len());
            blocks.push((s, block));
            rest = tail;
        }
        let x_read: &[LabelDist] = x;
        let shard_residuals: Vec<f64> = {
            let compute = &compute;
            let last_residual = &last_residual;
            blocks
                .into_par_iter()
                .map(|(s, block)| {
                    let shard = partition.shards()[s];
                    if compute[s] {
                        sweep_shard(
                            graph,
                            shard.start,
                            shard.end,
                            x_read,
                            &x0,
                            x_ref,
                            weight_sums,
                            params,
                            block,
                        )
                    } else {
                        // frozen shard: carry the block forward; its
                        // stale residual is an upper bound on the
                        // motion it would have had
                        block.copy_from_slice(&x_read[shard.start as usize..shard.end as usize]);
                        last_residual[s]
                    }
                })
                .collect()
        };
        // merge in fixed shard order (f64::max is exact, so this
        // equals a global reduction bit-for-bit)
        residual = shard_residuals.iter().copied().fold(0.0f64, f64::max);
        for s in 0..num_shards {
            if compute[s] {
                last_residual[s] = shard_residuals[s];
                moved[s] = shard_residuals[s] > ACTIVE_SET_TOL;
            } else {
                skipped_total += 1;
                moved[s] = false;
            }
        }
        std::mem::swap(x, &mut buf);
        debug_assert_simplex("propagate: sweep output", x);
        obs_debug!(
            "propagate: sweep {}/{} residual {residual:.3e} ({} of {num_shards} shards active)",
            iter + 1,
            params.iterations,
            compute.iter().filter(|&&c| c).count()
        );
    }
    let report = PropagationReport {
        iterations: params.iterations,
        final_residual: residual,
        converged: residual <= CONVERGENCE_TOL,
        shards: num_shards,
        shards_skipped: skipped_total,
        boundary_edges: partition.boundary_edges(),
    };
    graphner_obs::counter("propagate.sweeps").add(report.iterations as u64);
    graphner_obs::counter("propagate.shards_skipped").add(report.shards_skipped as u64);
    graphner_obs::histogram("propagate.final_residual").record(report.final_residual);
    // trace attributes for whatever stage span is open at the caller
    graphner_obs::attr("propagate.vertices", n as u64);
    graphner_obs::attr("propagate.sweeps", report.iterations as u64);
    graphner_obs::attr("propagate.residual", report.final_residual);
    graphner_obs::attr("propagate.shards", report.shards as u64);
    graphner_obs::attr("propagate.shards_skipped", report.shards_skipped as u64);
    graphner_obs::attr("propagate.boundary_edges", report.boundary_edges as u64);
    obs_summary!(
        "propagate: {} vertices in {} shards ({} boundary edges), {} sweeps \
         ({} shard-sweeps skipped), final residual {:.3e}, converged={}",
        n,
        report.shards,
        report.boundary_edges,
        report.iterations,
        report.shards_skipped,
        report.final_residual,
        report.converged
    );
    report
}

/// The pre-shard-engine implementation, kept as the test-only parity
/// oracle: one monolithic parallel sweep over all vertices followed by
/// a separate parallel residual reduction. [`propagate_partitioned`]
/// with `active_set = false` must match its output byte-for-byte at any
/// shard size — the tests below property-check exactly that.
#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "vertex ids fit u32: the graph builder caps V at u32::MAX"
)]
fn propagate_reference(
    graph: &KnnGraph,
    x: &mut Vec<LabelDist>,
    x_ref: &[Option<LabelDist>],
    params: &PropagationParams,
) -> PropagationReport {
    let n = graph.num_vertices();
    assert_eq!(x.len(), n, "distribution count must match vertex count");
    assert_eq!(x_ref.len(), n, "reference count must match vertex count");
    if n == 0 || params.iterations == 0 {
        return PropagationReport {
            iterations: 0,
            final_residual: 0.0,
            converged: n == 0,
            shards: 0,
            shards_skipped: 0,
            boundary_edges: 0,
        };
    }
    debug_assert_simplex("propagate_reference: initial beliefs", x);
    let weight_sums: Vec<f64> = (0..n as u32).map(|v| graph.weight_sum(v)).collect();
    let x0: Vec<LabelDist> = x.clone();
    let mut buf = vec![[0.0; NUM_TAGS]; n];
    let nu_term = params.nu / NUM_TAGS as f64;
    let mut residual = 0.0;
    for _ in 0..params.iterations {
        {
            let x_read: &[LabelDist] = x;
            buf.par_iter_mut().enumerate().for_each(|(i, dst)| {
                *dst = jacobi_update(graph, i, x_read, &x0, x_ref, &weight_sums, params, nu_term);
            });
        }
        residual = x
            .par_iter()
            .zip(buf.par_iter())
            .map(|(a, b)| a.iter().zip(b).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max))
            // det: f64::max is exact and associative-commutative over
            // non-NaN inputs, so the merge order cannot change the bits.
            .reduce(|| 0.0, f64::max);
        std::mem::swap(x, &mut buf);
    }
    PropagationReport {
        iterations: params.iterations,
        final_residual: residual,
        converged: residual <= CONVERGENCE_TOL,
        shards: 0,
        shards_skipped: 0,
        boundary_edges: 0,
    }
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test graphs are tiny")]
mod tests {
    use super::*;
    use crate::graph::KnnGraph;
    use crate::shard::ShardSize;
    use proptest::prelude::*;

    /// The engine over an auto-sized partition with active-set
    /// scheduling off: the paper-protocol propagation.
    fn propagate(
        graph: &KnnGraph,
        x: &mut Vec<LabelDist>,
        x_ref: &[Option<LabelDist>],
        params: &PropagationParams,
    ) -> PropagationReport {
        let partition = Partition::new(graph, ShardSize::Auto);
        propagate_partitioned(graph, &partition, x, x_ref, params, false)
    }

    fn is_distribution(d: &LabelDist) -> bool {
        d.iter().all(|&p| p >= -1e-12) && (d.iter().sum::<f64>() - 1.0).abs() < 1e-9
    }

    /// A 4-cycle where each vertex points to the next.
    fn ring(w: f32) -> KnnGraph {
        KnnGraph::from_adjacency((0..4).map(|i| vec![(((i + 1) % 4) as u32, w)]).collect(), 1)
    }

    #[test]
    fn update_preserves_simplex() {
        let g = ring(0.7);
        let mut x = vec![
            [0.5, 0.3, 0.2],
            [0.1, 0.1, 0.8],
            [0.0, 0.0, 1.0],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ];
        let x_ref = vec![Some([0.9, 0.05, 0.05]), None, None, None];
        propagate(
            &g,
            &mut x,
            &x_ref,
            &PropagationParams { mu: 0.5, nu: 0.1, iterations: 5, self_anchor: 0.0 },
        );
        for d in &x {
            assert!(is_distribution(d), "{d:?}");
        }
    }

    #[test]
    fn isolated_labelled_vertex_blends_ref_and_uniform() {
        // no edges: X = (X_ref + ν/Y) / (1 + ν)
        let g = KnnGraph::from_adjacency(vec![vec![]], 1);
        let r = [0.8, 0.1, 0.1];
        let nu = 0.3;
        let mut x = vec![[1.0 / 3.0; 3]];
        propagate(
            &g,
            &mut x,
            &[Some(r)],
            &PropagationParams { mu: 1.0, nu, iterations: 1, self_anchor: 0.0 },
        );
        for y in 0..3 {
            let expect = (r[y] + nu / 3.0) / (1.0 + nu);
            assert!((x[0][y] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn isolated_unlabelled_vertex_goes_uniform() {
        let g = KnnGraph::from_adjacency(vec![vec![]], 1);
        let mut x = vec![[0.9, 0.05, 0.05]];
        propagate(
            &g,
            &mut x,
            &[None],
            &PropagationParams { mu: 1.0, nu: 0.2, iterations: 1, self_anchor: 0.0 },
        );
        for p in x[0] {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn labels_flow_to_neighbours() {
        // vertex 1 (unlabelled, initially uniform) points at vertex 0
        // whose reference is strongly B; propagation must pull vertex 1
        // towards B. This is the "tumor - 1" mechanism of Figure 1.
        let g = KnnGraph::from_adjacency(vec![vec![], vec![(0, 1.0)]], 1);
        let x_ref = vec![Some([1.0, 0.0, 0.0]), None];
        let mut x = vec![[1.0, 0.0, 0.0], [1.0 / 3.0; 3]];
        propagate(
            &g,
            &mut x,
            &x_ref,
            &PropagationParams { mu: 2.0, nu: 0.01, iterations: 10, self_anchor: 0.0 },
        );
        assert!(x[1][0] > 0.9, "B mass after propagation: {}", x[1][0]);
        assert!(is_distribution(&x[1]));
    }

    #[test]
    fn fixed_point_satisfies_update_equation() {
        let g = ring(0.6);
        let x_ref = vec![Some([0.7, 0.2, 0.1]), None, Some([0.1, 0.8, 0.1]), None];
        let params = PropagationParams { mu: 0.8, nu: 0.05, iterations: 500, self_anchor: 0.0 };
        let mut x = vec![[1.0 / 3.0; 3]; 4];
        let report = propagate(&g, &mut x, &x_ref, &params);
        assert!(report.final_residual < 1e-12, "not converged: residual {}", report.final_residual);
        assert!(report.converged);
        assert_eq!(report.iterations, 500);
        // verify eq. 2 holds at the fixed point
        for i in 0..4usize {
            let w_sum = g.weight_sum(i as u32);
            let labelled = x_ref[i].is_some();
            let k_i = if labelled { 1.0 } else { 0.0 } + params.nu + params.mu * w_sum;
            for y in 0..3 {
                let mut gamma = params.nu / 3.0;
                if let Some(r) = &x_ref[i] {
                    gamma += r[y];
                }
                for (nb, w) in g.neighbors(i as u32) {
                    gamma += params.mu * w as f64 * x[nb as usize][y];
                }
                assert!((x[i][y] - gamma / k_i).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_iterations_is_identity() {
        let g = ring(0.5);
        let orig = vec![[0.2, 0.3, 0.5]; 4];
        let mut x = orig.clone();
        propagate(
            &g,
            &mut x,
            &[None, None, None, None],
            &PropagationParams { mu: 1.0, nu: 1.0, iterations: 0, self_anchor: 0.0 },
        );
        assert_eq!(x, orig);
    }

    #[test]
    fn tiny_mu_nu_barely_move_labelled_vertices() {
        // with the paper's μ = ν = 1e-6, labelled vertices stay glued to
        // their reference distributions
        let g = ring(1.0);
        let r = [0.6, 0.3, 0.1];
        let x_ref = vec![Some(r); 4];
        let mut x = vec![[1.0 / 3.0; 3]; 4];
        propagate(&g, &mut x, &x_ref, &PropagationParams::default());
        for d in &x {
            for y in 0..3 {
                assert!((d[y] - r[y]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn report_reflects_budget_and_convergence_state() {
        let g = ring(0.9);
        let x_ref = vec![Some([0.9, 0.05, 0.05]), None, None, None];
        // the paper's fixed 3-sweep budget does not reach the tolerance
        // on this ring with strong coupling…
        let mut x = vec![[1.0 / 3.0; 3]; 4];
        let short = propagate(
            &g,
            &mut x,
            &x_ref,
            &PropagationParams { mu: 0.5, nu: 0.1, iterations: 3, self_anchor: 0.0 },
        );
        assert_eq!(short.iterations, 3);
        assert!(!short.converged, "unexpectedly converged: {short:?}");
        // …while a generous budget does
        let mut x = vec![[1.0 / 3.0; 3]; 4];
        let long = propagate(
            &g,
            &mut x,
            &x_ref,
            &PropagationParams { mu: 0.5, nu: 0.1, iterations: 200, self_anchor: 0.0 },
        );
        assert!(long.converged, "did not converge: {long:?}");
        assert!(long.final_residual <= CONVERGENCE_TOL);
        // empty graph: trivially converged, zero sweeps of work
        let empty = KnnGraph::from_adjacency(vec![], 1);
        let report = propagate(&empty, &mut vec![], &[], &PropagationParams::default());
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.shards, 0);
        assert_eq!(report.boundary_edges, 0);
    }

    #[test]
    fn residual_decreases_across_iterations() {
        let g = ring(0.9);
        let x_ref = vec![Some([0.9, 0.05, 0.05]), None, None, None];
        let mut residuals = Vec::new();
        let mut x = vec![[1.0 / 3.0; 3]; 4];
        for _ in 0..6 {
            let report = propagate(
                &g,
                &mut x,
                &x_ref,
                &PropagationParams { mu: 0.5, nu: 0.1, iterations: 1, self_anchor: 0.0 },
            );
            residuals.push(report.final_residual);
        }
        for w in residuals.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "residuals not monotone: {residuals:?}");
        }
    }

    // ---- sharded engine ------------------------------------------------

    /// A denser fixture: 12 vertices, two edges each, mixed labelling.
    fn twelve() -> (KnnGraph, Vec<LabelDist>, Vec<Option<LabelDist>>) {
        let n = 12usize;
        let adj: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|i| {
                vec![
                    (((i + 1) % n) as u32, 0.4 + 0.04 * i as f32),
                    (((i + 5) % n) as u32, 0.2 + 0.02 * i as f32),
                ]
            })
            .collect();
        let g = KnnGraph::from_adjacency(adj, 2);
        let x: Vec<LabelDist> = (0..n)
            .map(|i| {
                let a = 0.2 + 0.05 * (i % 7) as f64;
                let b = 0.3 + 0.03 * (i % 5) as f64;
                let z = a + b + 0.25;
                [a / z, b / z, 0.25 / z]
            })
            .collect();
        let x_ref: Vec<Option<LabelDist>> =
            (0..n).map(|i| (i % 3 == 0).then_some([0.7, 0.2, 0.1])).collect();
        (g, x, x_ref)
    }

    #[test]
    fn sharded_engine_matches_reference_bitwise_at_every_shard_size() {
        let (g, x0, x_ref) = twelve();
        for params in [
            PropagationParams { mu: 0.6, nu: 0.05, iterations: 4, self_anchor: 0.0 },
            PropagationParams { mu: 0.6, nu: 0.05, iterations: 4, self_anchor: 0.5 },
        ] {
            let mut expect = x0.clone();
            let expect_report = propagate_reference(&g, &mut expect, &x_ref, &params);
            for shard_size in [1usize, 2, 3, 5, 7, 12, 100] {
                let partition = Partition::new(&g, ShardSize::Fixed(shard_size));
                let mut x = x0.clone();
                let report = propagate_partitioned(&g, &partition, &mut x, &x_ref, &params, false);
                for (row, expect_row) in x.iter().zip(&expect) {
                    for (p, q) in row.iter().zip(expect_row) {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "shard_size={shard_size} diverged from reference"
                        );
                    }
                }
                assert_eq!(report.final_residual.to_bits(), expect_report.final_residual.to_bits());
                assert_eq!(report.converged, expect_report.converged);
                assert_eq!(report.shards, g.num_vertices().div_ceil(shard_size));
                assert_eq!(report.shards_skipped, 0);
            }
        }
    }

    #[test]
    fn active_set_skips_converged_shards_and_stays_near_fixed_point() {
        // two disconnected halves: vertices 0–3 are isolated (fixed
        // point after one sweep → their shards deactivate and, having
        // no dependencies, never reactivate), vertices 4–7 form a
        // strongly coupled ring that keeps moving for many sweeps
        let adj: Vec<Vec<(u32, f32)>> = (0..8)
            .map(|i| if i < 4 { vec![] } else { vec![((i - 4 + 1) % 4 + 4, 0.95)] })
            .collect();
        let g = KnnGraph::from_adjacency(adj, 1);
        let x_ref: Vec<Option<LabelDist>> =
            (0..8).map(|i| (i == 0 || i == 4).then_some([0.85, 0.1, 0.05])).collect();
        let x0: Vec<LabelDist> = vec![[1.0 / 3.0; 3]; 8];
        let params = PropagationParams { mu: 0.5, nu: 0.1, iterations: 60, self_anchor: 0.0 };
        let partition = Partition::new(&g, ShardSize::Fixed(2));
        let mut active = x0.clone();
        let report = propagate_partitioned(&g, &partition, &mut active, &x_ref, &params, true);
        assert!(report.shards_skipped > 0, "no shard was ever skipped: {report:?}");
        let mut expect = x0.clone();
        propagate_reference(&g, &mut expect, &x_ref, &params);
        let mut max_diff = 0.0f64;
        for (row, expect_row) in active.iter().zip(&expect) {
            for (p, q) in row.iter().zip(expect_row) {
                max_diff = max_diff.max((p - q).abs());
            }
        }
        assert!(
            max_diff <= CONVERGENCE_TOL,
            "active-set drift {max_diff:.3e} exceeds CONVERGENCE_TOL"
        );
    }

    #[test]
    fn active_set_off_never_skips() {
        let (g, x0, x_ref) = twelve();
        let params = PropagationParams { mu: 0.4, nu: 0.05, iterations: 50, self_anchor: 0.0 };
        let partition = Partition::new(&g, ShardSize::Fixed(3));
        let mut x = x0.clone();
        let report = propagate_partitioned(&g, &partition, &mut x, &x_ref, &params, false);
        assert_eq!(report.shards_skipped, 0);
        assert_eq!(report.shards, 4);
        assert_eq!(report.boundary_edges, partition.boundary_edges());
    }

    // ---- randomized properties -----------------------------------------

    /// Graph, initial beliefs, and reference distributions of one random
    /// propagation problem.
    type PropagationProblem = (KnnGraph, Vec<[f64; 3]>, Vec<Option<[f64; 3]>>);

    /// Seeded random propagation problem: a `k`-out-degree graph over `n`
    /// vertices (xorshift weights), random simplex beliefs, and a
    /// reference distribution on every even vertex.
    fn random_propagation_problem(n: usize, k: usize, seed: u64) -> PropagationProblem {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let adj: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|i| {
                (0..k)
                    .map(|_| {
                        let mut nb = (next() % n as u64) as u32;
                        if nb as usize == i {
                            nb = (nb + 1) % n as u32;
                        }
                        (nb, ((next() % 999) + 1) as f32 / 1000.0)
                    })
                    .collect()
            })
            .collect();
        let g = KnnGraph::from_adjacency(adj, k);
        let x: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                let a = ((next() % 1000) as f64 + 1.0) / 1001.0;
                let b = ((next() % 1000) as f64 + 1.0) / 1001.0;
                let c = ((next() % 1000) as f64 + 1.0) / 1001.0;
                let z = a + b + c;
                [a / z, b / z, c / z]
            })
            .collect();
        let x_ref: Vec<Option<[f64; 3]>> =
            (0..n).map(|i| if i % 2 == 0 { Some([0.6, 0.3, 0.1]) } else { None }).collect();
        (g, x, x_ref)
    }

    proptest! {
        #[test]
        fn propagation_output_stays_in_simplex(
            n in 2usize..20,
            k in 1usize..4,
            mu in 1e-6f64..1.0,
            nu in 1e-6f64..1.0,
            anchor in 0.0f64..2.0,
            seed in 0u64..500,
        ) {
            let (g, mut x, x_ref) = random_propagation_problem(n, k, seed);
            propagate(&g, &mut x, &x_ref, &PropagationParams {
                mu, nu, iterations: 4, self_anchor: anchor,
            });
            for d in &x {
                let s: f64 = d.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9, "sum {s}");
                prop_assert!(d.iter().all(|&p| p >= -1e-12));
            }
        }

        /// The sharded engine must reproduce the unsharded reference sweep
        /// bit-for-bit on arbitrary graphs at arbitrary shard sizes. (CI
        /// runs the suite under both `GRAPHNER_THREADS=1` and `=4`, so this
        /// also pins the engine across pool sizes.)
        #[test]
        fn sharded_propagation_matches_reference_bitwise(
            n in 2usize..24,
            k in 1usize..4,
            mu in 1e-6f64..1.0,
            nu in 1e-6f64..1.0,
            anchor in 0.0f64..2.0,
            shard in 1usize..32,
            seed in 0u64..500,
        ) {
            let (g, x0, x_ref) = random_propagation_problem(n, k, seed);
            let params = PropagationParams { mu, nu, iterations: 4, self_anchor: anchor };
            let mut expected = x0.clone();
            let ref_report = propagate_reference(&g, &mut expected, &x_ref, &params);
            let partition = Partition::new(&g, ShardSize::Fixed(shard));
            let mut x = x0.clone();
            let report = propagate_partitioned(&g, &partition, &mut x, &x_ref, &params, false);
            for (a, b) in x.iter().zip(&expected) {
                for (p, q) in a.iter().zip(b) {
                    prop_assert_eq!(p.to_bits(), q.to_bits());
                }
            }
            prop_assert_eq!(report.final_residual.to_bits(), ref_report.final_residual.to_bits());
            prop_assert_eq!(report.shards_skipped, 0);
        }

        /// With the active-set scheduler on, skipped shards may lag the
        /// reference, but never by more than the convergence tolerance.
        /// (`nu >= 0.05` keeps the Jacobi contraction factor away from 1,
        /// where the drift bound `ACTIVE_SET_TOL / (1 - rho)` loosens.)
        #[test]
        fn active_set_propagation_stays_within_tolerance(
            n in 2usize..24,
            k in 1usize..4,
            mu in 1e-6f64..1.0,
            nu in 0.05f64..1.0,
            anchor in 0.0f64..2.0,
            shard in 1usize..16,
            seed in 0u64..500,
        ) {
            let (g, x0, x_ref) = random_propagation_problem(n, k, seed);
            let params = PropagationParams { mu, nu, iterations: 8, self_anchor: anchor };
            let mut expected = x0.clone();
            propagate_reference(&g, &mut expected, &x_ref, &params);
            let partition = Partition::new(&g, ShardSize::Fixed(shard));
            let mut x = x0.clone();
            propagate_partitioned(&g, &partition, &mut x, &x_ref, &params, true);
            for (a, b) in x.iter().zip(&expected) {
                for (p, q) in a.iter().zip(b) {
                    prop_assert!((p - q).abs() <= CONVERGENCE_TOL, "diff {}", (p - q).abs());
                }
            }
        }
    }
}
