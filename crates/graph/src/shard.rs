//! CSR partitioning for the sharded propagation engine.
//!
//! A [`Partition`] splits the vertex range of a [`KnnGraph`] into
//! contiguous shards and precomputes everything a block-synchronous
//! Jacobi sweep needs per shard: the per-vertex weight sums
//! (`Σ_k w_ik`, previously recomputed on every `propagate` call), the
//! per-shard edge and boundary-edge counts, and the shard dependency
//! lists (which other shards a shard reads across its boundary). The
//! shard layout is a pure function of the vertex count and the
//! requested [`ShardSize`] — never of the worker-pool width — so the
//! same graph partitions identically at any `GRAPHNER_THREADS`,
//! which is what lets the engine keep the byte-identical determinism
//! contract of DESIGN.md §10.

#![warn(clippy::cast_possible_truncation)]

use crate::graph::KnnGraph;

/// Fewest vertices an automatically-sized shard may hold. Below this,
/// per-shard scheduling overhead dominates the sweep work.
pub const MIN_AUTO_SHARD_VERTICES: usize = 1024;

/// Most vertices an automatically-sized shard may hold: one shard's
/// beliefs (24 B/vertex) plus its CSR rows stay within a few MiB, so a
/// shard's working set fits in cache while the pool cycles through it.
pub const MAX_AUTO_SHARD_VERTICES: usize = 65536;

/// Shard-count ceiling automatic sizing aims for; matches the pool's
/// `chunk_ranges` fan-out so every worker can hold a whole shard.
const MAX_AUTO_SHARDS: usize = 64;

/// Shard-size selection for [`Partition::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardSize {
    /// Pick a size from the vertex count alone:
    /// `clamp(ceil(n / 64), 1024, 65536)`. Deliberately *not* a
    /// function of the thread count, so the partition — and with it
    /// every active-set scheduling decision — is identical at any
    /// `GRAPHNER_THREADS`.
    Auto,
    /// Exactly this many vertices per shard (the last shard may be
    /// smaller). Must be non-zero; `GraphNerConfig::validate` checks
    /// this at the API boundary, and [`ShardSize::resolve`] asserts it.
    Fixed(usize),
}

impl ShardSize {
    /// The concrete vertices-per-shard for a graph of `num_vertices`.
    pub fn resolve(self, num_vertices: usize) -> usize {
        match self {
            ShardSize::Auto => num_vertices
                .div_ceil(MAX_AUTO_SHARDS)
                .clamp(MIN_AUTO_SHARD_VERTICES, MAX_AUTO_SHARD_VERTICES),
            ShardSize::Fixed(size) => {
                assert!(size > 0, "shard size must be non-zero");
                size
            }
        }
    }
}

/// How the propagation engine schedules its sweeps; carried on
/// `GraphNerConfig` and defaulting to today's exact semantics
/// (auto-sized shards, no active-set skipping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepSchedule {
    /// Vertices per shard.
    pub shard_size: ShardSize,
    /// Skip shards whose residual fell below the deactivation
    /// threshold until a dependency shard moves again. `false` sweeps
    /// every shard every iteration and reproduces the unsharded
    /// output bit-for-bit — the default, and what the paper-protocol
    /// runs use.
    pub active_set: bool,
}

impl Default for SweepSchedule {
    fn default() -> SweepSchedule {
        SweepSchedule { shard_size: ShardSize::Auto, active_set: false }
    }
}

/// One contiguous vertex range of a [`Partition`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// First vertex (inclusive).
    pub start: u32,
    /// One past the last vertex.
    pub end: u32,
    /// Out-edges of the shard's vertices.
    pub edges: usize,
    /// Out-edges whose target lies in a *different* shard — the reads
    /// that couple this shard to its dependencies.
    pub boundary_edges: usize,
}

impl Shard {
    /// Number of vertices in the shard.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the shard holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Per-shard balance row for diagnostics (`graphstats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardBalance {
    /// Vertices in the shard.
    pub vertices: usize,
    /// Out-edges of the shard.
    pub edges: usize,
    /// Out-edges leaving the shard.
    pub boundary_edges: usize,
}

/// A shard view over one [`KnnGraph`]: contiguous vertex ranges plus
/// the precomputed per-vertex weight sums and boundary metadata the
/// sweep engine consumes. Immutable once built; the pipeline caches
/// one per (graph, resolved shard size).
#[derive(Clone, Debug)]
pub struct Partition {
    /// Resolved vertices-per-shard (every shard but the last has
    /// exactly this many).
    shard_vertices: usize,
    shards: Vec<Shard>,
    /// `Σ_k w_ik` per vertex — the propagation normalizer term,
    /// computed once here instead of once per `propagate` call.
    weight_sums: Vec<f64>,
    /// `deps[s]`: sorted ids of the shards (≠ `s`) whose vertices
    /// shard `s` reads during a sweep. Active-set scheduling
    /// reactivates `s` when any of these moved.
    deps: Vec<Vec<u32>>,
    /// Total cross-shard edges.
    boundary_edges: usize,
}

impl Partition {
    /// Partition `graph` into contiguous shards of `size`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "vertex ids fit u32: the graph builder caps V at u32::MAX"
    )]
    pub fn new(graph: &KnnGraph, size: ShardSize) -> Partition {
        let n = graph.num_vertices();
        let shard_vertices = size.resolve(n);
        let num_shards = n.div_ceil(shard_vertices);
        let weight_sums: Vec<f64> = (0..n as u32).map(|v| graph.weight_sum(v)).collect();
        let mut shards = Vec::with_capacity(num_shards);
        let mut deps: Vec<Vec<u32>> = Vec::with_capacity(num_shards);
        let mut boundary_total = 0usize;
        // generation-stamped dedup of dependency shards: O(num_shards)
        // memory reused across shards, no hashing
        let mut stamp = vec![u32::MAX; num_shards];
        for s in 0..num_shards {
            let start = (s * shard_vertices) as u32;
            let end = n.min((s + 1) * shard_vertices) as u32;
            let mut boundary = 0usize;
            let mut shard_deps = Vec::new();
            for v in start..end {
                for (nb, _) in graph.neighbors(v) {
                    let t = nb as usize / shard_vertices;
                    if t != s {
                        boundary += 1;
                        if stamp[t] != s as u32 {
                            stamp[t] = s as u32;
                            shard_deps.push(t as u32);
                        }
                    }
                }
            }
            shard_deps.sort_unstable();
            deps.push(shard_deps);
            boundary_total += boundary;
            shards.push(Shard {
                start,
                end,
                edges: graph.out_edges_in_range(start, end),
                boundary_edges: boundary,
            });
        }
        Partition { shard_vertices, shards, weight_sums, deps, boundary_edges: boundary_total }
    }

    /// Resolved vertices-per-shard.
    pub fn shard_vertices(&self) -> usize {
        self.shard_vertices
    }

    /// Number of shards (zero only for an empty graph).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices covered (must equal the graph's).
    pub fn num_vertices(&self) -> usize {
        self.weight_sums.len()
    }

    /// The shards, in vertex order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Precomputed `Σ_k w_ik` per vertex.
    pub fn weight_sums(&self) -> &[f64] {
        &self.weight_sums
    }

    /// Shards that shard `s` reads across its boundary (sorted, no
    /// self-entry).
    pub fn deps(&self, s: usize) -> &[u32] {
        &self.deps[s]
    }

    /// Total cross-shard edges.
    pub fn boundary_edges(&self) -> usize {
        self.boundary_edges
    }

    /// Per-shard balance rows for diagnostics.
    pub fn balance(&self) -> Vec<ShardBalance> {
        self.shards
            .iter()
            .map(|s| ShardBalance {
                vertices: s.len(),
                edges: s.edges,
                boundary_edges: s.boundary_edges,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 vertices: a 3-cycle (0,1,2), an edge pair (3,4), a loner (5).
    fn six() -> KnnGraph {
        KnnGraph::from_adjacency(
            vec![
                vec![(1, 0.5)],
                vec![(2, 0.4)],
                vec![(0, 0.3)],
                vec![(4, 0.9)],
                vec![(3, 0.8)],
                vec![],
            ],
            1,
        )
    }

    #[test]
    fn auto_size_depends_only_on_vertex_count() {
        assert_eq!(ShardSize::Auto.resolve(0), MIN_AUTO_SHARD_VERTICES);
        assert_eq!(ShardSize::Auto.resolve(100), MIN_AUTO_SHARD_VERTICES);
        assert_eq!(ShardSize::Auto.resolve(64 * MIN_AUTO_SHARD_VERTICES), MIN_AUTO_SHARD_VERTICES);
        // between the clamps: ceil(n / 64)
        assert_eq!(ShardSize::Auto.resolve(640_000), 10_000);
        // huge graphs cap the shard size, growing the shard count
        assert_eq!(ShardSize::Auto.resolve(100_000_000), MAX_AUTO_SHARD_VERTICES);
        assert_eq!(ShardSize::Fixed(7).resolve(1_000_000), 7);
    }

    #[test]
    fn partition_covers_all_vertices_contiguously() {
        let g = six();
        let p = Partition::new(&g, ShardSize::Fixed(4));
        assert_eq!(p.num_shards(), 2);
        assert_eq!(p.num_vertices(), 6);
        assert_eq!(p.shard_vertices(), 4);
        assert_eq!((p.shards()[0].start, p.shards()[0].end), (0, 4));
        assert_eq!((p.shards()[1].start, p.shards()[1].end), (4, 6));
        assert_eq!(p.shards()[1].len(), 2);
        assert!(!p.shards()[1].is_empty());
        let covered: usize = p.shards().iter().map(Shard::len).sum();
        assert_eq!(covered, g.num_vertices());
    }

    #[test]
    fn weight_sums_match_graph() {
        let g = six();
        let p = Partition::new(&g, ShardSize::Fixed(2));
        for v in 0..6u32 {
            assert!((p.weight_sums()[v as usize] - g.weight_sum(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn boundary_edges_and_deps_track_cross_shard_reads() {
        let g = six();
        // shards {0,1}, {2,3}, {4,5}
        let p = Partition::new(&g, ShardSize::Fixed(2));
        // shard 0: 0→1 internal, 1→2 crosses into shard 1
        assert_eq!(p.shards()[0].edges, 2);
        assert_eq!(p.shards()[0].boundary_edges, 1);
        assert_eq!(p.deps(0), &[1]);
        // shard 1: 2→0 crosses into shard 0, 3→4 crosses into shard 2
        assert_eq!(p.shards()[1].boundary_edges, 2);
        assert_eq!(p.deps(1), &[0, 2]);
        // shard 2: 4→3 crosses into shard 1; vertex 5 is isolated
        assert_eq!(p.shards()[2].boundary_edges, 1);
        assert_eq!(p.deps(2), &[1]);
        assert_eq!(p.boundary_edges(), 4);
        // one big shard: everything is internal
        let whole = Partition::new(&g, ShardSize::Fixed(100));
        assert_eq!(whole.num_shards(), 1);
        assert_eq!(whole.boundary_edges(), 0);
        assert_eq!(whole.deps(0), &[] as &[u32]);
    }

    #[test]
    fn balance_rows_mirror_shards() {
        let g = six();
        let p = Partition::new(&g, ShardSize::Fixed(2));
        let rows = p.balance();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], ShardBalance { vertices: 2, edges: 2, boundary_edges: 1 });
        let edge_total: usize = rows.iter().map(|r| r.edges).sum();
        assert_eq!(edge_total, g.num_edges());
    }

    #[test]
    fn empty_graph_partitions_to_zero_shards() {
        let g = KnnGraph::from_adjacency(vec![], 1);
        let p = Partition::new(&g, ShardSize::Auto);
        assert_eq!(p.num_shards(), 0);
        assert_eq!(p.num_vertices(), 0);
        assert_eq!(p.boundary_edges(), 0);
        assert!(p.balance().is_empty());
    }

    #[test]
    fn default_schedule_reproduces_todays_semantics() {
        let s = SweepSchedule::default();
        assert_eq!(s.shard_size, ShardSize::Auto);
        assert!(!s.active_set);
    }
}
