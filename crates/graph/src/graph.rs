//! The directed k-nearest-neighbour graph and its statistics.
//!
//! "The graph is usually kept sparse by keeping only k nearest neighbors
//! for each vertex, which means the final graph is a directed one."
//! Stored as CSR: each vertex's out-edges (its nearest neighbours) are a
//! contiguous run of `(neighbour, weight)` pairs.

#![warn(clippy::cast_possible_truncation)]

/// Most directed edges a [`KnnGraph`] can hold: the CSR offsets are
/// `u32`, so the edge arrays must stay addressable by one.
pub const MAX_EDGES: usize = u32::MAX as usize;

/// Directed k-NN graph in CSR layout.
#[derive(Clone, Debug)]
pub struct KnnGraph {
    k: usize,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    weights: Vec<f32>,
}

impl KnnGraph {
    /// Build from per-vertex adjacency lists (already truncated to the
    /// k nearest). Panics if the total edge count overflows the `u32`
    /// CSR offsets ([`MAX_EDGES`]).
    pub fn from_adjacency(adj: Vec<Vec<(u32, f32)>>, k: usize) -> KnnGraph {
        let total: usize = adj.iter().map(Vec::len).sum();
        assert!(
            total <= MAX_EDGES,
            "graph has {total} edges, overflowing the u32 CSR offsets (max {MAX_EDGES})"
        );
        let n = adj.len();
        // alloc: the three CSR arrays, each sized exactly once per graph
        let mut offsets = Vec::with_capacity(n + 1);
        // alloc: exact-size edge array (`total` counted above)
        let mut neighbors = Vec::with_capacity(total);
        // alloc: exact-size weight array, parallel to `neighbors`
        let mut weights = Vec::with_capacity(total);
        // alloc: within the with_capacity reservation
        offsets.push(0u32);
        for list in adj {
            for (nb, w) in list {
                debug_assert!((nb as usize) < n, "neighbour out of range");
                // alloc: within the with_capacity reservation
                neighbors.push(nb);
                // alloc: within the with_capacity reservation
                weights.push(w);
            }
            // alloc: within the with_capacity reservation
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the edge count is asserted <= MAX_EDGES, which fits the u32 offsets"
            )]
            offsets.push(neighbors.len() as u32);
        }
        KnnGraph { k, offsets, neighbors, weights }
    }

    /// The `k` used at construction.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-neighbours of `v` with weights: `N(v)` in the propagation
    /// objective.
    // bound: v < num_vertices and offsets has num_vertices + 1 slots,
    // so `v + 1` is always a valid CSR offset index
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.neighbors[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Number of out-edges of the contiguous vertex range
    /// `[start, end)` — one offset subtraction, thanks to the CSR
    /// layout. Used by [`Partition`](crate::shard::Partition) to size
    /// shards by edge mass.
    pub fn out_edges_in_range(&self, start: u32, end: u32) -> usize {
        assert!(start <= end && (end as usize) < self.offsets.len(), "range out of bounds");
        (self.offsets[end as usize] - self.offsets[start as usize]) as usize
    }

    /// Sum of outgoing edge weights `Σ_k w_{v,k}` (the `μ Σ w` term in
    /// the propagation normalizer).
    pub fn weight_sum(&self, v: u32) -> f64 {
        self.neighbors(v).map(|(_, w)| w as f64).sum()
    }

    /// `|Influencees(v)|` for every vertex: the number of vertices that
    /// have `v` among their nearest neighbours (in-degree).
    pub fn influencees(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_vertices()];
        for &nb in &self.neighbors {
            counts[nb as usize] += 1;
        }
        counts
    }

    /// `Influence(v) = Σ_{k ∈ Influencees(v)} w_{k,v}` for every vertex
    /// (section III-D of the paper).
    pub fn influence(&self) -> Vec<f64> {
        let mut inf = vec![0.0f64; self.num_vertices()];
        for (&nb, &w) in self.neighbors.iter().zip(&self.weights) {
            inf[nb as usize] += w as f64;
        }
        inf
    }

    /// Number of weakly connected components (union-find over the
    /// undirected skeleton). The paper notes both corpus graphs are
    /// weakly connected, i.e. one component dominates.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "vertex ids are u32 neighbour ids, so the vertex count fits u32"
    )]
    pub fn weakly_connected_components(&self) -> usize {
        let n = self.num_vertices();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for v in 0..n as u32 {
            for (nb, _) in self.neighbors(v) {
                let a = find(&mut parent, v);
                let b = find(&mut parent, nb);
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
        let mut roots = rustc_hash::FxHashSet::default();
        for v in 0..n as u32 {
            let r = find(&mut parent, v);
            roots.insert(r);
        }
        roots.len()
    }

    /// Size of the largest weakly connected component.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "vertex ids are u32 neighbour ids, so the vertex count fits u32"
    )]
    pub fn largest_component_size(&self) -> usize {
        let n = self.num_vertices();
        if n == 0 {
            return 0;
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for v in 0..n as u32 {
            for (nb, _) in self.neighbors(v) {
                let a = find(&mut parent, v);
                let b = find(&mut parent, nb);
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
        let mut sizes = rustc_hash::FxHashMap::default();
        for v in 0..n as u32 {
            let r = find(&mut parent, v);
            *sizes.entry(r).or_insert(0usize) += 1;
        }
        sizes.values().copied().max().unwrap_or(0)
    }
}

/// A fixed-width histogram over non-negative values, for the Fig. 3
/// influence plots.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Bin width.
    pub bin_width: f64,
    /// Count per bin; bin `i` covers `[i·w, (i+1)·w)`.
    pub counts: Vec<usize>,
}

/// Bucket `values` into `num_bins` equal-width bins spanning
/// `[0, max(values)]`.
pub fn histogram(values: &[f64], num_bins: usize) -> Histogram {
    assert!(num_bins > 0);
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    let bin_width = if max > 0.0 { max / num_bins as f64 } else { 1.0 };
    let mut counts = vec![0usize; num_bins];
    for &v in values {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "flooring to a bin index is the intent; the cast saturates and the index is clamped below"
        )]
        let mut b = (v / bin_width) as usize;
        if b >= num_bins {
            b = num_bins - 1;
        }
        counts[b] += 1;
    }
    Histogram { bin_width, counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1, 1 -> 2, 2 -> 0, 3 -> 0 (a cycle plus a tail).
    fn cyclic() -> KnnGraph {
        KnnGraph::from_adjacency(
            vec![vec![(1, 0.5)], vec![(2, 0.4)], vec![(0, 0.3)], vec![(0, 0.9)]],
            1,
        )
    }

    #[test]
    fn csr_roundtrip() {
        let g = cyclic();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 0.5)]);
        assert_eq!(g.out_degree(3), 1);
        assert!((g.weight_sum(3) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn influence_and_influencees() {
        let g = cyclic();
        // vertex 0 is the neighbour of 2 and 3
        let inf_count = g.influencees();
        assert_eq!(inf_count, vec![2, 1, 1, 0]);
        let inf = g.influence();
        assert!((inf[0] - (0.3 + 0.9)).abs() < 1e-6);
        assert!((inf[3] - 0.0).abs() < 1e-9);
        // sum of influences equals sum of all edge weights
        let total: f64 = inf.iter().sum();
        assert!((total - (0.5 + 0.4 + 0.3 + 0.9)).abs() < 1e-6);
    }

    #[test]
    fn weak_connectivity() {
        let g = cyclic();
        assert_eq!(g.weakly_connected_components(), 1);
        assert_eq!(g.largest_component_size(), 4);
        let disconnected = KnnGraph::from_adjacency(
            vec![vec![(1, 1.0)], vec![(0, 1.0)], vec![(3, 1.0)], vec![(2, 1.0)], vec![]],
            1,
        );
        assert_eq!(disconnected.weakly_connected_components(), 3);
        assert_eq!(disconnected.largest_component_size(), 2);
    }

    #[test]
    fn histogram_buckets() {
        let h = histogram(&[0.0, 0.1, 0.5, 0.9, 1.0], 2);
        assert_eq!(h.counts, vec![2, 3]);
        let h = histogram(&[], 3);
        assert_eq!(h.counts, vec![0, 0, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = KnnGraph::from_adjacency(vec![], 10);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.largest_component_size(), 0);
    }

    #[test]
    fn out_edges_in_range_matches_degree_sums() {
        let g = cyclic();
        assert_eq!(g.out_edges_in_range(0, 0), 0);
        assert_eq!(g.out_edges_in_range(0, 4), g.num_edges());
        for start in 0..4u32 {
            for end in start..4u32 {
                let expect: usize = (start..end).map(|v| g.out_degree(v)).sum();
                assert_eq!(g.out_edges_in_range(start, end), expect);
            }
        }
    }

    #[test]
    fn from_adjacency_accepts_asymmetric_lists() {
        // directed kNN lists are legitimately asymmetric (0→1 without
        // 1→0). Asymmetry must not be confused with invalidity.
        let g = KnnGraph::from_adjacency(vec![vec![(1, 0.5)], vec![], vec![(0, 0.2)]], 1);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![(0, 0.2)]);
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "test graphs are tiny")]
    fn from_adjacency_keeps_every_list_in_order() {
        let adj = vec![vec![(2, 0.5), (1, 0.7)], vec![], vec![(0, 0.3), (1, 0.1)]];
        let g = KnnGraph::from_adjacency(adj.clone(), 2);
        assert_eq!(g.k(), 2);
        assert_eq!(g.num_vertices(), adj.len());
        assert_eq!(g.num_edges(), 4);
        for (v, list) in adj.iter().enumerate() {
            assert_eq!(&g.neighbors(v as u32).collect::<Vec<_>>(), list);
        }
    }
}
