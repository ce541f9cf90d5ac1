//! The similarity graph substrate of GraphNER.
//!
//! "The central idea in GraphNER is to have a graph that tells us what
//! data points are similar, so that we can assign similar labels to
//! them." This crate implements that graph end to end:
//!
//! * [`sparse`] — sparse feature vectors with merge-based dot products;
//! * [`pmi`] — pointwise-mutual-information vertex representations over
//!   3-gram/feature co-occurrence counts;
//! * [`knn`] — exact cosine k-nearest-neighbour construction over an
//!   inverted index, rayon parallel (the paper's O(V²F) brute force is
//!   its test oracle);
//! * [`graph`] — the directed k-NN graph (CSR) with the §III-D
//!   statistics: influence, influencees, weak connectivity;
//! * [`shard`] — contiguous CSR partitions with precomputed weight
//!   sums and boundary metadata, the unit the sweep engine schedules;
//! * [`propagate`] — the iterative label-propagation update of
//!   equation (2), run shard-by-shard by the block-synchronous engine.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests pin deterministic float outputs exactly; the lint guards library code"
    )
)]

pub mod graph;
pub mod knn;
pub mod pmi;
pub mod propagate;
pub mod shard;
pub mod sparse;

pub use graph::{histogram, Histogram, KnnGraph, MAX_EDGES};
pub use knn::knn_inverted_index;
pub use pmi::VertexFeatureCounts;
pub use propagate::{
    propagate_partitioned, LabelDist, PropagationParams, PropagationReport, ACTIVE_SET_TOL,
    CONVERGENCE_TOL, UNIFORM,
};
pub use shard::{Partition, Shard, ShardBalance, ShardSize, SweepSchedule};
pub use sparse::SparseVec;
