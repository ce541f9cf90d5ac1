//! Distributional-feature substrate for the semi-supervised baseline.
//!
//! BANNER-ChemDNER raises BANNER's supervised CRF with features learned
//! from unlabelled text. This crate builds those features from scratch:
//!
//! * [`brown`] — agglomerative Brown clustering over word bigrams, with
//!   bit-path prefix features;
//! * [`sgns`] — skip-gram negative-sampling word embeddings (word2vec);
//! * [`kmeans`](mod@kmeans) — k-means over the embeddings, turning them into
//!   discrete cluster-id features.

// Index loops over parallel arrays are the clearest form for the
// numeric kernels in this crate; clippy's iterator rewrites would
// obscure the index relationships between the buffers.
#![allow(clippy::needless_range_loop)]

pub mod brown;
pub mod kmeans;
pub mod sgns;

pub use brown::{brown_cluster, BrownClustering, BrownConfig};
pub use kmeans::{kmeans, KMeansConfig, WordClusters};
pub use sgns::{train_sgns, Embeddings, SgnsConfig};
