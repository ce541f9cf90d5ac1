//! GraphNER: corpus-level similarities and graph propagation for named
//! entity recognition.
//!
//! This crate implements the paper's primary contribution, Algorithm 1:
//! a transductive graph-based semi-supervised extension of a CRF
//! gene-mention tagger. Train a base CRF ([`graphner_banner::NerModel`])
//! and reference label distributions over the 3-grams of the labelled
//! data; at test time, build a cosine k-NN similarity graph over the
//! 3-grams of `D_l ∪ D_u`, seed it with averaged CRF posteriors,
//! propagate (equation 2), interpolate with the CRF posteriors, and
//! re-decode with Viterbi.
//!
//! ```no_run
//! use graphner_core::{GraphNer, GraphNerConfig, annotations_from_predictions};
//! use graphner_banner::NerConfig;
//! # let train = graphner_text::Corpus::new();
//! # let test = graphner_text::Corpus::new();
//! let (model, _) = GraphNer::train(&train, &NerConfig::default(), None,
//!                                  GraphNerConfig::default());
//! let out = model.test(&test);
//! let detections = annotations_from_predictions(&test, &out.predictions);
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests pin deterministic float outputs exactly; the lint guards library code"
    )
)]
#![allow(
    clippy::needless_range_loop,
    reason = "index loops over parallel arrays are the clearest form for this crate's numeric \
              kernels; iterator rewrites would obscure the index relationships between buffers"
)]

pub mod check;
pub mod config;
pub mod graphbuild;
pub mod model;
pub mod persist;
pub mod pipeline;
pub mod stats;
pub mod timings;

pub use config::{ConfigError, GraphFeatureSet, GraphNerConfig, ServeConfig};
pub use graphbuild::{build_vertex_vectors, knn_from_vectors, CorpusFeatures};
// the propagation-schedule knobs carried on `GraphNerConfig`, re-exported
// so config users need not depend on graphner-graph directly
pub use graphner_graph::{ShardSize, SweepSchedule};
pub use model::{annotations_from_predictions, GraphNer, TestOutput, TrainOutput};
pub use persist::{load_model, save_model, PersistError};
pub use pipeline::{GraphTagger, TestSession};
pub use stats::GraphStats;
pub use timings::TestTimings;
