//! BANNER and BANNER-ChemDNER: the CRF base taggers GraphNER extends.
//!
//! The paper plugs two CRF-based gene-mention systems into Algorithm 1:
//! BANNER (supervised, rich orthographic/lexical features) and
//! BANNER-ChemDNER (the same plus Brown-cluster and embedding-cluster
//! features from unlabelled data). Both are reproduced here on top of
//! `graphner-crf` and `graphner-embed`; the [`NerModel`] API exposes
//! exactly what GraphNER needs — posteriors, transition probabilities,
//! and Viterbi predictions. [`TokenFeatures`] featurizes a whole corpus
//! once into integer ids that CRF training, posterior extraction and
//! the similarity graph's vertex vectors all read.

pub mod features;
pub mod model;
pub mod table;

pub use features::{
    extract_features, DistributionalConfig, DistributionalResources, FeatureIndex, FeatureSet,
};
pub use model::{BaseSystem, NerConfig, NerModel};
pub use table::TokenFeatures;
