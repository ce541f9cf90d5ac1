//! GraphNER — corpus-level similarities and graph propagation for
//! named entity recognition.
//!
//! A from-scratch Rust reproduction of *GraphNER* (Sheikhshab et al.),
//! a transductive graph-based semi-supervised extension of CRF
//! gene-mention taggers, together with every substrate it depends on:
//! a linear-chain CRF, the BANNER and BANNER-ChemDNER base taggers,
//! Brown clustering and skip-gram embeddings, the 3-gram similarity
//! graph with label propagation, a bi-LSTM-CRF neural baseline,
//! synthetic BC2GM/AML corpus generators, and the BioCreative II
//! evaluation tooling (exact-match scorer, sigf significance testing,
//! UpSet error analysis).
//!
//! The [`prelude`] re-exports the ~15 items of the end-to-end
//! workflow (`use graphner::prelude::*;` is the recommended import for
//! applications); this umbrella crate also re-exports the workspace
//! members wholesale:
//!
//! * [`text`] — tokens, BIO tags, sentences, corpora, BC2GM format;
//! * [`crf`] — the chain CRF (orders 1 and 2) with L-BFGS training;
//! * [`embed`] — Brown clustering, SGNS embeddings, k-means;
//! * [`banner`] — the BANNER / BANNER-ChemDNER taggers;
//! * [`graph`] — PMI vectors, cosine k-NN, graph propagation;
//! * [`neural`] — the bi-LSTM-CRF baseline;
//! * [`corpusgen`] — seeded synthetic biomedical corpora;
//! * [`eval`] — BC2 scoring, sigf, chi-square, UpSet;
//! * [`core`] — GraphNER itself (Algorithm 1 of the paper);
//! * [`serve`] — the online tagging service (request batching,
//!   backpressure, `graphner-serve` + `loadgen` binaries);
//! * [`obs`] — zero-dependency spans, metrics, and logging
//!   (`GRAPHNER_LOG=off|summary|debug`).
//!
//! See `examples/quickstart.rs` for a five-minute tour and the
//! `graphner-bench` crate for the binaries regenerating every table and
//! figure of the paper.

pub mod prelude {
    //! Everything a user needs end-to-end, in one import.
    //!
    //! `use graphner::prelude::*;` brings in the types of the whole
    //! workflow — build a [`Corpus`] of [`Sentence`]s (or [`generate`]
    //! a synthetic one from a [`CorpusProfile`]), configure the base
    //! CRF with [`NerConfig`] and GraphNER with [`GraphNerConfig`]
    //! (checked by [`GraphNerConfig::validate`]), train a [`GraphNer`], test it
    //! transductively (directly or through a cached [`TestSession`]),
    //! freeze a serving-style [`GraphTagger`], persist with
    //! [`save_model`]/[`load_model`], and score any [`Tagger`] with
    //! [`evaluate_tagger`]. Everything else stays reachable through
    //! the per-crate modules (`graphner::text`, `graphner::eval`, …).

    pub use graphner_banner::NerConfig;
    pub use graphner_core::{
        annotations_from_predictions, load_model, save_model, ConfigError, GraphNer,
        GraphNerConfig, GraphTagger, ServeConfig, ShardSize, SweepSchedule, TestOutput,
        TestSession,
    };
    pub use graphner_corpusgen::{generate, CorpusProfile};
    pub use graphner_crf::TrainConfig;
    pub use graphner_eval::{evaluate, evaluate_tagger, Evaluation};
    pub use graphner_serve::{render_tags, start as start_server, ServerHandle};
    pub use graphner_text::sentence::{mentions_to_tags, tags_to_mentions};
    pub use graphner_text::{tokenize, BioTag, Corpus, Mention, Sentence, TagError, Tagger};
}

pub use graphner_banner as banner;
pub use graphner_core as core;
pub use graphner_corpusgen as corpusgen;
pub use graphner_crf as crf;
pub use graphner_embed as embed;
pub use graphner_eval as eval;
pub use graphner_graph as graph;
pub use graphner_neural as neural;
pub use graphner_obs as obs;
pub use graphner_serve as serve;
pub use graphner_text as text;
