//! Text substrate for GraphNER.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about biomedical text: tokens and token spans, the BIO tag scheme used
//! for gene-mention detection, sentences and corpora, a biomedical
//! tokenizer, a rule-based lemmatizer, word-shape functions, the BC2GM
//! annotation format (space-free character offsets with alternative
//! annotations), and interned n-gram extraction used by the similarity
//! graph.
//!
//! The design follows the paper's framing: NER is a sequence-tagging
//! problem over sentences `x_1..x_l` with tags `t_1..t_l` drawn from
//! `{B, I, O}` (a single entity type, *gene*), and the graph component
//! operates on 3-grams of tokens.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests pin deterministic float outputs exactly; the lint guards library code"
    )
)]

pub mod approx;
pub mod bc2;
pub mod corpus;
pub mod ngram;
pub mod sentence;
pub mod shape;
pub mod stem;
pub mod tag;
pub mod tagger;
pub mod tokenize;
pub mod vocab;

pub use approx::{approx_eq, is_zero};
pub use bc2::{AnnotationSet, Bc2Annotation};
pub use corpus::{Corpus, Split};
pub use ngram::{Trigram, TrigramInterner, BOUNDARY_LEFT, BOUNDARY_RIGHT};
pub use sentence::{Mention, Sentence};
pub use shape::{brief_shape, word_shape};
pub use stem::lemma;
pub use tag::{BioTag, NUM_TAGS};
pub use tagger::{
    check_posteriors_finite, validate_sentences, TagError, Tagger, MAX_SENTENCE_TOKENS,
};
pub use tokenize::tokenize;
pub use vocab::Vocab;
