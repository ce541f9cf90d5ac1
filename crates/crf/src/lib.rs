//! Linear-chain conditional random fields for GraphNER.
//!
//! This crate is the from-scratch substitute for the MALLET CRF inside
//! BANNER. It provides:
//!
//! * a log-linear chain CRF over the BIO tag set, at Markov order 1 or 2
//!   (order 2 realized as a chain over tag pairs);
//! * exact inference — scaled forward–backward, token posterior
//!   marginals, and Viterbi decoding — the quantities Algorithm 1 of the
//!   paper consumes (`CRF_Posteriors_And_Transitions`, `Viterbi`);
//! * training by L2-penalized conditional-log-likelihood maximization
//!   with a from-scratch L-BFGS optimizer, gradient evaluation
//!   parallelized over sentences with rayon;
//! * [`viterbi_tags`], the tag-level decoder GraphNER runs over
//!   interpolated node beliefs (Algorithm 1, line 9).
//!
//! Observation features are supplied by the client (see
//! `graphner-banner`) as interned ids per token position; the CRF owns
//! the crossing of those features with states and the transition
//! structure.

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

pub mod inference;
pub mod lbfgs;
pub mod model;
pub mod statespace;
pub mod train;

pub use inference::{viterbi_tags, Lattice};
pub use lbfgs::{LbfgsConfig, LbfgsResult, StopReason};
pub use model::{ChainCrf, SentenceFeatures};
pub use statespace::{Order, StateSpace};
pub use train::{TrainConfig, TrainReport};
