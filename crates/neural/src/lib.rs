//! From-scratch bi-LSTM-CRF sequence tagger — the neural baseline the
//! paper benchmarks against (LSTM-CRF of Lample et al. 2016, and a
//! stand-in for the character-based tagger of Rei et al. 2016 via the
//! character bi-LSTM features).
//!
//! No autograd, no BLAS: [`lstm`] implements the recurrent cells with
//! manual backpropagation (finite-difference-checked), [`crf_layer`] the
//! CRF output layer, and [`model`] ties them together with SGD training,
//! gradient clipping, and dev-set early stopping.

#![allow(
    clippy::needless_range_loop,
    reason = "index loops over parallel arrays are the clearest form for this crate's numeric \
              kernels; iterator rewrites would obscure the index relationships between buffers"
)]

pub mod crf_layer;
pub mod lstm;
pub mod model;

pub use crf_layer::CrfLayer;
pub use lstm::{BiLstm, LstmCell};
pub use model::{LstmCrfConfig, TrainHistory, TrainedLstmCrf};
