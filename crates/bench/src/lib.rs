//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every binary in `src/bin/` drives the same pipeline: generate a
//! synthetic corpus (BC2GM or AML profile), train the baselines (BANNER,
//! BANNER-ChemDNER, optionally LSTM-CRF), run GraphNER on top of each
//! CRF baseline, score everything with the BC2 evaluator, and print the
//! table rows. Corpora default to a scaled-down size so a run finishes
//! in minutes; pass `--full` for paper-sized corpora or `--scale <f>`
//! for anything in between.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests pin deterministic float outputs exactly; the lint guards library code"
    )
)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment harness behind the table and figure binaries: bad arguments stop the run, and the tables go to stdout"
)]

pub mod harness;
pub mod perf;
pub mod synth;

pub use harness::*;
