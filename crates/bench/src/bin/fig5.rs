//! Figure 5 — UpSet analysis of false positives, GraphNER vs
//! BANNER-ChemDNER on the BC2GM corpus.
//!
//! The paper's shape: substantial quantitative and proportional
//! decreases in *spurious* false positives under GraphNER (chi-square
//! p = 0.029 on the real corpus), i.e. GraphNER's corrections on the
//! noisier corpus are concentrated in the junk category.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::{run_fp_analysis, RunOptions};
use graphner_corpusgen::{generate, CorpusProfile};

fn main() {
    let opts = RunOptions::from_args();
    let corpus = generate(&CorpusProfile::bc2gm().scaled(opts.scale));
    run_fp_analysis(&corpus, &opts, "Figure 5", "BC2GM");
    graphner_bench::finish(&opts);
}
