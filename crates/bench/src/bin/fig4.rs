//! Figure 4 — UpSet analysis of false positives, GraphNER vs
//! BANNER-ChemDNER on the AML corpus, with the §III-E chi-square test.
//!
//! The paper's shape: no significant difference in the gene-related
//! proportion on AML (p = 0.56); GraphNER's precision gain there is a
//! quantitative reduction in total annotations rather than a change in
//! error quality.

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
    let corpus = generate(&CorpusProfile::aml().scaled(opts.scale));
    run_fp_analysis(&corpus, &opts, "Figure 4", "AML");
    graphner_bench::finish(&opts);
}
