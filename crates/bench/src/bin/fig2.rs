//! Figure 2 — time cost to train and test BANNER vs GraphNER across
//! train:test split ratios of the BC2GM corpus.
//!
//! For each ratio the corpus is re-partitioned, both systems run end to
//! end, and wall seconds are averaged over several instances (the paper
//! uses 10; default here is 3, `--full` raises corpus size). The
//! reproduced shape: GraphNER's added cost (graph construction +
//! propagation + combination) stays a modest fraction of the CRF's own
//! train+test time, growing with the corpus.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::RunOptions;
use graphner_core::{GraphNer, GraphNerConfig};
use graphner_corpusgen::{generate, CorpusProfile};
use graphner_text::Corpus;

fn main() {
    let opts = RunOptions::from_args();
    let instances = if opts.scale >= 0.5 { 10 } else { 3 };
    let profile = CorpusProfile::bc2gm().scaled(opts.scale);
    let corpus = generate(&profile);
    // pool all sentences, then re-split at each ratio
    let mut pool = corpus.train.clone();
    pool.sentences.extend(corpus.test.sentences.iter().cloned());

    println!(
        "\n=== Figure 2: train+test wall time, BANNER vs GraphNER (BC2GM profile, scale {}, {} instances/ratio) ===",
        opts.scale, instances
    );
    println!(
        "{:>10} {:>14} {:>16} {:>18} {:>14}",
        "train:test", "BANNER (s)", "GraphNER (s)", "added by graph (s)", "overhead (%)"
    );

    for (label, fraction) in
        [("1:2", 1.0 / 3.0), ("1:1", 0.5), ("2:1", 2.0 / 3.0), ("3:1", 0.75), ("4:1", 0.8)]
    {
        let mut banner_s = 0.0;
        let mut graphner_s = 0.0;
        let mut added_s = 0.0;
        for inst in 0..instances {
            let split = pool.split(fraction, 1000 + inst as u64);
            let test_unlabelled: Corpus = split.test.without_tags();
            let (gner, train_out) = GraphNer::train(
                &split.train,
                &opts.ner_config(),
                None,
                GraphNerConfig::table_iv("BC2GM", false),
            );
            let out = gner.test(&test_unlabelled);
            // BANNER's own cost: CRF train + the posterior/Viterbi pass
            let banner = train_out.crf_seconds + out.timings.posterior_seconds;
            // GraphNER: everything
            let graphner = train_out.crf_seconds + train_out.ref_seconds + out.timings.total();
            banner_s += banner;
            graphner_s += graphner;
            added_s += graphner - banner;
        }
        let k = instances as f64;
        println!(
            "{:>10} {:>14.2} {:>16.2} {:>18.2} {:>14.1}",
            label,
            banner_s / k,
            graphner_s / k,
            added_s / k,
            100.0 * added_s / banner_s
        );
    }
    graphner_bench::finish(&opts);
}
