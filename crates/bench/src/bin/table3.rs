//! Table III — effect of the vertex representation used in graph
//! construction, on the BC2GM profile.
//!
//! For each base CRF (BANNER, BANNER-ChemDNER), GraphNER is re-run with
//! All-features, Lexical-features, and MI-thresholded representations,
//! plus the K = 5 variant of the All-features graph. The reproduced
//! shape: All ≥ Lexical ≥ MI-thresholded, all above the baseline, and
//! K = 5 marginally below K = 10.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_banner::DistributionalResources;
use graphner_bench::{eval_predictions, RunOptions};
use graphner_core::{GraphFeatureSet, GraphNer, GraphNerConfig, TestSession};
use graphner_corpusgen::{generate, CorpusProfile};

fn main() {
    let opts = RunOptions::from_args();
    let profile = CorpusProfile::bc2gm().scaled(opts.scale);
    graphner_obs::obs_summary!(
        "BC2GM profile, {} train / {} test sentences",
        profile.train_sentences,
        profile.test_sentences
    );
    let corpus = generate(&profile);
    let test_unlabelled = corpus.test.without_tags();
    let mut unlabelled = corpus.train.without_tags();
    unlabelled.sentences.extend(test_unlabelled.sentences.iter().cloned());

    println!(
        "\n=== Table III: effect of vertex representations (BC2GM profile, scale {}) ===",
        opts.scale
    );
    println!("{:<18} {:<22} {:>4} {:>10}", "CRF Model", "Vector-Representation", "K", "F-Score(%)");

    for chemdner in [false, true] {
        let dist = if chemdner {
            Some(DistributionalResources::train(&unlabelled, &opts.distributional_config()))
        } else {
            None
        };
        let base_name = if chemdner { "BANNER-ChemDNER" } else { "BANNER" };
        let (gner, _) = GraphNer::train(
            &corpus.train,
            &opts.ner_config(),
            dist,
            GraphNerConfig::table_iv(&corpus.profile.name, chemdner),
        );

        // one session per base model: every ablation row below reuses
        // the cached corpus posteriors, and the K = 5 row reuses the
        // All-features PMI vectors
        let mut session = TestSession::new(&gner, &test_unlabelled);

        // baseline row
        {
            let out = session.run(gner.config());
            let (base_eval, _) =
                eval_predictions(&corpus.test, &corpus.test_gold, &out.base_predictions);
            println!(
                "{:<18} {:<22} {:>4} {:>10.2}",
                base_name,
                "- (baseline)",
                "-",
                base_eval.f_score() * 100.0
            );
        }

        let variants: Vec<(GraphFeatureSet, usize)> = vec![
            (GraphFeatureSet::All, 10),
            (GraphFeatureSet::Lexical, 10),
            (GraphFeatureSet::MiThreshold(0.005), 10),
            (GraphFeatureSet::MiThreshold(0.01), 10),
            (GraphFeatureSet::All, 5),
        ];
        for (feature_set, k) in variants {
            let cfg = GraphNerConfig {
                feature_set,
                k,
                ..GraphNerConfig::table_iv(&corpus.profile.name, chemdner)
            };
            let out = session.run(&cfg);
            let (eval, _) = eval_predictions(&corpus.test, &corpus.test_gold, &out.predictions);
            println!(
                "{:<18} {:<22} {:>4} {:>10.2}",
                base_name,
                feature_set.name(),
                k,
                eval.f_score() * 100.0
            );
        }
    }
    graphner_bench::finish(&opts);
}
