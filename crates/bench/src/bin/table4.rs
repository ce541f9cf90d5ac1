//! Table IV — hyper-parameter selection by cross-validation.
//!
//! The paper chooses `(α, μ, ν, #iterations)` per corpus and base model
//! "by cross-validation over different train:test splits". This binary
//! reproduces that procedure on the synthetic profiles: the training
//! corpus is split 80/20, GraphNER runs transductively on the held-out
//! fold for every candidate configuration, and the best-F configuration
//! is reported.

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
use graphner_core::{GraphNer, GraphNerConfig, TestSession};
use graphner_corpusgen::{generate, CorpusProfile};
use graphner_graph::PropagationParams;
use graphner_text::AnnotationSet;

fn main() {
    let opts = RunOptions::from_args();
    println!(
        "\n=== Table IV: hyper-parameters chosen by cross-validation (scale {}) ===",
        opts.scale
    );
    println!(
        "{:<8} {:<18} {:>6} {:>8} {:>8} {:>6} {:>10}",
        "Corpus", "CRF Model", "alpha", "mu", "nu", "iters", "CV F(%)"
    );

    for profile in [CorpusProfile::bc2gm(), CorpusProfile::aml()] {
        let corpus = generate(&profile.scaled(opts.scale));
        // CV split of the training corpus
        let split = corpus.train.split(0.8, 4242);
        let fold_gold = AnnotationSet::from_corpus(&split.test);
        let fold_unlabelled = split.test.without_tags();
        let mut unlabelled = split.train.without_tags();
        unlabelled.sentences.extend(fold_unlabelled.sentences.iter().cloned());

        for chemdner in [false, true] {
            let dist = if chemdner {
                Some(DistributionalResources::train(&unlabelled, &opts.distributional_config()))
            } else {
                None
            };
            let base_name = if chemdner { "BANNER-ChemDNER" } else { "BANNER" };
            let (gner, _) =
                GraphNer::train(&split.train, &opts.ner_config(), dist, GraphNerConfig::default());

            // all 24 candidate configurations share one session: the
            // CRF posteriors and the graph are computed once per fold
            let mut session = TestSession::new(&gner, &fold_unlabelled);
            let mut best: Option<(f64, (f64, f64, f64, usize))> = None;
            for alpha in [0.02, 0.1, 0.3] {
                for mu in [1e-6, 1e-4] {
                    for nu in [1e-6, 1e-4] {
                        for iterations in [2usize, 3] {
                            let cfg = GraphNerConfig {
                                alpha,
                                propagation: PropagationParams {
                                    mu,
                                    nu,
                                    iterations,
                                    self_anchor: 0.5,
                                },
                                ..GraphNerConfig::default()
                            };
                            let out = session.run(&cfg);
                            let (eval, _) =
                                eval_predictions(&split.test, &fold_gold, &out.predictions);
                            let f = eval.f_score();
                            if best.is_none_or(|(bf, _)| f > bf) {
                                best = Some((f, (alpha, mu, nu, iterations)));
                            }
                        }
                    }
                }
            }
            let (f, (alpha, mu, nu, iters)) = best.unwrap();
            println!(
                "{:<8} {:<18} {:>6} {:>8.0e} {:>8.0e} {:>6} {:>10.2}",
                corpus.profile.name,
                base_name,
                alpha,
                mu,
                nu,
                iters,
                f * 100.0
            );
        }
    }
    graphner_bench::finish(&opts);
}
