//! Table V — significance testing of the results with sigf.
//!
//! Runs the eight null hypotheses of the paper through the
//! approximate-randomization test (10 000 shuffles): F-score on both
//! corpora for both base models, plus recall and precision on AML. The
//! reproduced shape: F-score differences significant on BC2GM;
//! precision differences significant on AML while recall differences
//! are not.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::{run_corpus_comparison, RunOptions};
use graphner_corpusgen::{generate, CorpusProfile};
use graphner_eval::{sigf, Metric};

fn main() {
    let opts = RunOptions::from_args();
    println!(
        "\n=== Table V: null hypotheses tested with sigf (10 000 repetitions, scale {}) ===",
        opts.scale
    );
    println!("{:<86} {:>10}", "null hypothesis", "p-value");

    for profile in [CorpusProfile::bc2gm(), CorpusProfile::aml()] {
        let corpus = generate(&profile.scaled(opts.scale));
        let run = run_corpus_comparison(&corpus, &opts);
        let sys = |name: &str| run.systems.iter().find(|s| s.name == name).unwrap();

        let pairs = [
            ("BANNER", "GraphNER (CRF=BANNER)"),
            ("BANNER-ChemDNER", "GraphNER (CRF=BANNER-ChemDNER)"),
        ];
        for (base, graph) in pairs {
            let metrics: &[Metric] = if corpus.profile.name == "AML" {
                &[Metric::FScore, Metric::Recall, Metric::Precision]
            } else {
                &[Metric::FScore]
            };
            for &metric in metrics {
                let r = sigf(&sys(base).eval, &sys(graph).eval, metric, 10_000, 0x516F);
                println!(
                    "{:<86} {:>10}  (observed |Δ| = {:.4})",
                    format!(
                        "{base} and GraphNER with {base} has the same {} on {} corpus",
                        metric.name(),
                        corpus.profile.name
                    ),
                    format_p(r.p_value),
                    r.observed_diff
                );
            }
        }
    }
    graphner_bench::finish(&opts);
}

fn format_p(p: f64) -> String {
    if p < 1e-4 {
        "< 1e-4".to_string()
    } else {
        format!("{p:.4}")
    }
}
