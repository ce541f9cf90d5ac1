//! Table II — results on the (synthetic) AML corpus.
//!
//! Same systems as Table I on the AML profile: standardized HGNC-like
//! nomenclature, near-zero annotation noise, much lower gene density.
//! The reproduced shape: absolute scores substantially higher than on
//! BC2GM, GraphNER's improvements carried by precision.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::{
    mean_over_seeds, print_header, print_mean_row, reseeded, run_corpus_comparison,
    run_neural_baseline, RunOptions,
};
use graphner_corpusgen::{generate, CorpusProfile};

fn main() {
    let opts = RunOptions::from_args();
    let mut runs = Vec::new();
    for seed_run in 0..opts.seeds {
        let profile = reseeded(CorpusProfile::aml(), seed_run).scaled(opts.scale);
        graphner_obs::obs_summary!(
            "[seed {}/{}] AML profile, {} train / {} test sentences",
            seed_run + 1,
            opts.seeds,
            profile.train_sentences,
            profile.test_sentences
        );
        let corpus = generate(&profile);
        let mut systems = Vec::new();
        if opts.with_neural {
            systems.push(run_neural_baseline(&corpus, &opts));
        }
        let run = run_corpus_comparison(&corpus, &opts);
        systems.extend(run.systems);
        runs.push(systems);
    }
    let means = mean_over_seeds(&runs);

    print_header(&format!(
        "Table II: results on the AML corpus (synthetic profile, mean of {} seeds, scale {})",
        opts.seeds, opts.scale
    ));
    for row in &means {
        print_mean_row(row);
    }

    let find = |name: &str| means.iter().find(|m| m.name == name).unwrap();
    for (base, graph) in
        [("BANNER", "GraphNER (CRF=BANNER)"), ("BANNER-ChemDNER", "GraphNER (CRF=BANNER-ChemDNER)")]
    {
        let b = find(base);
        let g = find(graph);
        println!(
            "\nGraphNER vs {base}: ΔF = {:+.2}, ΔP = {:+.2}, ΔR = {:+.2}",
            (g.f_score - b.f_score) * 100.0,
            (g.precision - b.precision) * 100.0,
            (g.recall - b.recall) * 100.0
        );
    }
    graphner_bench::finish(&opts);
}
