//! Table I — results on the (synthetic) BC2GM corpus.
//!
//! Rows: LSTM-CRF (optional, `--with-neural`), BANNER,
//! BANNER-ChemDNER, and GraphNER over each CRF baseline, averaged over
//! `--seeds` generator seeds. The reproduced shape: GraphNER improves
//! both baselines, with the gain carried by precision; the ChemDNER
//! variant beats plain BANNER.

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
        let profile = reseeded(CorpusProfile::bc2gm(), seed_run).scaled(opts.scale);
        graphner_obs::obs_summary!(
            "[seed {}/{}] BC2GM profile, {} train / {} test sentences",
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
        "Table I: results on the BC2GM corpus (synthetic profile, mean of {} seeds, scale {})",
        opts.seeds, opts.scale
    ));
    for row in &means {
        print_mean_row(row);
    }

    let find = |name: &str| means.iter().find(|m| m.name == name).unwrap();
    let banner = find("BANNER");
    let g_banner = find("GraphNER (CRF=BANNER)");
    let chem = find("BANNER-ChemDNER");
    let g_chem = find("GraphNER (CRF=BANNER-ChemDNER)");
    println!();
    println!(
        "GraphNER vs BANNER:          ΔF = {:+.2}, ΔP = {:+.2}",
        (g_banner.f_score - banner.f_score) * 100.0,
        (g_banner.precision - banner.precision) * 100.0
    );
    println!(
        "GraphNER vs BANNER-ChemDNER: ΔF = {:+.2}, ΔP = {:+.2}",
        (g_chem.f_score - chem.f_score) * 100.0,
        (g_chem.precision - chem.precision) * 100.0
    );
    graphner_bench::finish(&opts);
}
