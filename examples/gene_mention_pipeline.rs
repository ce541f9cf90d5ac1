//! The full evaluation pipeline on a synthetic BC2GM-profile corpus:
//! generate, train BANNER and GraphNER, score both with the BioCreative
//! II evaluator, and run a significance test — a miniature of the
//! paper's Table I + Table V experiment.
//!
//! ```sh
//! cargo run --release --example gene_mention_pipeline
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "examples print their results and stop at the first error"
)]

use graphner::eval::{sigf, Metric};
use graphner::prelude::*;

fn main() {
    // a small instance of the BC2GM stand-in corpus (2 % of paper size)
    let profile = CorpusProfile::bc2gm().scaled(0.05);
    println!(
        "generating {}: {} train / {} test sentences",
        profile.name, profile.train_sentences, profile.test_sentences
    );
    let corpus = generate(&profile);

    let (model, _) = GraphNer::train(
        &corpus.train,
        &NerConfig::default(),
        None,
        GraphNerConfig::table_iv("BC2GM", false),
    );
    let out = model.test(&corpus.test.without_tags());

    let base_det = annotations_from_predictions(&corpus.test, &out.base_predictions);
    let graph_det = annotations_from_predictions(&corpus.test, &out.predictions);
    let base_eval = evaluate(&base_det, &corpus.test_gold);
    let graph_eval = evaluate(&graph_det, &corpus.test_gold);

    println!("\n{:<12} {:>10} {:>10} {:>10}", "system", "P(%)", "R(%)", "F(%)");
    for (name, e) in [("BANNER", &base_eval), ("GraphNER", &graph_eval)] {
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.2}",
            name,
            e.precision() * 100.0,
            e.recall() * 100.0,
            e.f_score() * 100.0
        );
    }

    let test = sigf(&base_eval, &graph_eval, Metric::FScore, 10_000, 7);
    println!(
        "\nsigf (F-score, 10 000 shuffles): observed |ΔF| = {:.4}, p = {:.4}",
        test.observed_diff, test.p_value
    );

    println!(
        "\ngraph: {} vertices ({:.1}% labelled, {:.2}% positive), {} weakly connected component(s)",
        out.stats.num_vertices,
        out.stats.pct_labelled * 100.0,
        out.stats.pct_positive * 100.0,
        out.stats.components
    );
    println!(
        "timings: posteriors {:.2}s, graph {:.2}s, propagate {:.3}s, decode {:.3}s",
        out.timings.posterior_seconds,
        out.timings.graph_seconds,
        out.timings.propagate_seconds,
        out.timings.decode_seconds
    );
}
