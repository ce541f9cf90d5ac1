//! Quickstart: train GraphNER on a handful of labelled sentences and
//! tag new text.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "examples print their results and stop at the first error"
)]

use graphner::prelude::*;
use BioTag::*;

fn main() {
    // A miniature labelled corpus. In practice this is the BC2GM
    // training set; tags follow the BIO scheme (B/I = gene mention).
    let mk = |id: &str, text: &str, tags: Vec<BioTag>| Sentence::labelled(id, tokenize(text), tags);
    let train = Corpus::from_sentences(vec![
        mk("s0", "the WT1 gene was expressed", vec![O, B, O, O, O]),
        mk("s1", "mutation of SH2B3 was detected", vec![O, O, B, O, O]),
        mk("s2", "the KRAS gene was mutated", vec![O, B, O, O, O]),
        mk("s3", "expression of TP53 was low", vec![O, O, B, O, O]),
        mk("s4", "the patient was treated", vec![O, O, O, O]),
        mk("s5", "no mutation was found", vec![O, O, O, O]),
    ]);

    // TRAIN: fits the base CRF (a BANNER-style feature-rich tagger) and
    // the reference label distributions over training 3-grams.
    // `validate` checks the configuration up front (k = 0, a
    // non-simplex alpha, zero iterations, … are typed errors).
    let graph_cfg = GraphNerConfig::default();
    graph_cfg.validate().expect("Table IV defaults are valid");
    let (model, report) = GraphNer::train(
        &train,
        &NerConfig::default(),
        None, // Some(resources) would build the BANNER-ChemDNER variant
        graph_cfg,
    );
    println!(
        "base CRF trained: {} L-BFGS iterations, objective {:.3}",
        report.report.iterations, report.report.objective
    );

    // TEST: transductive — the unlabelled test text itself joins the
    // similarity graph.
    let test = Corpus::from_sentences(vec![
        Sentence::unlabelled("t0", tokenize("the FLT3 gene was expressed")),
        Sentence::unlabelled("t1", tokenize("no mutation was found")),
    ]);
    let out = model.test(&test);

    for (sentence, tags) in test.sentences.iter().zip(&out.predictions) {
        println!("\n{}", sentence.text());
        for (tok, tag) in sentence.tokens.iter().zip(tags) {
            print!("{tok}/{tag} ");
        }
        println!();
        for m in tags_to_mentions(tags) {
            println!("  gene mention: {:?}", sentence.mention_text(&m));
        }
    }
    println!(
        "\ngraph: {} vertices, {} edges, {:.0}% labelled",
        out.stats.num_vertices,
        out.stats.num_edges,
        out.stats.pct_labelled * 100.0
    );
}
