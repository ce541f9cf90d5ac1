//! Using GraphNER on your own documents: tokenize raw text, train on a
//! hand-labelled mini corpus, tag new abstracts, and export the
//! detections in the BioCreative II annotation format.
//!
//! ```sh
//! cargo run --release --example custom_corpus
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "examples print their results and stop at the first error"
)]

use graphner::prelude::*;

fn main() {
    // Hand-labelled training data: mark gene mentions by token span.
    // (In a real project these come from an annotation tool.)
    let labelled: Vec<(&str, Vec<(usize, usize)>)> = vec![
        ("Overexpression of MYC drives proliferation.", vec![(2, 3)]),
        ("The BRCA1 gene is linked to hereditary breast cancer.", vec![(1, 2)]),
        ("Loss of PTEN was frequent in these tumors.", vec![(2, 3)]),
        ("We sequenced EGFR and KRAS in all samples.", vec![(2, 3), (4, 5)]),
        ("No genetic alterations were identified.", vec![]),
        ("Patients received standard chemotherapy.", vec![]),
        ("The BRCA2 gene was also screened.", vec![(1, 2)]),
        ("Activation of JAK2 was confirmed by sequencing.", vec![(2, 3)]),
    ];
    let train = Corpus::from_sentences(
        labelled
            .into_iter()
            .enumerate()
            .map(|(i, (text, spans))| {
                let tokens = tokenize(text);
                let mentions: Vec<Mention> =
                    spans.into_iter().map(|(s, e)| Mention::new(s, e)).collect();
                let tags = mentions_to_tags(&mentions, tokens.len());
                Sentence::labelled(format!("train{i}"), tokens, tags)
            })
            .collect(),
    );

    let graph_cfg = GraphNerConfig::default();
    graph_cfg.validate().expect("defaults are valid");
    let (model, _) = GraphNer::train(&train, &NerConfig::default(), None, graph_cfg);

    // New, unlabelled abstracts.
    let documents = [
        "We found that TP53 and MYC were co-amplified.",
        "Mutations in JAK2 were absent from the control cohort.",
        "The patients were treated at three centers.",
    ];
    let test = Corpus::from_sentences(
        documents
            .iter()
            .enumerate()
            .map(|(i, text)| Sentence::unlabelled(format!("doc{i}"), tokenize(text)))
            .collect(),
    );

    let out = model.test(&test);
    println!("tagged documents:");
    for (sentence, tags) in test.sentences.iter().zip(&out.predictions) {
        println!("\n  {}", sentence.text());
        for m in tags_to_mentions(tags) {
            println!("    gene: {:?} (tokens {}..{})", sentence.mention_text(&m), m.start, m.end);
        }
    }

    // Export in the BC2GM GENE-file format (space-free char offsets).
    let annotations = annotations_from_predictions(&test, &out.predictions);
    println!("\nBC2-format GENE file:\n{}", annotations.gene_file());
}
