//! Figure 1's worked example: the `[tumor - 1]` vertex.
//!
//! The paper walks one token through Algorithm 1: in the labelled data,
//! "wilms tumor - 1" is a gene, but "tumor - 1 subclone" is not, so the
//! CRF prefers O for the "-" inside an unseen gene variant. Graph
//! propagation links `[tumor - 1]` to I-labelled neighbours such as
//! `[tumor - 3]` and flips the belief; the final Viterbi decode then
//! recovers the full mention.
//!
//! ```sh
//! cargo run --release --example worked_example
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
    let mk = |id: &str, text: &str, tags: Vec<BioTag>| Sentence::labelled(id, tokenize(text), tags);
    // Labelled data: "wilms tumor - <n>" genes in several contexts, and
    // the "tumor - <n> subclone" distractor where "-" is O.
    let mut sentences = vec![
        mk(
            "l0",
            "drug response was significant in wilms tumor - 3 positive patients .",
            vec![O, O, O, O, O, B, I, I, I, O, O, O],
        ),
        mk(
            "l1",
            "we observed the following mutations in wilms tumor - 3 .",
            vec![O, O, O, O, O, O, B, I, I, I, O],
        ),
        mk("l2", "expression of wilms tumor - 5 was low .", vec![O, O, B, I, I, I, O, O, O]),
        mk(
            "l3",
            "we did not observe this mutation in the patient ' s tumor - 9 subclone .",
            vec![O, O, O, O, O, O, O, O, O, O, O, O, O, O, O, O],
        ),
        mk(
            "l4",
            "this mutation was absent in the tumor - 7 subclone .",
            vec![O, O, O, O, O, O, O, O, O, O, O],
        ),
        mk("l5", "no mutation was found .", vec![O, O, O, O, O]),
    ];
    // pad with repeats so the CRF has enough signal
    for k in 0..3 {
        for s in sentences.clone() {
            let mut s2 = s.clone();
            s2.id = format!("{}r{k}", s.id);
            sentences.push(s2);
        }
    }
    let train = Corpus::from_sentences(sentences);

    let cfg = NerConfig {
        train: TrainConfig { max_iterations: 100, l2: 1.0, ..Default::default() },
        ..Default::default()
    };
    let graph_cfg = GraphNerConfig::builder().build().expect("defaults are valid");
    let (model, _) = GraphNer::train(&train, &cfg, None, graph_cfg);

    // Unlabelled test data: an unseen "wilms tumor - 1" variant, plus
    // the non-gene distractor.
    let test = Corpus::from_sentences(vec![
        Sentence::unlabelled("u0", tokenize("wilms tumor - 1 ( WT1 ) gene was highly expressed .")),
        Sentence::unlabelled(
            "u1",
            tokenize("we did not observe this mutation in the patient ' s tumor - 2 subclone ."),
        ),
    ]);

    // What does the CRF alone believe about each "-"?
    let post0 = model.base().posteriors(&test.sentences[0]);
    let post1 = model.base().posteriors(&test.sentences[1]);
    let dash0 = test.sentences[0].tokens.iter().position(|t| t == "-").unwrap();
    let dash1 = test.sentences[1].tokens.iter().rposition(|t| t == "-").unwrap();
    println!(
        "CRF posterior for '-' in the gene sentence      (B,I,O) = ({:.2},{:.2},{:.2})",
        post0[dash0][0], post0[dash0][1], post0[dash0][2]
    );
    println!(
        "CRF posterior for '-' in the subclone sentence  (B,I,O) = ({:.2},{:.2},{:.2})",
        post1[dash1][0], post1[dash1][1], post1[dash1][2]
    );

    // Full GraphNER test: propagation + combination + Viterbi.
    let out = model.test(&test);
    for (sentence, tags) in test.sentences.iter().zip(&out.predictions) {
        println!("\n{}", sentence.text());
        for (tok, tag) in sentence.tokens.iter().zip(tags) {
            print!("{tok}/{tag} ");
        }
        println!();
    }

    let gene_dash = out.predictions[0][dash0];
    let subclone_dash = out.predictions[1][dash1];
    println!("\nafter GraphNER: gene '-' = {gene_dash}, subclone '-' = {subclone_dash}");
    assert_eq!(gene_dash, I, "the gene-internal dash must be I");
    assert_eq!(subclone_dash, O, "the subclone dash must stay O");
    println!("Figure 1's correction reproduced.");
}
