//! Cross-crate integration: the BC2GM annotation format and evaluator
//! compose correctly with the corpus generator.

#![allow(clippy::float_cmp, reason = "a perfect score is exactly 1.0, so the pins compare exactly")]

use graphner::corpusgen::{generate, CorpusProfile};
use graphner::eval::evaluate;
use graphner::text::AnnotationSet;

#[test]
fn gold_scored_against_itself_is_perfect() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let gold = &corpus.test_gold;
    let eval = evaluate(gold, gold);
    assert_eq!(eval.precision(), 1.0);
    assert_eq!(eval.recall(), 1.0);
    assert_eq!(eval.f_score(), 1.0);
    assert_eq!(eval.totals.fp(), 0);
    assert_eq!(eval.totals.fn_(), 0);
}

#[test]
fn gene_file_serialization_round_trips_through_the_evaluator() {
    let corpus = generate(&CorpusProfile::aml().scaled(0.02));
    let file = corpus.test_gold.gene_file();
    let mut reparsed = AnnotationSet::new();
    reparsed.parse_gene_file(&file);
    assert_eq!(reparsed.num_primary(), corpus.test_gold.num_primary());
    let eval = evaluate(&reparsed, &corpus.test_gold);
    assert_eq!(eval.f_score(), 1.0, "round-tripped annotations must score perfectly");
}

#[test]
fn alternatives_make_scoring_lenient_but_never_stricter() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    // score the gold's primaries against a gold set with alternatives
    // stripped: must still be perfect (alternatives only add leniency)
    let mut strict = corpus.test_gold.clone();
    strict.alternatives.clear();
    let eval = evaluate(&strict, &corpus.test_gold);
    assert_eq!(eval.f_score(), 1.0);
}

#[test]
fn offsets_in_generated_annotations_align_with_token_boundaries() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    for sentence in &corpus.test.sentences {
        if let Some(anns) = corpus.test_gold.primary.get(&sentence.id) {
            for ann in anns {
                let m = sentence
                    .offsets_to_mention(ann.first, ann.last)
                    .unwrap_or_else(|| panic!("misaligned offsets in {}", sentence.id));
                assert_eq!(sentence.mention_text(&m), ann.text);
            }
        }
    }
}
