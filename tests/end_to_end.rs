//! Cross-crate integration: the full GraphNER pipeline on seeded
//! synthetic corpora.

use graphner::banner::NerConfig;
use graphner::core::{annotations_from_predictions, GraphNer, GraphNerConfig};
use graphner::corpusgen::{generate, CorpusProfile};
use graphner::crf::TrainConfig;
use graphner::eval::{evaluate, Evaluation};
use graphner::obs::{with_capture, AttrValue, SpanName};

fn quick_cfg() -> NerConfig {
    NerConfig {
        train: TrainConfig { max_iterations: 80, ..Default::default() },
        ..Default::default()
    }
}

/// `(TP, FP, FN)` of an evaluation's mention totals.
fn mention_counts(eval: &Evaluation) -> (usize, usize, usize) {
    (eval.totals.tp, eval.totals.fp(), eval.totals.fn_())
}

#[test]
fn graphner_is_competitive_with_base_crf_on_bc2gm_profile() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.03));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let (out, spans) = with_capture(|| model.test(&corpus.test.without_tags()));

    let base = evaluate(
        &annotations_from_predictions(&corpus.test, &out.base_predictions),
        &corpus.test_gold,
    );
    let graph =
        evaluate(&annotations_from_predictions(&corpus.test, &out.predictions), &corpus.test_gold);
    // both systems must be functional taggers
    assert!(base.f_score() > 0.7, "base F = {}", base.f_score());
    assert!(graph.f_score() > 0.7, "graph F = {}", graph.f_score());
    // GraphNER must not collapse relative to its base (the paper's
    // claim is improvement; at this tiny scale we assert no regression
    // beyond noise)
    assert!(
        graph.f_score() > base.f_score() - 0.03,
        "graph F {} fell far below base F {}",
        graph.f_score(),
        base.f_score()
    );

    // Exact pins: training, features, PMI, k-NN, propagation and decode
    // are all deterministic at any thread count, so any change to these
    // integers is a change to the pipeline's output. The candidate-pair
    // count — the pairs MaxScore scored in full — is read from the
    // `graph.knn` span: it is this call's increment of the process-wide
    // `knn.candidate_pairs` counter, which tests running concurrently in
    // this binary also advance. It is the exact guard on k-NN work: a
    // weaker bound or a lost early exit moves it.
    let knn = spans.iter().find(|s| s.name == SpanName::GraphKnn.as_str()).expect("graph.knn span");
    let candidate_pairs = match knn.attr("knn.candidate_pairs") {
        Some(AttrValue::U64(n)) => *n,
        other => panic!("knn.candidate_pairs attribute missing: {other:?}"),
    };
    assert_eq!(mention_counts(&base), (67, 8, 10), "base CRF mention TP/FP/FN");
    assert_eq!(mention_counts(&graph), (70, 9, 7), "GraphNER mention TP/FP/FN");
    assert_eq!((out.stats.num_vertices, out.stats.num_edges), (2181, 21810), "graph size");
    assert_eq!(candidate_pairs, 263_524, "k-NN candidate pairs");
}

#[test]
fn aml_profile_scores_above_bc2gm_profile() {
    // the paper: "performance ... substantially higher for the AML
    // corpus relative to the BC2GM corpus"
    let f_of = |profile: CorpusProfile| {
        let corpus = generate(&profile.scaled(0.03));
        let (model, _) =
            GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
        let out = model.test(&corpus.test.without_tags());
        evaluate(&annotations_from_predictions(&corpus.test, &out.predictions), &corpus.test_gold)
            .f_score()
    };
    let bc2 = f_of(CorpusProfile::bc2gm());
    let aml = f_of(CorpusProfile::aml());
    assert!(aml > bc2, "AML F {aml} should exceed BC2GM F {bc2}");
}

#[test]
fn propagation_report_surfaces_through_test_output() {
    use graphner::graph::PropagationParams;
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());

    // the paper's sweep budget runs exactly as configured, and at 3
    // sweeps the Jacobi iteration has not yet reached the residual
    // tolerance — `converged` is an observation, not an early exit
    let out = model.test(&corpus.test.without_tags());
    assert_eq!(out.propagation_iterations, model.config().propagation.iterations);
    assert!(!out.converged, "3 sweeps should not reach the tolerance");

    // a generous budget drives the residual below CONVERGENCE_TOL
    let generous = model.reconfigured(GraphNerConfig {
        propagation: PropagationParams { iterations: 200, ..GraphNerConfig::default().propagation },
        ..GraphNerConfig::default()
    });
    let out = generous.test(&corpus.test.without_tags());
    assert_eq!(out.propagation_iterations, 200);
    assert!(out.converged, "200 sweeps should converge");
}

#[test]
fn pipeline_is_deterministic_under_fixed_seed() {
    let run = || {
        let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
        let (model, _) =
            GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
        model.test(&corpus.test.without_tags()).predictions
    };
    assert_eq!(run(), run());
}

#[test]
fn graph_statistics_match_the_papers_shape() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.04));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let out = model.test(&corpus.test.without_tags());
    let s = &out.stats;
    // transductive setting: most vertices are labelled (paper: 77 %)
    assert!(s.pct_labelled > 0.5, "labelled {:.2}", s.pct_labelled);
    // positively labelled vertices are rare (paper: 8.5 %)
    assert!(s.pct_positive < 0.5 * s.pct_labelled);
    // out-degree bounded by K
    assert!(s.num_edges <= s.num_vertices * 10);
    // nearly weakly connected: the largest component dominates
    assert!(s.largest_component * 2 > s.num_vertices);
}

#[test]
fn aml_graph_has_fewer_positive_vertices_than_bc2gm() {
    // §III-D: 8.5 % positive (BC2GM) vs 1.75 % (AML)
    let positive_pct = |profile: CorpusProfile| {
        let corpus = generate(&profile.scaled(0.03));
        let (model, _) =
            GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
        model.test(&corpus.test.without_tags()).stats.pct_positive
    };
    let bc2 = positive_pct(CorpusProfile::bc2gm());
    let aml = positive_pct(CorpusProfile::aml());
    assert!(aml < bc2, "AML positive {aml:.3} should be below BC2GM {bc2:.3}");
}
