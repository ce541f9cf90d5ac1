//! The perfsuite stage rows, folded from a real `GraphNer::test` run:
//! every TEST stage span is recorded exactly once per call, so a cache
//! that skipped a stage on a repeated call would show here instead of
//! silently shrinking a gated row.

use graphner_bench::perf::{span_stages, UNATTRIBUTED_STAGE};
use graphner_bench::RunOptions;
use graphner_core::{GraphNer, GraphNerConfig};
use graphner_corpusgen::{generate, CorpusProfile};
use graphner_obs::{with_capture, SpanName, Stopwatch};

#[test]
fn repeated_test_calls_record_every_stage_once_and_fold_into_rows() {
    let scale = 0.02;
    let corpus = generate(&CorpusProfile::bc2gm().scaled(scale));
    let opts = RunOptions { scale, ..RunOptions::default() };
    let (gner, _) =
        GraphNer::train(&corpus.train, &opts.ner_config(), None, GraphNerConfig::default());
    let test = corpus.test.without_tags();

    let mut captures = Vec::new();
    let mut totals = Vec::new();
    for _ in 0..2 {
        let watch = Stopwatch::start();
        let (_, spans) = with_capture(|| gner.test(&test));
        totals.push(watch.elapsed_seconds());
        captures.push(spans);
    }

    let stages = [
        SpanName::TestPosteriors,
        SpanName::TestGraph,
        SpanName::TestAverage,
        SpanName::TestPropagate,
        SpanName::TestDecode,
    ];
    for (i, spans) in captures.iter().enumerate() {
        for stage in stages {
            let n = spans.iter().filter(|s| s.name == stage.as_str()).count();
            assert_eq!(n, 1, "iteration {i}: {} recorded {n} times", stage.as_str());
        }
    }

    let rows = span_stages(&captures, &totals);
    for stage in stages {
        assert!(rows.iter().any(|r| r.name == stage.as_str()), "no {} row", stage.as_str());
    }
    let unattributed = rows.iter().find(|r| r.name == UNATTRIBUTED_STAGE).expect("unattributed");
    assert!(unattributed.median_seconds >= 0.0, "{}", unattributed.median_seconds);
}
