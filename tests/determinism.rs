//! Determinism regression: the transductive TEST procedure must be a
//! pure function of (trained model, test corpus, configuration).
//!
//! The model is trained **once** — L-BFGS training parallelizes its
//! gradient reduction, so run-to-run weight bits are not guaranteed —
//! and then tested repeatedly. Everything downstream of training
//! (posterior extraction, PMI vectors, k-NN construction, propagation,
//! decoding, statistics) iterates in deterministic order, so two fresh
//! sessions over the same model must agree byte-for-byte on every
//! output except wall-clock timings.

#![allow(
    clippy::expect_used,
    reason = "test setup outside #[test] functions fails the test by panicking"
)]

use graphner::banner::NerConfig;
use graphner::core::{
    GraphFeatureSet, GraphNer, GraphNerConfig, ShardSize, SweepSchedule, TestOutput, TestSession,
};
use graphner::corpusgen::{generate, CorpusProfile};
use graphner::crf::TrainConfig;

fn quick_cfg() -> NerConfig {
    NerConfig {
        train: TrainConfig { max_iterations: 60, ..Default::default() },
        ..Default::default()
    }
}

/// The Table IV defaults under a given sweep schedule, validated.
fn scheduled(shard_size: ShardSize, active_set: bool) -> GraphNerConfig {
    let cfg = GraphNerConfig {
        schedule: SweepSchedule { shard_size, active_set },
        ..GraphNerConfig::default()
    };
    cfg.validate().expect("valid config");
    cfg
}

/// Canonical byte rendering of a [`TestOutput`], excluding the timing
/// fields (wall clock is the one legitimately nondeterministic part).
fn canonical(out: &TestOutput) -> String {
    format!(
        "predictions={:?}\nbase_predictions={:?}\nstats={:?}\niterations={}\nconverged={}\n",
        out.predictions, out.base_predictions, out.stats, out.propagation_iterations, out.converged
    )
}

#[test]
fn two_fresh_sessions_produce_byte_identical_output() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let unlabelled = corpus.test.without_tags();

    let out_a = TestSession::new(&model, &unlabelled).run(model.config());
    let out_b = TestSession::new(&model, &unlabelled).run(model.config());
    assert_eq!(canonical(&out_a), canonical(&out_b));

    // a session reusing its cached artifacts must agree with a fresh one
    let mut session = TestSession::new(&model, &unlabelled);
    let first = session.run(model.config());
    let cached = session.run(model.config());
    assert_eq!(canonical(&first), canonical(&out_a));
    assert_eq!(canonical(&cached), canonical(&out_a));
}

/// Train + test + a small ablation sweep, rendered canonically.
///
/// This is the workload both halves of the thread-invariance check run:
/// the `GRAPHNER_THREADS=1` child and the `GRAPHNER_THREADS=4` child
/// must produce byte-identical dumps, which covers CRF training
/// (parallel gradient reduction), posterior extraction, k-NN
/// construction, propagation, decoding, and the session cache — for all
/// three vertex representations, so the parallel feature-table build and
/// its ordered merge are compared too.
fn full_pipeline_dump() -> String {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, report) =
        GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let unlabelled = corpus.test.without_tags();
    let mut dump = format!(
        "train_iterations={}\ntrain_objective={:?}\n",
        report.report.iterations, report.report.objective
    );
    let mut session = TestSession::new(&model, &unlabelled);
    dump.push_str(&canonical(&session.run(model.config())));
    let variants = [
        GraphNerConfig { k: 5, ..GraphNerConfig::default() },
        GraphNerConfig { alpha: 0.5, ..GraphNerConfig::default() },
        // the other two vertex representations: each reads the feature
        // table through its own path (a Lexical table of its own; MI
        // scores from a Viterbi pass over the shared table)
        GraphNerConfig { feature_set: GraphFeatureSet::Lexical, ..GraphNerConfig::default() },
        GraphNerConfig {
            feature_set: GraphFeatureSet::MiThreshold(0.005),
            ..GraphNerConfig::default()
        },
        // sweep-schedule rows: a deliberately awkward fixed shard size,
        // and the active-set scheduler — both must be thread-invariant
        scheduled(ShardSize::Fixed(7), false),
        scheduled(ShardSize::Auto, true),
    ];
    for cfg in &variants {
        dump.push_str("ablation_row:\n");
        dump.push_str(&canonical(&session.run(cfg)));
    }
    dump
}

/// Child half of the thread-invariance check: run under a specific
/// `GRAPHNER_THREADS` and write the canonical pipeline dump to the path
/// named by `GRAPHNER_DUMP_PATH`. Ignored by default; the parent test
/// below invokes it explicitly via the test harness.
#[test]
#[ignore = "spawned as a subprocess by thread_count_invariance"]
fn dump_canonical_outputs() {
    let path = std::env::var("GRAPHNER_DUMP_PATH")
        .expect("GRAPHNER_DUMP_PATH must be set when running the dump half");
    std::fs::write(&path, full_pipeline_dump()).expect("write canonical dump");
}

/// The pool reads `GRAPHNER_THREADS` once at first use, so exercising
/// two pool sizes requires two processes. Each child runs the full
/// train + test + ablation pipeline and dumps its canonical outputs;
/// the dumps must match byte-for-byte.
#[test]
fn thread_count_invariance_byte_identical_across_pool_sizes() {
    let exe = std::env::current_exe().expect("test executable path");
    let mut dumps = Vec::new();
    for threads in ["1", "4"] {
        let path = std::env::temp_dir()
            .join(format!("graphner-det-{}-t{threads}.txt", std::process::id()));
        let status = std::process::Command::new(&exe)
            .args(["dump_canonical_outputs", "--exact", "--ignored", "--test-threads", "1"])
            .env("GRAPHNER_THREADS", threads)
            .env("GRAPHNER_DUMP_PATH", &path)
            .status()
            .expect("spawn dump subprocess");
        assert!(status.success(), "dump subprocess failed for GRAPHNER_THREADS={threads}");
        let dump = std::fs::read_to_string(&path).expect("read canonical dump");
        let _ = std::fs::remove_file(&path);
        assert!(dump.contains("predictions="), "dump for GRAPHNER_THREADS={threads} looks empty");
        dumps.push(dump);
    }
    assert_eq!(dumps[0], dumps[1], "pipeline outputs must be byte-identical at 1 and 4 threads");
}

/// Child half of the trace byte-identity check: run train + test under
/// the environment the parent sets (single-thread pool, logical trace
/// clock), export the whole span registry as Chrome-trace JSON, and
/// write it to `GRAPHNER_DUMP_PATH`.
#[test]
#[ignore = "spawned as a subprocess by logical_clock_trace_is_byte_identical"]
fn dump_logical_trace() {
    let path = std::env::var("GRAPHNER_DUMP_PATH")
        .expect("GRAPHNER_DUMP_PATH must be set when running the trace dump half");
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let unlabelled = corpus.test.without_tags();
    let _ = TestSession::new(&model, &unlabelled).run(model.config());
    let spans = graphner::obs::span::drain();
    assert!(!spans.is_empty(), "pipeline run must leave spans in the registry");
    let json = graphner::obs::chrome_trace_json(&spans, graphner::obs::TraceClock::from_env());
    std::fs::write(&path, json).expect("write trace dump");
}

/// With `GRAPHNER_TRACE_CLOCK=logical` timestamps are registry sequence
/// numbers instead of wall-clock reads, and `GRAPHNER_THREADS=1` pins
/// span ordering, so two identical runs must serialize byte-identical
/// trace documents — the trace export adds no nondeterminism of its
/// own. (Training weight bits are themselves deterministic at a fixed
/// thread count, per the thread-invariance test above.)
#[test]
fn logical_clock_trace_is_byte_identical_across_runs() {
    let exe = std::env::current_exe().expect("test executable path");
    let mut dumps = Vec::new();
    for run in 0..2 {
        let path =
            std::env::temp_dir().join(format!("graphner-trace-{}-r{run}.json", std::process::id()));
        let status = std::process::Command::new(&exe)
            .args(["dump_logical_trace", "--exact", "--ignored", "--test-threads", "1"])
            .env("GRAPHNER_THREADS", "1")
            .env("GRAPHNER_TRACE_CLOCK", "logical")
            .env("GRAPHNER_DUMP_PATH", &path)
            .status()
            .expect("spawn trace dump subprocess");
        assert!(status.success(), "trace dump subprocess failed on run {run}");
        let dump = std::fs::read_to_string(&path).expect("read trace dump");
        let _ = std::fs::remove_file(&path);
        assert!(dump.contains("\"traceEvents\""), "run {run} produced no trace document");
        assert!(dump.contains("crf.train"), "run {run} trace is missing the training span");
        dumps.push(dump);
    }
    assert_eq!(dumps[0], dumps[1], "logical-clock traces must be byte-identical across runs");
}

/// The shard size is a pure execution knob: any fixed size (or auto)
/// must reproduce the default run's predictions, beliefs, and
/// convergence byte-for-byte, with only the partition-shape statistics
/// differing.
#[test]
fn shard_size_never_changes_pipeline_output() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let unlabelled = corpus.test.without_tags();
    let mut session = TestSession::new(&model, &unlabelled);
    let baseline = session.run(model.config());
    for size in [ShardSize::Fixed(1), ShardSize::Fixed(7), ShardSize::Fixed(4096)] {
        let cfg = scheduled(size, false);
        let out = session.run(&cfg);
        assert_eq!(out.predictions, baseline.predictions, "predictions changed under {size:?}");
        assert_eq!(
            out.base_predictions, baseline.base_predictions,
            "base predictions changed under {size:?}"
        );
        assert_eq!(out.propagation_iterations, baseline.propagation_iterations);
        assert_eq!(out.converged, baseline.converged);
    }
}

/// The active-set scheduler may skip converged shards but is itself
/// deterministic: two sessions running it must agree byte-for-byte.
#[test]
fn active_set_runs_are_reproducible() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let unlabelled = corpus.test.without_tags();
    let cfg = scheduled(ShardSize::Fixed(64), true);
    let out_a = TestSession::new(&model, &unlabelled).run(&cfg);
    let out_b = TestSession::new(&model, &unlabelled).run(&cfg);
    assert_eq!(canonical(&out_a), canonical(&out_b));
}

#[test]
fn ablation_sweep_rows_are_reproducible() {
    let corpus = generate(&CorpusProfile::aml().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let unlabelled = corpus.test.without_tags();
    let variants = [
        GraphNerConfig { k: 5, ..GraphNerConfig::default() },
        GraphNerConfig { alpha: 0.5, ..GraphNerConfig::default() },
    ];
    // the same row computed through a shared session (cached posteriors
    // and vectors) and through an isolated session must be identical
    let mut shared = TestSession::new(&model, &unlabelled);
    for cfg in &variants {
        let via_shared = shared.run(cfg);
        let via_fresh = TestSession::new(&model, &unlabelled).run(cfg);
        assert_eq!(canonical(&via_shared), canonical(&via_fresh));
    }
}
