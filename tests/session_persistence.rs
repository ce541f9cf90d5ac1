//! Cross-crate integration for the staged pipeline and the model
//! persistence layer: a cached [`TestSession`] must reproduce the
//! one-shot `GraphNer::test` exactly, a saved model must reload into
//! byte-identical predictions, and a damaged model file must fail to
//! load with an error rather than panic or abort.

use graphner::banner::NerConfig;
use graphner::core::persist::{load_model, read_model, save_model, write_model, PersistError};
use graphner::core::{GraphFeatureSet, GraphNer, GraphNerConfig, TestSession};
use graphner::corpusgen::{generate, CorpusProfile};
use graphner::crf::TrainConfig;
use graphner::obs::{with_capture, SpanName};

fn quick_cfg() -> NerConfig {
    NerConfig {
        train: TrainConfig { max_iterations: 80, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn session_sweep_matches_one_shot_runs_and_extracts_posteriors_once() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let test = corpus.test.without_tags();

    // the Table III ablation rows, driven through one session
    let rows = [
        GraphNerConfig::default(),
        GraphNerConfig { k: 5, ..GraphNerConfig::default() },
        GraphNerConfig { feature_set: GraphFeatureSet::Lexical, ..GraphNerConfig::default() },
        GraphNerConfig { alpha: 0.3, ..GraphNerConfig::default() },
    ];
    let mut session = TestSession::new(&model, &test);
    let (staged, spans) =
        with_capture(|| rows.iter().map(|cfg| session.run(cfg)).collect::<Vec<_>>());

    // the acceptance criterion of the refactor: corpus posteriors are
    // extracted once for the whole sweep, not once per row
    let posterior_spans =
        spans.iter().filter(|s| s.name == SpanName::TestPosteriors.as_str()).count();
    assert_eq!(posterior_spans, 1, "posteriors must be cached across ablation rows");
    // three distinct (feature set, K) pairs → three graph builds
    let graph_spans = spans.iter().filter(|s| s.name == SpanName::TestGraph.as_str()).count();
    assert_eq!(graph_spans, 3);

    // every cached row is byte-identical to a fresh uncached model run
    for (cfg, out) in rows.iter().zip(&staged) {
        let fresh = model.reconfigured(cfg.clone()).test(&test);
        assert_eq!(out.predictions, fresh.predictions);
        assert_eq!(out.base_predictions, fresh.base_predictions);
        assert_eq!(out.stats.num_edges, fresh.stats.num_edges);
    }
}

#[test]
fn saved_model_reloads_to_identical_predictions() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let test = corpus.test.without_tags();
    let before = model.test(&test);

    let path = std::env::temp_dir().join("graphner-session-persistence.gner");
    save_model(&model, &path).expect("save");
    let loaded = load_model(&path).expect("load");
    let _ = std::fs::remove_file(&path);

    let after = loaded.test(&test);
    assert_eq!(before.predictions, after.predictions);
    assert_eq!(before.base_predictions, after.base_predictions);
    assert_eq!(loaded.num_labelled_vertices(), model.num_labelled_vertices());
    assert_eq!(loaded.transitions(), model.transitions());
}

#[test]
fn damaged_model_files_fail_to_load_without_panicking() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let mut bytes = Vec::new();
    write_model(&model, &mut bytes).expect("serialize");
    assert!(read_model(&mut bytes.as_slice()).is_ok());
    let step = (bytes.len() / 199).max(1);

    // every byte is needed: a prefix cuts some section mid-stream
    for cut in (0..bytes.len()).step_by(step) {
        assert!(read_model(&mut &bytes[..cut]).is_err(), "a {cut}-byte prefix loaded");
    }

    // a u64 rewritten to the largest accepted length, wherever it
    // lands: lengths are never trusted for allocation, so a lying
    // prefix runs out of bytes instead of aborting the process
    for at in (0..bytes.len() - 8).step_by(step) {
        let mut lying = bytes.clone();
        lying[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let _ = read_model(&mut lying.as_slice());
    }
}

#[test]
fn loading_validates_the_saved_configuration() {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    for cfg in [GraphNerConfig::table_iv("BC2GM", true), GraphNerConfig::table_iv("AML", false)] {
        let mut bytes = Vec::new();
        write_model(&model.reconfigured(cfg.clone()), &mut bytes).expect("serialize");
        let loaded = read_model(&mut bytes.as_slice()).expect("a Table IV model loads");
        assert_eq!(loaded.config(), &cfg);
    }

    // K = 0 would pass the file format but panic in the first kNN
    // build; the loader refuses it up front
    let broken = model.reconfigured(GraphNerConfig { k: 0, ..GraphNerConfig::default() });
    let mut bytes = Vec::new();
    write_model(&broken, &mut bytes).expect("serialize");
    match read_model(&mut bytes.as_slice()) {
        Err(PersistError::Format(msg)) => assert!(msg.contains("invalid configuration"), "{msg}"),
        other => panic!("a K = 0 model loaded: {:?}", other.err()),
    }
}
