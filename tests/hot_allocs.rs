//! Exact allocation counts on the seven `// hot:` roots.
//!
//! The root `[dev-dependencies]` switch on `graphner-obs/obs-alloc`, so
//! test builds run under the counting allocator and
//! [`allocations`](graphner::obs::alloc::allocations) counts every
//! allocator call. Each root runs twice on fixed inputs and the count
//! of the second, warm call is pinned exactly; the first call also pays
//! one-time lazy initialisations. The count sees every allocation
//! behind a call, however deep, so a `format!` in the featurizer counts
//! against `try_tag_batch` like one in its own body.
//!
//! The counter is process-wide and the worker pool allocates per
//! thread, so each counting test runs alone in a child process with
//! `GRAPHNER_THREADS=1` and `GRAPHNER_LOG=off`, re-executed the way
//! `tests/determinism.rs` does it.
//!
//! A pin that moves is a finding either way: a drop is a saving to
//! re-pin, a rise is an allocation a hot path gained. Beside the pins,
//! the scaling tests hold what the `// alloc:` comments claim in prose:
//! a sweep allocates per shard, never per vertex, and a lattice or a
//! Viterbi decode allocates per sentence, never per token.

#![allow(
    clippy::expect_used,
    reason = "test setup outside #[test] functions fails the test by panicking"
)]
#![allow(clippy::cast_possible_truncation, reason = "test inputs are small")]

use graphner::obs::alloc::allocations;

/// Allocator calls made by the second of two identical calls of `f`.
/// The result of each call is dropped outside the counted window, so
/// the returned buffers count and their frees do not matter.
fn warm_count<R>(mut f: impl FnMut() -> R) -> u64 {
    drop(f());
    let before = allocations();
    let out = f();
    let count = allocations() - before;
    drop(out);
    count
}

/// Seeded xorshift64 stream, so every input below is fixed.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.max(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The tests the child process runs, all `#[ignore]`d so a plain
/// `cargo test` skips them in its shared multi-threaded process.
mod pinned {
    use super::{warm_count, xorshift};
    use graphner::banner::NerConfig;
    use graphner::core::{GraphNer, GraphNerConfig, TestSession};
    use graphner::corpusgen::{generate, CorpusProfile};
    use graphner::crf::{viterbi_tags, ChainCrf, Order, SentenceFeatures, TrainConfig};
    use graphner::graph::{
        knn_inverted_index, propagate_partitioned, KnnGraph, LabelDist, Partition,
        PropagationParams, ShardSize, SparseVec,
    };
    use graphner::text::{Tagger, NUM_TAGS};

    /// `n` unit vectors of 12 features each over a 600-feature space.
    fn vectors(n: usize, seed: u64) -> Vec<SparseVec> {
        let mut next = xorshift(seed);
        (0..n)
            .map(|_| {
                let pairs = (0..12)
                    .map(|_| ((next() % 600) as u32, (next() % 1000) as f32 / 1000.0 + 0.001))
                    .collect();
                let mut v = SparseVec::from_pairs(pairs);
                v.normalize();
                v
            })
            .collect()
    }

    #[test]
    #[ignore = "spawned as a subprocess by hot_roots_allocate_exactly_their_pins"]
    fn knn_inverted_index_pins() {
        for (n, pin) in [(2_000, 5_381), (4_000, 8_037)] {
            let v = vectors(n, 7);
            let count = warm_count(|| knn_inverted_index(&v, 10));
            assert_eq!(count, pin, "knn_inverted_index over {n} vertices, k = 10");
        }
    }

    /// A seeded out-degree-8 graph, every tenth vertex labelled, and
    /// distinct initial beliefs on every vertex.
    fn propagation_input(n: usize) -> (KnnGraph, Vec<LabelDist>, Vec<Option<LabelDist>>) {
        let mut next = xorshift(n as u64);
        let adj =
            (0..n).map(|_| (0..8).map(|_| ((next() % n as u64) as u32, 0.5)).collect()).collect();
        let x = (0..n)
            .map(|i| {
                let a = (i % 7) as f64 / 10.0;
                [a, 0.3, 0.7 - a]
            })
            .collect();
        let x_ref = (0..n).map(|i| i.is_multiple_of(10).then_some([0.0, 0.0, 1.0])).collect();
        (KnnGraph::from_adjacency(adj, 8), x, x_ref)
    }

    /// Warm allocations of ten sharded sweeps (`propagate_partitioned`,
    /// so `sweep_shard` and `jacobi_update` run inside the count).
    fn sweep_count(n: usize, shard_vertices: usize) -> u64 {
        let (graph, x, x_ref) = propagation_input(n);
        let partition = Partition::new(&graph, ShardSize::Fixed(shard_vertices));
        let params = PropagationParams { iterations: 10, ..PropagationParams::default() };
        let mut beliefs = x.clone();
        warm_count(|| {
            beliefs.clone_from(&x);
            propagate_partitioned(&graph, &partition, &mut beliefs, &x_ref, &params, false)
        })
    }

    #[test]
    #[ignore = "spawned as a subprocess by hot_roots_allocate_exactly_their_pins"]
    fn propagation_pins_and_allocates_per_shard_not_per_vertex() {
        let twenty_small = sweep_count(20_000, 1_000);
        let twenty_large = sweep_count(40_000, 2_000);
        let forty_large = sweep_count(40_000, 1_000);
        assert_eq!(twenty_small, 278, "10 sweeps, 20k vertices, 20 shards");
        assert_eq!(forty_large, 488, "10 sweeps, 40k vertices, 40 shards");
        assert_eq!(twenty_large, twenty_small, "twice the vertices on the same 20 shards");
    }

    /// A first-order CRF over 50 observation features with seeded
    /// weights, and an `l`-token sentence of three features per token.
    fn crf_input(l: usize) -> (ChainCrf, SentenceFeatures) {
        let num_obs = 50;
        let mut next = xorshift(3);
        let len = ChainCrf::new(Order::One, num_obs).num_params();
        let params = (0..len).map(|_| (next() % 2000) as f64 / 1000.0 - 1.0).collect();
        let crf = ChainCrf::from_parts(Order::One, num_obs, params);
        let obs =
            (0..l).map(|_| (0..3).map(|_| (next() % num_obs as u64) as u32).collect()).collect();
        (crf, SentenceFeatures { obs, gold: None })
    }

    /// `exp(trans_w)` in the layout `ChainCrf::lattice` reads.
    fn exp_transitions(crf: &ChainCrf) -> Vec<f64> {
        let s = crf.num_states();
        let mut out = vec![0.0; s * s];
        for prev in 0..s {
            for &cur in crf.space().next_states(prev) {
                out[prev * s + cur as usize] = crf.trans_w(prev, cur as usize).exp();
            }
        }
        out
    }

    #[test]
    #[ignore = "spawned as a subprocess by hot_roots_allocate_exactly_their_pins"]
    fn crf_decodes_pin_and_allocate_per_sentence_not_per_token() {
        for l in [5, 50] {
            let (crf, sent) = crf_input(l);
            let exp_trans = exp_transitions(&crf);
            assert_eq!(warm_count(|| crf.lattice(&sent, &exp_trans)), 4, "lattice, {l} tokens");
            assert_eq!(warm_count(|| crf.viterbi(&sent)), 4, "viterbi, {l} tokens");
            let mut next = xorshift(l as u64);
            let node: Vec<[f64; NUM_TAGS]> =
                (0..l).map(|_| [(next() % 100) as f64 / 100.0, 0.2, 0.3]).collect();
            let trans = [[0.5, 0.2, 0.3], [0.3, 0.4, 0.3], [0.1, 0.1, 0.8]];
            assert_eq!(warm_count(|| viterbi_tags(&node, &trans)), 3, "viterbi_tags, {l} tokens");
        }
    }

    #[test]
    #[ignore = "spawned as a subprocess by hot_roots_allocate_exactly_their_pins"]
    fn tag_batch_pins() {
        let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
        let cfg = NerConfig {
            train: TrainConfig { max_iterations: 60, ..Default::default() },
            ..Default::default()
        };
        let (model, _) = GraphNer::train(&corpus.train, &cfg, None, GraphNerConfig::default());
        let unlabelled = corpus.test.without_tags();
        let tagger = TestSession::new(&model, &unlabelled).tagger(model.config());
        let sentences = &unlabelled.sentences;
        for (share, tokens, pin) in [(4, 393, 35_116), (2, 759, 68_137), (1, 1_454, 131_251)] {
            let batch = &sentences[..sentences.len() / share];
            let count = warm_count(|| tagger.try_tag_batch(batch).expect("clean batch"));
            assert_eq!(batch.iter().map(|s| s.len()).sum::<usize>(), tokens, "1/{share} batch");
            assert_eq!(count, pin, "try_tag_batch over {tokens} tokens");
        }
    }
}

/// The counting tests, each run alone in a fresh child process: the
/// pins need one pool thread, and no other test's thread starting or
/// exiting while they count.
const PINNED: [&str; 4] = [
    "pinned::crf_decodes_pin_and_allocate_per_sentence_not_per_token",
    "pinned::knn_inverted_index_pins",
    "pinned::propagation_pins_and_allocates_per_shard_not_per_vertex",
    "pinned::tag_batch_pins",
];

#[test]
fn hot_roots_allocate_exactly_their_pins() {
    assert!(graphner::obs::alloc::enabled(), "test builds must enable obs-alloc");
    let exe = std::env::current_exe().expect("test executable path");
    for name in PINNED {
        let out = std::process::Command::new(&exe)
            .args([name, "--exact", "--ignored", "--test-threads", "1"])
            .env("GRAPHNER_THREADS", "1")
            // a log line would count its formatting and, captured by
            // the harness, the growth of the capture buffer
            .env("GRAPHNER_LOG", "off")
            .output()
            .expect("spawn the counting subprocess");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{name}:\n{stdout}{}", String::from_utf8_lossy(&out.stderr));
        // a renamed child would otherwise pass by matching no test
        assert!(stdout.contains("test result: ok. 1 passed"), "{name}:\n{stdout}");
    }
}
