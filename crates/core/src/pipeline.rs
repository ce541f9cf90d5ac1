//! Staged test pipeline with a session-level artifact cache.
//!
//! Algorithm 1's TEST procedure decomposes into five stages, each a
//! struct whose `run` consumes and produces *named artifacts*:
//!
//! ```text
//! PosteriorStage ─▶ CorpusPosteriors ─┬─▶ AverageStage ─▶ VertexBeliefs
//! GraphStage     ─▶ KnnGraph ─────────┤
//!                                     ├─▶ PropagateStage ─▶ VertexBeliefs
//!                                     └─▶ DecodeStage ─▶ predictions
//! ```
//!
//! [`GraphNer::test`] is a thin driver over [`TestSession`], which owns
//! the artifacts. The point of the session is the ablation sweeps
//! (Tables III and IV): every row of those tables varies only the graph
//! or propagation hyper-parameters, yet the monolithic `test` recomputed
//! the CRF posteriors over `D_l ∪ D_u` — by far the dominant cost — and
//! the PMI vectors for every row. A session caches
//!
//! * the feature table of `D_l ∪ D_u` ([`CorpusFeatures`]): the model's
//!   train table extended with `D_u`, so each token is featurized once
//!   per session and posteriors, the MI filter and the All / `MI > τ`
//!   graphs read integer ids from it,
//! * the corpus posteriors (config-independent),
//! * the grown interner (its content is feature-set-independent),
//! * PMI vertex vectors per [`GraphFeatureSet`],
//! * k-NN graphs per (feature set, K),
//! * the averaged vertex beliefs and the dense `X_ref` slice,
//!
//! and each [`TestSession::run`] reuses whatever the requested
//! configuration allows. Stage spans (the `Test*` [`SpanName`]s) are
//! recorded only when a stage actually computes, so the per-row
//! [`TestTimings`] reflect real work: a cached stage contributes zero
//! seconds.

#![warn(clippy::cast_possible_truncation)]

use crate::check;
use crate::config::{GraphFeatureSet, GraphNerConfig};
use crate::graphbuild::{build_vertex_vectors, knn_from_vectors, CorpusFeatures};
use crate::model::{empirical_transitions, GraphNer, TestOutput};
use crate::stats::GraphStats;
use crate::timings::TestTimings;
use graphner_banner::NerModel;
use graphner_crf::viterbi_tags;
use graphner_graph::{propagate_partitioned, KnnGraph, LabelDist, Partition, SparseVec, UNIFORM};
use graphner_obs::{attr, counter, obs_summary, span, with_capture, SpanName};
use graphner_text::{
    check_posteriors_finite, validate_sentences, BioTag, Corpus, Sentence, TagError, Tagger,
    TrigramInterner, NUM_TAGS,
};
use rayon::prelude::*;
use rustc_hash::FxHashMap;

/// Per-vertex label beliefs, indexed by interner vertex id — the `X`
/// of Algorithm 1, produced by [`AverageStage`] and refined in place by
/// [`PropagateStage`].
pub type VertexBeliefs = Vec<LabelDist>;

/// CRF posteriors over `D_l ∪ D_u`, in corpus order (train first).
#[derive(Clone, Debug)]
pub struct CorpusPosteriors {
    /// One posterior row per token, one inner vec per sentence.
    pub per_sentence: Vec<Vec<LabelDist>>,
    /// Number of leading train sentences.
    pub num_train: usize,
}

impl CorpusPosteriors {
    /// The test-sentence slice (`D_u`).
    pub fn test(&self) -> &[Vec<LabelDist>] {
        &self.per_sentence[self.num_train..]
    }
}

/// The sentences the transductive procedure ranges over: `D_l ∪ D_u`
/// in a fixed order (train first), shared by every stage.
fn all_sentences<'s>(model: &'s GraphNer, test: &'s Corpus) -> Vec<&'s Sentence> {
    model.train_corpus.sentences.iter().chain(test.sentences.iter()).collect()
}

/// The feature table of `D_l ∪ D_u`: the model's train table extended
/// with the test sentences, so only `D_u` is extracted.
fn corpus_features(model: &GraphNer, test: &Corpus) -> CorpusFeatures {
    let test: Vec<&Sentence> = test.sentences.iter().collect();
    CorpusFeatures::extend(&model.base, &model.train_features, &test)
}

/// Line 5: CRF posterior extraction over `D_l ∪ D_u`.
pub struct PosteriorStage;

impl PosteriorStage {
    /// Run the base CRF's forward-backward over every sentence (rayon
    /// over sentences). One-shot form of [`PosteriorStage::run_on`]: it
    /// featurizes `D_u` first.
    pub fn run(model: &GraphNer, test: &Corpus) -> CorpusPosteriors {
        PosteriorStage::run_on(model, &corpus_features(model, test))
    }

    /// Run the base CRF's forward-backward over every sentence of
    /// `features`, the feature table of `D_l ∪ D_u`.
    pub fn run_on(model: &GraphNer, features: &CorpusFeatures) -> CorpusPosteriors {
        let per_sentence: Vec<Vec<LabelDist>> = (0..features.table.num_sentences())
            .into_par_iter()
            .map(|s| model.base.posteriors_features(&features.sentence(s)))
            .collect();
        if cfg!(debug_assertions) {
            for rows in &per_sentence {
                check::assert_distributions("CRF posteriors (PosteriorStage)", rows);
            }
        }
        CorpusPosteriors { per_sentence, num_train: model.train_corpus.len() }
    }
}

/// Graph construction: PMI feature vectors, then cosine k-NN.
pub struct GraphStage;

impl GraphStage {
    /// Build the PMI vertex vectors for a feature set, interning every
    /// 3-gram of `D_l ∪ D_u` into `interner`. K-independent. One-shot
    /// form of the session's graph build: it featurizes `D_u` first.
    pub fn vectors(
        model: &GraphNer,
        interner: &mut TrigramInterner,
        test: &Corpus,
        feature_set: GraphFeatureSet,
    ) -> Vec<SparseVec> {
        let features = corpus_features(model, test);
        let sentences = all_sentences(model, test);
        build_vertex_vectors(&model.base, &features, interner, &sentences, feature_set)
    }

    /// Connect precomputed vectors into the K-nearest-neighbour graph.
    pub fn connect(vectors: &[SparseVec], k: usize) -> KnnGraph {
        knn_from_vectors(vectors, k)
    }
}

/// Line 6: `X(v)` = average CRF posterior over the occurrences of `v`.
pub struct AverageStage;

impl AverageStage {
    /// Average the posteriors vertex-wise. `interner` must already
    /// contain every 3-gram of `D_l ∪ D_u` (i.e. [`GraphStage::vectors`]
    /// ran first); vertices with no occurrence get the uniform belief.
    pub fn run(
        model: &GraphNer,
        test: &Corpus,
        posteriors: &CorpusPosteriors,
        interner: &TrigramInterner,
    ) -> VertexBeliefs {
        let n = interner.len();
        let mut x: VertexBeliefs = vec![[0.0; NUM_TAGS]; n];
        let mut occ = vec![0.0f64; n];
        for (sentence, post) in all_sentences(model, test).iter().zip(&posteriors.per_sentence) {
            for i in 0..sentence.len() {
                let Some(v) = interner.lookup_at(sentence, i) else {
                    unreachable!("GraphStage interns every corpus trigram before averaging")
                };
                let v = v as usize;
                for (xy, py) in x[v].iter_mut().zip(&post[i]) {
                    *xy += py;
                }
                occ[v] += 1.0;
            }
        }
        for (xv, &o) in x.iter_mut().zip(&occ) {
            if o > 0.0 {
                for v in xv.iter_mut() {
                    *v /= o;
                }
            } else {
                *xv = UNIFORM;
            }
        }
        check::assert_distributions("averaged vertex beliefs (AverageStage)", &x);
        x
    }
}

/// Line 7: Jacobi label propagation over the similarity graph, run by
/// the sharded engine against a prebuilt [`Partition`].
pub struct PropagateStage;

impl PropagateStage {
    /// Propagate in place; returns the sweep report. `partition` must
    /// be built from `graph` (the session caches one per resolved
    /// shard size, so repeated runs reuse the precomputed weight sums
    /// and boundary metadata).
    pub fn run(
        graph: &KnnGraph,
        partition: &Partition,
        x: &mut VertexBeliefs,
        x_ref: &[Option<LabelDist>],
        cfg: &GraphNerConfig,
    ) -> graphner_graph::PropagationReport {
        let report = propagate_partitioned(
            graph,
            partition,
            x,
            x_ref,
            &cfg.propagation,
            cfg.schedule.active_set,
        );
        check::assert_distributions("propagated vertex beliefs (PropagateStage)", x);
        report
    }
}

/// Lines 8–9: combine beliefs with the CRF posteriors and re-decode.
pub struct DecodeStage;

impl DecodeStage {
    /// Decode every test sentence from its cached posteriors and the
    /// propagated vertex beliefs.
    pub fn run(
        test: &Corpus,
        test_posteriors: &[Vec<LabelDist>],
        interner: &TrigramInterner,
        x: &[LabelDist],
        alpha: f64,
        transitions: &[[f64; NUM_TAGS]; NUM_TAGS],
    ) -> Vec<Vec<BioTag>> {
        test.sentences
            .par_iter()
            .zip(test_posteriors.par_iter())
            .map(|(sentence, post)| {
                combine_and_decode(sentence, post, interner, x, alpha, transitions)
            })
            .collect()
    }
}

/// Line 8: `P'_s(i) = α·P_s(i) + (1−α)·X(trigram at i)`, falling back
/// to the CRF posterior alone where the 3-gram is not in the graph.
fn combined_beliefs(
    sentence: &Sentence,
    post: &[LabelDist],
    interner: &TrigramInterner,
    x: &[LabelDist],
    alpha: f64,
) -> Vec<LabelDist> {
    let mut fallbacks = 0u64;
    let combined = (0..sentence.len())
        .map(|i| match interner.lookup_at(sentence, i) {
            Some(v) => {
                let xv = &x[v as usize];
                let mut d = [0.0; NUM_TAGS];
                for y in 0..NUM_TAGS {
                    d[y] = alpha * post[i][y] + (1.0 - alpha) * xv[y];
                }
                d
            }
            None => {
                fallbacks += 1;
                post[i]
            }
        })
        .collect();
    if fallbacks > 0 {
        // Novel-trigram fallbacks were invisible to metrics; the serve
        // path divides this counter by `serve.tokens` for its
        // fallback-rate gauge. One batched add per sentence keeps the
        // common transductive case (zero fallbacks) free of atomics.
        counter("serve.fallback").add(fallbacks);
    }
    combined
}

/// Lines 8–9 for a single sentence.
fn combine_and_decode(
    sentence: &Sentence,
    post: &[LabelDist],
    interner: &TrigramInterner,
    x: &[LabelDist],
    alpha: f64,
    transitions: &[[f64; NUM_TAGS]; NUM_TAGS],
) -> Vec<BioTag> {
    if sentence.is_empty() {
        return Vec::new();
    }
    let combined = combined_beliefs(sentence, post, interner, x, alpha);
    check::assert_distributions("interpolated beliefs (DecodeStage)", &combined);
    viterbi_tags(&combined, transitions)
}

/// A cached test session over one `(model, test corpus)` pair.
///
/// Construct once per test corpus and call [`TestSession::run`] with as
/// many configurations as needed — the Table III/IV sweeps run every
/// ablation row through one session so the CRF posteriors are extracted
/// once, not once per row. Artifacts invalidate never: the model and
/// corpus are borrowed immutably for the session's lifetime, so every
/// cached artifact stays valid.
pub struct TestSession<'a> {
    model: &'a GraphNer,
    test: &'a Corpus,
    /// Starts as the model's train-time interner (so vertex ids agree
    /// with `X_ref`) and grows to cover `D_u` on the first graph build.
    interner: TrigramInterner,
    /// The feature table of `D_l ∪ D_u`, which posteriors, the MI filter
    /// and the All / `MI > τ` graphs read.
    features: Option<CorpusFeatures>,
    posteriors: Option<CorpusPosteriors>,
    /// PMI vectors per [`GraphFeatureSet::cache_key`].
    vectors: FxHashMap<(u8, u64), Vec<SparseVec>>,
    /// k-NN graphs per (feature-set key, K).
    graphs: FxHashMap<((u8, u64), usize), KnnGraph>,
    /// Propagation partitions per (feature-set key, K, resolved shard
    /// size): the precomputed weight sums and boundary metadata are
    /// graph-derived, so they cache exactly like the graph itself.
    partitions: FxHashMap<((u8, u64), usize, usize), Partition>,
    /// Averaged vertex beliefs (config-independent).
    averaged: Option<VertexBeliefs>,
    /// Dense `X_ref` slice, indexed by vertex id.
    x_ref_slice: Option<Vec<Option<LabelDist>>>,
}

impl<'a> TestSession<'a> {
    /// Open a session for one test corpus.
    pub fn new(model: &'a GraphNer, test: &'a Corpus) -> TestSession<'a> {
        TestSession {
            model,
            test,
            interner: model.interner.clone(),
            features: None,
            posteriors: None,
            vectors: FxHashMap::default(),
            graphs: FxHashMap::default(),
            partitions: FxHashMap::default(),
            averaged: None,
            x_ref_slice: None,
        }
    }

    /// Number of distinct k-NN graphs built so far.
    #[cfg(test)]
    fn cached_graph_count(&self) -> usize {
        self.graphs.len()
    }

    /// Number of distinct PMI vector sets built so far.
    #[cfg(test)]
    fn cached_vector_count(&self) -> usize {
        self.vectors.len()
    }

    /// Number of distinct propagation partitions built so far.
    #[cfg(test)]
    fn cached_partition_count(&self) -> usize {
        self.partitions.len()
    }

    fn ensure_posteriors(&mut self) {
        if self.posteriors.is_none() {
            let _s = span(SpanName::TestPosteriors);
            let (model, test) = (self.model, self.test);
            attr("corpus.sentences", model.train_corpus.len() + test.len());
            let features = self.features.get_or_insert_with(|| corpus_features(model, test));
            self.posteriors = Some(PosteriorStage::run_on(model, features));
        }
    }

    fn ensure_graph(&mut self, feature_set: GraphFeatureSet, k: usize) {
        let fs_key = feature_set.cache_key();
        if self.graphs.contains_key(&(fs_key, k)) {
            return;
        }
        // the span covers only the work this configuration adds: the
        // vectors when the feature set is new, plus the k-NN pass
        let _s = span(SpanName::TestGraph);
        if !self.vectors.contains_key(&fs_key) {
            let (model, test) = (self.model, self.test);
            let features = self.features.get_or_insert_with(|| corpus_features(model, test));
            let sentences = all_sentences(model, test);
            let v = build_vertex_vectors(
                &model.base,
                features,
                &mut self.interner,
                &sentences,
                feature_set,
            );
            self.vectors.insert(fs_key, v);
        }
        let graph = GraphStage::connect(&self.vectors[&fs_key], k);
        attr("graph.vertices", graph.num_vertices());
        attr("graph.edges", graph.num_edges());
        attr("graph.k", k);
        self.graphs.insert((fs_key, k), graph);
    }

    /// Build (or look up) the propagation partition of the graph
    /// keyed by `(feature set, k)` at the configured shard size.
    /// Requires a prior [`Self::ensure_graph`]. Returns the resolved
    /// vertices-per-shard, which completes the cache key: two
    /// `ShardSize` values resolving to the same concrete size share
    /// one partition.
    fn ensure_partition(&mut self, cfg: &GraphNerConfig) -> usize {
        let graph_key = (cfg.feature_set.cache_key(), cfg.k);
        let Some(graph) = self.graphs.get(&graph_key) else {
            unreachable!("callers run ensure_graph before ensure_partition")
        };
        let resolved = cfg.schedule.shard_size.resolve(graph.num_vertices());
        let key = (graph_key.0, graph_key.1, resolved);
        self.partitions
            .entry(key)
            .or_insert_with(|| Partition::new(graph, graphner_graph::ShardSize::Fixed(resolved)));
        resolved
    }

    /// Requires a prior [`Self::ensure_graph`], which completes the
    /// interner over `D_l ∪ D_u`.
    fn ensure_averaged(&mut self) {
        if self.averaged.is_none() {
            let _s = span(SpanName::TestAverage);
            attr("average.vertices", self.interner.len());
            let Some(posteriors) = self.posteriors.as_ref() else {
                unreachable!("callers run ensure_posteriors before ensure_averaged")
            };
            self.averaged =
                Some(AverageStage::run(self.model, self.test, posteriors, &self.interner));
        }
    }

    /// The model's dense train rows, then `None` for every vertex the
    /// session's graph build added: train vertex ids come first.
    fn ensure_x_ref_slice(&mut self) {
        if self.x_ref_slice.is_none() {
            let mut slice: Vec<Option<LabelDist>> =
                self.model.x_ref.iter().copied().map(Some).collect();
            slice.resize(self.interner.len(), None);
            self.x_ref_slice = Some(slice);
        }
    }

    /// Compute (or look up) every artifact `cfg` needs and borrow them.
    fn prepare(&mut self, cfg: &GraphNerConfig) -> Prepared<'_> {
        self.ensure_posteriors();
        self.ensure_graph(cfg.feature_set, cfg.k);
        let shard_vertices = self.ensure_partition(cfg);
        self.ensure_averaged();
        self.ensure_x_ref_slice();
        let (fs_key, k) = (cfg.feature_set.cache_key(), cfg.k);
        let (Some(posteriors), Some(averaged), Some(x_ref)) =
            (self.posteriors.as_ref(), self.averaged.as_ref(), self.x_ref_slice.as_ref())
        else {
            unreachable!("the ensure_* calls above populate the session cache")
        };
        Prepared {
            graph: &self.graphs[&(fs_key, k)],
            partition: &self.partitions[&(fs_key, k, shard_vertices)],
            interner: &self.interner,
            posteriors,
            averaged,
            x_ref,
        }
    }

    /// TEST (Algorithm 1, lines 4–9) under one configuration, reusing
    /// every cached artifact the configuration permits.
    pub fn run(&mut self, cfg: &GraphNerConfig) -> TestOutput {
        let (model, test) = (self.model, self.test);
        let ((predictions, base_predictions, stats, report), spans) = with_capture(|| {
            let p = self.prepare(cfg);

            // propagation mutates the beliefs, so each run works on a
            // copy of the cached averages
            let mut x = p.averaged.clone();
            let report = {
                let _s = span(SpanName::TestPropagate);
                PropagateStage::run(p.graph, p.partition, &mut x, p.x_ref, cfg)
            };

            let transitions = empirical_transitions(&model.train_corpus, cfg);
            let test_posteriors = p.posteriors.test();
            let predictions = {
                let _s = span(SpanName::TestDecode);
                attr("decode.sentences", test.len());
                DecodeStage::run(test, test_posteriors, p.interner, &x, cfg.alpha, &transitions)
            };

            // Baseline decode for comparison (not part of Algorithm 1):
            // a posterior re-decode of the already-computed test
            // posteriors under the same transitions, so α = 1 makes
            // `predictions` and `base_predictions` coincide.
            let base_predictions: Vec<Vec<BioTag>> =
                test_posteriors.par_iter().map(|post| viterbi_tags(post, &transitions)).collect();

            let stats = GraphStats::compute(p.graph, p.x_ref, p.partition);
            (predictions, base_predictions, stats, report)
        });

        let timings = TestTimings::from_spans(&spans);
        obs_summary!(
            "graphner test: posteriors {:.3}s, graph {:.3}s, average {:.3}s, \
             propagate {:.3}s, decode {:.3}s ({} sweeps, converged={})",
            timings.posterior_seconds,
            timings.graph_seconds,
            timings.average_seconds,
            timings.propagate_seconds,
            timings.decode_seconds,
            report.iterations,
            report.converged
        );

        TestOutput {
            predictions,
            base_predictions,
            stats,
            timings,
            propagation_iterations: report.iterations,
            converged: report.converged,
        }
    }

    /// Freeze the session's propagated beliefs under `cfg` into a
    /// standalone [`GraphTagger`].
    pub fn tagger(&mut self, cfg: &GraphNerConfig) -> GraphTagger {
        let model = self.model;
        let p = self.prepare(cfg);
        let mut x = p.averaged.clone();
        PropagateStage::run(p.graph, p.partition, &mut x, p.x_ref, cfg);
        GraphTagger {
            base: model.base.clone(),
            interner: p.interner.clone(),
            x,
            alpha: cfg.alpha,
            transitions: empirical_transitions(&model.train_corpus, cfg),
        }
    }
}

/// The cached session artifacts one configuration runs on, borrowed
/// from a [`TestSession`] by its `prepare` step.
struct Prepared<'s> {
    graph: &'s KnnGraph,
    partition: &'s Partition,
    /// Covers every 3-gram of `D_l ∪ D_u`.
    interner: &'s TrigramInterner,
    posteriors: &'s CorpusPosteriors,
    averaged: &'s VertexBeliefs,
    x_ref: &'s [Option<LabelDist>],
}

/// The GraphNER decode as a serving-style [`Tagger`]: the base CRF plus
/// the propagated vertex beliefs frozen at the end of a [`TestSession`].
///
/// On the session's test sentences its predictions are exactly the
/// session's. On new sentences it is an *inductive* application of the
/// transductive model: tokens whose 3-gram appeared in `D_l ∪ D_u` get
/// the graph-interpolated belief, unseen 3-grams fall back to the CRF
/// posterior alone.
#[derive(Clone, Debug)]
pub struct GraphTagger {
    base: NerModel,
    interner: TrigramInterner,
    x: VertexBeliefs,
    alpha: f64,
    transitions: [[f64; NUM_TAGS]; NUM_TAGS],
}

impl Tagger for GraphTagger {
    fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
        let post = self.base.posteriors(sentence);
        combine_and_decode(sentence, &post, &self.interner, &self.x, self.alpha, &self.transitions)
    }

    /// The combined beliefs `P'_s` of line 8 — each row is a convex
    /// combination of distributions, hence itself a distribution.
    fn posteriors(&self, sentence: &Sentence) -> Vec<LabelDist> {
        let post = self.base.posteriors(sentence);
        combined_beliefs(sentence, &post, &self.interner, &self.x, self.alpha)
    }

    /// Sentences are independent at serving time, so the batch path
    /// fans out over the worker pool. Each sentence computes its
    /// base-CRF posteriors once, checks them for non-finite entries,
    /// and decodes from that same posterior slice. The order-preserving
    /// collect plus the sequential error scan below keep the tags
    /// identical to sentence-by-sentence prediction and make the
    /// reported error the lowest offending batch index at any thread
    /// count.
    ///
    /// The call records a `serve.tag_batch` span carrying the batch
    /// size and the pool-counter advance it caused, so batch traces
    /// show how much of the work the workers actually absorbed.
    // hot: parallel batch tagging, the serve-path throughput core
    fn try_tag_batch(&self, sentences: &[Sentence]) -> Result<Vec<Vec<BioTag>>, TagError> {
        validate_sentences(sentences)?;
        let _s = span(SpanName::ServeTagBatch);
        attr("batch.sentences", sentences.len());
        let before = rayon::pool_stats();
        // alloc: one result slot per sentence, collected in batch order
        let per: Vec<Result<Vec<BioTag>, TagError>> = sentences
            .par_iter()
            .enumerate()
            .map(|(index, s)| {
                let post = self.base.posteriors(s);
                check_posteriors_finite(index, &post)?;
                Ok(combine_and_decode(
                    s,
                    &post,
                    &self.interner,
                    &self.x,
                    self.alpha,
                    &self.transitions,
                ))
            })
            .collect();
        let delta = rayon::pool_stats().delta(&before);
        attr("pool.threads", delta.threads);
        attr("pool.jobs", delta.jobs_submitted);
        attr("pool.chunks", delta.chunks_executed);
        attr("pool.chunks_on_workers", delta.chunks_on_workers);
        // alloc: one exact-size result Vec per batch
        let mut out = Vec::with_capacity(per.len());
        for r in per {
            // alloc: push into the exact-size output, never reallocates
            out.push(r?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::{toy_model, toy_test};
    use graphner_text::tokenize;

    fn count(spans: &[graphner_obs::SpanRecord], name: SpanName) -> usize {
        spans.iter().filter(|s| s.name == name.as_str()).count()
    }

    #[test]
    fn session_matches_thin_driver_and_reuses_posteriors() {
        let (gner, test) = (toy_model(), toy_test());
        let one_shot = gner.test(&test);

        let mut session = TestSession::new(&gner, &test);
        let (outs, spans) = with_capture(|| {
            let a = session.run(gner.config());
            let b = session.run(gner.config());
            (a, b)
        });
        // identical predictions on every run, cached or not
        assert_eq!(outs.0.predictions, one_shot.predictions);
        assert_eq!(outs.1.predictions, one_shot.predictions);
        assert_eq!(outs.0.base_predictions, one_shot.base_predictions);
        assert_eq!(outs.1.base_predictions, one_shot.base_predictions);
        // heavy stages ran once; only propagate + decode repeat
        assert_eq!(count(&spans, SpanName::TestPosteriors), 1);
        assert_eq!(count(&spans, SpanName::TestGraph), 1);
        assert_eq!(count(&spans, SpanName::TestAverage), 1);
        assert_eq!(count(&spans, SpanName::TestPropagate), 2);
        assert_eq!(count(&spans, SpanName::TestDecode), 2);
        // and the cached second run reports zero seconds for them
        assert_eq!(outs.1.timings.posterior_seconds, 0.0);
        assert_eq!(outs.1.timings.graph_seconds, 0.0);
        assert!(outs.1.timings.propagate_seconds > 0.0);
    }

    #[test]
    fn session_sweep_matches_reconfigured_models() {
        let (gner, test) = (toy_model(), toy_test());
        let variants = [
            GraphNerConfig { k: 5, ..GraphNerConfig::default() },
            GraphNerConfig { feature_set: GraphFeatureSet::Lexical, ..GraphNerConfig::default() },
            GraphNerConfig { alpha: 0.5, ..GraphNerConfig::default() },
        ];
        let mut session = TestSession::new(&gner, &test);
        for cfg in variants {
            let staged = session.run(&cfg);
            let fresh = gner.reconfigured(cfg).test(&test);
            assert_eq!(staged.predictions, fresh.predictions);
            assert_eq!(staged.stats.num_edges, fresh.stats.num_edges);
        }
        // All + Lexical vector sets; (All,10), (All,5), (Lexical,10) graphs
        assert_eq!(session.cached_vector_count(), 2);
        assert_eq!(session.cached_graph_count(), 3);
    }

    #[test]
    fn vectors_are_reused_across_k() {
        let (gner, test) = (toy_model(), toy_test());
        let mut session = TestSession::new(&gner, &test);
        session.run(&GraphNerConfig { k: 10, ..GraphNerConfig::default() });
        session.run(&GraphNerConfig { k: 5, ..GraphNerConfig::default() });
        assert_eq!(session.cached_vector_count(), 1);
        assert_eq!(session.cached_graph_count(), 2);
    }

    #[test]
    fn partitions_are_cached_and_shard_size_never_changes_output() {
        use graphner_graph::{ShardSize, SweepSchedule};
        let (gner, test) = (toy_model(), toy_test());
        let mut session = TestSession::new(&gner, &test);
        let base = session.run(&GraphNerConfig::default());
        assert_eq!(session.cached_partition_count(), 1);
        // rerunning the same schedule reuses the cached partition
        session.run(&GraphNerConfig::default());
        assert_eq!(session.cached_partition_count(), 1);
        // any shard size produces byte-identical predictions and stats
        for size in [1usize, 3, 1024] {
            let cfg = GraphNerConfig {
                schedule: SweepSchedule { shard_size: ShardSize::Fixed(size), active_set: false },
                ..GraphNerConfig::default()
            };
            let out = session.run(&cfg);
            assert_eq!(out.predictions, base.predictions, "shard size {size} changed the decode");
            assert_eq!(out.base_predictions, base.base_predictions);
        }
        // Fixed(1024) resolves to the same size Auto picked on this toy
        // graph, so only the two genuinely new sizes added partitions
        assert_eq!(session.cached_partition_count(), 3);
    }

    #[test]
    fn graph_tagger_matches_session_predictions() {
        let (gner, test) = (toy_model(), toy_test());
        let mut session = TestSession::new(&gner, &test);
        let out = session.run(gner.config());
        let tagger = session.tagger(gner.config());
        for (sentence, expect) in test.sentences.iter().zip(&out.predictions) {
            assert_eq!(&tagger.predict(sentence), expect);
            // combined beliefs are distributions
            check::assert_distributions("tagger posteriors", &tagger.posteriors(sentence));
        }
        // inductive fallback: a sentence with unseen trigrams still tags
        let novel = Sentence::unlabelled("n0", tokenize("completely unrelated words here"));
        assert_eq!(tagger.predict(&novel).len(), 4);
    }
}
