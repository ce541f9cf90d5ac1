//! GraphNER — Algorithm 1 of the paper.
//!
//! ```text
//! procedure TRAIN
//!   CRF_train(D_l)
//!   X_ref, V_l ← Set_ReferenceDistributions(D_l)
//! procedure TEST
//!   P_s, T_s ← CRF_Posteriors_And_Transitions(D_l ∪ D_u)
//!   X ← Average(P_s, V)
//!   X ← Propagate(X, X_ref, μ, ν, #iterations)
//!   P'_s ← Combine(P_s, X, V, α)
//!   finalLabels ← Viterbi(P'_s, T_s)
//! ```
//!
//! The setting is transductive: the only unlabelled data used in graph
//! construction is the test set, and train/test run exactly once.

use crate::config::GraphNerConfig;
use crate::pipeline::TestSession;
use crate::stats::GraphStats;
use crate::timings::TestTimings;
use graphner_banner::{DistributionalResources, FeatureSet, NerConfig, NerModel, TokenFeatures};
use graphner_crf::TrainReport;
use graphner_graph::LabelDist;
use graphner_obs::Stopwatch;
use graphner_text::{BioTag, Corpus, Sentence, TrigramInterner, NUM_TAGS};
use std::sync::Arc;

/// A trained GraphNER model: what was learned (the base CRF tagger),
/// what was configured, and the labelled corpus `D_l`. Everything else
/// is derived from those three by `GraphNer::assemble`, the one place
/// that builds a model, so a trained and a loaded model cannot disagree.
#[derive(Clone, Debug)]
pub struct GraphNer {
    pub(crate) base: NerModel,
    pub(crate) cfg: GraphNerConfig,
    /// Every 3-gram of `D_l`, interned in corpus order: vertex ids
    /// `0..interner.len()` are exactly the labelled vertices `V_l`.
    pub(crate) interner: TrigramInterner,
    /// `X_ref` (Algorithm 1, line 3), indexed by train vertex id: the
    /// average gold label distribution of each labelled 3-gram.
    pub(crate) x_ref: Vec<LabelDist>,
    /// The labelled corpus, retained because the transductive test
    /// procedure runs the CRF and graph construction over `D_l ∪ D_u`.
    /// Behind an [`Arc`] so [`GraphNer::reconfigured`] and `clone` —
    /// called once per ablation row by the sweep binaries — share it
    /// instead of copying every sentence.
    pub(crate) train_corpus: Arc<Corpus>,
    /// The [`FeatureSet::All`] table of the train corpus, built once for
    /// CRF training and extended with `D_u` by each test session. Shared
    /// like `train_corpus`.
    pub(crate) train_features: Arc<TokenFeatures>,
}

/// Tag-level transition factors `T_s` for the final Viterbi decode:
/// prior-scaled, tempered, bounded empirical transition factors
/// `min((P(y'|y) / P(y'))^τ, cap)` from the gold tag bigrams of
/// `corpus`, with add-k smoothing on the bigram counts. `τ`, `k` and
/// `cap` come from [`GraphNerConfig::trans_power`],
/// [`GraphNerConfig::trans_add_k`] and
/// [`GraphNerConfig::trans_ratio_cap`].
///
/// The node beliefs fed to the decode are posteriors that already
/// contain the label prior, so raw conditional probabilities would
/// double-count it and crush the rare B/I tags; the likelihood-ratio
/// form contributes only the sequential dependence beyond the prior
/// (and still zeroes out ill-formed transitions such as `O → I`).
///
/// The cap matters on corpora where a tag is almost absent (the AML
/// profile has essentially no I tags): there the raw ratio
/// `P(I|I)/P(I)` grows unboundedly and a decode using it produces
/// sentence-long I runs out of nothing but the propagation's uniform
/// floor. A trained CRF never exhibits this because L2 regularization
/// bounds its transition potentials; the cap plays the same role here.
pub(crate) fn empirical_transitions(
    corpus: &Corpus,
    cfg: &GraphNerConfig,
) -> [[f64; NUM_TAGS]; NUM_TAGS] {
    let (k, tau, cap) = (cfg.trans_add_k, cfg.trans_power, cfg.trans_ratio_cap);
    let mut counts = [[k; NUM_TAGS]; NUM_TAGS];
    let mut unigrams = [k * NUM_TAGS as f64; NUM_TAGS];
    for sentence in &corpus.sentences {
        if let Some(tags) = &sentence.tags {
            for &t in tags {
                unigrams[t.index()] += 1.0;
            }
            for w in tags.windows(2) {
                counts[w[0].index()][w[1].index()] += 1.0;
            }
        }
    }
    let total: f64 = unigrams.iter().sum();
    let mut out = [[0.0; NUM_TAGS]; NUM_TAGS];
    for y in 0..NUM_TAGS {
        let z: f64 = counts[y].iter().sum();
        for yp in 0..NUM_TAGS {
            let cond = counts[y][yp] / z;
            let prior = unigrams[yp] / total;
            out[y][yp] = (cond / prior).powf(tau).min(cap);
        }
    }
    crate::check::assert_finite_matrix("empirical transitions", &out);
    out
}

/// Result of training.
#[derive(Clone, Debug)]
pub struct TrainOutput {
    /// Base-CRF training report.
    pub report: TrainReport,
    /// Wall seconds spent training the base CRF.
    pub crf_seconds: f64,
    /// Wall seconds spent setting reference distributions (line 3).
    pub ref_seconds: f64,
}

/// Result of the transductive test procedure.
#[derive(Clone, Debug)]
pub struct TestOutput {
    /// Final BIO labels per test sentence (Algorithm 1, line 9).
    pub predictions: Vec<Vec<BioTag>>,
    /// Baseline labels for the same sentences: a posterior re-decode of
    /// the already-computed test posteriors under the same transition
    /// factors as the graph decode, so the comparison isolates the
    /// graph's contribution (and α = 1 makes the two coincide) without
    /// a second CRF inference pass.
    pub base_predictions: Vec<Vec<BioTag>>,
    /// Graph statistics (§III-D).
    pub stats: GraphStats,
    /// Stage wall-times (Fig. 2), reconstructed from the recorded
    /// `graphner-obs` stage spans.
    pub timings: TestTimings,
    /// Propagation sweeps actually performed (equation 2).
    pub propagation_iterations: usize,
    /// Whether the final propagation residual fell below
    /// [`graphner_graph::CONVERGENCE_TOL`] within the sweep budget.
    pub converged: bool,
}

impl GraphNer {
    /// TRAIN (Algorithm 1, lines 1–3): train the base CRF and set the
    /// reference distributions. Every training sentence must carry gold
    /// tags.
    pub fn train(
        train: &Corpus,
        base_cfg: &NerConfig,
        dist: Option<DistributionalResources>,
        cfg: GraphNerConfig,
    ) -> (GraphNer, TrainOutput) {
        let t0 = Stopwatch::start();
        let sentences: Vec<&Sentence> = train.sentences.iter().collect();
        let train_features = TokenFeatures::build(&sentences, FeatureSet::All, dist.as_ref());
        let (base, report) = NerModel::train_with_features(train, &train_features, base_cfg, dist);
        let crf_seconds = t0.elapsed_seconds();

        let train_corpus = Arc::new(train.clone());
        let t1 = Stopwatch::start();
        let model = GraphNer::assemble(base, cfg, train_corpus, Arc::new(train_features));
        let ref_seconds = t1.elapsed_seconds();
        (model, TrainOutput { report, crf_seconds, ref_seconds })
    }

    /// Build a model from what was learned and configured plus `D_l`,
    /// deriving line 3 of Algorithm 1: the train 3-gram interner and
    /// `X_ref(v)`, the average gold label distribution of every 3-gram
    /// `v` occurring in `D_l`. Both [`GraphNer::train`] and
    /// [`crate::persist::read_model`] come through here.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: callers pass a fully labelled corpus (train requires one, read_model refuses any other)"
    )]
    pub(crate) fn assemble(
        base: NerModel,
        cfg: GraphNerConfig,
        train_corpus: Arc<Corpus>,
        train_features: Arc<TokenFeatures>,
    ) -> GraphNer {
        let mut interner = TrigramInterner::new();
        let mut x_ref: Vec<LabelDist> = Vec::new();
        let mut occ: Vec<f64> = Vec::new();
        for sentence in &train_corpus.sentences {
            let tags = sentence.tags.as_ref().expect("labelled corpus");
            for (i, tag) in tags.iter().enumerate() {
                let v = interner.intern_at(sentence, i) as usize;
                if v == x_ref.len() {
                    x_ref.push([0.0; NUM_TAGS]);
                    occ.push(0.0);
                }
                x_ref[v][tag.index()] += 1.0;
                occ[v] += 1.0;
            }
        }
        for (d, n) in x_ref.iter_mut().zip(occ) {
            for dy in d.iter_mut() {
                *dy /= n;
            }
        }
        crate::check::assert_distributions("X_ref (train)", &x_ref);
        GraphNer { base, cfg, interner, x_ref, train_corpus, train_features }
    }

    /// The base tagger.
    pub fn base(&self) -> &NerModel {
        &self.base
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GraphNerConfig {
        &self.cfg
    }

    /// Number of labelled 3-grams (`|V_l|`).
    pub fn num_labelled_vertices(&self) -> usize {
        self.x_ref.len()
    }

    /// The transition factors `T_s` the final decode uses under this
    /// model's configuration (see `empirical_transitions`).
    pub fn transitions(&self) -> [[f64; NUM_TAGS]; NUM_TAGS] {
        empirical_transitions(&self.train_corpus, &self.cfg)
    }

    /// A copy of this model with a different GraphNER configuration but
    /// the same trained base CRF and reference distributions — the tool
    /// for the Table III ablations, where only the graph construction
    /// and propagation settings vary.
    pub fn reconfigured(&self, cfg: GraphNerConfig) -> GraphNer {
        GraphNer { cfg, ..self.clone() }
    }

    /// TEST (Algorithm 1, lines 4–9), transductively over this test set.
    ///
    /// Thin driver: opens a one-shot [`TestSession`] and runs it under
    /// this model's configuration. Sweeps that vary only the
    /// configuration (Tables III and IV) should instead hold one
    /// session per test corpus and call [`TestSession::run`] per row,
    /// reusing the cached posteriors and graph artifacts. Each stage
    /// runs inside a `graphner-obs` span named by a `Test*`
    /// [`graphner_obs::SpanName`]; the returned [`TestTimings`] is
    /// built from those recorded spans.
    pub fn test(&self, test: &Corpus) -> TestOutput {
        TestSession::new(self, test).run(&self.cfg)
    }
}

/// Build a BC2-format annotation set from per-sentence predictions.
pub fn annotations_from_predictions(
    corpus: &Corpus,
    predictions: &[Vec<BioTag>],
) -> graphner_text::AnnotationSet {
    use graphner_text::bc2::Bc2Annotation;
    use graphner_text::sentence::tags_to_mentions;
    assert_eq!(corpus.len(), predictions.len());
    let mut set = graphner_text::AnnotationSet::new();
    for (sentence, tags) in corpus.sentences.iter().zip(predictions) {
        for m in tags_to_mentions(tags) {
            set.add_primary(Bc2Annotation::from_mention(sentence, &m));
        }
    }
    set
}

/// Fixtures shared by the crate's unit tests, and this module's tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::GraphFeatureSet;
    use graphner_crf::{viterbi_tags, Order, TrainConfig};
    use graphner_graph::PropagationParams;
    use graphner_text::{tokenize, BioTag::*, Sentence};

    pub(crate) fn quick_base_cfg() -> NerConfig {
        NerConfig {
            order: Order::One,
            train: TrainConfig { max_iterations: 60, l2: 0.1, ..Default::default() },
            min_feature_count: 1,
        }
    }

    pub(crate) fn toy_train() -> Corpus {
        let mk =
            |id: &str, text: &str, tags: Vec<BioTag>| Sentence::labelled(id, tokenize(text), tags);
        Corpus::from_sentences(vec![
            mk("s0", "the WT1 gene was expressed", vec![O, B, O, O, O]),
            mk("s1", "mutation of SH2B3 was detected", vec![O, O, B, O, O]),
            mk("s2", "the KRAS gene was mutated", vec![O, B, O, O, O]),
            mk("s3", "expression of TP53 was low", vec![O, O, B, O, O]),
            mk("s4", "the patient was treated", vec![O, O, O, O]),
            mk("s5", "no mutation was found", vec![O, O, O, O]),
        ])
    }

    /// Unlabelled test sentences; the gold tags are `[O, B, O, O, O]`
    /// and all-`O`.
    pub(crate) fn toy_test() -> Corpus {
        Corpus::from_sentences(vec![
            Sentence::unlabelled("t0", tokenize("the FLT3 gene was expressed")),
            Sentence::unlabelled("t1", tokenize("no mutation was found")),
        ])
    }

    /// [`toy_train`] under [`quick_base_cfg`] and the default config.
    pub(crate) fn toy_model() -> GraphNer {
        GraphNer::train(&toy_train(), &quick_base_cfg(), None, GraphNerConfig::default()).0
    }

    #[test]
    fn train_sets_reference_distributions() {
        let (gner, out) =
            GraphNer::train(&toy_train(), &quick_base_cfg(), None, GraphNerConfig::default());
        assert!(out.report.objective.is_finite());
        assert!(out.crf_seconds >= 0.0);
        // every unique trigram of the training corpus is a labelled vertex
        assert!(gner.num_labelled_vertices() > 20);
    }

    #[test]
    fn reference_distributions_are_gold_averages() {
        let gner = toy_model();
        // trigram [the WT1 gene] occurs once with centre tag B
        let v = gner.interner.lookup_at(&toy_train().sentences[0], 1).unwrap();
        assert_eq!(gner.x_ref[v as usize], [1.0, 0.0, 0.0]);
        // trigram [<s> the WT1] centre "the" tagged O
        let v2 = gner.interner.lookup_at(&toy_train().sentences[0], 0).unwrap();
        assert_eq!(gner.x_ref[v2 as usize], [0.0, 0.0, 1.0]);
    }

    #[test]
    fn test_produces_predictions_for_every_sentence() {
        let gner = toy_model();
        let out = gner.test(&toy_test());
        assert_eq!(out.predictions.len(), 2);
        assert_eq!(out.predictions[0].len(), 5);
        assert_eq!(out.base_predictions.len(), 2);
        // graph covers train + test trigrams
        assert!(out.stats.num_vertices > gner.num_labelled_vertices());
        assert!(out.stats.pct_labelled > 0.5);
    }

    #[test]
    fn graphner_finds_gene_in_seen_context() {
        let out = toy_model().test(&toy_test());
        // "the FLT3 gene": unseen symbol in a heavily seen gene context
        assert_eq!(out.predictions[0][1], B, "predictions: {:?}", out.predictions[0]);
        // non-gene sentence stays clean
        assert!(out.predictions[1].iter().all(|&t| t == O));
    }

    #[test]
    fn alpha_one_reduces_to_base_crf() {
        let test = toy_test();
        let gner = toy_model().reconfigured(GraphNerConfig {
            alpha: 1.0,
            propagation: PropagationParams { mu: 1e-6, nu: 1e-6, iterations: 1, self_anchor: 0.5 },
            ..Default::default()
        });
        let out = gner.test(&test);
        // with α = 1 the combined beliefs are exactly the CRF posteriors;
        // decoding may still differ from base Viterbi only through the
        // posterior-vs-pathscore decode, so compare against posterior
        // decode of the same node beliefs under the same transitions
        for (sentence, pred) in test.sentences.iter().zip(&out.predictions) {
            let post = gner.base().posteriors(sentence);
            let expect = viterbi_tags(&post, &gner.transitions());
            assert_eq!(pred, &expect);
        }
    }

    #[test]
    fn lexical_feature_set_runs_end_to_end() {
        let cfg =
            GraphNerConfig { feature_set: GraphFeatureSet::Lexical, ..GraphNerConfig::default() };
        let out = toy_model().reconfigured(cfg).test(&toy_test());
        assert_eq!(out.predictions.len(), 2);
    }

    #[test]
    fn annotations_round_trip() {
        let preds = vec![vec![O, B, O, O, O], vec![O, O, O, O]];
        let set = annotations_from_predictions(&toy_test(), &preds);
        assert_eq!(set.num_primary(), 1);
        let ann = &set.primary["t0"][0];
        assert_eq!(ann.text, "FLT3");
    }

    #[test]
    fn timings_are_populated() {
        let gner = toy_model();
        let out = gner.test(&toy_test());
        let t = &out.timings;
        assert!(t.total() >= t.graph_seconds);
        assert!(t.total() > 0.0);
        // every stage span was recorded
        assert!(t.posterior_seconds > 0.0);
        assert!(t.graph_seconds > 0.0);
        assert!(t.average_seconds > 0.0);
        assert!(t.propagate_seconds > 0.0);
        assert!(t.decode_seconds > 0.0);
        // the propagation report surfaces through the output
        assert_eq!(out.propagation_iterations, gner.config().propagation.iterations);
    }
}
