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
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// A trained GraphNER model: the base CRF tagger plus the reference
/// distributions over labelled 3-grams.
#[derive(Clone, Debug)]
pub struct GraphNer {
    pub(crate) base: NerModel,
    pub(crate) cfg: GraphNerConfig,
    pub(crate) interner: TrigramInterner,
    pub(crate) x_ref: FxHashMap<u32, LabelDist>,
    /// Tag-level transition factors `T_s` used by the final Viterbi
    /// decode: the empirical transition probabilities of the training
    /// tags *divided by the tag prior*, `T[y][y'] = P(y'|y) / P(y')`.
    /// The node beliefs fed to the decode are posteriors that already
    /// contain the label prior, so raw conditional probabilities would
    /// double-count it and crush the rare B/I tags; the likelihood-ratio
    /// form contributes only the sequential dependence beyond the prior
    /// (and still zeroes out ill-formed transitions such as `O → I`).
    pub(crate) transitions: [[f64; NUM_TAGS]; NUM_TAGS],
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

/// Prior-scaled, tempered, bounded empirical transition factors
/// `min((P(y'|y) / P(y'))^τ, cap)` from gold tag bigrams, with add-k
/// smoothing on the bigram counts. `k` and `cap` come from
/// [`GraphNerConfig::trans_add_k`] and
/// [`GraphNerConfig::trans_ratio_cap`].
///
/// The cap matters on corpora where a tag is almost absent (the AML
/// profile has essentially no I tags): there the raw ratio
/// `P(I|I)/P(I)` grows unboundedly and a decode using it produces
/// sentence-long I runs out of nothing but the propagation's uniform
/// floor. A trained CRF never exhibits this because L2 regularization
/// bounds its transition potentials; the cap plays the same role here.
pub(crate) fn empirical_transitions(
    corpus: &Corpus,
    k: f64,
    tau: f64,
    cap: f64,
) -> [[f64; NUM_TAGS]; NUM_TAGS] {
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
    /// reference distributions.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: GraphNer::train requires gold tags on every training sentence; an unlabelled corpus is caller error, not a recoverable state"
    )]
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

        // Line 3: X_ref(v) = average gold label distribution of every
        // 3-gram v occurring in D_l.
        let t1 = Stopwatch::start();
        let mut interner = TrigramInterner::new();
        let mut sums: FxHashMap<u32, ([f64; NUM_TAGS], f64)> = FxHashMap::default();
        for sentence in &train.sentences {
            let tags = sentence.tags.as_ref().expect("labelled corpus");
            for i in 0..sentence.len() {
                let v = interner.intern_at(sentence, i);
                let entry = sums.entry(v).or_insert(([0.0; NUM_TAGS], 0.0));
                entry.0[tags[i].index()] += 1.0;
                entry.1 += 1.0;
            }
        }
        let x_ref: FxHashMap<u32, LabelDist> = sums
            .into_iter()
            .map(|(v, (counts, n))| {
                let mut d = [0.0; NUM_TAGS];
                for (dy, cy) in d.iter_mut().zip(counts) {
                    *dy = cy / n;
                }
                (v, d)
            })
            .collect();
        if cfg!(debug_assertions) {
            for d in x_ref.values() {
                crate::check::assert_distribution("X_ref (train)", d);
            }
        }
        let ref_seconds = t1.elapsed_seconds();

        let transitions =
            empirical_transitions(train, cfg.trans_add_k, cfg.trans_power, cfg.trans_ratio_cap);
        (
            GraphNer {
                base,
                cfg,
                interner,
                x_ref,
                transitions,
                train_corpus: Arc::new(train.clone()),
                train_features: Arc::new(train_features),
            },
            TrainOutput { report, crf_seconds, ref_seconds },
        )
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

    /// The prior-scaled transition factors used by the final decode.
    pub fn transitions(&self) -> [[f64; NUM_TAGS]; NUM_TAGS] {
        self.transitions
    }

    /// A copy of this model with a different GraphNER configuration but
    /// the same trained base CRF and reference distributions — the tool
    /// for the Table III ablations, where only the graph construction
    /// and propagation settings vary.
    pub fn reconfigured(&self, cfg: GraphNerConfig) -> GraphNer {
        let transitions = empirical_transitions(
            &self.train_corpus,
            cfg.trans_add_k,
            cfg.trans_power,
            cfg.trans_ratio_cap,
        );
        GraphNer {
            base: self.base.clone(),
            cfg,
            interner: self.interner.clone(),
            x_ref: self.x_ref.clone(),
            transitions,
            train_corpus: Arc::clone(&self.train_corpus),
            train_features: Arc::clone(&self.train_features),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphFeatureSet;
    use graphner_crf::{viterbi_tags, Order, TrainConfig};
    use graphner_graph::PropagationParams;
    use graphner_text::{tokenize, BioTag::*, Sentence};

    fn quick_base_cfg() -> NerConfig {
        NerConfig {
            order: Order::One,
            train: TrainConfig { max_iterations: 60, l2: 0.1, ..Default::default() },
            min_feature_count: 1,
        }
    }

    fn toy_train() -> Corpus {
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

    fn toy_test() -> Corpus {
        Corpus::from_sentences(vec![
            Sentence::labelled("t0", tokenize("the FLT3 gene was expressed"), vec![O, B, O, O, O]),
            Sentence::labelled("t1", tokenize("no mutation was found"), vec![O, O, O, O]),
        ])
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
        let (gner, _) =
            GraphNer::train(&toy_train(), &quick_base_cfg(), None, GraphNerConfig::default());
        // trigram [the WT1 gene] occurs once with centre tag B
        let v = gner.interner.lookup_at(&toy_train().sentences[0], 1).unwrap();
        let d = gner.x_ref[&v];
        assert_eq!(d, [1.0, 0.0, 0.0]);
        // trigram [<s> the WT1] centre "the" tagged O
        let v2 = gner.interner.lookup_at(&toy_train().sentences[0], 0).unwrap();
        assert_eq!(gner.x_ref[&v2], [0.0, 0.0, 1.0]);
    }

    #[test]
    fn test_produces_predictions_for_every_sentence() {
        let train = toy_train();
        let test = toy_test();
        let (gner, _) = GraphNer::train(&train, &quick_base_cfg(), None, GraphNerConfig::default());
        let out = gner.test(&test.without_tags());
        assert_eq!(out.predictions.len(), 2);
        assert_eq!(out.predictions[0].len(), 5);
        assert_eq!(out.base_predictions.len(), 2);
        // graph covers train + test trigrams
        assert!(out.stats.num_vertices > gner.num_labelled_vertices());
        assert!(out.stats.pct_labelled > 0.5);
    }

    #[test]
    fn graphner_finds_gene_in_seen_context() {
        let train = toy_train();
        let test = toy_test();
        let (gner, _) = GraphNer::train(&train, &quick_base_cfg(), None, GraphNerConfig::default());
        let out = gner.test(&test.without_tags());
        // "the FLT3 gene": unseen symbol in a heavily seen gene context
        assert_eq!(out.predictions[0][1], B, "predictions: {:?}", out.predictions[0]);
        // non-gene sentence stays clean
        assert!(out.predictions[1].iter().all(|&t| t == O));
    }

    #[test]
    fn alpha_one_reduces_to_base_crf() {
        let train = toy_train();
        let test = toy_test();
        let cfg = GraphNerConfig {
            alpha: 1.0,
            propagation: PropagationParams { mu: 1e-6, nu: 1e-6, iterations: 1, self_anchor: 0.5 },
            ..Default::default()
        };
        let (gner, _) = GraphNer::train(&train, &quick_base_cfg(), None, cfg);
        let out = gner.test(&test.without_tags());
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
        let (gner, _) = GraphNer::train(&toy_train(), &quick_base_cfg(), None, cfg);
        let out = gner.test(&toy_test().without_tags());
        assert_eq!(out.predictions.len(), 2);
    }

    #[test]
    fn annotations_round_trip() {
        let test = toy_test();
        let preds = vec![vec![O, B, O, O, O], vec![O, O, O, O]];
        let set = annotations_from_predictions(&test, &preds);
        assert_eq!(set.num_primary(), 1);
        let ann = &set.primary["t0"][0];
        assert_eq!(ann.text, "FLT3");
    }

    #[test]
    fn timings_are_populated() {
        let (gner, _) =
            GraphNer::train(&toy_train(), &quick_base_cfg(), None, GraphNerConfig::default());
        let out = gner.test(&toy_test().without_tags());
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

/// Inductive (self-training) extension — the setting of Subramanya et
/// al. (2010) that the paper explicitly contrasts with its transductive
/// choice: "they expand the labelled data-set by treating the output of
/// Viterbi decoding as correct and iterating over the train and test
/// procedures, overwriting these labels until convergence or the 10th
/// iteration."
impl GraphNer {
    /// Run the inductive loop: repeatedly run the transductive test,
    /// adopt the predicted labels as reference distributions for the
    /// test 3-grams, and re-test. Stops when predictions converge or
    /// after `max_rounds` (the paper's reference uses 10).
    ///
    /// Returns the final test output plus the number of rounds run.
    pub fn test_inductive(&self, test: &Corpus, max_rounds: usize) -> (TestOutput, usize) {
        let mut current = self.clone();
        let mut out = current.test(test);
        for round in 1..max_rounds {
            // expand the reference distributions with the predicted
            // labels of the test sentences (self-training)
            let mut next = current.clone();
            let mut sums: FxHashMap<u32, ([f64; NUM_TAGS], f64)> = FxHashMap::default();
            for (sentence, tags) in test.sentences.iter().zip(&out.predictions) {
                for i in 0..sentence.len() {
                    let v = next.interner.intern_at(sentence, i);
                    let e = sums.entry(v).or_insert(([0.0; NUM_TAGS], 0.0));
                    e.0[tags[i].index()] += 1.0;
                    e.1 += 1.0;
                }
            }
            for (v, (counts, n)) in sums {
                // adopt predicted labels as references, but never
                // overwrite vertices carrying true labelled-data
                // references
                if !self.x_ref.contains_key(&v) {
                    let mut d = [0.0; NUM_TAGS];
                    for (dy, cy) in d.iter_mut().zip(counts) {
                        *dy = cy / n;
                    }
                    next.x_ref.insert(v, d);
                }
            }
            let new_out = next.test(test);
            let converged = new_out.predictions == out.predictions;
            current = next;
            out = new_out;
            if converged {
                return (out, round + 1);
            }
        }
        (out, max_rounds)
    }
}

#[cfg(test)]
mod inductive_tests {
    use super::*;
    use crate::config::GraphNerConfig;
    use graphner_crf::{Order, TrainConfig};
    use graphner_text::{tokenize, BioTag::*, Sentence};

    #[test]
    fn inductive_loop_converges_and_stays_sane() {
        let mk =
            |id: &str, text: &str, tags: Vec<BioTag>| Sentence::labelled(id, tokenize(text), tags);
        let train = Corpus::from_sentences(vec![
            mk("s0", "the WT1 gene was expressed", vec![O, B, O, O, O]),
            mk("s1", "mutation of SH2B3 was detected", vec![O, O, B, O, O]),
            mk("s2", "the KRAS gene was mutated", vec![O, B, O, O, O]),
            mk("s3", "no mutation was found", vec![O, O, O, O]),
        ]);
        let cfg = NerConfig {
            order: Order::One,
            train: TrainConfig { max_iterations: 60, ..Default::default() },
            min_feature_count: 1,
        };
        let (gner, _) = GraphNer::train(&train, &cfg, None, GraphNerConfig::default());
        let test = Corpus::from_sentences(vec![
            Sentence::unlabelled("t0", tokenize("the FLT3 gene was expressed")),
            Sentence::unlabelled("t1", tokenize("no mutation was found")),
        ]);
        let (out, rounds) = gner.test_inductive(&test, 10);
        assert!(rounds <= 10);
        assert_eq!(out.predictions.len(), 2);
        assert_eq!(out.predictions[0][1], B);
        assert!(out.predictions[1].iter().all(|&t| t == O));
        // inductive must agree with transductive on this easy case
        let transductive = gner.test(&test);
        assert_eq!(out.predictions, transductive.predictions);
    }
}
