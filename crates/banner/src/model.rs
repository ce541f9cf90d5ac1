//! The BANNER / BANNER-ChemDNER tagger.
//!
//! [`NerModel`] binds the feature extractor, the frozen feature index,
//! and a trained chain CRF into the interface GraphNER consumes: train
//! on a labelled corpus, then expose per-token tag posteriors, the
//! tag-level transition matrix, and Viterbi predictions.

use crate::features::{extract_features, DistributionalResources, FeatureIndex, FeatureSet};
use crate::table::TokenFeatures;
use graphner_crf::{ChainCrf, Order, SentenceFeatures, TrainConfig, TrainReport};
use graphner_text::{BioTag, Corpus, Sentence, Tagger, NUM_TAGS};

/// Which published system the model reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseSystem {
    /// BANNER (Leaman & Gonzalez 2008): supervised CRF, orthographic and
    /// lexical features.
    Banner,
    /// BANNER-ChemDNER (Munkhdalai et al. 2015): BANNER plus Brown
    /// cluster and word-embedding-cluster features from unlabelled data.
    BannerChemDner,
}

impl BaseSystem {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BaseSystem::Banner => "BANNER",
            BaseSystem::BannerChemDner => "BANNER-ChemDNER",
        }
    }
}

/// Tagger configuration.
#[derive(Clone, Debug)]
pub struct NerConfig {
    /// Markov order of the CRF (the paper reports order 2 for its main
    /// tables and notes order 1 behaves consistently).
    pub order: Order,
    /// CRF training settings.
    pub train: TrainConfig,
    /// Features must occur at least this often in training to be kept.
    pub min_feature_count: u32,
}

impl Default for NerConfig {
    fn default() -> NerConfig {
        NerConfig { order: Order::Two, train: TrainConfig::default(), min_feature_count: 1 }
    }
}

/// A trained CRF named-entity tagger.
#[derive(Clone, Debug)]
pub struct NerModel {
    system: BaseSystem,
    index: FeatureIndex,
    crf: ChainCrf,
    dist: Option<DistributionalResources>,
}

impl NerModel {
    /// Train a tagger on a labelled corpus.
    ///
    /// `dist` supplies the ChemDNER distributional resources; pass
    /// `Some` to build the BANNER-ChemDNER variant, `None` for plain
    /// BANNER.
    pub fn train(
        corpus: &Corpus,
        cfg: &NerConfig,
        dist: Option<DistributionalResources>,
    ) -> (NerModel, TrainReport) {
        let sentences: Vec<&Sentence> = corpus.sentences.iter().collect();
        let features = TokenFeatures::build(&sentences, FeatureSet::All, dist.as_ref());
        NerModel::train_with_features(corpus, &features, cfg, dist)
    }

    /// [`NerModel::train`] on a corpus already featurized: `features`
    /// must be the [`FeatureSet::All`] table of `corpus` built with
    /// `dist`. Counting, the frequency cutoff and the CRF input all read
    /// the table, so no token is extracted again.
    ///
    /// # Panics
    /// Panics if the corpus is not fully labelled or the table holds a
    /// different number of sentences or another feature set.
    pub fn train_with_features(
        corpus: &Corpus,
        features: &TokenFeatures,
        cfg: &NerConfig,
        dist: Option<DistributionalResources>,
    ) -> (NerModel, TrainReport) {
        assert!(corpus.fully_labelled(), "training corpus must be fully labelled");
        assert_eq!(features.num_sentences(), corpus.len(), "feature table is of another corpus");
        assert_eq!(features.feature_set(), FeatureSet::All, "the CRF reads the full feature set");
        let system = if dist.is_some() { BaseSystem::BannerChemDner } else { BaseSystem::Banner };
        let (index, crf_ids) = features.feature_index(cfg.min_feature_count);
        let data: Vec<SentenceFeatures> = corpus
            .sentences
            .iter()
            .enumerate()
            .map(|(s, sentence)| {
                let mut sf = features.sentence_features(s, &crf_ids);
                sf.gold = sentence.tags.clone();
                sf
            })
            .collect();
        let mut crf = ChainCrf::new(cfg.order, index.len());
        let report = crf.train(&data, &cfg.train);
        (NerModel { system, index, crf, dist }, report)
    }

    /// Reassemble a plain-BANNER model from persisted parts: the frozen
    /// feature index and the trained CRF. Distributional resources are
    /// not persistable (they are cheap to retrain and large to store),
    /// so the result is always the [`BaseSystem::Banner`] variant.
    ///
    /// # Panics
    /// Panics if the CRF was sized for a different feature count than
    /// `index` holds.
    pub fn from_parts(index: FeatureIndex, crf: ChainCrf) -> NerModel {
        assert_eq!(
            crf.num_obs_features(),
            index.len(),
            "CRF observation-feature count does not match the feature index"
        );
        NerModel { system: BaseSystem::Banner, index, crf, dist: None }
    }

    /// Which base system this model instantiates.
    pub fn system(&self) -> BaseSystem {
        self.system
    }

    /// The frozen feature index.
    pub fn feature_index(&self) -> &FeatureIndex {
        &self.index
    }

    /// The distributional resources, if this is a ChemDNER model.
    pub fn distributional(&self) -> Option<&DistributionalResources> {
        self.dist.as_ref()
    }

    /// The underlying CRF.
    pub fn crf(&self) -> &ChainCrf {
        &self.crf
    }

    /// Map a sentence to interned observation features. The serve path
    /// for novel text; corpus-level callers read a [`TokenFeatures`]
    /// table instead.
    pub fn featurize(&self, sentence: &Sentence) -> SentenceFeatures {
        let mut buf = Vec::new();
        let obs = (0..sentence.len())
            .map(|i| {
                extract_features(sentence, i, FeatureSet::All, self.dist.as_ref(), &mut buf);
                self.index.ids(&buf)
            })
            .collect();
        SentenceFeatures { obs, gold: None }
    }

    /// Viterbi prediction.
    pub fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
        self.predict_features(&self.featurize(sentence))
    }

    /// Viterbi prediction from already-featurized input.
    pub fn predict_features(&self, features: &SentenceFeatures) -> Vec<BioTag> {
        if features.is_empty() {
            return Vec::new();
        }
        self.crf.viterbi(features)
    }

    /// Per-token tag posteriors `P_s` (Algorithm 1, line 5).
    pub fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
        self.posteriors_features(&self.featurize(sentence))
    }

    /// Per-token tag posteriors from already-featurized input.
    pub fn posteriors_features(&self, features: &SentenceFeatures) -> Vec<[f64; NUM_TAGS]> {
        if features.is_empty() {
            return Vec::new();
        }
        self.crf.posteriors(features)
    }
}

impl Tagger for NerModel {
    fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
        NerModel::predict(self, sentence)
    }

    fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
        NerModel::posteriors(self, sentence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::sentence::tags_to_mentions;
    use graphner_text::tokenize;
    use graphner_text::BioTag::*;

    /// A small but learnable training corpus: capitalized alphanumeric
    /// symbols after "the"/"of" are genes.
    fn toy_corpus() -> Corpus {
        let mk =
            |id: &str, text: &str, tags: Vec<BioTag>| Sentence::labelled(id, tokenize(text), tags);
        Corpus::from_sentences(vec![
            mk("s0", "the WT1 gene was expressed", vec![O, B, O, O, O]),
            mk("s1", "mutation of SH2B3 was detected", vec![O, O, B, O, O]),
            mk("s2", "the KRAS gene was mutated", vec![O, B, O, O, O]),
            mk("s3", "expression of TP53 was low", vec![O, O, B, O, O]),
            mk("s4", "the patient was treated", vec![O, O, O, O]),
            mk("s5", "no mutation was found", vec![O, O, O, O]),
            mk("s6", "the FLT3 gene was sequenced", vec![O, B, O, O, O]),
            mk("s7", "analysis of NRAS was done", vec![O, O, B, O, O]),
        ])
    }

    fn quick_cfg() -> NerConfig {
        NerConfig {
            order: Order::One,
            train: TrainConfig { max_iterations: 80, l2: 0.1, ..Default::default() },
            min_feature_count: 1,
        }
    }

    #[test]
    fn trains_and_predicts_on_seen_data() {
        let corpus = toy_corpus();
        let (model, report) = NerModel::train(&corpus, &quick_cfg(), None);
        assert!(report.objective.is_finite());
        assert_eq!(model.system(), BaseSystem::Banner);
        for s in &corpus.sentences {
            assert_eq!(&model.predict(s), s.tags.as_ref().unwrap(), "{}", s.id);
        }
    }

    #[test]
    fn generalizes_to_unseen_gene_symbol() {
        let (model, _) = NerModel::train(&toy_corpus(), &quick_cfg(), None);
        // IDH2 unseen, but shape AA0A0/has-digit/after-"of" pattern seen
        let s = Sentence::unlabelled("t", tokenize("mutation of IDH2 was detected"));
        let pred = model.predict(&s);
        let mentions = tags_to_mentions(&pred);
        assert_eq!(mentions.len(), 1, "pred = {pred:?}");
        assert_eq!(mentions[0].start, 2);
    }

    #[test]
    fn posteriors_are_distributions_and_match_viterbi_tendency() {
        let (model, _) = NerModel::train(&toy_corpus(), &quick_cfg(), None);
        let s = Sentence::unlabelled("t", tokenize("the WT1 gene was expressed"));
        let post = model.posteriors(&s);
        assert_eq!(post.len(), 5);
        for row in &post {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert!(post[1][B.index()] > 0.5, "post = {:?}", post[1]);
    }

    #[test]
    fn empty_sentence_handled() {
        let (model, _) = NerModel::train(&toy_corpus(), &quick_cfg(), None);
        let s = Sentence::unlabelled("e", vec![]);
        assert!(model.predict(&s).is_empty());
        assert!(model.posteriors(&s).is_empty());
    }

    #[test]
    #[should_panic(expected = "fully labelled")]
    fn rejects_unlabelled_training_corpus() {
        let mut corpus = toy_corpus();
        corpus.sentences[0].tags = None;
        let _ = NerModel::train(&corpus, &quick_cfg(), None);
    }

    #[test]
    fn min_feature_count_shrinks_index() {
        let corpus = toy_corpus();
        let (m1, _) = NerModel::train(&corpus, &quick_cfg(), None);
        let cfg2 = NerConfig { min_feature_count: 3, ..quick_cfg() };
        let (m2, _) = NerModel::train(&corpus, &cfg2, None);
        assert!(m2.feature_index().len() < m1.feature_index().len());
    }
}
