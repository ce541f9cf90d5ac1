//! Similarity-graph construction over the partially labelled corpus.
//!
//! Vertices are the unique 3-grams of `D_l ∪ D_u`; each occurrence of a
//! 3-gram contributes the feature instances firing at its centre token
//! (per the chosen [`GraphFeatureSet`]) to the vertex's PMI vector; the
//! graph keeps the K nearest neighbours by cosine.
//!
//! Features are read as integer ids from a [`TokenFeatures`] table, not
//! re-extracted: the All and `MI > τ` sets read the [`CorpusFeatures`]
//! table that posterior extraction also reads, and the Lexical set
//! builds a table of its own. Graph feature ids are minted in
//! first-seen order over the tokens of `D_l ∪ D_u`, walking each
//! token's features in byte order (the table's id order), and the
//! counts are integers, so the vectors do not depend on how the
//! features were stored.

use crate::check;
use crate::config::GraphFeatureSet;
use graphner_banner::{FeatureSet, NerModel, TokenFeatures};
use graphner_crf::SentenceFeatures;
use graphner_graph::{knn_inverted_index, KnnGraph, SparseVec, VertexFeatureCounts};
use graphner_obs::{obs_debug, obs_summary, span, SpanName};
use graphner_text::{BioTag, Sentence, TrigramInterner, NUM_TAGS};
use rayon::prelude::*;
#[cfg(test)]
use rustc_hash::FxHashMap;

/// The [`FeatureSet::All`] table of a corpus, with the base CRF's
/// observation id for each of its strings: what posterior extraction,
/// the MI filter and the All / `MI > τ` graphs read.
#[derive(Clone, Debug)]
pub struct CorpusFeatures {
    /// Every token of the corpus, featurized once.
    pub table: TokenFeatures,
    /// CRF observation id of each table id (`None`: outside the model's
    /// feature index).
    pub crf_ids: Vec<Option<u32>>,
}

impl CorpusFeatures {
    /// Featurize `sentences` with the model's feature extractor.
    #[cfg(test)]
    pub fn build(model: &NerModel, sentences: &[&Sentence]) -> CorpusFeatures {
        let table = TokenFeatures::build(sentences, FeatureSet::All, model.distributional());
        CorpusFeatures::bind(model, table)
    }

    /// `base`, the All table of earlier sentences built with the
    /// model's extractor, followed by `sentences`.
    pub fn extend(
        model: &NerModel,
        base: &TokenFeatures,
        sentences: &[&Sentence],
    ) -> CorpusFeatures {
        CorpusFeatures::bind(model, base.extended(sentences, model.distributional()))
    }

    fn bind(model: &NerModel, table: TokenFeatures) -> CorpusFeatures {
        let crf_ids = table.crf_ids(model.feature_index());
        CorpusFeatures { table, crf_ids }
    }

    /// The CRF input of sentence `s`, equal to `model.featurize` of it.
    pub fn sentence(&self, s: usize) -> SentenceFeatures {
        self.table.sentence_features(s, &self.crf_ids)
    }
}

/// [`table_mi`] keyed by feature string: the table path's view for the
/// string-path oracle in the tests.
#[cfg(test)]
pub fn feature_tag_mi(model: &NerModel, sentences: &[&Sentence]) -> FxHashMap<String, f64> {
    let features = CorpusFeatures::build(model, sentences);
    table_mi(model, &features)
        .into_iter()
        .enumerate()
        .map(|(id, m)| (features.table.string(id as u32).to_owned(), m))
        .collect()
}

/// Mutual information between a binary feature's presence and the tag
/// the base CRF assigns, over all token occurrences, per table id. Used
/// by the `MI > τ` vertex representations of Table III. Counts are
/// dense per id, and the tags are the CRF's Viterbi decode of the
/// table's CRF ids.
fn table_mi(model: &NerModel, features: &CorpusFeatures) -> Vec<f64> {
    let table = &features.table;
    let tags: Vec<Vec<BioTag>> = (0..table.num_sentences())
        .into_par_iter()
        .map(|s| model.predict_features(&features.sentence(s)))
        .collect();
    let n = table.num_strings();
    let mut n_ft = vec![[0.0f64; NUM_TAGS]; n];
    let mut n_f = vec![0.0f64; n];
    let mut n_t = [0.0f64; NUM_TAGS];
    let mut total = 0.0f64;
    for (s, tags) in tags.iter().enumerate() {
        for (t, tag) in table.sentence_tokens(s).zip(tags) {
            let y = tag.index();
            for &f in table.token(t) {
                n_ft[f as usize][y] += 1.0;
                n_f[f as usize] += 1.0;
            }
            n_t[y] += 1.0;
            total += 1.0;
        }
    }
    if total == 0.0 {
        return vec![0.0; n];
    }
    n_f.iter()
        .zip(&n_ft)
        .map(|(nf, nft)| {
            let p1 = nf / total;
            let p0 = 1.0 - p1;
            let mut m = 0.0;
            for t in 0..NUM_TAGS {
                let pt = n_t[t] / total;
                if pt == 0.0 {
                    continue;
                }
                let p1t = nft[t] / total;
                let p0t = pt - p1t;
                if p1t > 0.0 && p1 > 0.0 {
                    m += p1t * (p1t / (p1 * pt)).ln();
                }
                if p0t > 0.0 && p0 > 0.0 {
                    m += p0t * (p0t / (p0 * pt)).ln();
                }
            }
            m
        })
        .collect()
}

/// Per-vertex feature occurrence lists of `sentences`, interning their
/// 3-grams into `interner`. `allowed` (by table id) drops features;
/// kept ones get graph ids in first-seen order. Returns the lists and
/// the number of graph feature ids.
fn vertex_occurrences(
    table: &TokenFeatures,
    allowed: Option<&[bool]>,
    interner: &mut TrigramInterner,
    sentences: &[&Sentence],
) -> (Vec<Vec<u32>>, u32) {
    assert_eq!(table.num_sentences(), sentences.len(), "feature table is of another corpus");
    let mut graph_ids: Vec<Option<u32>> = vec![None; table.num_strings()];
    let mut num_features = 0u32;
    let mut occurrences: Vec<Vec<u32>> = vec![Vec::new(); interner.len()];
    for (s, sentence) in sentences.iter().enumerate() {
        for (i, t) in table.sentence_tokens(s).enumerate() {
            let v = interner.intern_at(sentence, i) as usize;
            if v == occurrences.len() {
                occurrences.push(Vec::new());
            }
            for &id in table.token(t) {
                if allowed.is_some_and(|allowed| !allowed[id as usize]) {
                    continue;
                }
                let g = *graph_ids[id as usize].get_or_insert_with(|| {
                    num_features += 1;
                    num_features - 1
                });
                occurrences[v].push(g);
            }
        }
    }
    (occurrences, num_features)
}

/// Build the PMI feature vectors for every 3-gram vertex of
/// `sentences`, interning any 3-grams not yet in `interner`.
/// `features` is the [`CorpusFeatures`] of `sentences`; the Lexical
/// set builds its own table. The returned vector list is indexed by
/// vertex id and depends only on the corpus and `feature_set` — not on
/// K — so sessions sweeping K can reuse it across [`knn_from_vectors`]
/// calls.
pub fn build_vertex_vectors(
    model: &NerModel,
    features: &CorpusFeatures,
    interner: &mut TrigramInterner,
    sentences: &[&Sentence],
    feature_set: GraphFeatureSet,
) -> Vec<SparseVec> {
    // MI selection scores every feature against the CRF's tags first
    let allowed: Option<Vec<bool>> = match feature_set {
        GraphFeatureSet::MiThreshold(tau) => {
            let _s = span(SpanName::GraphMiFilter);
            let mi = table_mi(model, features);
            let allow: Vec<bool> = mi.iter().map(|&m| m > tau).collect();
            obs_debug!(
                "graph: MI filter keeps {}/{} features above tau {tau:.3e}",
                allow.iter().filter(|&&kept| kept).count(),
                mi.len()
            );
            Some(allow)
        }
        _ => None,
    };

    let (counts, num_features) = {
        let _s = span(SpanName::GraphVectors);
        let lexical = matches!(feature_set, GraphFeatureSet::Lexical)
            .then(|| TokenFeatures::build(sentences, FeatureSet::Lexical, None));
        let table = lexical.as_ref().unwrap_or(&features.table);
        let (occurrences, num_features) =
            vertex_occurrences(table, allowed.as_deref(), interner, sentences);
        graphner_obs::attr("graph.vertices", interner.len());
        graphner_obs::attr("graph.features", num_features);
        (VertexFeatureCounts::from_occurrences(occurrences), num_features)
    };
    graphner_obs::counter("graph.features").add(u64::from(num_features));
    let _s = span(SpanName::GraphPmi);
    let vectors = counts.pmi_vectors(interner.len());
    let nnz: u64 = vectors.iter().map(|v| v.entries().len() as u64).sum();
    graphner_obs::attr("pmi.nnz", nnz);
    check::assert_finite_sparse("PMI vertex vectors (GraphStage)", &vectors);
    vectors
}

/// Connect precomputed PMI vectors into the K-nearest-neighbour graph.
pub fn knn_from_vectors(vectors: &[SparseVec], k: usize) -> KnnGraph {
    let graph = {
        let _s = span(SpanName::GraphKnn);
        graphner_obs::attr("knn.k", k);
        knn_inverted_index(vectors, k)
    };
    check::assert_edge_weights_symmetric("k-NN graph (GraphStage)", &graph);
    graphner_obs::counter("graph.vertices").add(graph.num_vertices() as u64);
    obs_summary!(
        "graph build: {} vertices, {} edges (k = {k})",
        graph.num_vertices(),
        graph.num_edges()
    );
    graph
}

/// Build the k-NN similarity graph. `interner` must already contain (or
/// will be extended with) every 3-gram of `sentences`; the returned
/// graph's vertex ids are the interner's.
///
/// One-shot composition of [`build_vertex_vectors`] and
/// [`knn_from_vectors`] for the tests; the session cache in
/// [`crate::pipeline`] invokes the pieces directly so the vectors can
/// be reused across K sweeps.
#[cfg(test)]
pub fn build_graph(
    model: &NerModel,
    interner: &mut TrigramInterner,
    sentences: &[&Sentence],
    feature_set: GraphFeatureSet,
    k: usize,
) -> KnnGraph {
    let features = CorpusFeatures::build(model, sentences);
    let vectors = build_vertex_vectors(model, &features, interner, sentences, feature_set);
    knn_from_vectors(&vectors, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_banner::{extract_features, NerConfig};
    use graphner_corpusgen::{generate, CorpusProfile};
    use graphner_crf::{Order, TrainConfig};
    use graphner_text::{tokenize, BioTag::*, Corpus, Vocab};
    use rustc_hash::FxHashSet;
    use std::collections::BTreeMap;

    /// The string-path oracle of [`feature_tag_mi`]: tags from
    /// `model.predict`, features re-extracted, sorted and deduplicated
    /// per token, counts keyed by string.
    fn feature_tag_mi_by_strings(
        model: &NerModel,
        sentences: &[&Sentence],
    ) -> FxHashMap<String, f64> {
        let mut n_ft: FxHashMap<(String, usize), f64> = FxHashMap::default();
        let mut n_f: FxHashMap<String, f64> = FxHashMap::default();
        let mut n_t = [0.0f64; 3];
        let mut total = 0.0f64;
        let mut buf = Vec::new();
        for sentence in sentences {
            for (i, tag) in model.predict(sentence).iter().enumerate() {
                let t = tag.index();
                extract_features(sentence, i, FeatureSet::All, model.distributional(), &mut buf);
                buf.sort_unstable();
                buf.dedup();
                for f in &buf {
                    *n_ft.entry((f.clone(), t)).or_insert(0.0) += 1.0;
                    *n_f.entry(f.clone()).or_insert(0.0) += 1.0;
                }
                n_t[t] += 1.0;
                total += 1.0;
            }
        }
        let mut mi = FxHashMap::default();
        for (f, nf) in &n_f {
            let p1 = nf / total;
            let p0 = 1.0 - p1;
            let mut m = 0.0;
            for t in 0..3 {
                let pt = n_t[t] / total;
                if pt == 0.0 {
                    continue;
                }
                let p1t = n_ft.get(&(f.clone(), t)).copied().unwrap_or(0.0) / total;
                let p0t = pt - p1t;
                if p1t > 0.0 && p1 > 0.0 {
                    m += p1t * (p1t / (p1 * pt)).ln();
                }
                if p0t > 0.0 && p0 > 0.0 {
                    m += p0t * (p0t / (p0 * pt)).ln();
                }
            }
            mi.insert(f.clone(), m);
        }
        mi
    }

    /// The string-path oracle of [`build_vertex_vectors`]: per token,
    /// re-extract the feature strings, sort and dedup them, intern them
    /// into a first-seen vocabulary, and count `(vertex, feature)`
    /// pairs in hash maps.
    fn build_vertex_vectors_by_strings(
        model: &NerModel,
        interner: &mut TrigramInterner,
        sentences: &[&Sentence],
        feature_set: GraphFeatureSet,
    ) -> Vec<SparseVec> {
        let allowed: Option<FxHashSet<String>> = match feature_set {
            GraphFeatureSet::MiThreshold(tau) => Some(
                feature_tag_mi_by_strings(model, sentences)
                    .into_iter()
                    .filter(|&(_, m)| m > tau)
                    .map(|(f, _)| f)
                    .collect(),
            ),
            _ => None,
        };
        let mut vocab = Vocab::new();
        let mut counts: FxHashMap<(u32, u32), f64> = FxHashMap::default();
        let mut vertex_total: FxHashMap<u32, f64> = FxHashMap::default();
        let mut feature_total: FxHashMap<u32, f64> = FxHashMap::default();
        let mut grand_total = 0.0;
        let mut buf = Vec::new();
        for sentence in sentences {
            for i in 0..sentence.len() {
                let v = interner.intern_at(sentence, i);
                match feature_set {
                    GraphFeatureSet::Lexical => {
                        extract_features(sentence, i, FeatureSet::Lexical, None, &mut buf)
                    }
                    _ => extract_features(
                        sentence,
                        i,
                        FeatureSet::All,
                        model.distributional(),
                        &mut buf,
                    ),
                }
                buf.sort_unstable();
                buf.dedup();
                for f in &buf {
                    if allowed.as_ref().is_some_and(|allow| !allow.contains(f)) {
                        continue;
                    }
                    let f = vocab.intern(f);
                    *counts.entry((v, f)).or_insert(0.0) += 1.0;
                    *vertex_total.entry(v).or_insert(0.0) += 1.0;
                    *feature_total.entry(f).or_insert(0.0) += 1.0;
                    grand_total += 1.0;
                }
            }
        }
        let mut pairs: Vec<Vec<(u32, f32)>> = vec![Vec::new(); interner.len()];
        for (&(v, f), &c_vf) in &counts {
            let pmi = (c_vf * grand_total / (vertex_total[&v] * feature_total[&f])).ln();
            if pmi > 0.0 {
                pairs[v as usize].push((f, pmi as f32));
            }
        }
        pairs
            .into_iter()
            .map(|p| {
                let mut v = SparseVec::from_pairs(p);
                v.normalize();
                v
            })
            .collect()
    }

    #[test]
    fn table_path_equals_the_string_path_oracle() {
        let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
        let cfg = NerConfig {
            order: Order::One,
            train: TrainConfig { max_iterations: 15, ..Default::default() },
            min_feature_count: 2,
        };
        let (model, _) = NerModel::train(&corpus.train, &cfg, None);
        let test = corpus.test.without_tags();
        let sentences: Vec<&Sentence> =
            corpus.train.sentences.iter().chain(&test.sentences).collect();
        let features = CorpusFeatures::build(&model, &sentences);

        let bits = |mi: FxHashMap<String, f64>| -> BTreeMap<String, u64> {
            mi.into_iter().map(|(f, m)| (f, m.to_bits())).collect()
        };
        let mi = feature_tag_mi(&model, &sentences);
        assert!(mi.values().any(|&m| m > 1e-6) && mi.values().any(|&m| m <= 1e-6));
        assert_eq!(bits(mi), bits(feature_tag_mi_by_strings(&model, &sentences)));

        for feature_set in
            [GraphFeatureSet::All, GraphFeatureSet::Lexical, GraphFeatureSet::MiThreshold(1e-6)]
        {
            let (mut by_table, mut by_strings) = (TrigramInterner::new(), TrigramInterner::new());
            let vectors =
                build_vertex_vectors(&model, &features, &mut by_table, &sentences, feature_set);
            let oracle =
                build_vertex_vectors_by_strings(&model, &mut by_strings, &sentences, feature_set);
            assert_eq!(by_table.trigrams(), by_strings.trigrams());
            assert!(vectors.iter().any(|v| !v.is_empty()));
            assert_eq!(vectors, oracle, "{} vectors differ from the oracle", feature_set.name());
        }
    }

    fn toy_model_and_corpus() -> (NerModel, Corpus) {
        let mk = |id: &str, text: &str, tags: Vec<graphner_text::BioTag>| {
            Sentence::labelled(id, tokenize(text), tags)
        };
        let corpus = Corpus::from_sentences(vec![
            mk("s0", "the WT1 gene was expressed", vec![O, B, O, O, O]),
            mk("s1", "mutation of SH2B3 was detected", vec![O, O, B, O, O]),
            mk("s2", "the KRAS gene was mutated", vec![O, B, O, O, O]),
            mk("s3", "no mutation was found", vec![O, O, O, O]),
        ]);
        let cfg = NerConfig {
            order: Order::One,
            train: TrainConfig { max_iterations: 50, ..Default::default() },
            min_feature_count: 1,
        };
        let (model, _) = NerModel::train(&corpus, &cfg, None);
        (model, corpus)
    }

    #[test]
    fn graph_covers_all_trigrams() {
        let (model, corpus) = toy_model_and_corpus();
        let refs: Vec<&Sentence> = corpus.sentences.iter().collect();
        let mut interner = TrigramInterner::new();
        let g = build_graph(&model, &mut interner, &refs, GraphFeatureSet::All, 3);
        assert_eq!(g.num_vertices(), interner.len());
        assert!(g.num_vertices() > 10);
        // every vertex has at most K out-edges
        for v in 0..g.num_vertices() as u32 {
            assert!(g.out_degree(v) <= 3);
        }
    }

    #[test]
    fn similar_contexts_are_neighbours() {
        let (model, corpus) = toy_model_and_corpus();
        let refs: Vec<&Sentence> = corpus.sentences.iter().collect();
        let mut interner = TrigramInterner::new();
        let g = build_graph(&model, &mut interner, &refs, GraphFeatureSet::All, 3);
        // [the WT1 gene] and [the KRAS gene] occupy the same context
        let v1 = interner.lookup_at(&corpus.sentences[0], 1).unwrap();
        let v2 = interner.lookup_at(&corpus.sentences[2], 1).unwrap();
        assert!(
            g.neighbors(v1).any(|(nb, _)| nb == v2),
            "expected {} among neighbours of {}",
            interner.render(v2),
            interner.render(v1)
        );
    }

    #[test]
    fn lexical_set_builds_smaller_vectors() {
        let (model, corpus) = toy_model_and_corpus();
        let refs: Vec<&Sentence> = corpus.sentences.iter().collect();
        let mut i1 = TrigramInterner::new();
        let mut i2 = TrigramInterner::new();
        let g_all = build_graph(&model, &mut i1, &refs, GraphFeatureSet::All, 3);
        let g_lex = build_graph(&model, &mut i2, &refs, GraphFeatureSet::Lexical, 3);
        assert_eq!(g_all.num_vertices(), g_lex.num_vertices());
    }

    #[test]
    fn mi_scores_nonnegative_and_informative_features_rank_high() {
        let (model, corpus) = toy_model_and_corpus();
        let refs: Vec<&Sentence> = corpus.sentences.iter().collect();
        let mi = feature_tag_mi(&model, &refs);
        assert!(!mi.is_empty());
        for &m in mi.values() {
            assert!(m > -1e-9, "negative MI");
        }
        // a gene-indicative feature must out-rank the constant bias
        let bias = mi["BIAS"];
        let hasdig = mi["ORTH=HASDIG"];
        assert!(hasdig > bias, "HASDIG {hasdig} vs BIAS {bias}");
        assert!(bias.abs() < 1e-9, "constant feature carries no information");
    }

    #[test]
    fn mi_threshold_filters_features() {
        let (model, corpus) = toy_model_and_corpus();
        let refs: Vec<&Sentence> = corpus.sentences.iter().collect();
        let mut interner = TrigramInterner::new();
        // with an impossible threshold no features survive: empty graph
        let g = build_graph(&model, &mut interner, &refs, GraphFeatureSet::MiThreshold(1e9), 3);
        assert_eq!(g.num_edges(), 0);
        // with a permissive threshold the graph has edges
        let mut interner2 = TrigramInterner::new();
        let g2 = build_graph(&model, &mut interner2, &refs, GraphFeatureSet::MiThreshold(1e-6), 3);
        assert!(g2.num_edges() > 0);
    }
}
