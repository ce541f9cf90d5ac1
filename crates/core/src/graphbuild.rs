//! Similarity-graph construction over the partially labelled corpus.
//!
//! Vertices are the unique 3-grams of `D_l ∪ D_u`; each occurrence of a
//! 3-gram contributes the feature instances firing at its centre token
//! (per the chosen [`GraphFeatureSet`]) to the vertex's PMI vector; the
//! graph keeps the K nearest neighbours by cosine.

use crate::check;
use crate::config::GraphFeatureSet;
use graphner_banner::{extract_features, FeatureSet, NerModel};
use graphner_graph::{knn_inverted_index, KnnGraph, VertexFeatureCounts};
use graphner_obs::{obs_debug, obs_summary, span, SpanName};
use graphner_text::{exactly_zero, Sentence, TrigramInterner, Vocab};
use rustc_hash::{FxHashMap, FxHashSet};

/// Mutual information between a binary feature's presence and the tag
/// the base CRF assigns, over all token occurrences. Used by the
/// `MI > τ` vertex representations of Table III.
pub fn feature_tag_mi(model: &NerModel, sentences: &[&Sentence]) -> FxHashMap<String, f64> {
    let mut n_ft: FxHashMap<(String, usize), f64> = FxHashMap::default();
    let mut n_f: FxHashMap<String, f64> = FxHashMap::default();
    let mut n_t = [0.0f64; 3];
    let mut total = 0.0f64;
    let mut buf = Vec::new();
    for sentence in sentences {
        if sentence.is_empty() {
            continue;
        }
        let tags = model.predict(sentence);
        for (i, tag) in tags.iter().enumerate() {
            let t = tag.index();
            model.feature_strings(sentence, i, &mut buf);
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
    if exactly_zero(total) {
        return FxHashMap::default();
    }

    let mut mi: FxHashMap<String, f64> = FxHashMap::default();
    for (f, nf) in &n_f {
        let p1 = nf / total;
        let p0 = 1.0 - p1;
        let mut m = 0.0;
        for t in 0..3 {
            let pt = n_t[t] / total;
            if exactly_zero(pt) {
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

/// Build the PMI feature vectors for every 3-gram vertex of
/// `sentences`, interning any 3-grams not yet in `interner`. The
/// returned vector list is indexed by vertex id and depends only on the
/// corpus and `feature_set` — not on K — so sessions sweeping K can
/// reuse it across [`knn_from_vectors`] calls.
pub fn build_vertex_vectors(
    model: &NerModel,
    interner: &mut TrigramInterner,
    sentences: &[&Sentence],
    feature_set: GraphFeatureSet,
) -> Vec<graphner_graph::SparseVec> {
    // MI selection needs a first pass over the corpus with the trained
    // model before feature filtering.
    let allowed: Option<FxHashSet<String>> = match feature_set {
        GraphFeatureSet::MiThreshold(tau) => {
            let _s = span(SpanName::GraphMiFilter);
            let mi = feature_tag_mi(model, sentences);
            let total = mi.len();
            let allow: FxHashSet<String> =
                mi.into_iter().filter(|&(_, m)| m > tau).map(|(f, _)| f).collect();
            obs_debug!(
                "graph: MI filter keeps {}/{} features above tau {tau:.3e}",
                allow.len(),
                total
            );
            Some(allow)
        }
        _ => None,
    };

    let mut feature_vocab = Vocab::new();
    let mut counts = VertexFeatureCounts::new();
    {
        let _s = span(SpanName::GraphVectors);
        let mut buf = Vec::new();
        for sentence in sentences {
            for i in 0..sentence.len() {
                let v = interner.intern_at(sentence, i);
                match feature_set {
                    GraphFeatureSet::Lexical => {
                        extract_features(sentence, i, FeatureSet::Lexical, None, &mut buf)
                    }
                    _ => model.feature_strings(sentence, i, &mut buf),
                }
                buf.sort_unstable();
                buf.dedup();
                for f in &buf {
                    if let Some(allow) = &allowed {
                        if !allow.contains(f) {
                            continue;
                        }
                    }
                    counts.add(v, feature_vocab.intern(f), 1.0);
                }
            }
        }
        graphner_obs::attr("graph.vertices", interner.len());
        graphner_obs::attr("graph.features", feature_vocab.len());
    }
    graphner_obs::counter("graph.features").add(feature_vocab.len() as u64);
    let _s = span(SpanName::GraphPmi);
    let vectors = counts.pmi_vectors(interner.len());
    let nnz: u64 = vectors.iter().map(|v| v.entries().len() as u64).sum();
    graphner_obs::attr("pmi.nnz", nnz);
    check::assert_finite_sparse("PMI vertex vectors (GraphStage)", &vectors);
    vectors
}

/// Connect precomputed PMI vectors into the K-nearest-neighbour graph.
pub fn knn_from_vectors(vectors: &[graphner_graph::SparseVec], k: usize) -> KnnGraph {
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
/// [`knn_from_vectors`]; staged callers (the session cache in
/// [`crate::pipeline`]) invoke the pieces directly so the vectors can
/// be reused across K sweeps.
pub fn build_graph(
    model: &NerModel,
    interner: &mut TrigramInterner,
    sentences: &[&Sentence],
    feature_set: GraphFeatureSet,
    k: usize,
) -> KnnGraph {
    let vectors = build_vertex_vectors(model, interner, sentences, feature_set);
    knn_from_vectors(&vectors, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_banner::NerConfig;
    use graphner_crf::{Order, TrainConfig};
    use graphner_text::{tokenize, BioTag::*, Corpus};

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
