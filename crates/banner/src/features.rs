//! BANNER-style observation feature extraction.
//!
//! BANNER's CRF owes its strength to a rich orthographic/lexical feature
//! set; BANNER-ChemDNER adds distributional features (Brown cluster path
//! prefixes and embedding-cluster ids) learned from unlabelled text.
//! Features are generated as strings (template `=` value), counted over
//! the training corpus ([`crate::TokenFeatures`]), and frozen into a
//! dense [`FeatureIndex`] with a frequency cutoff; at prediction time
//! unseen features are silently dropped, as in any CRF tagger.

use graphner_embed::{
    brown_cluster, kmeans, train_sgns, BrownClustering, BrownConfig, KMeansConfig, SgnsConfig,
    WordClusters,
};
use graphner_text::shape::orthography;
use graphner_text::{brief_shape, lemma, word_shape, Corpus, Sentence, Vocab};
use rustc_hash::FxHashMap;

/// Distributional resources for the BANNER-ChemDNER variant, trained on
/// unlabelled text.
#[derive(Clone, Debug)]
pub struct DistributionalResources {
    vocab: Vocab,
    brown: BrownClustering,
    clusters: WordClusters,
}

/// Configuration for [`DistributionalResources::train`].
#[derive(Clone, Debug, Default)]
pub struct DistributionalConfig {
    /// Brown clustering settings.
    pub brown: BrownConfig,
    /// Embedding training settings.
    pub sgns: SgnsConfig,
    /// Embedding clustering settings.
    pub kmeans: KMeansConfig,
}

impl DistributionalResources {
    /// Learn Brown clusters and embedding clusters from (unlabelled)
    /// text. Tokens are lowercased before counting, as BANNER-ChemDNER
    /// does for its word-representation lookups.
    pub fn train(unlabelled: &Corpus, cfg: &DistributionalConfig) -> DistributionalResources {
        let mut vocab = Vocab::new();
        let id_sentences: Vec<Vec<u32>> = unlabelled
            .sentences
            .iter()
            .map(|s| s.tokens.iter().map(|t| vocab.intern(&t.to_lowercase())).collect())
            .collect();
        let brown = brown_cluster(&id_sentences, &cfg.brown);
        let emb = train_sgns(&id_sentences, &cfg.sgns);
        let clusters = kmeans(&emb, &cfg.kmeans);
        DistributionalResources { vocab, brown, clusters }
    }

    /// Brown path prefix of a token.
    pub fn brown_prefix(&self, token: &str, len: usize) -> Option<&str> {
        let id = self.vocab.get(&token.to_lowercase())?;
        self.brown.prefix(id, len)
    }

    /// Embedding cluster id of a token.
    pub fn embedding_cluster(&self, token: &str) -> Option<u32> {
        let id = self.vocab.get(&token.to_lowercase())?;
        self.clusters.get(id)
    }
}

/// Which feature groups to fire. `All` is BANNER's full set; `Lexical`
/// restricts to lemmas in a ±2 window — the two vertex-representation
/// choices of Table III that are defined without reference to a trained
/// model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureSet {
    /// The full BANNER feature set.
    All,
    /// Only lemmas of the words in a window of length 5.
    Lexical,
}

/// Generate the feature strings firing at position `i` of `sentence`.
///
/// `dist` enables the ChemDNER distributional features. Strings are
/// pushed into `out` (cleared first) so callers can reuse the buffer.
pub fn extract_features(
    sentence: &Sentence,
    i: usize,
    set: FeatureSet,
    dist: Option<&DistributionalResources>,
    out: &mut Vec<String>,
) {
    out.clear();
    let tokens = &sentence.tokens;
    let get = |j: isize| -> Option<&str> {
        if j < 0 || j as usize >= tokens.len() {
            None
        } else {
            Some(tokens[j as usize].as_str())
        }
    };
    let w = tokens[i].as_str();
    let i = i as isize;

    if set == FeatureSet::Lexical {
        for off in -2..=2i64 {
            if let Some(t) = get(i + off as isize) {
                out.push(format!("L{off}={}", lemma(t)));
            }
        }
        return;
    }

    out.push("BIAS".to_string());
    let lower = w.to_lowercase();
    out.push(format!("W={lower}"));
    out.push(format!("LEMMA={}", lemma(w)));
    out.push(format!("SHAPE={}", word_shape(w)));
    out.push(format!("BRIEF={}", brief_shape(w)));

    // context windows ±2
    for off in [-2isize, -1, 1, 2] {
        match get(i + off) {
            Some(t) => out.push(format!("W{off:+}={}", t.to_lowercase())),
            None => out.push(format!("W{off:+}=<pad>")),
        }
    }
    for off in [-1isize, 1] {
        if let Some(t) = get(i + off) {
            out.push(format!("LEMMA{off:+}={}", lemma(t)));
            out.push(format!("SHAPE{off:+}={}", word_shape(t)));
            out.push(format!("BRIEF{off:+}={}", brief_shape(t)));
        }
    }

    // conjunctions
    if let Some(p) = get(i - 1) {
        out.push(format!("BG-1={}|{}", p.to_lowercase(), lower));
    }
    if let Some(n) = get(i + 1) {
        out.push(format!("BG+1={}|{}", lower, n.to_lowercase()));
    }

    // affixes
    let chars: Vec<char> = w.chars().collect();
    for len in 1..=4usize {
        if chars.len() >= len {
            let prefix: String = chars[..len].iter().collect();
            let suffix: String = chars[chars.len() - len..].iter().collect();
            out.push(format!("PRE{len}={}", prefix.to_lowercase()));
            out.push(format!("SUF{len}={}", suffix.to_lowercase()));
        }
    }

    // character n-grams (2 and 3) of the lowercased token
    let lchars: Vec<char> = lower.chars().collect();
    for n in [2usize, 3] {
        if lchars.len() >= n {
            for win in lchars.windows(n) {
                out.push(format!("CG{n}={}", win.iter().collect::<String>()));
            }
        }
    }

    // orthographic predicates
    let o = orthography(w);
    for (flag, name) in [
        (o.all_caps, "ALLCAPS"),
        (o.init_cap, "INITCAP"),
        (o.mixed_case, "MIXED"),
        (o.all_digits, "ALLDIG"),
        (o.has_digit, "HASDIG"),
        (o.alphanumeric, "ALNUM"),
        (o.has_dash, "DASH"),
        (o.is_punct, "PUNCT"),
        (o.roman_numeral, "ROMAN"),
        (o.greek, "GREEK"),
        (o.single_char, "SINGLE"),
    ] {
        if flag {
            out.push(format!("ORTH={name}"));
        }
    }
    out.push(format!("LEN={}", chars.len().min(8)));

    // distributional features (BANNER-ChemDNER)
    if let Some(d) = dist {
        for off in [-1isize, 0, 1] {
            if let Some(t) = get(i + off) {
                for plen in [4usize, 6, 10, 20] {
                    if let Some(p) = d.brown_prefix(t, plen) {
                        out.push(format!("BR{off:+}.{plen}={p}"));
                    }
                }
                if let Some(c) = d.embedding_cluster(t) {
                    out.push(format!("EC{off:+}={c}"));
                }
            }
        }
    }
}

/// A frozen feature-string → dense-id index built from training counts.
#[derive(Clone, Debug, Default)]
pub struct FeatureIndex {
    map: FxHashMap<String, u32>,
}

impl FeatureIndex {
    /// Build from a counting pass: keep features occurring at least
    /// `min_count` times. The string-path oracle of
    /// [`TokenFeatures::feature_index`](crate::TokenFeatures::feature_index),
    /// which builds the library's indexes.
    #[cfg(test)]
    pub fn build(counts: &FxHashMap<String, u32>, min_count: u32) -> FeatureIndex {
        let mut kept: Vec<&String> =
            counts.iter().filter(|&(_, &c)| c >= min_count).map(|(f, _)| f).collect();
        kept.sort_unstable(); // deterministic ids
        let map = kept.into_iter().enumerate().map(|(i, f)| (f.clone(), i as u32)).collect();
        FeatureIndex { map }
    }

    /// Number of indexed features.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Dense id of a feature string, if kept.
    pub fn get(&self, feature: &str) -> Option<u32> {
        self.map.get(feature).copied()
    }

    /// Map a batch of feature strings to ids, dropping unknowns.
    pub fn ids(&self, features: &[String]) -> Vec<u32> {
        let mut ids: Vec<u32> = features.iter().filter_map(|f| self.get(f)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// All feature strings, ordered so that position `i` holds the
    /// feature with id `i` — the persistence export.
    pub fn strings_in_id_order(&self) -> Vec<String> {
        let mut out = vec![String::new(); self.map.len()];
        for (f, &id) in &self.map {
            out[id as usize] = f.clone();
        }
        out
    }

    /// Rebuild an index from strings in id order, as produced by
    /// [`strings_in_id_order`](FeatureIndex::strings_in_id_order).
    pub fn from_strings(strings: Vec<String>) -> FeatureIndex {
        let map = strings.into_iter().enumerate().map(|(i, f)| (f, i as u32)).collect();
        FeatureIndex { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::tokenize;

    fn sent(text: &str) -> Sentence {
        Sentence::unlabelled("s", tokenize(text))
    }

    #[test]
    fn core_features_fire() {
        let s = sent("the WT1 gene");
        let mut out = Vec::new();
        extract_features(&s, 1, FeatureSet::All, None, &mut out);
        assert!(out.contains(&"W=wt1".to_string()));
        assert!(out.contains(&"ORTH=HASDIG".to_string()));
        assert!(out.contains(&"ORTH=ALNUM".to_string()));
        assert!(out.contains(&"W-1=the".to_string()));
        assert!(out.contains(&"W+1=gene".to_string()));
        assert!(out.contains(&"PRE2=wt".to_string()));
        assert!(out.contains(&"SUF1=1".to_string()));
        assert!(out.contains(&"BIAS".to_string()));
        assert!(out.contains(&"SHAPE=AA0".to_string()));
    }

    #[test]
    fn boundary_positions_use_padding() {
        let s = sent("gene");
        let mut out = Vec::new();
        extract_features(&s, 0, FeatureSet::All, None, &mut out);
        assert!(out.contains(&"W-1=<pad>".to_string()));
        assert!(out.contains(&"W+2=<pad>".to_string()));
    }

    #[test]
    fn lexical_set_is_window_of_lemmas() {
        let s = sent("mutations were detected in genes");
        let mut out = Vec::new();
        extract_features(&s, 2, FeatureSet::Lexical, None, &mut out);
        assert_eq!(out.len(), 5);
        assert!(out.contains(&"L0=detect".to_string()));
        assert!(out.contains(&"L-2=mutate".to_string()));
        assert!(out.contains(&"L2=gene".to_string()));
    }

    #[test]
    fn lexical_set_truncated_at_boundaries() {
        let s = sent("two words");
        let mut out = Vec::new();
        extract_features(&s, 0, FeatureSet::Lexical, None, &mut out);
        assert_eq!(out.len(), 2); // positions 0 and +1 only
    }

    #[test]
    fn feature_index_cutoff_and_determinism() {
        let mut counts = FxHashMap::default();
        counts.insert("A".to_string(), 5u32);
        counts.insert("B".to_string(), 1);
        counts.insert("C".to_string(), 3);
        let idx = FeatureIndex::build(&counts, 2);
        assert_eq!(idx.len(), 2);
        assert!(idx.get("A").is_some());
        assert!(idx.get("B").is_none());
        // ids are assigned in sorted order
        assert_eq!(idx.get("A"), Some(0));
        assert_eq!(idx.get("C"), Some(1));
    }

    #[test]
    fn ids_drop_unknown_and_dedup() {
        let mut counts = FxHashMap::default();
        counts.insert("X".to_string(), 2u32);
        let idx = FeatureIndex::build(&counts, 1);
        let ids = idx.ids(&["X".to_string(), "Y".to_string(), "X".to_string()]);
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn distributional_features_fire_when_trained() {
        let corpus = Corpus::from_sentences(
            (0..30)
                .map(|k| {
                    Sentence::unlabelled(
                        format!("u{k}"),
                        tokenize(if k % 2 == 0 {
                            "the gene was expressed"
                        } else {
                            "the protein was detected"
                        }),
                    )
                })
                .collect(),
        );
        let cfg = DistributionalConfig {
            brown: BrownConfig { num_clusters: 4, min_count: 1 },
            sgns: SgnsConfig { dim: 8, epochs: 2, min_count: 1, ..Default::default() },
            kmeans: KMeansConfig { k: 4, ..Default::default() },
        };
        let dist = DistributionalResources::train(&corpus, &cfg);
        assert!(dist.brown_prefix("gene", 4).is_some());
        assert!(dist.embedding_cluster("gene").is_some());
        assert!(dist.brown_prefix("unseen-token", 4).is_none());
        let s = sent("the gene was expressed");
        let mut out = Vec::new();
        extract_features(&s, 1, FeatureSet::All, Some(&dist), &mut out);
        assert!(out.iter().any(|f| f.starts_with("BR+0.4=")), "{out:?}");
        assert!(out.iter().any(|f| f.starts_with("EC+0=")), "{out:?}");
    }

    #[test]
    fn case_insensitive_lexical_lookup() {
        let corpus = Corpus::from_sentences(vec![Sentence::unlabelled(
            "u",
            tokenize("Gene gene GENE gene gene"),
        )]);
        let dist = DistributionalResources::train(
            &corpus,
            &DistributionalConfig {
                brown: BrownConfig { num_clusters: 2, min_count: 1 },
                sgns: SgnsConfig { dim: 4, epochs: 1, min_count: 1, ..Default::default() },
                kmeans: KMeansConfig { k: 2, ..Default::default() },
            },
        );
        assert_eq!(dist.brown_prefix("GENE", 4), dist.brown_prefix("gene", 4));
    }
}
