//! The per-corpus token feature table.
//!
//! GraphNER reads the same BANNER feature instances three times per
//! corpus: CRF training counts and featurizes them, posterior
//! extraction featurizes them again, and the PMI graph's vertex vectors
//! are built over them. [`TokenFeatures`] runs [`extract_features`]
//! once per token and stores every token as integer ids into one sorted
//! string table, so each consumer reads ids instead of re-formatting,
//! re-sorting and re-hashing strings.
//!
//! Table ids are the strings' byte-order ranks, so each token's
//! ascending ids are its feature strings in byte order. That one
//! invariant carries the consumers' identities:
//!
//! * the CRF ids of a [`FeatureIndex`] are sorted-string ids, so mapping
//!   a token's table ids through [`TokenFeatures::crf_ids`] gives exactly
//!   [`FeatureIndex::ids`] of its strings;
//! * a graph that numbers features in first-seen order over tokens whose
//!   strings are sorted sees the same order when it walks the ids.
//!
//! Extraction runs in parallel over sentence chunks whose boundaries
//! depend only on sentence lengths. Each chunk interns its own strings;
//! the chunks are then merged in order by a k-way merge of their sorted
//! string lists, so the table is identical at any thread count.

use crate::features::{extract_features, DistributionalResources, FeatureIndex, FeatureSet};
use graphner_crf::SentenceFeatures;
use graphner_text::Sentence;
use rayon::prelude::*;
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Tokens per extraction chunk. A chunk closes at the first sentence
/// boundary at or past this many tokens.
const CHUNK_TOKENS: usize = 2048;

/// Every token of a corpus, featurized once: the distinct feature
/// strings in byte order, and each token's distinct feature ids into
/// them.
#[derive(Clone, Debug, PartialEq)]
pub struct TokenFeatures {
    set: FeatureSet,
    /// Distinct feature strings, ascending; table id = position.
    strings: Vec<String>,
    /// Raw occurrences of each string over all tokens, counting a
    /// feature that fires twice at one token (a repeated character
    /// n-gram) twice.
    counts: Vec<u32>,
    /// Token `t`'s ids are `ids[token_starts[t]..token_starts[t + 1]]`.
    token_starts: Vec<usize>,
    /// Per token: distinct table ids, ascending.
    ids: Vec<u32>,
    /// Sentence `s`'s tokens are `sentence_starts[s]..sentence_starts[s + 1]`.
    sentence_starts: Vec<usize>,
}

impl TokenFeatures {
    /// Featurize every token of `sentences` with feature set `set`.
    /// `dist` enables the ChemDNER distributional features, as in
    /// [`extract_features`].
    pub fn build(
        sentences: &[&Sentence],
        set: FeatureSet,
        dist: Option<&DistributionalResources>,
    ) -> TokenFeatures {
        let chunks = extract_chunks(sentences, set, dist);
        merge(set, &chunks.iter().collect::<Vec<_>>())
    }

    /// This table followed by `sentences`, featurized with this table's
    /// feature set. `dist` must be the resources this table was built
    /// with. Only the new sentences are extracted.
    pub fn extended(
        &self,
        sentences: &[&Sentence],
        dist: Option<&DistributionalResources>,
    ) -> TokenFeatures {
        let chunks = extract_chunks(sentences, self.set, dist);
        merge(self.set, &std::iter::once(self).chain(&chunks).collect::<Vec<_>>())
    }

    /// The feature set the table was extracted with.
    pub fn feature_set(&self) -> FeatureSet {
        self.set
    }

    /// Number of distinct feature strings.
    pub fn num_strings(&self) -> usize {
        self.strings.len()
    }

    /// The feature string of a table id.
    pub fn string(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Number of sentences.
    pub fn num_sentences(&self) -> usize {
        self.sentence_starts.len() - 1
    }

    /// The token indices of sentence `s`.
    pub fn sentence_tokens(&self, s: usize) -> Range<usize> {
        self.sentence_starts[s]..self.sentence_starts[s + 1]
    }

    /// The distinct feature ids of token `t`, ascending (their strings
    /// in byte order).
    pub fn token(&self, t: usize) -> &[u32] {
        &self.ids[self.token_starts[t]..self.token_starts[t + 1]]
    }

    /// The CRF feature index keeping strings that occur at least
    /// `min_count` times, and the CRF id of every table id. Ids follow
    /// byte order over the kept strings, as a count-then-sort index
    /// built from the raw counts would assign them.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the index keeps at most as many features as the table has u32 ids"
    )]
    pub fn feature_index(&self, min_count: u32) -> (FeatureIndex, Vec<Option<u32>>) {
        let mut kept = Vec::new();
        let crf_ids = self
            .strings
            .iter()
            .zip(&self.counts)
            .map(|(s, &c)| {
                (c >= min_count).then(|| {
                    kept.push(s.clone());
                    (kept.len() - 1) as u32
                })
            })
            .collect();
        (FeatureIndex::from_strings(kept), crf_ids)
    }

    /// The CRF id of every table id under an existing index (`None`
    /// where the index dropped or never saw the string).
    pub fn crf_ids(&self, index: &FeatureIndex) -> Vec<Option<u32>> {
        self.strings.iter().map(|s| index.get(s)).collect()
    }

    /// The CRF input of sentence `s`: each token's ids mapped through
    /// `crf_ids`, unknown ones dropped, sorted — what
    /// [`FeatureIndex::ids`] makes of the token's strings.
    pub fn sentence_features(&self, s: usize, crf_ids: &[Option<u32>]) -> SentenceFeatures {
        let obs = self
            .sentence_tokens(s)
            .map(|t| {
                let mut ids: Vec<u32> =
                    self.token(t).iter().filter_map(|&id| crf_ids[id as usize]).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        SentenceFeatures { obs, gold: None }
    }
}

/// Split `sentences` into consecutive chunks of about
/// [`CHUNK_TOKENS`] tokens — boundaries depend on the lengths alone —
/// and featurize the chunks in parallel, in order.
fn extract_chunks(
    sentences: &[&Sentence],
    set: FeatureSet,
    dist: Option<&DistributionalResources>,
) -> Vec<TokenFeatures> {
    let mut ranges = Vec::new();
    let (mut start, mut tokens) = (0, 0);
    for (s, sentence) in sentences.iter().enumerate() {
        tokens += sentence.len();
        if tokens >= CHUNK_TOKENS {
            ranges.push(start..s + 1);
            (start, tokens) = (s + 1, 0);
        }
    }
    if start < sentences.len() || ranges.is_empty() {
        ranges.push(start..sentences.len());
    }
    ranges.into_par_iter().map(|r| extract_chunk(&sentences[r], set, dist)).collect()
}

/// Featurize one chunk into a table of its own.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a chunk holds a few thousand tokens, far fewer distinct strings than u32::MAX"
)]
fn extract_chunk(
    sentences: &[&Sentence],
    set: FeatureSet,
    dist: Option<&DistributionalResources>,
) -> TokenFeatures {
    // intern in first-seen order, counting raw occurrences
    let mut interned: FxHashMap<String, u32> = FxHashMap::default();
    let mut counts: Vec<u32> = Vec::new();
    let mut token_starts = vec![0];
    let mut ids = Vec::new();
    let mut sentence_starts = vec![0];
    let mut buf = Vec::new();
    for sentence in sentences {
        for i in 0..sentence.len() {
            extract_features(sentence, i, set, dist, &mut buf);
            for f in buf.drain(..) {
                let fresh = interned.len() as u32;
                let id = *interned.entry(f).or_insert(fresh);
                if id == fresh {
                    counts.push(0);
                }
                counts[id as usize] += 1;
                ids.push(id);
            }
            token_starts.push(ids.len());
        }
        sentence_starts.push(token_starts.len() - 1);
    }

    // renumber by byte order, then sort and dedup each token
    let mut by_string: Vec<(String, u32)> = interned.into_iter().collect();
    by_string.sort_unstable();
    let mut rank = vec![0u32; by_string.len()];
    for (r, (_, id)) in by_string.iter().enumerate() {
        rank[*id as usize] = r as u32;
    }
    let counts = by_string.iter().map(|(_, id)| counts[*id as usize]).collect();
    let strings = by_string.into_iter().map(|(s, _)| s).collect();
    let mut deduped = Vec::with_capacity(ids.len());
    let mut deduped_starts = Vec::with_capacity(token_starts.len());
    deduped_starts.push(0);
    for w in token_starts.windows(2) {
        let token = &mut ids[w[0]..w[1]];
        for id in token.iter_mut() {
            *id = rank[*id as usize];
        }
        token.sort_unstable();
        let mut last = None;
        for &id in token.iter() {
            if last != Some(id) {
                deduped.push(id);
                last = Some(id);
            }
        }
        deduped_starts.push(deduped.len());
    }
    TokenFeatures {
        set,
        strings,
        counts,
        token_starts: deduped_starts,
        ids: deduped,
        sentence_starts,
    }
}

/// Concatenate tables in order: their sorted string lists merge into
/// one (a string's count is the sum of its counts), and every token's
/// ids are renumbered into the merged list. Renumbering is monotone, so
/// each token's ids stay ascending.
#[expect(
    clippy::cast_possible_truncation,
    reason = "merged table ids are minted as u32, like every feature id downstream"
)]
fn merge(set: FeatureSet, parts: &[&TokenFeatures]) -> TokenFeatures {
    let mut strings: Vec<String> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut renumber: Vec<Vec<u32>> = parts.iter().map(|p| vec![0; p.strings.len()]).collect();
    let mut next = vec![0usize; parts.len()];
    let mut heap: BinaryHeap<Reverse<(&str, usize)>> = parts
        .iter()
        .enumerate()
        .filter_map(|(p, part)| part.strings.first().map(|s| Reverse((s.as_str(), p))))
        .collect();
    while let Some(Reverse((s, p))) = heap.pop() {
        if strings.last().map(String::as_str) != Some(s) {
            strings.push(s.to_owned());
            counts.push(0);
        }
        let id = strings.len() - 1;
        let local = next[p];
        renumber[p][local] = id as u32;
        counts[id] += parts[p].counts[local];
        next[p] += 1;
        if let Some(following) = parts[p].strings.get(local + 1) {
            heap.push(Reverse((following.as_str(), p)));
        }
    }

    let mut token_starts = vec![0];
    let mut ids = Vec::with_capacity(parts.iter().map(|p| p.ids.len()).sum());
    let mut sentence_starts = vec![0];
    for (part, renumber) in parts.iter().zip(&renumber) {
        let (token_base, id_base) = (token_starts.len() - 1, ids.len());
        ids.extend(part.ids.iter().map(|&id| renumber[id as usize]));
        token_starts.extend(part.token_starts[1..].iter().map(|&k| id_base + k));
        sentence_starts.extend(part.sentence_starts[1..].iter().map(|&t| token_base + t));
    }
    TokenFeatures { set, strings, counts, token_starts, ids, sentence_starts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::DistributionalConfig;
    use crate::model::{NerConfig, NerModel};
    use graphner_crf::{Order, TrainConfig};
    use graphner_embed::{BrownConfig, KMeansConfig, SgnsConfig};
    use graphner_text::{tokenize, BioTag, Corpus};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const WORDS: &[&str] = &[
        "the",
        "WT1",
        "gene",
        "aaaa",
        "of",
        "IL-2R",
        "p53",
        "was",
        "expressed",
        "Mutation",
        "kinase",
        "alpha",
        "II",
        "(",
        ")",
        "-",
        "3",
        "BRCA1",
        "cells",
        "aa",
    ];

    /// A seeded labelled corpus of about 3k tokens — more than one
    /// extraction chunk — in which "aaaa" repeats its character
    /// n-grams within the token.
    fn corpus() -> Corpus {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sentences = (0..700)
            .map(|k| {
                let len = rng.gen_range(1..9);
                let tokens: Vec<String> =
                    (0..len).map(|_| WORDS[rng.gen_range(0..WORDS.len())].to_string()).collect();
                let tags = tokens
                    .iter()
                    .map(|t| if t.contains(char::is_numeric) { BioTag::B } else { BioTag::O })
                    .collect();
                Sentence::labelled(format!("s{k}"), tokens, tags)
            })
            .collect();
        Corpus::from_sentences(sentences)
    }

    fn distributional(corpus: &Corpus) -> DistributionalResources {
        let cfg = DistributionalConfig {
            brown: BrownConfig { num_clusters: 4, min_count: 1 },
            sgns: SgnsConfig { dim: 8, epochs: 2, min_count: 1, ..Default::default() },
            kmeans: KMeansConfig { k: 4, ..Default::default() },
        };
        DistributionalResources::train(corpus, &cfg)
    }

    /// The string path the table replaces: count raw occurrences,
    /// freeze the index, then re-extract and map every token.
    fn string_path(
        sentences: &[&Sentence],
        dist: Option<&DistributionalResources>,
        min_count: u32,
    ) -> (FeatureIndex, Vec<Vec<Vec<u32>>>) {
        let mut counts: FxHashMap<String, u32> = FxHashMap::default();
        let mut buf = Vec::new();
        for s in sentences {
            for i in 0..s.len() {
                extract_features(s, i, FeatureSet::All, dist, &mut buf);
                for f in &buf {
                    *counts.entry(f.clone()).or_insert(0) += 1;
                }
            }
        }
        let index = FeatureIndex::build(&counts, min_count);
        let obs = sentences
            .iter()
            .map(|s| {
                (0..s.len())
                    .map(|i| {
                        extract_features(s, i, FeatureSet::All, dist, &mut buf);
                        index.ids(&buf)
                    })
                    .collect()
            })
            .collect();
        (index, obs)
    }

    #[test]
    fn table_index_and_crf_input_equal_the_string_path() {
        let corpus = corpus();
        let sentences: Vec<&Sentence> = corpus.sentences.iter().collect();
        let dist = distributional(&corpus);
        for dist in [None, Some(&dist)] {
            let table = TokenFeatures::build(&sentences, FeatureSet::All, dist);
            for min_count in [1, 2] {
                let (index, crf_ids) = table.feature_index(min_count);
                let (expect_index, expect_obs) = string_path(&sentences, dist, min_count);
                assert_eq!(index.strings_in_id_order(), expect_index.strings_in_id_order());
                assert_eq!(table.crf_ids(&index), crf_ids);
                for (s, expect) in expect_obs.iter().enumerate() {
                    assert_eq!(&table.sentence_features(s, &crf_ids).obs, expect, "sentence {s}");
                }
            }
        }
    }

    #[test]
    fn table_features_equal_featurize_for_both_base_systems() {
        let corpus = corpus();
        let sentences: Vec<&Sentence> = corpus.sentences.iter().collect();
        for dist in [None, Some(distributional(&corpus))] {
            for min_feature_count in [1, 2] {
                let cfg = NerConfig {
                    order: Order::One,
                    train: TrainConfig { max_iterations: 3, ..Default::default() },
                    min_feature_count,
                };
                let (model, _) = NerModel::train(&corpus, &cfg, dist.clone());
                let table = TokenFeatures::build(&sentences, FeatureSet::All, dist.as_ref());
                let crf_ids = table.crf_ids(model.feature_index());
                for (s, sentence) in sentences.iter().enumerate() {
                    assert_eq!(
                        table.sentence_features(s, &crf_ids).obs,
                        model.featurize(sentence).obs,
                        "sentence {s}, min count {min_feature_count}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_ngrams_count_every_occurrence() {
        // "aaaa" fires CG2=aa three times and CG3=aaa twice
        let s = Sentence::unlabelled("s", tokenize("aaaa"));
        let table = TokenFeatures::build(&[&s], FeatureSet::All, None);
        let count = |f: &str| {
            let id = (0..table.num_strings() as u32).find(|&id| table.string(id) == f);
            id.map(|id| table.counts[id as usize])
        };
        assert_eq!(count("CG2=aa"), Some(3));
        assert_eq!(count("CG3=aaa"), Some(2));
        assert_eq!(count("W=aaaa"), Some(1));
        // the token stores each feature once
        assert_eq!(table.token(0).len(), table.num_strings());
        let (index, _) = table.feature_index(2);
        assert_eq!(index.strings_in_id_order(), vec!["CG2=aa".to_string(), "CG3=aaa".to_string()]);
    }

    #[test]
    fn chunked_build_and_extension_equal_one_chunk() {
        let corpus = corpus();
        let sentences: Vec<&Sentence> = corpus.sentences.iter().collect();
        for set in [FeatureSet::All, FeatureSet::Lexical] {
            let one_chunk = extract_chunk(&sentences, set, None);
            let chunked = TokenFeatures::build(&sentences, set, None);
            assert!(extract_chunks(&sentences, set, None).len() > 1, "corpus spans one chunk");
            assert_eq!(chunked, one_chunk);
            let (head, tail) = sentences.split_at(400);
            assert_eq!(TokenFeatures::build(head, set, None).extended(tail, None), one_chunk);
            assert_eq!(chunked.num_sentences(), sentences.len());
            assert_eq!(
                chunked.token_starts.len() - 1,
                sentences.iter().map(|s| s.len()).sum::<usize>()
            );
        }
    }

    #[test]
    fn token_ids_are_strings_in_byte_order() {
        let corpus = corpus();
        let sentences: Vec<&Sentence> = corpus.sentences.iter().collect();
        let table = TokenFeatures::build(&sentences, FeatureSet::All, None);
        assert!((1..table.num_strings() as u32).all(|id| table.string(id - 1) < table.string(id)));
        let mut buf = Vec::new();
        for (s, sentence) in sentences.iter().enumerate() {
            for (i, t) in table.sentence_tokens(s).enumerate() {
                extract_features(sentence, i, FeatureSet::All, None, &mut buf);
                buf.sort_unstable();
                buf.dedup();
                let strings: Vec<&str> =
                    table.token(t).iter().map(|&id| table.string(id)).collect();
                assert_eq!(strings, buf);
            }
        }
    }

    #[test]
    fn empty_input_builds_an_empty_table() {
        let table = TokenFeatures::build(&[], FeatureSet::All, None);
        assert_eq!((table.num_sentences(), table.ids.len(), table.num_strings()), (0, 0, 0));
        let empty = Sentence::unlabelled("e", Vec::new());
        let table = table.extended(&[&empty], None);
        assert_eq!(table.num_sentences(), 1);
        assert!(table.sentence_features(0, &[]).is_empty());
    }
}
