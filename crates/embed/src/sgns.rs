//! Skip-gram word embeddings with negative sampling (word2vec).
//!
//! The second distributional signal in BANNER-ChemDNER: "word2vec
//! embeddings are the hidden layer of a neural network, trained to
//! predict each word by using the words in its context." This is the
//! standard SGNS objective of Mikolov et al. (2013): for each
//! (centre, context) pair maximize `log σ(u·v)` and for `k` noise words
//! drawn from the unigram^0.75 distribution maximize `log σ(−u·v_n)`,
//! trained by SGD with a linearly decaying learning rate and frequent-
//! word subsampling. The run is fully seeded and single-threaded, so
//! embeddings are bit-reproducible.

use graphner_obs::obs_debug;
use graphner_text::approx_eq;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;

/// SGNS hyper-parameters.
#[derive(Clone, Debug)]
pub struct SgnsConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Maximum context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1e-4 of itself).
    pub learning_rate: f64,
    /// Frequent-word subsampling threshold (`t` in the word2vec paper);
    /// 0 disables subsampling.
    pub subsample: f64,
    /// Words rarer than this are skipped entirely.
    pub min_count: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> SgnsConfig {
        SgnsConfig {
            dim: 50,
            window: 5,
            negative: 5,
            epochs: 5,
            learning_rate: 0.025,
            subsample: 1e-3,
            min_count: 2,
            seed: 42,
        }
    }
}

/// Trained embeddings: one vector per known word id.
#[derive(Clone, Debug, Default)]
pub struct Embeddings {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Word id → embedding.
    pub vectors: FxHashMap<u32, Vec<f32>>,
}

impl Embeddings {
    /// The embedding of a word, if trained.
    pub fn get(&self, word: u32) -> Option<&[f32]> {
        self.vectors.get(&word).map(Vec::as_slice)
    }

    /// Cosine similarity between two word vectors (`None` when either is
    /// untrained).
    pub fn cosine(&self, a: u32, b: u32) -> Option<f64> {
        let va = self.get(a)?;
        let vb = self.get(b)?;
        let dot: f64 = va.iter().zip(vb).map(|(x, y)| *x as f64 * *y as f64).sum();
        let na: f64 = va.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        let nb: f64 = vb.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return None;
        }
        Some(dot / (na * nb))
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x > 30.0 {
        1.0
    } else if x < -30.0 {
        0.0
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

/// Train SGNS embeddings over sentences of interned word ids.
pub fn train_sgns(sentences: &[Vec<u32>], cfg: &SgnsConfig) -> Embeddings {
    // Vocabulary with counts.
    let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
    for s in sentences {
        for &w in s {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    counts.retain(|_, c| *c >= cfg.min_count);
    if counts.is_empty() {
        return Embeddings::default();
    }
    let mut vocab: Vec<u32> = counts.keys().copied().collect();
    vocab.sort_unstable();
    let index: FxHashMap<u32, usize> = vocab.iter().enumerate().map(|(i, &w)| (w, i)).collect();
    let n = vocab.len();
    let total_tokens: u64 = counts.values().sum();

    // Noise distribution: unigram^0.75 as a cumulative table for binary
    // search sampling.
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for &w in &vocab {
        acc += (counts[&w] as f64).powf(0.75);
        cumulative.push(acc);
    }

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // input vectors random in [-0.5/dim, 0.5/dim], output vectors zero
    // (word2vec initialization)
    let mut input: Vec<f32> =
        (0..n * cfg.dim).map(|_| (rng.gen::<f32>() - 0.5) / cfg.dim as f32).collect();
    let mut output: Vec<f32> = vec![0.0; n * cfg.dim];

    let total_steps = (cfg.epochs * sentences.len()).max(1);
    let mut grad = vec![0.0f32; cfg.dim];
    for epoch in 0..cfg.epochs {
        // epoch loss is accumulated from quantities already computed in
        // the SGD updates, so instrumentation never touches the rng
        // stream and embeddings stay bit-identical
        let mut epoch_loss = 0.0f64;
        let mut epoch_pairs = 0u64;
        for (si, sent) in sentences.iter().enumerate() {
            let progress = (epoch * sentences.len() + si) as f64 / total_steps as f64;
            let lr = (cfg.learning_rate * (1.0 - progress)).max(cfg.learning_rate * 1e-4);

            // subsample + filter to vocabulary
            let kept: Vec<usize> = sent
                .iter()
                .filter_map(|w| index.get(w).copied())
                .filter(|&wi| {
                    if cfg.subsample <= 0.0 {
                        return true;
                    }
                    let f = counts[&vocab[wi]] as f64 / total_tokens as f64;
                    let keep = ((cfg.subsample / f).sqrt() + cfg.subsample / f).min(1.0);
                    rng.gen::<f64>() < keep
                })
                .collect();

            for (pos, &centre) in kept.iter().enumerate() {
                let radius = rng.gen_range(1..=cfg.window);
                let lo = pos.saturating_sub(radius);
                let hi = (pos + radius + 1).min(kept.len());
                for ctx_pos in lo..hi {
                    if ctx_pos == pos {
                        continue;
                    }
                    let context = kept[ctx_pos];
                    let v = &mut input[centre * cfg.dim..(centre + 1) * cfg.dim];
                    grad.fill(0.0);
                    // positive + negative updates on the output matrix
                    for neg in 0..=cfg.negative {
                        let (target, label) = if neg == 0 {
                            (context, 1.0f64)
                        } else {
                            let r = rng.gen::<f64>() * acc;
                            let t = cumulative.partition_point(|&c| c < r).min(n - 1);
                            if t == context {
                                continue;
                            }
                            (t, 0.0)
                        };
                        let u = &mut output[target * cfg.dim..(target + 1) * cfg.dim];
                        let dot: f64 =
                            v.iter().zip(u.iter()).map(|(a, b)| *a as f64 * *b as f64).sum();
                        let p = sigmoid(dot);
                        // −log σ(u·v) for positives, −log σ(−u·v) for noise
                        epoch_loss -=
                            if approx_eq(label, 1.0) { p } else { 1.0 - p }.max(1e-12).ln();
                        epoch_pairs += 1;
                        let g = ((label - p) * lr) as f32;
                        for d in 0..cfg.dim {
                            grad[d] += g * u[d];
                            u[d] += g * v[d];
                        }
                    }
                    for d in 0..cfg.dim {
                        v[d] += grad[d];
                    }
                }
            }
        }
        let mean_loss = epoch_loss / epoch_pairs.max(1) as f64;
        obs_debug!(
            "sgns: epoch {}/{} mean pair loss {mean_loss:.4} ({epoch_pairs} pairs)",
            epoch + 1,
            cfg.epochs
        );
        graphner_obs::gauge("sgns.epoch_loss").set(mean_loss);
    }

    let vectors = vocab
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, input[i * cfg.dim..(i + 1) * cfg.dim].to_vec()))
        .collect();
    Embeddings { dim: cfg.dim, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Corpus where words 0/1 are interchangeable (same contexts) and
    /// word 10 lives in a different context entirely.
    fn paradigm_corpus() -> Vec<Vec<u32>> {
        let mut s = Vec::new();
        for i in 0..120u32 {
            let a = i % 2; // 0 or 1
            s.push(vec![2, a, 3, 4]);
            s.push(vec![5, 10, 6, 7]);
        }
        s
    }

    fn small_cfg(seed: u64) -> SgnsConfig {
        SgnsConfig {
            dim: 16,
            window: 2,
            negative: 3,
            epochs: 6,
            min_count: 1,
            subsample: 0.0,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn interchangeable_words_are_close() {
        let emb = train_sgns(&paradigm_corpus(), &small_cfg(1));
        let same = emb.cosine(0, 1).unwrap();
        let diff = emb.cosine(0, 10).unwrap();
        assert!(same > diff, "cos(0,1)={same} should exceed cos(0,10)={diff}");
        assert!(same > 0.5, "cos(0,1)={same}");
    }

    #[test]
    fn deterministic_under_seed() {
        let corpus = paradigm_corpus();
        let a = train_sgns(&corpus, &small_cfg(7));
        let b = train_sgns(&corpus, &small_cfg(7));
        assert_eq!(a.get(0), b.get(0));
        let c = train_sgns(&corpus, &small_cfg(8));
        assert_ne!(a.get(0), c.get(0));
    }

    #[test]
    fn min_count_excludes_rare_words() {
        let mut corpus = paradigm_corpus();
        corpus.push(vec![99]);
        let cfg = SgnsConfig { min_count: 2, ..small_cfg(3) };
        let emb = train_sgns(&corpus, &cfg);
        assert!(emb.get(99).is_none());
        assert!(emb.get(0).is_some());
    }

    #[test]
    fn dimensions_respected() {
        let emb = train_sgns(&paradigm_corpus(), &small_cfg(5));
        assert_eq!(emb.dim, 16);
        assert_eq!(emb.get(0).unwrap().len(), 16);
    }

    #[test]
    fn empty_corpus_gives_empty_embeddings() {
        let emb = train_sgns(&[], &SgnsConfig::default());
        assert!(emb.vectors.is_empty());
    }

    #[test]
    fn vectors_are_finite() {
        let emb = train_sgns(&paradigm_corpus(), &small_cfg(11));
        for v in emb.vectors.values() {
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }
}
