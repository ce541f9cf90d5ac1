//! The bi-LSTM-CRF sequence tagger (Lample et al. 2016).
//!
//! Word embeddings (optionally concatenated with character bi-LSTM
//! final states, which carry the orthographic signal gene symbols live
//! on) feed a bidirectional LSTM; a linear projection produces per-tag
//! emissions; a CRF output layer scores tag sequences. Trained by
//! plain SGD with global-norm gradient clipping, singleton-to-UNK
//! replacement, learning-rate decay, and early stopping on a dev split
//! (the paper carves a dev set out of the training data for exactly
//! this model).

use crate::crf_layer::CrfLayer;
use crate::lstm::BiLstm;
use graphner_text::sentence::tags_to_mentions;
use graphner_text::{
    check_posteriors_finite, is_zero, validate_sentences, BioTag, Corpus, Sentence, TagError,
    Tagger, Vocab, NUM_TAGS,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;

/// Hyper-parameters of the tagger.
#[derive(Clone, Debug)]
pub struct LstmCrfConfig {
    /// Word-embedding dimensionality.
    pub word_dim: usize,
    /// Character-embedding dimensionality.
    pub char_dim: usize,
    /// Character bi-LSTM hidden size (per direction).
    pub char_hidden: usize,
    /// Word-level bi-LSTM hidden size (per direction).
    pub hidden: usize,
    /// Whether to use the character bi-LSTM.
    pub use_chars: bool,
    /// Initial SGD learning rate.
    pub learning_rate: f64,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f64,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Global gradient-norm clip.
    pub clip: f64,
    /// Probability of replacing a singleton word with UNK during
    /// training.
    pub unk_prob: f64,
    /// Early stopping: epochs without dev improvement tolerated.
    pub patience: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LstmCrfConfig {
    fn default() -> LstmCrfConfig {
        LstmCrfConfig {
            word_dim: 50,
            char_dim: 16,
            char_hidden: 16,
            hidden: 64,
            use_chars: true,
            learning_rate: 0.05,
            lr_decay: 0.95,
            epochs: 15,
            clip: 5.0,
            unk_prob: 0.3,
            patience: 3,
            seed: 42,
        }
    }
}

/// Per-epoch training history.
#[derive(Clone, Debug, Default)]
pub struct TrainHistory {
    /// Dev mention-F per epoch.
    pub dev_f: Vec<f64>,
    /// Epoch whose parameters were kept.
    pub best_epoch: usize,
}

/// A trained bi-LSTM-CRF tagger.
#[derive(Clone, Debug)]
pub struct LstmCrfTagger {
    cfg: LstmCrfConfig,
    words: Vocab,
    chars: Vocab,
    word_counts: FxHashMap<u32, u32>,
    word_emb: Vec<f64>,
    char_emb: Vec<f64>,
    char_bi: Option<BiLstm>,
    bilstm: BiLstm,
    wout: Vec<f64>,
    bout: [f64; NUM_TAGS],
}

/// Scratch produced by one forward pass, consumed by backward.
struct Forward {
    word_ids: Vec<u32>,
    char_ids: Vec<Vec<u32>>,
    char_passes: Vec<(crate::lstm::BiTrace, Vec<Vec<f64>>)>,
    trace: crate::lstm::BiTrace,
    ctx: Vec<Vec<f64>>,
    emissions: Vec<[f64; NUM_TAGS]>,
}

const UNK: u32 = 0;

impl LstmCrfTagger {
    fn input_dim(cfg: &LstmCrfConfig) -> usize {
        cfg.word_dim + if cfg.use_chars { 2 * cfg.char_hidden } else { 0 }
    }

    fn new(cfg: LstmCrfConfig, train: &Corpus, rng: &mut ChaCha8Rng) -> LstmCrfTagger {
        let mut words = Vocab::new();
        let mut chars = Vocab::new();
        words.intern("<unk>");
        chars.intern("<unk>");
        let mut word_counts: FxHashMap<u32, u32> = FxHashMap::default();
        for sentence in &train.sentences {
            for tok in &sentence.tokens {
                let id = words.intern(&tok.to_lowercase());
                *word_counts.entry(id).or_insert(0) += 1;
                for c in tok.chars() {
                    chars.intern(&c.to_string());
                }
            }
        }
        let init = |n: usize, s: f64, rng: &mut ChaCha8Rng| -> Vec<f64> {
            (0..n).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * s).collect()
        };
        let d_in = Self::input_dim(&cfg);
        let d_out = 2 * cfg.hidden;
        LstmCrfTagger {
            words: words.clone(),
            chars: chars.clone(),
            word_counts,
            word_emb: init(words.len() * cfg.word_dim, 0.1, rng),
            char_emb: init(chars.len() * cfg.char_dim, 0.1, rng),
            char_bi: if cfg.use_chars {
                Some(BiLstm::new(cfg.char_dim, cfg.char_hidden, rng))
            } else {
                None
            },
            bilstm: BiLstm::new(d_in, cfg.hidden, rng),
            wout: init(NUM_TAGS * d_out, (6.0 / (d_out + NUM_TAGS) as f64).sqrt(), rng),
            bout: [0.0; NUM_TAGS],
            cfg,
        }
    }

    fn word_id(&self, token: &str) -> u32 {
        self.words.get(&token.to_lowercase()).unwrap_or(UNK)
    }

    fn forward(&self, tokens: &[String], word_ids: Vec<u32>) -> Forward {
        let cfg = &self.cfg;
        let mut char_ids = Vec::with_capacity(tokens.len());
        let mut char_passes = Vec::new();
        let mut inputs = Vec::with_capacity(tokens.len());
        for (t, tok) in tokens.iter().enumerate() {
            let mut x = self.word_emb
                [word_ids[t] as usize * cfg.word_dim..(word_ids[t] as usize + 1) * cfg.word_dim]
                .to_vec();
            if let Some(cb) = &self.char_bi {
                let ids: Vec<u32> =
                    tok.chars().map(|c| self.chars.get(&c.to_string()).unwrap_or(UNK)).collect();
                let xs: Vec<Vec<f64>> = ids
                    .iter()
                    .map(|&c| {
                        self.char_emb[c as usize * cfg.char_dim..(c as usize + 1) * cfg.char_dim]
                            .to_vec()
                    })
                    .collect();
                let (trace, outs) = cb.forward(&xs);
                let last = outs.len() - 1;
                // final forward state ++ final backward state
                x.extend_from_slice(&outs[last][..cfg.char_hidden]);
                x.extend_from_slice(&outs[0][cfg.char_hidden..]);
                char_passes.push((trace, outs));
                char_ids.push(ids);
            } else {
                char_ids.push(Vec::new());
            }
            inputs.push(x);
        }
        let (trace, ctx) = self.bilstm.forward(&inputs);
        let d_out = 2 * cfg.hidden;
        let emissions: Vec<[f64; NUM_TAGS]> = ctx
            .iter()
            .map(|h| {
                let mut e = self.bout;
                for y in 0..NUM_TAGS {
                    let row = &self.wout[y * d_out..(y + 1) * d_out];
                    e[y] += row.iter().zip(h).map(|(w, x)| w * x).sum::<f64>();
                }
                e
            })
            .collect();
        Forward { word_ids, char_ids, char_passes, trace, ctx, emissions }
    }

    /// Predict BIO tags for a sentence.
    pub fn predict_with(&self, crf: &CrfLayer, sentence: &Sentence) -> Vec<BioTag> {
        if sentence.is_empty() {
            return Vec::new();
        }
        let ids: Vec<u32> = sentence.tokens.iter().map(|t| self.word_id(t)).collect();
        let f = self.forward(&sentence.tokens, ids);
        crf.viterbi(&f.emissions).into_iter().map(BioTag::from_index).collect()
    }
}

/// A fully trained tagger bundled with its CRF layer.
#[derive(Clone, Debug)]
pub struct TrainedLstmCrf {
    tagger: LstmCrfTagger,
    crf: CrfLayer,
    /// Training history (dev F per epoch, chosen epoch).
    pub history: TrainHistory,
}

impl TrainedLstmCrf {
    /// Train on `train`, early-stopping on mention-F over `dev`.
    #[expect(
        clippy::unwrap_used,
        reason = "training contract: the LSTM-CRF baseline trains only on the labelled split"
    )]
    pub fn train(train: &Corpus, dev: &Corpus, cfg: &LstmCrfConfig) -> TrainedLstmCrf {
        assert!(train.fully_labelled() && dev.fully_labelled());
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut tagger = LstmCrfTagger::new(cfg.clone(), train, &mut rng);
        let mut crf = CrfLayer::default();

        let mut best: Option<(f64, LstmCrfTagger, CrfLayer, usize)> = None;
        let mut history = TrainHistory::default();
        let mut lr = cfg.learning_rate;
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut bad_epochs = 0usize;

        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &si in &order {
                let sentence = &train.sentences[si];
                if sentence.is_empty() {
                    continue;
                }
                let gold: Vec<usize> =
                    sentence.tags.as_ref().unwrap().iter().map(|t| t.index()).collect();
                // singleton -> UNK replacement
                let word_ids: Vec<u32> = sentence
                    .tokens
                    .iter()
                    .map(|t| {
                        let id = tagger.word_id(t);
                        if id != UNK
                            && tagger.word_counts.get(&id) == Some(&1)
                            && rng.gen::<f64>() < cfg.unk_prob
                        {
                            UNK
                        } else {
                            id
                        }
                    })
                    .collect();
                step(&mut tagger, &mut crf, sentence, word_ids, &gold, lr);
            }
            // dev evaluation
            let f = mention_f(&tagger, &crf, dev);
            history.dev_f.push(f);
            graphner_obs::obs_debug!(
                "lstm-crf: epoch {}/{} dev mention-F {f:.4} (lr {lr:.4e})",
                epoch + 1,
                cfg.epochs
            );
            graphner_obs::gauge("lstm_crf.dev_f").set(f);
            match &best {
                Some((bf, ..)) if f <= *bf => {
                    bad_epochs += 1;
                    if bad_epochs > cfg.patience {
                        break;
                    }
                }
                _ => {
                    best = Some((f, tagger.clone(), crf.clone(), epoch));
                    bad_epochs = 0;
                }
            }
            lr *= cfg.lr_decay;
        }

        let (_, best_tagger, best_crf, best_epoch) = best.unwrap_or((0.0, tagger, crf, 0));
        history.best_epoch = best_epoch;
        graphner_obs::obs_summary!(
            "lstm-crf: trained {} epochs, best dev mention-F {:.4} at epoch {}",
            history.dev_f.len(),
            history.dev_f.iter().cloned().fold(0.0f64, f64::max),
            best_epoch + 1
        );
        TrainedLstmCrf { tagger: best_tagger, crf: best_crf, history }
    }

    /// Predict BIO tags.
    pub fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
        self.tagger.predict_with(&self.crf, sentence)
    }

    /// Per-token tag posteriors from the CRF layer's forward–backward
    /// marginals over the bi-LSTM emissions.
    pub fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
        if sentence.is_empty() {
            return Vec::new();
        }
        let ids: Vec<u32> = sentence.tokens.iter().map(|t| self.tagger.word_id(t)).collect();
        let f = self.tagger.forward(&sentence.tokens, ids);
        self.crf.marginals(&f.emissions)
    }
}

impl Tagger for TrainedLstmCrf {
    fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
        TrainedLstmCrf::predict(self, sentence)
    }

    fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
        TrainedLstmCrf::posteriors(self, sentence)
    }

    /// Inference is per-sentence independent (the forward pass borrows
    /// the frozen weights immutably), so the batch path parallelizes,
    /// with a per-sentence finiteness check on the CRF-layer marginals.
    /// The order-preserving collect keeps the tags identical to a
    /// sequential pass, and the sequential error scan below always
    /// reports the lowest offending batch index, so the outcome is
    /// deterministic at any thread count.
    fn try_tag_batch(&self, sentences: &[Sentence]) -> Result<Vec<Vec<BioTag>>, TagError> {
        validate_sentences(sentences)?;
        use rayon::prelude::*;
        let per: Vec<Result<Vec<BioTag>, TagError>> = sentences
            .par_iter()
            .enumerate()
            .map(|(index, s)| {
                check_posteriors_finite(index, &TrainedLstmCrf::posteriors(self, s))?;
                Ok(TrainedLstmCrf::predict(self, s))
            })
            .collect();
        let mut out = Vec::with_capacity(per.len());
        for r in per {
            out.push(r?);
        }
        Ok(out)
    }
}

/// One SGD step on a sentence.
fn step(
    tagger: &mut LstmCrfTagger,
    crf: &mut CrfLayer,
    sentence: &Sentence,
    word_ids: Vec<u32>,
    gold: &[usize],
    lr: f64,
) {
    let cfg = tagger.cfg.clone();
    let f = tagger.forward(&sentence.tokens, word_ids);
    crf.zero_grad();
    tagger.bilstm.zero_grad();
    if let Some(cb) = &mut tagger.char_bi {
        cb.zero_grad();
    }
    let (_loss, dem) = crf.loss_and_grad(&f.emissions, gold);

    // linear layer backward
    let d_out = 2 * cfg.hidden;
    let mut gwout = vec![0.0; tagger.wout.len()];
    let mut gbout = [0.0; NUM_TAGS];
    let mut dctx = vec![vec![0.0; d_out]; f.ctx.len()];
    for t in 0..f.ctx.len() {
        for y in 0..NUM_TAGS {
            let d = dem[t][y];
            if d == 0.0 {
                continue;
            }
            gbout[y] += d;
            let row = y * d_out;
            for j in 0..d_out {
                gwout[row + j] += d * f.ctx[t][j];
                dctx[t][j] += d * tagger.wout[row + j];
            }
        }
    }

    // word bi-LSTM backward
    let dxs = tagger.bilstm.backward(&f.trace, &dctx);

    // split input gradients into embedding and char parts
    let mut gword: FxHashMap<u32, Vec<f64>> = FxHashMap::default();
    let mut gchar: FxHashMap<u32, Vec<f64>> = FxHashMap::default();
    for (t, dx) in dxs.iter().enumerate() {
        let wid = f.word_ids[t];
        let gw = gword.entry(wid).or_insert_with(|| vec![0.0; cfg.word_dim]);
        for (g, d) in gw.iter_mut().zip(&dx[..cfg.word_dim]) {
            *g += d;
        }
        if let Some(cb) = &mut tagger.char_bi {
            let (trace, outs) = &f.char_passes[t];
            let n_chars = outs.len();
            let mut douts = vec![vec![0.0; 2 * cfg.char_hidden]; n_chars];
            let drepr = &dx[cfg.word_dim..];
            // repr = [outs[last][..ch]; outs[0][ch..]]
            douts[n_chars - 1][..cfg.char_hidden].copy_from_slice(&drepr[..cfg.char_hidden]);
            for j in 0..cfg.char_hidden {
                douts[0][cfg.char_hidden + j] += drepr[cfg.char_hidden + j];
            }
            let dchar_xs = cb.backward(trace, &douts);
            for (ci, dcx) in f.char_ids[t].iter().zip(dchar_xs) {
                let gc = gchar.entry(*ci).or_insert_with(|| vec![0.0; cfg.char_dim]);
                for (g, d) in gc.iter_mut().zip(&dcx) {
                    *g += d;
                }
            }
        }
    }

    // global norm clipping
    let mut norm_sq = tagger.bilstm.grad_norm_sq() + crf.grad_norm_sq();
    if let Some(cb) = &tagger.char_bi {
        norm_sq += cb.grad_norm_sq();
    }
    norm_sq += gwout.iter().map(|g| g * g).sum::<f64>();
    norm_sq += gbout.iter().map(|g| g * g).sum::<f64>();
    norm_sq += gword.values().flatten().map(|g| g * g).sum::<f64>();
    norm_sq += gchar.values().flatten().map(|g| g * g).sum::<f64>();
    let norm = norm_sq.sqrt();
    let scale = if norm > cfg.clip { cfg.clip / norm } else { 1.0 };

    // apply updates
    tagger.bilstm.sgd_step(lr, scale);
    crf.sgd_step(lr, scale);
    if let Some(cb) = &mut tagger.char_bi {
        cb.sgd_step(lr, scale);
    }
    for (w, g) in tagger.wout.iter_mut().zip(&gwout) {
        *w -= lr * scale * g;
    }
    for (b, g) in tagger.bout.iter_mut().zip(&gbout) {
        *b -= lr * scale * g;
    }
    for (wid, g) in gword {
        let base = wid as usize * cfg.word_dim;
        for (j, gv) in g.iter().enumerate() {
            tagger.word_emb[base + j] -= lr * scale * gv;
        }
    }
    for (cid, g) in gchar {
        let base = cid as usize * cfg.char_dim;
        for (j, gv) in g.iter().enumerate() {
            tagger.char_emb[base + j] -= lr * scale * gv;
        }
    }
}

/// Mention-level F over a labelled corpus.
#[expect(
    clippy::unwrap_used,
    reason = "mention_f is an internal dev-set metric, only ever called on the labelled dev split"
)]
fn mention_f(tagger: &LstmCrfTagger, crf: &CrfLayer, corpus: &Corpus) -> f64 {
    let (mut tp, mut n_pred, mut n_gold) = (0usize, 0usize, 0usize);
    for sentence in &corpus.sentences {
        let pred = tagger.predict_with(crf, sentence);
        let pm = tags_to_mentions(&pred);
        let gm = sentence.gold_mentions().unwrap();
        n_pred += pm.len();
        n_gold += gm.len();
        let gset: std::collections::BTreeSet<_> = gm.into_iter().collect();
        tp += pm.iter().filter(|m| gset.contains(m)).count();
    }
    if n_pred + n_gold == 0 {
        return 1.0;
    }
    let p = if n_pred == 0 { 0.0 } else { tp as f64 / n_pred as f64 };
    let r = if n_gold == 0 { 0.0 } else { tp as f64 / n_gold as f64 };
    if is_zero(p + r) {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::tokenize;
    use graphner_text::BioTag::*;

    fn toy_corpora() -> (Corpus, Corpus) {
        let mk = |id: String, text: &str, tags: Vec<BioTag>| {
            Sentence::labelled(id, tokenize(text), tags)
        };
        let mut train = Vec::new();
        let genes = ["WT1", "KRAS", "TP53", "FLT3"];
        for (i, g) in genes.iter().cycle().take(24).enumerate() {
            let text = format!("the {g} gene was expressed");
            train.push(mk(format!("s{i}"), &text, vec![O, B, O, O, O]));
            train.push(mk(format!("n{i}"), "the patient was treated well", vec![O, O, O, O, O]));
        }
        let dev = Corpus::from_sentences(vec![
            mk("d0".into(), "the NRAS gene was expressed", vec![O, B, O, O, O]),
            mk("d1".into(), "the patient was treated well", vec![O, O, O, O, O]),
        ]);
        (Corpus::from_sentences(train), dev)
    }

    fn quick_cfg() -> LstmCrfConfig {
        LstmCrfConfig {
            word_dim: 12,
            char_dim: 6,
            char_hidden: 6,
            hidden: 12,
            epochs: 12,
            learning_rate: 0.1,
            patience: 5,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn learns_simple_pattern_and_generalizes_by_shape() {
        let (train, dev) = toy_corpora();
        let model = TrainedLstmCrf::train(&train, &dev, &quick_cfg());
        // seen pattern
        let s = Sentence::unlabelled("t", tokenize("the WT1 gene was expressed"));
        assert_eq!(model.predict(&s), vec![O, B, O, O, O]);
        // unseen gene symbol: char-LSTM shape signal must carry it
        let s2 = Sentence::unlabelled("t2", tokenize("the IDH2 gene was expressed"));
        assert_eq!(model.predict(&s2), vec![O, B, O, O, O]);
        // non-gene sentence stays clean
        let s3 = Sentence::unlabelled("t3", tokenize("the patient was treated well"));
        assert!(model.predict(&s3).iter().all(|&t| t == O));
    }

    #[test]
    fn history_records_epochs() {
        let (train, dev) = toy_corpora();
        let model = TrainedLstmCrf::train(&train, &dev, &quick_cfg());
        assert!(!model.history.dev_f.is_empty());
        assert!(model.history.best_epoch < model.history.dev_f.len());
        let best = model.history.dev_f[model.history.best_epoch];
        assert!(model.history.dev_f.iter().all(|&f| f <= best + 1e-12));
    }

    #[test]
    fn deterministic_under_seed() {
        let (train, dev) = toy_corpora();
        let a = TrainedLstmCrf::train(&train, &dev, &quick_cfg());
        let b = TrainedLstmCrf::train(&train, &dev, &quick_cfg());
        let s = Sentence::unlabelled("t", tokenize("the KRAS gene was expressed"));
        assert_eq!(a.predict(&s), b.predict(&s));
        assert_eq!(a.history.dev_f, b.history.dev_f);
    }

    #[test]
    fn word_only_variant_trains() {
        let (train, dev) = toy_corpora();
        let cfg = LstmCrfConfig { use_chars: false, epochs: 8, ..quick_cfg() };
        let model = TrainedLstmCrf::train(&train, &dev, &cfg);
        let s = Sentence::unlabelled("t", tokenize("the WT1 gene was expressed"));
        assert_eq!(model.predict(&s), vec![O, B, O, O, O]);
    }

    #[test]
    fn posteriors_are_distributions_consistent_with_viterbi() {
        let (train, dev) = toy_corpora();
        let model = TrainedLstmCrf::train(&train, &dev, &quick_cfg());
        let s = Sentence::unlabelled("t", tokenize("the WT1 gene was expressed"));
        let post = model.posteriors(&s);
        assert_eq!(post.len(), 5);
        for row in &post {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert!(post[1][B.index()] > 0.5, "post = {:?}", post[1]);
        assert!(model.posteriors(&Sentence::unlabelled("e", vec![])).is_empty());
    }

    #[test]
    fn empty_sentence_prediction() {
        let (train, dev) = toy_corpora();
        let cfg = LstmCrfConfig { epochs: 1, ..quick_cfg() };
        let model = TrainedLstmCrf::train(&train, &dev, &cfg);
        assert!(model.predict(&Sentence::unlabelled("e", vec![])).is_empty());
    }

    #[test]
    fn batch_tagging_matches_per_sentence_predict() {
        let (train, dev) = toy_corpora();
        let cfg = LstmCrfConfig { epochs: 2, ..quick_cfg() };
        let model = TrainedLstmCrf::train(&train, &dev, &cfg);
        let texts = [
            "the WT1 gene was expressed",
            "the patient was treated well",
            "the IDH2 gene",
            "KRAS",
            "the NRAS gene was expressed in the patient",
        ];
        let batch: Vec<Sentence> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sentence::unlabelled(format!("b{i}"), tokenize(t)))
            .collect();
        let tagged = model.try_tag_batch(&batch).expect("valid batch");
        let one_by_one: Vec<Vec<BioTag>> = batch.iter().map(|s| model.predict(s)).collect();
        assert_eq!(tagged, one_by_one);

        let mut with_empties = batch;
        with_empties[1] = Sentence::unlabelled("e1", vec![]);
        with_empties[3] = Sentence::unlabelled("e3", vec![]);
        assert_eq!(model.try_tag_batch(&with_empties), Err(TagError::EmptySentence { index: 1 }));
    }
}
