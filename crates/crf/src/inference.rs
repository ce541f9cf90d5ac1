//! Exact inference on the chain: scaled forward–backward, marginal
//! posteriors, and Viterbi decoding.
//!
//! Forward–backward uses per-position scaling (the Rabiner convention)
//! rather than log-space arithmetic: node potentials are shifted by
//! their per-position maximum before exponentiation, which keeps every
//! intermediate quantity in range while avoiding `ln`/`exp` in the inner
//! loops.

#![warn(clippy::cast_possible_truncation)]

use crate::model::{ChainCrf, SentenceFeatures};
use graphner_text::{BioTag, NUM_TAGS};

/// The forward–backward lattice of one sentence.
///
/// All vectors are row-major `[position × state]`. `alpha` and `beta`
/// are the *scaled* messages: `gamma(i, s) = alpha[i,s] · beta[i,s]` is a
/// proper distribution over states at each position.
#[derive(Clone, Debug)]
pub struct Lattice {
    /// Number of chain states.
    pub num_states: usize,
    /// Shifted node potentials `exp(nodeScore − shift_i)`.
    pub node: Vec<f64>,
    /// Scaled forward messages.
    pub alpha: Vec<f64>,
    /// Scaled backward messages.
    pub beta: Vec<f64>,
    /// Per-position scaling constants `c_i`.
    pub scale: Vec<f64>,
    /// Log partition function `log Z(x)`.
    pub log_z: f64,
}

impl Lattice {
    /// Posterior marginal `p(state s at position i | x)`.
    #[inline]
    pub fn gamma(&self, i: usize, s: usize) -> f64 {
        self.alpha[i * self.num_states + s] * self.beta[i * self.num_states + s]
    }
}

impl ChainCrf {
    /// Exponentiated transition matrix `exp(trans_w)`, row-major with
    /// disallowed transitions zeroed.
    pub(crate) fn exp_transitions(&self) -> Vec<f64> {
        let s = self.num_states();
        let mut out = vec![0.0; s * s];
        for prev in 0..s {
            for &cur in self.space().next_states(prev) {
                out[prev * s + cur as usize] = self.trans_w(prev, cur as usize).exp();
            }
        }
        out
    }

    /// Run scaled forward–backward over a sentence.
    ///
    /// `exp_trans` must come from `ChainCrf::exp_transitions`; it is
    /// passed in so the trainer can share one copy across sentences.
    // hot: forward-backward over every training sentence, every epoch
    // bound: i < l and st/p/n < s with l*s the length of every lattice
    // row buffer, so every `i * s + st` index is in range and far below
    // usize::MAX; s <= 16 is debug-asserted below
    pub fn lattice(&self, sent: &SentenceFeatures, exp_trans: &[f64]) -> Lattice {
        let l = sent.len();
        let s = self.num_states();
        assert!(l > 0, "cannot run inference on an empty sentence");

        // Shifted node potentials.
        // alloc: one l*s buffer per sentence, returned in the Lattice
        let mut node = vec![0.0; l * s];
        let mut shift_sum = 0.0;
        for i in 0..l {
            let mut max = f64::NEG_INFINITY;
            let mut logs = [0.0f64; 16];
            debug_assert!(s <= 16);
            for st in 0..s {
                let v = if i == 0 && !self.space().initial_allowed(st) {
                    f64::NEG_INFINITY
                } else {
                    self.node_log_score(sent, i, st)
                };
                logs[st] = v;
                max = max.max(v);
            }
            shift_sum += max;
            for st in 0..s {
                node[i * s + st] = (logs[st] - max).exp();
            }
        }

        // Forward with scaling.
        // alloc: alpha/scale live in the returned Lattice; sizing them
        // here keeps the forward pass allocation-free per position
        let mut alpha = vec![0.0; l * s];
        // alloc: per-position scaling constants, returned in the Lattice
        let mut scale = vec![0.0; l];
        let mut c0 = 0.0;
        for st in 0..s {
            alpha[st] = node[st];
            c0 += node[st];
        }
        scale[0] = c0;
        for a in alpha[..s].iter_mut() {
            *a /= c0;
        }
        for i in 1..l {
            let (prev_row, cur_rows) = alpha.split_at_mut(i * s);
            let prev_row = &prev_row[(i - 1) * s..];
            let cur_row = &mut cur_rows[..s];
            let mut ci = 0.0;
            for st in 0..s {
                let mut sum = 0.0;
                for &p in self.space().prev_states(st) {
                    sum += prev_row[p as usize] * exp_trans[p as usize * s + st];
                }
                let v = sum * node[i * s + st];
                cur_row[st] = v;
                ci += v;
            }
            scale[i] = ci;
            for v in cur_row.iter_mut() {
                *v /= ci;
            }
        }

        // Backward with the same scaling constants.
        // alloc: one l*s buffer per sentence, returned in the Lattice
        let mut beta = vec![0.0; l * s];
        for st in 0..s {
            beta[(l - 1) * s + st] = 1.0;
        }
        for i in (0..l - 1).rev() {
            for st in 0..s {
                let mut sum = 0.0;
                for &nx in self.space().next_states(st) {
                    let n = nx as usize;
                    sum += exp_trans[st * s + n] * node[(i + 1) * s + n] * beta[(i + 1) * s + n];
                }
                beta[i * s + st] = sum / scale[i + 1];
            }
        }

        let log_z = shift_sum + scale.iter().map(|c| c.ln()).sum::<f64>();
        Lattice { num_states: s, node, alpha, beta, scale, log_z }
    }

    /// Token-level posterior marginals `p(tag | x)` per position — the
    /// quantities GraphNER averages over 3-gram occurrences (Algorithm 1,
    /// lines 5–6).
    pub fn posteriors(&self, sent: &SentenceFeatures) -> Vec<[f64; NUM_TAGS]> {
        let exp_trans = self.exp_transitions();
        let lat = self.lattice(sent, &exp_trans);
        self.posteriors_from_lattice(sent.len(), &lat)
    }

    /// Tag marginals from a precomputed lattice.
    pub fn posteriors_from_lattice(&self, len: usize, lat: &Lattice) -> Vec<[f64; NUM_TAGS]> {
        let s = self.num_states();
        let mut out = vec![[0.0; NUM_TAGS]; len];
        for i in 0..len {
            for st in 0..s {
                out[i][self.space().tag_of(st)] += lat.gamma(i, st);
            }
            // Guard against accumulated round-off.
            let sum: f64 = out[i].iter().sum();
            if sum > 0.0 {
                for v in out[i].iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Viterbi decoding: the most probable tag sequence under the model.
    // hot: per-sentence max-product decode on the serving path
    // bound: i < l and st/p/cur < s with l*s the length of delta/back,
    // so every `i * s + st` index is in range and far below usize::MAX
    pub fn viterbi(&self, sent: &SentenceFeatures) -> Vec<BioTag> {
        let l = sent.len();
        let s = self.num_states();
        if l == 0 {
            // alloc: empty Vec never touches the allocator
            return Vec::new();
        }
        // alloc: two l*s DP tables per sentence, freed on return
        let mut delta = vec![f64::NEG_INFINITY; l * s];
        // alloc: backpointer table, same l*s sizing as delta
        let mut back = vec![0u32; l * s];
        for st in 0..s {
            if self.space().initial_allowed(st) {
                delta[st] = self.node_log_score(sent, 0, st);
            }
        }
        for i in 1..l {
            for st in 0..s {
                let node = self.node_log_score(sent, i, st);
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0u32;
                for &p in self.space().prev_states(st) {
                    let v = delta[(i - 1) * s + p as usize] + self.trans_w(p as usize, st);
                    if v > best {
                        best = v;
                        arg = p;
                    }
                }
                delta[i * s + st] = best + node;
                back[i * s + st] = arg;
            }
        }
        let mut cur = (0..s)
            .max_by(|&a, &b| delta[(l - 1) * s + a].total_cmp(&delta[(l - 1) * s + b]))
            .unwrap_or(0);
        // alloc: one state-id slot per token for the backtrace
        let mut states = vec![0usize; l];
        states[l - 1] = cur;
        for i in (1..l).rev() {
            cur = back[i * s + cur] as usize;
            states[i - 1] = cur;
        }
        self.space().states_to_tags(&states)
    }
}

/// Viterbi decoding over *tag-level* node probabilities and a tag-level
/// transition probability matrix — GraphNER's final decode (Algorithm 1,
/// line 9), run after interpolating CRF posteriors with propagated graph
/// beliefs.
///
/// Probabilities of exactly zero are floored to a tiny constant so the
/// decode never sees `-inf` everywhere.
#[expect(
    clippy::cast_possible_truncation,
    reason = "back-pointers index NUM_TAGS (3) tags, so they fit u8"
)]
// hot: GraphNER's final decode, runs per sentence at serve time
pub fn viterbi_tags(
    node_probs: &[[f64; NUM_TAGS]],
    trans: &[[f64; NUM_TAGS]; NUM_TAGS],
) -> Vec<BioTag> {
    let l = node_probs.len();
    if l == 0 {
        return Vec::new();
    }
    const FLOOR: f64 = 1e-300;
    let log_trans: Vec<[f64; NUM_TAGS]> = trans
        .iter()
        .map(|row| {
            let mut r = [0.0; NUM_TAGS];
            for (o, &p) in r.iter_mut().zip(row) {
                *o = p.max(FLOOR).ln();
            }
            r
        })
        .collect();
    let mut delta = vec![[0.0f64; NUM_TAGS]; l];
    let mut back = vec![[0u8; NUM_TAGS]; l];
    for y in 0..NUM_TAGS {
        delta[0][y] = node_probs[0][y].max(FLOOR).ln();
    }
    for i in 1..l {
        for y in 0..NUM_TAGS {
            let node = node_probs[i][y].max(FLOOR).ln();
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0u8;
            for p in 0..NUM_TAGS {
                let v = delta[i - 1][p] + log_trans[p][y];
                if v > best {
                    best = v;
                    arg = p as u8;
                }
            }
            delta[i][y] = best + node;
            back[i][y] = arg;
        }
    }
    let mut cur =
        (0..NUM_TAGS).max_by(|&a, &b| delta[l - 1][a].total_cmp(&delta[l - 1][b])).unwrap_or(0);
    let mut tags = vec![BioTag::O; l];
    tags[l - 1] = BioTag::from_index(cur);
    for i in (1..l).rev() {
        cur = back[i][cur] as usize;
        tags[i - 1] = BioTag::from_index(cur);
    }
    tags
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test sentences are tiny")]
mod tests {
    use super::*;
    use crate::statespace::Order;
    use graphner_text::BioTag::*;

    /// Brute-force enumeration of all tag paths for cross-checking.
    fn brute_force(crf: &ChainCrf, sent: &SentenceFeatures) -> (f64, Vec<Vec<f64>>, Vec<BioTag>) {
        let l = sent.len();
        let mut z = 0.0;
        let mut marg = vec![vec![0.0; NUM_TAGS]; l];
        let mut best_score = f64::NEG_INFINITY;
        let mut best_path = Vec::new();
        let total = NUM_TAGS.pow(l as u32);
        for code in 0..total {
            let mut c = code;
            let tags: Vec<BioTag> = (0..l)
                .map(|_| {
                    let t = BioTag::from_index(c % NUM_TAGS);
                    c /= NUM_TAGS;
                    t
                })
                .collect();
            let score = crf.path_log_score(sent, &tags);
            let w = score.exp();
            z += w;
            for (i, t) in tags.iter().enumerate() {
                marg[i][t.index()] += w;
            }
            if score > best_score {
                best_score = score;
                best_path = tags;
            }
        }
        for row in marg.iter_mut() {
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        (z.ln(), marg, best_path)
    }

    fn random_crf(order: Order, num_obs: usize, seed: u64) -> ChainCrf {
        let mut crf = ChainCrf::new(order, num_obs);
        let mut state = seed.max(1);
        let params: Vec<f64> = (0..crf.num_params())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % 2000) as f64 / 1000.0) - 1.0
            })
            .collect();
        crf.set_params(params);
        crf
    }

    fn random_sent(len: usize, num_obs: usize, seed: u64) -> SentenceFeatures {
        let mut state = seed.max(1);
        let obs = (0..len)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % num_obs as u64) as u32
                    })
                    .collect()
            })
            .collect();
        SentenceFeatures { obs, gold: None }
    }

    #[test]
    fn log_z_matches_brute_force_order1() {
        let crf = random_crf(Order::One, 5, 42);
        for len in 1..=5 {
            let sent = random_sent(len, 5, len as u64 * 7 + 1);
            let exp_trans = crf.exp_transitions();
            let lat = crf.lattice(&sent, &exp_trans);
            let (bz, _, _) = brute_force(&crf, &sent);
            assert!((lat.log_z - bz).abs() < 1e-9, "len={len}: {} vs {}", lat.log_z, bz);
        }
    }

    #[test]
    fn marginals_match_brute_force_order1() {
        let crf = random_crf(Order::One, 5, 1);
        let sent = random_sent(4, 5, 99);
        let post = crf.posteriors(&sent);
        let (_, bm, _) = brute_force(&crf, &sent);
        for i in 0..4 {
            for y in 0..NUM_TAGS {
                assert!(
                    (post[i][y] - bm[i][y]).abs() < 1e-9,
                    "i={i} y={y}: {} vs {}",
                    post[i][y],
                    bm[i][y]
                );
            }
        }
    }

    #[test]
    fn log_z_and_marginals_match_brute_force_order2() {
        let crf = random_crf(Order::Two, 4, 7);
        let sent = random_sent(4, 4, 3);
        let exp_trans = crf.exp_transitions();
        let lat = crf.lattice(&sent, &exp_trans);
        let (bz, bm, _) = brute_force(&crf, &sent);
        assert!((lat.log_z - bz).abs() < 1e-9, "{} vs {}", lat.log_z, bz);
        let post = crf.posteriors(&sent);
        for i in 0..4 {
            for y in 0..NUM_TAGS {
                assert!((post[i][y] - bm[i][y]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn viterbi_matches_brute_force() {
        for order in [Order::One, Order::Two] {
            for seed in 1..6u64 {
                let crf = random_crf(order, 6, seed * 13);
                let sent = random_sent(5, 6, seed);
                let vit = crf.viterbi(&sent);
                let (_, _, best) = brute_force(&crf, &sent);
                let vs = crf.path_log_score(&sent, &vit);
                let bs = crf.path_log_score(&sent, &best);
                // paths may differ only on score ties
                assert!((vs - bs).abs() < 1e-9, "order {order:?} seed {seed}: {vs} vs {bs}");
            }
        }
    }

    #[test]
    fn posteriors_sum_to_one() {
        let crf = random_crf(Order::Two, 8, 5);
        let sent = random_sent(9, 8, 11);
        for row in crf.posteriors(&sent) {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_token_sentence() {
        let crf = random_crf(Order::One, 3, 2);
        let sent = random_sent(1, 3, 4);
        let post = crf.posteriors(&sent);
        assert_eq!(post.len(), 1);
        let s: f64 = post[0].iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(crf.viterbi(&sent).len(), 1);
    }

    #[test]
    fn extreme_weights_do_not_overflow() {
        let mut crf = ChainCrf::new(Order::One, 2);
        let mut p = vec![0.0; crf.num_params()];
        p[0] = 800.0; // would overflow exp() without shifting
        p[1] = -800.0;
        crf.set_params(p);
        let sent = SentenceFeatures { obs: vec![vec![0], vec![0], vec![1]], gold: None };
        let post = crf.posteriors(&sent);
        assert!(post.iter().flatten().all(|v| v.is_finite()));
        assert!(post[0][0] > 0.999); // state B strongly preferred
    }

    #[test]
    fn viterbi_tags_follows_node_probs_with_uniform_transitions() {
        let uniform = [[1.0 / 3.0; 3]; 3];
        let nodes = vec![[0.8, 0.1, 0.1], [0.1, 0.7, 0.2], [0.2, 0.2, 0.6]];
        assert_eq!(viterbi_tags(&nodes, &uniform), vec![B, I, O]);
    }

    #[test]
    fn viterbi_tags_respects_transitions() {
        // Node beliefs weakly prefer I at position 1 after O, but the
        // transition matrix forbids O -> I, forcing O.
        let mut trans = [[1.0 / 3.0; 3]; 3];
        trans[O.index()][I.index()] = 0.0;
        trans[O.index()][O.index()] = 0.5;
        trans[O.index()][B.index()] = 0.5;
        let nodes = vec![[0.0, 0.1, 0.9], [0.1, 0.5, 0.4]];
        let tags = viterbi_tags(&nodes, &trans);
        assert_eq!(tags[0], O);
        assert_ne!(tags[1], I);
    }

    #[test]
    fn viterbi_tags_paper_figure1_example() {
        // After interpolation the "-" in "wilms tumor - 1" has belief
        // (B,I,O) = (0, 0.77, 0.23); surrounded by I-favouring tokens it
        // must decode to I.
        let trans = [[0.2, 0.6, 0.2], [0.1, 0.5, 0.4], [0.5, 0.05, 0.45]];
        let nodes = vec![
            [0.9, 0.05, 0.05],  // wilms: B
            [0.05, 0.9, 0.05],  // tumor: I
            [0.0, 0.77, 0.23],  // -
            [0.05, 0.85, 0.10], // 1
        ];
        assert_eq!(viterbi_tags(&nodes, &trans), vec![B, I, I, I]);
    }

    #[test]
    fn viterbi_tags_empty_input() {
        let trans = [[1.0 / 3.0; 3]; 3];
        assert!(viterbi_tags(&[], &trans).is_empty());
    }
}
