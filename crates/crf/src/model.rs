//! The chain CRF model: parameters and potentials.
//!
//! The model is log-linear:
//! `score(t|x) = Σᵢ Σⱼ λⱼ fⱼ(x, i, tᵢ, tᵢ₋₁)`.
//! Features factor into *observation* features (extracted from the
//! sentence around position `i`, supplied by the client as interned ids)
//! crossed with the current chain state, plus dense *transition* weights
//! over state pairs and *initial-state* weights. All parameters live in
//! one flat vector so the L-BFGS optimizer can treat training as generic
//! unconstrained minimization.

use crate::statespace::{Order, StateSpace};
use graphner_text::BioTag;

/// Observation features of one sentence: for each token position, the
/// ids of the features that fire there (binary features), plus optional
/// gold tags when the sentence is labelled training data.
#[derive(Clone, Debug)]
pub struct SentenceFeatures {
    /// `obs[i]` = ids of observation features firing at position `i`.
    pub obs: Vec<Vec<u32>>,
    /// Gold tags (training data only).
    pub gold: Option<Vec<BioTag>>,
}

impl SentenceFeatures {
    /// Sentence length in tokens.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// Whether the sentence has no tokens.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }
}

/// A linear-chain conditional random field over the BIO tag set.
#[derive(Clone, Debug)]
pub struct ChainCrf {
    space: StateSpace,
    num_obs: usize,
    /// Layout: `[num_obs × S]` state weights, then `[S × S]` transition
    /// weights, then `[S]` initial-state weights.
    params: Vec<f64>,
}

impl ChainCrf {
    /// Create a zero-initialized CRF for `num_obs` observation features.
    pub fn new(order: Order, num_obs: usize) -> ChainCrf {
        let space = StateSpace::new(order);
        let s = space.num_states();
        let n_params = num_obs * s + s * s + s;
        ChainCrf { space, num_obs, params: vec![0.0; n_params] }
    }

    /// Reassemble a trained CRF from its persisted parts: the chain
    /// order, the observation-feature count, and the flat parameter
    /// vector in the layout documented on [`ChainCrf`].
    ///
    /// # Panics
    /// Panics if `params` has the wrong length for `(order, num_obs)`.
    pub fn from_parts(order: Order, num_obs: usize, params: Vec<f64>) -> ChainCrf {
        let mut crf = ChainCrf::new(order, num_obs);
        crf.set_params(params);
        crf
    }

    /// The chain state space.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// Number of observation features the model was sized for.
    pub fn num_obs_features(&self) -> usize {
        self.num_obs
    }

    /// Number of chain states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.space.num_states()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Read-only view of the parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Mutable view of the parameter vector (trainer internals).
    pub(crate) fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Replace the parameter vector (used by the trainer).
    ///
    /// # Panics
    /// Panics if the length differs from [`ChainCrf::num_params`].
    pub fn set_params(&mut self, params: Vec<f64>) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params = params;
    }

    #[inline]
    pub(crate) fn trans_offset(&self) -> usize {
        self.num_obs * self.num_states()
    }

    #[inline]
    pub(crate) fn init_offset(&self) -> usize {
        self.trans_offset() + self.num_states() * self.num_states()
    }

    /// Transition weight for `prev -> cur` (chain states).
    #[inline]
    // bound: prev/cur < num_states() and params holds a full
    // num_states^2 transition block past trans_offset by construction
    pub fn trans_w(&self, prev: usize, cur: usize) -> f64 {
        self.params[self.trans_offset() + prev * self.num_states() + cur]
    }

    /// Initial-state weight.
    #[inline]
    // bound: state < num_states() and params ends with a full
    // num_states init block starting at init_offset by construction
    pub fn init_w(&self, state: usize) -> f64 {
        self.params[self.init_offset() + state]
    }

    /// Unnormalized log node score of `state` at position `i`:
    /// the sum of weights of the observation features firing there,
    /// plus the initial-state weight at position 0.
    // bound: f < num_obs (debug-asserted) and state < num_states(), so
    // `f * s + state` stays inside the num_obs*num_states weight block
    pub fn node_log_score(&self, sent: &SentenceFeatures, i: usize, state: usize) -> f64 {
        let s = self.num_states();
        let mut score = 0.0;
        for &f in &sent.obs[i] {
            debug_assert!((f as usize) < self.num_obs, "feature id out of range");
            score += self.params[f as usize * s + state];
        }
        if i == 0 {
            score += self.init_w(state);
        }
        score
    }

    /// Log score of a full gold path (numerator of the conditional
    /// likelihood).
    pub fn path_log_score(&self, sent: &SentenceFeatures, tags: &[BioTag]) -> f64 {
        debug_assert_eq!(sent.len(), tags.len());
        let mut score = 0.0;
        let mut prev_state = None;
        for i in 0..sent.len() {
            let st = self.space.gold_state(tags, i);
            score += self.node_log_score(sent, i, st);
            if let Some(p) = prev_state {
                score += self.trans_w(p, st);
            }
            prev_state = Some(st);
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::BioTag::*;

    fn tiny_sent() -> SentenceFeatures {
        SentenceFeatures { obs: vec![vec![0], vec![1], vec![0, 1]], gold: Some(vec![O, B, I]) }
    }

    #[test]
    fn zero_model_scores_zero() {
        let crf = ChainCrf::new(Order::One, 2);
        let s = tiny_sent();
        assert_eq!(crf.path_log_score(&s, &[O, B, I]), 0.0);
        assert_eq!(crf.node_log_score(&s, 1, 0), 0.0);
    }

    #[test]
    fn param_layout() {
        let crf = ChainCrf::new(Order::One, 2);
        // 2 obs × 3 states + 3×3 transitions + 3 init = 18
        assert_eq!(crf.num_params(), 18);
        let crf2 = ChainCrf::new(Order::Two, 2);
        // 2×9 + 81 + 9 = 108
        assert_eq!(crf2.num_params(), 108);
    }

    #[test]
    fn path_score_sums_components() {
        let mut crf = ChainCrf::new(Order::One, 2);
        let mut p = vec![0.0; crf.num_params()];
        // state weight: feature 0 with state O (=2): index 0*3+2
        p[2] = 1.5;
        // transition O(2) -> B(0): offset 6 + 2*3 + 0 = 12
        p[12] = 0.7;
        // init weight for O: offset 6+9+2 = 17
        p[17] = 0.3;
        crf.set_params(p);
        let s = tiny_sent();
        // positions: 0 has feat 0 tag O -> 1.5 + init 0.3; transition O->B 0.7
        let score = crf.path_log_score(&s, &[O, B, I]);
        assert!((score - (1.5 + 0.3 + 0.7)).abs() < 1e-12, "score = {score}");
    }
}
