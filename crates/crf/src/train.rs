//! CRF training: L2-penalized conditional log-likelihood maximization.
//!
//! The objective handed to L-BFGS is the *negative* penalized CLL
//! `Σ (log Z(x) − score(gold|x)) + (ℓ2/2)·‖λ‖²`; its gradient is
//! `expected − observed` feature counts plus `ℓ2·λ`. Per-sentence terms
//! are independent, so the evaluation is a rayon map-reduce over chunks
//! of sentences, each chunk accumulating into a private gradient buffer.

use crate::lbfgs::{self, LbfgsConfig, StopReason};
use crate::model::{ChainCrf, SentenceFeatures};
use graphner_obs::{attr, obs_summary, span, SpanName};
use graphner_text::exactly_zero;
use rayon::prelude::*;

/// Training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// L2 regularization strength (`ℓ2 = 1/σ²` in the Gaussian-prior
    /// view).
    pub l2: f64,
    /// Maximum L-BFGS iterations.
    pub max_iterations: usize,
    /// L-BFGS history size.
    pub memory: usize,
    /// Gradient convergence tolerance.
    pub grad_tol: f64,
    /// Relative objective-decrease tolerance.
    pub f_tol: f64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig { l2: 1.0, max_iterations: 150, memory: 7, grad_tol: 1e-4, f_tol: 1e-7 }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Final value of the penalized negative CLL.
    pub objective: f64,
    /// L-BFGS iterations performed.
    pub iterations: usize,
    /// Why the optimizer stopped.
    pub reason: StopReason,
}

impl ChainCrf {
    /// Negative penalized CLL and its gradient over `data`, at the
    /// model's current parameters. The gradient is *written* into
    /// `grad` (overwriting its contents).
    pub fn objective(&self, data: &[SentenceFeatures], l2: f64, grad: &mut [f64]) -> f64 {
        let n = self.num_params();
        assert_eq!(grad.len(), n);
        let exp_trans = self.exp_transitions();
        // The chunk size must be a pure function of the data length —
        // never of the worker count. The reduction below regroups its
        // float sums at chunk boundaries, so thread-count-dependent
        // boundaries would make the trained bits depend on the machine;
        // length-only boundaries keep training byte-identical at any
        // GRAPHNER_THREADS setting.
        let chunk = data.len().div_ceil(64).max(1);

        let (nll, g) = data
            .par_chunks(chunk)
            .map(|sentences| {
                let mut g = vec![0.0; n];
                let mut nll = 0.0;
                for sent in sentences {
                    if sent.is_empty() {
                        continue;
                    }
                    nll += self.accumulate_sentence(sent, &exp_trans, &mut g);
                }
                (nll, g)
            })
            // det: chunk boundaries are a pure function of data length
            // (see above) and the pool merges slots in index order, so
            // this float regrouping is fixed for a given corpus.
            .reduce(
                || (0.0, vec![0.0; n]),
                |(nll_a, mut ga), (nll_b, gb)| {
                    for (a, b) in ga.iter_mut().zip(&gb) {
                        *a += b;
                    }
                    (nll_a + nll_b, ga)
                },
            );

        grad.copy_from_slice(&g);
        let mut obj = nll;
        let params = self.params();
        for i in 0..n {
            obj += 0.5 * l2 * params[i] * params[i];
            grad[i] += l2 * params[i];
        }
        obj
    }

    /// One sentence's contribution: returns `log Z − score(gold)` and
    /// adds `expected − observed` counts into `grad`.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: CRF training data is labelled by construction; silently skipping would corrupt the gradient"
    )]
    fn accumulate_sentence(
        &self,
        sent: &SentenceFeatures,
        exp_trans: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        let gold = sent.gold.as_ref().expect("training requires labelled sentences");
        let l = sent.len();
        let s = self.num_states();
        let lat = self.lattice(sent, exp_trans);
        let trans_off = self.trans_offset();
        let init_off = self.init_offset();

        // Expected counts.
        for i in 0..l {
            for st in 0..s {
                let gamma = lat.gamma(i, st);
                // skip-zero optimization: must be exact, an epsilon
                // would silently drop small but real gradient terms
                if exactly_zero(gamma) {
                    continue;
                }
                for &f in &sent.obs[i] {
                    grad[f as usize * s + st] += gamma;
                }
                if i == 0 {
                    grad[init_off + st] += gamma;
                }
            }
        }
        for i in 1..l {
            for p in 0..s {
                let ap = lat.alpha[(i - 1) * s + p];
                if exactly_zero(ap) {
                    continue;
                }
                for &c in self.space().next_states(p) {
                    let c = c as usize;
                    let xi = ap * exp_trans[p * s + c] * lat.node[i * s + c] * lat.beta[i * s + c]
                        / lat.scale[i];
                    grad[trans_off + p * s + c] += xi;
                }
            }
        }

        // Observed (gold) counts.
        let mut prev_state = None;
        for i in 0..l {
            let st = self.space().gold_state(gold, i);
            for &f in &sent.obs[i] {
                grad[f as usize * s + st] -= 1.0;
            }
            if i == 0 {
                grad[init_off + st] -= 1.0;
            }
            if let Some(p) = prev_state {
                grad[trans_off + p * s + st] -= 1.0;
            }
            prev_state = Some(st);
        }

        lat.log_z - self.path_log_score(sent, gold)
    }

    /// Train the model on labelled sentences, replacing its parameters
    /// with the optimum found.
    pub fn train(&mut self, data: &[SentenceFeatures], cfg: &TrainConfig) -> TrainReport {
        assert!(
            data.iter().all(|s| s.gold.is_some()),
            "all training sentences must carry gold tags"
        );
        let _s = span(SpanName::CrfTrain);
        attr("train.sentences", data.len());
        attr("train.params", self.num_params());
        let mut scratch = self.clone();
        let x0 = self.params().to_vec();
        let lcfg = LbfgsConfig {
            memory: cfg.memory,
            max_iterations: cfg.max_iterations,
            grad_tol: cfg.grad_tol,
            f_tol: cfg.f_tol,
            ..Default::default()
        };
        let result = lbfgs::minimize(
            |x, grad| {
                scratch.params_mut().copy_from_slice(x);
                scratch.objective(data, cfg.l2, grad)
            },
            x0,
            &lcfg,
        );
        self.set_params(result.x);
        attr("train.iterations", result.iterations);
        attr("train.objective", result.fx);
        obs_summary!(
            "crf train: {} sentences, {} iterations, objective {:.6e}, stopped: {:?}",
            data.len(),
            result.iterations,
            result.fx,
            result.reason
        );
        TrainReport { objective: result.fx, iterations: result.iterations, reason: result.reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statespace::Order;
    use graphner_text::BioTag::{self, *};

    fn toy_data() -> (Vec<SentenceFeatures>, usize) {
        // vocabulary ids: 0=the 1=GENE1 2=gene 3=was 4=GENE2 5=protein
        // pattern: words 1 and 4 are B; 5 is I after a gene; others O
        let mk = |ids: &[u32], tags: &[BioTag]| SentenceFeatures {
            obs: ids.iter().map(|&i| vec![i]).collect(),
            gold: Some(tags.to_vec()),
        };
        let data = vec![
            mk(&[0, 1, 2], &[O, B, O]),
            mk(&[0, 4, 5, 3], &[O, B, I, O]),
            mk(&[1, 5, 3, 0], &[B, I, O, O]),
            mk(&[3, 0, 4, 2], &[O, O, B, O]),
            mk(&[0, 2, 3], &[O, O, O]),
        ];
        (data, 6)
    }

    #[test]
    fn gradient_matches_finite_differences() {
        for order in [Order::One, Order::Two] {
            let (data, num_obs) = toy_data();
            let mut crf = ChainCrf::new(order, num_obs);
            // evaluate at a non-trivial point
            let n = crf.num_params();
            let p: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 * 0.05 - 0.25).collect();
            crf.set_params(p.clone());
            let mut grad = vec![0.0; n];
            let f0 = crf.objective(&data, 0.5, &mut grad);
            assert!(f0.is_finite());
            let eps = 1e-6;
            let mut scratch = crf.clone();
            // spot-check a spread of coordinates
            for &i in &[0, 1, 2, n / 3, n / 2, n - 2, n - 1] {
                let mut pp = p.clone();
                pp[i] += eps;
                scratch.set_params(pp.clone());
                let mut dummy = vec![0.0; n];
                let fp = scratch.objective(&data, 0.5, &mut dummy);
                pp[i] -= 2.0 * eps;
                scratch.set_params(pp);
                let fm = scratch.objective(&data, 0.5, &mut dummy);
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (fd - grad[i]).abs() < 1e-4,
                    "order {order:?} coord {i}: fd {fd} vs analytic {}",
                    grad[i]
                );
            }
        }
    }

    #[test]
    fn training_fits_toy_pattern() {
        for order in [Order::One, Order::Two] {
            let (data, num_obs) = toy_data();
            let mut crf = ChainCrf::new(order, num_obs);
            let report = crf
                .train(&data, &TrainConfig { l2: 0.01, max_iterations: 200, ..Default::default() });
            assert!(report.objective.is_finite());
            // the model must reproduce the training tags
            for sent in &data {
                let pred = crf.viterbi(sent);
                assert_eq!(&pred, sent.gold.as_ref().unwrap(), "order {order:?}");
            }
            // and generalize the lexical pattern to a new arrangement
            let test =
                SentenceFeatures { obs: vec![vec![3], vec![1], vec![5], vec![0]], gold: None };
            assert_eq!(crf.viterbi(&test), vec![O, B, I, O], "order {order:?}");
        }
    }

    #[test]
    fn training_decreases_objective() {
        let (data, num_obs) = toy_data();
        let mut crf = ChainCrf::new(Order::One, num_obs);
        let mut grad = vec![0.0; crf.num_params()];
        let before = crf.objective(&data, 1.0, &mut grad);
        crf.train(&data, &TrainConfig { max_iterations: 30, ..Default::default() });
        let after = crf.objective(&data, 1.0, &mut grad);
        assert!(after < before, "objective {after} not below initial {before}");
    }

    #[test]
    fn stronger_regularization_shrinks_weights() {
        let (data, num_obs) = toy_data();
        let norm = |l2: f64| {
            let mut crf = ChainCrf::new(Order::One, num_obs);
            crf.train(&data, &TrainConfig { l2, max_iterations: 100, ..Default::default() });
            crf.params().iter().map(|w| w * w).sum::<f64>().sqrt()
        };
        assert!(norm(10.0) < norm(0.01));
    }

    #[test]
    fn posteriors_track_training_labels() {
        let (data, num_obs) = toy_data();
        let mut crf = ChainCrf::new(Order::One, num_obs);
        crf.train(&data, &TrainConfig { l2: 0.01, max_iterations: 200, ..Default::default() });
        let sent = &data[1]; // O B I O
        let post = crf.posteriors(sent);
        assert!(post[0][O.index()] > 0.5);
        assert!(post[1][B.index()] > 0.5);
        assert!(post[2][I.index()] > 0.5);
    }

    #[test]
    #[should_panic(expected = "gold tags")]
    fn training_rejects_unlabelled_data() {
        let data = vec![SentenceFeatures { obs: vec![vec![0]], gold: None }];
        let mut crf = ChainCrf::new(Order::One, 1);
        crf.train(&data, &TrainConfig::default());
    }

    #[test]
    fn empty_sentences_are_skipped() {
        let (mut data, num_obs) = toy_data();
        data.push(SentenceFeatures { obs: vec![], gold: Some(vec![]) });
        let mut crf = ChainCrf::new(Order::One, num_obs);
        let report = crf.train(&data, &TrainConfig { max_iterations: 20, ..Default::default() });
        assert!(report.objective.is_finite());
    }
}
