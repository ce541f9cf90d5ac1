//! CRF output layer over the BIO tags.
//!
//! The LSTM-CRF's final layer: given per-token emission scores it
//! defines `p(t|x) ∝ exp(Σ start + emissions + transitions)`, with the
//! negative log-likelihood loss, its gradients (with respect to both the
//! layer's transition parameters and the emissions, so the LSTM below
//! can be trained), and Viterbi decoding.

use graphner_text::NUM_TAGS;

const Y: usize = NUM_TAGS;

fn logsumexp(v: &[f64; Y]) -> f64 {
    let m = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return m;
    }
    m + v.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Unary marginals `p(t_i = y | x) = exp(alpha + beta − log Z)`.
fn unary_marginals(alpha: &[[f64; Y]], beta: &[[f64; Y]], log_z: f64) -> Vec<[f64; Y]> {
    let mut marginals = vec![[0.0f64; Y]; alpha.len()];
    for t in 0..alpha.len() {
        for y in 0..Y {
            marginals[t][y] = (alpha[t][y] + beta[t][y] - log_z).exp();
        }
    }
    marginals
}

/// The CRF layer parameters and their gradient accumulators.
#[derive(Clone, Debug)]
pub struct CrfLayer {
    /// Transition scores `trans[prev][cur]`.
    pub trans: [[f64; Y]; Y],
    /// Initial-tag scores.
    pub start: [f64; Y],
    /// Gradient of `trans`.
    pub gtrans: [[f64; Y]; Y],
    /// Gradient of `start`.
    pub gstart: [f64; Y],
}

impl Default for CrfLayer {
    fn default() -> CrfLayer {
        CrfLayer { trans: [[0.0; Y]; Y], start: [0.0; Y], gtrans: [[0.0; Y]; Y], gstart: [0.0; Y] }
    }
}

impl CrfLayer {
    /// Negative log-likelihood of `gold` under the emissions, gradient
    /// accumulation into the layer, and the emission gradients
    /// (`marginals − one-hot`).
    pub fn loss_and_grad(
        &mut self,
        emissions: &[[f64; Y]],
        gold: &[usize],
    ) -> (f64, Vec<[f64; Y]>) {
        let l = emissions.len();
        assert_eq!(gold.len(), l);
        assert!(l > 0);

        let (alpha, beta, log_z) = self.forward_backward(emissions);

        // gold score
        let mut gold_score = self.start[gold[0]] + emissions[0][gold[0]];
        for t in 1..l {
            gold_score += self.trans[gold[t - 1]][gold[t]] + emissions[t][gold[t]];
        }
        let loss = log_z - gold_score;

        // emission gradients: unary marginals − one-hot(gold)
        let mut demissions = unary_marginals(&alpha, &beta, log_z);
        for t in 0..l {
            demissions[t][gold[t]] -= 1.0;
        }

        // start gradient
        for y in 0..Y {
            self.gstart[y] += (alpha[0][y] + beta[0][y] - log_z).exp();
        }
        self.gstart[gold[0]] -= 1.0;

        // transition gradients: pairwise marginals − observed
        for t in 1..l {
            for p in 0..Y {
                for y in 0..Y {
                    let lp =
                        alpha[t - 1][p] + self.trans[p][y] + emissions[t][y] + beta[t][y] - log_z;
                    self.gtrans[p][y] += lp.exp();
                }
            }
            self.gtrans[gold[t - 1]][gold[t]] -= 1.0;
        }

        (loss, demissions)
    }

    /// Per-token unary marginals `p(t_i = y | x)` via forward–backward,
    /// without gold tags or gradient accumulation.
    pub fn marginals(&self, emissions: &[[f64; Y]]) -> Vec<[f64; Y]> {
        if emissions.is_empty() {
            return Vec::new();
        }
        let (alpha, beta, log_z) = self.forward_backward(emissions);
        unary_marginals(&alpha, &beta, log_z)
    }

    /// Log-space forward and backward passes over non-empty
    /// `emissions`: `(alpha, beta, log Z)`, shared by
    /// [`loss_and_grad`](CrfLayer::loss_and_grad) and
    /// [`marginals`](CrfLayer::marginals).
    fn forward_backward(&self, emissions: &[[f64; Y]]) -> (Vec<[f64; Y]>, Vec<[f64; Y]>, f64) {
        let l = emissions.len();
        let mut alpha = vec![[0.0f64; Y]; l];
        for y in 0..Y {
            alpha[0][y] = self.start[y] + emissions[0][y];
        }
        for t in 1..l {
            for y in 0..Y {
                let mut acc = [0.0; Y];
                for p in 0..Y {
                    acc[p] = alpha[t - 1][p] + self.trans[p][y];
                }
                alpha[t][y] = logsumexp(&acc) + emissions[t][y];
            }
        }
        let log_z = logsumexp(&alpha[l - 1]);

        let mut beta = vec![[0.0f64; Y]; l];
        for t in (0..l - 1).rev() {
            for y in 0..Y {
                let mut acc = [0.0; Y];
                for n in 0..Y {
                    acc[n] = self.trans[y][n] + emissions[t + 1][n] + beta[t + 1][n];
                }
                beta[t][y] = logsumexp(&acc);
            }
        }
        (alpha, beta, log_z)
    }

    /// Viterbi decode over emissions.
    pub fn viterbi(&self, emissions: &[[f64; Y]]) -> Vec<usize> {
        let l = emissions.len();
        if l == 0 {
            return Vec::new();
        }
        let mut delta = vec![[0.0f64; Y]; l];
        let mut back = vec![[0usize; Y]; l];
        for y in 0..Y {
            delta[0][y] = self.start[y] + emissions[0][y];
        }
        for t in 1..l {
            for y in 0..Y {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0;
                for p in 0..Y {
                    let v = delta[t - 1][p] + self.trans[p][y];
                    if v > best {
                        best = v;
                        arg = p;
                    }
                }
                delta[t][y] = best + emissions[t][y];
                back[t][y] = arg;
            }
        }
        let mut cur =
            (0..Y).max_by(|&a, &b| delta[l - 1][a].total_cmp(&delta[l - 1][b])).unwrap_or(0);
        let mut path = vec![0usize; l];
        path[l - 1] = cur;
        for t in (1..l).rev() {
            cur = back[t][cur];
            path[t - 1] = cur;
        }
        path
    }

    /// Zero the gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gtrans = [[0.0; Y]; Y];
        self.gstart = [0.0; Y];
    }

    /// Squared L2 norm of the gradients.
    pub fn grad_norm_sq(&self) -> f64 {
        self.gtrans.iter().flatten().chain(self.gstart.iter()).map(|g| g * g).sum()
    }

    /// SGD step.
    pub fn sgd_step(&mut self, lr: f64, scale: f64) {
        for p in 0..Y {
            for y in 0..Y {
                self.trans[p][y] -= lr * scale * self.gtrans[p][y];
            }
            self.start[p] -= lr * scale * self.gstart[p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emissions(l: usize, seed: u64) -> Vec<[f64; Y]> {
        let mut state = seed.max(1);
        (0..l)
            .map(|_| {
                let mut e = [0.0; Y];
                for v in e.iter_mut() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    *v = ((state % 400) as f64 / 100.0) - 2.0;
                }
                e
            })
            .collect()
    }

    /// Brute-force NLL by enumerating all paths.
    fn brute_nll(layer: &CrfLayer, em: &[[f64; Y]], gold: &[usize]) -> f64 {
        let l = em.len();
        let score = |path: &[usize]| -> f64 {
            let mut s = layer.start[path[0]] + em[0][path[0]];
            for t in 1..l {
                s += layer.trans[path[t - 1]][path[t]] + em[t][path[t]];
            }
            s
        };
        let mut z = 0.0f64;
        let mut best = (f64::NEG_INFINITY, vec![]);
        for code in 0..Y.pow(l as u32) {
            let mut c = code;
            let path: Vec<usize> = (0..l)
                .map(|_| {
                    let y = c % Y;
                    c /= Y;
                    y
                })
                .collect();
            let s = score(&path);
            z += s.exp();
            if s > best.0 {
                best = (s, path);
            }
        }
        z.ln() - score(gold)
    }

    fn toy_layer(seed: u64) -> CrfLayer {
        let mut layer = CrfLayer::default();
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 200) as f64 / 100.0) - 1.0
        };
        for p in 0..Y {
            for y in 0..Y {
                layer.trans[p][y] = next();
            }
            layer.start[p] = next();
        }
        layer
    }

    #[test]
    fn loss_matches_brute_force() {
        let mut layer = toy_layer(3);
        let em = emissions(4, 5);
        let gold = vec![2, 0, 1, 2];
        let (loss, _) = layer.loss_and_grad(&em, &gold);
        let expect = brute_nll(&layer, &em, &gold);
        assert!((loss - expect).abs() < 1e-9, "{loss} vs {expect}");
        assert!(loss > 0.0);
    }

    #[test]
    fn emission_gradients_match_finite_differences() {
        let mut layer = toy_layer(7);
        let mut em = emissions(3, 9);
        let gold = vec![0, 1, 2];
        let (_, dem) = layer.loss_and_grad(&em, &gold);
        let eps = 1e-6;
        for t in 0..3 {
            for y in 0..Y {
                let orig = em[t][y];
                em[t][y] = orig + eps;
                let (fp, _) = layer.clone().loss_and_grad(&em, &gold);
                em[t][y] = orig - eps;
                let (fm, _) = layer.clone().loss_and_grad(&em, &gold);
                em[t][y] = orig;
                let fd = (fp - fm) / (2.0 * eps);
                assert!((fd - dem[t][y]).abs() < 1e-6, "t={t} y={y}");
            }
        }
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        let layer = toy_layer(11);
        let em = emissions(4, 13);
        let gold = vec![1, 2, 0, 2];
        let mut work = layer.clone();
        work.zero_grad();
        let _ = work.loss_and_grad(&em, &gold);
        let eps = 1e-6;
        for p in 0..Y {
            for y in 0..Y {
                let mut lp = layer.clone();
                lp.trans[p][y] += eps;
                let (fp, _) = lp.loss_and_grad(&em, &gold);
                let mut lm = layer.clone();
                lm.trans[p][y] -= eps;
                let (fm, _) = lm.loss_and_grad(&em, &gold);
                let fd = (fp - fm) / (2.0 * eps);
                assert!((fd - work.gtrans[p][y]).abs() < 1e-6, "trans[{p}][{y}]");
            }
            let mut lp = layer.clone();
            lp.start[p] += eps;
            let (fp, _) = lp.loss_and_grad(&em, &gold);
            let mut lm = layer.clone();
            lm.start[p] -= eps;
            let (fm, _) = lm.loss_and_grad(&em, &gold);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - work.gstart[p]).abs() < 1e-6, "start[{p}]");
        }
    }

    #[test]
    fn viterbi_matches_brute_force() {
        for seed in 1..5u64 {
            let layer = toy_layer(seed * 3);
            let em = emissions(5, seed);
            let path = layer.viterbi(&em);
            // brute-force argmax
            let l = em.len();
            let score = |path: &[usize]| -> f64 {
                let mut s = layer.start[path[0]] + em[0][path[0]];
                for t in 1..l {
                    s += layer.trans[path[t - 1]][path[t]] + em[t][path[t]];
                }
                s
            };
            let mut best = f64::NEG_INFINITY;
            for code in 0..Y.pow(l as u32) {
                let mut c = code;
                let p: Vec<usize> = (0..l)
                    .map(|_| {
                        let y = c % Y;
                        c /= Y;
                        y
                    })
                    .collect();
                best = best.max(score(&p));
            }
            assert!((score(&path) - best).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn training_on_layer_alone_fits_pattern() {
        // fixed emissions, learnable transitions: gold alternates 0,1
        let mut layer = CrfLayer::default();
        let em = vec![[0.0; Y]; 6];
        let gold = vec![0, 1, 0, 1, 0, 1];
        for _ in 0..200 {
            layer.zero_grad();
            let _ = layer.loss_and_grad(&em, &gold);
            layer.sgd_step(0.5, 1.0);
        }
        assert_eq!(layer.viterbi(&em), gold);
    }

    #[test]
    fn marginals_are_distributions_and_match_gradient_path() {
        let layer = toy_layer(17);
        let em = emissions(5, 19);
        let marg = layer.marginals(&em);
        assert_eq!(marg.len(), 5);
        for row in &marg {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
        // loss_and_grad's emission gradient is marginals − one-hot(gold)
        let gold = vec![0, 1, 2, 0, 1];
        let (_, dem) = layer.clone().loss_and_grad(&em, &gold);
        for t in 0..5 {
            for y in 0..Y {
                let expect = dem[t][y] + if gold[t] == y { 1.0 } else { 0.0 };
                assert!((marg[t][y] - expect).abs() < 1e-12, "t={t} y={y}");
            }
        }
        assert!(layer.marginals(&[]).is_empty());
    }

    #[test]
    fn single_token_sequence() {
        let mut layer = toy_layer(2);
        let em = emissions(1, 4);
        let (loss, dem) = layer.loss_and_grad(&em, &[1]);
        assert!(loss.is_finite());
        assert_eq!(dem.len(), 1);
        let s: f64 = dem[0].iter().sum();
        assert!(s.abs() < 1e-9); // marginals sum to 1, minus one-hot sums to 0
    }
}
