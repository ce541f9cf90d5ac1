//! LSTM cells and bidirectional layers with manual backpropagation.
//!
//! The LSTM-CRF baseline (Lample et al. 2016) needs a recurrent encoder;
//! there is no autograd here, so forward passes record a trace and
//! backward passes consume it, accumulating parameter gradients in the
//! layer. Everything is `f64`: these models are small (the paper's own
//! baselines use hidden sizes ≈ 100) and exact gradients make the
//! finite-difference tests meaningful.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A single LSTM cell with input, forget, output, and candidate gates.
///
/// Weight layout: `w` is `[4·d_h × d_in]` row-major, `u` is
/// `[4·d_h × d_h]`, `b` is `[4·d_h]`, gate order `i, f, o, g`.
#[derive(Clone, Debug)]
pub struct LstmCell {
    /// Input dimensionality.
    pub d_in: usize,
    /// Hidden dimensionality.
    pub d_h: usize,
    /// Input weights.
    pub w: Vec<f64>,
    /// Recurrent weights.
    pub u: Vec<f64>,
    /// Bias (forget gate initialized to 1, the standard trick).
    pub b: Vec<f64>,
    /// Gradient of `w`.
    pub gw: Vec<f64>,
    /// Gradient of `u`.
    pub gu: Vec<f64>,
    /// Gradient of `b`.
    pub gb: Vec<f64>,
}

/// Forward trace of one sequence through a cell.
#[derive(Clone, Debug, Default)]
pub struct LstmTrace {
    /// Inputs per step.
    xs: Vec<Vec<f64>>,
    /// Gate activations `i, f, o, g` per step (length `4·d_h`).
    gates: Vec<Vec<f64>>,
    /// Cell states per step.
    cs: Vec<Vec<f64>>,
    /// Hidden states per step.
    pub hs: Vec<Vec<f64>>,
}

impl LstmCell {
    /// Create a cell with Xavier-uniform weights.
    pub fn new(d_in: usize, d_h: usize, rng: &mut ChaCha8Rng) -> LstmCell {
        let scale_w = (6.0 / (d_in + d_h) as f64).sqrt();
        let scale_u = (6.0 / (2 * d_h) as f64).sqrt();
        let init = |n: usize, s: f64, rng: &mut ChaCha8Rng| -> Vec<f64> {
            (0..n).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * s).collect()
        };
        let mut b = vec![0.0; 4 * d_h];
        for v in b[d_h..2 * d_h].iter_mut() {
            *v = 1.0; // forget-gate bias
        }
        LstmCell {
            d_in,
            d_h,
            w: init(4 * d_h * d_in, scale_w, rng),
            u: init(4 * d_h * d_h, scale_u, rng),
            b,
            gw: vec![0.0; 4 * d_h * d_in],
            gu: vec![0.0; 4 * d_h * d_h],
            gb: vec![0.0; 4 * d_h],
        }
    }

    /// Run the cell over a sequence, recording the trace.
    pub fn forward(&self, xs: &[Vec<f64>]) -> LstmTrace {
        let d_h = self.d_h;
        let mut trace = LstmTrace {
            xs: xs.to_vec(),
            gates: Vec::with_capacity(xs.len()),
            cs: Vec::with_capacity(xs.len()),
            hs: Vec::with_capacity(xs.len()),
        };
        let mut h_prev = vec![0.0; d_h];
        let mut c_prev = vec![0.0; d_h];
        for x in xs {
            debug_assert_eq!(x.len(), self.d_in);
            // z = W x + U h_prev + b
            let mut z = self.b.clone();
            for (row, zr) in z.iter_mut().enumerate() {
                let wrow = &self.w[row * self.d_in..(row + 1) * self.d_in];
                let urow = &self.u[row * d_h..(row + 1) * d_h];
                let mut acc = 0.0;
                for (wv, xv) in wrow.iter().zip(x) {
                    acc += wv * xv;
                }
                for (uv, hv) in urow.iter().zip(&h_prev) {
                    acc += uv * hv;
                }
                *zr += acc;
            }
            let mut gates = vec![0.0; 4 * d_h];
            for k in 0..d_h {
                gates[k] = sigmoid(z[k]); // i
                gates[d_h + k] = sigmoid(z[d_h + k]); // f
                gates[2 * d_h + k] = sigmoid(z[2 * d_h + k]); // o
                gates[3 * d_h + k] = z[3 * d_h + k].tanh(); // g
            }
            let mut c = vec![0.0; d_h];
            let mut h = vec![0.0; d_h];
            for k in 0..d_h {
                c[k] = gates[d_h + k] * c_prev[k] + gates[k] * gates[3 * d_h + k];
                h[k] = gates[2 * d_h + k] * c[k].tanh();
            }
            trace.gates.push(gates);
            trace.cs.push(c.clone());
            trace.hs.push(h.clone());
            h_prev = h;
            c_prev = c;
        }
        trace
    }

    /// Backpropagate: `dhs[t]` is ∂loss/∂h_t from above. Accumulates
    /// parameter gradients and returns ∂loss/∂x_t per step.
    pub fn backward(&mut self, trace: &LstmTrace, dhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let t_len = trace.hs.len();
        assert_eq!(dhs.len(), t_len);
        let d_h = self.d_h;
        let mut dxs = vec![vec![0.0; self.d_in]; t_len];
        let mut dh_next = vec![0.0; d_h];
        let mut dc_next = vec![0.0; d_h];
        for t in (0..t_len).rev() {
            let gates = &trace.gates[t];
            let c = &trace.cs[t];
            let c_prev: &[f64] = if t == 0 { &[] } else { &trace.cs[t - 1] };
            let h_prev: &[f64] = if t == 0 { &[] } else { &trace.hs[t - 1] };
            let mut dz = vec![0.0; 4 * d_h];
            let mut dc_prev = vec![0.0; d_h];
            for k in 0..d_h {
                let (i, f, o, g) =
                    (gates[k], gates[d_h + k], gates[2 * d_h + k], gates[3 * d_h + k]);
                let tanh_c = c[k].tanh();
                let dh = dhs[t][k] + dh_next[k];
                let do_ = dh * tanh_c;
                let dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next[k];
                let cp = if t == 0 { 0.0 } else { c_prev[k] };
                let di = dc * g;
                let df = dc * cp;
                let dg = dc * i;
                dc_prev[k] = dc * f;
                dz[k] = di * i * (1.0 - i);
                dz[d_h + k] = df * f * (1.0 - f);
                dz[2 * d_h + k] = do_ * o * (1.0 - o);
                dz[3 * d_h + k] = dg * (1.0 - g * g);
            }
            // parameter gradients and input/hidden backprop
            let x = &trace.xs[t];
            let mut dh_prev = vec![0.0; d_h];
            for (row, &dzr) in dz.iter().enumerate() {
                // skip-zero optimization: exact test, an epsilon would
                // drop small but real gradient contributions
                if dzr == 0.0 {
                    continue;
                }
                let wrow = row * self.d_in;
                for (j, &xv) in x.iter().enumerate() {
                    self.gw[wrow + j] += dzr * xv;
                }
                for (j, &wv) in self.w[wrow..wrow + self.d_in].iter().enumerate() {
                    dxs[t][j] += dzr * wv;
                }
                self.gb[row] += dzr;
                if t > 0 {
                    let urow = row * d_h;
                    for j in 0..d_h {
                        self.gu[urow + j] += dzr * h_prev[j];
                        dh_prev[j] += dzr * self.u[urow + j];
                    }
                }
            }
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        dxs
    }

    /// Zero accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.fill(0.0);
        self.gu.fill(0.0);
        self.gb.fill(0.0);
    }

    /// Squared L2 norm of the gradients (for global clipping).
    pub fn grad_norm_sq(&self) -> f64 {
        self.gw.iter().chain(&self.gu).chain(&self.gb).map(|g| g * g).sum()
    }

    /// SGD step: `w ← w − lr·scale·g`.
    pub fn sgd_step(&mut self, lr: f64, scale: f64) {
        for (w, g) in self.w.iter_mut().zip(&self.gw) {
            *w -= lr * scale * g;
        }
        for (u, g) in self.u.iter_mut().zip(&self.gu) {
            *u -= lr * scale * g;
        }
        for (b, g) in self.b.iter_mut().zip(&self.gb) {
            *b -= lr * scale * g;
        }
    }
}

/// A bidirectional LSTM layer: forward and backward cells, hidden states
/// concatenated per step.
#[derive(Clone, Debug)]
pub struct BiLstm {
    /// Left-to-right cell.
    pub fwd: LstmCell,
    /// Right-to-left cell.
    pub bwd: LstmCell,
}

/// Trace of a bidirectional pass.
#[derive(Clone, Debug)]
pub struct BiTrace {
    /// Forward-cell trace.
    pub fwd: LstmTrace,
    /// Backward-cell trace (over the reversed sequence).
    pub bwd: LstmTrace,
}

impl BiLstm {
    /// Create with independent Xavier initializations.
    pub fn new(d_in: usize, d_h: usize, rng: &mut ChaCha8Rng) -> BiLstm {
        BiLstm { fwd: LstmCell::new(d_in, d_h, rng), bwd: LstmCell::new(d_in, d_h, rng) }
    }

    /// Hidden size of the concatenated output.
    pub fn d_out(&self) -> usize {
        2 * self.fwd.d_h
    }

    /// Run both directions; `output(t) = [h_fwd(t); h_bwd(t)]`.
    pub fn forward(&self, xs: &[Vec<f64>]) -> (BiTrace, Vec<Vec<f64>>) {
        let fwd = self.fwd.forward(xs);
        let rev: Vec<Vec<f64>> = xs.iter().rev().cloned().collect();
        let bwd = self.bwd.forward(&rev);
        let t_len = xs.len();
        let mut out = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let mut h = fwd.hs[t].clone();
            h.extend_from_slice(&bwd.hs[t_len - 1 - t]);
            out.push(h);
        }
        (BiTrace { fwd, bwd }, out)
    }

    /// Backward from per-step output gradients; returns input gradients.
    pub fn backward(&mut self, trace: &BiTrace, douts: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let t_len = douts.len();
        let d_h = self.fwd.d_h;
        let dh_fwd: Vec<Vec<f64>> = douts.iter().map(|d| d[..d_h].to_vec()).collect();
        let dh_bwd: Vec<Vec<f64>> = (0..t_len).rev().map(|t| douts[t][d_h..].to_vec()).collect();
        let dx_fwd = self.fwd.backward(&trace.fwd, &dh_fwd);
        let dx_bwd_rev = self.bwd.backward(&trace.bwd, &dh_bwd);
        let mut dxs = dx_fwd;
        for t in 0..t_len {
            for (a, b) in dxs[t].iter_mut().zip(&dx_bwd_rev[t_len - 1 - t]) {
                *a += b;
            }
        }
        dxs
    }

    /// Zero both cells' gradients.
    pub fn zero_grad(&mut self) {
        self.fwd.zero_grad();
        self.bwd.zero_grad();
    }

    /// Sum of both cells' squared gradient norms.
    pub fn grad_norm_sq(&self) -> f64 {
        self.fwd.grad_norm_sq() + self.bwd.grad_norm_sq()
    }

    /// SGD step on both cells.
    pub fn sgd_step(&mut self, lr: f64, scale: f64) {
        self.fwd.sgd_step(lr, scale);
        self.bwd.sgd_step(lr, scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cell(d_in: usize, d_h: usize, seed: u64) -> LstmCell {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        LstmCell::new(d_in, d_h, &mut rng)
    }

    fn seq(t: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..t).map(|_| (0..d).map(|_| rng.gen::<f64>() - 0.5).collect()).collect()
    }

    /// Scalar loss = sum of all hidden states, whose gradient is 1
    /// everywhere — a convenient target for finite differences.
    fn loss_of(cell: &LstmCell, xs: &[Vec<f64>]) -> f64 {
        cell.forward(xs).hs.iter().flatten().sum()
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let c = cell(3, 4, 1);
        let xs = seq(5, 3, 2);
        let tr = c.forward(&xs);
        assert_eq!(tr.hs.len(), 5);
        assert_eq!(tr.hs[0].len(), 4);
        let tr2 = c.forward(&xs);
        assert_eq!(tr.hs, tr2.hs);
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        let mut c = cell(3, 4, 7);
        let xs = seq(4, 3, 8);
        let tr = c.forward(&xs);
        let dhs = vec![vec![1.0; 4]; 4];
        c.zero_grad();
        c.backward(&tr, &dhs);
        let eps = 1e-6;
        // spot-check weights in each parameter block
        for idx in [0usize, 5, 11] {
            let orig = c.w[idx];
            c.w[idx] = orig + eps;
            let fp = loss_of(&c, &xs);
            c.w[idx] = orig - eps;
            let fm = loss_of(&c, &xs);
            c.w[idx] = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - c.gw[idx]).abs() < 1e-6, "w[{idx}]: {fd} vs {}", c.gw[idx]);
        }
        for idx in [0usize, 7, 15] {
            let orig = c.u[idx];
            c.u[idx] = orig + eps;
            let fp = loss_of(&c, &xs);
            c.u[idx] = orig - eps;
            let fm = loss_of(&c, &xs);
            c.u[idx] = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - c.gu[idx]).abs() < 1e-6, "u[{idx}]: {fd} vs {}", c.gu[idx]);
        }
        for idx in [0usize, 6, 13] {
            let orig = c.b[idx];
            c.b[idx] = orig + eps;
            let fp = loss_of(&c, &xs);
            c.b[idx] = orig - eps;
            let fm = loss_of(&c, &xs);
            c.b[idx] = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - c.gb[idx]).abs() < 1e-6, "b[{idx}]: {fd} vs {}", c.gb[idx]);
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut c = cell(3, 2, 9);
        let xs = seq(3, 3, 10);
        let tr = c.forward(&xs);
        let dhs = vec![vec![1.0; 2]; 3];
        c.zero_grad();
        let dxs = c.backward(&tr, &dhs);
        let eps = 1e-6;
        for t in 0..3 {
            for j in 0..3 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let fp = loss_of(&c, &xp);
                xp[t][j] -= 2.0 * eps;
                let fm = loss_of(&c, &xp);
                let fd = (fp - fm) / (2.0 * eps);
                assert!((fd - dxs[t][j]).abs() < 1e-6, "x[{t}][{j}]: {fd} vs {}", dxs[t][j]);
            }
        }
    }

    #[test]
    fn bilstm_output_concatenates_directions() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let bi = BiLstm::new(3, 5, &mut rng);
        let xs = seq(4, 3, 5);
        let (_, out) = bi.forward(&xs);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].len(), 10);
        assert_eq!(bi.d_out(), 10);
    }

    #[test]
    fn bilstm_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut bi = BiLstm::new(2, 3, &mut rng);
        let xs = seq(3, 2, 12);
        let loss =
            |bi: &BiLstm, xs: &[Vec<f64>]| -> f64 { bi.forward(xs).1.iter().flatten().sum() };
        let (tr, out) = bi.forward(&xs);
        let douts = vec![vec![1.0; 6]; out.len()];
        bi.zero_grad();
        let dxs = bi.backward(&tr, &douts);
        let eps = 1e-6;
        // input gradient check (covers both directions' chains)
        for t in 0..3 {
            for j in 0..2 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let fp = loss(&bi, &xp);
                xp[t][j] -= 2.0 * eps;
                let fm = loss(&bi, &xp);
                let fd = (fp - fm) / (2.0 * eps);
                assert!((fd - dxs[t][j]).abs() < 1e-6);
            }
        }
        // one parameter in the backward cell
        let orig = bi.bwd.w[3];
        bi.bwd.w[3] = orig + eps;
        let fp = loss(&bi, &xs);
        bi.bwd.w[3] = orig - eps;
        let fm = loss(&bi, &xs);
        bi.bwd.w[3] = orig;
        let fd = (fp - fm) / (2.0 * eps);
        assert!((fd - bi.bwd.gw[3]).abs() < 1e-6);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut c = cell(2, 2, 20);
        let xs = seq(2, 2, 21);
        let before = loss_of(&c, &xs);
        for _ in 0..20 {
            let tr = c.forward(&xs);
            let dhs = vec![vec![1.0; 2]; 2];
            c.zero_grad();
            c.backward(&tr, &dhs);
            c.sgd_step(0.1, 1.0);
        }
        let after = loss_of(&c, &xs);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn empty_sequence() {
        let c = cell(3, 2, 1);
        let tr = c.forward(&[]);
        assert!(tr.hs.is_empty());
    }
}
