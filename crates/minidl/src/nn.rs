//! A small multi-layer perceptron with hand-written backpropagation.
//!
//! Parameters live in one flat `Vec<f32>` (layer by layer: weight matrix in
//! row-major `out × in` order, then bias), which makes ZeRO/MiCS-style flat
//! sharding trivial and keeps every schedule numerically comparable.
//!
//! One sample runs through the stage functions: [`Mlp::stage_forward`] and
//! [`Mlp::stage_backward`] over a layer slice, the whole network being the
//! slice `0..num_layers`. The forward is `matvec_bias` per layer; the
//! backward runs on the transformer's GEMMs at one row, `matmul` for
//! `Wᵀ·δ` and `acc_matmul_at` for `δ ⊗ h`.

use crate::kernels::{acc_matmul_at, matmul, matvec_bias};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully-connected network with `tanh` hidden activations and a linear
/// output layer, trained with mean-squared error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mlp {
    /// Layer widths, including input and output: `[in, h1, …, out]`.
    pub dims: Vec<usize>,
}

impl Mlp {
    /// Build an MLP with the given layer widths.
    ///
    /// # Panics
    /// Panics unless at least an input and an output width are given and all
    /// widths are positive.
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        Mlp { dims: dims.to_vec() }
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output feature count.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().unwrap()
    }

    /// Number of layers (weight matrices).
    pub fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.dims.windows(2).map(|w| w[1] * w[0] + w[1]).sum()
    }

    /// Flat offset of layer `l`'s weights (biases follow immediately).
    fn layer_offset(&self, l: usize) -> usize {
        self.dims[..l + 1].windows(2).map(|w| w[1] * w[0] + w[1]).sum()
    }

    /// Flat parameter range of the contiguous layer slice `lo..hi` — the
    /// piece of the network a pipeline stage owns.
    pub fn stage_param_range(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        assert!(lo < hi && hi <= self.num_layers(), "bad stage slice {lo}..{hi}");
        self.layer_offset(lo)..self.layer_offset(hi)
    }

    /// Parameter count of the layer slice `lo..hi`.
    pub fn stage_num_params(&self, lo: usize, hi: usize) -> usize {
        self.stage_param_range(lo, hi).len()
    }

    /// Width of the activation entering layer `l` (the tensor a pipeline
    /// boundary at `l` carries).
    pub fn boundary_dim(&self, l: usize) -> usize {
        self.dims[l]
    }

    /// Forward pass of the layer slice `lo..hi` for one sample, given only
    /// the slice's own parameters (layout of [`Mlp::stage_param_range`]).
    /// Activation boundaries follow the *global* layer indices: `tanh`
    /// everywhere except after the network's final layer, so stacking the
    /// slices reproduces the whole network's forward bit-for-bit.
    pub fn stage_forward(
        &self,
        stage_params: &[f32],
        lo: usize,
        hi: usize,
        x: &[f32],
    ) -> Vec<Vec<f32>> {
        assert_eq!(stage_params.len(), self.stage_num_params(lo, hi), "stage params mismatch");
        assert_eq!(x.len(), self.dims[lo], "stage input length mismatch");
        let base = self.layer_offset(lo);
        let mut acts = Vec::with_capacity(hi - lo + 1);
        acts.push(x.to_vec());
        for l in lo..hi {
            let (fan_in, fan_out) = (self.dims[l], self.dims[l + 1]);
            let off = self.layer_offset(l) - base;
            let (w, b) = stage_params[off..].split_at(fan_out * fan_in);
            let b = &b[..fan_out];
            let h = &acts[l - lo];
            let mut z = matvec_bias(w, b, h, fan_out, fan_in);
            if l + 1 < self.num_layers() {
                for zo in z.iter_mut() {
                    *zo = zo.tanh();
                }
            }
            acts.push(z);
        }
        acts
    }

    /// Backward pass of the layer slice `lo..hi` for one sample: given the
    /// slice's forward activations and the loss gradient w.r.t. the slice
    /// *output*, accumulate the slice's parameter gradients into `grad`
    /// (slice layout) and return the gradient w.r.t. the slice *input* —
    /// the tensor the pipeline sends to the previous stage (empty when
    /// `lo == 0`; there is no upstream). Stacking the slices backward
    /// reproduces the whole network's gradient bit-for-bit.
    pub fn stage_backward(
        &self,
        stage_params: &[f32],
        lo: usize,
        hi: usize,
        acts: &[Vec<f32>],
        dout: &[f32],
        grad: &mut [f32],
    ) -> Vec<f32> {
        assert_eq!(grad.len(), self.stage_num_params(lo, hi), "stage gradient mismatch");
        assert_eq!(dout.len(), self.dims[hi], "stage output gradient mismatch");
        let base = self.layer_offset(lo);
        let mut delta = dout.to_vec();
        for l in (lo..hi).rev() {
            let (fan_in, fan_out) = (self.dims[l], self.dims[l + 1]);
            let off = self.layer_offset(l) - base;
            let w = &stage_params[off..off + fan_out * fan_in];
            let h = &acts[l - lo];
            // tanh' applied to this layer's output (hidden layers only).
            if l + 1 < self.num_layers() {
                let out = &acts[l + 1 - lo];
                for (d, o) in delta.iter_mut().zip(out.iter()) {
                    *d *= 1.0 - o * o;
                }
            }
            // dW = delta ⊗ h, db = delta.
            let (gw, gb) =
                grad[off..off + fan_out * fan_in + fan_out].split_at_mut(fan_out * fan_in);
            acc_matmul_at(&delta, h, 1, fan_out, fan_in, gw);
            for (gbo, &d) in gb.iter_mut().zip(delta.iter()) {
                *gbo += d;
            }
            // Propagate: delta_prev = Wᵀ delta.
            delta = if l > 0 { matmul(&delta, w, 1, fan_out, fan_in) } else { Vec::new() };
        }
        delta
    }

    /// Deterministic Xavier-style initialization.
    pub fn init_params(&self, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Vec::with_capacity(self.num_params());
        for w in self.dims.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
            for _ in 0..fan_out * fan_in {
                params.push(rng.gen_range(-bound..bound));
            }
            params.extend(std::iter::repeat_n(0.0, fan_out));
        }
        params
    }

    /// Network output for one sample.
    pub fn predict(&self, params: &[f32], x: &[f32]) -> Vec<f32> {
        self.stage_forward(params, 0, self.num_layers(), x).pop().unwrap()
    }

    /// Mean-squared-error loss and parameter gradient over a micro-batch
    /// (gradient is the *mean* over samples). `xs`/`ys` are row-major
    /// `batch × dim` buffers.
    pub fn loss_and_grad(&self, params: &[f32], xs: &[f32], ys: &[f32]) -> (f32, Vec<f32>) {
        let in_dim = self.input_dim();
        let out_dim = self.output_dim();
        assert!(xs.len().is_multiple_of(in_dim), "xs not a whole number of samples");
        let batch = xs.len() / in_dim;
        assert_eq!(ys.len(), batch * out_dim, "ys shape mismatch");
        assert!(batch > 0, "empty micro-batch");

        let nl = self.num_layers();
        let mut grad = vec![0.0f32; self.num_params()];
        let mut loss = 0.0f32;
        let scale = 1.0 / (batch as f32 * out_dim as f32);
        for (x, y) in xs.chunks(in_dim).zip(ys.chunks(out_dim)) {
            let acts = self.stage_forward(params, 0, nl, x);
            let mut dout = Vec::with_capacity(out_dim);
            mse_head(acts.last().unwrap(), y, scale, &mut loss, &mut dout);
            self.stage_backward(params, 0, nl, &acts, &dout, &mut grad);
        }
        (loss, grad)
    }
}

/// The mean-squared-error head of one sample: adds its share of the loss
/// to `loss` and appends `∂loss/∂out` to `dout`. `scale` is one over the
/// micro-batch's element count. [`Mlp::loss_and_grad`] and the pipelined
/// last stage both run it, so their float-op order is one.
pub(crate) fn mse_head(out: &[f32], y: &[f32], scale: f32, loss: &mut f32, dout: &mut Vec<f32>) {
    for (&ov, &yv) in out.iter().zip(y) {
        let err = ov - yv;
        *loss += 0.5 * err * err * scale;
        dout.push(err * scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_and_offsets() {
        let m = Mlp::new(&[3, 5, 2]);
        // (5*3 + 5) + (2*5 + 2) = 20 + 12 = 32
        assert_eq!(m.num_params(), 32);
        assert_eq!(m.layer_offset(0), 0);
        assert_eq!(m.layer_offset(1), 20);
    }

    #[test]
    fn init_is_deterministic_and_seed_sensitive() {
        let m = Mlp::new(&[4, 8, 1]);
        assert_eq!(m.init_params(7), m.init_params(7));
        assert_ne!(m.init_params(7), m.init_params(8));
    }

    #[test]
    fn forward_linear_network_is_matvec() {
        // Single linear layer: out = Wx + b.
        let m = Mlp::new(&[2, 2]);
        let params = vec![1.0, 2.0, 3.0, 4.0, 0.5, -0.5]; // W=[[1,2],[3,4]], b=[0.5,-0.5]
        let out = m.predict(&params, &[1.0, 1.0]);
        assert_eq!(out, vec![3.5, 6.5]);
    }

    #[test]
    fn zero_error_means_zero_gradient() {
        let m = Mlp::new(&[2, 3, 1]);
        let params = m.init_params(3);
        let x = vec![0.3, -0.7];
        let y = m.predict(&params, &x);
        let (loss, grad) = m.loss_and_grad(&params, &x, &y);
        assert_eq!(loss, 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = Mlp::new(&[3, 4, 2]);
        let mut params = m.init_params(11);
        let xs: Vec<f32> = vec![0.2, -0.4, 0.9, -0.1, 0.6, 0.3];
        let ys: Vec<f32> = vec![0.5, -0.2, 0.1, 0.7];
        let (_, grad) = m.loss_and_grad(&params, &xs, &ys);
        let eps = 1e-3f32;
        for idx in (0..m.num_params()).step_by(3) {
            let orig = params[idx];
            params[idx] = orig + eps;
            let (lp, _) = m.loss_and_grad(&params, &xs, &ys);
            params[idx] = orig - eps;
            let (lm, _) = m.loss_and_grad(&params, &xs, &ys);
            params[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad[idx]).abs() < 2e-3,
                "param {idx}: numeric {numeric} vs analytic {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn batch_gradient_is_mean_of_sample_gradients() {
        let m = Mlp::new(&[2, 3, 1]);
        let params = m.init_params(5);
        let x1 = vec![0.1, 0.2];
        let x2 = vec![-0.5, 0.8];
        let y1 = vec![1.0];
        let y2 = vec![-1.0];
        let (_, g1) = m.loss_and_grad(&params, &x1, &y1);
        let (_, g2) = m.loss_and_grad(&params, &x2, &y2);
        let xs: Vec<f32> = [x1, x2].concat();
        let ys: Vec<f32> = [y1, y2].concat();
        let (_, gb) = m.loss_and_grad(&params, &xs, &ys);
        for i in 0..m.num_params() {
            let mean = (g1[i] + g2[i]) / 2.0;
            assert!((gb[i] - mean).abs() < 1e-6, "index {i}");
        }
    }

    #[test]
    fn stage_slices_compose_to_the_full_network_bit_exactly() {
        let m = Mlp::new(&[3, 5, 4, 2]);
        let params = m.init_params(13);
        let x = vec![0.4, -0.2, 0.9];
        let full = m.stage_forward(&params, 0, 3, &x);
        // Split 0..2 | 2..3 and stack the slice forwards.
        let p0 = &params[m.stage_param_range(0, 2)];
        let p1 = &params[m.stage_param_range(2, 3)];
        let a0 = m.stage_forward(p0, 0, 2, &x);
        let a1 = m.stage_forward(p1, 2, 3, a0.last().unwrap());
        assert_eq!(a0.last().unwrap(), &full[2]);
        assert_eq!(a1.last().unwrap(), full.last().unwrap());
        // Backward: full gradient vs slice gradients + boundary delta.
        let y = vec![0.1, -0.3];
        let out = full.last().unwrap();
        let dout: Vec<f32> = out.iter().zip(&y).map(|(o, t)| o - t).collect();
        let mut grad = vec![0.0f32; m.num_params()];
        let none = m.stage_backward(&params, 0, 3, &full, &dout, &mut grad);
        assert!(none.is_empty(), "the whole network has no upstream");
        let mut g1 = vec![0.0f32; p1.len()];
        let dmid = m.stage_backward(p1, 2, 3, &a1, &dout, &mut g1);
        let mut g0 = vec![0.0f32; p0.len()];
        let dback = m.stage_backward(p0, 0, 2, &a0, &dmid, &mut g0);
        assert!(dback.is_empty(), "stage 0 has no upstream");
        assert_eq!([g0, g1].concat(), grad);
    }

    #[test]
    #[should_panic(expected = "stage params mismatch")]
    fn wrong_param_length_panics() {
        let m = Mlp::new(&[2, 2]);
        m.predict(&[0.0; 3], &[0.0, 0.0]);
    }

    #[test]
    fn deep_network_trains_a_step() {
        // One SGD step on a 3-layer net reduces loss on the same batch.
        let m = Mlp::new(&[4, 16, 16, 2]);
        let mut params = m.init_params(42);
        let xs: Vec<f32> = (0..40).map(|i| ((i as f32) * 0.37).sin()).collect();
        let ys: Vec<f32> = (0..20).map(|i| ((i as f32) * 0.11).cos()).collect();
        let (l0, g) = m.loss_and_grad(&params, &xs, &ys);
        for (p, gi) in params.iter_mut().zip(g.iter()) {
            *p -= 0.5 * gi;
        }
        let (l1, _) = m.loss_and_grad(&params, &xs, &ys);
        assert!(l1 < l0, "{l1} !< {l0}");
    }
}
