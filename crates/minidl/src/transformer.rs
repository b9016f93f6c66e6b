//! A miniature causal transformer language model with hand-written
//! backpropagation — the same model family as the paper's 1.5B-parameter
//! fidelity run (§5.4), scaled to sizes where training on thread-ranks and
//! finite-difference gradient checking are practical.
//!
//! The architecture is a standard pre-LN decoder: token + position
//! embeddings, `L × [LayerNorm → multi-head causal self-attention →
//! residual → LayerNorm → ReLU MLP → residual]`, a final LayerNorm and an
//! (untied) vocabulary head trained with mean cross-entropy over next-token
//! targets. Parameters live in one flat `Vec<f32>` so the ZeRO/MiCS flat
//! sharding applies unchanged.

use crate::kernels::{
    acc_matmul_at, add_bias_rows, attention_backward, attention_forward, matmul, matmul_bt,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Configuration of the miniature transformer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TinyTransformer {
    /// Vocabulary size.
    pub vocab: usize,
    /// Context length (tokens per sequence fed to the model).
    pub seq_len: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (`d_model % heads == 0`).
    pub heads: usize,
    /// Feed-forward inner width.
    pub ffn: usize,
    /// Transformer layers.
    pub layers: usize,
}

const LN_EPS: f32 = 1e-5;

impl TinyTransformer {
    /// Validate and build a configuration.
    pub fn new(
        vocab: usize,
        seq_len: usize,
        d_model: usize,
        heads: usize,
        ffn: usize,
        layers: usize,
    ) -> Self {
        assert!(vocab >= 2 && seq_len >= 2 && layers >= 1);
        assert!(heads >= 1 && d_model.is_multiple_of(heads), "heads must divide d_model");
        TinyTransformer { vocab, seq_len, d_model, heads, ffn, layers }
    }

    fn per_layer_params(&self) -> usize {
        let d = self.d_model;
        let f = self.ffn;
        2 * d // ln1 γ, β
            + 4 * d * d // wq, wk, wv, wo
            + 2 * d // ln2 γ, β
            + d * f + f // w1, b1
            + f * d + d // w2, b2
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        let d = self.d_model;
        self.vocab * d // token embedding
            + self.seq_len * d // position embedding
            + self.layers * self.per_layer_params()
            + 2 * d // final LayerNorm
            + d * self.vocab + self.vocab // head
    }

    /// Deterministic scaled-normal initialization.
    pub fn init_params(&self, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed ^ INIT_SEED_SALT);
        let d = self.d_model;
        let mut p = Vec::with_capacity(self.num_params());
        let mat = |rng: &mut StdRng, rows: usize, cols: usize, out: &mut Vec<f32>| {
            let std = (2.0 / (rows + cols) as f32).sqrt();
            for _ in 0..rows * cols {
                out.push(rng.gen_range(-std..std));
            }
        };
        mat(&mut rng, self.vocab, d, &mut p); // tok emb
        mat(&mut rng, self.seq_len, d, &mut p); // pos emb
        for _ in 0..self.layers {
            p.extend(std::iter::repeat_n(1.0, d)); // ln1 γ
            p.extend(std::iter::repeat_n(0.0, d)); // ln1 β
            for _ in 0..4 {
                mat(&mut rng, d, d, &mut p); // wq wk wv wo
            }
            p.extend(std::iter::repeat_n(1.0, d)); // ln2 γ
            p.extend(std::iter::repeat_n(0.0, d)); // ln2 β
            mat(&mut rng, d, self.ffn, &mut p); // w1
            p.extend(std::iter::repeat_n(0.0, self.ffn)); // b1
            mat(&mut rng, self.ffn, d, &mut p); // w2
            p.extend(std::iter::repeat_n(0.0, d)); // b2
        }
        p.extend(std::iter::repeat_n(1.0, d)); // final γ
        p.extend(std::iter::repeat_n(0.0, d)); // final β
        mat(&mut rng, d, self.vocab, &mut p); // head
        p.extend(std::iter::repeat_n(0.0, self.vocab)); // head bias
        debug_assert_eq!(p.len(), self.num_params());
        p
    }

    /// Flat parameter range of the pipeline stage holding `layers`: the
    /// stage with layer 0 also owns the embeddings, and the stage with the
    /// last layer the final LayerNorm and the head.
    pub fn stage_params(&self, layers: Range<usize>) -> Range<usize> {
        assert!(layers.start < layers.end && layers.end <= self.layers, "bad stage {layers:?}");
        let emb = (self.vocab + self.seq_len) * self.d_model;
        let at = |l: usize| emb + l * self.per_layer_params();
        let start = if layers.start == 0 { 0 } else { at(layers.start) };
        let end = if layers.end == self.layers { self.num_params() } else { at(layers.end) };
        start..end
    }

    /// Cross-entropy loss and flat parameter gradient (mean over sequences
    /// and positions) for a micro-batch of sequences.
    ///
    /// `tokens` is row-major `batch × (seq_len + 1)`: positions `0..T` are
    /// inputs, positions `1..T+1` the next-token targets.
    pub fn loss_and_grad(&self, params: &[f32], tokens: &[usize]) -> (f32, Vec<f32>) {
        let (loss, grad, _) = self.stage_loss_and_grad(params, 0..self.layers, tokens, None, None);
        (loss, grad)
    }

    /// The forward pass of the stage holding `layers` over a micro-batch:
    /// its output, `batch × seq_len × d_model`. `params` is the stage's
    /// slice (see [`Self::stage_params`]); `input` is the previous stage's
    /// output, `None` on the first stage, which embeds `tokens` instead.
    pub fn stage_forward(
        &self,
        params: &[f32],
        layers: Range<usize>,
        tokens: &[usize],
        input: Option<&[f32]>,
    ) -> Vec<f32> {
        let r = self.stage_ranges(params, layers, tokens, input);
        let td = self.seq_len * self.d_model;
        let mut out = Vec::with_capacity(tokens.len() / (self.seq_len + 1) * td);
        for (b, seq) in tokens.chunks(self.seq_len + 1).enumerate() {
            let x = input.map(|x| &x[b * td..(b + 1) * td]);
            out.extend(self.forward(params, &r, seq, x).0);
        }
        out
    }

    /// Forward and backward of the stage holding `layers` over a
    /// micro-batch: the loss (`0.0` but on the last stage), the gradient of
    /// the stage's parameters, and the gradient w.r.t. `input` (empty on
    /// the first stage). `dout` is the next stage's input gradient, `None`
    /// on the last stage, which computes the loss against `tokens`' targets.
    /// Over `0..layers` this is [`Self::loss_and_grad`].
    pub fn stage_loss_and_grad(
        &self,
        params: &[f32],
        layers: Range<usize>,
        tokens: &[usize],
        input: Option<&[f32]>,
        dout: Option<&[f32]>,
    ) -> (f32, Vec<f32>, Vec<f32>) {
        let last = layers.end == self.layers;
        let r = self.stage_ranges(params, layers, tokens, input);
        assert_eq!(dout.is_none(), last, "the last stage, and only it, starts from the loss");
        let td = self.seq_len * self.d_model;
        let batch = tokens.len() / (self.seq_len + 1);
        let mut grad = vec![0.0f32; params.len()];
        let mut loss = 0.0f32;
        let mut dinput = Vec::new();
        let scale = 1.0 / (batch * self.seq_len) as f32;
        for (b, seq) in tokens.chunks(self.seq_len + 1).enumerate() {
            let x = input.map(|x| &x[b * td..(b + 1) * td]);
            let dy = dout.map(|dy| &dy[b * td..(b + 1) * td]);
            let (l, dx) = self.sample(params, &r, seq, x, dy, scale, &mut grad);
            loss += l;
            dinput.extend(dx);
        }
        (loss, grad, dinput)
    }

    /// Validate a stage call and cut its parameter slice into ranges.
    fn stage_ranges(
        &self,
        params: &[f32],
        layers: Range<usize>,
        tokens: &[usize],
        input: Option<&[f32]>,
    ) -> StageRanges {
        let (t, d) = (self.seq_len, self.d_model);
        assert_eq!(
            params.len(),
            self.stage_params(layers.clone()).len(),
            "parameter length mismatch"
        );
        assert!(tokens.len().is_multiple_of(t + 1), "tokens not a whole number of sequences");
        let batch = tokens.len() / (t + 1);
        assert!(batch > 0, "empty micro-batch");
        for &tok in tokens {
            assert!(tok < self.vocab, "token id {tok} out of vocabulary");
        }
        assert_eq!(input.is_none(), layers.start == 0, "the first stage, and only it, embeds");
        if let Some(x) = input {
            assert_eq!(x.len(), batch * t * d, "stage input shape");
        }

        let (v, f) = (self.vocab, self.ffn);
        let mut off = 0usize;
        let mut take = |len: usize| {
            let r = off..off + len;
            off += len;
            r
        };
        let emb = (layers.start == 0).then(|| (take(v * d), take(t * d)));
        let r_layers = layers
            .clone()
            .map(|_| {
                [
                    take(d),     // ln1 γ
                    take(d),     // ln1 β
                    take(d * d), // wq
                    take(d * d), // wk
                    take(d * d), // wv
                    take(d * d), // wo
                    take(d),     // ln2 γ
                    take(d),     // ln2 β
                    take(d * f), // w1
                    take(f),     // b1
                    take(f * d), // w2
                    take(d),     // b2
                ]
            })
            .collect();
        // Final LayerNorm γ, β; head weights and bias.
        let head = (layers.end == self.layers).then(|| [take(d), take(d), take(d * v), take(v)]);
        debug_assert_eq!(off, params.len());
        StageRanges { emb, layers: r_layers, head }
    }

    /// One sequence's forward through the stage's layers: the stage output
    /// and every layer's cache.
    fn forward(
        &self,
        p: &[f32],
        r: &StageRanges,
        seq: &[usize],
        input: Option<&[f32]>,
    ) -> (Vec<f32>, Vec<LayerCache>) {
        let (t, d, h, f) = (self.seq_len, self.d_model, self.heads, self.ffn);
        let mut x = match (input, &r.emb) {
            (Some(x), _) => x.to_vec(),
            (None, Some((r_tok, r_pos))) => {
                // Embeddings.
                let mut x = vec![0.0f32; t * d];
                let (p_tok, p_pos) = (&p[r_tok.clone()], &p[r_pos.clone()]);
                for (pos, &tok) in seq[..t].iter().enumerate() {
                    for i in 0..d {
                        x[pos * d + i] = p_tok[tok * d + i] + p_pos[pos * d + i];
                    }
                }
                x
            }
            (None, None) => unreachable!("checked by stage_ranges"),
        };
        let mut caches = Vec::with_capacity(r.layers.len());
        for lr in &r.layers {
            let [g1, b1l, wq, wk, wv, wo, g2, b2l, w1, bb1, w2, bb2] = lr;
            let ln1 = layer_norm(&x, &p[g1.clone()], &p[b1l.clone()], t, d);
            let q = matmul(&ln1.y, &p[wq.clone()], t, d, d);
            let k = matmul(&ln1.y, &p[wk.clone()], t, d, d);
            let vv = matmul(&ln1.y, &p[wv.clone()], t, d, d);
            let (att, ctx) = attention_forward(&q, &k, &vv, t, d, h);
            let attn_out = matmul(&ctx, &p[wo.clone()], t, d, d);
            let mut x_mid = x;
            add_into(&mut x_mid, &attn_out);
            let ln2 = layer_norm(&x_mid, &p[g2.clone()], &p[b2l.clone()], t, d);
            let mut z1 = matmul(&ln2.y, &p[w1.clone()], t, d, f);
            add_bias_rows(&mut z1, &p[bb1.clone()], t, f);
            let a1: Vec<f32> = z1.iter().map(|&z| z.max(0.0)).collect();
            let mut ffn_out = matmul(&a1, &p[w2.clone()], t, f, d);
            add_bias_rows(&mut ffn_out, &p[bb2.clone()], t, d);
            add_into(&mut x_mid, &ffn_out);
            caches.push(LayerCache { ln1, q, k, vv, att, ctx, ln2, z1, a1 });
            x = x_mid;
        }
        (x, caches)
    }

    /// Forward+backward of one sequence through the stage: returns the
    /// (scaled) loss and the stage-input gradient, and accumulates the
    /// parameter gradients into `g`. The last stage starts the backward
    /// from the cross-entropy, any other from `dout`; the first stage ends
    /// it in the embeddings and returns an empty input gradient.
    #[allow(clippy::too_many_arguments)]
    fn sample(
        &self,
        p: &[f32],
        r: &StageRanges,
        seq: &[usize],
        input: Option<&[f32]>,
        dout: Option<&[f32]>,
        scale: f32,
        g: &mut [f32],
    ) -> (f32, Vec<f32>) {
        let (t, d, v, h, f) = (self.seq_len, self.d_model, self.vocab, self.heads, self.ffn);
        let (x, caches) = self.forward(p, r, seq, input);

        let mut loss = 0.0f32;
        let mut dx = match (&r.head, dout) {
            (Some([r_lnf_g, r_lnf_b, r_head, r_head_b]), _) => {
                let targets = &seq[1..t + 1];
                let lnf = layer_norm(&x, &p[r_lnf_g.clone()], &p[r_lnf_b.clone()], t, d);
                let mut logits = matmul(&lnf.y, &p[r_head.clone()], t, d, v);
                add_bias_rows(&mut logits, &p[r_head_b.clone()], t, v);

                // Cross-entropy + dlogits.
                let mut dlogits = vec![0.0f32; t * v];
                for pos in 0..t {
                    let row = &logits[pos * v..(pos + 1) * v];
                    let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let denom: f32 = row.iter().map(|&z| (z - mx).exp()).sum();
                    let target = targets[pos];
                    loss += (denom.ln() + mx - row[target]) * scale;
                    for j in 0..v {
                        let prob = (row[j] - mx).exp() / denom;
                        dlogits[pos * v + j] = (prob - if j == target { 1.0 } else { 0.0 }) * scale;
                    }
                }

                // ---- backward ----
                // Head.
                acc_matmul_at(&lnf.y, &dlogits, t, d, v, &mut g[r_head.clone()]);
                acc_rows(&mut g[r_head_b.clone()], &dlogits);
                let d_lnf_y = matmul_bt(&dlogits, &p[r_head.clone()], t, v, d);
                let (dg, db) = adjacent_mut(g, r_lnf_g.clone(), r_lnf_b.clone());
                layer_norm_backward(&lnf, &d_lnf_y, &p[r_lnf_g.clone()], t, d, dg, db)
            }
            (None, Some(dy)) => dy.to_vec(),
            (None, None) => unreachable!("checked by stage_loss_and_grad"),
        };

        for (lr, c) in r.layers.iter().zip(&caches).rev() {
            let [g1, b1l, wq, wk, wv, wo, g2, b2l, w1, bb1, w2, bb2] = lr;
            // x_out = x_mid + ffn_out: dx flows to both.
            // FFN backward.
            let d_ffn = &dx;
            acc_rows(&mut g[bb2.clone()], d_ffn);
            acc_matmul_at(&c.a1, d_ffn, t, f, d, &mut g[w2.clone()]);
            let mut d_a1 = matmul_bt(d_ffn, &p[w2.clone()], t, d, f);
            for (da, &z) in d_a1.iter_mut().zip(c.z1.iter()) {
                *da = if z <= 0.0 { 0.0 } else { *da };
            }
            acc_rows(&mut g[bb1.clone()], &d_a1);
            acc_matmul_at(&c.ln2.y, &d_a1, t, d, f, &mut g[w1.clone()]);
            let d_ln2_y = matmul_bt(&d_a1, &p[w1.clone()], t, f, d);
            let d_from_ln2 = {
                let (dg, db) = adjacent_mut(g, g2.clone(), b2l.clone());
                layer_norm_backward(&c.ln2, &d_ln2_y, &p[g2.clone()], t, d, dg, db)
            };
            // d(x_mid) = dx (residual) + LN2 input gradient.
            let mut d_xmid = dx;
            add_into(&mut d_xmid, &d_from_ln2);

            // x_mid = x_in + attn_out.
            let d_attn = &d_xmid;
            acc_matmul_at(&c.ctx, d_attn, t, d, d, &mut g[wo.clone()]);
            let d_ctx = matmul_bt(d_attn, &p[wo.clone()], t, d, d);
            let (d_q, d_k, d_v) = attention_backward(&c.q, &c.k, &c.vv, &c.att, &d_ctx, t, d, h);
            acc_matmul_at(&c.ln1.y, &d_q, t, d, d, &mut g[wq.clone()]);
            acc_matmul_at(&c.ln1.y, &d_k, t, d, d, &mut g[wk.clone()]);
            acc_matmul_at(&c.ln1.y, &d_v, t, d, d, &mut g[wv.clone()]);
            let mut d_ln1_y = matmul_bt(&d_q, &p[wq.clone()], t, d, d);
            add_into(&mut d_ln1_y, &matmul_bt(&d_k, &p[wk.clone()], t, d, d));
            add_into(&mut d_ln1_y, &matmul_bt(&d_v, &p[wv.clone()], t, d, d));
            let d_from_ln1 = {
                let (dg, db) = adjacent_mut(g, g1.clone(), b1l.clone());
                layer_norm_backward(&c.ln1, &d_ln1_y, &p[g1.clone()], t, d, dg, db)
            };
            let mut d_xin = d_xmid;
            add_into(&mut d_xin, &d_from_ln1);
            dx = d_xin;
        }

        // Embedding gradients.
        let Some((r_tok, r_pos)) = &r.emb else { return (loss, dx) };
        for (pos, &tok) in seq[..t].iter().enumerate() {
            for i in 0..d {
                g[r_tok.start + tok * d + i] += dx[pos * d + i];
                g[r_pos.start + pos * d + i] += dx[pos * d + i];
            }
        }
        (loss, Vec::new())
    }
}

/// A stage's parameter slice cut into ranges: the token and position
/// embeddings on the first stage, each layer's twelve in layout order, and
/// the final LayerNorm and head on the last.
struct StageRanges {
    emb: Option<(Range<usize>, Range<usize>)>,
    layers: Vec<[Range<usize>; 12]>,
    head: Option<[Range<usize>; 4]>,
}

/// One layer's forward activations, kept for its backward.
struct LayerCache {
    ln1: LnCache,
    q: Vec<f32>,
    k: Vec<f32>,
    vv: Vec<f32>,
    att: Vec<f32>, // h × t × t softmax probabilities
    ctx: Vec<f32>,
    ln2: LnCache,
    z1: Vec<f32>, // pre-activation, t × f
    a1: Vec<f32>, // post-ReLU
}

/// Salt mixed into user seeds for parameter initialization.
const INIT_SEED_SALT: u64 = 0x1b5a_92c4_77fe_3d01;

/// Split two *adjacent* parameter ranges of `g` into simultaneous mutable
/// slices (γ immediately followed by β in the flat layout).
fn adjacent_mut(g: &mut [f32], a: Range<usize>, b: Range<usize>) -> (&mut [f32], &mut [f32]) {
    debug_assert_eq!(a.end, b.start, "ranges must be adjacent");
    let len = a.len();
    g[a.start..b.end].split_at_mut(len)
}

/// `acc[j] += rows[pos·n + j]` for every row `pos`, rows in order: the
/// bias gradient of a `t × n` output gradient.
fn acc_rows(acc: &mut [f32], rows: &[f32]) {
    for row in rows.chunks_exact(acc.len()) {
        add_into(acc, row);
    }
}

fn add_into(acc: &mut [f32], x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    for (a, b) in acc.iter_mut().zip(x.iter()) {
        *a += b;
    }
}

/// LayerNorm forward cache.
struct LnCache {
    /// Normalized inputs x̂ (pre-scale).
    xhat: Vec<f32>,
    /// 1/√(σ²+ε) per position.
    inv_std: Vec<f32>,
    /// Output y = γ·x̂ + β.
    y: Vec<f32>,
}

fn layer_norm(x: &[f32], gamma: &[f32], beta: &[f32], t: usize, d: usize) -> LnCache {
    let mut xhat = vec![0.0f32; t * d];
    let mut inv_std = vec![0.0f32; t];
    let mut y = vec![0.0f32; t * d];
    for pos in 0..t {
        let row = &x[pos * d..(pos + 1) * d];
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        inv_std[pos] = inv;
        for i in 0..d {
            let xh = (row[i] - mean) * inv;
            xhat[pos * d + i] = xh;
            y[pos * d + i] = gamma[i] * xh + beta[i];
        }
    }
    LnCache { xhat, inv_std, y }
}

/// LayerNorm backward: returns dx and accumulates dγ/dβ.
fn layer_norm_backward(
    cache: &LnCache,
    dy: &[f32],
    gamma: &[f32],
    t: usize,
    d: usize,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) -> Vec<f32> {
    let mut dx = vec![0.0f32; t * d];
    for pos in 0..t {
        let xh = &cache.xhat[pos * d..(pos + 1) * d];
        let dyr = &dy[pos * d..(pos + 1) * d];
        let mut sum_g = 0.0f32; // Σ γ·dy
        let mut sum_gx = 0.0f32; // Σ γ·dy·x̂
        for i in 0..d {
            dgamma[i] += dyr[i] * xh[i];
            dbeta[i] += dyr[i];
            sum_g += gamma[i] * dyr[i];
            sum_gx += gamma[i] * dyr[i] * xh[i];
        }
        let inv = cache.inv_std[pos];
        let nd = d as f32;
        for i in 0..d {
            dx[pos * d + i] = (gamma[i] * dyr[i] - sum_g / nd - xh[i] * sum_gx / nd) * inv;
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TinyTransformer {
        TinyTransformer::new(7, 5, 8, 2, 12, 2)
    }

    fn sample_tokens(model: &TinyTransformer, seed: usize, batch: usize) -> Vec<usize> {
        (0..batch * (model.seq_len + 1)).map(|i| (i * 31 + seed * 17 + 3) % model.vocab).collect()
    }

    #[test]
    fn param_count_consistent_with_init() {
        let m = tiny();
        assert_eq!(m.init_params(1).len(), m.num_params());
        // Hand count: 7·8 + 5·8 + 2·(16 + 256 + 16 + 8·12+12 + 12·8+8) + 16 + 8·7+7
        let per_layer = 2 * 8 + 4 * 64 + 2 * 8 + 8 * 12 + 12 + 12 * 8 + 8;
        assert_eq!(m.num_params(), 56 + 40 + 2 * per_layer + 16 + 63);
    }

    #[test]
    fn loss_is_log_vocab_at_init_scale() {
        // With near-zero logits, CE ≈ ln(vocab).
        let m = tiny();
        let p = m.init_params(3);
        let toks = sample_tokens(&m, 0, 4);
        let (loss, _) = m.loss_and_grad(&p, &toks);
        let lnv = (m.vocab as f32).ln();
        assert!((loss - lnv).abs() < 0.8, "loss {loss} vs ln(V) {lnv}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = TinyTransformer::new(5, 4, 6, 2, 8, 1);
        let mut p = m.init_params(11);
        let toks = sample_tokens(&m, 2, 2);
        let (_, grad) = m.loss_and_grad(&p, &toks);
        let eps = 3e-3f32;
        let mut checked = 0;
        // Sample parameters across all regions.
        for idx in (0..m.num_params()).step_by(7) {
            let orig = p[idx];
            p[idx] = orig + eps;
            let (lp, _) = m.loss_and_grad(&p, &toks);
            p[idx] = orig - eps;
            let (lm, _) = m.loss_and_grad(&p, &toks);
            p[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad[idx];
            assert!(
                (numeric - analytic).abs() < 1.5e-2f32.max(0.15 * numeric.abs()),
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
            checked += 1;
        }
        assert!(checked > 50, "checked {checked} parameters");
    }

    #[test]
    fn batch_gradient_is_mean_of_sequences() {
        let m = tiny();
        let p = m.init_params(5);
        let t1 = sample_tokens(&m, 1, 1);
        let t2 = sample_tokens(&m, 9, 1);
        let (_, g1) = m.loss_and_grad(&p, &t1);
        let (_, g2) = m.loss_and_grad(&p, &t2);
        let both: Vec<usize> = [t1, t2].concat();
        let (_, gb) = m.loss_and_grad(&p, &both);
        for i in (0..m.num_params()).step_by(13) {
            let mean = (g1[i] + g2[i]) / 2.0;
            assert!((gb[i] - mean).abs() < 1e-5, "index {i}: {mean} vs {}", gb[i]);
        }
    }

    #[test]
    fn causality_later_tokens_do_not_affect_earlier_logits_gradient() {
        // Changing the last input token must not change the gradient
        // contribution of the first position's prediction — verified
        // indirectly: loss at position 0 is unchanged.
        let m = tiny();
        let p = m.init_params(8);
        let mut toks = sample_tokens(&m, 3, 1);
        let (l_full, _) = m.loss_and_grad(&p, &toks);
        // Perturb the final *input* token (position T-1). Positions 0..T-2
        // of the loss are unaffected by causality; only the last
        // prediction's CE changes.
        let t = m.seq_len;
        toks[t - 1] = (toks[t - 1] + 1) % m.vocab;
        let (l_perturbed, _) = m.loss_and_grad(&p, &toks);
        assert_ne!(l_full, l_perturbed, "the last position's loss must change");
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let m = tiny();
        let mut p = m.init_params(21);
        let toks = sample_tokens(&m, 4, 4);
        let (l0, g) = m.loss_and_grad(&p, &toks);
        for (pi, gi) in p.iter_mut().zip(g.iter()) {
            *pi -= 0.25 * gi;
        }
        let (l1, _) = m.loss_and_grad(&p, &toks);
        assert!(l1 < l0, "{l1} !< {l0}");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_bad_tokens() {
        let m = tiny();
        let p = m.init_params(1);
        let mut toks = sample_tokens(&m, 0, 1);
        toks[0] = m.vocab;
        let _ = m.loss_and_grad(&p, &toks);
    }

    #[test]
    fn deterministic() {
        let m = tiny();
        let p = m.init_params(2);
        let toks = sample_tokens(&m, 6, 3);
        assert_eq!(m.loss_and_grad(&p, &toks), m.loss_and_grad(&p, &toks));
    }
}
