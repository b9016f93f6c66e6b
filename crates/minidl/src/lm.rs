//! The transformer language model as a [`StepCompute`], and its synthetic
//! corpus — matching the paper's §5.4 fidelity setup structurally (a causal
//! transformer trained with cross-entropy under MiCS vs DeepSpeed
//! schedules). `LmStages` is the compute behind every run:
//! [`crate::train::train_pipeline`], [`crate::train::train_elastic_on`] and
//! [`train_lm_on`], which is the pipeline at one stage.
//!
//! The synthetic corpus is an affine token chain: given a seeded start
//! token, `tokenᵢ₊₁ = (3·tokenᵢ + 5) mod V`. The mapping is a function of
//! the previous token alone, so even a small causal transformer can drive
//! the cross-entropy toward zero — and any synchronization bug between the
//! schedules shows up as diverging loss curves.

use crate::executor::{MicroStep, StageGrad, StepCompute};
use crate::train::{train_pipeline, SyncSchedule, TrainOutcome, TrainSetup};
use crate::transformer::{TinyTransformer, Workspace};
use mics_dataplane::TransportKind;
use std::collections::HashMap;
use std::ops::Range;

/// Configuration of a language-model fidelity run; its micro-batch counts
/// sequences.
pub type LmSetup = TrainSetup;

/// Deterministic micro-batch of token sequences for
/// (`iteration`, `micro_step`, `rank`): row-major
/// `micro_batch × (seq_len + 1)`.
pub fn token_batch(
    model: &TinyTransformer,
    seed: u64,
    iteration: usize,
    micro: usize,
    rank: usize,
    micro_batch: usize,
) -> Vec<usize> {
    let v = model.vocab;
    let mut out = Vec::with_capacity(micro_batch * (model.seq_len + 1));
    for sample in 0..micro_batch {
        // splitmix-style coordinate hash for the start token.
        let mut key = seed;
        for coord in [iteration as u64, micro as u64, rank as u64, sample as u64] {
            key = key
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(coord.wrapping_mul(0xd1b5_4a32_d192_ed03));
            key ^= key >> 29;
        }
        let mut tok = (key % v as u64) as usize;
        for _ in 0..model.seq_len + 1 {
            out.push(tok);
            tok = (tok * 3 + 5) % v;
        }
    }
    out
}

/// Train the transformer under `schedule` on real thread-ranks; returns the
/// rank-identical outcome (per-iteration mean cross-entropy and final
/// parameters).
pub fn train_lm(setup: &LmSetup, schedule: SyncSchedule) -> TrainOutcome {
    train_lm_on(TransportKind::Local, setup, schedule)
}

/// [`train_lm`] on an explicit data-plane transport: `Local` is the thread
/// harness, `Socket` routes every collective of the training step through a
/// framed rendezvous hub. Loss curves and final parameters are bit-identical
/// between the two — the §5.4 fidelity claim extended down the stack to the
/// wire. This is [`train_pipeline`] at one stage.
pub fn train_lm_on(
    transport: TransportKind,
    setup: &LmSetup,
    schedule: SyncSchedule,
) -> TrainOutcome {
    train_pipeline(transport, setup, 1, schedule)
}

/// The transformer's layers split contiguously over `pp` pipeline stages,
/// each rank reading its micro-batches from [`token_batch`]. Every stage
/// runs [`TinyTransformer::stage_loss_and_grad`] one sequence at a time,
/// so every `pp` computes the bits of [`TinyTransformer::loss_and_grad`].
///
/// The last stage runs its forward and its backward together in the
/// executor's forward op: the backward op retires in-flight reductions
/// before it computes, so compute placed there would not overlap them.
/// Every other stage keeps only its input from forward to backward and
/// recomputes its forward there.
pub(crate) struct LmStages<'a> {
    model: &'a TinyTransformer,
    /// The corpus seed (derived from the run's seed).
    seed: u64,
    micro_batch: usize,
    pp: usize,
}

/// A rank's in-flight stashes, and the workspace its stage calls run in.
#[derive(Default)]
pub(crate) struct RankState {
    stash: HashMap<usize, Stash>,
    ws: Workspace,
}

/// A micro-step's state between a stage's forward and its backward.
pub(crate) enum Stash {
    /// The last stage's whole result, computed in its forward.
    Done(StageGrad),
    /// Any other stage's input (`None` on stage 0), to recompute from.
    Input(Option<Vec<f32>>),
}

impl<'a> LmStages<'a> {
    pub(crate) fn new(setup: &'a LmSetup, pp: usize) -> Self {
        let layers = setup.model.layers;
        assert!(pp >= 1, "need at least one pipeline stage");
        assert!(layers.is_multiple_of(pp), "pp={pp} must evenly split the model's {layers} layers");
        let seed = setup.seed ^ 0x00c0_ffee_1234_5678;
        LmStages { model: &setup.model, seed, micro_batch: setup.micro_batch, pp }
    }

    fn layers(&self, stage: usize) -> Range<usize> {
        let per = self.model.layers / self.pp;
        stage * per..(stage + 1) * per
    }

    fn tokens(&self, at: MicroStep) -> Vec<usize> {
        token_batch(self.model, self.seed, at.iteration, at.micro, at.rank, self.micro_batch)
    }

    fn stage_grad(
        &self,
        ws: &mut Workspace,
        params: &[f32],
        at: MicroStep,
        input: Option<&[f32]>,
        dout: Option<&[f32]>,
    ) -> StageGrad {
        let layers = self.layers(at.stage);
        let first = layers.start == 0;
        let (loss, grad, dinput) =
            self.model.stage_loss_and_grad(ws, params, layers, &self.tokens(at), input, dout);
        StageGrad { loss, grad, dinput: (!first).then_some(dinput) }
    }
}

impl StepCompute for LmStages<'_> {
    type Saved = RankState;

    fn stages(&self, _numel: usize) -> Vec<Range<usize>> {
        (0..self.pp).map(|s| self.model.stage_params(self.layers(s))).collect()
    }

    fn act_bytes(&self) -> u64 {
        let m = self.model;
        (self.micro_batch * m.seq_len * m.d_model * 4) as u64
    }

    fn forward(
        &self,
        saved: &mut Self::Saved,
        params: &[f32],
        at: MicroStep,
        input: Option<Vec<f32>>,
    ) -> Option<Vec<f32>> {
        let RankState { stash, ws } = saved;
        let layers = self.layers(at.stage);
        if layers.end == self.model.layers {
            let done = self.stage_grad(ws, params, at, input.as_deref(), None);
            stash.insert(at.micro, Stash::Done(done));
            return None;
        }
        let out = self.model.stage_forward(ws, params, layers, &self.tokens(at), input.as_deref());
        stash.insert(at.micro, Stash::Input(input));
        Some(out)
    }

    fn backward(
        &self,
        saved: &mut Self::Saved,
        params: &[f32],
        at: MicroStep,
        dout: Option<Vec<f32>>,
    ) -> StageGrad {
        let RankState { stash, ws } = saved;
        match stash.remove(&at.micro).expect("backward before forward") {
            Stash::Done(done) => done,
            Stash::Input(x) => self.stage_grad(ws, params, at, x.as_deref(), dout.as_deref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaler::LossScale;

    fn setup() -> LmSetup {
        LmSetup {
            model: TinyTransformer::new(7, 5, 8, 2, 12, 1),
            world: 4,
            partition_size: 2,
            micro_batch: 4,
            accum_steps: 2,
            iterations: 30,
            lr: 0.02,
            seed: 424242,
            quantize: false,
            loss_scale: LossScale::None,
            clip_grad_norm: None,
            comm_quant: None,
            prefetch_depth: 0,
        }
    }

    #[test]
    fn token_batches_are_deterministic_and_follow_the_chain() {
        let m = TinyTransformer::new(7, 5, 8, 2, 12, 1);
        let a = token_batch(&m, 1, 0, 0, 0, 3);
        assert_eq!(a, token_batch(&m, 1, 0, 0, 0, 3));
        assert_ne!(a, token_batch(&m, 1, 0, 0, 1, 3), "rank must matter");
        // Every consecutive pair follows tokᵢ₊₁ = (3·tokᵢ + 5) mod V.
        for seq in a.chunks(6) {
            for w in seq.windows(2) {
                assert_eq!(w[1], (w[0] * 3 + 5) % 7);
            }
        }
    }

    #[test]
    fn lm_mixed_precision_with_dynamic_scaling_converges() {
        let mut cfg = setup();
        cfg.quantize = true;
        cfg.loss_scale = LossScale::Dynamic { init: 4096.0, growth_interval: 8 };
        cfg.clip_grad_norm = Some(1.0);
        let out = train_lm(&cfg, SyncSchedule::TwoHop);
        assert_eq!(out.skipped_steps, 0);
        assert!(out.final_loss_scale > 4096.0, "scale should have grown");
        assert!(*out.losses.last().unwrap() < out.losses[0] * 0.7);
    }
}
