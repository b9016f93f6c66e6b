//! Data-parallel *language-model* training — the transformer counterpart of
//! [`crate::train::train`], matching the paper's §5.4 fidelity setup structurally
//! (a causal transformer trained with cross-entropy under MiCS vs DeepSpeed
//! schedules).
//!
//! The synthetic corpus is an affine token chain: given a seeded start
//! token, `tokenᵢ₊₁ = (3·tokenᵢ + 5) mod V`. The mapping is a function of
//! the previous token alone, so even a small causal transformer can drive
//! the cross-entropy toward zero — and any synchronization bug between the
//! schedules shows up as diverging loss curves.

use crate::train::{Start, SyncSchedule, TrainOutcome, TrainRun, TrainSetup};
use crate::transformer::TinyTransformer;
use mics_dataplane::TransportKind;

/// Configuration of a language-model fidelity run: a [`TrainSetup`] whose
/// model is the transformer and whose micro-batch counts sequences.
pub type LmSetup = TrainSetup<TinyTransformer>;

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
/// wire.
pub fn train_lm_on(
    transport: TransportKind,
    setup: &LmSetup,
    schedule: SyncSchedule,
) -> TrainOutcome {
    let model = &setup.model;
    let seed = setup.seed ^ 0x00c0_ffee_1234_5678;
    let start = Start::Fresh(model.init_params(setup.seed));
    TrainRun { transport, hyper: setup.hyper(), schedule, start, checkpoint: None }.run(
        &|params: &[f32], iter: usize, micro: usize, rank: usize| {
            let toks = token_batch(model, seed, iter, micro, rank, setup.micro_batch);
            model.loss_and_grad(params, &toks)
        },
    )
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
    fn transformer_lm_learns_the_chain_under_two_hop() {
        let out = train_lm(&setup(), SyncSchedule::TwoHop);
        let first = out.losses[0];
        let last = *out.losses.last().unwrap();
        assert!(
            last < first * 0.5,
            "cross-entropy {first} → {last} did not halve over 30 iterations"
        );
    }

    #[test]
    fn lm_schedules_produce_matching_loss_curves() {
        // The transformer version of Figure 15: MiCS 2-hop vs DDP vs the
        // ZeRO-3 schedule on the same token stream.
        let cfg = setup();
        let ddp = train_lm(&cfg, SyncSchedule::Ddp);
        let mics = train_lm(&cfg, SyncSchedule::TwoHop);
        let zero3 = train_lm(&cfg, SyncSchedule::PerMicroStepAllReduce);
        for i in 0..cfg.iterations {
            let a = ddp.losses[i];
            for (name, b) in [("mics", mics.losses[i]), ("zero3", zero3.losses[i])] {
                assert!(
                    (a - b).abs() / a.abs().max(1e-9) < 5e-3,
                    "iteration {i}: ddp {a} vs {name} {b}"
                );
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

    #[test]
    fn lm_socket_transport_is_bit_identical_to_local() {
        // The whole training step — sharded gathers, reductions, boundary
        // collectives, optimizer — over real sockets must reproduce the
        // shared-memory run bit for bit.
        let mut cfg = setup();
        cfg.iterations = 8;
        let local = train_lm_on(TransportKind::Local, &cfg, SyncSchedule::TwoHop);
        let socket = train_lm_on(TransportKind::Socket, &cfg, SyncSchedule::TwoHop);
        assert_eq!(local.losses, socket.losses);
        assert_eq!(local.final_params, socket.final_params);
    }

    #[test]
    fn lm_two_hop_bitwise_equals_zero3_schedule_at_full_partition() {
        let mut cfg = setup();
        cfg.partition_size = cfg.world;
        cfg.iterations = 10;
        let a = train_lm(&cfg, SyncSchedule::TwoHop);
        let b = train_lm(&cfg, SyncSchedule::PerMicroStepAllReduce);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.final_params, b.final_params);
    }
}
