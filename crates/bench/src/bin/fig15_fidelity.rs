//! Figure 15: fidelity of the implementation (§5.4).
//!
//! The paper trains a 1.5B BERT under MiCS and DeepSpeed and shows the loss
//! curves coincide. Here the *real* training stack runs: a miniature causal
//! transformer (hand-written backprop) on a synthetic token chain, 8
//! thread-rank workers with fp32 master weights, Adam, gradient
//! accumulation and real collectives over the shared-memory data plane,
//! under all three synchronization schedules. The model is scaled down (the
//! schedules' algebra — what the experiment validates — is
//! size-independent).

use mics_bench::{write_json, Json, Table};
use mics_minidl::{train_lm, LmSetup, SyncSchedule, TinyTransformer};

fn main() {
    let setup = LmSetup {
        model: TinyTransformer::new(9, 6, 8, 2, 16, 2),
        world: 8,
        partition_size: 2,
        micro_batch: 8,
        accum_steps: 4, // the paper's fidelity run: global 512 = 8 ranks × mb 8 × s 4 × …
        iterations: 30,
        lr: 0.015,
        seed: 20220615,
        quantize: true, // mixed-precision emulation, as in the paper
        loss_scale: mics_minidl::LossScale::Dynamic { init: 65536.0, growth_interval: 2000 },
        clip_grad_norm: Some(1.0),
        comm_quant: None,
        prefetch_depth: 0,
    };
    let m = &setup.model;
    println!(
        "training a {}-parameter transformer LM (vocab {}, seq {}, {} layers) on {} \
         thread-ranks (p={}, s={}, mixed precision)",
        m.num_params(),
        m.vocab,
        m.seq_len,
        m.layers,
        setup.world,
        setup.partition_size,
        setup.accum_steps
    );

    let ddp = train_lm(&setup, SyncSchedule::Ddp);
    let zero3 = train_lm(&setup, SyncSchedule::PerMicroStepAllReduce);
    let mics = train_lm(&setup, SyncSchedule::TwoHop);

    let mut t = Table::new(
        "Figure 15 — cross-entropy: DeepSpeed-style vs MiCS 2-hop vs DDP",
        &["iteration", "DDP", "ZeRO-3 schedule", "MiCS 2-hop", "|MiCS − DDP|"],
    );
    for i in (0..ddp.losses.len()).step_by(5).chain([ddp.losses.len() - 1]) {
        t.row(vec![
            i.to_string(),
            format!("{:.6}", ddp.losses[i]),
            format!("{:.6}", zero3.losses[i]),
            format!("{:.6}", mics.losses[i]),
            format!("{:.2e}", (mics.losses[i] - ddp.losses[i]).abs()),
        ]);
    }
    t.finish("fig15_fidelity");

    let max_dev = ddp
        .losses
        .iter()
        .zip(mics.losses.iter())
        .map(|(a, b)| (a - b).abs() / a.abs().max(1e-9))
        .fold(0.0f32, f32::max);
    println!("\nmax relative loss deviation MiCS vs DDP: {max_dev:.2e}");
    println!(
        "cross-entropy {:.3} → {:.3} over {} iterations under MiCS 2-hop",
        mics.losses[0],
        mics.losses.last().unwrap(),
        mics.losses.len()
    );
    assert!(max_dev < 1e-2, "convergence behaviours must coincide");
    write_json(
        "fig15_losses",
        &Json::obj([
            ("ddp", Json::from(ddp.losses.clone())),
            ("zero3_schedule", Json::from(zero3.losses.clone())),
            ("mics_two_hop", Json::from(mics.losses.clone())),
        ]),
    );
}
