//! Extension: quantized collectives (ZeRO++-style) on the MiCS executor.
//!
//! Two sweeps, both at the paper's 100 Gbps V100 operating point:
//!
//! 1. **Bit-width** — BERT 15B on 64 GPUs with p = 16 (partition groups
//!    span 2 nodes, so the weight gathers cross the NIC): f16 passthrough,
//!    int8/128 and int4/32 block quantization, on weights, gradients, or
//!    both, against the exact-wire baseline.
//! 2. **Cluster size** — BERT 10B with the same 2-node groups as the
//!    cluster grows from 16 to 128 GPUs: int8-everything vs exact.
//!
//! A miniature *real* training run (the mics-minidl transformer LM) closes
//! the loop: the same int8 block format on real wires moves losses only
//! within a small relative tolerance of the exact run.

use mics_bench::{accum_steps, f1, run, v100, write_json, Json, Table, ToJson};
use mics_core::{CompressionConfig, MicsConfig, QuantScheme, RunReport, Strategy};
use mics_minidl::{train_lm, LmSetup, SyncSchedule, TinyTransformer};
use mics_model::TransformerConfig;

fn mics(p: usize, compression: Option<CompressionConfig>) -> Strategy {
    let mut cfg = MicsConfig::paper_defaults(p);
    cfg.compression = compression;
    Strategy::Mics(cfg)
}

fn main() {
    // ── Sweep 1: bit-width × placement, BERT 15B on 64 GPUs ─────────────
    let model = TransformerConfig::bert_15b();
    let w = model.workload(8);
    let nodes = 8;
    let n = nodes * 8;
    let s = accum_steps(n, 8, 8192);
    let cluster = v100(nodes);

    let base = run(&w, &cluster, mics(16, None), s).expect("fits");

    let variants: [(&str, CompressionConfig); 5] = [
        ("f16 passthrough, both", CompressionConfig::both(QuantScheme::F16)),
        ("int8/128, weights only", CompressionConfig::weights_only(QuantScheme::int8())),
        ("int8/128, grads only", CompressionConfig::grads_only(QuantScheme::int8())),
        ("int8/128, both", CompressionConfig::both(QuantScheme::int8())),
        ("int4/32, both", CompressionConfig::both(QuantScheme::int4())),
    ];

    let mut t1 = Table::new(
        format!("Extension — quantized collectives, {} on {} GPUs (p=16)", model.name, n),
        &["wire format", "samples/sec", "speedup", "GB/node/step", "wire vs exact", "vs fp32"],
    );
    let row = |t: &mut Table, name: &str, r: &RunReport| {
        let ratio = base.nic_bytes_per_node as f64 / r.nic_bytes_per_node as f64;
        // The exact wire already carries fp16 casts (BERT trains in mixed
        // precision), so the fp32 comparison is 2× the measured ratio.
        t.row(vec![
            name.into(),
            f1(r.samples_per_sec),
            format!("{:.2}×", r.samples_per_sec / base.samples_per_sec),
            format!("{:.1}", r.nic_bytes_per_node as f64 / 1e9),
            format!("{ratio:.2}×"),
            format!("{:.2}×", ratio * 2.0),
        ]);
    };
    row(&mut t1, "exact (fp16 casts)", &base);
    let mut int8_both: Option<RunReport> = None;
    for (name, cfg) in variants {
        let r = run(&w, &cluster, mics(16, Some(cfg)), s).expect("fits");
        row(&mut t1, name, &r);
        if name == "int8/128, both" {
            int8_both = Some(r);
        }
    }
    t1.print();

    // The headline claims, enforced: int8 wires cut inter-node volume ~4×
    // vs fp32 and that buys real end-to-end step time at 100 Gbps.
    let int8 = int8_both.expect("int8 row ran");
    let vs_fp32 = 2.0 * base.nic_bytes_per_node as f64 / int8.nic_bytes_per_node as f64;
    assert!(
        (3.2..4.2).contains(&vs_fp32),
        "int8 should cut wire volume ~4× vs fp32, got {vs_fp32:.2}×"
    );
    assert!(
        int8.samples_per_sec > base.samples_per_sec,
        "int8 wires must beat exact at 100 Gbps: {} vs {}",
        int8.samples_per_sec,
        base.samples_per_sec
    );
    println!(
        "\nint8/128 wire volume: {vs_fp32:.2}× smaller than fp32, \
         {:.2}× end-to-end speedup",
        int8.samples_per_sec / base.samples_per_sec
    );

    // ── Sweep 2: cluster size, BERT 10B, int8 vs exact ──────────────────
    let model10 = TransformerConfig::bert_10b();
    let w10 = model10.workload(8);
    let mut t2 = Table::new(
        format!("Extension — int8 collectives as {} scales (p=16)", model10.name),
        &["GPUs", "exact samples/sec", "int8 samples/sec", "speedup"],
    );
    for nodes in [2usize, 4, 8, 16] {
        let n = nodes * 8;
        let s = accum_steps(n, 8, 8192);
        let c = v100(nodes);
        let exact = run(&w10, &c, mics(16, None), s).expect("fits");
        let q = run(&w10, &c, mics(16, Some(CompressionConfig::both(QuantScheme::int8()))), s)
            .expect("fits");
        t2.row(vec![
            n.to_string(),
            f1(exact.samples_per_sec),
            f1(q.samples_per_sec),
            format!("{:.2}×", q.samples_per_sec / exact.samples_per_sec),
        ]);
    }
    t2.print();

    // ── Fidelity: the same int8 block format on *real* wires ────────────
    let setup = LmSetup {
        model: TinyTransformer::new(9, 6, 8, 2, 16, 2),
        world: 8,
        partition_size: 2,
        micro_batch: 8,
        accum_steps: 2,
        iterations: 20,
        lr: 0.01,
        seed: 20220615,
        quantize: false,
        loss_scale: mics_minidl::LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: 0,
    };
    let exact = train_lm(&setup, SyncSchedule::TwoHop);
    let mut qsetup = setup.clone();
    qsetup.comm_quant = Some(CompressionConfig::both(QuantScheme::int8()));
    let quantized = train_lm(&qsetup, SyncSchedule::TwoHop);
    let max_dev = exact
        .losses
        .iter()
        .zip(quantized.losses.iter())
        .map(|(a, b)| (a - b).abs() / a.abs().max(1e-9))
        .fold(0.0f32, f32::max);
    println!(
        "\nfidelity: int8 comm vs exact over {} iterations — max relative loss \
         deviation {max_dev:.2e}, final losses {:.6} vs {:.6}",
        setup.iterations,
        quantized.losses.last().unwrap(),
        exact.losses.last().unwrap()
    );
    assert!(max_dev < 0.05, "int8 training must track the exact run: {max_dev:.2e}");

    write_json(
        "ext_compress",
        &Json::obj([
            ("bit_width_sweep", t1.to_json()),
            ("cluster_sweep", t2.to_json()),
            (
                "fidelity",
                Json::obj([
                    ("iterations", Json::from(setup.iterations)),
                    ("max_relative_loss_deviation", Json::from(max_dev)),
                    ("exact_losses", Json::from(exact.losses.clone())),
                    ("int8_losses", Json::from(quantized.losses.clone())),
                ]),
            ),
        ]),
    );
}
