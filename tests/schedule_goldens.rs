//! Golden snapshots of the schedule IR, plus the cross-backend contract.
//!
//! The IR is the single lowering of the training step: strategies emit it,
//! and both backends consume it. Two properties pin that down here:
//!
//! 1. **Golden dumps** — [`StepProgram::dump`] is a stable text format; the
//!    MiCS / ZeRO-3 / DDP programs on small geometries are snapshotted under
//!    `tests/goldens/`. A drift in emission order, dependency edges, wire
//!    annotations or byte counts fails the diff. Regenerate intentionally
//!    with `MICS_UPDATE_GOLDENS=1 cargo test --test schedule_goldens`.
//! 2. **Cross-backend agreement** — for the minidl-shaped programs, the
//!    thread-rank interpreter must execute exactly the communication op
//!    sequence the simulator backend costs (compared per rank, in order).

use mics::cluster::{ClusterSpec, InstanceType, Rank};
use mics::core::ops::SimCluster;
use mics::core::schedule::{execute_on_sim, reshape, Geometry};
use mics::core::{dp_pipeline_program, dp_program};
use mics::core::{CompressionConfig, MicsConfig, QuantScheme, Strategy, TrainingJob, ZeroStage};
use mics::dataplane::TransportKind;
use mics::minidl::scaler::LossScale;
use mics::minidl::train::{
    pipeline_step_program, step_program, step_spec_with_flops, train_pipeline, ScheduleHyper,
    SyncSchedule,
};
use mics::minidl::{LmSetup, TinyTransformer};
use mics::model::{LayerSpec, WorkloadSpec};
use std::path::PathBuf;

/// A 4-layer toy transformer-shaped workload, small enough that every
/// strategy fits everywhere and the dumps stay readable.
fn tiny_workload() -> WorkloadSpec {
    let layer = LayerSpec {
        params: 1_000_000,
        fwd_flops: 1e9,
        bwd_flops: 2e9,
        recompute_flops: 1e9,
        checkpoint_bytes: 1 << 20,
        working_bytes: 1 << 20,
    };
    WorkloadSpec {
        name: "tiny-4l".into(),
        layers: vec![layer; 4],
        param_dtype_bytes: 2,
        activation_checkpointing: true,
        micro_batch: 4,
    }
}

fn job(nodes: usize, strategy: Strategy) -> TrainingJob {
    TrainingJob {
        workload: tiny_workload(),
        cluster: ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes),
        strategy,
        accum_steps: 2,
    }
}

fn check_golden(name: &str, actual: &str) {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(format!("{name}.txt"));
    if std::env::var_os("MICS_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {}: {e}; create it with MICS_UPDATE_GOLDENS=1", path.display())
    });
    assert_eq!(
        expected, actual,
        "schedule dump '{name}' drifted; if intended, regenerate with MICS_UPDATE_GOLDENS=1"
    );
}

#[test]
fn golden_mics_p8_two_nodes() {
    // 16 GPUs, partition groups of 8 → two-hop sync with replication
    // groups of 2 spanning the node boundary.
    let prog = dp_program(&job(2, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
    check_golden("mics_p8_2x8", &prog.dump());
}

#[test]
fn golden_zero3_one_node() {
    let prog = dp_program(&job(1, Strategy::Zero(ZeroStage::Three))).unwrap();
    check_golden("zero3_1x8", &prog.dump());
}

#[test]
fn golden_ddp_one_node() {
    let prog = dp_program(&job(1, Strategy::Ddp)).unwrap();
    check_golden("ddp_1x8", &prog.dump());
}

#[test]
fn golden_zero2_one_node() {
    // ZeRO-2: boundary reduce-scatter of the accumulated gradient, a
    // recorded optimizer step and the parameter refresh behind it.
    let dump = dp_program(&job(1, Strategy::Zero(ZeroStage::Two))).unwrap().dump();
    assert!(dump.contains("param-refresh") && dump.contains("record=true"));
    assert!(dump.contains("reduce-scatter b0 Accum"));
    check_golden("zero2_1x8", &dump);
}

#[test]
fn golden_zero3_int8_two_nodes() {
    // ZeRO++-style ZeRO-3: the partition group is the cluster, so the
    // gathers and the per-micro-step all-reduces both carry the codec.
    let strategy = Strategy::ZeroCompressed(CompressionConfig::both(QuantScheme::int8()));
    let dump = dp_program(&job(2, strategy)).unwrap().dump();
    assert!(dump.contains("barrier"));
    for line in dump.lines().filter(|l| l.contains(" gather.") || l.contains(" all-reduce ")) {
        assert!(line.contains("+int8/128"), "{line}");
    }
    check_golden("zero3_int8_2x8", &dump);
}

/// The codec annotations of an int8 MiCS dump: every gather and every
/// gradient reduction (hop 1 and hop 2) compressed, the boundary p2p hops
/// and the compute ops exact.
fn assert_int8_annotations(dump: &str) {
    for line in dump.lines().skip(1) {
        let compressed = line.contains(" gather.")
            || line.contains(" reduce-scatter ")
            || line.contains(" hop2 ");
        assert_eq!(line.contains("+int8/128"), compressed, "{line}");
    }
}

#[test]
fn golden_mics_p16_int8_four_nodes() {
    // Partition groups of 16 span two nodes → hierarchical gathers; the
    // replication groups of 2 reduce through the same codec.
    let strategy =
        Strategy::Mics(MicsConfig::compressed(16, CompressionConfig::both(QuantScheme::int8())));
    let dump = dp_program(&job(4, strategy)).unwrap().dump();
    assert!(dump.contains("ag-hier"));
    assert_eq!(dump.lines().filter(|l| l.contains(" hop2 ")).count(), 16);
    assert_int8_annotations(&dump);
    check_golden("mics_p16_int8_4x8", &dump);
}

#[test]
fn golden_mics_p8_pp2() {
    // The same two-node MiCS job as `golden_mics_p8_2x8`, but as one stage
    // of a 2-stage 1F1B pipeline: geometry dp=16 × pp=2, with explicit
    // StageSend/StageRecv boundary hops between the stage replicas.
    let prog =
        dp_pipeline_program(&job(2, Strategy::Mics(MicsConfig::paper_defaults(8))), 2, 1 << 20)
            .unwrap();
    check_golden("mics_p8_pp2_2x16", &prog.dump());
}

#[test]
fn golden_mics_p8_int8_pp2() {
    // `golden_mics_p8_pp2` under int8: the codec is a per-op annotation, so
    // the program keeps its shape line for line and only the stage-scoped
    // gathers and gradient reductions gain the scheme; the boundary p2p
    // hops stay exact.
    let strategy =
        Strategy::Mics(MicsConfig::compressed(8, CompressionConfig::both(QuantScheme::int8())));
    let dump = dp_pipeline_program(&job(2, strategy), 2, 1 << 20).unwrap().dump();
    assert_eq!(dump.lines().count(), 202);
    assert!(dump.contains(" hop2 ") && dump.contains(" p2p "));
    assert_int8_annotations(&dump);
    check_golden("mics_p8_int8_pp2_2x16", &dump);
}

#[test]
fn golden_reshape_twohop_shrink() {
    // Elastic shrink at the IR level: the MiCS two-hop minidl program
    // emitted at world=8 p=4, re-emitted by `reshape` for world=4 p=2.
    // The dump must equal a fresh emission at the destination geometry —
    // the schedule is a function of the geometry, nothing is baked in.
    let hp = ScheduleHyper {
        world: 8,
        partition_size: 4,
        accum_steps: 3,
        iterations: 2,
        lr: 0.02,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: 0,
    };
    let spec = step_spec_with_flops(&hp, SyncSchedule::TwoHop, 2_000, 0.0, 0.0);
    let old = Geometry::flat(8, 8, 4);
    let new = Geometry::flat(4, 4, 2);
    let prog = reshape(&spec, &old, &new);
    check_golden("reshape_twohop_8p4_to_4p2", &prog.dump());

    let mut fresh_hp = hp;
    fresh_hp.world = 4;
    fresh_hp.partition_size = 2;
    let fresh = step_program(&fresh_hp, SyncSchedule::TwoHop, 2_000);
    assert_eq!(prog.dump(), fresh.dump(), "reshape must equal a fresh emission");
}

/// The minidl interpreter and the simulator backend walk the same program;
/// per rank, the interpreter's executed wire ops must be exactly the
/// sim-costed wire ops whose group contains that rank, in program order,
/// under every schedule, codec and prefetch depth.
fn assert_minidl_executes_the_op_sequence_the_sim_costs(pp: usize) {
    let int8 = Some(CompressionConfig::both(QuantScheme::int8()));
    for (schedule, dp, p) in [
        (SyncSchedule::Ddp, 2, 1),
        (SyncSchedule::PerMicroStepAllReduce, 2, 2),
        (SyncSchedule::TwoHop, 4, 2),
    ] {
        for (comm_quant, prefetch_depth) in [(None, 0), (None, 1), (int8, 0), (int8, 1)] {
            let setup = LmSetup {
                model: TinyTransformer::new(5, 2, 4, 1, 4, 4),
                world: dp,
                partition_size: p,
                micro_batch: 1,
                accum_steps: 3,
                iterations: 2,
                lr: 0.02,
                seed: 7,
                quantize: false,
                loss_scale: LossScale::None,
                clip_grad_norm: None,
                comm_quant,
                prefetch_depth,
            };
            let model = &setup.model;
            let per = model.layers / pp;
            let stage_numels: Vec<usize> =
                (0..pp).map(|s| model.stage_params(s * per..(s + 1) * per).len()).collect();
            let act_bytes = (setup.micro_batch * model.seq_len * model.d_model * 4) as u64;
            let prog = pipeline_step_program(&setup.hyper(), schedule, &stage_numels, act_bytes);

            // Sim backend: all thread-ranks sit on one shared-memory "node".
            let mut inst = InstanceType::p3dn_24xlarge();
            inst.gpus_per_node = dp * pp;
            let mut sc = SimCluster::new(ClusterSpec::new(inst, 1));
            let exec = execute_on_sim(&prog, &mut sc, 1e12);

            // Real backend: thread-ranks over the actual dataplane.
            let out = train_pipeline(TransportKind::Local, &setup, pp, schedule);

            let at = format!("{schedule:?} pp={pp} {comm_quant:?} depth={prefetch_depth}");
            let sim_rank0: Vec<usize> = exec
                .wire_ops
                .iter()
                .copied()
                .filter(|&id| prog.executes_wire(id, Rank(0)))
                .collect();
            assert!(!sim_rank0.is_empty(), "{at}: no wire ops costed");
            assert_eq!(
                sim_rank0, out.wire_ops,
                "{at}: interpreter executed a different op sequence than the sim costed"
            );
        }
    }
}

/// The flat program (`pp = 1`).
#[test]
fn minidl_executes_the_op_sequence_the_sim_costs() {
    assert_minidl_executes_the_op_sequence_the_sim_costs(1);
}

/// The same contract for the DP×PP 1F1B program: the simulator costs the
/// pipeline's StageSend/StageRecv hops and dp collectives through the same
/// `WireCollective` dispatch, and the pipeline engine must execute exactly
/// the rank-0 slice of that sequence.
#[test]
fn pipeline_minidl_executes_the_op_sequence_the_sim_costs() {
    for pp in [2, 4] {
        assert_minidl_executes_the_op_sequence_the_sim_costs(pp);
    }
}
