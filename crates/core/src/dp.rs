//! The data-parallel executors: MiCS, DeepSpeed ZeRO-1/2/3 and DDP.
//!
//! This module is a thin pipeline: a [`TrainingJob`] is turned into a
//! [`ScheduleSpec`] (the strategy's [`crate::config::DpPlan`] plus the
//! workload's per-layer bytes and FLOPs), lowered to a [`StepProgram`] —
//! `s` micro-steps of gathers, computes and gradient synchronization plus
//! the accumulation boundary, on one stage or as the 1F1B interleave of
//! `pp` — and replayed onto the simulator by [`execute_on_sim`]. One body
//! does this for every entry point; the non-pipelined ones are its `pp = 1`
//! case. See [`crate::schedule`] for the op grammar; the schedule
//! semantics:
//!
//! * **forward**: for sharded-parameter strategies, each layer's parameters
//!   are all-gathered within the partition group on the gather lane —
//!   hierarchically when enabled and the group spans nodes (§3.3) — with a
//!   prefetch-lookahead of `plan.prefetch_depth` layers (0 under the
//!   baseline's coarse synchronization, §4); the compute stream waits on the
//!   per-layer gather event;
//! * **backward** (reverse layer order): parameters are re-gathered, the
//!   layer recomputes (activation checkpointing) and back-propagates, then
//!   gradients synchronize on the reduce lane according to the schedule:
//!   MiCS reduce-scatters within the partition group (hop 1 of §3.4);
//!   DeepSpeed ZeRO-3 all-reduces over **all** devices every micro-step; DDP
//!   / ZeRO-1 / ZeRO-2 only synchronize while the *last* micro-step's
//!   backward runs;
//! * **boundary**: MiCS all-reduces the accumulated gradient shards across
//!   replication groups (hop 2); the optimizer updates its shard; ZeRO-1/2
//!   re-broadcast updated parameters with a cluster-wide all-gather.

use crate::memory::{check_memory, MemoryEstimate, OomError, BUCKET_BYTES};
use crate::ops::SimCluster;
use crate::report::RunReport;
use crate::schedule::{
    execute_on_sim, Geometry, LayerSchedule, PipelineSpec, ScheduleSpec, SimExecution, StepProgram,
};
use crate::TrainingJob;
use mics_cluster::{ClusterSpec, NodeId};
use mics_model::WorkloadSpec;

/// A borrowed [`TrainingJob`]: the hot-path entry point for callers that
/// evaluate many strategies against one workload/cluster pair (the tuner,
/// the planner service). `Copy`, so a candidate loop costs no allocation —
/// the owned job used to be cloned per candidate just to satisfy the
/// signature.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    /// The model, lowered for a specific micro-batch size.
    pub workload: &'a WorkloadSpec,
    /// The cluster to run on.
    pub cluster: &'a ClusterSpec,
    /// The parallelization strategy.
    pub strategy: &'a crate::config::Strategy,
    /// Micro-steps per iteration (gradient accumulation depth).
    pub accum_steps: usize,
}

impl<'a> JobView<'a> {
    /// Global samples consumed per iteration
    /// (`devices × micro_batch × accum_steps`).
    pub fn samples_per_iteration(&self) -> usize {
        self.cluster.total_devices() * self.workload.micro_batch * self.accum_steps
    }
}

impl<'a> From<&'a TrainingJob> for JobView<'a> {
    fn from(job: &'a TrainingJob) -> Self {
        job.view()
    }
}

/// Simulate one iteration of a DP job (all strategies except Megatron).
pub fn simulate_dp(job: &TrainingJob) -> Result<RunReport, OomError> {
    simulate_dp_view(job.view())
}

/// [`simulate_dp`] over a borrowed job — no spec clones on the way in.
pub fn simulate_dp_view(job: JobView<'_>) -> Result<RunReport, OomError> {
    simulate_stages(job, 1, 0, Walk::Fast).map(|(r, ..)| r)
}

/// Like [`simulate_dp`], additionally returning a chrome-trace JSON
/// timeline of every stream (loadable in `chrome://tracing` / Perfetto).
pub fn simulate_dp_traced(job: &TrainingJob) -> Result<(RunReport, String), OomError> {
    simulate_stages(job.view(), 1, 0, Walk::Traced).map(|(r, trace, _)| (r, trace))
}

/// Build the [`ScheduleSpec`] for a DP job: the strategy's plan plus the
/// workload's per-layer bytes/FLOPs, validated against the memory model
/// (which also decides whether hierarchical gathers are active).
fn dp_spec(job: JobView<'_>) -> Result<(ScheduleSpec, MemoryEstimate), OomError> {
    let n = job.cluster.total_devices();
    let k = job.cluster.devices_per_node();
    let plan = job.strategy.plan(n);
    let est = check_memory(job.workload, job.cluster, &plan, &job.strategy.label())?;
    let dtype = job.workload.param_dtype_bytes;
    let layers = job
        .workload
        .layers
        .iter()
        .map(|l| LayerSchedule {
            param_bytes: l.params * dtype,
            fwd_flops: l.fwd_flops,
            // Activation checkpointing: backward recomputes the forward.
            bwd_flops: l.recompute_flops + l.bwd_flops,
        })
        .collect();
    let spec = ScheduleSpec {
        n,
        k,
        p_params: plan.p_params,
        p_grads: plan.p_grads,
        p_opt: plan.p_opt,
        micro_sync: plan.micro_sync,
        accum_steps: job.accum_steps,
        hierarchical: est.hierarchical_buffers,
        coalesced: plan.coalesced,
        prefetch_depth: plan.prefetch_depth,
        decision_overhead: plan.decision_overhead,
        layers,
        bucket_bytes: BUCKET_BYTES,
        total_param_bytes: job.workload.total_params() * dtype,
        // Bandwidth-bound fp32 Adam update over this device's shard:
        // read/write master weights, two moments, gradient, fp16 param
        // ≈ 24 B/parameter.
        optimizer_bytes: job.workload.total_params() * 24 / plan.p_opt as u64,
        compression: plan.compression,
        elem_bytes: dtype,
    };
    Ok((spec, est))
}

/// Lower `job` to its [`StepProgram`] — the exact op sequence both the
/// simulator backend and the minidl executor run. Fails with
/// [`OomError`] when the memory model rejects the job, like [`simulate_dp`].
pub fn dp_program(job: &TrainingJob) -> Result<StepProgram, OomError> {
    dp_pipeline_program(job, 1, 0)
}

/// Lower `job` to a DP×PP [`StepProgram`]: the job's cluster is one
/// pipeline stage's dp-world, replicated `pp` times, with the layer list
/// split contiguously over the stages and 1F1B boundary sends carrying
/// `act_bytes` per micro-batch. [`dp_program`] is its `pp = 1` case.
pub fn dp_pipeline_program(
    job: &TrainingJob,
    pp: usize,
    act_bytes: u64,
) -> Result<StepProgram, OomError> {
    let (spec, _) = dp_spec(job.view())?;
    Ok(PipelineSpec { inner: spec, pp, act_bytes }.program())
}

/// Simulate one iteration of the DP×PP 1F1B program end-to-end on the
/// event-driven backend — the *executable* pipeline comparator (unlike
/// [`crate::simulate_megatron`], which is closed-form analytic), and at
/// `pp = 1` exactly [`simulate_dp`].
///
/// `job.cluster` describes one stage's dp-world. Admission reuses
/// `dp_spec`'s memory check on the full layer list — conservative for
/// `pp > 1`, where each stage holds only its slice.
pub fn simulate_dp_pipeline(
    job: &TrainingJob,
    pp: usize,
    act_bytes: u64,
) -> Result<RunReport, OomError> {
    simulate_stages(job.view(), pp, act_bytes, Walk::Fast).map(|(r, ..)| r)
}

/// Which ranks [`simulate_stages`] walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// One rank per class ([`class_size`]) of the first node of each stage
    /// when the nodes are interchangeable (see
    /// [`interchangeable_stage_nodes`]), else every rank. The report is the
    /// full walk's, byte for byte.
    Fast,
    /// Every rank: the reference a fast walk must equal.
    #[cfg(test)]
    Full,
    /// Every rank, recording the timeline of every stream.
    Traced,
}

/// The one simulation body: lower `job` on `pp` stages, replay the program
/// on the event-driven backend and fill the report (plus the timeline JSON,
/// empty unless the walk is traced, and what the replay logged).
fn simulate_stages(
    job: JobView<'_>,
    pp: usize,
    act_bytes: u64,
    walk: Walk,
) -> Result<(RunReport, String, SimExecution), OomError> {
    let (spec, est) = dp_spec(job)?;
    let (n, k, hierarchical_used) = (spec.n, spec.k, spec.hierarchical);
    let prog = PipelineSpec { inner: spec, pp, act_bytes }.program();
    let world = n * pp;
    let s = job.accum_steps;

    let mut sc = stage_cluster(job.cluster, &prog.geo, walk);
    let sustained = if job.workload.param_dtype_bytes == 2 {
        job.cluster.instance.sustained_fp16_flops()
    } else {
        job.cluster.instance.sustained_fp32_flops()
    };
    let exec = execute_on_sim(&prog, &mut sc, sustained);

    let (iter_time, compute_busy, comm_busy, sim_trace) = sc.run_traced();
    let secs = iter_time.as_secs_f64();
    let mut label = job.strategy.label();
    if pp > 1 {
        label.push_str(&format!("×pp{pp}"));
    }
    let report = RunReport {
        label,
        iter_time,
        // Samples flow through the dp ranks only; each stage computes 1/pp
        // of the model, so per-GPU achieved FLOPs divide by pp.
        samples_per_sec: job.samples_per_iteration() as f64 / secs,
        achieved_flops_per_gpu: job.workload.total_flops() * s as f64 / pp as f64 / secs,
        memory: est,
        hierarchical_used,
        compute_fraction: compute_busy.as_secs_f64() / (world as f64 * secs),
        comm_fraction: comm_busy.as_secs_f64() / (world as f64 * secs),
        nic_bytes_per_node: exec.nic_bytes_total / (world / k).max(1) as u64,
    };
    Ok((report, sim_trace.to_json(), exec))
}

/// The cluster [`simulate_stages`] replays a program of geometry `geo` on:
/// the job's own cluster — its stragglers included — widened to all
/// `geo.pp` stages (stage 0 sits on the job's nodes, the added nodes are
/// healthy; at `pp = 1` this is `cluster` exactly), simulating the ranks
/// `walk` picks.
fn stage_cluster(cluster: &ClusterSpec, geo: &Geometry, walk: Walk) -> SimCluster {
    let mut full = cluster.clone();
    full.nodes *= geo.pp;
    let k = geo.k;
    let mut sc = match interchangeable_stage_nodes(&full, geo).filter(|_| walk == Walk::Fast) {
        Some(c) => SimCluster::simulating(full, |r| {
            u32::from((r.0 / k).is_multiple_of(c)) * class_size(r.0 % k, geo.p, k)
        }),
        None => SimCluster::new(full),
    };
    if walk == Walk::Traced {
        sc.enable_tracing();
    }
    sc
}

/// How many ranks of its node the rank at node-local index `l` simulates
/// (0: another rank of its class does), for partition groups of `p` on
/// nodes of `k` where `p` and `k` divide one another. A class is a set of
/// ranks that lead and join the same collectives, copy for copy:
/// - `p ≥ k`: `{0}` leads the partition or whole-stage group; `{1..k−1}`
///   each lead only their own replication group and pipeline pairs.
/// - `p < k`: `{0}`; the replication leaders `{1..p−1}`; the other
///   partition leaders `{p, 2p, …}`; and the rest, which lead only their
///   pairs. Empty classes drop out (`p = 1` gives two).
///
/// Each class's first rank represents it, so the sizes sum to `k`.
fn class_size(l: usize, p: usize, k: usize) -> u32 {
    let p = p.min(k);
    let size = match l {
        0 => 1,
        _ if l < p => usize::from(l == 1) * (p - 1),
        _ if l == p => k / p - 1,
        _ => usize::from(l == p + 1) * (k / p - 1) * (p - 1),
    };
    u32::try_from(size).expect("a class fits in a node")
}

/// The nodes of each pipeline stage when they are interchangeable: every
/// NIC of `cluster` runs at one rate and every group of `geo` lies inside
/// one node or spans whole nodes. Then each stage's first node stands for
/// all of them (see [`crate::ops`]), one rank per [`class_size`] class;
/// `None` means simulate every rank.
fn interchangeable_stage_nodes(cluster: &ClusterSpec, geo: &Geometry) -> Option<usize> {
    let rate = |node| cluster.nic_derate(NodeId(node));
    let homogeneous = (0..cluster.nodes).all(|node| rate(node) == rate(0));
    let k = geo.k;
    let aligned = geo.dp.is_multiple_of(k) && (geo.p.is_multiple_of(k) || k.is_multiple_of(geo.p));
    (homogeneous && aligned).then_some(geo.dp / k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MicsConfig, Strategy, ZeroStage};
    use mics_cluster::{ClusterSpec, InstanceType, NodeId};
    use mics_model::TransformerConfig;

    fn job(nodes: usize, strategy: Strategy) -> TrainingJob {
        TrainingJob {
            workload: TransformerConfig::bert_10b().workload(8),
            cluster: ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes),
            strategy,
            accum_steps: 4,
        }
    }

    #[test]
    fn pipeline_sim_at_pp1_costs_exactly_the_flat_program() {
        // pp = 1 is the same lowering on the same cluster — stragglers
        // included — so the whole report is equal, label and all.
        let clean = job(2, Strategy::Mics(MicsConfig::paper_defaults(8)));
        let mut slow = clean.clone();
        slow.cluster = slow.cluster.with_slow_node(NodeId(1), 0.25);
        let [clean, slow] = [clean, slow].map(|j| {
            let flat = simulate_dp(&j).unwrap();
            assert_eq!(simulate_dp_pipeline(&j, 1, 1 << 20).unwrap(), flat);
            flat
        });
        assert!(slow.iter_time > clean.iter_time, "the straggler must cost something");
    }

    #[test]
    fn pipeline_sim_runs_and_is_deterministic() {
        // The 128-layer Megatron-comparison variant: its lowered layer list
        // (embedding + 128 blocks + head) splits evenly over 2 stages.
        let mut j = job(2, Strategy::Mics(MicsConfig::paper_defaults(8)));
        j.workload = TransformerConfig::megatron_comparison().workload(8);
        let a = simulate_dp_pipeline(&j, 2, 1 << 24).unwrap();
        assert!(a.samples_per_sec > 0.0);
        assert_eq!(a.label, "MiCS(p=8)×pp2");
        assert_eq!(a, simulate_dp_pipeline(&j, 2, 1 << 24).unwrap());
        // The 1F1B ramp idles (pp − 1) slots: per-device utilization must
        // sit below the flat program's.
        let flat = simulate_dp(&j).unwrap();
        assert!(a.compute_fraction < flat.compute_fraction);
        // Compression holds under pipelining: int8 shrinks hop 2, the
        // stage's NIC traffic (the boundary p2p stays exact).
        use mics_compress::{CompressionConfig, QuantScheme};
        let int8 = CompressionConfig::both(QuantScheme::int8());
        j.strategy = Strategy::Mics(MicsConfig::compressed(8, int8));
        let q = simulate_dp_pipeline(&j, 2, 1 << 24).unwrap();
        assert!(q.nic_bytes_per_node < a.nic_bytes_per_node);
    }

    #[test]
    fn mics_beats_zero3_on_two_nodes() {
        // The headline: on 100 Gbps V100 clusters MiCS is >2× DeepSpeed
        // ZeRO-3 for BERT 10B (223% — §5.1.1).
        let mics = simulate_dp(&job(2, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
        let zero3 = simulate_dp(&job(2, Strategy::Zero(ZeroStage::Three))).unwrap();
        let speedup = mics.samples_per_sec / zero3.samples_per_sec;
        assert!(speedup > 1.5, "MiCS/ZeRO-3 speedup only {speedup:.2}×");
    }

    #[test]
    fn zero2_oom_reports_error() {
        let mut j = job(2, Strategy::Zero(ZeroStage::Two));
        j.workload = TransformerConfig::bert_15b().workload(4);
        let err = simulate_dp(&j).unwrap_err();
        assert!(err.required > err.available);
    }

    #[test]
    fn partition_group_size_monotonicity() {
        // Figure 11: smaller partition groups are faster (64 GPUs, BERT 10B).
        let mut prev = f64::INFINITY;
        for p in [8usize, 16, 32, 64] {
            let r = simulate_dp(&job(8, Strategy::Mics(MicsConfig::paper_defaults(p)))).unwrap();
            let thr = r.samples_per_sec;
            assert!(thr < prev, "p={p}: throughput {thr} !< {prev}");
            prev = thr;
        }
    }

    #[test]
    fn two_hop_beats_alternative_schedule() {
        // Figure 13: 2-hop on vs off, BERT 10B, p = 8.
        let on = simulate_dp(&job(8, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
        let mut cfg = MicsConfig::paper_defaults(8);
        cfg.two_hop_sync = false;
        let off = simulate_dp(&job(8, Strategy::Mics(cfg))).unwrap();
        assert!(
            on.samples_per_sec > off.samples_per_sec * 1.05,
            "2-hop {} vs alternative {}",
            on.samples_per_sec,
            off.samples_per_sec
        );
    }

    #[test]
    fn hierarchical_allgather_helps_multi_node_groups() {
        // Figure 12b: BERT 15B (p = 16) with vs without hierarchical comm.
        let mk = |hier: bool| {
            let mut cfg = MicsConfig::paper_defaults(16);
            cfg.hierarchical_allgather = hier;
            let mut j = job(4, Strategy::Mics(cfg));
            j.workload = TransformerConfig::bert_15b().workload(8);
            simulate_dp(&j).unwrap()
        };
        let with = mk(true);
        let without = mk(false);
        assert!(with.hierarchical_used && !without.hierarchical_used);
        assert!(
            with.samples_per_sec > without.samples_per_sec * 1.1,
            "hierarchical {} vs flat {}",
            with.samples_per_sec,
            without.samples_per_sec
        );
    }

    #[test]
    fn impl_opts_alone_beat_deepspeed() {
        // Figure 14: MiCS(ZeRO-3) — partition over all devices but with §4
        // optimizations — must beat DeepSpeed ZeRO-3, and full MiCS must
        // beat both.
        let n = 32;
        let ds = simulate_dp(&job(4, Strategy::Zero(ZeroStage::Three))).unwrap();
        let mics_z3 =
            simulate_dp(&job(4, Strategy::Mics(MicsConfig::zero3_with_impl_opts(n)))).unwrap();
        let full = simulate_dp(&job(4, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
        assert!(mics_z3.samples_per_sec > ds.samples_per_sec);
        assert!(full.samples_per_sec > mics_z3.samples_per_sec);
    }

    #[test]
    fn throughput_scales_with_cluster_size() {
        // Strong scaling: more nodes → more samples/sec (Fig. 6 shape).
        let t2 = simulate_dp(&job(2, Strategy::Mics(MicsConfig::paper_defaults(8))))
            .unwrap()
            .samples_per_sec;
        let t8 = simulate_dp(&job(8, Strategy::Mics(MicsConfig::paper_defaults(8))))
            .unwrap()
            .samples_per_sec;
        assert!(t8 > 3.0 * t2, "16→64 GPUs gave only {t8}/{t2}");
    }

    #[test]
    fn near_linear_scaling_efficiency() {
        // §5.1: MiCS keeps high weak/strong scaling efficiency. Per-GPU
        // throughput at 64 GPUs should stay within 85% of 16 GPUs.
        let per_gpu = |nodes: usize| {
            let r =
                simulate_dp(&job(nodes, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
            r.samples_per_sec / (nodes * 8) as f64
        };
        let eff = per_gpu(8) / per_gpu(2);
        assert!(eff > 0.85, "scaling efficiency {eff}");
    }

    #[test]
    fn ddp_single_node_runs_and_reports() {
        // DDP with a tiny model (the fidelity model fits replicated).
        let mut j = job(1, Strategy::Ddp);
        j.workload = TransformerConfig::bert_1_5b().workload(8);
        let r = simulate_dp(&j).unwrap();
        assert!(r.samples_per_sec > 0.0);
        assert!(r.compute_fraction > 0.0 && r.compute_fraction <= 1.0);
    }

    #[test]
    fn deterministic() {
        let a = simulate_dp(&job(2, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
        let b = simulate_dp(&job(2, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
        assert_eq!(a.iter_time, b.iter_time);
    }

    #[test]
    fn sub_node_partition_groups_skip_hierarchical() {
        // p = 8 on one node: all gathers stay on NVLink, hierarchical
        // staging is never engaged.
        let r = simulate_dp(&job(1, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
        assert!(!r.hierarchical_used);
        assert!(r.samples_per_sec > 0.0);
    }

    #[test]
    fn int8_collectives_cut_wire_volume_about_4x() {
        // ZeRO++-style claim: int8 weight gathers + gradient reduces shrink
        // the inter-node wire volume ≈ 4× vs fp16/fp32 words (slightly less
        // because of the per-block scale/zero metadata).
        use mics_compress::{CompressionConfig, QuantScheme};
        let base = simulate_dp(&job(4, Strategy::Mics(MicsConfig::paper_defaults(16)))).unwrap();
        let q = simulate_dp(&job(
            4,
            Strategy::Mics(MicsConfig::compressed(
                16,
                CompressionConfig::both(QuantScheme::int8()),
            )),
        ))
        .unwrap();
        // BERT ships fp16 words uncompressed, so the fp32-equivalent wire
        // volume is 2× the measured baseline; int8 must cut *that* ≈ 4×.
        let vs_fp16 = base.nic_bytes_per_node as f64 / q.nic_bytes_per_node as f64;
        let vs_fp32 = 2.0 * vs_fp16;
        assert!((1.6..2.0).contains(&vs_fp16), "wire-volume ratio vs fp16 {vs_fp16:.2}");
        assert!((3.2..4.0).contains(&vs_fp32), "wire-volume ratio vs fp32 {vs_fp32:.2}");
        // And the saved wire time beats the added quant/dequant memcpys at
        // 100 Gbps.
        assert!(
            q.samples_per_sec > base.samples_per_sec,
            "int8 {} !> fp16 {}",
            q.samples_per_sec,
            base.samples_per_sec
        );
    }

    #[test]
    fn compressed_zero3_closes_part_of_the_gap_to_mics() {
        use mics_compress::{CompressionConfig, QuantScheme};
        let ds = simulate_dp(&job(4, Strategy::Zero(ZeroStage::Three))).unwrap();
        let dsq = simulate_dp(&job(
            4,
            Strategy::ZeroCompressed(CompressionConfig::both(QuantScheme::int8())),
        ))
        .unwrap();
        let mics = simulate_dp(&job(4, Strategy::Mics(MicsConfig::paper_defaults(8)))).unwrap();
        assert!(dsq.samples_per_sec > ds.samples_per_sec);
        // Compression alone does not recover MiCS's scale advantage: the
        // latency term still grows with the communication scale.
        assert!(mics.samples_per_sec > dsq.samples_per_sec);
        assert!(dsq.label.contains("int8"));
    }

    #[test]
    fn p1_groups_still_synchronize_at_boundary() {
        // p = 1 (every device its own "group"): no gathers, but the 2-hop
        // boundary all-reduce across the 8-member replication groups must
        // appear as communication.
        let mut j = job(1, Strategy::Mics(MicsConfig::paper_defaults(1)));
        j.workload = TransformerConfig::bert_1_5b().workload(8);
        let r = simulate_dp(&j).unwrap();
        assert!(r.comm_fraction > 0.0);
    }

    #[test]
    fn program_nic_accounting_matches_report() {
        // The IR-derived wire volume and the executor's accumulation are the
        // same number: nic_bytes_per_node is a pure function of the program.
        let j = job(4, Strategy::Mics(MicsConfig::paper_defaults(16)));
        let prog = dp_program(&j).unwrap();
        let sc = SimCluster::new(j.cluster.clone());
        let per_node =
            prog.total_nic_bytes(&sc.net) / (j.cluster.total_devices() / 8).max(1) as u64;
        let report = simulate_dp(&j).unwrap();
        assert_eq!(per_node, report.nic_bytes_per_node);
    }

    /// Simulate `job` both ways — the fast walk and the full one — and
    /// hold them equal, as values and as JSON bytes. Returns the report
    /// (`None` on OOM).
    fn equals_full_walk(job: JobView<'_>, pp: usize) -> Option<RunReport> {
        use crate::json::ToJson;
        let act_bytes = 1 << 24;
        let fast = simulate_stages(job, pp, act_bytes, Walk::Fast);
        let full = simulate_stages(job, pp, act_bytes, Walk::Full);
        let what = || {
            let c = job.cluster;
            let derates: Vec<f64> = (0..c.nodes).map(|node| c.nic_derate(NodeId(node))).collect();
            format!(
                "{} on {}×{} ({} GPUs/node, NIC derates {derates:?}) pp={pp}",
                job.strategy.label(),
                c.nodes,
                c.instance.name,
                c.instance.gpus_per_node
            )
        };
        match (fast, full) {
            (Ok((fast, _, fast_exec)), Ok((full, _, full_exec))) => {
                assert_eq!(fast, full, "{}", what());
                assert_eq!(fast.to_json().emit(), full.to_json().emit(), "{}", what());
                // A dropped dead op would not move the report: hold the
                // wire-op log and the NIC volume too.
                assert_eq!(fast_exec, full_exec, "{}", what());
                Some(fast)
            }
            (Err(fast), Err(full)) => {
                assert_eq!(fast, full, "{}", what());
                None
            }
            (fast, full) => {
                panic!("{}: {:?} vs {:?}", what(), fast.map(|f| f.0), full.map(|f| f.0))
            }
        }
    }

    /// One differential-grid cell: a preset model on a cluster under a
    /// strategy, accumulation depth and pipeline depth.
    type Cell = (&'static str, ClusterSpec, Strategy, usize, usize);

    /// Push `model` on `cluster` under every strategy (DDP, ZeRO-1–3, MiCS
    /// at every power-of-two partition size with hierarchical gathers on
    /// and off, and int8) × `accums` × pipeline depth 1 and, when the
    /// layers split evenly, 2.
    fn push_cells(
        grid: &mut Vec<Cell>,
        model: &'static str,
        cluster: &ClusterSpec,
        accums: &[usize],
    ) {
        use mics_compress::{CompressionConfig, QuantScheme};
        let even_layers = mics_model::preset(model, 1).unwrap().layers.len().is_multiple_of(2);
        let n = cluster.total_devices();
        let mut strategies = vec![
            Strategy::Ddp,
            Strategy::Zero(ZeroStage::One),
            Strategy::Zero(ZeroStage::Two),
            Strategy::Zero(ZeroStage::Three),
        ];
        for p in (0..).map(|e| 1 << e).take_while(|&p| p <= n) {
            if !n.is_multiple_of(p) {
                continue;
            }
            for hierarchical in [true, false] {
                let mut c = MicsConfig::paper_defaults(p);
                c.hierarchical_allgather = hierarchical;
                strategies.push(Strategy::Mics(c));
            }
            let int8 = CompressionConfig::both(QuantScheme::int8());
            strategies.push(Strategy::Mics(MicsConfig::compressed(p, int8)));
        }
        for strategy in strategies {
            for &accum in accums {
                for pp in [1, 2].into_iter().filter(|&pp| pp == 1 || even_layers) {
                    grid.push((model, cluster.clone(), strategy.clone(), accum, pp));
                }
            }
        }
    }

    /// The differential grid, in a fixed order: every preset model × preset
    /// instance × node count, then every preset model on p3dn variants of
    /// 2, 4, 6, 12 and 16 GPUs per node (the presets all have 8) × 1–4
    /// nodes, clean and with the last node's NIC at half rate.
    fn differential_grid() -> Vec<Cell> {
        let mut grid = Vec::new();
        for &model in mics_model::preset_names() {
            for instance in ["p3dn", "p4d", "dgx"] {
                for nodes in [1, 2, 3, 4, 6, 8, 12, 16] {
                    let cluster = ClusterSpec::new(InstanceType::preset(instance).unwrap(), nodes);
                    push_cells(&mut grid, model, &cluster, &[1, 2, 4]);
                }
            }
        }
        for &model in mics_model::preset_names() {
            for k in [2, 4, 6, 12, 16] {
                let mut instance = InstanceType::p3dn_24xlarge();
                instance.gpus_per_node = k;
                for nodes in [1, 2, 3, 4] {
                    let clean = ClusterSpec::new(instance.clone(), nodes);
                    let slow = clean.clone().with_slow_node(NodeId(nodes - 1), 0.5);
                    for cluster in [clean, slow] {
                        push_cells(&mut grid, model, &cluster, &[1, 2]);
                    }
                }
            }
        }
        grid
    }

    /// Sum `check` over every `stride`-th item, spread over the host's cores.
    fn par_sum<T: Sync>(items: &[T], stride: usize, check: impl Fn(&T) -> usize + Sync) -> usize {
        let picked: Vec<&T> = items.iter().step_by(stride).collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (picked, check) = (&picked, &check);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        picked.iter().skip(t).step_by(threads).map(|x| check(x)).sum::<usize>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("a grid check failed")).sum()
        })
    }

    /// Run every `stride`-th config of the grid through [`equals_full_walk`];
    /// returns how many simulated (did not OOM).
    fn run_differential_grid(stride: usize) -> usize {
        par_sum(&differential_grid(), stride, |(model, cluster, strategy, accum, pp)| {
            let workload = mics_model::preset(model, 4).unwrap();
            let job = JobView { workload: &workload, cluster, strategy, accum_steps: *accum };
            usize::from(equals_full_walk(job, *pp).is_some())
        })
    }

    /// Tune every `stride`-th (model, instance, nodes, accumulation) cell
    /// of the grid with and without int8, and hold every candidate the
    /// tuner explored to the full walk of its configuration; returns how
    /// many candidates simulated.
    fn run_tune_grid(stride: usize) -> usize {
        use mics_compress::{CompressionConfig, QuantScheme};
        let int8 = Some(CompressionConfig::both(QuantScheme::int8()));
        let mut cells = Vec::new();
        for &model in mics_model::preset_names() {
            for instance in ["p3dn", "p4d", "dgx"] {
                for nodes in [1, 2, 3, 4, 6, 8, 12, 16] {
                    for accum in [1, 2, 4] {
                        cells.push((model, instance, nodes, accum));
                    }
                }
            }
        }
        par_sum(&cells, stride, |&(model, instance, nodes, accum_steps)| {
            let workload = mics_model::preset(model, 4).unwrap();
            let cluster = ClusterSpec::new(InstanceType::preset(instance).unwrap(), nodes);
            let options = [None, int8];
            let Ok(tuned) =
                crate::tuner::tune_with_compression(&workload, &cluster, accum_steps, &options)
            else {
                return 0;
            };
            let mut simulated = 0;
            for c in tuned.explored {
                // Candidates the memory pre-check rejected never simulated.
                let Ok(report) = c.outcome else { continue };
                let strategy = Strategy::Mics(c.config);
                let job = JobView {
                    workload: &workload,
                    cluster: &cluster,
                    strategy: &strategy,
                    accum_steps,
                };
                let full = simulate_stages(job, 1, 0, Walk::Full).unwrap().0;
                assert_eq!(report, full, "tuned {} on {nodes}×{instance}", strategy.label());
                simulated += 1;
            }
            simulated
        })
    }

    // Prime strides visit every dimension of the grids.
    #[test]
    fn reduced_walk_equals_full_walk_on_a_grid_sample() {
        assert!(run_differential_grid(SAMPLE_STRIDE) > 0);
    }

    #[test]
    fn tuned_candidates_equal_full_walk_on_a_grid_sample() {
        assert!(run_tune_grid(TUNE_SAMPLE_STRIDE) > 0);
    }

    /// Strides of the tier-1 samples of the simulate and tune grids.
    const SAMPLE_STRIDE: usize = 701;
    const TUNE_SAMPLE_STRIDE: usize = 263;

    #[test]
    #[ignore = "exhaustive; run in release"]
    fn reduced_walk_equals_full_walk_on_the_whole_grid() {
        assert!(run_differential_grid(1) > 0);
        assert!(run_tune_grid(1) > 0);
    }

    #[test]
    fn the_class_collapse_engages() {
        // Report equality cannot see a silent fallback to the full walk:
        // count the ranks that get streams.
        let simulated = |j: &TrainingJob, walk: Walk| {
            let geo = dp_program(j).unwrap().geo;
            stage_cluster(&j.cluster, &geo, walk).simulated().len()
        };
        let small = |nodes: usize, strategy: &str| TrainingJob {
            workload: TransformerConfig::bert_1_5b().workload(8),
            cluster: ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes),
            strategy: Strategy::parse(strategy).unwrap(),
            accum_steps: 4,
        };
        for (strategy, classes) in
            [("mics:8", 2), ("mics:16", 2), ("zero3", 2), ("ddp", 2), ("mics:2", 4), ("mics:4", 4)]
        {
            let j = small(2, strategy);
            assert_eq!(simulated(&j, Walk::Fast), classes, "{strategy}");
            assert_eq!(simulated(&j, Walk::Traced), 16, "{strategy} traced");
            let mut slow = j.clone();
            slow.cluster = slow.cluster.with_slow_node(NodeId(1), 0.5);
            assert_eq!(simulated(&slow, Walk::Fast), 16, "{strategy} with a straggler");
        }
        // Six GPUs per node under mics:4: partition group 1 straddles.
        let mut straddle = small(2, "mics:4");
        straddle.cluster.instance.gpus_per_node = 6;
        assert_eq!(simulated(&straddle, Walk::Fast), 12);
    }

    #[test]
    fn stragglers_take_the_full_walk_and_cost_time() {
        // A collapse that simulated only node 0 would miss a straggler on
        // any other node: put one first, second and last.
        for nodes in [2, 4, 8] {
            let mut clean = job(nodes, Strategy::Mics(MicsConfig::paper_defaults(16)));
            clean.accum_steps = 1;
            let clean_report = equals_full_walk(clean.view(), 1).unwrap();
            for slow in [0, 1, nodes - 1] {
                let mut j = clean.clone();
                j.cluster = j.cluster.with_slow_node(NodeId(slow), 0.25);
                let geo = dp_program(&j).unwrap().geo;
                assert_eq!(interchangeable_stage_nodes(&j.cluster, &geo), None);
                let r = equals_full_walk(j.view(), 1).unwrap();
                assert!(
                    r.iter_time > clean_report.iter_time,
                    "straggler on node {slow} of {nodes} cost nothing"
                );
            }
        }
    }

    #[test]
    fn a_unit_derate_is_no_straggler() {
        // The guard compares NIC rates, not whether a derate was set.
        let mut clean = job(4, Strategy::Mics(MicsConfig::paper_defaults(16)));
        clean.accum_steps = 1;
        let clean_report = simulate_dp(&clean).unwrap();
        // A traced run walks every node and reports the same.
        assert_eq!(simulate_dp_traced(&clean).unwrap().0, clean_report);
        for node in 0..4 {
            let mut j = clean.clone();
            j.cluster = j.cluster.with_slow_node(NodeId(node), 1.0);
            let geo = dp_program(&j).unwrap().geo;
            assert_eq!(interchangeable_stage_nodes(&j.cluster, &geo), Some(4));
            assert_eq!(simulate_dp(&j).unwrap(), clean_report);
        }
    }

    #[test]
    fn a_group_straddling_nodes_takes_the_full_walk() {
        // Six GPUs per node under mics:4: partition group 1 (ranks 4–7)
        // straddles nodes 0 and 1, so node 1 is not a copy of node 0.
        let mut instance = InstanceType::p3dn_24xlarge();
        instance.gpus_per_node = 6;
        let j = TrainingJob {
            workload: TransformerConfig::bert_1_5b().workload(8),
            cluster: ClusterSpec::new(instance, 2),
            strategy: Strategy::Mics(MicsConfig::paper_defaults(4)),
            accum_steps: 2,
        };
        let geo = dp_program(&j).unwrap().geo;
        let straddler = crate::schedule::GroupRef::Partition { stage: 0, g: 1 }.members(&geo);
        assert_eq!(straddler.nodes(6), 2);
        assert_eq!(interchangeable_stage_nodes(&j.cluster, &geo), None);
        equals_full_walk(j.view(), 1).unwrap();
    }
}
