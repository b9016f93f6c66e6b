//! The schedule IR: one typed lowering of the MiCS training step, consumed
//! by both the simulator and the real dataplane.
//!
//! MiCS's contributions (§3.3 hierarchical gather, §3.4 2-hop sync, §4
//! prefetch/overlap) are all *schedule* properties. This module makes the
//! schedule a first-class value: a [`StepProgram`] — a flat list of
//! [`ScheduleOp`]s with explicit op-to-op dependencies and per-op wire
//! annotations ([`WireOp`]) — emitted once per strategy by [`emit_step`]
//! from a [`ScheduleSpec`], then consumed by two backends:
//!
//! * [`execute_on_sim`] replays the program onto a [`SimCluster`] — the
//!   analytic cost backend behind [`crate::simulate`]. The replay is
//!   push-for-push identical to the historical inline lowering in
//!   `dp.rs`, so every simulated number is bit-identical to what that
//!   lowering produced.
//! * the `mics-minidl` executor walks the same program and drives the
//!   real `mics-dataplane` communicators, making the fidelity claim
//!   structural: the dataplane executes the *same program* the simulator
//!   costs.
//!
//! Prefetch depth is not baked into emission: [`emit_step`] produces
//! gathers with no lookahead constraint and [`apply_prefetch`] is a
//! schedule *transform* that adds the backpressure dependencies, so tuner
//! passes can re-run it at different depths without re-emitting.

use crate::config::MicroSync;
use crate::ops::{Lane, SimCluster};
use mics_cluster::{nodes_spanned, Rank};
use mics_collectives::dispatch::{WireCollective, WireKind};
use mics_collectives::NetParams;
use mics_compress::{CompressionConfig, CompressionScope, QuantScheme};
use mics_simnet::{EventId, SimTime};

/// Index of an op inside [`StepProgram::ops`]; dependencies are expressed
/// as these indices.
pub type OpId = usize;

/// Which half of the micro-step a gather or compute belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Forward propagation (ascending layer order).
    Forward,
    /// Backward propagation (descending layer order, with recompute).
    Backward,
}

/// The execution geometry a program is emitted for: `dp` data-parallel
/// ranks per pipeline stage × `pp` stages, with partition groups of `p`
/// ranks inside each stage's dp-world. The world is `dp·pp`, laid out
/// stage-major: rank = `stage·dp + d`. A geometry is an explicit, mutable
/// value — the elastic `reshape` path re-emits the same spec at a new
/// geometry instead of baking the world in at emit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Data-parallel ranks per pipeline stage.
    pub dp: usize,
    /// Pipeline stages (1 = no pipeline dimension).
    pub pp: usize,
    /// Partition group size within one stage's dp-world (`p_params`).
    pub p: usize,
    /// Devices per node.
    pub k: usize,
}

impl Geometry {
    /// The classic MiCS geometry: a flat dp-world with no pipeline stages.
    pub fn flat(n: usize, k: usize, p: usize) -> Geometry {
        Geometry { dp: n, pp: 1, p, k }
    }

    /// Total devices (`dp · pp`).
    pub fn world(&self) -> usize {
        self.dp * self.pp
    }

    /// The pipeline stage a rank belongs to.
    pub fn stage_of(&self, rank: Rank) -> usize {
        rank.0 / self.dp
    }

    /// A rank's index within its stage's dp-world.
    pub fn dp_index(&self, rank: Rank) -> usize {
        rank.0 % self.dp
    }

    /// The global rank at `(stage, d)`.
    pub fn rank(&self, stage: usize, d: usize) -> Rank {
        Rank(stage * self.dp + d)
    }

    /// Partition groups per stage.
    pub fn groups(&self) -> usize {
        self.dp / self.p
    }

    /// The stage owning `layer` when `num_layers` split contiguously over
    /// the `pp` stages (stage 0 for flat geometries).
    pub fn stage_of_layer(&self, layer: usize, num_layers: usize) -> usize {
        if self.pp == 1 {
            0
        } else {
            layer / (num_layers / self.pp)
        }
    }

    /// Whether the geometry is well-formed (`p` divides `dp`, nothing zero).
    pub fn validate(&self) {
        assert!(
            self.dp >= 1 && self.pp >= 1 && self.p >= 1 && self.k >= 1,
            "invalid geometry {self:?}"
        );
        assert!(self.dp.is_multiple_of(self.p), "p={} must divide dp={}", self.p, self.dp);
    }
}

/// A rank group, by construction rather than by member list (§3.2's
/// partition/replication group structure, Figure 2), scoped to one
/// pipeline stage of a [`Geometry`] (stage 0 is the whole cluster for
/// flat geometries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRef {
    /// Partition group `g` of `stage`: the `p` ranks with dp-indices
    /// `g·p .. (g+1)·p`.
    Partition {
        /// Pipeline stage the group lives in.
        stage: usize,
        /// Partition group index within the stage.
        g: usize,
    },
    /// Every rank of one pipeline stage (the whole cluster at `pp = 1`).
    All {
        /// Pipeline stage the group lives in.
        stage: usize,
    },
    /// Replication group `local` of `stage`: the `dp/p` ranks with
    /// dp-index `g·p + local` (stride `p`).
    Replication {
        /// Pipeline stage the group lives in.
        stage: usize,
        /// Local index within the partition group whose shard replicas
        /// this group connects.
        local: usize,
    },
    /// The two ranks exchanging one micro-batch's boundary tensor between
    /// adjacent pipeline stages (the 1F1B p2p channel).
    Pair {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
    },
}

impl GroupRef {
    /// Materialize the member ranks on `geo` — ascending for the
    /// stage-scoped groups, `[from, to]` for pairs.
    pub fn members(&self, geo: &Geometry) -> Vec<Rank> {
        match *self {
            GroupRef::Partition { stage, g } => {
                (g * geo.p..(g + 1) * geo.p).map(|d| geo.rank(stage, d)).collect()
            }
            GroupRef::All { stage } => (0..geo.dp).map(|d| geo.rank(stage, d)).collect(),
            GroupRef::Replication { stage, local } => {
                (0..geo.dp / geo.p).map(|g| geo.rank(stage, g * geo.p + local)).collect()
            }
            GroupRef::Pair { from, to } => vec![from, to],
        }
    }

    /// This rank's index within the group's member list, or `None` if it
    /// does not participate.
    pub fn member_index(&self, rank: Rank, geo: &Geometry) -> Option<usize> {
        let (s, d) = (geo.stage_of(rank), geo.dp_index(rank));
        match *self {
            GroupRef::Partition { stage, g } => {
                (s == stage && g * geo.p <= d && d < (g + 1) * geo.p).then(|| d - g * geo.p)
            }
            GroupRef::All { stage } => (s == stage && rank.0 < geo.world()).then_some(d),
            GroupRef::Replication { stage, local } => {
                (s == stage && d % geo.p == local).then(|| d / geo.p)
            }
            GroupRef::Pair { from, to } => {
                (rank == from).then_some(0).or((rank == to).then_some(1))
            }
        }
    }

    /// Whether `rank` participates in this group.
    pub fn contains(&self, rank: Rank, geo: &Geometry) -> bool {
        self.member_index(rank, geo).is_some()
    }
}

/// Which buffer a gradient reduction consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradSource {
    /// The current micro-step's freshly computed gradient (per-micro-step
    /// synchronization: MiCS hop 1, ZeRO-3's global all-reduce).
    MicroGrad,
    /// The locally accumulated gradient (boundary synchronization: DDP and
    /// ZeRO-1/2's bucketed reduction over the whole iteration).
    Accum,
}

/// The wire-level annotation of a communication op: who talks, on which
/// lane, what algorithm moves how many bytes, and under which codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireOp {
    /// Participating ranks.
    pub group: GroupRef,
    /// The communication stream the op occupies.
    pub lane: Lane,
    /// Algorithm + payload for the α–β cost dispatch
    /// ([`WireCollective::cost`]).
    pub wire: WireCollective,
    /// Quantized-wire scheme for the real dataplane (`None` = exact wire).
    /// The wire-byte model of the same codec lives in `wire.codec`.
    pub scheme: Option<QuantScheme>,
    /// Whether the op pays the plan's host-side decision overhead before
    /// launching (the 2-hop boundary all-reduce does not: its schedule is
    /// fully precomputed, §3.4/§4).
    pub overhead: bool,
}

/// One operation of the step program.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// The global synchronization barrier the "alternative schedule" pays
    /// at every micro-step boundary (§2.3/§3.4): both the compute stream
    /// and the gather lane wait for the previous micro-step's last
    /// gradient reduction.
    MicroBarrier,
    /// All-gather one layer's parameter shards within a partition group.
    GatherShards {
        /// Layer being materialized.
        layer: usize,
        /// Forward or backward re-gather.
        pass: Pass,
        /// Wire annotation.
        wire: WireOp,
    },
    /// One layer's compute: forward, or recompute + backward.
    Compute {
        /// Layer index.
        layer: usize,
        /// Which pass.
        pass: Pass,
        /// FLOPs of the kernel (0 for layers with no compute).
        flops: f64,
    },
    /// Fold the current micro-step's gradient into the local accumulation
    /// buffer — no wire traffic (DDP/ZeRO-1/2 between boundaries, and the
    /// degenerate single-member groups of the sharded schedules).
    AccumGrads {
        /// Gradient bucket index.
        bucket: usize,
    },
    /// Reduce-scatter one gradient bucket (MiCS hop 1 within the partition
    /// group; ZeRO-2 over the cluster at the boundary).
    ReduceScatterGrads {
        /// Gradient bucket index.
        bucket: usize,
        /// Which gradient buffer is reduced.
        source: GradSource,
        /// Wire annotation.
        wire: WireOp,
    },
    /// All-reduce one gradient bucket (ZeRO-3's per-micro-step global
    /// all-reduce; DDP/ZeRO-1's boundary all-reduce).
    AllReduceGrads {
        /// Gradient bucket index.
        bucket: usize,
        /// Which gradient buffer is reduced.
        source: GradSource,
        /// Wire annotation.
        wire: WireOp,
    },
    /// MiCS hop 2 (§3.4): all-reduce one bucket's accumulated gradient
    /// shard across a replication group at the accumulation boundary.
    CrossGroupAllReduce {
        /// Gradient bucket index.
        bucket: usize,
        /// Local rank within the partition group whose shards this op
        /// reduces (one op per `local` in `0..p`).
        local: usize,
        /// Wire annotation.
        wire: WireOp,
    },
    /// The optimizer step: a bandwidth-bound fp32 Adam update over each
    /// device's shard, gated on the last gradient reduction.
    OptimizerUpdate {
        /// Bytes read+written per device (≈ 24 B/parameter over the shard).
        bytes: u64,
        /// Record a completion event (needed when a parameter refresh
        /// follows).
        record: bool,
    },
    /// ZeRO-1/2's boundary parameter refresh: a cluster-wide all-gather of
    /// the updated replicas.
    ParamRefresh {
        /// Wire annotation.
        wire: WireOp,
    },
    /// 1F1B: ship one micro-batch's boundary tensor (forward activation or
    /// backward gradient) to the adjacent pipeline stage. The wire group is
    /// the [`GroupRef::Pair`] of the two ranks; the send carries the
    /// payload bytes and is issued asynchronously by the real backend.
    StageSend {
        /// The receiving stage.
        peer_stage: usize,
        /// Forward (activation) or backward (gradient) boundary tensor.
        pass: Pass,
        /// Wire annotation ([`WireKind::P2p`]).
        wire: WireOp,
    },
    /// 1F1B: block until the matching [`OpKind::StageSend`] from the
    /// adjacent stage lands. Carries zero wire bytes — the send pays for
    /// the transfer; the recv is the dependency edge's landing point.
    StageRecv {
        /// The sending stage.
        peer_stage: usize,
        /// Forward (activation) or backward (gradient) boundary tensor.
        pass: Pass,
        /// Wire annotation ([`WireKind::P2p`], zero bytes).
        wire: WireOp,
    },
}

/// One scheduled operation: kind + position + explicit dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOp {
    /// Micro-step this op belongs to (boundary/optimizer ops carry the
    /// last micro-step's index).
    pub micro: usize,
    /// What the op does.
    pub kind: OpKind,
    /// Ops that must complete (for the participating rank) before this op
    /// may run. The wait kind follows from this op's kind: compute ops
    /// wait on their compute stream, wire ops on their lane.
    pub deps: Vec<OpId>,
}

/// A fully lowered training step: the single schedule both backends
/// consume, parameterized by the geometry it was emitted for.
#[derive(Debug, Clone, PartialEq)]
pub struct StepProgram {
    /// The dp × pp × p geometry the program targets.
    pub geo: Geometry,
    /// Number of model layers.
    pub num_layers: usize,
    /// Micro-steps per iteration.
    pub accum_steps: usize,
    /// Host-side think time charged by ops with `overhead = true`.
    pub decision_overhead: SimTime,
    /// The ops, in emission (and execution) order.
    pub ops: Vec<ScheduleOp>,
}

impl StepProgram {
    /// Total devices (`dp · pp`).
    pub fn n(&self) -> usize {
        self.geo.world()
    }

    /// Devices per node.
    pub fn k(&self) -> usize {
        self.geo.k
    }

    /// Partition group size (`p_params`) within one stage's dp-world.
    pub fn p(&self) -> usize {
        self.geo.p
    }
}

/// Per-layer workload numbers the emitter consumes.
#[derive(Debug, Clone, Copy)]
pub struct LayerSchedule {
    /// Parameter bytes of the layer (at the wire dtype).
    pub param_bytes: u64,
    /// Forward FLOPs.
    pub fwd_flops: f64,
    /// Backward FLOPs including activation recompute.
    pub bwd_flops: f64,
}

/// Everything [`emit_step`] needs to lower one strategy's iteration.
#[derive(Debug, Clone)]
pub struct ScheduleSpec {
    /// Total devices.
    pub n: usize,
    /// Devices per node.
    pub k: usize,
    /// Partition group size for parameters.
    pub p_params: usize,
    /// Shard count for gradients (ZeRO-2 reduces by scatter when > 1).
    pub p_grads: usize,
    /// Shard count for optimizer states.
    pub p_opt: usize,
    /// Per-micro-step gradient handling.
    pub micro_sync: MicroSync,
    /// Micro-steps per iteration.
    pub accum_steps: usize,
    /// Use the §3.3 hierarchical all-gather when the partition group spans
    /// nodes (callers pass the memory-validated decision).
    pub hierarchical: bool,
    /// Batch the hierarchical stage-3 calls through the coalesced API.
    pub coalesced: bool,
    /// Gather-lane lookahead in layers, applied by [`apply_prefetch`].
    pub prefetch_depth: usize,
    /// Host-side think time before each scheduled collective.
    pub decision_overhead: SimTime,
    /// The layers, in forward order.
    pub layers: Vec<LayerSchedule>,
    /// Gradient-bucket fusion threshold (DeepSpeed's `reduce_bucket_size`).
    pub bucket_bytes: u64,
    /// Total parameter bytes (for the ZeRO-1/2 refresh gather).
    pub total_param_bytes: u64,
    /// Optimizer bytes read+written per device (already divided by
    /// `p_opt`).
    pub optimizer_bytes: u64,
    /// Quantized-collective configuration (`None` = full-precision wire).
    pub compression: Option<CompressionConfig>,
    /// Uncompressed element width in bytes (the wire dtype).
    pub elem_bytes: u64,
}

impl ScheduleSpec {
    /// Emit and apply the spec's own prefetch depth: the program both
    /// backends should run.
    pub fn program(&self) -> StepProgram {
        let mut prog = emit_step(self);
        apply_prefetch(&mut prog, self.prefetch_depth);
        prog
    }
}

/// Gradient buckets: consecutive layers in backward order fused until the
/// bucket reaches `bucket_bytes` (zero-parameter layers are skipped).
/// Returns `(layer indices in backward order, fused bytes)` per bucket.
fn bucketize(layers: &[LayerSchedule], bucket_bytes: u64) -> Vec<(Vec<usize>, u64)> {
    let mut out: Vec<(Vec<usize>, u64)> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut bytes = 0u64;
    for idx in 0..layers.len() {
        let l = layers.len() - 1 - idx;
        let b = layers[l].param_bytes;
        if b == 0 {
            continue;
        }
        if !cur.is_empty() && bytes + b > bucket_bytes {
            out.push((std::mem::take(&mut cur), bytes));
            bytes = 0;
        }
        cur.push(l);
        bytes += b;
    }
    if !cur.is_empty() {
        out.push((cur, bytes));
    }
    out
}

/// Lower one iteration of `spec` to a [`StepProgram`].
///
/// The emission order is the contract both backends rely on: forward
/// gathers (layer-ascending, group-ascending), forward computes, backward
/// gathers (layer-descending), backward computes, then per-bucket gradient
/// synchronization, and after the last micro-step the optimizer update and
/// the ZeRO-1/2 parameter refresh. Prefetch dependencies are *not* added
/// here — see [`apply_prefetch`].
///
/// # Panics
/// Panics if `p_params` does not divide `n` or any dimension is zero.
pub fn emit_step(spec: &ScheduleSpec) -> StepProgram {
    let (n, k, p) = (spec.n, spec.k, spec.p_params);
    assert!(n >= 1 && k >= 1 && p >= 1 && n.is_multiple_of(p), "invalid geometry n={n} p={p}");
    let num_layers = spec.layers.len();
    let s = spec.accum_steps;
    let groups = n / p;

    // Codec resolution, mirroring the scope rules of the quantized
    // collectives: gathers and hop-1 reductions stay inside the partition
    // group; collectives that leave it compress only under
    // [`CompressionScope::Everywhere`].
    let cost_model = |c: &CompressionConfig| {
        let mut cm = c.scheme.cost_model();
        cm.elem_bytes = spec.elem_bytes;
        cm
    };
    let weight_codec = spec.compression.filter(|c| c.weights).map(|c| (c.scheme, cost_model(&c)));
    let grad_codec = |beyond_group: bool| {
        spec.compression
            .filter(|c| c.grads)
            .filter(|c| !beyond_group || c.scope == CompressionScope::Everywhere)
            .map(|c| (c.scheme, cost_model(&c)))
    };

    let hier = spec.hierarchical && p > k;
    let gather_wire = |layer: usize, g: usize| WireOp {
        group: GroupRef::Partition { stage: 0, g },
        lane: Lane::Gather,
        wire: WireCollective {
            kind: WireKind::AllGather { hierarchical: hier, coalesced: spec.coalesced },
            participants: p,
            devices_per_node: k,
            bytes: spec.layers[layer].param_bytes,
            codec: weight_codec.map(|(_, cm)| cm),
        },
        scheme: weight_codec.map(|(sch, _)| sch),
        overhead: true,
    };

    let buckets = bucketize(&spec.layers, spec.bucket_bytes);
    // Per-bucket synchronization op template: `(kind, source, wire)` or
    // `None` when the group is trivial and the bucket folds locally.
    enum SyncKind {
        Rs,
        Ar,
    }
    let bucket_sync = |bytes: u64| -> Option<(SyncKind, GradSource, WireOp)> {
        let mk = |kind, source, wk, participants, codec: Option<(QuantScheme, _)>| {
            (
                kind,
                source,
                WireOp {
                    group: if matches!(spec.micro_sync, MicroSync::PartitionReduceScatter) {
                        // Placeholder; rewritten per group below.
                        GroupRef::Partition { stage: 0, g: 0 }
                    } else {
                        GroupRef::All { stage: 0 }
                    },
                    lane: Lane::Reduce,
                    wire: WireCollective {
                        kind: wk,
                        participants,
                        devices_per_node: k,
                        bytes,
                        codec: codec.map(|(_, cm)| cm),
                    },
                    scheme: codec.map(|(sch, _)| sch),
                    overhead: true,
                },
            )
        };
        match spec.micro_sync {
            MicroSync::PartitionReduceScatter => (p > 1).then(|| {
                mk(
                    SyncKind::Rs,
                    GradSource::MicroGrad,
                    WireKind::ReduceScatter,
                    p,
                    grad_codec(false),
                )
            }),
            // The global all-reduce leaves the partition group unless the
            // group *is* the cluster (ZeRO-3 / MiCS with p = n).
            MicroSync::GlobalAllReduce => (n > 1).then(|| {
                mk(
                    SyncKind::Ar,
                    GradSource::MicroGrad,
                    WireKind::AllReduce { stride: 1 },
                    n,
                    grad_codec(p < n),
                )
            }),
            MicroSync::LocalAccumulate => (n > 1).then(|| {
                // The boundary reduction leaves the (trivial) partition
                // group, so only `Everywhere`-scoped compression applies.
                if spec.p_grads > 1 {
                    // ZeRO-2: reduce-scatter over the whole cluster.
                    mk(
                        SyncKind::Rs,
                        GradSource::Accum,
                        WireKind::ReduceScatter,
                        n,
                        grad_codec(true),
                    )
                } else {
                    // DDP / ZeRO-1: bucketed all-reduce over the cluster.
                    mk(
                        SyncKind::Ar,
                        GradSource::Accum,
                        WireKind::AllReduce { stride: 1 },
                        n,
                        grad_codec(true),
                    )
                }
            }),
        }
    };

    let mut ops: Vec<ScheduleOp> = Vec::new();
    // Previous synchronization's reduction ops per layer (the
    // write-after-read hazard on the gradient buffer, §3.4) and per rank
    // cover (for the optimizer's gate).
    let mut war: Vec<Vec<OpId>> = vec![Vec::new(); num_layers];
    let mut last_reduce: Vec<OpId> = Vec::new();
    let mut barrier: Option<OpId> = None;

    for micro in 0..s {
        // ---------- forward ----------
        if spec.micro_sync == MicroSync::GlobalAllReduce {
            if let Some(b) = barrier {
                ops.push(ScheduleOp { micro, kind: OpKind::MicroBarrier, deps: vec![b] });
            }
        }
        let mut fwd_gathers: Vec<Vec<OpId>> = vec![Vec::new(); num_layers];
        for (l, layer) in spec.layers.iter().enumerate() {
            if p == 1 || layer.param_bytes == 0 {
                continue;
            }
            for g in 0..groups {
                fwd_gathers[l].push(ops.len());
                ops.push(ScheduleOp {
                    micro,
                    kind: OpKind::GatherShards {
                        layer: l,
                        pass: Pass::Forward,
                        wire: gather_wire(l, g),
                    },
                    deps: Vec::new(),
                });
            }
        }
        let mut fwd_computes: Vec<OpId> = Vec::with_capacity(num_layers);
        for (l, layer) in spec.layers.iter().enumerate() {
            fwd_computes.push(ops.len());
            ops.push(ScheduleOp {
                micro,
                kind: OpKind::Compute { layer: l, pass: Pass::Forward, flops: layer.fwd_flops },
                deps: fwd_gathers[l].clone(),
            });
        }

        // ---------- backward (reverse layer order) ----------
        let mut bwd_gathers: Vec<Vec<OpId>> = vec![Vec::new(); num_layers];
        for idx in 0..num_layers {
            let l = num_layers - 1 - idx;
            if p == 1 || spec.layers[l].param_bytes == 0 {
                continue;
            }
            for g in 0..groups {
                bwd_gathers[l].push(ops.len());
                ops.push(ScheduleOp {
                    micro,
                    kind: OpKind::GatherShards {
                        layer: l,
                        pass: Pass::Backward,
                        wire: gather_wire(l, g),
                    },
                    deps: Vec::new(),
                });
            }
        }
        let mut bwd_computes: Vec<OpId> = vec![0; num_layers];
        for idx in 0..num_layers {
            let l = num_layers - 1 - idx;
            let mut deps = bwd_gathers[l].clone();
            // Gradient-buffer write-after-read hazard against the previous
            // micro-step's reduction of this layer.
            deps.extend(war[l].iter().copied());
            bwd_computes[l] = ops.len();
            ops.push(ScheduleOp {
                micro,
                kind: OpKind::Compute {
                    layer: l,
                    pass: Pass::Backward,
                    flops: spec.layers[l].bwd_flops,
                },
                deps,
            });
        }

        // ---------- per-micro-step gradient synchronization ----------
        let sync_this_micro = match spec.micro_sync {
            MicroSync::LocalAccumulate => micro == s - 1,
            _ => true,
        };
        let boundary = micro == s - 1;
        for (bi, (bucket_layers, bucket_bytes)) in buckets.iter().enumerate() {
            // A bucket is ready when its last-computed layer (the lowest
            // index — backward runs in decreasing layer order) finishes.
            let ready = bwd_computes[*bucket_layers.last().unwrap()];
            if spec.micro_sync == MicroSync::LocalAccumulate {
                // Local fold every micro-step; the wire only carries the
                // accumulated buffer at the boundary.
                ops.push(ScheduleOp {
                    micro,
                    kind: OpKind::AccumGrads { bucket: bi },
                    deps: vec![ready],
                });
            }
            if !sync_this_micro {
                continue;
            }
            let mut hop1_emitted = false;
            if let Some((kind, source, wire_tpl)) = bucket_sync(*bucket_bytes) {
                let group_list: Vec<GroupRef> =
                    if spec.micro_sync == MicroSync::PartitionReduceScatter {
                        (0..groups).map(|g| GroupRef::Partition { stage: 0, g }).collect()
                    } else {
                        vec![GroupRef::All { stage: 0 }]
                    };
                let mut batch: Vec<OpId> = Vec::with_capacity(group_list.len());
                for group in group_list {
                    let wire = WireOp { group, ..wire_tpl };
                    batch.push(ops.len());
                    ops.push(ScheduleOp {
                        micro,
                        kind: match kind {
                            SyncKind::Rs => OpKind::ReduceScatterGrads { bucket: bi, source, wire },
                            SyncKind::Ar => OpKind::AllReduceGrads { bucket: bi, source, wire },
                        },
                        deps: vec![ready],
                    });
                }
                for &l in bucket_layers {
                    war[l] = batch.clone();
                }
                last_reduce = batch.clone();
                if spec.micro_sync == MicroSync::GlobalAllReduce {
                    // The final bucket's reduction is the last to finish
                    // and forms the next micro-step's barrier.
                    barrier = batch.last().copied();
                }
                hop1_emitted = true;
            } else if spec.micro_sync != MicroSync::LocalAccumulate {
                // Trivial synchronization group (p = 1 hop 1, n = 1 global
                // all-reduce): the micro-gradient folds locally.
                ops.push(ScheduleOp {
                    micro,
                    kind: OpKind::AccumGrads { bucket: bi },
                    deps: vec![ready],
                });
            }
            // 2-hop second hop (§3.4): at the accumulation boundary,
            // all-reduce this bucket's accumulated gradient shard across
            // the replication group — bucketed so it overlaps with the
            // remaining backward compute, just like hop 1.
            if boundary && spec.micro_sync == MicroSync::PartitionReduceScatter && n > p {
                let shard_bytes = bucket_bytes / p as u64;
                if shard_bytes > 0 {
                    // Hop 2 crosses replication groups — beyond the
                    // partition group, so intra-group-only compression
                    // keeps it at full precision.
                    let codec = grad_codec(true);
                    let mut ids: Vec<OpId> = Vec::with_capacity(p);
                    for local in 0..p {
                        let deps = if hop1_emitted { Vec::new() } else { vec![ready] };
                        ids.push(ops.len());
                        ops.push(ScheduleOp {
                            micro,
                            kind: OpKind::CrossGroupAllReduce {
                                bucket: bi,
                                local,
                                wire: WireOp {
                                    group: GroupRef::Replication { stage: 0, local },
                                    lane: Lane::Reduce,
                                    wire: WireCollective {
                                        kind: WireKind::AllReduce { stride: p },
                                        participants: n / p,
                                        devices_per_node: k,
                                        bytes: shard_bytes,
                                        codec: codec.map(|(_, cm)| cm),
                                    },
                                    scheme: codec.map(|(sch, _)| sch),
                                    overhead: false,
                                },
                            },
                            deps,
                        });
                    }
                    last_reduce = ids;
                }
            }
        }
    }

    // ---------- optimizer step + ZeRO-1/2 parameter refresh ----------
    let record = spec.p_opt > 1 && spec.p_params == 1;
    let opt_id = ops.len();
    ops.push(ScheduleOp {
        micro: s - 1,
        kind: OpKind::OptimizerUpdate { bytes: spec.optimizer_bytes, record },
        deps: last_reduce,
    });
    if record && n > 1 {
        ops.push(ScheduleOp {
            micro: s - 1,
            kind: OpKind::ParamRefresh {
                wire: WireOp {
                    group: GroupRef::All { stage: 0 },
                    lane: Lane::Gather,
                    wire: WireCollective {
                        kind: WireKind::AllGather { hierarchical: false, coalesced: false },
                        participants: n,
                        devices_per_node: k,
                        bytes: spec.total_param_bytes,
                        codec: None,
                    },
                    scheme: None,
                    overhead: true,
                },
            },
            deps: vec![opt_id],
        });
    }

    StepProgram {
        geo: Geometry::flat(n, k, p),
        num_layers,
        accum_steps: s,
        decision_overhead: spec.decision_overhead,
        ops,
    }
}

/// A pipeline wrapper around any existing strategy: `inner` describes ONE
/// stage's dp-world (`inner.n` ranks, partition groups of `inner.p_params`)
/// over the FULL layer list; the wrapper splits the layers contiguously
/// over `pp` stages and emits a 1F1B (one-forward-one-backward) schedule
/// with explicit cross-stage [`OpKind::StageSend`]/[`OpKind::StageRecv`]
/// dependency edges. At `pp = 1` it delegates to the flat emitter, so the
/// program (and its dump) is bit-identical to the non-pipelined one.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// The per-stage strategy template; `inner.n` is the dp-world of one
    /// stage, `inner.layers` the full model.
    pub inner: ScheduleSpec,
    /// Pipeline stages.
    pub pp: usize,
    /// Bytes of the boundary activation tensor per micro-batch (the
    /// backward boundary gradient has the same shape).
    pub act_bytes: u64,
}

impl PipelineSpec {
    /// The geometry the emitted program targets.
    pub fn geometry(&self) -> Geometry {
        Geometry { dp: self.inner.n, pp: self.pp, p: self.inner.p_params, k: self.inner.k }
    }

    /// Lower to a [`StepProgram`]. `pp = 1` is exactly the flat program
    /// (including prefetch edges); `pp ≥ 2` emits the 1F1B schedule.
    pub fn program(&self) -> StepProgram {
        if self.pp == 1 {
            self.inner.program()
        } else {
            emit_pipeline(self)
        }
    }
}

/// The elastic `reshape(old, new)` transition at the IR level: assert that
/// `spec` matches the `old` geometry, then re-emit the same strategy and
/// model for `new`. State continuity is the checkpoint layer's job (the
/// resharding path in `mics-minidl`); this function covers the program
/// side — the schedule is a *function of the geometry*, not a baked-in
/// world, so growing or shrinking is a re-emission.
pub fn reshape(spec: &ScheduleSpec, old: &Geometry, new: &Geometry) -> StepProgram {
    assert_eq!(
        (old.dp * old.pp, old.p),
        (spec.n, spec.p_params),
        "spec was not emitted for the old geometry"
    );
    assert_eq!(old.pp, 1, "pipeline reshape is not supported; reshape the per-stage spec");
    new.validate();
    spec.retarget(new.world(), new.k, new.p).program()
}

impl ScheduleSpec {
    /// The same strategy and model at a new flat dp-world: `n` ranks in
    /// nodes of `k`, partition groups of `p`. A state dimension follows the
    /// new `p` iff it was sharded over the whole old partition group
    /// (`== p_params` — at the degenerate `p_params = 1` every dimension
    /// counts as sharded, so growing out of a one-rank group re-shards);
    /// dimensions replicated by choice stay replicated. Shard-proportional
    /// quantities (the per-device optimizer traffic) rescale with the
    /// shard count.
    pub fn retarget(&self, n: usize, k: usize, p: usize) -> ScheduleSpec {
        let follows = |dim: usize| if dim == self.p_params { p } else { 1 };
        let mut s = self.clone();
        s.n = n;
        s.k = k;
        s.p_params = p;
        s.p_grads = follows(self.p_grads);
        let new_p_opt = follows(self.p_opt);
        s.optimizer_bytes = self.optimizer_bytes * self.p_opt as u64 / new_p_opt as u64;
        s.p_opt = new_p_opt;
        s
    }
}

/// The wire annotation of one 1F1B boundary hop: a 2-rank p2p on the lane
/// matching its direction (activations ride the gather lane, gradients the
/// reduce lane, so boundary traffic contends with the stage's own
/// collectives exactly as it would on a real NIC).
fn pair_wire(geo: &Geometry, from: Rank, to: Rank, pass: Pass, bytes: u64) -> WireOp {
    WireOp {
        group: GroupRef::Pair { from, to },
        lane: if pass == Pass::Forward { Lane::Gather } else { Lane::Reduce },
        wire: WireCollective {
            kind: WireKind::P2p { inter_node: from.0 / geo.k != to.0 / geo.k },
            participants: 2,
            devices_per_node: geo.k,
            bytes,
            codec: None,
        },
        scheme: None,
        overhead: false,
    }
}

/// Mutable emission state of the 1F1B lowering.
struct PipeEmit<'a> {
    spec: &'a PipelineSpec,
    geo: Geometry,
    ops: Vec<ScheduleOp>,
    /// Per `(stage, micro)`: the forward activation sends (one per dp
    /// index), once emitted.
    sent_act: Vec<Vec<Option<Vec<OpId>>>>,
    /// Per `(stage, micro)`: the backward gradient sends.
    sent_grad: Vec<Vec<Option<Vec<OpId>>>>,
    /// Write-after-read hazard per global layer (§3.4), as in the flat
    /// emitter.
    war: Vec<Vec<OpId>>,
    /// Per stage: the ops the optimizer must gate on.
    last_reduce: Vec<Vec<OpId>>,
    /// Per stage: gradient buckets over the stage's layer slice (global
    /// layer indices).
    buckets: Vec<Vec<(Vec<usize>, u64)>>,
}

impl PipeEmit<'_> {
    fn layers_per_stage(&self) -> usize {
        self.spec.inner.layers.len() / self.spec.pp
    }

    fn gather_wire(&self, layer: usize, stage: usize, g: usize, hier: bool) -> WireOp {
        let inner = &self.spec.inner;
        WireOp {
            group: GroupRef::Partition { stage, g },
            lane: Lane::Gather,
            wire: WireCollective {
                kind: WireKind::AllGather { hierarchical: hier, coalesced: inner.coalesced },
                participants: self.geo.p,
                devices_per_node: self.geo.k,
                bytes: inner.layers[layer].param_bytes,
                codec: None,
            },
            scheme: None,
            overhead: true,
        }
    }

    /// One stage's forward action for micro-batch `j`: recv the activation
    /// from the previous stage, gather + compute the stage's layers, send
    /// the activation onward.
    fn forward(&mut self, s: usize, j: usize) {
        let geo = self.geo;
        let (dp, p, per) = (geo.dp, geo.p, self.layers_per_stage());
        let (lo, hi) = (s * per, (s + 1) * per);
        let hier = self.spec.inner.hierarchical && p > geo.k;
        let mut recv_ids: Vec<OpId> = Vec::new();
        if s > 0 {
            let sends = self.sent_act[s - 1][j].clone().expect("1F1B dep not yet emitted");
            for (d, &send) in sends.iter().enumerate().take(dp) {
                recv_ids.push(self.ops.len());
                self.ops.push(ScheduleOp {
                    micro: j,
                    kind: OpKind::StageRecv {
                        peer_stage: s - 1,
                        pass: Pass::Forward,
                        wire: pair_wire(&geo, geo.rank(s - 1, d), geo.rank(s, d), Pass::Forward, 0),
                    },
                    deps: vec![send],
                });
            }
        }
        let mut gathers: Vec<Vec<OpId>> = vec![Vec::new(); per];
        for l in lo..hi {
            if p == 1 || self.spec.inner.layers[l].param_bytes == 0 {
                continue;
            }
            for g in 0..geo.groups() {
                gathers[l - lo].push(self.ops.len());
                self.ops.push(ScheduleOp {
                    micro: j,
                    kind: OpKind::GatherShards {
                        layer: l,
                        pass: Pass::Forward,
                        wire: self.gather_wire(l, s, g, hier),
                    },
                    deps: Vec::new(),
                });
            }
        }
        let mut last = 0;
        for l in lo..hi {
            let mut deps = gathers[l - lo].clone();
            if l == lo {
                deps.extend(recv_ids.iter().copied());
            }
            last = self.ops.len();
            self.ops.push(ScheduleOp {
                micro: j,
                kind: OpKind::Compute {
                    layer: l,
                    pass: Pass::Forward,
                    flops: self.spec.inner.layers[l].fwd_flops,
                },
                deps,
            });
        }
        if s < self.spec.pp - 1 {
            let mut ids = Vec::with_capacity(dp);
            for d in 0..dp {
                ids.push(self.ops.len());
                self.ops.push(ScheduleOp {
                    micro: j,
                    kind: OpKind::StageSend {
                        peer_stage: s + 1,
                        pass: Pass::Forward,
                        wire: pair_wire(
                            &geo,
                            geo.rank(s, d),
                            geo.rank(s + 1, d),
                            Pass::Forward,
                            self.spec.act_bytes,
                        ),
                    },
                    deps: vec![last],
                });
            }
            self.sent_act[s][j] = Some(ids);
        }
    }

    /// One stage's backward action for micro-batch `i`: recv the boundary
    /// gradient, re-gather + backprop the stage's layers (descending), send
    /// the gradient to the previous stage, then the stage-scoped gradient
    /// synchronization — the same hop-1/hop-2 structure the flat emitter
    /// produces, with every group scoped to this stage.
    fn backward(&mut self, s: usize, i: usize) {
        let geo = self.geo;
        let inner = &self.spec.inner;
        let pp = self.spec.pp;
        let (dp, p, per) = (geo.dp, geo.p, self.layers_per_stage());
        let (lo, hi) = (s * per, (s + 1) * per);
        let m = inner.accum_steps;
        let hier = inner.hierarchical && p > geo.k;
        let mut recv_ids: Vec<OpId> = Vec::new();
        if s < pp - 1 {
            let sends = self.sent_grad[s + 1][i].clone().expect("1F1B dep not yet emitted");
            for (d, &send) in sends.iter().enumerate().take(dp) {
                recv_ids.push(self.ops.len());
                self.ops.push(ScheduleOp {
                    micro: i,
                    kind: OpKind::StageRecv {
                        peer_stage: s + 1,
                        pass: Pass::Backward,
                        wire: pair_wire(
                            &geo,
                            geo.rank(s + 1, d),
                            geo.rank(s, d),
                            Pass::Backward,
                            0,
                        ),
                    },
                    deps: vec![send],
                });
            }
        }
        let mut gathers: Vec<Vec<OpId>> = vec![Vec::new(); per];
        for idx in 0..per {
            let l = hi - 1 - idx;
            if p == 1 || inner.layers[l].param_bytes == 0 {
                continue;
            }
            for g in 0..geo.groups() {
                gathers[l - lo].push(self.ops.len());
                self.ops.push(ScheduleOp {
                    micro: i,
                    kind: OpKind::GatherShards {
                        layer: l,
                        pass: Pass::Backward,
                        wire: self.gather_wire(l, s, g, hier),
                    },
                    deps: Vec::new(),
                });
            }
        }
        let mut bwd_compute_of: Vec<OpId> = vec![0; per];
        for idx in 0..per {
            let l = hi - 1 - idx;
            let mut deps = gathers[l - lo].clone();
            deps.extend(self.war[l].iter().copied());
            if l == hi - 1 {
                deps.extend(recv_ids.iter().copied());
            }
            bwd_compute_of[l - lo] = self.ops.len();
            self.ops.push(ScheduleOp {
                micro: i,
                kind: OpKind::Compute {
                    layer: l,
                    pass: Pass::Backward,
                    flops: inner.layers[l].bwd_flops,
                },
                deps,
            });
        }
        if s > 0 {
            let last_bwd = bwd_compute_of[0];
            let mut ids = Vec::with_capacity(dp);
            for d in 0..dp {
                ids.push(self.ops.len());
                self.ops.push(ScheduleOp {
                    micro: i,
                    kind: OpKind::StageSend {
                        peer_stage: s - 1,
                        pass: Pass::Backward,
                        wire: pair_wire(
                            &geo,
                            geo.rank(s, d),
                            geo.rank(s - 1, d),
                            Pass::Backward,
                            self.spec.act_bytes,
                        ),
                    },
                    deps: vec![last_bwd],
                });
            }
            self.sent_grad[s][i] = Some(ids);
        }

        // ---- stage-scoped gradient synchronization ----
        let boundary = i == m - 1;
        let sync_this_micro = match inner.micro_sync {
            MicroSync::LocalAccumulate => boundary,
            _ => true,
        };
        let buckets = self.buckets[s].clone();
        for (bi, (bucket_layers, bucket_bytes)) in buckets.iter().enumerate() {
            let ready = bwd_compute_of[bucket_layers.last().unwrap() - lo];
            if inner.micro_sync == MicroSync::LocalAccumulate {
                self.ops.push(ScheduleOp {
                    micro: i,
                    kind: OpKind::AccumGrads { bucket: bi },
                    deps: vec![ready],
                });
            }
            if !sync_this_micro {
                continue;
            }
            let grad_wire = |group, kind, participants, bytes| WireOp {
                group,
                lane: Lane::Reduce,
                wire: WireCollective {
                    kind,
                    participants,
                    devices_per_node: geo.k,
                    bytes,
                    codec: None,
                },
                scheme: None,
                overhead: true,
            };
            let mut hop1_emitted = false;
            match inner.micro_sync {
                MicroSync::PartitionReduceScatter if p > 1 => {
                    let mut batch = Vec::with_capacity(geo.groups());
                    for g in 0..geo.groups() {
                        batch.push(self.ops.len());
                        self.ops.push(ScheduleOp {
                            micro: i,
                            kind: OpKind::ReduceScatterGrads {
                                bucket: bi,
                                source: GradSource::MicroGrad,
                                wire: grad_wire(
                                    GroupRef::Partition { stage: s, g },
                                    WireKind::ReduceScatter,
                                    p,
                                    *bucket_bytes,
                                ),
                            },
                            deps: vec![ready],
                        });
                    }
                    for &l in bucket_layers {
                        self.war[l] = batch.clone();
                    }
                    self.last_reduce[s] = batch;
                    hop1_emitted = true;
                }
                MicroSync::GlobalAllReduce if dp > 1 => {
                    // Within-stage ZeRO-3-style all-reduce. Pipeline
                    // programs never emit the alternative-schedule
                    // MicroBarrier: 1F1B's cross-stage edges already
                    // serialize the micro-steps a stage can overlap.
                    let id = self.ops.len();
                    self.ops.push(ScheduleOp {
                        micro: i,
                        kind: OpKind::AllReduceGrads {
                            bucket: bi,
                            source: GradSource::MicroGrad,
                            wire: grad_wire(
                                GroupRef::All { stage: s },
                                WireKind::AllReduce { stride: 1 },
                                dp,
                                *bucket_bytes,
                            ),
                        },
                        deps: vec![ready],
                    });
                    for &l in bucket_layers {
                        self.war[l] = vec![id];
                    }
                    self.last_reduce[s] = vec![id];
                    hop1_emitted = true;
                }
                MicroSync::LocalAccumulate if dp > 1 => {
                    let (kind, wk) = if inner.p_grads > 1 {
                        (SyncEmit::Rs, WireKind::ReduceScatter)
                    } else {
                        (SyncEmit::Ar, WireKind::AllReduce { stride: 1 })
                    };
                    let id = self.ops.len();
                    let wire = grad_wire(GroupRef::All { stage: s }, wk, dp, *bucket_bytes);
                    self.ops.push(ScheduleOp {
                        micro: i,
                        kind: match kind {
                            SyncEmit::Rs => OpKind::ReduceScatterGrads {
                                bucket: bi,
                                source: GradSource::Accum,
                                wire,
                            },
                            SyncEmit::Ar => OpKind::AllReduceGrads {
                                bucket: bi,
                                source: GradSource::Accum,
                                wire,
                            },
                        },
                        deps: vec![ready],
                    });
                    self.last_reduce[s] = vec![id];
                }
                MicroSync::LocalAccumulate => {}
                _ => {
                    // Trivial synchronization group: fold locally.
                    self.ops.push(ScheduleOp {
                        micro: i,
                        kind: OpKind::AccumGrads { bucket: bi },
                        deps: vec![ready],
                    });
                }
            }
            if boundary && inner.micro_sync == MicroSync::PartitionReduceScatter && dp > p {
                let shard_bytes = bucket_bytes / p as u64;
                if shard_bytes > 0 {
                    let mut ids = Vec::with_capacity(p);
                    for local in 0..p {
                        let deps = if hop1_emitted { Vec::new() } else { vec![ready] };
                        ids.push(self.ops.len());
                        self.ops.push(ScheduleOp {
                            micro: i,
                            kind: OpKind::CrossGroupAllReduce {
                                bucket: bi,
                                local,
                                wire: WireOp {
                                    group: GroupRef::Replication { stage: s, local },
                                    lane: Lane::Reduce,
                                    wire: WireCollective {
                                        kind: WireKind::AllReduce { stride: p },
                                        participants: dp / p,
                                        devices_per_node: geo.k,
                                        bytes: shard_bytes,
                                        codec: None,
                                    },
                                    scheme: None,
                                    overhead: false,
                                },
                            },
                            deps,
                        });
                    }
                    self.last_reduce[s] = ids;
                }
            }
        }
    }
}

/// Per-bucket sync flavor of the pipeline emitter's boundary path.
enum SyncEmit {
    Rs,
    Ar,
}

/// Lower one iteration of a `pp ≥ 2` [`PipelineSpec`] to a [`StepProgram`]
/// with the 1F1B interleave.
///
/// Per stage `s`, the action list is the classic warmup/steady/cooldown
/// split — `w = min(pp−1−s, m)` forwards, then `(m−w)` one-forward-one-
/// backward pairs, then `w` backwards — and emission round-robins over the
/// stages, emitting a stage's next action as soon as its cross-stage
/// dependency (the matching send) has been emitted. Dependencies therefore
/// always point backward, and both backends can execute the ops in listed
/// order.
///
/// # Panics
/// Panics if `pp < 2`, the stages do not evenly split the layers, or the
/// spec carries wire compression (not yet supported with pipelining).
pub fn emit_pipeline(spec: &PipelineSpec) -> StepProgram {
    let geo = spec.geometry();
    geo.validate();
    let inner = &spec.inner;
    let pp = spec.pp;
    assert!(pp >= 2, "emit_pipeline needs pp >= 2; pp = 1 is the flat emitter");
    assert!(inner.compression.is_none(), "wire compression is not supported in pipeline programs");
    let nl = inner.layers.len();
    assert!(nl.is_multiple_of(pp), "pp={pp} must evenly split {nl} layers");
    let per = nl / pp;
    let m = inner.accum_steps;

    #[derive(Clone, Copy)]
    enum Act {
        F(usize),
        B(usize),
    }
    let actions: Vec<Vec<Act>> = (0..pp)
        .map(|s| {
            let w = (pp - 1 - s).min(m);
            let mut v = Vec::with_capacity(2 * m);
            for j in 0..w {
                v.push(Act::F(j));
            }
            for i in 0..m - w {
                v.push(Act::F(w + i));
                v.push(Act::B(i));
            }
            for i in m - w..m {
                v.push(Act::B(i));
            }
            v
        })
        .collect();

    let buckets = (0..pp)
        .map(|s| {
            bucketize(&inner.layers[s * per..(s + 1) * per], inner.bucket_bytes)
                .into_iter()
                .map(|(ls, b)| (ls.into_iter().map(|l| l + s * per).collect::<Vec<_>>(), b))
                .collect()
        })
        .collect();
    let mut st = PipeEmit {
        spec,
        geo,
        ops: Vec::new(),
        sent_act: vec![vec![None; m]; pp],
        sent_grad: vec![vec![None; m]; pp],
        war: vec![Vec::new(); nl],
        last_reduce: vec![Vec::new(); pp],
        buckets,
    };

    let mut next = vec![0usize; pp];
    let total: usize = actions.iter().map(Vec::len).sum();
    let mut emitted = 0usize;
    while emitted < total {
        let mut progressed = false;
        for s in 0..pp {
            if next[s] >= actions[s].len() {
                continue;
            }
            let ready = match actions[s][next[s]] {
                Act::F(j) => s == 0 || st.sent_act[s - 1][j].is_some(),
                Act::B(i) => s == pp - 1 || st.sent_grad[s + 1][i].is_some(),
            };
            if !ready {
                continue;
            }
            match actions[s][next[s]] {
                Act::F(j) => st.forward(s, j),
                Act::B(i) => st.backward(s, i),
            }
            next[s] += 1;
            emitted += 1;
            progressed = true;
        }
        assert!(progressed, "1F1B emission wedged — unsatisfiable cross-stage dependency");
    }

    // ---- optimizer + per-stage ZeRO-1/2 refresh ----
    let record = inner.p_opt > 1 && inner.p_params == 1;
    let opt_deps: Vec<OpId> = st.last_reduce.iter().flatten().copied().collect();
    let opt_id = st.ops.len();
    st.ops.push(ScheduleOp {
        micro: m - 1,
        kind: OpKind::OptimizerUpdate { bytes: inner.optimizer_bytes / pp as u64, record },
        deps: opt_deps,
    });
    if record && geo.dp > 1 {
        for s in 0..pp {
            st.ops.push(ScheduleOp {
                micro: m - 1,
                kind: OpKind::ParamRefresh {
                    wire: WireOp {
                        group: GroupRef::All { stage: s },
                        lane: Lane::Gather,
                        wire: WireCollective {
                            kind: WireKind::AllGather { hierarchical: false, coalesced: false },
                            participants: geo.dp,
                            devices_per_node: geo.k,
                            bytes: inner.total_param_bytes / pp as u64,
                            codec: None,
                        },
                        scheme: None,
                        overhead: true,
                    },
                },
                deps: vec![opt_id],
            });
        }
    }

    StepProgram {
        geo,
        num_layers: nl,
        accum_steps: m,
        decision_overhead: inner.decision_overhead,
        ops: st.ops,
    }
}

/// Add prefetch-backpressure dependencies to every gather: the gather for
/// layer `l` may start once layer `l - depth - 1` (forward) or its mirror
/// (backward) has computed in the same micro-step. This is the §4 overlap
/// window as a schedule transform — call it once per program.
pub fn apply_prefetch(prog: &mut StepProgram, depth: usize) {
    let nl = prog.num_layers;
    // (micro, pass, layer) → compute op.
    let slot = |micro: usize, pass: Pass, layer: usize| {
        micro * 2 * nl + if pass == Pass::Forward { layer } else { nl + layer }
    };
    let mut computes: Vec<OpId> = vec![usize::MAX; prog.accum_steps * 2 * nl];
    for (i, op) in prog.ops.iter().enumerate() {
        if let OpKind::Compute { layer, pass, .. } = op.kind {
            computes[slot(op.micro, pass, layer)] = i;
        }
    }
    for i in 0..prog.ops.len() {
        let (micro, layer, pass) = match prog.ops[i].kind {
            OpKind::GatherShards { layer, pass, .. } => (prog.ops[i].micro, layer, pass),
            _ => continue,
        };
        let dep_layer = match pass {
            Pass::Forward => {
                if layer > depth {
                    layer - depth - 1
                } else {
                    continue;
                }
            }
            Pass::Backward => {
                let idx = nl - 1 - layer;
                if idx > depth {
                    nl - 1 - (idx - depth - 1)
                } else {
                    continue;
                }
            }
        };
        let dep = computes[slot(micro, pass, dep_layer)];
        debug_assert_ne!(dep, usize::MAX, "compute op missing for prefetch dep");
        prog.ops[i].deps.push(dep);
    }
}

impl StepProgram {
    /// The wire annotation of an op, if it is a communication op.
    pub fn wire_of(&self, id: OpId) -> Option<&WireOp> {
        match &self.ops[id].kind {
            OpKind::GatherShards { wire, .. }
            | OpKind::ReduceScatterGrads { wire, .. }
            | OpKind::AllReduceGrads { wire, .. }
            | OpKind::CrossGroupAllReduce { wire, .. }
            | OpKind::ParamRefresh { wire }
            | OpKind::StageSend { wire, .. }
            | OpKind::StageRecv { wire, .. } => Some(wire),
            _ => None,
        }
    }

    /// Whether `rank` executes wire op `id` on a real backend. A pair
    /// group *contains* both endpoints, but each side of the boundary
    /// executes only its half: the send runs on `from`, the recv on `to`.
    /// Every other wire op runs on each group member.
    pub fn executes_wire(&self, id: OpId, rank: Rank) -> bool {
        let Some(w) = self.wire_of(id) else { return false };
        match self.ops[id].kind {
            OpKind::StageSend { .. } => {
                matches!(w.group, GroupRef::Pair { from, .. } if from == rank)
            }
            OpKind::StageRecv { .. } => {
                matches!(w.group, GroupRef::Pair { to, .. } if to == rank)
            }
            _ => w.group.contains(rank, &self.geo),
        }
    }

    /// Op ids of every communication op, in program order.
    pub fn wire_ops(&self) -> Vec<OpId> {
        (0..self.ops.len()).filter(|&i| self.wire_of(i).is_some()).collect()
    }

    /// Cluster-wide NIC wire volume of one iteration derived from the IR:
    /// each op contributes its per-node NIC bytes × the nodes its group
    /// touches. This is what the report's `nic_bytes_per_node` divides.
    pub fn total_nic_bytes(&self, net: &NetParams) -> u64 {
        self.wire_ops()
            .iter()
            .map(|&i| {
                let w = self.wire_of(i).unwrap();
                w.wire.cost(net).nic_bytes() * nodes_spanned(&w.group.members(&self.geo), self.k())
            })
            .sum()
    }

    /// A stable, human-diffable rendering of the program, used by the
    /// golden-schedule snapshot tests to pin the emitters' output.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let flat = self.geo.pp == 1;
        if flat {
            // Legacy single-stage header: byte-identical to the pre-geometry
            // emitters so existing goldens stay pinned.
            let _ = writeln!(
                out,
                "schedule n={} k={} p={} layers={} accum={} overhead_us={}",
                self.n(),
                self.k(),
                self.p(),
                self.num_layers,
                self.accum_steps,
                self.decision_overhead.as_secs_f64() * 1e6,
            );
        } else {
            let _ = writeln!(
                out,
                "schedule dp={} pp={} k={} p={} layers={} accum={} overhead_us={}",
                self.geo.dp,
                self.geo.pp,
                self.k(),
                self.p(),
                self.num_layers,
                self.accum_steps,
                self.decision_overhead.as_secs_f64() * 1e6,
            );
        }
        let group = move |gr: &GroupRef| match *gr {
            GroupRef::Partition { g, .. } if flat => format!("part{g}"),
            GroupRef::All { .. } if flat => "all".into(),
            GroupRef::Replication { local, .. } if flat => format!("repl{local}"),
            GroupRef::Partition { stage, g } => format!("s{stage}:part{g}"),
            GroupRef::All { stage } => format!("s{stage}:all"),
            GroupRef::Replication { stage, local } => format!("s{stage}:repl{local}"),
            GroupRef::Pair { from, to } => format!("r{}->r{}", from.0, to.0),
        };
        let wire = |w: &WireOp| {
            let alg = match w.wire.kind {
                WireKind::AllGather { hierarchical: true, .. } => "ag-hier",
                WireKind::AllGather { hierarchical: false, .. } => "ag",
                WireKind::ReduceScatter => "rs",
                WireKind::AllReduce { .. } => "ar",
                WireKind::P2p { .. } => "p2p",
            };
            let codec = match w.scheme {
                Some(s) => format!("+{}", s.label()),
                None => String::new(),
            };
            format!("{} {} {}B{}", group(&w.group), alg, w.wire.bytes, codec)
        };
        for (i, op) in self.ops.iter().enumerate() {
            let body = match &op.kind {
                OpKind::MicroBarrier => "barrier".to_string(),
                OpKind::GatherShards { layer, pass, wire: w } => {
                    let p = if *pass == Pass::Forward { "fwd" } else { "bwd" };
                    format!("gather.{p} l{layer} {}", wire(w))
                }
                OpKind::Compute { layer, pass, flops } => {
                    let p = if *pass == Pass::Forward { "fwd" } else { "bwd" };
                    format!("compute.{p} l{layer} {flops:.3e}fl")
                }
                OpKind::AccumGrads { bucket } => format!("accum b{bucket}"),
                OpKind::ReduceScatterGrads { bucket, source, wire: w } => {
                    format!("reduce-scatter b{bucket} {source:?} {}", wire(w))
                }
                OpKind::AllReduceGrads { bucket, source, wire: w } => {
                    format!("all-reduce b{bucket} {source:?} {}", wire(w))
                }
                OpKind::CrossGroupAllReduce { bucket, local, wire: w } => {
                    format!("hop2 b{bucket} local{local} {}", wire(w))
                }
                OpKind::OptimizerUpdate { bytes, record } => {
                    format!("optimizer {bytes}B record={record}")
                }
                OpKind::ParamRefresh { wire: w } => format!("param-refresh {}", wire(w)),
                OpKind::StageSend { peer_stage, pass, wire: w } => {
                    let p = if *pass == Pass::Forward { "fwd" } else { "bwd" };
                    format!("send.{p} s{peer_stage} {}", wire(w))
                }
                OpKind::StageRecv { peer_stage, pass, wire: w } => {
                    let p = if *pass == Pass::Forward { "fwd" } else { "bwd" };
                    format!("recv.{p} s{peer_stage} {}", wire(w))
                }
            };
            let _ = writeln!(out, "[{i:03}] u{} {body} deps={:?}", op.micro, op.deps);
        }
        out
    }
}

/// What pushing a program onto the simulator produced.
#[derive(Debug, Clone)]
pub struct SimExecution {
    /// Cluster-wide NIC wire bytes accumulated over every emitted
    /// collective (per-node bytes × nodes spanned).
    pub nic_bytes_total: u64,
    /// Op ids of the wire collectives in the order they were costed.
    pub wire_ops: Vec<OpId>,
}

/// The simulator backend: replay `prog` push-for-push onto `sc`.
///
/// The replay reproduces the historical inline lowering exactly — same
/// per-stream op sequences, same event-allocation order — so a program
/// emitted from a strategy produces bit-identical simulation results to
/// the pre-IR code. Call [`SimCluster::run`]/[`SimCluster::run_traced`]
/// afterwards.
pub fn execute_on_sim(
    prog: &StepProgram,
    sc: &mut SimCluster,
    sustained_flops: f64,
) -> SimExecution {
    let geo = prog.geo;
    let (n, k) = (geo.world(), geo.k);
    let nl = prog.num_layers;
    let memcpy_bw = sc.spec.instance.memcpy_bw;
    // Per-op completion events, parallel to `prog.ops` (wire ops: one per
    // member; optimizer: one per rank when recorded).
    let mut op_events: Vec<Option<Vec<EventId>>> = vec![None; prog.ops.len()];
    // Compute-done event tables of the current (micro, pass) segment,
    // pre-allocated rank-major like the historical lowering so gathers can
    // reference compute events that have not been pushed yet.
    let mut fwd_tbl: Vec<Vec<EventId>> = Vec::new();
    let mut bwd_tbl: Vec<Vec<EventId>> = Vec::new();
    let mut segment: Option<(usize, Pass)> = None;
    let mut nic_total: u64 = 0;
    let mut wire_log: Vec<OpId> = Vec::new();

    // Resolve `dep` to the completion event `rank` must wait on, or `None`
    // when the rank does not participate in the dep op.
    let resolve = |ops: &[ScheduleOp],
                   op_events: &[Option<Vec<EventId>>],
                   fwd_tbl: &[Vec<EventId>],
                   bwd_tbl: &[Vec<EventId>],
                   dep: OpId,
                   rank: Rank|
     -> Option<EventId> {
        match &ops[dep].kind {
            OpKind::Compute { layer, pass, .. } => {
                // Only the stage owning the layer records the event; every
                // other rank (a pair peer, another stage) must not wait on
                // a never-recorded slot.
                if geo.stage_of(rank) != geo.stage_of_layer(*layer, nl) {
                    return None;
                }
                let tbl = if *pass == Pass::Forward { fwd_tbl } else { bwd_tbl };
                Some(tbl[rank.0][*layer])
            }
            OpKind::GatherShards { wire, .. }
            | OpKind::ReduceScatterGrads { wire, .. }
            | OpKind::AllReduceGrads { wire, .. }
            | OpKind::CrossGroupAllReduce { wire, .. }
            | OpKind::ParamRefresh { wire }
            | OpKind::StageSend { wire, .. } => wire
                .group
                .member_index(rank, &geo)
                .map(|ix| op_events[dep].as_ref().expect("dep op not yet executed")[ix]),
            // A recv holds no event of its own: a dep on it forwards to the
            // matching send's arrival event (the recv's only dep).
            OpKind::StageRecv { .. } => {
                let send = ops[dep].deps[0];
                match &ops[send].kind {
                    OpKind::StageSend { wire, .. } => wire
                        .group
                        .member_index(rank, &geo)
                        .map(|ix| op_events[send].as_ref().expect("send op not yet executed")[ix]),
                    _ => None,
                }
            }
            OpKind::OptimizerUpdate { .. } => op_events[dep].as_ref().map(|v| v[rank.0]),
            OpKind::MicroBarrier | OpKind::AccumGrads { .. } => None,
        }
    };

    for (i, op) in prog.ops.iter().enumerate() {
        // A new (micro, pass) segment pre-allocates its compute-done event
        // table before any of the segment's ops push work.
        if let OpKind::GatherShards { pass, .. } | OpKind::Compute { pass, .. } = op.kind {
            if segment != Some((op.micro, pass)) {
                let tbl = if pass == Pass::Forward { &mut fwd_tbl } else { &mut bwd_tbl };
                *tbl = (0..n).map(|_| (0..nl).map(|_| sc.new_event()).collect()).collect();
                segment = Some((op.micro, pass));
            }
        }
        match &op.kind {
            OpKind::MicroBarrier => {
                for r in 0..n {
                    for &d in &op.deps {
                        if let Some(e) =
                            resolve(&prog.ops, &op_events, &fwd_tbl, &bwd_tbl, d, Rank(r))
                        {
                            sc.compute_wait(Rank(r), e);
                            sc.lane_wait(Lane::Gather, Rank(r), e);
                        }
                    }
                }
            }
            OpKind::Compute { layer, pass, flops } => {
                let owner = geo.stage_of_layer(*layer, nl);
                let tbl = if *pass == Pass::Forward { &fwd_tbl } else { &bwd_tbl };
                for (r, row) in tbl.iter().enumerate() {
                    if geo.stage_of(Rank(r)) != owner {
                        continue;
                    }
                    for &d in &op.deps {
                        if let Some(e) =
                            resolve(&prog.ops, &op_events, &fwd_tbl, &bwd_tbl, d, Rank(r))
                        {
                            sc.compute_wait(Rank(r), e);
                        }
                    }
                    sc.compute_kernel(Rank(r), *flops, sustained_flops);
                    sc.compute_record_into(Rank(r), row[*layer]);
                }
            }
            OpKind::AccumGrads { .. } => {} // local fold: no simulated work
            OpKind::StageRecv { wire, .. } => {
                // Zero-byte landing point: the matching send already paid
                // the transfer, so the receiving endpoint only waits for
                // the arrival event on its lane.
                if let GroupRef::Pair { to, .. } = wire.group {
                    for &d in &op.deps {
                        if let Some(e) = resolve(&prog.ops, &op_events, &fwd_tbl, &bwd_tbl, d, to) {
                            sc.lane_wait(wire.lane, to, e);
                        }
                    }
                }
                wire_log.push(i);
            }
            OpKind::GatherShards { wire, .. }
            | OpKind::ReduceScatterGrads { wire, .. }
            | OpKind::AllReduceGrads { wire, .. }
            | OpKind::CrossGroupAllReduce { wire, .. }
            | OpKind::ParamRefresh { wire }
            | OpKind::StageSend { wire, .. } => {
                let members = wire.group.members(&geo);
                for &d in &op.deps {
                    for &m in &members {
                        // A boundary send's deps live on the sender, but the
                        // sim pushes the transfer phases on the lowest-ranked
                        // member's stream — which is the *receiver* for a
                        // backward pair — so every endpoint gates on them.
                        let res_rank = match (&op.kind, wire.group) {
                            (OpKind::StageSend { .. }, GroupRef::Pair { from, .. }) => from,
                            _ => m,
                        };
                        if let Some(e) =
                            resolve(&prog.ops, &op_events, &fwd_tbl, &bwd_tbl, d, res_rank)
                        {
                            sc.lane_wait(wire.lane, m, e);
                        }
                    }
                }
                let cost = wire.wire.cost(&sc.net);
                nic_total += cost.nic_bytes() * nodes_spanned(&members, k);
                let overhead = if wire.overhead { prog.decision_overhead } else { SimTime::ZERO };
                // The sim wants ascending ranks; a backward pair is
                // [from > to], so sort for the push and permute the events
                // back into the group's member order.
                let evs = if members.windows(2).all(|w| w[0] < w[1]) {
                    sc.collective(&members, wire.lane, &cost, overhead)
                } else {
                    let mut sorted = members.clone();
                    sorted.sort();
                    let by_sorted = sc.collective(&sorted, wire.lane, &cost, overhead);
                    members
                        .iter()
                        .map(|m| by_sorted[sorted.iter().position(|x| x == m).unwrap()])
                        .collect()
                };
                op_events[i] = Some(evs);
                wire_log.push(i);
            }
            OpKind::OptimizerUpdate { bytes, record } => {
                let opt_time = SimTime::from_secs_f64(*bytes as f64 / memcpy_bw);
                let mut evs = Vec::with_capacity(if *record { n } else { 0 });
                for r in 0..n {
                    for &d in &op.deps {
                        if let Some(e) =
                            resolve(&prog.ops, &op_events, &fwd_tbl, &bwd_tbl, d, Rank(r))
                        {
                            sc.compute_wait(Rank(r), e);
                        }
                    }
                    sc.compute_for(Rank(r), opt_time);
                    if *record {
                        evs.push(sc.compute_record(Rank(r)));
                    }
                }
                if *record {
                    op_events[i] = Some(evs);
                }
            }
        }
    }
    SimExecution { nic_bytes_total: nic_total, wire_ops: wire_log }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize, p: usize, micro_sync: MicroSync, s: usize) -> ScheduleSpec {
        let layers = vec![
            LayerSchedule { param_bytes: 4096, fwd_flops: 1e9, bwd_flops: 2e9 },
            LayerSchedule { param_bytes: 0, fwd_flops: 5e8, bwd_flops: 1e9 },
            LayerSchedule { param_bytes: 8192, fwd_flops: 1e9, bwd_flops: 2e9 },
        ];
        ScheduleSpec {
            n,
            k: 2,
            p_params: p,
            p_grads: p,
            p_opt: p,
            micro_sync,
            accum_steps: s,
            hierarchical: false,
            coalesced: false,
            prefetch_depth: 1,
            decision_overhead: SimTime::from_micros(15),
            layers,
            bucket_bytes: 1 << 30,
            total_param_bytes: 4096 + 8192,
            optimizer_bytes: (4096 + 8192) * 6 / p as u64,
            compression: None,
            elem_bytes: 4,
        }
    }

    #[test]
    fn group_membership_math() {
        let geo = Geometry::flat(8, 8, 2);
        let part = GroupRef::Partition { stage: 0, g: 1 };
        assert_eq!(part.members(&geo), vec![Rank(2), Rank(3)]);
        assert_eq!(part.member_index(Rank(3), &geo), Some(1));
        assert_eq!(part.member_index(Rank(4), &geo), None);
        let repl = GroupRef::Replication { stage: 0, local: 1 };
        assert_eq!(repl.members(&geo), vec![Rank(1), Rank(3), Rank(5), Rank(7)]);
        assert_eq!(repl.member_index(Rank(5), &geo), Some(2));
        assert_eq!(GroupRef::Replication { stage: 0, local: 0 }.member_index(Rank(5), &geo), None);
        assert_eq!(GroupRef::All { stage: 0 }.members(&geo).len(), 8);
        assert_eq!(GroupRef::All { stage: 0 }.member_index(Rank(6), &geo), Some(6));
    }

    #[test]
    fn staged_group_membership_math() {
        // dp=4, pp=2, p=2: ranks 0..4 are stage 0, 4..8 stage 1
        // (stage-major), and every group is scoped to its stage.
        let geo = Geometry { dp: 4, pp: 2, p: 2, k: 4 };
        assert_eq!(geo.world(), 8);
        assert_eq!(geo.stage_of(Rank(5)), 1);
        assert_eq!(geo.dp_index(Rank(5)), 1);
        assert_eq!(geo.rank(1, 1), Rank(5));
        let part = GroupRef::Partition { stage: 1, g: 1 };
        assert_eq!(part.members(&geo), vec![Rank(6), Rank(7)]);
        assert_eq!(part.member_index(Rank(7), &geo), Some(1));
        assert_eq!(part.member_index(Rank(3), &geo), None, "wrong stage");
        assert_eq!(
            GroupRef::All { stage: 1 }.members(&geo),
            vec![Rank(4), Rank(5), Rank(6), Rank(7)]
        );
        assert_eq!(
            GroupRef::Replication { stage: 1, local: 0 }.members(&geo),
            vec![Rank(4), Rank(6)]
        );
        let pair = GroupRef::Pair { from: Rank(6), to: Rank(2) };
        assert_eq!(pair.members(&geo), vec![Rank(6), Rank(2)], "pairs keep direction order");
        assert_eq!(pair.member_index(Rank(6), &geo), Some(0));
        assert_eq!(pair.member_index(Rank(2), &geo), Some(1));
        // Layer ownership: 6 layers over 2 stages.
        assert_eq!(geo.stage_of_layer(2, 6), 0);
        assert_eq!(geo.stage_of_layer(3, 6), 1);
    }

    #[test]
    fn two_hop_program_shape() {
        // 2 micro-steps, n=4, p=2: hop 1 every micro, hop 2 at the boundary.
        let prog = spec(4, 2, MicroSync::PartitionReduceScatter, 2).program();
        let hop1 =
            prog.ops.iter().filter(|o| matches!(o.kind, OpKind::ReduceScatterGrads { .. })).count();
        let hop2 = prog
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::CrossGroupAllReduce { .. }))
            .count();
        // 1 bucket × 2 partition groups × 2 micros; hop 2: 1 bucket × p=2.
        assert_eq!(hop1, 4);
        assert_eq!(hop2, 2);
        // Hop 2 pays no decision overhead; hop 1 does.
        for op in &prog.ops {
            if let OpKind::CrossGroupAllReduce { wire, .. } = &op.kind {
                assert!(!wire.overhead);
            }
            if let OpKind::ReduceScatterGrads { wire, .. } = &op.kind {
                assert!(wire.overhead);
            }
        }
    }

    #[test]
    fn zero3_program_has_barriers_between_micros() {
        let prog = spec(4, 4, MicroSync::GlobalAllReduce, 3).program();
        let barriers = prog.ops.iter().filter(|o| matches!(o.kind, OpKind::MicroBarrier)).count();
        // No barrier before the first micro-step.
        assert_eq!(barriers, 2);
        // Every barrier waits on the previous micro's last all-reduce.
        for (i, op) in prog.ops.iter().enumerate() {
            if matches!(op.kind, OpKind::MicroBarrier) {
                assert_eq!(op.deps.len(), 1);
                let d = op.deps[0];
                assert!(d < i);
                assert!(matches!(prog.ops[d].kind, OpKind::AllReduceGrads { .. }));
                assert_eq!(prog.ops[d].micro + 1, op.micro);
            }
        }
    }

    #[test]
    fn ddp_program_accumulates_then_reduces_once() {
        let prog = spec(4, 1, MicroSync::LocalAccumulate, 3).program();
        let accums =
            prog.ops.iter().filter(|o| matches!(o.kind, OpKind::AccumGrads { .. })).count();
        let ars = prog
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::AllReduceGrads { source: GradSource::Accum, .. }))
            .count();
        assert_eq!(accums, 3); // one per micro-step (single bucket)
        assert_eq!(ars, 1); // boundary only
        assert!(prog.ops.iter().all(|o| !matches!(o.kind, OpKind::GatherShards { .. })));
    }

    #[test]
    fn prefetch_is_a_transform() {
        let mut bare = emit_step(&spec(4, 2, MicroSync::PartitionReduceScatter, 1));
        for op in &bare.ops {
            if matches!(op.kind, OpKind::GatherShards { .. }) {
                assert!(op.deps.is_empty());
            }
        }
        apply_prefetch(&mut bare, 0);
        // depth 0: the gather for layer 2 (fwd) waits on layer 1's compute;
        // layer 0's gather (first with params) stays unconstrained.
        for (i, op) in bare.ops.iter().enumerate() {
            if let OpKind::GatherShards { layer, pass: Pass::Forward, .. } = op.kind {
                if layer == 0 {
                    assert!(op.deps.is_empty(), "op {i}");
                } else {
                    assert_eq!(op.deps.len(), 1, "op {i}");
                    assert!(matches!(
                        bare.ops[op.deps[0]].kind,
                        OpKind::Compute { layer: dl, pass: Pass::Forward, .. } if dl == layer - 1
                    ));
                }
            }
        }
    }

    #[test]
    fn optimizer_waits_on_final_reduction() {
        let prog = spec(4, 2, MicroSync::PartitionReduceScatter, 2).program();
        let opt = prog
            .ops
            .iter()
            .find(|o| matches!(o.kind, OpKind::OptimizerUpdate { .. }))
            .expect("program must end with the optimizer");
        // n > p: the final reducers are the p hop-2 ops.
        assert_eq!(opt.deps.len(), 2);
        for &d in &opt.deps {
            assert!(matches!(prog.ops[d].kind, OpKind::CrossGroupAllReduce { .. }));
        }
    }

    #[test]
    fn zero1_emits_param_refresh_after_optimizer() {
        let mut sp = spec(4, 1, MicroSync::LocalAccumulate, 2);
        sp.p_opt = 4; // ZeRO-1: optimizer sharded, params replicated
        let prog = sp.program();
        let last = prog.ops.last().unwrap();
        let OpKind::ParamRefresh { wire } = &last.kind else {
            panic!("ZeRO-1 must end with a parameter refresh");
        };
        assert_eq!(wire.group, GroupRef::All { stage: 0 });
        assert_eq!(last.deps.len(), 1);
        assert!(matches!(
            prog.ops[last.deps[0]].kind,
            OpKind::OptimizerUpdate { record: true, .. }
        ));
    }

    #[test]
    fn dump_is_stable_and_complete() {
        let prog = spec(4, 2, MicroSync::PartitionReduceScatter, 1).program();
        let d = prog.dump();
        assert!(d.starts_with("schedule n=4 k=2 p=2 layers=3 accum=1"));
        assert_eq!(d.lines().count(), 1 + prog.ops.len());
        assert_eq!(d, prog.dump(), "dump must be deterministic");
        assert!(d.contains("hop2"));
        assert!(d.contains("reduce-scatter"));
    }

    /// A 4-layer spec (pp-divisible) for the pipeline tests.
    fn spec4(n: usize, p: usize, micro_sync: MicroSync, s: usize) -> ScheduleSpec {
        let mut sp = spec(n, p, micro_sync, s);
        sp.layers.push(LayerSchedule { param_bytes: 4096, fwd_flops: 1e9, bwd_flops: 2e9 });
        sp.total_param_bytes += 4096;
        sp
    }

    #[test]
    fn pipeline_delegates_to_flat_emitter_at_pp1() {
        let inner = spec4(4, 2, MicroSync::PartitionReduceScatter, 2);
        let pipe = PipelineSpec { inner: inner.clone(), pp: 1, act_bytes: 1 << 16 };
        assert_eq!(pipe.program().dump(), inner.program().dump());
    }

    #[test]
    fn pipeline_1f1b_shape_and_edges() {
        // dp=2, pp=2, p=2 within each stage, 3 micro-steps.
        let inner = spec4(2, 2, MicroSync::PartitionReduceScatter, 3);
        let pipe = PipelineSpec { inner, pp: 2, act_bytes: 1 << 16 };
        let prog = pipe.program();
        prog.geo.validate();
        assert_eq!(prog.geo, Geometry { dp: 2, pp: 2, p: 2, k: 2 });
        assert_eq!(prog.n(), 4);
        let sends: Vec<usize> = (0..prog.ops.len())
            .filter(|&i| matches!(prog.ops[i].kind, OpKind::StageSend { .. }))
            .collect();
        let recvs: Vec<usize> = (0..prog.ops.len())
            .filter(|&i| matches!(prog.ops[i].kind, OpKind::StageRecv { .. }))
            .collect();
        // One boundary, 3 micros, 2 dp pairs, both directions.
        assert_eq!(sends.len(), 2 * 3 * 2);
        assert_eq!(recvs.len(), 2 * 3 * 2);
        for &r in &recvs {
            // Every recv waits on exactly its matching send, already emitted.
            assert_eq!(prog.ops[r].deps.len(), 1);
            let s = prog.ops[r].deps[0];
            assert!(s < r);
            let (
                OpKind::StageSend { pass: sp, wire: sw, .. },
                OpKind::StageRecv { pass: rp, wire: rw, .. },
            ) = (&prog.ops[s].kind, &prog.ops[r].kind)
            else {
                panic!("recv dep must be a send");
            };
            assert_eq!(sp, rp);
            assert_eq!(sw.group, rw.group, "both ends name the same pair");
            assert_eq!(rw.wire.bytes, 0, "the send pays the transfer");
            let GroupRef::Pair { from, to } = sw.group else { panic!() };
            assert_ne!(prog.geo.stage_of(from), prog.geo.stage_of(to));
            // Each side executes only its half of the pair.
            assert!(prog.executes_wire(s, from) && !prog.executes_wire(s, to));
            assert!(prog.executes_wire(r, to) && !prog.executes_wire(r, from));
        }
        // All deps point backward: both backends can walk in listed order.
        for (i, op) in prog.ops.iter().enumerate() {
            for &d in &op.deps {
                assert!(d < i, "op {i} depends forward on {d}");
            }
        }
        // Gradient sync is stage-scoped: every reduce names a staged group.
        for op in &prog.ops {
            if let OpKind::ReduceScatterGrads { wire, .. } = &op.kind {
                assert!(matches!(wire.group, GroupRef::Partition { .. }));
            }
        }
        // The optimizer gates on every stage's final reducers.
        let opt = prog
            .ops
            .iter()
            .find(|o| matches!(o.kind, OpKind::OptimizerUpdate { .. }))
            .expect("pipeline program ends with the optimizer");
        let stages: std::collections::BTreeSet<usize> = opt
            .deps
            .iter()
            .map(|&d| match prog.wire_of(d).unwrap().group {
                GroupRef::Partition { stage, .. }
                | GroupRef::All { stage }
                | GroupRef::Replication { stage, .. } => stage,
                GroupRef::Pair { .. } => panic!("optimizer cannot gate on a boundary hop"),
            })
            .collect();
        assert_eq!(stages, [0, 1].into());
    }

    #[test]
    fn pipeline_program_costs_on_the_sim() {
        use mics_cluster::{ClusterSpec, InstanceType};
        for sync in [
            MicroSync::PartitionReduceScatter,
            MicroSync::GlobalAllReduce,
            MicroSync::LocalAccumulate,
        ] {
            let inner = spec4(4, if sync == MicroSync::LocalAccumulate { 1 } else { 2 }, sync, 3);
            let pipe = PipelineSpec { inner, pp: 2, act_bytes: 1 << 16 };
            let prog = pipe.program();
            let mut inst = InstanceType::p3dn_24xlarge();
            inst.gpus_per_node = 4;
            let mut sc = SimCluster::new(ClusterSpec::new(inst, 2));
            let exec = execute_on_sim(&prog, &mut sc, 1e12);
            assert_eq!(exec.wire_ops, prog.wire_ops(), "{sync:?}");
            assert_eq!(exec.nic_bytes_total, prog.total_nic_bytes(&sc.net), "{sync:?}");
            let (makespan, _, _) = sc.run();
            assert!(makespan > SimTime::ZERO, "{sync:?}: sim must converge (no deadlock)");
        }
    }

    #[test]
    fn pipeline_beats_more_micros_less_bubble() {
        // The 1F1B bubble fraction shrinks with more micro-steps: per-step
        // time at m=8 must be well under per-step time at m=1 (relative to
        // the per-micro work), the classic (pp-1)/m scaling.
        use mics_cluster::{ClusterSpec, InstanceType};
        let mut inst = InstanceType::p3dn_24xlarge();
        inst.gpus_per_node = 4;
        let time_per_micro = |m: usize| {
            let inner = spec4(2, 1, MicroSync::LocalAccumulate, m);
            let pipe = PipelineSpec { inner, pp: 2, act_bytes: 1 << 10 };
            let mut sc = SimCluster::new(ClusterSpec::new(inst.clone(), 1));
            execute_on_sim(&pipe.program(), &mut sc, 1e12);
            let (makespan, _, _) = sc.run();
            makespan.as_secs_f64() / m as f64
        };
        let (t1, t8) = (time_per_micro(1), time_per_micro(8));
        assert!(
            t8 < 0.75 * t1,
            "1F1B bubble must amortize: per-micro {t8:.6}s at m=8 vs {t1:.6}s at m=1"
        );
    }

    #[test]
    fn reshape_retargets_the_same_strategy() {
        let sp = spec(8, 4, MicroSync::PartitionReduceScatter, 2);
        let old = Geometry::flat(8, 2, 4);
        let new = Geometry::flat(4, 2, 2);
        let prog = reshape(&sp, &old, &new);
        assert_eq!(prog.geo, new);
        // Same op-kind sequence as emitting directly at the new world.
        let direct = sp.retarget(4, 2, 2).program();
        assert_eq!(prog.dump(), direct.dump());
        // Optimizer traffic rescales with the shard count (p_opt 4 → 2).
        let opt_bytes = |p: &StepProgram| {
            p.ops
                .iter()
                .find_map(|o| match o.kind {
                    OpKind::OptimizerUpdate { bytes, .. } => Some(bytes),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(opt_bytes(&prog), opt_bytes(&sp.program()) * 2);
    }

    #[test]
    #[should_panic(expected = "old geometry")]
    fn reshape_rejects_a_mismatched_spec() {
        let sp = spec(8, 4, MicroSync::PartitionReduceScatter, 2);
        reshape(&sp, &Geometry::flat(16, 2, 4), &Geometry::flat(4, 2, 2));
    }

    #[test]
    fn executor_nic_accounting_matches_program_derivation() {
        use mics_cluster::{ClusterSpec, InstanceType};
        let sp = ScheduleSpec { k: 8, ..spec(16, 8, MicroSync::PartitionReduceScatter, 2) };
        let prog = sp.program();
        let mut sc = SimCluster::new(ClusterSpec::new(InstanceType::p3dn_24xlarge(), 2));
        let exec = execute_on_sim(&prog, &mut sc, 1e12);
        assert_eq!(exec.nic_bytes_total, prog.total_nic_bytes(&sc.net));
        assert_eq!(exec.wire_ops, prog.wire_ops());
        let (makespan, _, _) = sc.run();
        assert!(makespan > SimTime::ZERO);
    }
}
