//! The schedule IR: one typed lowering of the MiCS training step, consumed
//! by both the simulator and the real dataplane.
//!
//! MiCS's contributions (§3.3 hierarchical gather, §3.4 2-hop sync, §4
//! prefetch/overlap) are all *schedule* properties. This module makes the
//! schedule a first-class value: a [`StepProgram`] — a flat list of
//! [`ScheduleOp`]s with explicit op-to-op dependencies and per-op wire
//! annotations ([`WireOp`]) — lowered once per strategy from a
//! [`ScheduleSpec`] ([`ScheduleSpec::program`], or [`PipelineSpec::program`]
//! for `pp` pipeline stages), then consumed by two backends:
//!
//! * [`execute_on_sim`] replays the program onto a [`SimCluster`] — the
//!   analytic cost backend behind [`crate::simulate`];
//! * the `mics-minidl` executor walks the same program and drives the
//!   real `mics-dataplane` communicators, making the fidelity claim
//!   structural: the dataplane executes the *same program* the simulator
//!   costs.
//!
//! There is one emitter. It lowers the 1F1B interleave of `pp` stages, and
//! the non-pipelined program is its `pp = 1` case: a single stage that owns
//! every layer, no warm-up and no boundary hop. Everything a strategy
//! decides — group structure, wire algorithm, codec, bucket size — reaches
//! the emitter as data on the spec, so it holds for every `pp`. Prefetch is
//! a transform over the emitted program: emission produces gathers with no
//! look-ahead constraint, and a second pass adds the §4 backpressure edges
//! for the spec's `prefetch_depth`, stage by stage.

use crate::config::MicroSync;
use crate::ops::{Lane, Members, SimCluster};
use mics_cluster::Rank;
use mics_collectives::dispatch::{WireCollective, WireKind};
use mics_collectives::{CollectiveCost, NetParams};
use mics_compress::{CompressionConfig, QuantScheme};
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
    /// The member ranks on `geo`, ascending (a pair's lower rank first).
    pub fn members(&self, geo: &Geometry) -> Members {
        let (first, stride, count) = match *self {
            GroupRef::Partition { stage, g } => (geo.rank(stage, g * geo.p), 1, geo.p),
            GroupRef::All { stage } => (geo.rank(stage, 0), 1, geo.dp),
            GroupRef::Replication { stage, local } => {
                (geo.rank(stage, local), geo.p, geo.dp / geo.p)
            }
            GroupRef::Pair { from, to } => (from.min(to), from.0.abs_diff(to.0), 2),
        };
        Members { first, stride, count }
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
    /// `wire.codec` holds the payload's size under the same scheme
    /// ([`QuantScheme::wire_bytes`]), which is what the simulator charges.
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

/// Everything the emitter needs to lower one strategy's iteration.
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
    /// Gather-lane lookahead in layers (§4), within a stage's layer slice.
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
    /// Lower to the [`StepProgram`] both backends should run: the spec's
    /// iteration on a single stage, with its own prefetch depth applied.
    ///
    /// # Panics
    /// Panics if `p_params` does not divide `n` or any dimension is zero.
    pub fn program(&self) -> StepProgram {
        let mut prog = emit(self, 1, 0);
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

/// A pipeline wrapper around any strategy: `inner` describes ONE stage's
/// dp-world (`inner.n` ranks, partition groups of `inner.p_params`) over
/// the FULL layer list; the wrapper splits the layers contiguously over
/// `pp` stages and lowers a 1F1B (one-forward-one-backward) schedule with
/// explicit cross-stage [`OpKind::StageSend`]/[`OpKind::StageRecv`]
/// dependency edges. `inner.program()` is the `pp = 1` case of the same
/// lowering, so the two programs (and their dumps) are equal there.
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

    /// Lower to a [`StepProgram`]: the 1F1B schedule of `inner`'s strategy
    /// over `pp` stages, with `inner.prefetch_depth` applied inside every
    /// stage.
    ///
    /// # Panics
    /// Panics if the geometry is invalid or the stages do not evenly split
    /// the layers.
    pub fn program(&self) -> StepProgram {
        let mut prog = emit(&self.inner, self.pp, self.act_bytes);
        apply_prefetch(&mut prog, self.inner.prefetch_depth);
        prog
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

/// Emission state. Ops are appended one *stage action* at a time — one
/// stage's forward or backward pass over one micro-batch.
struct Emit<'a> {
    spec: &'a ScheduleSpec,
    geo: Geometry,
    act_bytes: u64,
    ops: Vec<ScheduleOp>,
    /// `[pass][stage][micro]`: the first of the `dp` consecutive boundary
    /// sends of that action, once emitted.
    sent: [Vec<Vec<Option<OpId>>>; 2],
    /// Per layer: the previous reductions of its bucket — the
    /// write-after-read hazard on the gradient buffer (§3.4).
    war: Vec<Vec<OpId>>,
    /// Per stage: the ops its optimizer step gates on.
    last_reduce: Vec<Vec<OpId>>,
    /// Per stage: gradient buckets over the stage's layer slice.
    buckets: Vec<Vec<(Vec<usize>, u64)>>,
}

impl Emit<'_> {
    fn push(&mut self, micro: usize, kind: OpKind, deps: Vec<OpId>) -> OpId {
        self.ops.push(ScheduleOp { micro, kind, deps });
        self.ops.len() - 1
    }

    /// The stages an action's boundary tensor comes from and goes to:
    /// activations flow up the pipeline, gradients down, and the ends have
    /// no neighbour (neither does the only stage of `pp = 1`).
    fn neighbours(&self, s: usize, pass: Pass) -> (Option<usize>, Option<usize>) {
        let (prev, next) = (s.checked_sub(1), Some(s + 1).filter(|&t| t < self.geo.pp));
        if pass == Pass::Forward {
            (prev, next)
        } else {
            (next, prev)
        }
    }

    /// A scheduled collective's wire annotation. `codec` is the compression
    /// that applies to this op, if any: when its scheme shrinks the
    /// payload, the dataplane gets the scheme and the cost model the size
    /// of the payload's elements under it. A scheme that does not shrink
    /// it (f16 on fp16 elements) leaves the op exact.
    fn wire(
        &self,
        group: GroupRef,
        lane: Lane,
        kind: WireKind,
        participants: usize,
        bytes: u64,
        codec: Option<CompressionConfig>,
    ) -> WireOp {
        let elems = (bytes / self.spec.elem_bytes) as usize;
        let codec =
            codec.map(|c| (c.scheme, c.scheme.wire_bytes(elems))).filter(|&(_, w)| w < bytes);
        WireOp {
            group,
            lane,
            wire: WireCollective {
                kind,
                participants,
                devices_per_node: self.geo.k,
                bytes,
                codec: codec.map(|(_, w)| w),
            },
            scheme: codec.map(|(scheme, _)| scheme),
            overhead: true,
        }
    }

    /// One 1F1B boundary hop of dp index `d`: a 2-rank p2p on the lane
    /// matching its direction (activations ride the gather lane, gradients
    /// the reduce lane, so boundary traffic contends with the stage's own
    /// collectives exactly as it would on a real NIC). Never compressed,
    /// and precomputed, so it pays no decision overhead.
    fn pair_wire(&self, from: usize, to: usize, d: usize, pass: Pass, bytes: u64) -> WireOp {
        let (from, to) = (self.geo.rank(from, d), self.geo.rank(to, d));
        let lane = if pass == Pass::Forward { Lane::Gather } else { Lane::Reduce };
        let kind = WireKind::P2p { inter_node: from.0 / self.geo.k != to.0 / self.geo.k };
        WireOp {
            overhead: false,
            ..self.wire(GroupRef::Pair { from, to }, lane, kind, 2, bytes, None)
        }
    }

    /// One stage action: stage `s`'s `pass` over micro-batch `micro`.
    ///
    /// The emission order is the contract both backends rely on: receive
    /// the boundary tensor from the neighbouring stage (one recv per dp
    /// index), gather the stage's layers (group-ascending within a layer),
    /// compute them, send the boundary tensor onward, and — after a
    /// backward — synchronize the stage's gradients bucket by bucket.
    /// Layers run ascending in the forward pass and descending in the
    /// backward pass. At `pp = 1` the stage is the model and has no
    /// neighbour, so no hop is emitted.
    fn action(&mut self, s: usize, micro: usize, pass: Pass) {
        let (spec, geo) = (self.spec, self.geo);
        let per = spec.layers.len() / geo.pp;
        let lo = s * per;
        let forward = pass == Pass::Forward;
        // The stage's layers in the pass's execution order.
        let order = (0..per).map(|i| if forward { lo + i } else { lo + per - 1 - i });
        let (src, dst) = self.neighbours(s, pass);

        // The "alternative schedule" (§2.3/§3.4) opens each micro-step with
        // a barrier on the previous one's last reduction. Only at pp = 1:
        // under 1F1B a stage's F(j+1) is emitted before B(j), so the
        // reduction the barrier would wait on does not exist yet.
        if forward && geo.pp == 1 && spec.micro_sync == MicroSync::GlobalAllReduce {
            if let Some(&last) = self.last_reduce[s].last() {
                self.push(micro, OpKind::MicroBarrier, vec![last]);
            }
        }

        let mut recvs: Vec<OpId> = Vec::new();
        if let Some(peer) = src {
            let first = self.sent[pass as usize][peer][micro].expect("1F1B dep not yet emitted");
            for d in 0..geo.dp {
                let wire = self.pair_wire(peer, s, d, pass, 0);
                let kind = OpKind::StageRecv { peer_stage: peer, pass, wire };
                recvs.push(self.push(micro, kind, vec![first + d]));
            }
        }

        let weight_codec = spec.compression.filter(|c| c.weights);
        let algorithm = WireKind::AllGather {
            hierarchical: spec.hierarchical && geo.p > geo.k,
            coalesced: spec.coalesced,
        };
        let mut gathers: Vec<Vec<OpId>> = vec![Vec::new(); per];
        for l in order.clone() {
            let bytes = spec.layers[l].param_bytes;
            if geo.p == 1 || bytes == 0 {
                continue;
            }
            for g in 0..geo.groups() {
                let group = GroupRef::Partition { stage: s, g };
                let wire = self.wire(group, Lane::Gather, algorithm, geo.p, bytes, weight_codec);
                let kind = OpKind::GatherShards { layer: l, pass, wire };
                gathers[l - lo].push(self.push(micro, kind, Vec::new()));
            }
        }

        // Op id of each layer's compute, indexed by `layer - lo`.
        let mut computed: Vec<OpId> = vec![0; per];
        // The pass's final compute: what the onward send waits for.
        let mut last = None;
        for (position, l) in order.enumerate() {
            let mut deps = std::mem::take(&mut gathers[l - lo]);
            let flops = if forward {
                spec.layers[l].fwd_flops
            } else {
                // The gradient buffer is rewritten here: wait for the
                // previous micro-step's reduction of this layer to read it.
                deps.extend(&self.war[l]);
                spec.layers[l].bwd_flops
            };
            if position == 0 {
                deps.extend(&recvs);
            }
            computed[l - lo] = self.push(micro, OpKind::Compute { layer: l, pass, flops }, deps);
            last = Some(computed[l - lo]);
        }

        if let Some(peer) = dst {
            let last = last.expect("a pipeline stage owns at least one layer");
            self.sent[pass as usize][s][micro] = Some(self.ops.len());
            for d in 0..geo.dp {
                let wire = self.pair_wire(s, peer, d, pass, self.act_bytes);
                self.push(micro, OpKind::StageSend { peer_stage: peer, pass, wire }, vec![last]);
            }
        }
        if !forward {
            self.sync(s, micro, &computed);
        }
    }

    /// Stage `s`'s gradient synchronization behind the backward pass of
    /// `micro`, one bucket at a time; `computed` is that pass's compute op
    /// per layer of the stage's slice.
    fn sync(&mut self, s: usize, micro: usize, computed: &[OpId]) {
        let (spec, geo) = (self.spec, self.geo);
        let (dp, p) = (geo.dp, geo.p);
        let lo = s * computed.len();
        let boundary = micro == spec.accum_steps - 1;
        let two_hop = spec.micro_sync == MicroSync::PartitionReduceScatter;
        let local_accumulate = spec.micro_sync == MicroSync::LocalAccumulate;
        // Every gradient reduction, hop 1, hop 2 or boundary, takes one codec.
        let codec = spec.compression.filter(|c| c.grads);
        // The per-bucket reduction: wire algorithm, the buffer it reduces
        // and its group size.
        let all_reduce = WireKind::AllReduce { stride: 1 };
        let (kind, source, span) = match spec.micro_sync {
            // MiCS hop 1 (§3.4), inside each partition group.
            MicroSync::PartitionReduceScatter => {
                (WireKind::ReduceScatter, GradSource::MicroGrad, p)
            }
            // ZeRO-3's all-reduce over the stage.
            MicroSync::GlobalAllReduce => (all_reduce, GradSource::MicroGrad, dp),
            // The boundary reduction of the accumulated buffer over the
            // stage: ZeRO-2 by reduce-scatter, DDP / ZeRO-1 by all-reduce.
            MicroSync::LocalAccumulate if spec.p_grads > 1 => {
                (WireKind::ReduceScatter, GradSource::Accum, dp)
            }
            MicroSync::LocalAccumulate => (all_reduce, GradSource::Accum, dp),
        };
        // MiCS reduces inside each partition group, everything else over
        // the whole stage.
        let groups = if two_hop { geo.groups() } else { 1 };

        for bi in 0..self.buckets[s].len() {
            // A bucket is ready when its last-computed layer (the lowest
            // index — backward runs in decreasing layer order) finishes.
            let (ready, bytes) = {
                let (layers, bytes) = &self.buckets[s][bi];
                (computed[layers[layers.len() - 1] - lo], *bytes)
            };
            // The micro-gradient folds locally when the wire only carries
            // the accumulated buffer at the boundary, or when the reduction
            // group is a single rank.
            if local_accumulate || span == 1 {
                self.push(micro, OpKind::AccumGrads { bucket: bi }, vec![ready]);
            }
            let reduces = span > 1 && (boundary || !local_accumulate);
            if reduces {
                let mut batch = Vec::with_capacity(groups);
                for g in 0..groups {
                    let group = if two_hop {
                        GroupRef::Partition { stage: s, g }
                    } else {
                        GroupRef::All { stage: s }
                    };
                    let wire = self.wire(group, Lane::Reduce, kind, span, bytes, codec);
                    let op = match kind {
                        WireKind::ReduceScatter => {
                            OpKind::ReduceScatterGrads { bucket: bi, source, wire }
                        }
                        _ => OpKind::AllReduceGrads { bucket: bi, source, wire },
                    };
                    batch.push(self.push(micro, op, vec![ready]));
                }
                for &l in &self.buckets[s][bi].0 {
                    self.war[l] = batch.clone();
                }
                self.last_reduce[s] = batch;
            }
            // 2-hop second hop (§3.4): at the accumulation boundary,
            // all-reduce this bucket's accumulated gradient shard across
            // each replication group — bucketed so it overlaps with the
            // remaining backward compute, just like hop 1, which it follows
            // on the reduce lane. Its schedule is fully precomputed, so it
            // pays no decision overhead.
            let shard_bytes = bytes / p as u64;
            if two_hop && boundary && dp > p && shard_bytes > 0 {
                let deps = if reduces { Vec::new() } else { vec![ready] };
                let mut hop2 = Vec::with_capacity(p);
                for local in 0..p {
                    let group = GroupRef::Replication { stage: s, local };
                    let kind = WireKind::AllReduce { stride: p };
                    let wire = WireOp {
                        overhead: false,
                        ..self.wire(group, Lane::Reduce, kind, dp / p, shard_bytes, codec)
                    };
                    let op = OpKind::CrossGroupAllReduce { bucket: bi, local, wire };
                    hop2.push(self.push(micro, op, deps.clone()));
                }
                self.last_reduce[s] = hop2;
            }
        }
    }
}

/// Lower one iteration of `spec` — one pipeline stage's strategy over the
/// full layer list — on `pp` stages to a [`StepProgram`], without prefetch
/// edges ([`apply_prefetch`] adds them).
///
/// Per stage `s` the action list is the 1F1B warm-up / steady / cool-down
/// split — `w = min(pp−1−s, m)` forwards, then `m−w` one-forward-one-
/// backward pairs, then `w` backwards — and emission round-robins over the
/// stages, emitting a stage's next action as soon as the send it receives
/// has been emitted, so both backends can execute the ops in listed order.
/// At `pp = 1` there is no warm-up: the list is F(0) B(0) F(1) B(1) … over
/// the whole model. After the last action come the optimizer step, gated on
/// every stage's final reductions, and per stage the ZeRO-1/2 parameter
/// refresh.
fn emit(spec: &ScheduleSpec, pp: usize, act_bytes: u64) -> StepProgram {
    let geo = Geometry { dp: spec.n, pp, p: spec.p_params, k: spec.k };
    geo.validate();
    let nl = spec.layers.len();
    assert!(nl.is_multiple_of(pp), "pp={pp} must evenly split {nl} layers");
    let per = nl / pp;
    let m = spec.accum_steps;

    let actions: Vec<Vec<(Pass, usize)>> = (0..pp)
        .map(|s| {
            let w = (pp - 1 - s).min(m);
            let warmup = (0..w).map(|j| (Pass::Forward, j));
            let steady = (0..m - w).flat_map(|i| [(Pass::Forward, w + i), (Pass::Backward, i)]);
            let cooldown = (m - w..m).map(|i| (Pass::Backward, i));
            warmup.chain(steady).chain(cooldown).collect()
        })
        .collect();
    // Buckets never straddle a stage boundary: each stage fuses its own
    // slice, under global layer indices.
    let buckets = (0..pp)
        .map(|s| {
            let mut stage = bucketize(&spec.layers[s * per..(s + 1) * per], spec.bucket_bytes);
            stage.iter_mut().flat_map(|(layers, _)| layers).for_each(|l| *l += s * per);
            stage
        })
        .collect();
    let mut st = Emit {
        spec,
        geo,
        act_bytes,
        ops: Vec::new(),
        sent: [vec![vec![None; m]; pp], vec![vec![None; m]; pp]],
        war: vec![Vec::new(); nl],
        last_reduce: vec![Vec::new(); pp],
        buckets,
    };

    let mut next = vec![0usize; pp];
    let mut remaining = 2 * m * pp;
    while remaining > 0 {
        let before = remaining;
        for s in 0..pp {
            let Some(&(pass, micro)) = actions[s].get(next[s]) else { continue };
            let (src, _) = st.neighbours(s, pass);
            if src.is_some_and(|peer| st.sent[pass as usize][peer][micro].is_none()) {
                continue;
            }
            st.action(s, micro, pass);
            next[s] += 1;
            remaining -= 1;
        }
        assert!(remaining < before, "1F1B emission wedged — unsatisfiable cross-stage dependency");
    }

    // A recorded optimizer step is one a parameter refresh waits on.
    let record = spec.p_opt > 1 && spec.p_params == 1;
    let reducers = st.last_reduce.concat();
    let bytes = spec.optimizer_bytes / pp as u64;
    let opt = st.push(m - 1, OpKind::OptimizerUpdate { bytes, record }, reducers);
    if record && geo.dp > 1 {
        for s in 0..pp {
            let kind = WireKind::AllGather { hierarchical: false, coalesced: false };
            let bytes = spec.total_param_bytes / pp as u64;
            let wire = st.wire(GroupRef::All { stage: s }, Lane::Gather, kind, geo.dp, bytes, None);
            st.push(m - 1, OpKind::ParamRefresh { wire }, vec![opt]);
        }
    }

    StepProgram {
        geo,
        num_layers: nl,
        accum_steps: m,
        decision_overhead: spec.decision_overhead,
        ops: st.ops,
    }
}

/// Add prefetch-backpressure dependencies to every gather: the gather of
/// the layer at position `i` of its stage's pass (ascending forward,
/// descending backward) may start once the layer at position
/// `i − depth − 1` has computed in the same micro-step. This is the §4
/// overlap window as a schedule transform — call it once per program. The
/// window slides over the owning stage's layer slice only, so a gather
/// never waits on another stage's compute; at `pp = 1` the slice is the
/// model.
fn apply_prefetch(prog: &mut StepProgram, depth: usize) {
    let nl = prog.num_layers;
    let per = nl / prog.geo.pp;
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
    for op in &mut prog.ops {
        let OpKind::GatherShards { layer, pass, .. } = op.kind else { continue };
        let (lo, hi) = (layer / per * per, layer / per * per + per);
        let position = if pass == Pass::Forward { layer - lo } else { hi - 1 - layer };
        if position <= depth {
            continue;
        }
        let back = position - depth - 1;
        let dep_layer = if pass == Pass::Forward { lo + back } else { hi - 1 - back };
        let dep = computes[slot(op.micro, pass, dep_layer)];
        debug_assert_ne!(dep, usize::MAX, "compute op missing for prefetch dep");
        op.deps.push(dep);
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
                w.wire.cost(net).nic_bytes() * w.group.members(&self.geo).nodes(self.k())
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// the pre-IR code. Its work per op follows the ranks `sc` simulates (every
/// rank of a [`SimCluster::new`] cluster), not the group or the world: each
/// distinct [`WireCollective`] is priced once, a wire op visits only its
/// group's simulated members, and a wire op no simulated rank joins only
/// adds its NIC volume (price × the nodes its group spans) and its
/// [`SimExecution::wire_ops`] entry. The NIC volume counts every node.
/// Call [`SimCluster::run`]/[`SimCluster::run_traced`] afterwards.
pub fn execute_on_sim(
    prog: &StepProgram,
    sc: &mut SimCluster,
    sustained_flops: f64,
) -> SimExecution {
    let geo = prog.geo;
    let (n, k) = (geo.world(), geo.k);
    let nl = prog.num_layers;
    let memcpy_bw = sc.spec.instance.memcpy_bw;
    let live = sc.simulated().to_vec();
    let every_rank = live.len() == n;
    // Each simulated rank's row among them (`usize::MAX` for the others).
    let mut row = vec![usize::MAX; n];
    for (i, r) in live.iter().enumerate() {
        row[r.0] = i;
    }
    // Per op, the first of the completion events it records, if any: its
    // simulated members' (a wire op) or ranks' (a recording optimizer)
    // events are consecutive ids in rank order.
    let mut done: Vec<Option<EventId>> = vec![None; prog.ops.len()];
    // Compute-done events of the current (micro, pass) segment, at
    // `row · nl + layer`, pre-allocated like the historical lowering so
    // gathers can reference compute events that have not been pushed yet.
    let mut fwd_tbl: Vec<EventId> = Vec::new();
    let mut bwd_tbl: Vec<EventId> = Vec::new();
    let mut segment: Option<(usize, Pass)> = None;
    // Each distinct collective's price and its per-node NIC bytes.
    let mut prices: Vec<(WireCollective, CollectiveCost, u64)> = Vec::new();
    let mut members: Vec<Rank> = Vec::new();
    let mut nic_total: u64 = 0;
    let mut wire_log: Vec<OpId> = Vec::new();

    // Resolve `dep` to the completion event the simulated `rank` must wait
    // on, or `None` when the rank does not participate in the dep op.
    let resolve = |done: &[Option<EventId>],
                   fwd_tbl: &[EventId],
                   bwd_tbl: &[EventId],
                   dep: OpId,
                   rank: Rank|
     -> Option<EventId> {
        // The rank's event among the simulated members of a wire op's
        // group, which record theirs in ascending rank order.
        let joined = |op: OpId, wire: &WireOp| {
            let ix = wire.group.member_index(rank, &geo)?;
            let slot = match wire.group {
                _ if !every_rank => {
                    let group = wire.group.members(&geo);
                    live[..row[rank.0]].iter().filter(|&&r| group.contains(r)).count()
                }
                // A pair indexes its members by direction.
                GroupRef::Pair { from, to } => usize::from(rank > from.min(to)),
                _ => ix,
            };
            let first = done[op].expect("a simulated member recorded no event");
            Some(EventId(first.0 + slot))
        };
        match &prog.ops[dep].kind {
            OpKind::Compute { layer, pass, .. } => {
                // Only the stage owning the layer records the event; every
                // other rank (a pair peer, another stage) must not wait on
                // a never-recorded slot.
                if geo.stage_of(rank) != geo.stage_of_layer(*layer, nl) {
                    return None;
                }
                let tbl = if *pass == Pass::Forward { fwd_tbl } else { bwd_tbl };
                Some(tbl[row[rank.0] * nl + layer])
            }
            OpKind::GatherShards { wire, .. }
            | OpKind::ReduceScatterGrads { wire, .. }
            | OpKind::AllReduceGrads { wire, .. }
            | OpKind::CrossGroupAllReduce { wire, .. }
            | OpKind::ParamRefresh { wire }
            | OpKind::StageSend { wire, .. } => joined(dep, wire),
            // A recv holds no event of its own: a dep on it forwards to the
            // matching send's arrival event (the recv's only dep).
            OpKind::StageRecv { .. } => {
                let send = prog.ops[dep].deps[0];
                match &prog.ops[send].kind {
                    OpKind::StageSend { wire, .. } => joined(send, wire),
                    _ => None,
                }
            }
            OpKind::OptimizerUpdate { .. } => done[dep].map(|first| EventId(first.0 + row[rank.0])),
            OpKind::MicroBarrier | OpKind::AccumGrads { .. } => None,
        }
    };

    for (i, op) in prog.ops.iter().enumerate() {
        // A new (micro, pass) segment pre-allocates its compute-done event
        // table before any of the segment's ops push work.
        if let OpKind::GatherShards { pass, .. } | OpKind::Compute { pass, .. } = op.kind {
            if segment != Some((op.micro, pass)) {
                let tbl = if pass == Pass::Forward { &mut fwd_tbl } else { &mut bwd_tbl };
                tbl.clear();
                tbl.extend((0..live.len() * nl).map(|_| sc.new_event()));
                segment = Some((op.micro, pass));
            }
        }
        match &op.kind {
            OpKind::MicroBarrier => {
                for &r in &live {
                    for &d in &op.deps {
                        if let Some(e) = resolve(&done, &fwd_tbl, &bwd_tbl, d, r) {
                            sc.compute_wait(r, e);
                            sc.lane_wait(Lane::Gather, r, e);
                        }
                    }
                }
            }
            OpKind::Compute { layer, pass, flops } => {
                let owner = geo.stage_of_layer(*layer, nl);
                let tbl = if *pass == Pass::Forward { &fwd_tbl } else { &bwd_tbl };
                for (ix, &r) in live.iter().enumerate() {
                    if geo.stage_of(r) != owner {
                        continue;
                    }
                    for &d in &op.deps {
                        if let Some(e) = resolve(&done, &fwd_tbl, &bwd_tbl, d, r) {
                            sc.compute_wait(r, e);
                        }
                    }
                    sc.compute_kernel(r, *flops, sustained_flops);
                    sc.compute_record_into(r, tbl[ix * nl + layer]);
                }
            }
            OpKind::AccumGrads { .. } => {} // local fold: no simulated work
            OpKind::StageRecv { wire, .. } => {
                // Zero-byte landing point: the matching send already paid
                // the transfer, so the receiving endpoint only waits for
                // the arrival event on its lane.
                if let GroupRef::Pair { to, .. } = wire.group {
                    if sc.simulates(to) {
                        for &d in &op.deps {
                            if let Some(e) = resolve(&done, &fwd_tbl, &bwd_tbl, d, to) {
                                sc.lane_wait(wire.lane, to, e);
                            }
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
                let group = wire.group.members(&geo);
                let priced = match prices.iter().position(|(w, ..)| *w == wire.wire) {
                    Some(ix) => ix,
                    None => {
                        let cost = wire.wire.cost(&sc.net);
                        let nic = cost.nic_bytes();
                        prices.push((wire.wire, cost, nic));
                        prices.len() - 1
                    }
                };
                let (_, cost, nic) = &prices[priced];
                nic_total += nic * group.nodes(k);
                wire_log.push(i);
                sc.simulated_members(group, &mut members);
                if members.is_empty() {
                    continue;
                }
                // A boundary send's deps live on the sender, but the sim
                // pushes the transfer phases on the lowest-ranked member's
                // stream — which is the *receiver* for a backward pair — so
                // every endpoint gates on them.
                let sender = match (&op.kind, wire.group) {
                    (OpKind::StageSend { .. }, GroupRef::Pair { from, .. }) => Some(from),
                    _ => None,
                };
                for &d in &op.deps {
                    for &m in &members {
                        let waiter = sender.unwrap_or(m);
                        if let Some(e) = resolve(&done, &fwd_tbl, &bwd_tbl, d, waiter) {
                            sc.lane_wait(wire.lane, m, e);
                        }
                    }
                }
                let overhead = if wire.overhead { prog.decision_overhead } else { SimTime::ZERO };
                done[i] = sc.collective(group, &members, wire.lane, cost, overhead);
            }
            OpKind::OptimizerUpdate { bytes, record } => {
                let opt_time = SimTime::from_secs_f64(*bytes as f64 / memcpy_bw);
                for (ix, &r) in live.iter().enumerate() {
                    for &d in &op.deps {
                        if let Some(e) = resolve(&done, &fwd_tbl, &bwd_tbl, d, r) {
                            sc.compute_wait(r, e);
                        }
                    }
                    sc.compute_for(r, opt_time);
                    if *record {
                        let e = sc.compute_record(r);
                        let first = *done[i].get_or_insert(e);
                        debug_assert_eq!(e.0, first.0 + ix, "completion events are consecutive");
                    }
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

    fn ranks(members: Members) -> Vec<Rank> {
        members.iter().collect()
    }

    #[test]
    fn group_membership_math() {
        let geo = Geometry::flat(8, 8, 2);
        let part = GroupRef::Partition { stage: 0, g: 1 };
        assert_eq!(ranks(part.members(&geo)), vec![Rank(2), Rank(3)]);
        assert_eq!(part.member_index(Rank(3), &geo), Some(1));
        assert_eq!(part.member_index(Rank(4), &geo), None);
        let repl = GroupRef::Replication { stage: 0, local: 1 };
        assert_eq!(ranks(repl.members(&geo)), vec![Rank(1), Rank(3), Rank(5), Rank(7)]);
        assert_eq!(repl.member_index(Rank(5), &geo), Some(2));
        assert_eq!(GroupRef::Replication { stage: 0, local: 0 }.member_index(Rank(5), &geo), None);
        assert_eq!(GroupRef::All { stage: 0 }.members(&geo).count, 8);
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
        assert_eq!(ranks(part.members(&geo)), vec![Rank(6), Rank(7)]);
        assert_eq!(part.member_index(Rank(7), &geo), Some(1));
        assert_eq!(part.member_index(Rank(3), &geo), None, "wrong stage");
        assert_eq!(
            ranks(GroupRef::All { stage: 1 }.members(&geo)),
            vec![Rank(4), Rank(5), Rank(6), Rank(7)]
        );
        assert_eq!(
            ranks(GroupRef::Replication { stage: 1, local: 0 }.members(&geo)),
            vec![Rank(4), Rank(6)]
        );
        let pair = GroupRef::Pair { from: Rank(6), to: Rank(2) };
        assert_eq!(ranks(pair.members(&geo)), vec![Rank(2), Rank(6)], "members ascend");
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
        let mut bare = emit(&spec(4, 2, MicroSync::PartitionReduceScatter, 1), 1, 0);
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
    fn pipeline_at_pp1_is_the_flat_program() {
        let inner = spec4(4, 2, MicroSync::PartitionReduceScatter, 2);
        let pipe = PipelineSpec { inner: inner.clone(), pp: 1, act_bytes: 1 << 16 };
        assert_eq!(pipe.program().dump(), inner.program().dump());
    }

    /// The sorted wire annotations of `stage`'s gathers and gradient
    /// reductions: what moves, among how many, under which codec.
    fn stage_collectives(prog: &StepProgram, stage: usize) -> Vec<String> {
        let mut out: Vec<String> = prog
            .ops
            .iter()
            .filter_map(|op| {
                let (class, w) = match &op.kind {
                    OpKind::GatherShards { wire, .. } => ("gather", wire),
                    OpKind::ReduceScatterGrads { wire, .. } => ("reduce-scatter", wire),
                    OpKind::AllReduceGrads { wire, .. } => ("all-reduce", wire),
                    OpKind::CrossGroupAllReduce { wire, .. } => ("hop2", wire),
                    _ => return None,
                };
                let owner = match w.group {
                    GroupRef::Partition { stage, .. }
                    | GroupRef::All { stage }
                    | GroupRef::Replication { stage, .. } => stage,
                    GroupRef::Pair { .. } => unreachable!("collectives are stage-scoped"),
                };
                let WireCollective { kind, participants, bytes, codec, .. } = w.wire;
                (owner == stage).then(|| {
                    format!("{class} {kind:?} {participants} {bytes} {:?} {codec:?}", w.scheme)
                })
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn compressed_stage_collectives_are_those_of_the_flat_program_of_its_slice() {
        // The codec is a per-op annotation at every pp: each stage of a
        // pp = 2 program carries the wire annotations of the flat program
        // emitted for that stage's two layers alone.
        for (sync, p) in [
            (MicroSync::PartitionReduceScatter, 2),
            (MicroSync::GlobalAllReduce, 2),
            (MicroSync::GlobalAllReduce, 4),
            (MicroSync::LocalAccumulate, 1),
        ] {
            let mut inner = spec4(4, p, sync, 3);
            inner.compression = Some(CompressionConfig::both(QuantScheme::int8()));
            let prog = PipelineSpec { inner: inner.clone(), pp: 2, act_bytes: 1 << 16 }.program();
            for stage in 0..2 {
                let mut slice = inner.clone();
                slice.layers = inner.layers[stage * 2..(stage + 1) * 2].to_vec();
                let staged = stage_collectives(&prog, stage);
                assert_eq!(staged, stage_collectives(&slice.program(), 0), "{sync:?}");
                assert!(staged.iter().all(|c| c.contains("Int8")), "{sync:?}");
            }
        }
    }

    #[test]
    fn prefetch_edges_stay_inside_their_stage_action() {
        // pp = 2 over 8 layers, depth 1: the window slides over each
        // stage's 4 layers, so every gather → compute edge joins two ops of
        // one (stage, micro, pass), and each such action has one.
        let mut inner = spec(4, 2, MicroSync::PartitionReduceScatter, 2);
        inner.layers = vec![inner.layers[0]; 8];
        let prog = PipelineSpec { inner, pp: 2, act_bytes: 1 << 16 }.program();
        let stage_of = |layer: usize| prog.geo.stage_of_layer(layer, 8);
        let mut actions = std::collections::BTreeSet::new();
        for op in &prog.ops {
            let OpKind::GatherShards { layer, pass, .. } = op.kind else { continue };
            for &d in &op.deps {
                let OpKind::Compute { layer: on, pass: dep_pass, .. } = prog.ops[d].kind else {
                    continue;
                };
                assert_eq!(
                    (stage_of(on), prog.ops[d].micro, dep_pass),
                    (stage_of(layer), op.micro, pass)
                );
                actions.insert((stage_of(layer), op.micro, pass == Pass::Forward));
            }
        }
        assert_eq!(actions.len(), 2 * 2 * 2);
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

    /// A flat all-gather of an `m`-byte fp32 payload over `p` ranks on
    /// 8-GPU nodes with a 100 Gbps NIC, on the wire `scheme` gives it as
    /// [`Emit::wire`] sizes it.
    fn gather_time(p: usize, m: u64, scheme: Option<QuantScheme>) -> SimTime {
        let net = NetParams {
            nic_bw: 12.5e9,
            nvlink_bw: 8.0 * 135e9,
            memcpy_bw: 700e9,
            alpha_intra: SimTime::from_micros(4),
            alpha_inter: SimTime::from_micros(22),
            launch: SimTime::from_micros(12),
            coalesced_call: SimTime::from_micros(2),
        };
        let wire = WireCollective {
            kind: WireKind::AllGather { hierarchical: false, coalesced: false },
            participants: p,
            devices_per_node: 8,
            bytes: m,
            codec: scheme.map(|s| s.wire_bytes(m as usize / 4)),
        };
        wire.cost(&net).serial_time(&net)
    }

    /// The smallest payload in 1 KiB..=1 GiB (bisection) at which `scheme`'s
    /// compressed gather beats the exact one, or `None` if it never does:
    /// below it the two kernel launches dominate, above it the wire saving.
    fn payoff_bytes(p: usize, scheme: QuantScheme) -> Option<u64> {
        let wins = |m| gather_time(p, m, Some(scheme)) < gather_time(p, m, None);
        let (mut lo, mut hi) = (1u64 << 10, 1u64 << 30);
        if !wins(hi) {
            return None;
        }
        if wins(lo) {
            return Some(lo);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if wins(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    #[test]
    fn int8_gathers_win_large_messages_on_the_nic_and_lose_small_ones() {
        for m in [16 << 20, 64 << 20, 256 << 20] {
            let (q, f) = (gather_time(16, m, Some(QuantScheme::int8())), gather_time(16, m, None));
            assert!(q.as_secs_f64() < 0.5 * f.as_secs_f64(), "m={m}: int8 {q} vs exact {f}");
        }
        let (q, f) =
            (gather_time(16, 4096, Some(QuantScheme::int8())), gather_time(16, 4096, None));
        assert!(q > f, "int8 {q} vs exact {f}");
    }

    #[test]
    fn compression_pays_off_earlier_at_fewer_bits_and_later_inside_a_node() {
        let c8 = payoff_bytes(16, QuantScheme::int8()).expect("int8 wins on a 100 Gbps NIC");
        let c4 = payoff_bytes(16, QuantScheme::int4()).expect("int4 wins on a 100 Gbps NIC");
        assert!((16 << 10..16 << 20).contains(&c8), "int8 crossover {c8}");
        assert!(c4 <= c8, "int4 {c4} vs int8 {c8}");
        // NVLink is ~86× faster than the NIC, so the wire saving is worth
        // that much less; fp32 winning everywhere is also acceptable.
        if let Some(intra) = payoff_bytes(8, QuantScheme::int8()) {
            assert!(intra > 4 * c8, "intra {intra} vs inter {c8}");
        }
    }
}
