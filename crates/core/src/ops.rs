//! Lowering collectives and compute onto the discrete-event simulator.
//!
//! Each device owns three streams, mirroring the CUDA-stream structure of
//! DeepSpeed/MiCS: a **compute** stream, a **gather** lane (parameter
//! all-gathers) and a **reduce** lane (gradient reduce-scatter/all-reduce).
//! A collective is emitted once per *group*: on every participating node,
//! the lowest-ranked member (the node leader) executes the timed phases on
//! that node's shared links; the node's other members wait on the leader's
//! completion event. Devices in symmetric SPMD programs reach collectives at
//! identical virtual times, so this compact encoding preserves timing while
//! letting *cross-collective* contention (e.g. `k` replication-group
//! all-reduces sharing one NIC) emerge from the fluid link model.
//!
//! The same argument holds across nodes. On a homogeneous cluster (every
//! NIC at one rate) running a program whose groups are node-aligned (each
//! group lies inside one node or spans whole nodes), every node's links
//! carry the same flows at the same integer-nanosecond times, so every
//! cross-node group completion is the maximum of equal node completions.
//! A cluster built to simulate only some nodes — one per pipeline stage —
//! then yields the same makespan as the full walk, and its busy sums are
//! the simulated nodes' sums times the nodes each one stands for.
//!
//! Inside a simulated node the same holds for a *class* of ranks that lead
//! and join the same collectives, copy for copy: each copy starts its
//! flows at the same times, so one representative simulates the class.
//! A rank's weight is its class size (0: not simulated). A collective led
//! by a representative pushes its NIC and NVLink phases as `weight`
//! identical flows ([`Op::transfer_flows`]); its memcpy phases stay one
//! flow, since every device has its own copy engine. A collective whose
//! leader on a node is not simulated skips that node: its representative
//! carries the copy. Busy sums scale by the weights.
//!
//! Collectives push phases and joins on simulated ranks only and hand back
//! placeholder events for members elsewhere, which nothing may wait on.
//! The DP simulation body (`crate::dp`) picks the weights; it walks every
//! rank when the cluster has a straggler, when a group straddles a node
//! boundary, and when a trace is recorded (a trace pictures every
//! stream).

use mics_cluster::{ClusterSpec, Fabric, Rank};
use mics_collectives::{CollectiveCost, LinkClass, NetParams};
use mics_simnet::{EventId, Op, Sim, SimTime, StreamId};

/// Which communication stream a collective runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Parameter gathering (forward/backward all-gathers).
    Gather,
    /// Gradient synchronization (reduce-scatter / all-reduce).
    Reduce,
}

/// A materialized cluster: simulator + fabric + per-device streams.
#[derive(Debug)]
pub struct SimCluster {
    /// The event-driven simulator being programmed.
    pub sim: Sim,
    /// Cluster geometry.
    pub spec: ClusterSpec,
    /// Shared links (NICs, NVLink fabrics, copy engines).
    pub fabric: Fabric,
    /// Network parameters for the cost models.
    pub net: NetParams,
    /// Per-rank streams; [`NOT_SIMULATED`] for ranks this cluster does not
    /// simulate.
    compute: Vec<StreamId>,
    gather: Vec<StreamId>,
    reduce: Vec<StreamId>,
    /// Per rank: the ranks it stands for on its node, 0 when not simulated.
    weight: Vec<u32>,
}

/// Stream slot of a rank that is not simulated: pushing to it panics.
const NOT_SIMULATED: StreamId = StreamId(usize::MAX);

/// Completion event handed back for a collective member that is not
/// simulated. It is never recorded, so it must never be waited on.
pub(crate) const PLACEHOLDER_EVENT: EventId = EventId(usize::MAX);

/// Fraction of the NIC's clean-network bandwidth that inter-node collectives
/// sustain *while training*: host/PCIe/copy-engine contention with busy
/// compute kernels and bidirectional traffic derate the wire. Calibrated
/// against §2.3's own measurement that ZeRO-3 parameter gathering takes
/// 2.85× the computation time for BERT 10B — the microbenchmarks
/// (`mics-collectives::bandwidth`, Fig. 1 / Fig. 12a) run at the full
/// clean-network rate.
pub const NIC_TRAINING_DERATE: f64 = 0.7;

/// Process name the simulator's timeline is presented under in exported
/// traces: these are *charged* virtual-time spans, as opposed to the
/// minidl backend's measured ones.
pub const SIM_TRACE_PROCESS: &str = "simulator (charged)";

impl SimCluster {
    /// Materialize `spec` into a fresh simulator.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::simulating(spec, |_| 1)
    }

    /// Materialize `spec`, giving streams only to the ranks of weight > 0:
    /// each one simulates a class of `weight(rank)` identical ranks on its
    /// node (see the module docs). The weights of each simulated node must
    /// sum to the node's size, and each simulated node must stand for the
    /// same number of identical nodes: [`SimCluster::run`] scales the busy
    /// sums by the weights and by that number.
    pub(crate) fn simulating(spec: ClusterSpec, weight: impl Fn(Rank) -> u32) -> Self {
        let mut sim = Sim::new();
        let fabric = spec.build_fabric(&mut sim, NIC_TRAINING_DERATE);
        let net = NetParams::from_instance(&spec.instance);
        let n = spec.total_devices();
        let weight: Vec<u32> = (0..n).map(|r| weight(Rank(r))).collect();
        let mut compute = vec![NOT_SIMULATED; n];
        let mut gather = vec![NOT_SIMULATED; n];
        let mut reduce = vec![NOT_SIMULATED; n];
        for r in (0..n).filter(|&r| weight[r] > 0) {
            compute[r] = sim.add_stream(format!("compute[{r}]"));
            gather[r] = sim.add_stream(format!("gather[{r}]"));
            reduce[r] = sim.add_stream(format!("reduce[{r}]"));
        }
        SimCluster { sim, spec, fabric, net, compute, gather, reduce, weight }
    }

    /// Whether `rank` is simulated (every rank, unless built by
    /// [`SimCluster::simulating`]).
    pub(crate) fn simulates(&self, rank: Rank) -> bool {
        self.weight[rank.0] > 0
    }

    /// How many ranks have streams.
    #[cfg(test)]
    pub(crate) fn simulated_ranks(&self) -> usize {
        self.weight.iter().filter(|&&w| w > 0).count()
    }

    fn lane_stream(&self, lane: Lane, rank: Rank) -> StreamId {
        match lane {
            Lane::Gather => self.gather[rank.0],
            Lane::Reduce => self.reduce[rank.0],
        }
    }

    /// Push a compute kernel of `flops` at `sustained_flops` onto the
    /// device's compute stream.
    pub fn compute_kernel(&mut self, rank: Rank, flops: f64, sustained_flops: f64) {
        let duration = SimTime::from_secs_f64(flops / sustained_flops);
        if duration > SimTime::ZERO {
            self.sim.push(self.compute[rank.0], Op::compute(duration));
        }
    }

    /// Push a fixed-duration operation onto the compute stream (optimizer
    /// step, host-side work attributed to the device timeline).
    pub fn compute_for(&mut self, rank: Rank, duration: SimTime) {
        if duration > SimTime::ZERO {
            self.sim.push(self.compute[rank.0], Op::compute(duration));
        }
    }

    /// Make the compute stream wait for `event`.
    pub fn compute_wait(&mut self, rank: Rank, event: EventId) {
        self.sim.push(self.compute[rank.0], Op::WaitEvent(event));
    }

    /// Record a fresh event at the current tail of the compute stream.
    pub fn compute_record(&mut self, rank: Rank) -> EventId {
        let e = self.sim.add_event();
        self.sim.push(self.compute[rank.0], Op::RecordEvent(e));
        e
    }

    /// Record a pre-allocated event at the current tail of the compute
    /// stream (lets callers create the full event table up front).
    pub fn compute_record_into(&mut self, rank: Rank, event: EventId) {
        self.sim.push(self.compute[rank.0], Op::RecordEvent(event));
    }

    /// Allocate an event without attaching it anywhere yet.
    pub fn new_event(&mut self) -> EventId {
        self.sim.add_event()
    }

    /// Make a communication lane wait for `event` (used for prefetch
    /// backpressure and for gating gradient reduction on backward compute).
    pub fn lane_wait(&mut self, lane: Lane, rank: Rank, event: EventId) {
        self.sim.push(self.lane_stream(lane, rank), Op::WaitEvent(event));
    }

    /// Emit one collective over `members` (global ranks, ascending) on
    /// `lane`, paying `host_overhead` of launch/decision time on each node
    /// leader's lane before the wire phases.
    ///
    /// Returns the per-member completion events, parallel to `members`
    /// (a never-recorded placeholder for members not simulated).
    pub fn collective(
        &mut self,
        members: &[Rank],
        lane: Lane,
        cost: &CollectiveCost,
        host_overhead: SimTime,
    ) -> Vec<EventId> {
        debug_assert!(!members.is_empty());
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members must ascend");

        // Trivial collective (single member or empty phase list): complete
        // immediately in stream order.
        if members.len() == 1 || cost.phases.is_empty() {
            return members
                .iter()
                .map(|&m| {
                    if !self.simulates(m) {
                        return PLACEHOLDER_EVENT;
                    }
                    let e = self.sim.add_event();
                    self.sim.push(self.lane_stream(lane, m), Op::RecordEvent(e));
                    e
                })
                .collect();
        }
        // The first simulated member joins the node completions.
        let Some(&joiner) = members.iter().find(|&&m| self.simulates(m)) else {
            return vec![PLACEHOLDER_EVENT; members.len()];
        };

        // Group members by node; the first member on each node leads and
        // executes the timed phases on that node's shared links, once per
        // rank of its class. A leader not simulated skips its node.
        let mut node_done: Vec<EventId> = Vec::new();
        let mut last_node = usize::MAX;
        for &m in members {
            let node = self.spec.node_of(m).0;
            if node == last_node {
                continue;
            }
            last_node = node;
            let flows = self.weight[m.0];
            if flows == 0 {
                continue;
            }
            let stream = self.lane_stream(lane, m);
            let done = self.sim.add_event();
            node_done.push(done);
            if host_overhead > SimTime::ZERO {
                self.sim.push(stream, Op::compute(host_overhead));
            }
            for ph in &cost.phases {
                let (link, flows) = match ph.link {
                    LinkClass::Nic => (self.fabric.nic[node], flows),
                    LinkClass::NvLink => (self.fabric.nvlink[node], flows),
                    LinkClass::Memcpy => (self.fabric.memcpy[m.0], 1),
                };
                self.sim.push(stream, Op::transfer_flows(link, ph.bytes, ph.latency, flows));
            }
            self.sim.push(stream, Op::RecordEvent(done));
        }
        debug_assert!(!node_done.is_empty(), "a simulated member joins a collective nobody leads");
        // A collective completes only when its *slowest* node finishes —
        // essential once nodes are heterogeneous (stragglers). The first
        // member joins all node completions into one group event.
        let group_done = if node_done.len() == 1 {
            node_done[0]
        } else {
            let leader_stream = self.lane_stream(lane, joiner);
            for &e in &node_done {
                self.sim.push(leader_stream, Op::WaitEvent(e));
            }
            let e = self.sim.add_event();
            self.sim.push(leader_stream, Op::RecordEvent(e));
            e
        };
        let mut events = Vec::with_capacity(members.len());
        for &m in members {
            if m == joiner {
                events.push(group_done);
                continue;
            }
            if !self.simulates(m) {
                events.push(PLACEHOLDER_EVENT);
                continue;
            }
            let stream = self.lane_stream(lane, m);
            self.sim.push(stream, Op::WaitEvent(group_done));
            let mine = self.sim.add_event();
            self.sim.push(stream, Op::RecordEvent(mine));
            events.push(mine);
        }
        events
    }

    /// Record execution spans for chrome-trace export.
    pub fn enable_tracing(&mut self) {
        self.sim.enable_tracing();
    }

    /// Run the programmed iteration and return `(makespan, compute-busy,
    /// comm-busy)` where the busy numbers are summed across devices — on a
    /// cluster simulating one rank per class, each simulated rank's busy
    /// time times its weight and the nodes its node stands for.
    pub fn run(self) -> (SimTime, SimTime, SimTime) {
        let (makespan, compute, comm, _) = self.run_traced();
        (makespan, compute, comm)
    }

    /// Like [`SimCluster::run`], but also returns the recorded
    /// [`mics_trace::Trace`] of the timeline (empty unless
    /// [`SimCluster::enable_tracing`] was called), with its process
    /// renamed to [`SIM_TRACE_PROCESS`]. Callers render it with the shared
    /// writer ([`mics_trace::Trace::to_json`]) or merge it with measured
    /// timelines first.
    pub fn run_traced(mut self) -> (SimTime, SimTime, SimTime, mics_trace::Trace) {
        let stats = self.sim.run().expect("iteration program must not deadlock");
        let busy = |streams: &[StreamId]| -> SimTime {
            (streams.iter().zip(&self.weight).filter(|&(_, &w)| w > 0))
                .map(|(s, &w)| stats.stream_busy[s.0] * u64::from(w))
                .sum()
        };
        // Exact: the weights of a simulated node sum to its size, every
        // simulated node stands for the same whole number of nodes, and
        // busy times are integer nanoseconds.
        let weights: u64 = self.weight.iter().map(|&w| u64::from(w)).sum();
        let stands_for = self.weight.len() as u64 / weights;
        let compute_busy = busy(&self.compute) * stands_for;
        let comm_busy = (busy(&self.gather) + busy(&self.reduce)) * stands_for;
        let mut trace = stats.trace;
        trace.rename_process(mics_simnet::SIM_PROCESS, SIM_TRACE_PROCESS);
        (stats.makespan, compute_busy, comm_busy, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mics_cluster::InstanceType;
    use mics_collectives::cost;

    fn cluster(nodes: usize) -> SimCluster {
        SimCluster::new(ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes))
    }

    #[test]
    fn single_member_collective_is_free() {
        let mut sc = cluster(1);
        let c = cost::all_gather_flat(1, 8, 1 << 20, &sc.net);
        let evs = sc.collective(&[Rank(0)], Lane::Gather, &c, SimTime::ZERO);
        assert_eq!(evs.len(), 1);
        let (makespan, _, _) = sc.run();
        assert_eq!(makespan, SimTime::ZERO);
    }

    #[test]
    fn intra_node_collective_takes_its_alpha_beta_time() {
        let mut sc = cluster(1);
        let m = 256u64 << 20;
        let c = cost::all_gather_flat(8, 8, m, &sc.net);
        let expect = c.serial_time(&sc.net);
        let members: Vec<Rank> = (0..8).map(Rank).collect();
        sc.collective(&members, Lane::Gather, &c, SimTime::ZERO);
        let (makespan, _, _) = sc.run();
        // The fluid link model rounds completion up to whole nanoseconds.
        assert!(makespan.saturating_sub(expect) <= SimTime::from_nanos(2));
        assert!(expect.saturating_sub(makespan) <= SimTime::from_nanos(2));
    }

    #[test]
    fn two_groups_on_one_node_contend_on_nvlink() {
        // Two partition groups of 4 GPUs inside one node gather at once:
        // the shared NVLink fabric halves each one's bandwidth.
        let m = 256u64 << 20;
        let solo = {
            let mut sc = cluster(1);
            let c = cost::all_gather_flat(4, 8, m, &sc.net);
            sc.collective(&(0..4).map(Rank).collect::<Vec<_>>(), Lane::Gather, &c, SimTime::ZERO);
            sc.run().0
        };
        let contended = {
            let mut sc = cluster(1);
            let c = cost::all_gather_flat(4, 8, m, &sc.net);
            sc.collective(&(0..4).map(Rank).collect::<Vec<_>>(), Lane::Gather, &c, SimTime::ZERO);
            sc.collective(&(4..8).map(Rank).collect::<Vec<_>>(), Lane::Gather, &c, SimTime::ZERO);
            sc.run().0
        };
        assert!(contended.as_secs_f64() > 1.8 * solo.as_secs_f64());
    }

    #[test]
    fn inter_node_collective_pays_training_derated_nic() {
        let mut sc = cluster(2);
        let m = 128u64 << 20;
        let c = cost::all_gather_flat(16, 8, m, &sc.net);
        let members: Vec<Rank> = (0..16).map(Rank).collect();
        let bytes = c.phases[0].bytes;
        let expect = c.phases[0].latency
            + SimTime::from_secs_f64(bytes as f64 / (sc.net.nic_bw * NIC_TRAINING_DERATE));
        let clean = c.serial_time(&sc.net);
        sc.collective(&members, Lane::Gather, &c, SimTime::ZERO);
        let (makespan, _, _) = sc.run();
        assert!(makespan.saturating_sub(expect) <= SimTime::from_nanos(2));
        assert!(expect.saturating_sub(makespan) <= SimTime::from_nanos(2));
        // Derated below the clean-network serial time.
        assert!(makespan > clean);
    }

    #[test]
    fn host_overhead_delays_completion() {
        let m = 16u64 << 20;
        let members: Vec<Rank> = (0..8).map(Rank).collect();
        let mut sc = cluster(1);
        let c = cost::all_gather_flat(8, 8, m, &sc.net);
        sc.collective(&members, Lane::Gather, &c, SimTime::from_micros(500));
        let (with_overhead, _, _) = sc.run();
        let mut sc = cluster(1);
        let c = cost::all_gather_flat(8, 8, m, &sc.net);
        sc.collective(&members, Lane::Gather, &c, SimTime::ZERO);
        let (without, _, _) = sc.run();
        assert_eq!(with_overhead, without + SimTime::from_micros(500));
    }

    #[test]
    fn compute_and_comm_overlap_via_events() {
        let mut sc = cluster(1);
        let m = 128u64 << 20;
        let c = cost::all_gather_flat(8, 8, m, &sc.net);
        let members: Vec<Rank> = (0..8).map(Rank).collect();
        let gather_time = c.serial_time(&sc.net);
        let evs = sc.collective(&members, Lane::Gather, &c, SimTime::ZERO);
        // Every device computes 2× the gather time concurrently, then a
        // dependent kernel.
        for (i, &r) in members.iter().enumerate() {
            sc.compute_for(r, gather_time * 2);
            sc.compute_wait(r, evs[i]);
            sc.compute_for(r, SimTime::from_millis(1));
        }
        let (makespan, _, _) = sc.run();
        assert_eq!(makespan, gather_time * 2 + SimTime::from_millis(1));
    }

    #[test]
    fn replication_style_collectives_share_nic() {
        // k=8 per-device all-reduces with stride 8 (one per local rank)
        // across 2 nodes share each node's NIC: total time ≈ 8× one alone.
        let m = 32u64 << 20;
        let one = {
            let mut sc = cluster(2);
            let c = cost::all_reduce(2, 8, 8, m, &sc.net);
            sc.collective(&[Rank(0), Rank(8)], Lane::Reduce, &c, SimTime::ZERO);
            sc.run().0
        };
        let eight = {
            let mut sc = cluster(2);
            let c = cost::all_reduce(2, 8, 8, m, &sc.net);
            for local in 0..8 {
                sc.collective(&[Rank(local), Rank(8 + local)], Lane::Reduce, &c, SimTime::ZERO);
            }
            sc.run().0
        };
        let ratio = eight.as_secs_f64() / one.as_secs_f64();
        assert!((6.0..9.0).contains(&ratio), "ratio {ratio}");
    }
}
