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
//! A collective is addressed by its group's shape ([`Members`]) and visits
//! only the group's simulated members: it pushes phases and joins on them
//! and records one completion event each, consecutive ids in rank order, so
//! a member elsewhere has no event at all. Whether a member leads its node follows from the shape.
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
    /// The simulated ranks, ascending.
    live: Vec<Rank>,
}

/// Stream slot of a rank that is not simulated: pushing to it panics.
const NOT_SIMULATED: StreamId = StreamId(usize::MAX);

/// The members of a collective's group: `count` ranks from `first` on,
/// `stride` apart, ascending. Every group of a step program has this shape
/// (a pipeline pair is two ranks one stride apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Members {
    /// The lowest-ranked member.
    pub first: Rank,
    /// Rank distance between consecutive members (≥ 1).
    pub stride: usize,
    /// Number of members (≥ 1).
    pub count: usize,
}

impl Members {
    /// The highest-ranked member.
    pub fn last(&self) -> Rank {
        Rank(self.first.0 + (self.count - 1) * self.stride)
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Rank> {
        let Members { first, stride, count } = *self;
        (0..count).map(move |i| Rank(first.0 + i * stride))
    }

    /// Whether `rank` is a member.
    pub fn contains(&self, rank: Rank) -> bool {
        rank >= self.first
            && rank <= self.last()
            && (rank.0 - self.first.0).is_multiple_of(self.stride)
    }

    /// Whether member `rank` is the group's first member on its node (its
    /// node leader), on nodes of `k` devices: the member one stride below
    /// it sits on another node.
    pub fn leads(&self, rank: Rank, k: usize) -> bool {
        rank == self.first || rank.0 % k < self.stride
    }

    /// How many nodes of `k` devices the group touches: one per member when
    /// members are at least a node apart, else every node from the first
    /// member's to the last's (a gap under `k` skips none).
    pub fn nodes(&self, k: usize) -> u64 {
        if self.stride >= k {
            self.count as u64
        } else {
            (self.last().0 / k - self.first.0 / k + 1) as u64
        }
    }
}

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
        let live: Vec<Rank> = (0..n).filter(|&r| weight[r] > 0).map(Rank).collect();
        for &Rank(r) in &live {
            compute[r] = sim.add_stream(format!("compute[{r}]"));
            gather[r] = sim.add_stream(format!("gather[{r}]"));
            reduce[r] = sim.add_stream(format!("reduce[{r}]"));
        }
        SimCluster { sim, spec, fabric, net, compute, gather, reduce, weight, live }
    }

    /// Whether `rank` is simulated (every rank, unless built by
    /// [`SimCluster::simulating`]).
    pub(crate) fn simulates(&self, rank: Rank) -> bool {
        self.weight[rank.0] > 0
    }

    /// The simulated ranks, ascending.
    pub(crate) fn simulated(&self) -> &[Rank] {
        &self.live
    }

    /// Put the simulated members of `group` into `out`, ascending, visiting
    /// the fewer of the group's members and the simulated ranks.
    pub fn simulated_members(&self, group: Members, out: &mut Vec<Rank>) {
        out.clear();
        if self.live.len() < group.count {
            out.extend(self.live.iter().filter(|&&r| group.contains(r)));
        } else {
            out.extend(group.iter().filter(|&m| self.simulates(m)));
        }
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

    /// Emit one collective over `group` on `lane`, paying `host_overhead`
    /// of launch/decision time on each node leader's lane before the wire
    /// phases. `members` are the group's simulated members, ascending
    /// ([`SimCluster::simulated_members`]). Returns the first one's
    /// completion event — the `i`-th one's is `i` ids after it — or `None`
    /// (having pushed nothing) when there are none.
    pub fn collective(
        &mut self,
        group: Members,
        members: &[Rank],
        lane: Lane,
        cost: &CollectiveCost,
        host_overhead: SimTime,
    ) -> Option<EventId> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members must ascend");
        // The first simulated member joins the node completions.
        let &joiner = members.first()?;
        // Trivial collective (single member or empty phase list): complete
        // immediately in stream order.
        if group.count == 1 || cost.phases.is_empty() {
            let first = self.sim.add_event();
            self.sim.push(self.lane_stream(lane, joiner), Op::RecordEvent(first));
            for (i, &m) in members.iter().enumerate().skip(1) {
                let e = self.sim.add_event();
                debug_assert_eq!(e.0, first.0 + i, "completion events are consecutive");
                self.sim.push(self.lane_stream(lane, m), Op::RecordEvent(e));
            }
            return Some(first);
        }

        // The group's first member on each node leads and executes the
        // timed phases on that node's shared links, once per rank of its
        // class. A leader not simulated skips its node.
        let k = self.spec.devices_per_node();
        let mut node_done: Vec<EventId> = Vec::new();
        for &m in members.iter().filter(|&&m| group.leads(m, k)) {
            let node = self.spec.node_of(m).0;
            let flows = self.weight[m.0];
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
        for (i, &m) in members.iter().enumerate().skip(1) {
            let stream = self.lane_stream(lane, m);
            self.sim.push(stream, Op::WaitEvent(group_done));
            let mine = self.sim.add_event();
            debug_assert_eq!(mine.0, group_done.0 + i, "completion events are consecutive");
            self.sim.push(stream, Op::RecordEvent(mine));
        }
        Some(group_done)
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

    /// `count` ranks from `first` on, `stride` apart.
    fn ranks(first: usize, stride: usize, count: usize) -> Members {
        Members { first: Rank(first), stride, count }
    }

    /// Emit a collective over `group` on `sc` and return its simulated
    /// members' completion events, ascending.
    fn collective(
        sc: &mut SimCluster,
        group: Members,
        lane: Lane,
        cost: &CollectiveCost,
        host_overhead: SimTime,
    ) -> Vec<EventId> {
        let mut members = Vec::new();
        sc.simulated_members(group, &mut members);
        let first = sc.collective(group, &members, lane, cost, host_overhead).unwrap();
        (0..members.len()).map(|i| EventId(first.0 + i)).collect()
    }

    #[test]
    fn members_count_nodes_and_leaders() {
        // A partition group of 16 consecutive ranks spans 2 nodes of 8,
        // led by ranks 0 and 8.
        let part = ranks(0, 1, 16);
        assert_eq!(part.nodes(8), 2);
        let leaders: Vec<Rank> = part.iter().filter(|&m| part.leads(m, 8)).collect();
        assert_eq!(leaders, [Rank(0), Rank(8)]);
        // A replication group strided by 8 touches one node per member.
        let repl = ranks(3, 8, 4);
        assert_eq!(repl.nodes(8), 4);
        assert!(repl.iter().all(|m| repl.leads(m, 8)));
        // Three ranks stride 2 on nodes of 6 (3, 5, 7) touch two nodes; a
        // pair inside one node touches one, led by its lower rank.
        assert_eq!(ranks(3, 2, 3).nodes(6), 2);
        assert_eq!(ranks(1, 6, 2).nodes(8), 1);
        assert!(!ranks(1, 6, 2).leads(Rank(7), 8));
        assert!(repl.contains(Rank(19)) && !repl.contains(Rank(20)) && !repl.contains(Rank(35)));
    }

    #[test]
    fn single_member_collective_is_free() {
        let mut sc = cluster(1);
        let c = cost::all_gather_flat(1, 8, 1 << 20, &sc.net);
        let evs = collective(&mut sc, ranks(0, 1, 1), Lane::Gather, &c, SimTime::ZERO);
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
        collective(&mut sc, ranks(0, 1, 8), Lane::Gather, &c, SimTime::ZERO);
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
            collective(&mut sc, ranks(0, 1, 4), Lane::Gather, &c, SimTime::ZERO);
            sc.run().0
        };
        let contended = {
            let mut sc = cluster(1);
            let c = cost::all_gather_flat(4, 8, m, &sc.net);
            collective(&mut sc, ranks(0, 1, 4), Lane::Gather, &c, SimTime::ZERO);
            collective(&mut sc, ranks(4, 1, 4), Lane::Gather, &c, SimTime::ZERO);
            sc.run().0
        };
        assert!(contended.as_secs_f64() > 1.8 * solo.as_secs_f64());
    }

    #[test]
    fn inter_node_collective_pays_training_derated_nic() {
        let mut sc = cluster(2);
        let m = 128u64 << 20;
        let c = cost::all_gather_flat(16, 8, m, &sc.net);
        let bytes = c.phases[0].bytes;
        let expect = c.phases[0].latency
            + SimTime::from_secs_f64(bytes as f64 / (sc.net.nic_bw * NIC_TRAINING_DERATE));
        let clean = c.serial_time(&sc.net);
        collective(&mut sc, ranks(0, 1, 16), Lane::Gather, &c, SimTime::ZERO);
        let (makespan, _, _) = sc.run();
        assert!(makespan.saturating_sub(expect) <= SimTime::from_nanos(2));
        assert!(expect.saturating_sub(makespan) <= SimTime::from_nanos(2));
        // Derated below the clean-network serial time.
        assert!(makespan > clean);
    }

    #[test]
    fn host_overhead_delays_completion() {
        let m = 16u64 << 20;
        let members = ranks(0, 1, 8);
        let mut sc = cluster(1);
        let c = cost::all_gather_flat(8, 8, m, &sc.net);
        collective(&mut sc, members, Lane::Gather, &c, SimTime::from_micros(500));
        let (with_overhead, _, _) = sc.run();
        let mut sc = cluster(1);
        let c = cost::all_gather_flat(8, 8, m, &sc.net);
        collective(&mut sc, members, Lane::Gather, &c, SimTime::ZERO);
        let (without, _, _) = sc.run();
        assert_eq!(with_overhead, without + SimTime::from_micros(500));
    }

    #[test]
    fn compute_and_comm_overlap_via_events() {
        let mut sc = cluster(1);
        let m = 128u64 << 20;
        let c = cost::all_gather_flat(8, 8, m, &sc.net);
        let members = ranks(0, 1, 8);
        let gather_time = c.serial_time(&sc.net);
        let evs = collective(&mut sc, members, Lane::Gather, &c, SimTime::ZERO);
        // Every device computes 2× the gather time concurrently, then a
        // dependent kernel.
        for (i, r) in members.iter().enumerate() {
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
            collective(&mut sc, ranks(0, 8, 2), Lane::Reduce, &c, SimTime::ZERO);
            sc.run().0
        };
        let eight = {
            let mut sc = cluster(2);
            let c = cost::all_reduce(2, 8, 8, m, &sc.net);
            for local in 0..8 {
                collective(&mut sc, ranks(local, 8, 2), Lane::Reduce, &c, SimTime::ZERO);
            }
            sc.run().0
        };
        let ratio = eight.as_secs_f64() / one.as_secs_f64();
        assert!((6.0..9.0).contains(&ratio), "ratio {ratio}");
    }
}
