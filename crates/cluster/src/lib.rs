//! Cluster topology model for public-cloud GPU training.
//!
//! MiCS's whole premise (§2.3 of the paper) is that cloud clusters have
//! *heterogeneous* networks: GPUs inside a node talk over NVLink at hundreds
//! of GB/s while nodes talk over a NIC at 12.5–50 GB/s — a 12×–24× gap,
//! compared to only ~3× on DGX clusters. This crate describes that hardware
//! (instance types, node/device layout, static per-node NIC derates) and can
//! materialize the shared network resources inside a [`mics_simnet::Sim`].
//! The partition and replication groups MiCS builds on it are the schedule
//! IR's `Geometry`/`GroupRef` in `mics-core`.

#![warn(missing_docs)]

use mics_simnet::{LinkId, Sim, SimTime};

mod instance;

pub use instance::InstanceType;

/// A device's global rank in the cluster (HPC convention, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub usize);

/// A node (instance) index in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Node hosting a global rank on a cluster with `k` devices per node.
///
/// The single source of truth for the `rank / k` mapping — every layer
/// (executors, NIC accounting, fault recovery) goes through here or
/// [`ClusterSpec::node_of`] rather than re-deriving it.
pub fn node_of_rank(rank: Rank, k: usize) -> NodeId {
    debug_assert!(k > 0, "devices per node must be positive");
    NodeId(rank.0 / k)
}

/// A homogeneous cluster: `nodes` instances of one [`InstanceType`],
/// optionally with per-node network degradation (cloud stragglers).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The instance type of every node.
    pub instance: InstanceType,
    /// Number of nodes (instances).
    pub nodes: usize,
    /// Per-node NIC bandwidth multipliers in `(0, 1]`; empty = all 1.0.
    /// Models a degraded/straggler instance — common on shared cloud
    /// networks (§6 discusses Varuna targeting exactly this).
    nic_derates: Vec<f64>,
}

impl ClusterSpec {
    /// Build a cluster of `nodes` instances.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(instance: InstanceType, nodes: usize) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        ClusterSpec { instance, nodes, nic_derates: Vec::new() }
    }

    /// Mark `node`'s NIC as degraded to `factor` × its normal bandwidth
    /// (a straggler instance). `factor` must be in `(0, 1]`.
    pub fn with_slow_node(mut self, node: NodeId, factor: f64) -> Self {
        assert!(node.0 < self.nodes, "node out of range");
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        if self.nic_derates.is_empty() {
            self.nic_derates = vec![1.0; self.nodes];
        }
        self.nic_derates[node.0] = factor;
        self
    }

    /// The NIC bandwidth multiplier of `node` (1.0 unless degraded).
    pub fn nic_derate(&self, node: NodeId) -> f64 {
        self.nic_derates.get(node.0).copied().unwrap_or(1.0)
    }

    /// Devices per node (`k` in the paper's notation).
    pub fn devices_per_node(&self) -> usize {
        self.instance.gpus_per_node
    }

    /// Total devices in the cluster (`n` in the paper's notation).
    pub fn total_devices(&self) -> usize {
        self.nodes * self.instance.gpus_per_node
    }

    /// Node hosting a global rank.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        debug_assert!(rank.0 < self.total_devices());
        node_of_rank(rank, self.instance.gpus_per_node)
    }

    /// Global ranks hosted on `node`.
    pub fn ranks_on_node(&self, node: NodeId) -> impl Iterator<Item = Rank> {
        let k = self.instance.gpus_per_node;
        (node.0 * k..(node.0 + 1) * k).map(Rank)
    }

    /// Materialize the shared network resources of this cluster into `sim`.
    /// Every NIC runs at `nic_scale` × the instance's clean-network rate ×
    /// its node's static derate (1.0 for microbenchmark-style transfers;
    /// training charges a lower sustained rate).
    pub fn build_fabric(&self, sim: &mut Sim, nic_scale: f64) -> Fabric {
        let mut nic = Vec::with_capacity(self.nodes);
        let mut nvlink = Vec::with_capacity(self.nodes);
        for node in 0..self.nodes {
            let bw = self.instance.nic_bw * nic_scale * self.nic_derate(NodeId(node));
            nic.push(sim.add_link("nic", bw));
            nvlink.push(sim.add_link("nvlink", self.instance.nvlink_fabric_bw));
        }
        let memcpy = (0..self.total_devices())
            .map(|_| sim.add_link("memcpy", self.instance.memcpy_bw))
            .collect();
        Fabric { nic, nvlink, memcpy }
    }

    /// The hop latencies of this cluster's instance type, used by the α–β
    /// collective cost models.
    pub fn latencies(&self) -> Latencies {
        Latencies { intra: self.instance.alpha_intra, inter: self.instance.alpha_inter }
    }
}

/// Handles to the per-node / per-device shared links of a materialized
/// cluster, as registered in a [`Sim`].
#[derive(Debug, Clone)]
pub struct Fabric {
    /// One NIC link per node (inter-node bandwidth, shared by its k GPUs).
    pub nic: Vec<LinkId>,
    /// One NVLink-fabric link per node (aggregate intra-node bandwidth).
    pub nvlink: Vec<LinkId>,
    /// One local copy engine per device (used for chunk re-arrangement).
    pub memcpy: Vec<LinkId>,
}

impl Fabric {
    /// The NIC link of the node hosting `rank`.
    pub fn nic_of(&self, spec: &ClusterSpec, rank: Rank) -> LinkId {
        self.nic[spec.node_of(rank).0]
    }
}

/// Per-hop startup latencies of a cluster, used by the α–β collective cost
/// models.
#[derive(Debug, Clone, Copy)]
pub struct Latencies {
    /// Startup latency of one intra-node (NVLink) hop.
    pub intra: SimTime,
    /// Startup latency of one inter-node (NIC) hop.
    pub inter: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_geometry() {
        let spec = ClusterSpec::new(InstanceType::p3dn_24xlarge(), 4);
        assert_eq!(spec.total_devices(), 32);
        assert_eq!(spec.devices_per_node(), 8);
        assert_eq!(spec.node_of(Rank(0)), NodeId(0));
        assert_eq!(spec.node_of(Rank(7)), NodeId(0));
        assert_eq!(spec.node_of(Rank(8)), NodeId(1));
        assert_eq!(spec.node_of(Rank(31)), NodeId(3));
    }

    #[test]
    fn free_node_mapping_helpers_agree_with_spec() {
        let spec = ClusterSpec::new(InstanceType::p3dn_24xlarge(), 4);
        for rank in (0..spec.total_devices()).map(Rank) {
            assert_eq!(node_of_rank(rank, spec.devices_per_node()), spec.node_of(rank));
        }
    }

    #[test]
    fn ranks_on_node_enumerates_k_ranks() {
        let spec = ClusterSpec::new(InstanceType::p3dn_24xlarge(), 2);
        let on1: Vec<_> = spec.ranks_on_node(NodeId(1)).collect();
        assert_eq!(on1, (8..16).map(Rank).collect::<Vec<_>>());
    }

    #[test]
    fn fabric_has_expected_links() {
        let spec = ClusterSpec::new(InstanceType::p4d_24xlarge(), 3);
        let mut sim = Sim::new();
        let fabric = spec.build_fabric(&mut sim, 1.0);
        assert_eq!(fabric.nic.len(), 3);
        assert_eq!(fabric.nvlink.len(), 3);
        assert_eq!(fabric.memcpy.len(), 24);
        assert_eq!(fabric.nic_of(&spec, Rank(9)), fabric.nic[1]);
    }

    #[test]
    fn nic_scale_composes_with_slow_node() {
        // p3dn NIC = 12.5 GB/s; × 0.5 scale × 0.5 derate = 3.125 GB/s, so
        // 1 GB takes 320 ms.
        let spec =
            ClusterSpec::new(InstanceType::p3dn_24xlarge(), 2).with_slow_node(NodeId(0), 0.5);
        let mut sim = Sim::new();
        let fabric = spec.build_fabric(&mut sim, 0.5);
        let s = sim.add_stream("comm");
        sim.push(s, mics_simnet::Op::transfer(fabric.nic[0], 1_000_000_000, SimTime::ZERO));
        assert_eq!(sim.run().unwrap().makespan, SimTime::from_millis(320));
    }

    #[test]
    fn instance_bandwidth_hierarchy_matches_paper() {
        // §1: intra-node is 12–24× faster than inter-node on the cloud.
        for inst in [InstanceType::p3dn_24xlarge(), InstanceType::p4d_24xlarge()] {
            let ratio = inst.nvlink_fabric_bw / inst.nic_bw;
            assert!(
                (8.0..=100.0).contains(&ratio),
                "{}: intra/inter ratio {ratio} out of plausible cloud range",
                inst.name
            );
        }
        // DGX-A100-like clusters are much more balanced (§1: ~3×).
        let dgx = InstanceType::dgx_a100();
        let ratio = dgx.nvlink_fabric_bw / dgx.nic_bw;
        assert!(ratio < 12.0, "DGX ratio {ratio} should be small");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterSpec::new(InstanceType::p3dn_24xlarge(), 0);
    }
}
