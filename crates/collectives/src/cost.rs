//! α–β cost models for the collectives MiCS uses.
//!
//! Every model follows the classic formulation the paper cites (Chan et al.,
//! §7.1.7): a collective over `p` participants pays a startup term that grows
//! with `p` (ring algorithms: `(p-1)·α`) plus a bandwidth term
//! `volume / B` where the volume on the bottleneck link is `(p-1)/p · M` for
//! all-gather / reduce-scatter and `2(p-1)/p · M` for all-reduce.
//!
//! Costs are expressed as a sequence of [`Phase`]s, each naming the class of
//! link it occupies. The simulator executors in `mics-core` map each phase to
//! a timed transfer on the right shared link, so *contention between
//! overlapping collectives emerges from the simulation* rather than being
//! baked into these formulas. For analytic uses (Fig. 1, Fig. 12a) a phase
//! list can also be collapsed with [`CollectiveCost::serial_time`].

use crate::bandwidth::NetParams;
use crate::layout::HierarchicalLayout;
use mics_simnet::SimTime;

/// The class of shared resource a phase occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// A node's inter-node NIC. `bytes` is per participating node.
    Nic,
    /// A node's intra-node NVLink fabric. `bytes` is per participating node.
    NvLink,
    /// A device's local copy engine. `bytes` is per device.
    Memcpy,
}

/// One timed stage of a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Which resource the bytes traverse.
    pub link: LinkClass,
    /// Bytes moved through one instance of that resource.
    pub bytes: u64,
    /// Fixed startup cost paid before the bytes move.
    pub latency: SimTime,
}

/// The cost of a collective as a sequence of phases executed in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveCost {
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl CollectiveCost {
    /// Wall-clock time of the collective assuming exclusive use of every
    /// link (no contention). Used for analytic plots and micro-benchmarks.
    pub fn serial_time(&self, net: &NetParams) -> SimTime {
        let mut t = SimTime::ZERO;
        for ph in &self.phases {
            let bw = match ph.link {
                LinkClass::Nic => net.nic_bw,
                LinkClass::NvLink => net.nvlink_bw,
                LinkClass::Memcpy => net.memcpy_bw,
            };
            t += ph.latency + SimTime::from_secs_f64(ph.bytes as f64 / bw);
        }
        t
    }

    /// Total bytes crossing NIC links (per node), the quantity §3.3 argues
    /// hierarchical communication reduces from `(p-1)M/p` to `(p-k)M/p`.
    pub fn nic_bytes(&self) -> u64 {
        self.phases.iter().filter(|p| p.link == LinkClass::Nic).map(|p| p.bytes).sum()
    }
}

fn frac_bytes(m: u64, num: usize, den: usize) -> u64 {
    ((m as u128 * num as u128) / den as u128) as u64
}

/// Effective per-hop inter-node latency for a ring of `ranks` participants.
///
/// Every ring step waits for the *slowest* of `ranks` concurrent hop
/// transmissions, so the expected per-step latency grows with the ring size
/// (the cloud-straggler effect behind Figure 1's collapse at 16–32 nodes).
/// We model the growth linearly: `α · (1 + ranks/256)`, calibrated so that
/// 64-rank collectives still reproduce the paper's B_all ≈ 11 GB/s while
/// 512-rank collectives degrade the way §5.1.5's ZeRO-3 baseline does.
fn inter_hop(net: &NetParams, ranks: usize) -> SimTime {
    SimTime::from_secs_f64(net.alpha_inter.as_secs_f64() * (1.0 + ranks as f64 / 256.0))
}

/// Cost of a flat (single ring) all-gather of a message of `m` bytes over a
/// contiguous group of `p` ranks with `k` devices per node.
///
/// * `p ≤ k`: the ring stays on NVLink. The node fabric carries
///   `p · (p-1)/p · m = (p-1)·m` bytes.
/// * `p > k`: the ring crosses nodes; the NIC is the bottleneck, carrying
///   `(p-1)/p · m` bytes per node, and every one of the `p-1` steps pays the
///   inter-node hop latency.
pub fn all_gather_flat(p: usize, k: usize, m: u64, net: &NetParams) -> CollectiveCost {
    assert!(p >= 1 && k >= 1);
    if p == 1 {
        return CollectiveCost { phases: vec![] };
    }
    if p <= k {
        CollectiveCost {
            phases: vec![Phase {
                link: LinkClass::NvLink,
                bytes: frac_bytes(m, p - 1, 1),
                latency: net.launch + net.alpha_intra * (p as u64 - 1),
            }],
        }
    } else {
        CollectiveCost {
            phases: vec![Phase {
                link: LinkClass::Nic,
                bytes: frac_bytes(m, p - 1, p),
                latency: net.launch + inter_hop(net, p) * (p as u64 - 1),
            }],
        }
    }
}

/// Cost of the MiCS 3-stage hierarchical all-gather (§3.3) of `m` bytes over
/// a group of `p` ranks spanning `p/k` nodes.
///
/// Stage 1 runs `k` inter-node all-gathers in parallel (one per channel of
/// `p/k` ranks); together they put `(p-k)/p · m` bytes on each node's NIC —
/// the data-volume reduction the paper proves. Stage 2 re-arranges `m/k`
/// bytes through the local copy engine. Stage 3 issues `p/k` *batched*
/// intra-node all-gathers moving `(k-1)·m/k · k = (k-1)·m` bytes per node
/// over NVLink; with the coalesced API the batch pays one launch plus a
/// small per-call overhead instead of a full launch per call.
///
/// Returns `None` when the geometry does not span nodes (use
/// [`all_gather_flat`]).
pub fn all_gather_hierarchical(
    p: usize,
    k: usize,
    m: u64,
    net: &NetParams,
    coalesced: bool,
) -> Option<CollectiveCost> {
    let layout = HierarchicalLayout::new(p, k)?;
    let nodes = layout.nodes();
    let batch_overhead = if coalesced {
        net.launch + net.coalesced_call * (nodes as u64 - 1)
    } else {
        net.launch * nodes as u64
    };
    Some(CollectiveCost {
        phases: vec![
            // Stage 1: k parallel inter-node all-gathers of p/k ranks each —
            // each channel is a *small* ring, so its per-hop latency barely
            // suffers from the straggler effect (the scale advantage §3.3
            // exploits).
            Phase {
                link: LinkClass::Nic,
                bytes: frac_bytes(m, p - k, p),
                latency: net.launch + inter_hop(net, nodes) * (nodes as u64 - 1),
            },
            // Stage 2: local chunk re-arrangement of the m/k gathered bytes.
            Phase {
                link: LinkClass::Memcpy,
                bytes: frac_bytes(m, 1, k),
                latency: SimTime::from_micros(1),
            },
            // Stage 3: p/k batched intra-node all-gathers.
            Phase {
                link: LinkClass::NvLink,
                bytes: frac_bytes(m, k - 1, 1),
                latency: batch_overhead + net.alpha_intra * (k as u64 - 1),
            },
        ],
    })
}

/// Cost of a ring reduce-scatter over `p` ranks (`m` = full message size).
/// Volume-symmetric with all-gather; reduction arithmetic is assumed hidden
/// behind the transfers (true on GPUs).
pub fn reduce_scatter(p: usize, k: usize, m: u64, net: &NetParams) -> CollectiveCost {
    all_gather_flat(p, k, m, net)
}

/// Cost of a ring all-reduce over a group of `p` ranks whose members are
/// laid out with stride `stride` (1 = contiguous partition group, `p_part` =
/// replication group). `k` is devices per node.
///
/// An all-reduce is a reduce-scatter followed by an all-gather: `2(p-1)/p·m`
/// bytes on the bottleneck link and `2(p-1)` hop latencies.
pub fn all_reduce(p: usize, k: usize, stride: usize, m: u64, net: &NetParams) -> CollectiveCost {
    assert!(p >= 1 && k >= 1 && stride >= 1);
    if p == 1 {
        return CollectiveCost { phases: vec![] };
    }
    // The group spans multiple nodes if the span of its members exceeds one
    // node's worth of ranks.
    let span = (p - 1) * stride + 1;
    let crosses_nodes = span > k;
    if crosses_nodes {
        CollectiveCost {
            phases: vec![Phase {
                link: LinkClass::Nic,
                bytes: frac_bytes(m, 2 * (p - 1), p),
                latency: net.launch + inter_hop(net, p) * (2 * (p as u64 - 1)),
            }],
        }
    } else {
        CollectiveCost {
            phases: vec![Phase {
                link: LinkClass::NvLink,
                bytes: frac_bytes(m, 2 * (p - 1), 1),
                latency: net.launch + net.alpha_intra * (2 * (p as u64 - 1)),
            }],
        }
    }
}

/// Cost of a point-to-point transfer of `m` bytes (pipeline-parallel
/// activations between stages).
pub fn p2p(m: u64, inter_node: bool, net: &NetParams) -> CollectiveCost {
    let (link, alpha) = if inter_node {
        (LinkClass::Nic, net.alpha_inter)
    } else {
        (LinkClass::NvLink, net.alpha_intra)
    };
    CollectiveCost { phases: vec![Phase { link, bytes: m, latency: net.launch + alpha }] }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetParams {
        NetParams {
            nic_bw: 12.5e9,
            nvlink_bw: 8.0 * 135e9,
            memcpy_bw: 700e9,
            alpha_intra: SimTime::from_micros(4),
            alpha_inter: SimTime::from_micros(22),
            launch: SimTime::from_micros(12),
            coalesced_call: SimTime::from_micros(2),
        }
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn trivial_group_costs_nothing() {
        let c = all_gather_flat(1, 8, 128 * MB, &net());
        assert!(c.phases.is_empty());
        assert_eq!(c.serial_time(&net()), SimTime::ZERO);
    }

    #[test]
    fn intra_node_all_gather_uses_nvlink_only() {
        let c = all_gather_flat(8, 8, 128 * MB, &net());
        assert_eq!(c.phases.len(), 1);
        assert_eq!(c.phases[0].link, LinkClass::NvLink);
        assert_eq!(c.phases[0].bytes, 7 * 128 * MB);
        assert_eq!(c.nic_bytes(), 0);
    }

    #[test]
    fn inter_node_all_gather_puts_expected_bytes_on_nic() {
        // (p-1)/p of the message crosses each node's NIC.
        let m = 128 * MB;
        let c = all_gather_flat(16, 8, m, &net());
        assert_eq!(c.phases[0].link, LinkClass::Nic);
        assert_eq!(c.phases[0].bytes, m * 15 / 16);
    }

    #[test]
    fn hierarchical_reduces_nic_volume_by_paper_ratio() {
        // §3.3: inter-node volume shrinks from (p-1)M/p to (p-k)M/p.
        let m = 256 * MB;
        for (p, k) in [(16usize, 8usize), (32, 8), (64, 8)] {
            let flat = all_gather_flat(p, k, m, &net());
            let hier = all_gather_hierarchical(p, k, m, &net(), true).unwrap();
            assert_eq!(flat.nic_bytes(), m * (p as u64 - 1) / p as u64);
            assert_eq!(hier.nic_bytes(), m * (p as u64 - k as u64) / p as u64);
            assert!(hier.nic_bytes() < flat.nic_bytes());
        }
    }

    #[test]
    fn hierarchical_volume_reduction_for_paper_range() {
        // §3.3: for k = 8 and 8 ≤ p ≤ 64, the reduction is 11.1%–46.6%.
        let m = 1024 * MB;
        let n = net();
        let h16 = all_gather_hierarchical(16, 8, m, &n, true).unwrap();
        let f16 = all_gather_flat(16, 8, m, &n);
        let red16 = 1.0 - h16.nic_bytes() as f64 / f16.nic_bytes() as f64;
        assert!((red16 - 0.466).abs() < 0.01, "p=16 reduction {red16}");
        let h64 = all_gather_hierarchical(64, 8, m, &n, true).unwrap();
        let f64_ = all_gather_flat(64, 8, m, &n);
        let red64 = 1.0 - h64.nic_bytes() as f64 / f64_.nic_bytes() as f64;
        assert!((red64 - 0.111).abs() < 0.01, "p=64 reduction {red64}");
    }

    #[test]
    fn hierarchical_faster_than_flat_for_typical_messages() {
        // Fig. 12a: the hierarchical operator beats vanilla all-gather on
        // two p3dn nodes across message sizes.
        let n = net();
        for m in [2 * MB, 16 * MB, 64 * MB, 128 * MB, 256 * MB] {
            let flat = all_gather_flat(16, 8, m, &n).serial_time(&n);
            let hier = all_gather_hierarchical(16, 8, m, &n, true).unwrap().serial_time(&n);
            assert!(hier < flat, "m = {m}: hier {hier} vs flat {flat}");
        }
    }

    #[test]
    fn hierarchical_rejects_intra_node_geometry() {
        assert!(all_gather_hierarchical(8, 8, MB, &net(), true).is_none());
        assert!(all_gather_hierarchical(4, 8, MB, &net(), true).is_none());
    }

    #[test]
    fn coalescing_reduces_stage3_latency() {
        let n = net();
        let coalesced = all_gather_hierarchical(64, 8, 128 * MB, &n, true).unwrap();
        let separate = all_gather_hierarchical(64, 8, 128 * MB, &n, false).unwrap();
        assert!(coalesced.phases[2].latency < separate.phases[2].latency);
    }

    #[test]
    fn all_reduce_volume_is_double_all_gather() {
        let n = net();
        let m = 64 * MB;
        let ag = all_gather_flat(16, 8, m, &n);
        let ar = all_reduce(16, 8, 1, m, &n);
        assert_eq!(ar.nic_bytes(), 2 * ag.nic_bytes());
    }

    #[test]
    fn replication_group_all_reduce_detects_node_span() {
        let n = net();
        // Replication group of 4 members with stride 8 (p=8 partition groups
        // on k=8 nodes): members on distinct nodes → NIC.
        let ar = all_reduce(4, 8, 8, 64 * MB, &n);
        assert_eq!(ar.phases[0].link, LinkClass::Nic);
        // Stride-2 group of 2 inside one node → NVLink.
        let ar = all_reduce(2, 8, 2, 64 * MB, &n);
        assert_eq!(ar.phases[0].link, LinkClass::NvLink);
    }

    #[test]
    fn latency_grows_with_scale() {
        // §2.3: latency has positive correlation with communication scale.
        let n = net();
        let t8: Vec<SimTime> = [16usize, 64, 256]
            .iter()
            .map(|&p| all_gather_flat(p, 8, MB, &n).serial_time(&n))
            .collect();
        assert!(t8[0] < t8[1] && t8[1] < t8[2]);
    }

    #[test]
    fn p2p_costs() {
        let n = net();
        let inter = p2p(16 * MB, true, &n).serial_time(&n);
        let intra = p2p(16 * MB, false, &n).serial_time(&n);
        assert!(inter > intra);
    }
}
