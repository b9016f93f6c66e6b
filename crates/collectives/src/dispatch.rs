//! Per-op cost dispatch: a wire-level collective descriptor.
//!
//! The schedule IR in `mics-core` annotates every communication op with a
//! [`WireCollective`] — *what* moves (kind, participants, payload bytes,
//! compressed size) without *when* or *on which stream*. This module turns
//! such a descriptor into a [`CollectiveCost`] by dispatching to the α–β
//! models of [`crate::cost`], so the simulator backend and any analytic
//! consumer (the Megatron comparator, wire accounting) price an op through
//! one code path.
//!
//! A compressed op (ZeRO++'s qwZ weight gathers and qgZ gradient
//! reductions) costs its exact algorithm with every wire phase shrunk to
//! the compressed payload, bracketed by a quantize and a dequantize kernel
//! pass on the copy engine. The trade shifts the α–β crossover: on a
//! 100 Gbps NIC the bandwidth saving dwarfs the ~700 GB/s memcpy overhead
//! for any sizeable message, while for small messages (or the fast
//! intra-node fabric) the two extra kernel launches make the exact wire the
//! better choice.

use crate::bandwidth::NetParams;
use crate::cost::{
    all_gather_flat, all_gather_hierarchical, all_reduce, p2p, reduce_scatter, CollectiveCost,
    LinkClass, Phase,
};

/// Which collective algorithm an op runs on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// Ring (or, when `hierarchical`, the §3.3 3-stage) all-gather over a
    /// contiguous group.
    AllGather {
        /// Use the 3-stage hierarchical algorithm (requires the group to
        /// span nodes: `participants > devices_per_node`).
        hierarchical: bool,
        /// Batch the stage-3 intra-node calls through the coalesced API.
        coalesced: bool,
    },
    /// Ring reduce-scatter over a contiguous group.
    ReduceScatter,
    /// Ring all-reduce over a group whose members are laid out with this
    /// stride (1 = contiguous partition group, `p` = replication group).
    AllReduce {
        /// Rank stride between consecutive members.
        stride: usize,
    },
    /// Point-to-point transfer (pipeline-parallel activations).
    P2p {
        /// Whether the endpoints sit on different nodes.
        inter_node: bool,
    },
}

/// A priced communication op: everything the α–β models need, nothing the
/// executors add (streams, events, host overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCollective {
    /// The algorithm and its layout parameters.
    pub kind: WireKind,
    /// Number of participating ranks.
    pub participants: usize,
    /// Devices per node (`k`), which decides NVLink vs NIC.
    pub devices_per_node: usize,
    /// Uncompressed payload bytes (`m` in the cost-model signatures).
    pub bytes: u64,
    /// Compressed payload bytes the codec puts on the wire for the `bytes`
    /// payload (`None` = full-precision wire). The schedule emitter sets it
    /// from `mics_compress::QuantScheme::wire_bytes`.
    pub codec: Option<u64>,
}

impl WireCollective {
    /// Price this op with the α–β cost models.
    ///
    /// # Panics
    /// Panics when `kind` asks for the hierarchical all-gather on a
    /// geometry that does not span nodes — callers are expected to have
    /// validated the geometry (the executors do so via `check_memory`).
    pub fn cost(&self, net: &NetParams) -> CollectiveCost {
        let (p, k, m) = (self.participants, self.devices_per_node, self.bytes);
        let exact = match self.kind {
            WireKind::AllGather { hierarchical: true, coalesced } => {
                all_gather_hierarchical(p, k, m, net, coalesced)
                    .expect("geometry validated by check_memory")
            }
            WireKind::AllGather { hierarchical: false, .. } => all_gather_flat(p, k, m, net),
            WireKind::ReduceScatter => reduce_scatter(p, k, m, net),
            WireKind::AllReduce { stride } => all_reduce(p, k, stride, m, net),
            WireKind::P2p { inter_node } => return p2p(m, inter_node, net),
        };
        match self.codec {
            // A gather quantizes only the local shard; a reduction quantizes
            // the whole buffer. Either way every rank dequantizes all of it
            // (for a reduction: the per-hop dequantize-and-reduce, one full
            // pass over the data in aggregate).
            Some(c) if p > 1 => {
                let quant = match self.kind {
                    WireKind::AllGather { .. } => (m + c) / p as u64,
                    _ => m + c,
                };
                with_kernels(shrink_wire(exact, m, c), quant, c + m, net)
            }
            _ => exact,
        }
    }

    /// Per-node NIC bytes of this op (the wire volume the IR's accounting
    /// aggregates), via [`CollectiveCost::nic_bytes`].
    pub fn nic_bytes(&self, net: &NetParams) -> u64 {
        self.cost(net).nic_bytes()
    }
}

/// Scale every wire phase of `cost` by the compressed/uncompressed byte
/// ratio `c/m`. Memcpy phases scale too: staging copies inside a compressed
/// collective (e.g. the hierarchical stage-2 re-arrangement) move encoded
/// chunks, not full-precision ones.
fn shrink_wire(mut cost: CollectiveCost, m: u64, c: u64) -> CollectiveCost {
    if m > 0 {
        for ph in &mut cost.phases {
            ph.bytes = ((ph.bytes as u128 * c as u128) / m as u128) as u64;
        }
    }
    cost
}

/// A quantize or dequantize kernel pass: `bytes` through the copy engine
/// plus one kernel launch.
fn kernel_phase(bytes: u64, net: &NetParams) -> Phase {
    Phase { link: LinkClass::Memcpy, bytes, latency: net.launch }
}

/// `wire` bracketed by a quantize pass over `quant_bytes` and a dequantize
/// pass over `dequant_bytes`.
fn with_kernels(
    wire: CollectiveCost,
    quant_bytes: u64,
    dequant_bytes: u64,
    net: &NetParams,
) -> CollectiveCost {
    let mut phases = Vec::with_capacity(wire.phases.len() + 2);
    phases.push(kernel_phase(quant_bytes, net));
    phases.extend(wire.phases);
    phases.push(kernel_phase(dequant_bytes, net));
    CollectiveCost { phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mics_simnet::SimTime;

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

    fn wc(kind: WireKind, p: usize, m: u64, codec: Option<u64>) -> WireCollective {
        WireCollective { kind, participants: p, devices_per_node: 8, bytes: m, codec }
    }

    /// int8 with 128-element blocks on an fp32 payload of `m` bytes (a
    /// multiple of 512): a code byte per element and 8 metadata bytes per
    /// block, 17/64 of the payload.
    fn int8(m: u64) -> Option<u64> {
        Some(17 * m / 64)
    }

    /// What the codec branch must make of `exact`: a quantize pass over
    /// `quant` bytes, every phase at `c/m` of its bytes, and a dequantize
    /// pass over `c + m`.
    fn compressed(exact: CollectiveCost, m: u64, c: u64, quant: u64) -> CollectiveCost {
        let kernel = |bytes| Phase { link: LinkClass::Memcpy, bytes, latency: net().launch };
        let mut phases = vec![kernel(quant)];
        phases.extend(exact.phases.iter().map(|ph| Phase { bytes: ph.bytes * c / m, ..*ph }));
        phases.push(kernel(c + m));
        CollectiveCost { phases }
    }

    #[test]
    fn dispatch_matches_direct_calls_exactly() {
        let n = net();
        let hier = WireKind::AllGather { hierarchical: true, coalesced: true };
        let cases = [
            (
                wc(
                    WireKind::AllGather { hierarchical: false, coalesced: false },
                    16,
                    64 * MB,
                    None,
                ),
                all_gather_flat(16, 8, 64 * MB, &n),
            ),
            (
                wc(hier, 16, 64 * MB, None),
                all_gather_hierarchical(16, 8, 64 * MB, &n, true).unwrap(),
            ),
            (wc(WireKind::ReduceScatter, 16, 32 * MB, None), reduce_scatter(16, 8, 32 * MB, &n)),
            (
                wc(WireKind::AllReduce { stride: 8 }, 4, 8 * MB, None),
                all_reduce(4, 8, 8, 8 * MB, &n),
            ),
            (wc(WireKind::P2p { inter_node: true }, 2, 16 * MB, None), p2p(16 * MB, true, &n)),
            // Compressed: a gather quantizes its shard, a reduction the
            // whole buffer.
            (
                wc(hier, 16, 64 * MB, int8(64 * MB)),
                compressed(
                    all_gather_hierarchical(16, 8, 64 * MB, &n, true).unwrap(),
                    64 * MB,
                    17 * MB,
                    81 * MB / 16,
                ),
            ),
            (
                wc(WireKind::ReduceScatter, 16, 32 * MB, int8(32 * MB)),
                compressed(reduce_scatter(16, 8, 32 * MB, &n), 32 * MB, 17 * MB / 2, 81 * MB / 2),
            ),
            (
                wc(WireKind::AllReduce { stride: 8 }, 4, 8 * MB, int8(8 * MB)),
                compressed(all_reduce(4, 8, 8, 8 * MB, &n), 8 * MB, 17 * MB / 8, 81 * MB / 8),
            ),
        ];
        for (desc, expect) in cases {
            assert_eq!(desc.cost(&n), expect, "{desc:?}");
            assert_eq!(desc.nic_bytes(&n), expect.nic_bytes(), "{desc:?}");
        }
    }

    #[test]
    fn one_rank_groups_and_p2p_stay_exact_under_a_codec() {
        let n = net();
        let flat = WireKind::AllGather { hierarchical: false, coalesced: false };
        assert!(wc(flat, 1, MB, int8(MB)).cost(&n).phases.is_empty());
        assert!(wc(WireKind::AllReduce { stride: 1 }, 1, MB, int8(MB)).cost(&n).phases.is_empty());
        let hop = wc(WireKind::P2p { inter_node: true }, 2, MB, int8(MB));
        assert_eq!(hop.cost(&n), p2p(MB, true, &n));
    }

    #[test]
    #[should_panic(expected = "geometry validated")]
    fn hierarchical_on_intra_node_geometry_panics() {
        let desc = wc(WireKind::AllGather { hierarchical: true, coalesced: true }, 8, MB, None);
        let _ = desc.cost(&net());
    }
}
