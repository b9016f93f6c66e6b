//! Effective-bandwidth estimation (paper §2.3, Figure 1).
//!
//! The paper defines *effective communication bandwidth* as "the bandwidth
//! measured using collective communication", which folds algorithm latency
//! into the number: for a fixed message size, effective bandwidth shrinks as
//! the participant count grows, because ring latency `(p-1)·α` grows while
//! the wire volume `(p-1)/p·M` saturates. Figure 1 shows exactly this —
//! 128 MB messages get poor utilization on 16 and 32 nodes.

use crate::cost;
use mics_simnet::SimTime;

/// Network parameters of one homogeneous cluster, consumed by the cost
/// models. Construct by hand or via [`NetParams::from_instance`].
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Per-node NIC bandwidth, bytes/s.
    pub nic_bw: f64,
    /// Per-node aggregate NVLink fabric bandwidth, bytes/s.
    pub nvlink_bw: f64,
    /// Per-device copy-engine bandwidth, bytes/s.
    pub memcpy_bw: f64,
    /// Startup latency of one intra-node hop.
    pub alpha_intra: SimTime,
    /// Startup latency of one inter-node hop.
    pub alpha_inter: SimTime,
    /// Host-side launch overhead per collective.
    pub launch: SimTime,
    /// Extra overhead per additional call in a coalesced batch.
    pub coalesced_call: SimTime,
}

impl NetParams {
    /// Derive network parameters from a cluster instance type.
    pub fn from_instance(inst: &mics_cluster::InstanceType) -> Self {
        NetParams {
            nic_bw: inst.nic_bw,
            nvlink_bw: inst.nvlink_fabric_bw,
            memcpy_bw: inst.memcpy_bw,
            alpha_intra: inst.alpha_intra,
            alpha_inter: inst.alpha_inter,
            launch: inst.launch_overhead,
            coalesced_call: SimTime::from_micros(2),
        }
    }
}

/// Effective all-gather bus bandwidth for a message of `m` bytes over `p`
/// ranks (`k` per node) — the model behind Figure 1. Bus bandwidth is the
/// wire volume `(p-1)/p · M` divided by elapsed time: the NCCL convention,
/// and what the paper's B_part / B_all numbers use (B_part ≈ 128 GB/s on
/// NVLink, B_all ≈ 11 GB/s across 8 nodes).
pub fn effective_all_gather_bw(p: usize, k: usize, m: u64, net: &NetParams) -> f64 {
    let t = cost::all_gather_flat(p, k, m, net).serial_time(net);
    if t == SimTime::ZERO || p < 2 {
        return f64::INFINITY;
    }
    let wire = m as f64 * (p as f64 - 1.0) / p as f64;
    wire / t.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p3dn_net() -> NetParams {
        NetParams::from_instance(&mics_cluster::InstanceType::p3dn_24xlarge())
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn figure1_shape_bandwidth_drops_with_scale_at_fixed_message() {
        // At 128 MB, effective bandwidth must fall monotonically from
        // 2 to 32 nodes (Fig. 1's headline observation).
        let net = p3dn_net();
        let mut prev = f64::INFINITY;
        for nodes in [2usize, 4, 8, 16, 32] {
            let bw = effective_all_gather_bw(nodes * 8, 8, 128 * MB, &net);
            assert!(bw < prev, "{nodes} nodes: {bw} !< {prev}");
            prev = bw;
        }
    }

    #[test]
    fn figure1_shape_large_messages_saturate() {
        // For a fixed scale, bigger messages approach the NIC line rate.
        let net = p3dn_net();
        let small = effective_all_gather_bw(64, 8, 8 * MB, &net);
        let large = effective_all_gather_bw(64, 8, 4096 * MB, &net);
        assert!(large > small * 1.5);
        assert!(large <= net.nic_bw);
        assert!(large > 0.9 * net.nic_bw, "4 GB should nearly saturate: {large}");
    }

    #[test]
    fn paper_calibration_points() {
        let net = p3dn_net();
        // B_all ≈ 11 GB/s measured across 8 nodes (§3.2). Accept 9–12.5.
        let b_all = effective_all_gather_bw(64, 8, 512 * MB, &net);
        assert!((9e9..=12.5e9).contains(&b_all), "B_all calibration off: {:.2} GB/s", b_all / 1e9);
        // B_part ≈ 128 GB/s within one node. Accept 100–160.
        let b_part = effective_all_gather_bw(8, 8, 512 * MB, &net);
        assert!(
            (100e9..=160e9).contains(&b_part),
            "B_part calibration off: {:.2} GB/s",
            b_part / 1e9
        );
        // §3.2: the cost ratio for intra-node partitioning can reach ~11.6.
        let ratio = b_part / b_all;
        assert!((8.0..=16.0).contains(&ratio), "B_part/B_all = {ratio}");
    }
}
