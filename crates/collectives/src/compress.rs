//! α–β cost models for *quantized* collectives.
//!
//! A compressed collective trades wire bytes for copy-engine work: every
//! payload is shrunk by the scheme's compression ratio before it touches a
//! NIC or NVLink, and two extra memcpy-class phases appear — the quantize
//! kernel before the transfer and the dequantize(-reduce) kernel after it.
//! That shifts the α–β crossover points: on a 100 Gbps NIC the bandwidth
//! saving dwarfs the ~700 GB/s memcpy overhead for any sizeable message,
//! while for small messages (or fast intra-node fabrics) the two extra
//! kernel launches make fp32 the better choice. [`crossover_bytes`] finds
//! the break-even message size the tuner and benches reason about.
//!
//! The models here stay deliberately independent of `mics-compress` (this
//! crate sits below it in the dependency order); `mics-compress` converts
//! its `QuantScheme` into a [`CompressionModel`] and the two accountings are
//! tested equal in that crate.

use crate::bandwidth::NetParams;
use crate::cost::{
    all_gather_flat, all_gather_hierarchical, all_reduce, reduce_scatter, CollectiveCost,
    LinkClass, Phase,
};

/// Wire-size model of one quantization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionModel {
    /// Bits per transported element code.
    pub code_bits: u32,
    /// Elements per scale/zero-point metadata block (0 = no metadata).
    pub block: usize,
    /// Uncompressed element size in bytes (4: fp32 wires).
    pub elem_bytes: u64,
}

impl CompressionModel {
    /// 8-bit block quantization.
    pub fn int8(block: usize) -> Self {
        CompressionModel { code_bits: 8, block, elem_bytes: 4 }
    }

    /// 4-bit block quantization.
    pub fn int4(block: usize) -> Self {
        CompressionModel { code_bits: 4, block, elem_bytes: 4 }
    }

    /// f16 passthrough (no block metadata).
    pub fn f16() -> Self {
        CompressionModel { code_bits: 16, block: 0, elem_bytes: 4 }
    }

    /// Compressed size of an `m`-byte uncompressed message: packed codes
    /// plus 8 metadata bytes per block.
    pub fn compressed_bytes(&self, m: u64) -> u64 {
        let elems = m / self.elem_bytes;
        let code = (elems * self.code_bits as u64).div_ceil(8);
        let meta = if self.block > 0 { elems.div_ceil(self.block as u64) * 8 } else { 0 };
        code + meta
    }

    /// Compression ratio for an `m`-byte message.
    pub fn ratio(&self, m: u64) -> f64 {
        if m == 0 {
            return 1.0;
        }
        m as f64 / self.compressed_bytes(m) as f64
    }
}

/// Scale every wire phase of `base` by the compressed/uncompressed byte
/// ratio `c/m`. Memcpy phases scale too: staging copies inside a quantized
/// collective (e.g. the hierarchical stage-2 re-arrangement) move encoded
/// chunks, not fp32.
fn shrink_wire(base: &CollectiveCost, m: u64, c: u64) -> CollectiveCost {
    if m == 0 {
        return base.clone();
    }
    CollectiveCost {
        phases: base
            .phases
            .iter()
            .map(|ph| Phase {
                link: ph.link,
                bytes: ((ph.bytes as u128 * c as u128) / m as u128) as u64,
                latency: ph.latency,
            })
            .collect(),
    }
}

/// A quant/dequant kernel pass: `bytes` through the copy engine plus one
/// kernel launch.
fn kernel_phase(bytes: u64, net: &NetParams) -> Phase {
    Phase { link: LinkClass::Memcpy, bytes, latency: net.launch }
}

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

/// Quantized flat all-gather (qwZ-style weight gather): each rank quantizes
/// its `m/p` shard, the ring moves compressed bytes, every rank dequantizes
/// the full gathered buffer.
pub fn quantized_all_gather_flat(
    p: usize,
    k: usize,
    m: u64,
    net: &NetParams,
    cm: &CompressionModel,
) -> CollectiveCost {
    if p <= 1 {
        return all_gather_flat(p, k, m, net);
    }
    let c = cm.compressed_bytes(m);
    let wire = shrink_wire(&all_gather_flat(p, k, m, net), m, c);
    with_kernels(wire, (m + c) / p as u64, c + m, net)
}

/// Quantized 3-stage hierarchical all-gather: the wire phases (stage-1 NIC,
/// stage-2 staging memcpy, stage-3 NVLink) all move encoded chunks, so every
/// phase shrinks by the compression ratio; quant/dequant bracket the
/// collective exactly as in the flat case. `None` when the geometry does not
/// span nodes.
pub fn quantized_all_gather_hierarchical(
    p: usize,
    k: usize,
    m: u64,
    net: &NetParams,
    coalesced: bool,
    cm: &CompressionModel,
) -> Option<CollectiveCost> {
    let base = all_gather_hierarchical(p, k, m, net, coalesced)?;
    let c = cm.compressed_bytes(m);
    Some(with_kernels(shrink_wire(&base, m, c), (m + c) / p as u64, c + m, net))
}

/// Quantized reduce-scatter (qgZ-style gradient reduce): quantize the full
/// local buffer, move compressed bytes, dequantize-and-reduce on arrival.
/// The trailing kernel pass accounts the per-hop dequantize + requantize
/// work a ring implementation performs (one full pass over the data in
/// aggregate).
pub fn quantized_reduce_scatter(
    p: usize,
    k: usize,
    m: u64,
    net: &NetParams,
    cm: &CompressionModel,
) -> CollectiveCost {
    if p <= 1 {
        return reduce_scatter(p, k, m, net);
    }
    let c = cm.compressed_bytes(m);
    let wire = shrink_wire(&reduce_scatter(p, k, m, net), m, c);
    with_kernels(wire, m + c, c + m, net)
}

/// Quantized all-reduce: reduce-scatter + all-gather on compressed wires,
/// with quantize and dequantize-reduce kernel passes. Used for every
/// compressed all-reduce, the hop-2 replication-group synchronization
/// included.
pub fn quantized_all_reduce(
    p: usize,
    k: usize,
    stride: usize,
    m: u64,
    net: &NetParams,
    cm: &CompressionModel,
) -> CollectiveCost {
    if p <= 1 {
        return all_reduce(p, k, stride, m, net);
    }
    let c = cm.compressed_bytes(m);
    let wire = shrink_wire(&all_reduce(p, k, stride, m, net), m, c);
    with_kernels(wire, m + c, c + m, net)
}

/// Smallest message size (bytes, within `lo..hi` by doubling + bisection)
/// at which the quantized all-gather beats the fp32 one for this geometry,
/// or `None` if fp32 wins across the whole range. This is the α–β crossover
/// the compression shifts: below it the two extra kernel launches dominate,
/// above it the wire saving does.
pub fn crossover_bytes(
    p: usize,
    k: usize,
    net: &NetParams,
    cm: &CompressionModel,
    lo: u64,
    hi: u64,
) -> Option<u64> {
    let quantized_wins = |m: u64| {
        let q = quantized_all_gather_flat(p, k, m, net, cm).serial_time(net);
        let f = all_gather_flat(p, k, m, net).serial_time(net);
        q < f
    };
    if !quantized_wins(hi) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    if quantized_wins(lo) {
        return Some(lo);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if quantized_wins(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
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

    #[test]
    fn compressed_bytes_ratios() {
        let int8 = CompressionModel::int8(128);
        // 1 MiB fp32 = 256 Ki elems → 256 KiB codes + 2 Ki blocks × 8 B.
        assert_eq!(int8.compressed_bytes(MB), 256 * 1024 + 2048 * 8);
        assert!((int8.ratio(MB) - 3.76).abs() < 0.01, "{}", int8.ratio(MB));
        let int4 = CompressionModel::int4(128);
        assert!((int4.ratio(MB) - 7.11).abs() < 0.02, "{}", int4.ratio(MB));
        let f16 = CompressionModel::f16();
        assert_eq!(f16.compressed_bytes(MB), MB / 2);
        assert_eq!(f16.ratio(MB), 2.0);
    }

    #[test]
    fn quantized_gather_shrinks_nic_bytes_by_ratio() {
        let n = net();
        let cm = CompressionModel::int8(128);
        let m = 128 * MB;
        let base = all_gather_flat(16, 8, m, &n);
        let q = quantized_all_gather_flat(16, 8, m, &n, &cm);
        let expect = (base.nic_bytes() as f64 / cm.ratio(m)).round() as u64;
        assert!((q.nic_bytes() as i64 - expect as i64).unsigned_abs() <= 1);
        // And the memcpy kernel passes are present (quant + dequant).
        let memcpy: Vec<_> = q.phases.iter().filter(|p| p.link == LinkClass::Memcpy).collect();
        assert_eq!(memcpy.len(), 2);
    }

    #[test]
    fn hierarchical_quantized_keeps_stage_structure() {
        let n = net();
        let cm = CompressionModel::int8(128);
        let base = all_gather_hierarchical(16, 8, 64 * MB, &n, true).unwrap();
        let q = quantized_all_gather_hierarchical(16, 8, 64 * MB, &n, true, &cm).unwrap();
        // quant + (stage1 nic, stage2 memcpy, stage3 nvlink) + dequant.
        assert_eq!(q.phases.len(), base.phases.len() + 2);
        assert!(q.nic_bytes() < base.nic_bytes());
        assert!(quantized_all_gather_hierarchical(8, 8, MB, &n, true, &cm).is_none());
    }

    #[test]
    fn int8_wins_large_messages_on_nic() {
        // The headline crossover shift: at 100 Gbps, a 64 MiB inter-node
        // gather is much faster quantized.
        let n = net();
        let cm = CompressionModel::int8(128);
        for m in [16 * MB, 64 * MB, 256 * MB] {
            let q = quantized_all_gather_flat(16, 8, m, &n, &cm).serial_time(&n);
            let f = all_gather_flat(16, 8, m, &n).serial_time(&n);
            assert!(q.as_secs_f64() < 0.5 * f.as_secs_f64(), "m={m}: quantized {q} vs fp32 {f}");
        }
    }

    #[test]
    fn fp32_wins_small_messages() {
        // Two extra kernel launches dominate a 4 KiB message.
        let n = net();
        let cm = CompressionModel::int8(128);
        let q = quantized_all_gather_flat(16, 8, 4096, &n, &cm).serial_time(&n);
        let f = all_gather_flat(16, 8, 4096, &n).serial_time(&n);
        assert!(q > f, "quantized {q} vs fp32 {f}");
    }

    #[test]
    fn crossover_exists_and_moves_with_bit_width() {
        let n = net();
        let c8 = crossover_bytes(16, 8, &n, &CompressionModel::int8(128), 1024, 1 << 30)
            .expect("int8 must win somewhere on a 100 Gbps NIC");
        let c4 = crossover_bytes(16, 8, &n, &CompressionModel::int4(128), 1024, 1 << 30)
            .expect("int4 must win somewhere");
        // Reasonable range: tens of KB to a few MB.
        assert!((16 * 1024..16 * 1024 * 1024).contains(&c8), "int8 crossover {c8}");
        // More aggressive compression pays off earlier (never later).
        assert!(c4 <= c8, "int4 {c4} vs int8 {c8}");
    }

    #[test]
    fn intra_node_crossover_is_later_than_inter_node() {
        // NVLink is ~86× faster than the NIC, so the wire saving is worth
        // ~86× less and the crossover (if any) happens much later.
        let n = net();
        let cm = CompressionModel::int8(128);
        let inter = crossover_bytes(16, 8, &n, &cm, 1024, 1 << 30).unwrap();
        // `None` — fp32 winning everywhere intra-node — is also acceptable.
        if let Some(intra) = crossover_bytes(8, 8, &n, &cm, 1024, 1 << 30) {
            assert!(intra > 4 * inter, "intra {intra} vs inter {inter}");
        }
    }

    #[test]
    fn quantized_all_reduce_and_reduce_scatter_shrink_wire() {
        let n = net();
        let cm = CompressionModel::int4(64);
        let m = 32 * MB;
        assert!(
            quantized_reduce_scatter(16, 8, m, &n, &cm).nic_bytes()
                < reduce_scatter(16, 8, m, &n).nic_bytes()
        );
        let q = quantized_all_reduce(4, 8, 8, m, &n, &cm);
        let f = all_reduce(4, 8, 8, m, &n);
        assert!(q.nic_bytes() < f.nic_bytes());
        assert_eq!(q.phases.len(), f.phases.len() + 2);
    }

    #[test]
    fn trivial_groups_pay_no_kernels() {
        let n = net();
        let cm = CompressionModel::int8(128);
        assert!(quantized_all_gather_flat(1, 8, MB, &n, &cm).phases.is_empty());
        assert!(quantized_all_reduce(1, 8, 1, MB, &n, &cm).phases.is_empty());
    }
}
