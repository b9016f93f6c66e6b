//! `mics-compress` — deterministic block-wise quantization for compressed
//! collectives (the ZeRO++ direction layered on MiCS's topology).
//!
//! MiCS minimizes communication *scale*; this crate minimizes communication
//! *volume*. It provides the quantization kernels the quantized collectives
//! in `mics-dataplane` execute and the cost models in
//! `mics-collectives::compress` price:
//!
//! * **fp32 → int8 / int4** affine quantization with a per-block scale and
//!   zero-point (qwZ-style block quantization): each block of
//!   [`QuantScheme::block`] elements stores `zero = min` and
//!   `scale = (max − min) / (2^bits − 1)`, so the worst-case round-trip
//!   error is half a quantization step of *that block* — outliers in one
//!   block cannot destroy the resolution of another;
//! * **fp32 → f16 passthrough** (round-to-nearest-even, via `mics-tensor`'s
//!   deterministic converters), the lossless-for-f16-representable-data mode
//!   mixed-precision training already tolerates;
//! * **round-trip error accounting**: every [`Quantized`] buffer can report
//!   a sound upper bound on `max |x − dequantize(quantize(x))|`, which the
//!   property tests hold the kernels to.
//!
//! Everything is deterministic: no RNG, no data-dependent iteration order,
//! so quantized collectives keep the bit-reproducibility contract of the
//! data plane.
//!
//! # Wire format
//!
//! The in-process data plane moves `f32` buffers, so a [`Quantized`] value
//! can be encoded into a self-contained word stream ([`Quantized::to_words`]
//! / [`Quantized::from_words`]). Each metadata float is carried verbatim and
//! each code byte is carried as one exact small-integer word — trivially
//! memcpy-safe, at the price of transport inflation that only exists inside
//! this simulator. *Accounting* uses [`QuantScheme::wire_bytes`], the real
//! packed size a NIC would see (codes packed to `bits`, 8 metadata bytes per
//! block), which is what the α–β cost models charge.
//!
//! # Non-finite inputs
//!
//! Mixed-precision training relies on overflow detection: a block containing
//! a non-finite value quantizes to a poisoned block whose dequantized
//! elements are all NaN, so an inf/NaN gradient still trips the existing
//! loss-scale machinery instead of being silently clamped into range.

#![warn(missing_docs)]

use mics_tensor::dtype::{f16_bits_to_f32, f32_to_f16_bits};
use std::ops::Range;

/// Default quantization block size (elements per scale/zero-point pair).
/// 128 elements keep the metadata overhead at `8 / (128·bits/8)` — 6.25%
/// for int8 — while bounding how far one outlier's damage spreads.
pub const DEFAULT_BLOCK: usize = 128;

/// A quantization scheme for collective payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// fp32 → IEEE binary16 passthrough (no block metadata). Lossless for
    /// values already representable in f16 — in particular for the
    /// mixed-precision parameter casts `mics-minidl` sends.
    F16,
    /// 8-bit affine block quantization.
    Int8 {
        /// Elements per scale/zero-point block.
        block: usize,
    },
    /// 4-bit affine block quantization (two codes per byte on the wire).
    Int4 {
        /// Elements per scale/zero-point block.
        block: usize,
    },
}

impl QuantScheme {
    /// int8 with the default block size.
    pub fn int8() -> Self {
        QuantScheme::Int8 { block: DEFAULT_BLOCK }
    }

    /// int4 with the default block size.
    pub fn int4() -> Self {
        QuantScheme::Int4 { block: DEFAULT_BLOCK }
    }

    /// Bits per transported element code.
    pub fn code_bits(self) -> u32 {
        match self {
            QuantScheme::F16 => 16,
            QuantScheme::Int8 { .. } => 8,
            QuantScheme::Int4 { .. } => 4,
        }
    }

    /// Elements per metadata block (`None` for the block-free f16 mode).
    pub fn block(self) -> Option<usize> {
        match self {
            QuantScheme::F16 => None,
            QuantScheme::Int8 { block } | QuantScheme::Int4 { block } => Some(block),
        }
    }

    /// Number of metadata blocks for a buffer of `len` elements.
    pub fn blocks(self, len: usize) -> usize {
        match self.block() {
            Some(b) => {
                assert!(b > 0, "block size must be positive");
                len.div_ceil(b)
            }
            None => 0,
        }
    }

    /// Bytes of packed code stream for `len` elements.
    pub fn code_bytes(self, len: usize) -> usize {
        (len * self.code_bits() as usize).div_ceil(8)
    }

    /// The *real* wire size of `len` quantized elements: packed codes plus
    /// 8 metadata bytes (scale + zero-point) per block. This is what the
    /// cost models charge the NIC for.
    pub fn wire_bytes(self, len: usize) -> u64 {
        self.code_bytes(len) as u64 + 8 * self.blocks(len) as u64
    }

    /// Compression ratio versus fp32 for a buffer of `len` elements.
    pub fn ratio(self, len: usize) -> f64 {
        if len == 0 {
            return 1.0;
        }
        (4 * len) as f64 / self.wire_bytes(len) as f64
    }

    /// Number of f32 words [`Quantized::to_words`] produces for `len`
    /// elements. A pure function of `(scheme, len)`, which is what makes the
    /// encoding usable inside SPMD collectives: every rank knows every
    /// peer's encoded size without a handshake.
    pub fn encoded_words(self, len: usize) -> usize {
        match self {
            QuantScheme::F16 => len,
            QuantScheme::Int8 { .. } | QuantScheme::Int4 { .. } => {
                2 * self.blocks(len) + self.code_bytes(len)
            }
        }
    }

    /// The α–β cost-model view of this scheme.
    pub fn cost_model(self) -> mics_collectives::compress::CompressionModel {
        use mics_collectives::compress::CompressionModel;
        match self {
            QuantScheme::F16 => CompressionModel::f16(),
            QuantScheme::Int8 { block } => CompressionModel::int8(block),
            QuantScheme::Int4 { block } => CompressionModel::int4(block),
        }
    }

    /// Short human-readable label (`"f16"`, `"int8/128"`, …).
    pub fn label(self) -> String {
        match self {
            QuantScheme::F16 => "f16".to_string(),
            QuantScheme::Int8 { block } => format!("int8/{block}"),
            QuantScheme::Int4 { block } => format!("int4/{block}"),
        }
    }
}

/// Where compressed collectives are allowed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionScope {
    /// Compress only the collectives *inside* a partition group (parameter
    /// gathers, hop-1 reduce-scatters). The cross-replication-group hop-2
    /// all-reduce stays fp32 — it runs once per accumulation window, so its
    /// volume is already amortized and keeping it exact limits error growth.
    IntraGroupOnly,
    /// Compress every gradient/parameter collective, including the hop-2
    /// boundary all-reduce.
    Everywhere,
}

/// Compression knobs carried by the executors (`mics-core`) and the
/// fidelity trainer (`mics-minidl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Quantization scheme for compressed payloads.
    pub scheme: QuantScheme,
    /// Quantize parameter all-gathers (qwZ-style weight compression).
    pub weights: bool,
    /// Quantize gradient reduce-scatters / all-reduces (qgZ-style).
    pub grads: bool,
    /// Which collectives participate.
    pub scope: CompressionScope,
}

impl CompressionConfig {
    /// Compress parameter gathers only.
    pub fn weights_only(scheme: QuantScheme) -> Self {
        CompressionConfig {
            scheme,
            weights: true,
            grads: false,
            scope: CompressionScope::Everywhere,
        }
    }

    /// Compress gradient reductions only.
    pub fn grads_only(scheme: QuantScheme) -> Self {
        CompressionConfig {
            scheme,
            weights: false,
            grads: true,
            scope: CompressionScope::Everywhere,
        }
    }

    /// Compress both directions.
    pub fn both(scheme: QuantScheme) -> Self {
        CompressionConfig {
            scheme,
            weights: true,
            grads: true,
            scope: CompressionScope::Everywhere,
        }
    }

    /// Short label for reports, e.g. `"int8/128·wg"`.
    pub fn label(&self) -> String {
        let mut dir = String::new();
        if self.weights {
            dir.push('w');
        }
        if self.grads {
            dir.push('g');
        }
        let scope = match self.scope {
            CompressionScope::IntraGroupOnly => "·intra",
            CompressionScope::Everywhere => "",
        };
        format!("{}·{dir}{scope}", self.scheme.label())
    }
}

/// A quantized buffer: per-block metadata plus the packed code stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    scheme: QuantScheme,
    len: usize,
    /// Per-block quantization step (empty for f16).
    scales: Vec<f32>,
    /// Per-block zero-point = block minimum (empty for f16).
    zeros: Vec<f32>,
    /// Packed codes: 1 byte/element for int8, 2 elements/byte for int4,
    /// 2 bytes/element (little-endian binary16) for f16.
    codes: Vec<u8>,
}

/// Integer code levels for a bit width: `2^bits − 1`.
fn levels(bits: u32) -> u32 {
    (1u32 << bits) - 1
}

fn int_bits(scheme: QuantScheme) -> Option<u32> {
    match scheme {
        QuantScheme::F16 => None,
        QuantScheme::Int8 { .. } => Some(8),
        QuantScheme::Int4 { .. } => Some(4),
    }
}

/// How a decoded element lands in its output slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Land {
    /// The slot takes the decoded value.
    Overwrite,
    /// The decoded value is added to the slot (`slot + value`, one f32 add).
    Add,
}

/// Land one value per slot of `out`.
#[inline]
fn land_values(values: impl Iterator<Item = f32>, out: &mut [f32], land: Land) {
    match land {
        Land::Overwrite => out.iter_mut().zip(values).for_each(|(o, v)| *o = v),
        Land::Add => out.iter_mut().zip(values).for_each(|(o, v)| *o += v),
    }
}

/// The per-block kernel behind [`dequantize`] and [`land_words`]: lands
/// elements `range` of a block-quantized buffer into `out`, a block at a
/// time. `byte(j)` is code byte `j` (one code per byte for int8, two for
/// int4, low nibble first). The one home of the element formula: code `c`
/// of block `b` decodes to `zeros[b] + c · scales[b]`, evaluated in f64 and
/// rounded once to f32.
fn land_blocks(
    scheme: QuantScheme,
    scales: &[f32],
    zeros: &[f32],
    byte: impl Fn(usize) -> u8,
    range: Range<usize>,
    out: &mut [f32],
    land: Land,
) {
    let block = scheme.block().expect("integer schemes have a block size");
    let mut rest = out;
    let mut i = range.start;
    while i < range.end {
        let b = i / block;
        let end = range.end.min((b + 1) * block);
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(end - i);
        let (zero, scale) = (zeros[b] as f64, scales[b] as f64);
        let value = |c: u8| (zero + f64::from(c) * scale) as f32;
        if scheme.code_bits() == 8 {
            land_values((i..end).map(|j| value(byte(j))), out, land);
        } else {
            land_values((i..end).map(|j| value((byte(j / 2) >> (j % 2 * 4)) & 0xf)), out, land);
        }
        rest = tail;
        i = end;
    }
}

/// Quantize `data` under `scheme`. Deterministic; blocks containing a
/// non-finite value are poisoned (see the crate docs).
pub fn quantize(data: &[f32], scheme: QuantScheme) -> Quantized {
    let len = data.len();
    match int_bits(scheme) {
        None => {
            let mut codes = Vec::with_capacity(2 * len);
            for &x in data {
                codes.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
            }
            Quantized { scheme, len, scales: Vec::new(), zeros: Vec::new(), codes }
        }
        Some(bits) => {
            let block = scheme.block().expect("integer schemes have a block size");
            assert!(block > 0, "block size must be positive");
            let nb = scheme.blocks(len);
            let mut scales = Vec::with_capacity(nb);
            let mut zeros = Vec::with_capacity(nb);
            let mut codes = vec![0u8; scheme.code_bytes(len)];
            let lv = levels(bits);
            for b in 0..nb {
                let span = &data[b * block..len.min((b + 1) * block)];
                let finite = span.iter().all(|x| x.is_finite());
                if !finite {
                    // Poisoned block: dequantizes to all-NaN.
                    scales.push(f32::NAN);
                    zeros.push(f32::NAN);
                    continue; // codes stay 0
                }
                let mut min = f32::INFINITY;
                let mut max = f32::NEG_INFINITY;
                for &x in span {
                    min = min.min(x);
                    max = max.max(x);
                }
                // f64 range arithmetic: max − min can overflow f32 even
                // when both endpoints are finite.
                let scale = ((max as f64 - min as f64) / lv as f64) as f32;
                // A constant (or numerically constant) block is stored
                // exactly as its zero-point with scale 0.
                if !scale.is_normal() {
                    scales.push(0.0);
                    zeros.push(min);
                    continue;
                }
                scales.push(scale);
                zeros.push(min);
                // f64 intermediates keep the rounding error comfortably
                // inside the half-step bound. `t ≥ 0` (x ≥ min), so
                // rounding half away from zero is the truncation plus one
                // when the fraction reaches 0.5 — exact in f64 — and only
                // the upper clamp can bind.
                let inv = 1.0 / scale as f64;
                let code = |x: f32| {
                    let t = (x as f64 - min as f64) * inv;
                    let k = t as u32;
                    (k + u32::from(t - k as f64 >= 0.5)).min(lv)
                };
                let first = b * block;
                if bits == 8 {
                    for (c, &x) in codes[first..first + span.len()].iter_mut().zip(span) {
                        *c = code(x) as u8;
                    }
                } else {
                    for (j, &x) in span.iter().enumerate() {
                        let i = first + j;
                        codes[i / 2] |= (code(x) as u8) << ((i % 2) * 4);
                    }
                }
            }
            Quantized { scheme, len, scales, zeros, codes }
        }
    }
}

/// Reconstruct the fp32 buffer a [`Quantized`] value represents.
pub fn dequantize(q: &Quantized) -> Vec<f32> {
    let mut out = vec![0.0f32; q.len];
    if q.scheme == QuantScheme::F16 {
        let pairs = q.codes.chunks_exact(2);
        let values = pairs.map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])));
        land_values(values, &mut out, Land::Overwrite);
    } else {
        let byte = |j: usize| q.codes[j];
        land_blocks(q.scheme, &q.scales, &q.zeros, byte, 0..q.len, &mut out, Land::Overwrite);
    }
    out
}

/// Land elements `range` of the `len`-element buffer that `words` encodes
/// under `scheme` (a [`Quantized::to_words`] stream) into `out`, one per
/// slot, without building the [`Quantized`] value: every landed bit equals
/// the matching element of `dequantize(&Quantized::from_words(words, len,
/// scheme))`, and only the elements of `range` are decoded.
///
/// # Panics
/// Panics if `words` has the wrong length for `(scheme, len)`, if `range`
/// does not lie inside `0..len`, or if `out.len() != range.len()`.
pub fn land_words(
    words: &[f32],
    len: usize,
    scheme: QuantScheme,
    range: Range<usize>,
    out: &mut [f32],
    land: Land,
) {
    assert_eq!(
        words.len(),
        scheme.encoded_words(len),
        "encoded stream length mismatch for {scheme:?} × {len}"
    );
    assert!(range.start <= range.end && range.end <= len, "range {range:?} outside 0..{len}");
    assert_eq!(out.len(), range.len(), "output slice must match the landed range");
    if scheme == QuantScheme::F16 {
        // Each word carries one binary16 bit pattern.
        land_values(words[range].iter().map(|&w| f16_bits_to_f32(w as u16)), out, land);
    } else {
        let nb = scheme.blocks(len);
        let (scales, rest) = words.split_at(nb);
        let (zeros, codes) = rest.split_at(nb);
        land_blocks(scheme, scales, zeros, |j| codes[j] as u8, range, out, land);
    }
}

/// `dequantize(quantize(data))` in one call — what a value looks like after
/// one trip over a quantized wire.
pub fn round_trip(data: &[f32], scheme: QuantScheme) -> Vec<f32> {
    dequantize(&quantize(data, scheme))
}

impl Quantized {
    /// The scheme this buffer was quantized under.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Number of represented elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer represents zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Real (packed) wire size of this buffer in bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.scheme.wire_bytes(self.len)
    }

    /// A sound upper bound on `max_i |x_i − dequantize(self)_i|` for the
    /// finite inputs this buffer was quantized from: half a quantization
    /// step of the worst block (plus float-rounding slack), or the f16
    /// representation error for the passthrough mode. Poisoned (non-finite)
    /// blocks report an infinite bound.
    pub fn error_bound(&self) -> f32 {
        match int_bits(self.scheme) {
            None => {
                // Relative error ≤ 2⁻¹¹ per normal value, plus half the
                // smallest subnormal step for values in the denormal range.
                let max_abs = dequantize(self).iter().fold(0.0f32, |m, x| m.max(x.abs()));
                if max_abs.is_nan() {
                    return f32::INFINITY;
                }
                max_abs * (1.0 / 2048.0) + f32::from_bits(1).max(2.0f32.powi(-25))
            }
            Some(_) => self
                .scales
                .iter()
                .zip(self.zeros.iter())
                .map(|(&s, &z)| {
                    if !s.is_finite() || !z.is_finite() {
                        f32::INFINITY
                    } else {
                        // Half a step, plus slack for the final f32 rounding
                        // of zero + code·scale and a sub-half-ulp of step
                        // from the f64 intermediates.
                        0.5 * s * (1.0 + 1e-3)
                            + (z.abs() + levels(self.scheme.code_bits()) as f32 * s) * f32::EPSILON
                            + 1e-30
                    }
                })
                .fold(0.0f32, f32::max),
        }
    }

    /// Encode into a self-contained `f32` word stream of exactly
    /// [`QuantScheme::encoded_words`]`(len)` words: the per-block scales and
    /// zero-points verbatim, then each code byte (or f16 bit pattern) as one
    /// exact small-integer word. Collectives copy words without arithmetic,
    /// so the round trip through [`Self::from_words`] is bit-exact.
    pub fn to_words(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.scheme.encoded_words(self.len));
        match int_bits(self.scheme) {
            None => {
                for i in 0..self.len {
                    let h = u16::from_le_bytes([self.codes[2 * i], self.codes[2 * i + 1]]);
                    out.push(h as f32);
                }
            }
            Some(_) => {
                out.extend_from_slice(&self.scales);
                out.extend_from_slice(&self.zeros);
                out.extend(self.codes.iter().map(|&b| b as f32));
            }
        }
        debug_assert_eq!(out.len(), self.scheme.encoded_words(self.len));
        out
    }

    /// Decode a word stream produced by [`Self::to_words`] for a buffer of
    /// `len` elements under `scheme`.
    ///
    /// # Panics
    /// Panics if `words` has the wrong length for `(scheme, len)`.
    pub fn from_words(words: &[f32], len: usize, scheme: QuantScheme) -> Quantized {
        assert_eq!(
            words.len(),
            scheme.encoded_words(len),
            "encoded stream length mismatch for {scheme:?} × {len}"
        );
        match int_bits(scheme) {
            None => {
                let mut codes = Vec::with_capacity(2 * len);
                for &w in words {
                    codes.extend_from_slice(&(w as u16).to_le_bytes());
                }
                Quantized { scheme, len, scales: Vec::new(), zeros: Vec::new(), codes }
            }
            Some(_) => {
                let nb = scheme.blocks(len);
                let scales = words[..nb].to_vec();
                let zeros = words[nb..2 * nb].to_vec();
                let codes = words[2 * nb..].iter().map(|&w| w as u8).collect();
                Quantized { scheme, len, scales, zeros, codes }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SCHEMES: [QuantScheme; 3] =
        [QuantScheme::F16, QuantScheme::Int8 { block: 128 }, QuantScheme::Int4 { block: 128 }];

    /// Deterministic pseudo-random test payload with a given seed.
    fn payload(seed: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| ((seed * 131 + i * 29) as f32 * 0.137).sin() * 3.0).collect()
    }

    #[test]
    fn round_trip_stays_inside_reported_bound() {
        for scheme in SCHEMES {
            for len in [0usize, 1, 7, 128, 129, 1000] {
                let data = payload(len + 1, len);
                let q = quantize(&data, scheme);
                let bound = q.error_bound();
                for (i, (&x, &y)) in data.iter().zip(dequantize(&q).iter()).enumerate() {
                    let err = (x - y).abs();
                    assert!(err <= bound, "{scheme:?} len={len} i={i}: |{x}-{y}|={err} > {bound}");
                }
            }
        }
    }

    #[test]
    fn int8_bound_is_half_step_of_worst_block() {
        let data = payload(3, 512);
        let q = quantize(&data, QuantScheme::int8());
        // The reported bound is essentially scale/2 — tight, not a give-up
        // constant. Find the worst per-block range.
        let worst_range = data
            .chunks(128)
            .map(|c| {
                let min = c.iter().cloned().fold(f32::INFINITY, f32::min);
                let max = c.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                max - min
            })
            .fold(0.0f32, f32::max);
        let half_step = worst_range / 255.0 / 2.0;
        assert!(q.error_bound() >= half_step);
        assert!(q.error_bound() < half_step * 1.1, "bound must stay near scale/2");
    }

    #[test]
    fn f16_passthrough_is_bit_exact_for_f16_values() {
        // Values that are exactly representable in binary16 survive
        // untouched — the property minidl's quantize=true mode relies on.
        let data: Vec<f32> =
            (0..300).map(|i| f16_bits_to_f32(f32_to_f16_bits((i as f32 - 150.0) * 0.25))).collect();
        assert_eq!(round_trip(&data, QuantScheme::F16), data);
    }

    #[test]
    fn constant_blocks_are_exact() {
        let data = vec![1.2345f32; 300];
        for scheme in [QuantScheme::int8(), QuantScheme::int4()] {
            assert_eq!(round_trip(&data, scheme), data);
        }
    }

    #[test]
    fn int4_packs_two_codes_per_byte() {
        let data = payload(9, 256);
        let q = quantize(&data, QuantScheme::int4());
        assert_eq!(q.codes.len(), 128);
        // And wire accounting charges 4 bits/elem + 8 B per 128-elem block.
        assert_eq!(q.wire_bytes(), 128 + 2 * 8);
    }

    #[test]
    fn wire_bytes_accounting() {
        let s = QuantScheme::int8();
        assert_eq!(s.wire_bytes(0), 0);
        assert_eq!(s.wire_bytes(1), 1 + 8);
        assert_eq!(s.wire_bytes(128), 128 + 8);
        assert_eq!(s.wire_bytes(129), 129 + 16);
        assert_eq!(QuantScheme::F16.wire_bytes(10), 20);
        // Default int8 ratio ≈ 3.76× ("~4×" in the acceptance criteria).
        let r = QuantScheme::int8().ratio(1 << 20);
        assert!((3.7..4.0).contains(&r), "{r}");
        let r4 = QuantScheme::int4().ratio(1 << 20);
        assert!((7.0..8.0).contains(&r4), "{r4}");
    }

    #[test]
    fn non_finite_blocks_poison_their_output() {
        let mut data = payload(4, 256);
        data[5] = f32::NAN;
        data[200] = f32::INFINITY;
        let q = quantize(&data, QuantScheme::int8());
        let out = dequantize(&q);
        // Both 128-element blocks contain a casualty → everything NaN.
        assert!(out.iter().all(|x| x.is_nan()));
        assert!(q.error_bound().is_infinite());
        // f16 passthrough also propagates non-finiteness per element.
        let f = round_trip(&data, QuantScheme::F16);
        assert!(f[5].is_nan() && f[200].is_infinite());
        assert!(f[0].is_finite());
    }

    #[test]
    fn word_encoding_round_trips_bit_exactly() {
        for scheme in SCHEMES {
            for len in [0usize, 1, 63, 128, 257] {
                let q = quantize(&payload(len + 17, len), scheme);
                let words = q.to_words();
                assert_eq!(words.len(), scheme.encoded_words(len));
                let back = Quantized::from_words(&words, len, scheme);
                assert_eq!(back, q, "{scheme:?} len={len}");
            }
        }
    }

    #[test]
    fn word_encoding_round_trips_poisoned_blocks() {
        let mut data = payload(8, 130);
        data[129] = f32::NEG_INFINITY;
        let q = quantize(&data, QuantScheme::int8());
        let back = Quantized::from_words(&q.to_words(), 130, QuantScheme::int8());
        let out = dequantize(&back);
        assert!(out[..128].iter().all(|x| x.is_finite()));
        assert!(out[128..].iter().all(|x| x.is_nan()));
    }

    /// The kernels as first written — libm `round`, a clamp, one packing call
    /// per element, a division per decoded element — kept as the oracle the
    /// current kernels must match bit for bit.
    mod oracle {
        use super::*;

        fn pack_code(codes: &mut [u8], bits: u32, i: usize, code: u32) {
            match bits {
                8 => codes[i] = code as u8,
                _ => codes[i / 2] |= ((code & 0xf) as u8) << ((i % 2) * 4),
            }
        }

        fn unpack_code(codes: &[u8], bits: u32, i: usize) -> u32 {
            match bits {
                8 => codes[i] as u32,
                _ => ((codes[i / 2] >> ((i % 2) * 4)) & 0xf) as u32,
            }
        }

        pub(super) fn quantize(data: &[f32], scheme: QuantScheme) -> Quantized {
            let (len, bits) = (data.len(), int_bits(scheme).expect("integer scheme"));
            let block = scheme.block().unwrap();
            let (mut scales, mut zeros) = (Vec::new(), Vec::new());
            let mut codes = vec![0u8; scheme.code_bytes(len)];
            let lv = levels(bits);
            for b in 0..scheme.blocks(len) {
                let span = &data[b * block..len.min((b + 1) * block)];
                if !span.iter().all(|x| x.is_finite()) {
                    scales.push(f32::NAN);
                    zeros.push(f32::NAN);
                    continue;
                }
                let min = span.iter().copied().fold(f32::INFINITY, f32::min);
                let max = span.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let scale = ((max as f64 - min as f64) / lv as f64) as f32;
                if !scale.is_normal() {
                    scales.push(0.0);
                    zeros.push(min);
                    continue;
                }
                scales.push(scale);
                zeros.push(min);
                let inv = 1.0 / scale as f64;
                for (j, &x) in span.iter().enumerate() {
                    let t = ((x as f64 - min as f64) * inv).round();
                    pack_code(&mut codes, bits, b * block + j, t.clamp(0.0, lv as f64) as u32);
                }
            }
            Quantized { scheme, len, scales, zeros, codes }
        }

        pub(super) fn dequantize(q: &Quantized) -> Vec<f32> {
            let (bits, block) = (int_bits(q.scheme).unwrap(), q.scheme.block().unwrap());
            (0..q.len)
                .map(|i| {
                    let b = i / block;
                    let code = unpack_code(&q.codes, bits, i);
                    (q.zeros[b] as f64 + code as f64 * q.scales[b] as f64) as f32
                })
                .collect()
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One block of `n` values of the given kind: 0 random, 1 constant,
    /// 2 poisoned, 3 a range of a few ulps (tiny but normal scale), 4 a
    /// subnormal range (scale below normal: the constant path), 5 exact
    /// rounding ties (range `0..=lv`, so the step is 1, and halves).
    fn block_of(kind: usize, seed: u64, n: usize, lv: u32) -> Vec<f32> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut v: Vec<f32> = match kind {
            0 => (0..n).map(|_| (next() % 20_001) as f32 * 1e-3 - 10.0).collect(),
            1 => vec![f32::from_bits(next() as u32 & 0x7f7f_ffff); n],
            3 => (0..n).map(|_| f32::from_bits(0x3f80_0000 + (next() % 600) as u32)).collect(),
            4 => (0..n).map(|_| f32::from_bits((next() % 300) as u32)).collect(),
            5 => (0..n)
                .map(|i| match i {
                    0 => 0.0,
                    1 => lv as f32,
                    _ => (next() % u64::from(lv)) as f32 + 0.5,
                })
                .collect(),
            _ => (0..n).map(|_| (next() % 1000) as f32 - 500.0).collect(),
        };
        if kind == 2 && n > 0 {
            let at = next() as usize % n;
            v[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][at % 3];
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The kernels produce the oracle's bits — codes, metadata and
        /// decoded values — on random, constant, poisoned, tiny-scale and
        /// tie-rounding blocks, for int8/128, int4/128 and int8/7.
        #[test]
        fn prop_kernels_match_the_first_written_oracle(
            seed in 1u64..u64::MAX,
            kinds in proptest::collection::vec(0usize..6, 1usize..6),
            tail in 0usize..130,
            which in 0usize..3,
        ) {
            let scheme = [QuantScheme::Int8 { block: 128 }, QuantScheme::Int4 { block: 128 },
                QuantScheme::Int8 { block: 7 }][which];
            let (block, lv) = (scheme.block().unwrap(), levels(scheme.code_bits()));
            let mut data: Vec<f32> = kinds
                .iter()
                .enumerate()
                .flat_map(|(i, &k)| block_of(k, seed.wrapping_add(i as u64), block, lv))
                .collect();
            data.extend(block_of(0, !seed, tail % block, lv));
            let (got, want) = (quantize(&data, scheme), oracle::quantize(&data, scheme));
            prop_assert_eq!(bits(&got.to_words()), bits(&want.to_words()));
            prop_assert_eq!(bits(&dequantize(&got)), bits(&oracle::dequantize(&want)));
        }
    }

    #[test]
    #[should_panic(expected = "encoded stream length mismatch")]
    fn from_words_rejects_wrong_length() {
        let _ = Quantized::from_words(&[0.0; 3], 128, QuantScheme::int8());
    }

    #[test]
    fn labels() {
        assert_eq!(QuantScheme::F16.label(), "f16");
        assert_eq!(QuantScheme::int8().label(), "int8/128");
        assert_eq!(CompressionConfig::both(QuantScheme::int8()).label(), "int8/128·wg");
        let mut c = CompressionConfig::grads_only(QuantScheme::int4());
        c.scope = CompressionScope::IntraGroupOnly;
        assert_eq!(c.label(), "int4/128·g·intra");
    }

    #[test]
    fn cost_model_agrees_with_kernel_accounting() {
        // The α–β model's compressed_bytes must equal the kernels' real
        // wire_bytes whenever the element count is whole.
        for scheme in SCHEMES {
            let cm = scheme.cost_model();
            for len in [128usize, 1000, 1 << 16] {
                assert_eq!(
                    cm.compressed_bytes(4 * len as u64),
                    scheme.wire_bytes(len),
                    "{scheme:?} len={len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip error ≤ the reported per-block half-step bound, for
        /// adversarial shapes: empty buffers, len < block, len % block ≠ 0,
        /// block = 1.
        #[test]
        fn prop_round_trip_error_bounded(
            seed in 0usize..1000,
            len in 0usize..600,
            block in 1usize..200,
            bits4 in 0usize..2,
        ) {
            let scheme = if bits4 == 1 {
                QuantScheme::Int4 { block }
            } else {
                QuantScheme::Int8 { block }
            };
            let data = payload(seed, len);
            let q = quantize(&data, scheme);
            let bound = q.error_bound();
            let out = dequantize(&q);
            prop_assert_eq!(out.len(), len);
            for (&x, &y) in data.iter().zip(out.iter()) {
                prop_assert!((x - y).abs() <= bound,
                    "scheme {:?}: |{} - {}| > {}", scheme, x, y, bound);
            }
        }

        /// The word encoding is a bijection for every shape.
        #[test]
        fn prop_words_round_trip(
            seed in 0usize..1000,
            len in 0usize..400,
            block in 1usize..130,
        ) {
            for scheme in [QuantScheme::F16, QuantScheme::Int8 { block }, QuantScheme::Int4 { block }] {
                let q = quantize(&payload(seed, len), scheme);
                let back = Quantized::from_words(&q.to_words(), len, scheme);
                prop_assert_eq!(back, q);
            }
        }

        /// Quantization is idempotent: re-quantizing a dequantized buffer
        /// reproduces it exactly (the per-hop requantization in qgZ-style
        /// reduction does not drift on already-quantized data).
        #[test]
        fn prop_requantization_is_stable(
            seed in 0usize..1000,
            len in 1usize..300,
        ) {
            let scheme = QuantScheme::int8();
            let once = round_trip(&payload(seed, len), scheme);
            let twice = round_trip(&once, scheme);
            for (&a, &b) in once.iter().zip(twice.iter()) {
                // Stable to the rounding slack of one extra trip.
                prop_assert!((a - b).abs() <= 2.0 * quantize(&once, scheme).error_bound());
            }
        }
    }
}
