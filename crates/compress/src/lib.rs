//! `mics-compress` — deterministic block-wise quantization for compressed
//! collectives (the ZeRO++ direction layered on MiCS's topology).
//!
//! MiCS minimizes communication *scale*; this crate minimizes communication
//! *volume*. It provides the quantization kernels the quantized collectives
//! in `mics-dataplane` execute, and [`QuantScheme::wire_bytes`], the one
//! compressed-size formula the simulator prices them by (the schedule
//! emitter hands it to `mics_collectives::WireCollective::cost`):
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
//! The data plane moves `f32` words, and both of its transports move them
//! as bit patterns, so a quantized buffer travels as one self-contained
//! word stream ([`encode_words`], [`Quantized::to_words`] /
//! [`Quantized::from_words`], [`land_words`]) of exactly
//! [`QuantScheme::encoded_words`] words:
//!
//! 1. one **count word**: the element count as `u32` bits (it is what tells
//!    a 1-element stream from a 2-element one once codes are packed);
//! 2. the per-block **scales**, then the per-block **zero-points**, verbatim
//!    (none for f16);
//! 3. the **packed codes**: the code bytes — one per int8 element, two int4
//!    elements per byte (low nibble first), two little-endian bytes per f16
//!    element — four to a word, little-endian, the last word zero-padded.
//!
//! An int8 or int4 stream is therefore [`QuantScheme::wire_bytes`] (the
//! packed size the α–β cost models charge) plus the 4-byte count word plus
//! at most 3 bytes of padding.
//!
//! # Non-finite inputs
//!
//! Mixed-precision training relies on overflow detection: a block containing
//! a non-finite value quantizes to a poisoned block whose dequantized
//! elements are all NaN, so an inf/NaN gradient still trips the existing
//! loss-scale machinery instead of being silently clamped into range.
//!
//! # Configuration
//!
//! A [`CompressionConfig`] is a scheme plus two independent switches:
//! `weights` quantizes every parameter all-gather (qwZ), `grads` every
//! gradient reduction — the partition-group reduce-scatter and the hop-2
//! replication-group all-reduce of MiCS's 2-hop sync alike (qgZ).

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

    /// Number of f32 words the stream of `len` elements takes (see the
    /// crate docs' wire format). A pure function of `(scheme, len)`, which
    /// is what makes the encoding usable inside SPMD collectives: every rank
    /// knows every peer's encoded size without a handshake.
    pub fn encoded_words(self, len: usize) -> usize {
        1 + 2 * self.blocks(len) + self.code_bytes(len).div_ceil(4)
    }

    /// The element count of a stream under this scheme: its count word, if
    /// the stream is exactly as long as that count needs; `None` for an
    /// empty or inconsistent stream.
    pub fn stream_len(self, words: &[f32]) -> Option<usize> {
        let len = words.first()?.to_bits() as usize;
        (words.len() == self.encoded_words(len)).then_some(len)
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

/// Compression knobs carried by the executors (`mics-core`) and the
/// fidelity trainer (`mics-minidl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Quantization scheme for compressed payloads.
    pub scheme: QuantScheme,
    /// Quantize parameter all-gathers (qwZ-style weight compression).
    pub weights: bool,
    /// Quantize every gradient reduction — the partition-group
    /// reduce-scatter or all-reduce and the hop-2 all-reduce alike
    /// (qgZ-style).
    pub grads: bool,
}

impl CompressionConfig {
    /// Compress parameter gathers only.
    pub fn weights_only(scheme: QuantScheme) -> Self {
        CompressionConfig { scheme, weights: true, grads: false }
    }

    /// Compress gradient reductions only.
    pub fn grads_only(scheme: QuantScheme) -> Self {
        CompressionConfig { scheme, weights: false, grads: true }
    }

    /// Compress both directions.
    pub fn both(scheme: QuantScheme) -> Self {
        CompressionConfig { scheme, weights: true, grads: true }
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
        format!("{}·{dir}", self.scheme.label())
    }
}

/// A quantized buffer: its self-contained word stream (see the crate docs'
/// wire format).
#[derive(Debug, Clone)]
pub struct Quantized {
    scheme: QuantScheme,
    len: usize,
    /// Exactly `scheme.encoded_words(len)` words: count, scales, zero-points,
    /// packed codes.
    words: Vec<f32>,
}

/// Two buffers are equal when they hold the same stream bit for bit (a
/// poisoned block's NaN metadata included).
impl PartialEq for Quantized {
    fn eq(&self, other: &Self) -> bool {
        let bits = |w: &f32| w.to_bits();
        self.scheme == other.scheme && self.words.iter().map(bits).eq(other.words.iter().map(bits))
    }
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

/// The sections of a `len`-element stream under `scheme`: scales,
/// zero-points, code bytes (padding included).
///
/// # Panics
/// Panics unless `words` is a stream of exactly `len` elements (length and
/// count word both agree).
fn sections(words: &[f32], len: usize, scheme: QuantScheme) -> (&[f32], &[f32], &[u8]) {
    assert_eq!(
        scheme.stream_len(words),
        Some(len),
        "encoded stream length mismatch for {scheme:?} × {len}"
    );
    let nb = scheme.blocks(len);
    let (meta, codes) = words[1..].split_at(2 * nb);
    let (scales, zeros) = meta.split_at(nb);
    (scales, zeros, code_bytes(codes))
}

// The code words are little-endian, so on a little-endian host their bytes
// in memory are the code bytes in stream order.
const _: () = assert!(cfg!(target_endian = "little"), "packed codes assume a little-endian host");

/// The bytes of packed code words, in stream order.
fn code_bytes(codes: &[f32]) -> &[u8] {
    // SAFETY: the bytes of initialized `f32`s are initialized, `u8` needs no
    // alignment, and the view covers exactly the words' memory.
    unsafe { std::slice::from_raw_parts(codes.as_ptr().cast::<u8>(), 4 * codes.len()) }
}

/// [`code_bytes`], writable.
fn code_bytes_mut(codes: &mut [f32]) -> &mut [u8] {
    // SAFETY: as in `code_bytes`; every bit pattern is a valid `f32`, so any
    // byte written leaves the words valid.
    unsafe { std::slice::from_raw_parts_mut(codes.as_mut_ptr().cast::<u8>(), 4 * codes.len()) }
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
#[inline(always)]
fn land_values(values: impl Iterator<Item = f32>, out: &mut [f32], land: Land) {
    match land {
        Land::Overwrite => out.iter_mut().zip(values).for_each(|(o, v)| *o = v),
        Land::Add => out.iter_mut().zip(values).for_each(|(o, v)| *o += v),
    }
}

/// The per-block decode kernel behind [`dequantize`] and [`land_words`]:
/// lands elements `range` of a block-quantized stream into `out`, a block
/// at a time. The one home of the element formula: code `c` of block `b`
/// decodes to `zeros[b] + c · scales[b]`, evaluated in f64 and rounded once
/// to f32. Compiled for the baseline here and for AVX2 in [`land_avx2`].
#[inline(always)]
fn land_blocks(
    scheme: QuantScheme,
    (scales, zeros, codes): (&[f32], &[f32], &[u8]),
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
            land_values(codes[i..end].iter().map(|&c| value(c)), out, land);
        } else {
            land_values((i..end).map(|j| value((codes[j / 2] >> (j % 2 * 4)) & 0xf)), out, land);
        }
        rest = tail;
        i = end;
    }
}

/// Quantize `data` under `scheme`. Deterministic; blocks containing a
/// non-finite value are poisoned (see the crate docs).
pub fn quantize(data: &[f32], scheme: QuantScheme) -> Quantized {
    let mut words = Vec::new();
    encode_words(data, scheme, &mut words);
    Quantized { scheme, len: data.len(), words }
}

/// Quantize `data` under `scheme` straight into `words`, which becomes the
/// stream [`Quantized::to_words`] would return: it is resized to exactly
/// `scheme.encoded_words(data.len())` words and every one of them is
/// written, so a reused buffer of any length and content needs no clearing.
///
/// # Panics
/// Panics if `data` has more than `u32::MAX` elements (the count word), or
/// if an integer scheme's block size is zero.
pub fn encode_words(data: &[f32], scheme: QuantScheme, words: &mut Vec<f32>) {
    assert!(u32::try_from(data.len()).is_ok(), "a stream counts at most u32::MAX elements");
    words.resize(scheme.encoded_words(data.len()), 0.0);
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the host supports AVX2, detected at runtime.
        return unsafe { encode_avx2(data, scheme, words) };
    }
    encode_body(data, scheme, words);
}

/// Whether this host runs the AVX2 instantiations of the encoder and the
/// block decoder (detected once).
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// The encoder compiled with AVX2 enabled: the same body, so the same bits.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_avx2(data: &[f32], scheme: QuantScheme, words: &mut [f32]) {
    encode_body(data, scheme, words);
}

/// The encode kernel, generic over the target: compiled for the baseline
/// here and for AVX2 in [`encode_avx2`]. `words` is exactly
/// `scheme.encoded_words(data.len())` long, and every word of it is
/// written: the count word, then per block one pass for the finite check,
/// minimum and maximum, its scale and zero-point, and one pass writing its
/// codes (zeros for a poisoned or constant block), then the padding.
#[inline(always)]
fn encode_body(data: &[f32], scheme: QuantScheme, words: &mut [f32]) {
    let len = data.len();
    let nb = scheme.blocks(len);
    let (count, rest) = words.split_first_mut().expect("a stream has a count word");
    *count = f32::from_bits(len as u32);
    let (meta, codes) = rest.split_at_mut(2 * nb);
    let (scales, zeros) = meta.split_at_mut(nb);
    let codes = code_bytes_mut(codes);
    // Padding: the bytes after the last whole code byte, and an odd-length
    // int4 stream's last byte, whose low nibble is written below.
    codes[len * scheme.code_bits() as usize / 8..].fill(0);
    match scheme {
        QuantScheme::F16 => {
            for (c, &x) in codes.chunks_exact_mut(2).zip(data) {
                c.copy_from_slice(&f32_to_f16_bits(x).to_le_bytes());
            }
        }
        QuantScheme::Int8 { block } => encode_blocks::<8>(data, block, scales, zeros, codes),
        QuantScheme::Int4 { block } => encode_blocks::<4>(data, block, scales, zeros, codes),
    }
}

/// [`encode_body`]'s blocks for `BITS`-bit codes.
#[inline(always)]
fn encode_blocks<const BITS: u32>(
    data: &[f32],
    block: usize,
    scales: &mut [f32],
    zeros: &mut [f32],
    codes: &mut [u8],
) {
    let lv = levels(BITS);
    for (b, span) in data.chunks(block).enumerate() {
        let (scale, min) = match finite_min_max(span) {
            // Poisoned block: dequantizes to all-NaN.
            None => (f32::NAN, f32::NAN),
            Some((min, max)) => {
                // f64 range arithmetic: max − min can overflow f32 even when
                // both endpoints are finite.
                let scale = ((max as f64 - min as f64) / lv as f64) as f32;
                // A constant (or numerically constant) block is stored
                // exactly as its zero-point with scale 0.
                (if scale.is_normal() { scale } else { 0.0 }, min)
            }
        };
        scales[b] = scale;
        zeros[b] = min;
        // Poisoned and constant blocks code every element as 0.
        let coded = scale.is_normal();
        // f64 intermediates keep the rounding error comfortably inside the
        // half-step bound. `0 ≤ t < 2⁵²` (x ≥ min), so `t + 2⁵²` rounds `t`
        // to the nearest integer, ties to even, and holds that integer in
        // its low mantissa bits; a tie rounded down is bumped up, which is
        // rounding half away from zero, exactly. Only the upper clamp can
        // bind.
        let inv = 1.0 / scale as f64;
        let code = |x: f32| {
            const MAGIC: f64 = (1u64 << 52) as f64;
            if !coded {
                return 0;
            }
            let t = (x as f64 - min as f64) * inv;
            let m = t + MAGIC;
            let k = m.to_bits() as u32 + u32::from(t - (m - MAGIC) == 0.5);
            k.min(lv) as u8
        };
        let first = b * block;
        if BITS == 8 {
            for (c, &x) in codes[first..first + span.len()].iter_mut().zip(span) {
                *c = code(x);
            }
        } else {
            // Two codes per byte, low nibble first: a block of odd size
            // shares a byte with its neighbour, so each nibble is set alone.
            for (j, &x) in span.iter().enumerate() {
                let (byte, shift) = ((first + j) / 2, (first + j) % 2 * 4);
                codes[byte] = codes[byte] & !(0xf << shift) | code(x) << shift;
            }
        }
    }
}

/// The minimum and maximum of a non-empty `span`, or `None` if it holds a
/// non-finite value: one pass, over eight independent lanes.
#[inline(always)]
fn finite_min_max(span: &[f32]) -> Option<(f32, f32)> {
    const LANES: usize = 8;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    // `0 · x` is ±0 for a finite `x` and NaN otherwise, and a NaN sum stays.
    let mut poison = [0.0f32; LANES];
    let mut lane = |k: usize, x: f32| {
        poison[k] += 0.0 * x;
        lo[k] = if x < lo[k] { x } else { lo[k] };
        hi[k] = if x > hi[k] { x } else { hi[k] };
    };
    let mut chunks = span.chunks_exact(LANES);
    for c in &mut chunks {
        for (k, &x) in c.iter().enumerate() {
            lane(k, x);
        }
    }
    for (k, &x) in chunks.remainder().iter().enumerate() {
        lane(k, x);
    }
    // The extremes are exact, so the lanes agree with a sequential fold on
    // the value; only a mix of +0 and −0 may resolve to either zero, which
    // decodes identically (`zero + 0 · scale` is +0 for both).
    poison.iter().all(|&p| p == 0.0).then(|| {
        let min = lo.iter().fold(f32::INFINITY, |m, &x| if x < m { x } else { m });
        let max = hi.iter().fold(f32::NEG_INFINITY, |m, &x| if x > m { x } else { m });
        (min, max)
    })
}

/// Reconstruct the fp32 buffer a [`Quantized`] value represents.
pub fn dequantize(q: &Quantized) -> Vec<f32> {
    let mut out = vec![0.0f32; q.len];
    land_words(&q.words, q.len, q.scheme, 0..q.len, &mut out, Land::Overwrite);
    out
}

/// Land elements `range` of the `len`-element stream `words` (an
/// [`encode_words`] / [`Quantized::to_words`] stream under `scheme`) into
/// `out`, one per slot, without building the [`Quantized`] value: every
/// landed bit equals the matching element of `dequantize(&Quantized::
/// from_words(words, len, scheme))`, and only the elements of `range` are
/// decoded.
///
/// # Panics
/// Panics if `words` is not a stream of `len` elements under `scheme`, if
/// `range` does not lie inside `0..len`, or if `out.len() != range.len()`.
pub fn land_words(
    words: &[f32],
    len: usize,
    scheme: QuantScheme,
    range: Range<usize>,
    out: &mut [f32],
    land: Land,
) {
    let stream = sections(words, len, scheme);
    assert!(range.start <= range.end && range.end <= len, "range {range:?} outside 0..{len}");
    assert_eq!(out.len(), range.len(), "output slice must match the landed range");
    if scheme == QuantScheme::F16 {
        let codes = stream.2;
        let half = |j: usize| f16_bits_to_f32(u16::from_le_bytes([codes[2 * j], codes[2 * j + 1]]));
        land_values(range.map(half), out, land);
    } else {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: the host supports AVX2, detected at runtime.
            return unsafe { land_avx2(scheme, stream, range, out, land) };
        }
        land_blocks(scheme, stream, range, out, land);
    }
}

/// The block decoder compiled with AVX2 enabled: the same body, so the
/// same bits.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn land_avx2(
    scheme: QuantScheme,
    stream: (&[f32], &[f32], &[u8]),
    range: Range<usize>,
    out: &mut [f32],
    land: Land,
) {
    land_blocks(scheme, stream, range, out, land);
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
            Some(bits) => {
                let (scales, zeros, _) = sections(&self.words, self.len, self.scheme);
                scales
                    .iter()
                    .zip(zeros)
                    .map(|(&s, &z)| {
                        if !s.is_finite() || !z.is_finite() {
                            f32::INFINITY
                        } else {
                            // Half a step, plus slack for the final f32
                            // rounding of zero + code·scale and a
                            // sub-half-ulp of step from the f64
                            // intermediates.
                            0.5 * s * (1.0 + 1e-3)
                                + (z.abs() + levels(bits) as f32 * s) * f32::EPSILON
                                + 1e-30
                        }
                    })
                    .fold(0.0f32, f32::max)
            }
        }
    }

    /// The self-contained word stream of exactly
    /// [`QuantScheme::encoded_words`]`(len)` words (see the crate docs' wire
    /// format). Collectives copy words without arithmetic, so the round trip
    /// through [`Self::from_words`] is bit-exact.
    pub fn to_words(&self) -> Vec<f32> {
        self.words.clone()
    }

    /// Take back a word stream produced by [`Self::to_words`] (or
    /// [`encode_words`]) for a buffer of `len` elements under `scheme`.
    ///
    /// # Panics
    /// Panics if `words` is not a stream of `len` elements under `scheme`
    /// (wrong length, or a count word that disagrees with `len`).
    pub fn from_words(words: &[f32], len: usize, scheme: QuantScheme) -> Quantized {
        sections(words, len, scheme);
        Quantized { scheme, len, words: words.to_vec() }
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
        assert_eq!(sections(&q.words, 256, q.scheme).2.len(), 128);
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
    /// current kernels must match bit for bit, with a separate, plain packer
    /// for the stream layout.
    mod oracle {
        use super::*;

        /// A quantized buffer as the oracle keeps it: metadata and code bytes.
        pub(super) struct Stream {
            scheme: QuantScheme,
            len: usize,
            scales: Vec<f32>,
            zeros: Vec<f32>,
            codes: Vec<u8>,
        }

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

        pub(super) fn quantize(data: &[f32], scheme: QuantScheme) -> Stream {
            let len = data.len();
            let Some(bits) = int_bits(scheme) else {
                let codes = data.iter().flat_map(|&x| f32_to_f16_bits(x).to_le_bytes()).collect();
                return Stream { scheme, len, scales: Vec::new(), zeros: Vec::new(), codes };
            };
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
            Stream { scheme, len, scales, zeros, codes }
        }

        pub(super) fn dequantize(q: &Stream) -> Vec<f32> {
            let Some(bits) = int_bits(q.scheme) else {
                let halves = q.codes.chunks_exact(2);
                return halves.map(|h| f16_bits_to_f32(u16::from_le_bytes([h[0], h[1]]))).collect();
            };
            let block = q.scheme.block().unwrap();
            (0..q.len)
                .map(|i| {
                    let b = i / block;
                    let code = unpack_code(&q.codes, bits, i);
                    (q.zeros[b] as f64 + code as f64 * q.scales[b] as f64) as f32
                })
                .collect()
        }

        /// The word stream: count, scales, zero-points, code bytes four to a
        /// little-endian word, zero-padded.
        pub(super) fn words(q: &Stream) -> Vec<f32> {
            let mut out = vec![f32::from_bits(q.len as u32)];
            out.extend_from_slice(&q.scales);
            out.extend_from_slice(&q.zeros);
            for four in q.codes.chunks(4) {
                let mut bytes = [0u8; 4];
                bytes[..four.len()].copy_from_slice(four);
                out.push(f32::from_bits(u32::from_le_bytes(bytes)));
            }
            out
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The encoder kernel's instantiations this host can run.
    type Kernel = fn(&[f32], QuantScheme, &mut [f32]);
    fn instantiations() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("generic", encode_body)];
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            fn avx2(data: &[f32], scheme: QuantScheme, words: &mut [f32]) {
                // SAFETY: listed only after runtime AVX2 detection.
                unsafe { encode_avx2(data, scheme, words) }
            }
            all.push(("avx2", avx2));
        }
        all
    }

    /// The block decoder's instantiations this host can run.
    type Decoder = fn(QuantScheme, (&[f32], &[f32], &[u8]), Range<usize>, &mut [f32], Land);
    fn decoders() -> Vec<(&'static str, Decoder)> {
        let mut all: Vec<(&'static str, Decoder)> = vec![("generic", land_blocks)];
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            fn avx2(
                scheme: QuantScheme,
                stream: (&[f32], &[f32], &[u8]),
                range: Range<usize>,
                out: &mut [f32],
                land: Land,
            ) {
                // SAFETY: listed only after runtime AVX2 detection.
                unsafe { land_avx2(scheme, stream, range, out, land) }
            }
            all.push(("avx2", avx2));
        }
        all
    }

    /// A buffer of `n` words, every bit of it set: NaN patterns a kernel
    /// that skips a word would leave behind.
    fn dirty(n: usize) -> Vec<f32> {
        (0..n).map(|i| f32::from_bits(u32::MAX - i as u32 % 3)).collect()
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

        /// The kernels produce the oracle's bits — the stream (count,
        /// metadata, packed codes, padding) and the decoded values — on
        /// random, constant, poisoned, tiny-scale and tie-rounding blocks,
        /// for int8/128, int4/128, int8/7, int4/7 (nibbles and words shared
        /// across blocks) and f16; through `quantize`, through the word
        /// encoder into a dirty reused buffer longer than needed, and
        /// through every instantiation of the encoder this host runs; and
        /// decoded through every instantiation of the block decoder.
        #[test]
        fn prop_kernels_match_the_first_written_oracle(
            seed in 1u64..u64::MAX,
            kinds in proptest::collection::vec(0usize..6, 1usize..6),
            tail in 0usize..130,
            which in 0usize..5,
            spare in 0usize..40,
        ) {
            let scheme = [QuantScheme::Int8 { block: 128 }, QuantScheme::Int4 { block: 128 },
                QuantScheme::Int8 { block: 7 }, QuantScheme::Int4 { block: 7 },
                QuantScheme::F16][which];
            let block = scheme.block().unwrap_or(DEFAULT_BLOCK);
            let lv = levels(scheme.code_bits());
            let mut data: Vec<f32> = kinds
                .iter()
                .enumerate()
                .flat_map(|(i, &k)| block_of(k, seed.wrapping_add(i as u64), block, lv))
                .collect();
            data.extend(block_of(0, !seed, tail % block, lv));
            let want = oracle::quantize(&data, scheme);
            let words = oracle::words(&want);
            let got = quantize(&data, scheme);
            prop_assert_eq!(bits(&got.to_words()), bits(&words));
            let mut reused = dirty(words.len() + spare);
            encode_words(&data, scheme, &mut reused);
            prop_assert_eq!(bits(&reused), bits(&words));
            for (name, kernel) in instantiations() {
                let mut exact = dirty(words.len());
                kernel(&data, scheme, &mut exact);
                prop_assert_eq!(bits(&exact), bits(&words), "{}", name);
            }
            let decoded = oracle::dequantize(&want);
            prop_assert_eq!(bits(&dequantize(&got)), bits(&decoded));
            if scheme != QuantScheme::F16 {
                for (name, decoder) in decoders() {
                    let mut out = dirty(data.len());
                    decoder(scheme, sections(&words, data.len(), scheme), 0..data.len(), &mut out,
                        Land::Overwrite);
                    prop_assert_eq!(bits(&out), bits(&decoded), "{}", name);
                }
            }
        }
    }

    #[test]
    fn mixed_sign_zeros_decode_like_the_oracle() {
        // A block whose extreme is a zero of both signs may keep either zero
        // as its zero-point; what it decodes to does not depend on which.
        let blocks: [&[f32]; 4] = [
            &[0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -0.0, 0.0, 0.0, 3.0],
            &[-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
            &[-1.0, 0.0, -0.0, -2.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
            &[-0.0; 12],
        ];
        for scheme in [QuantScheme::int8(), QuantScheme::int4(), QuantScheme::Int8 { block: 7 }] {
            for data in blocks {
                let want = oracle::dequantize(&oracle::quantize(data, scheme));
                for (name, kernel) in instantiations() {
                    let mut words = dirty(scheme.encoded_words(data.len()));
                    kernel(data, scheme, &mut words);
                    let got = dequantize(&Quantized::from_words(&words, data.len(), scheme));
                    assert_eq!(bits(&got), bits(&want), "{name} {scheme:?} {data:?}");
                }
            }
        }
    }

    #[test]
    fn packed_streams_are_the_charged_bytes_plus_at_most_seven() {
        // The count word (4 bytes) and the last word's padding (≤ 3 bytes)
        // are all a stream adds to what the cost models charge.
        for scheme in [QuantScheme::int8(), QuantScheme::int4(), QuantScheme::Int4 { block: 7 }] {
            for len in 0..300 {
                let (bytes, charged) =
                    (4 * scheme.encoded_words(len) as u64, scheme.wire_bytes(len));
                assert!(
                    (charged + 4..=charged + 7).contains(&bytes),
                    "{scheme:?} × {len}: {bytes}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "encoded stream length mismatch")]
    fn land_words_rejects_a_lying_count_word() {
        // 5 and 6 int8 elements pack into the same number of words: only the
        // count word tells the streams apart.
        let scheme = QuantScheme::int8();
        assert_eq!(scheme.encoded_words(5), scheme.encoded_words(6));
        let words = quantize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], scheme).to_words();
        land_words(&words, 5, scheme, 0..5, &mut [0.0; 5], Land::Overwrite);
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
        assert_eq!(CompressionConfig::grads_only(QuantScheme::int4()).label(), "int4/128·g");
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
