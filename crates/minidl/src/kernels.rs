//! SIMD f32 kernels for the real backend's forward/backward passes
//! (Kernels v2), plus the naive [`mod@reference`] implementations
//! they are checked against.
//!
//! # Lane discipline (bit-identity by construction)
//!
//! Every kernel is written **once**, generically over a private `Lanes`
//! backend, and instantiated per backend:
//!
//! * `ScalarLanes` — `[f32; 8]` virtual vectors whose per-lane
//!   `f32::mul_add` is the same correctly-rounded fused operation as
//!   `vfmaddps`, and whose horizontal sum replays the AVX reduction tree
//!   `((q0+q2)+(q1+q3))` with `q_l = v_l + v_{l+4}` node for node;
//! * `AvxLanes` — AVX2 + FMA intrinsics (`__m256`, `_mm256_fmadd_ps`),
//!   compiled under `#[target_feature(enable = "avx2,fma")]`;
//! * `Avx512Lanes` — 16 lanes (`__m512`, `_mm512_fmadd_ps`), compiled
//!   under `#[target_feature(enable = "avx512f,avx2,fma")]`.
//!
//! The SIMD backends are selected only after `is_x86_feature_detected!`
//! confirms the host, once per process.
//!
//! `matmul` and `acc_matmul_at` compute each output element as one fused
//! chain in ascending reduction order, so no lane width or tile shape can
//! change a bit. They share one register tile, generic over the lane width
//! and a const tile height: 8 rows × 32 columns (16 accumulators) on
//! AVX-512, 4 × 16 on AVX2 and the fallback, the last columns in masked
//! partial vectors. On AVX-512 hosts they run 16 lanes.
//!
//! `matmul_bt` fixes its association at 8 lanes: each element is an 8-wide
//! fused chain reduced by the `Lanes8::hsum` tree. Its AVX-512 body keeps
//! both. Each zmm holds two rows' 8-lane chains side by side, and one
//! transposed tree of shuffles reduces 4 rows × 4 outputs at once, every
//! add pairing the operands `hsum` pairs. The other kernels stay at 8
//! lanes (`Lanes8`, which `Avx512Lanes` does not implement): attention is
//! bound by its scalar `exp`, not by its lanes.
//!
//! Because every backend of a kernel runs the *same* generic body — same
//! fused chains, same reduction tree — the SIMD paths and the scalar
//! fallback produce **byte-identical** outputs, not merely close ones.
//! `tests/kernels_v2.rs` asserts this across the whole config matrix, and
//! this module's tests run every GEMM instantiation the host has.
//!
//! # Attention: unfused lanes, exact against the scalar loops
//!
//! [`attention_forward`] and [`attention_backward`] run causal multi-head
//! attention for all heads in one call. Besides `fma`, `Lanes8` has an
//! unfused `mul`: attention accumulates with `add(acc, mul(a, b))`, never
//! `fma`, because the scalar loops it replaces ([`reference::attention_forward`],
//! [`reference::attention_backward`]) round the product and the sum
//! separately. Scores and the backward's `d_att` run across keys against
//! the head's K or V copied transposed into a lane-padded scratch; the
//! context and `d_q`, `d_k`, `d_v` run across the head's columns. Each lane
//! keeps the scalar loop's chain in its original order, and the softmax,
//! `dot` and `ds` steps stay scalar, so the outputs equal the reference
//! bit for bit, not within a drift bound.
//!
//! # One thread per call
//!
//! Every kernel runs on the calling thread, over all of its rows, in the
//! caller's output slice. Parallelism comes from the data-parallel ranks,
//! one OS thread per simulated device, as it comes from the devices in
//! MiCS. The bodies still take a row range and the output rows it covers,
//! so this module's tests run them split at a row and hold the halves to
//! the whole call's bits.
//!
//! # Observability
//!
//! Always-on [`mics_trace::Counters`] cells tally calls, FLOPs and which
//! path (SIMD, AVX-512 among it, or fallback) ran ([`kernel_stats`]); when
//! the global [`mics_trace::Recorder`] is enabled each kernel also emits a
//! span and a `kernel GFLOP/s` counter track into the same merged Perfetto
//! timeline as the executor's lanes and wires. FLOP accounting is
//! GEMM-only: the matmuls count `2·m·k·n` FLOPs, while the attention
//! kernels count calls and their path but add nothing to `kernel.flops`,
//! so the budgets and per-unit FLOP figures denominated in it do not move
//! with them.

use mics_trace::{Arg, Counter, Counters};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Register-block height: rows of the reduction dimension fused per pass.
const UNROLL: usize = 4;
/// Cache tile for the reduction steps of [`matmul`] and [`acc_matmul_at`].
const KC: usize = 256;
/// Vector width of the 8-lane backends.
const LANES: usize = 8;

// ---- configuration ---------------------------------------------------------

/// The [`set_simd`] override: 0 autodetects, 1 forces the fallback, 2
/// asks for SIMD.
static SIMD: AtomicU8 = AtomicU8::new(0);

/// Whether this host can run the AVX2+FMA path at all (detected once).
pub fn simd_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether this host can also run the AVX-512 GEMM bodies (AVX-512F on
/// top of AVX2+FMA; detected once).
fn avx512_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            simd_available() && std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Force the SIMD path on/off (`Some`), or restore autodetection (`None`).
/// Forcing *on* still requires [`simd_available`]; on hosts without
/// AVX2+FMA the fallback always runs, and on hosts with AVX-512F the three
/// GEMMs take their AVX-512 bodies. Outputs are
/// byte-identical either way — this knob exists for tests and
/// benchmarking, not correctness.
pub fn set_simd(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    SIMD.store(v, Ordering::Relaxed);
}

/// Whether the next kernel dispatch will take the SIMD path.
pub fn simd_active() -> bool {
    match SIMD.load(Ordering::Relaxed) {
        1 => false,
        _ => simd_available(),
    }
}

/// The widest backend the next dispatch runs: `"avx512"` (for the 16-lane
/// kernels `matmul`, `matmul_bt` and `acc_matmul_at`; the other kernels
/// run AVX2), `"avx2"` or `"scalar"`.
pub fn simd_level() -> &'static str {
    match path(true) {
        Path::Avx512 => "avx512",
        Path::Avx2 => "avx2",
        Path::Scalar => "scalar",
    }
}

/// The lane backend one kernel call runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    Scalar,
    Avx2,
    Avx512,
}

/// The backend for the next call of a kernel: the fallback when SIMD is
/// off, else AVX-512 if the kernel has a 16-lane body (`wide`) and the
/// host has AVX-512F, else AVX2.
fn path(wide: bool) -> Path {
    if !simd_active() {
        Path::Scalar
    } else if wide && avx512_available() {
        Path::Avx512
    } else {
        Path::Avx2
    }
}

/// Does nothing, whatever `n` is: kernels always run on the calling
/// thread. The repo benchmark (`benchmark/src/lm.rs`) pins this name, so
/// it goes in the same benchmark-side commit as the panicking dataplane
/// twins of ROADMAP item 9(c).
pub fn set_kernel_threads(_n: Option<usize>) {}

/// Resolve the lazy state (feature detection, counter cells), so the first
/// hot-path kernel call pays no first-use cost. Called by the training
/// engine before ranks spawn; idempotent.
pub fn init() {
    let _ = (avx512_available(), cells());
}

// ---- counters + trace ------------------------------------------------------

/// Always-on counter cells (cheap relaxed atomics; see [`kernel_stats`]).
struct Cells {
    registry: Counters,
    calls: Counter,
    flops: Counter,
    simd_calls: Counter,
    avx512_calls: Counter,
    fallback_calls: Counter,
}

fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(|| {
        let registry = Counters::new();
        Cells {
            calls: registry.counter("kernel.calls"),
            flops: registry.counter("kernel.flops"),
            simd_calls: registry.counter("kernel.simd_calls"),
            avx512_calls: registry.counter("kernel.avx512_calls"),
            fallback_calls: registry.counter("kernel.fallback_calls"),
            registry,
        }
    })
}

/// Snapshot of the always-on kernel counters, in registration order:
/// `kernel.calls`, `kernel.flops` (2·m·k·n-style accounting),
/// `kernel.simd_calls` (AVX2 or AVX-512), `kernel.avx512_calls` (the
/// AVX-512 ones among them), `kernel.fallback_calls`.
pub fn kernel_stats() -> Vec<(String, u64)> {
    cells().registry.snapshot()
}

/// Total FLOPs executed by the kernels in this process so far.
pub fn flops_total() -> u64 {
    cells().flops.get()
}

/// Count the call, attribute its path and FLOPs, and — when the global
/// recorder is on — wrap it in a span plus a `kernel GFLOP/s` sample.
#[inline]
fn record<R>(name: &'static str, flops: u64, path: Path, f: impl FnOnce() -> R) -> R {
    let c = cells();
    c.calls.incr();
    c.flops.add(flops);
    if path == Path::Scalar {
        c.fallback_calls.incr();
    } else {
        c.simd_calls.incr();
    }
    if path == Path::Avx512 {
        c.avx512_calls.incr();
    }
    let rec = mics_trace::global();
    if !rec.is_enabled() {
        return f();
    }
    let t0 = rec.now_ns();
    let r = f();
    let t1 = rec.now_ns();
    rec.span("kernels", "compute", name, "kernel", t0, t1, vec![("flops", Arg::Int(flops as i64))]);
    if flops > 0 {
        rec.counter("kernels", "compute", "kernel GFLOP/s", flops as f64 / (t1 - t0).max(1) as f64);
    }
    r
}

// ---- lane backends ---------------------------------------------------------

/// A `W`-wide f32 vector backend. Every implementation performs the same
/// per-lane fused multiply-add (single rounding), which is what makes the
/// SIMD and fallback paths byte-identical.
trait Lanes {
    /// Lanes per vector.
    const W: usize;
    /// The `W`-lane vector type.
    type V: Copy;
    /// Broadcast.
    fn splat(x: f32) -> Self::V;
    /// All-zero vector.
    fn zero() -> Self::V {
        Self::splat(0.0)
    }
    /// Load `s[at..at + W]`.
    fn ld(s: &[f32], at: usize) -> Self::V;
    /// Store into `s[at..at + W]`.
    fn st(s: &mut [f32], at: usize, v: Self::V);
    /// Load `s[at..at + len]` (`1 ≤ len ≤ W`) into the low lanes, the
    /// others zero.
    fn ld_n(s: &[f32], at: usize, len: usize) -> Self::V;
    /// Store the low `len` lanes (`1 ≤ len ≤ W`) into `s[at..at + len]`.
    fn st_n(s: &mut [f32], at: usize, len: usize, v: Self::V);
    /// Per-lane fused `a·b + c` (single rounding).
    fn fma(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
}

/// The 8-lane backends, whose kernels fix their association at 8 lanes:
/// the dot-product kernels reduce through the `hsum` tree below, and
/// attention's lane-padded scratch is 8-lane strips.
trait Lanes8: Lanes {
    /// Per-lane unfused `a·b` (rounded on its own).
    fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Per-lane `a + b`.
    fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Horizontal sum via the fixed tree `(q0+q2) + (q1+q3)` over
    /// `q_l = v_l + v_{l+4}`.
    fn hsum(v: Self::V) -> f32;
}

/// Portable backend: `[f32; 8]` with per-lane `mul_add`. This is the
/// *fallback*, not a vaguely-similar rewrite: every arithmetic step
/// mirrors `AvxLanes` lane for lane.
struct ScalarLanes;

impl Lanes for ScalarLanes {
    const W: usize = LANES;
    type V = [f32; 8];

    #[inline(always)]
    fn splat(x: f32) -> [f32; 8] {
        [x; 8]
    }

    #[inline(always)]
    fn ld(s: &[f32], at: usize) -> [f32; 8] {
        let mut v = [0.0f32; 8];
        v.copy_from_slice(&s[at..at + 8]);
        v
    }

    #[inline(always)]
    fn st(s: &mut [f32], at: usize, v: [f32; 8]) {
        s[at..at + 8].copy_from_slice(&v);
    }

    #[inline(always)]
    fn ld_n(s: &[f32], at: usize, len: usize) -> [f32; 8] {
        let mut v = [0.0f32; 8];
        v[..len].copy_from_slice(&s[at..at + len]);
        v
    }

    #[inline(always)]
    fn st_n(s: &mut [f32], at: usize, len: usize, v: [f32; 8]) {
        s[at..at + len].copy_from_slice(&v[..len]);
    }

    #[inline(always)]
    fn fma(a: [f32; 8], b: [f32; 8], c: [f32; 8]) -> [f32; 8] {
        let mut o = [0.0f32; 8];
        for l in 0..8 {
            o[l] = a[l].mul_add(b[l], c[l]);
        }
        o
    }
}

impl Lanes8 for ScalarLanes {
    #[inline(always)]
    fn mul(a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        let mut o = [0.0f32; 8];
        for l in 0..8 {
            o[l] = a[l] * b[l];
        }
        o
    }

    #[inline(always)]
    fn add(a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        let mut o = [0.0f32; 8];
        for l in 0..8 {
            o[l] = a[l] + b[l];
        }
        o
    }

    #[inline(always)]
    fn hsum(v: [f32; 8]) -> f32 {
        let q0 = v[0] + v[4];
        let q1 = v[1] + v[5];
        let q2 = v[2] + v[6];
        let q3 = v[3] + v[7];
        (q0 + q2) + (q1 + q3)
    }
}

/// AVX2 + FMA backend. Only instantiated inside
/// `#[target_feature(enable = "avx2,fma")]` functions that are reached
/// exclusively after runtime detection ([`simd_active`]).
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{body, Lanes, Lanes8, Range};
    use std::arch::x86_64::*;

    pub(super) struct AvxLanes;

    /// Lanes `0..len` all ones, the rest zero: a `maskload`/`maskstore`
    /// mask.
    #[inline(always)]
    fn mask(len: usize) -> __m256i {
        // SAFETY: callers are gated on runtime AVX2+FMA detection.
        unsafe {
            _mm256_cmpgt_epi32(
                _mm256_set1_epi32(len as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            )
        }
    }

    impl Lanes for AvxLanes {
        const W: usize = 8;
        type V = __m256;

        #[inline(always)]
        fn splat(x: f32) -> __m256 {
            // SAFETY: callers are gated on runtime AVX2+FMA detection.
            unsafe { _mm256_set1_ps(x) }
        }

        #[inline(always)]
        fn ld(s: &[f32], at: usize) -> __m256 {
            debug_assert!(at + 8 <= s.len());
            // SAFETY: bounds asserted above; unaligned load is allowed.
            unsafe { _mm256_loadu_ps(s.as_ptr().add(at)) }
        }

        #[inline(always)]
        fn st(s: &mut [f32], at: usize, v: __m256) {
            debug_assert!(at + 8 <= s.len());
            // SAFETY: bounds asserted above; unaligned store is allowed.
            unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(at), v) }
        }

        #[inline(always)]
        fn ld_n(s: &[f32], at: usize, len: usize) -> __m256 {
            if len == 8 {
                return Self::ld(s, at);
            }
            assert!(len >= 1 && at + len <= s.len());
            // SAFETY: `s[at..at + len]` is in bounds (asserted above), and
            // the masked load touches no lane past `len`.
            unsafe { _mm256_maskload_ps(s.as_ptr().add(at), mask(len)) }
        }

        #[inline(always)]
        fn st_n(s: &mut [f32], at: usize, len: usize, v: __m256) {
            if len == 8 {
                return Self::st(s, at, v);
            }
            assert!(len >= 1 && at + len <= s.len());
            // SAFETY: as in `ld_n`: in bounds, and no lane past `len` is
            // written.
            unsafe { _mm256_maskstore_ps(s.as_mut_ptr().add(at), mask(len), v) }
        }

        #[inline(always)]
        fn fma(a: __m256, b: __m256, c: __m256) -> __m256 {
            // SAFETY: callers are gated on runtime AVX2+FMA detection.
            unsafe { _mm256_fmadd_ps(a, b, c) }
        }
    }

    impl Lanes8 for AvxLanes {
        #[inline(always)]
        fn mul(a: __m256, b: __m256) -> __m256 {
            // SAFETY: callers are gated on runtime AVX2+FMA detection.
            unsafe { _mm256_mul_ps(a, b) }
        }

        #[inline(always)]
        fn add(a: __m256, b: __m256) -> __m256 {
            // SAFETY: callers are gated on runtime AVX2+FMA detection.
            unsafe { _mm256_add_ps(a, b) }
        }

        #[inline(always)]
        fn hsum(v: __m256) -> f32 {
            // SAFETY: callers are gated on runtime AVX2+FMA detection.
            unsafe {
                let lo = _mm256_castps256_ps128(v);
                let hi = _mm256_extractf128_ps(v, 1);
                let q = _mm_add_ps(lo, hi); // q_l = v_l + v_{l+4}
                let r = _mm_movehl_ps(q, q); // (q2, q3, q2, q3)
                let h = _mm_add_ps(q, r); // (q0+q2, q1+q3, ..)
                let s = _mm_add_ss(h, _mm_shuffle_ps(h, h, 0b01));
                _mm_cvtss_f32(s)
            }
        }
    }

    // One `#[target_feature]` wrapper per generic body so the whole
    // inlined kernel is compiled with AVX2+FMA enabled.

    /// # Safety
    /// The host must support AVX2 and FMA (checked by [`super::simd_active`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn matmul_rows(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        body::matmul_rows::<AvxLanes, 4>(a, b, k, n, rows, out)
    }

    /// # Safety
    /// The host must support AVX2 and FMA (checked by [`super::simd_active`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn matmul_bt_rows(
        dout: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        body::matmul_bt_rows::<AvxLanes>(dout, b, n, k, rows, out)
    }

    /// # Safety
    /// The host must support AVX2 and FMA (checked by [`super::simd_active`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn acc_matmul_at_rows(
        a: &[f32],
        dout: &[f32],
        m: usize,
        k: usize,
        n: usize,
        kks: Range<usize>,
        gw: &mut [f32],
    ) {
        body::acc_matmul_at_rows::<AvxLanes, 4>(a, dout, m, k, n, kks, gw)
    }

    /// # Safety
    /// The host must support AVX2 and FMA (checked by [`super::simd_active`]).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn attention_forward(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        t: usize,
        d: usize,
        heads: usize,
        outs: [&mut [f32]; 2],
        scratch: [&mut [f32]; 2],
    ) {
        body::attention_forward::<AvxLanes>(q, k, v, t, d, heads, outs, scratch)
    }

    /// # Safety
    /// The host must support AVX2 and FMA (checked by [`super::simd_active`]).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn attention_backward(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        att: &[f32],
        d_ctx: &[f32],
        t: usize,
        d: usize,
        heads: usize,
        grads: [&mut [f32]; 3],
        scratch: [&mut [f32]; 2],
    ) {
        body::attention_backward::<AvxLanes>(q, k, v, att, d_ctx, t, d, heads, grads, scratch)
    }

    /// # Safety
    /// The host must support AVX2 and FMA (checked by [`super::simd_active`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn add_bias_rows(bias: &[f32], n: usize, rows: Range<usize>, xs: &mut [f32]) {
        body::add_bias_rows::<AvxLanes>(bias, n, rows, xs)
    }
}

/// AVX-512 backend: 16 lanes, used by the two GEMMs whose elements are
/// single fused chains (`matmul`, `acc_matmul_at`) on an 8-row × 32-column
/// tile, and by `matmul_bt`'s two-rows-per-zmm tile. Only instantiated
/// inside `#[target_feature(enable = "avx512f,avx2,fma")]` functions
/// reached exclusively after runtime detection ([`avx512_available`]).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{avx::AvxLanes, body, Lanes, Range};
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    pub(super) struct Avx512Lanes;

    /// Lanes `0..len` set.
    #[inline(always)]
    fn mask(len: usize) -> __mmask16 {
        ((1u32 << len) - 1) as __mmask16
    }

    impl Lanes for Avx512Lanes {
        const W: usize = 16;
        type V = __m512;

        #[inline(always)]
        fn splat(x: f32) -> __m512 {
            // SAFETY: callers are gated on runtime AVX-512F detection.
            unsafe { _mm512_set1_ps(x) }
        }

        #[inline(always)]
        fn ld(s: &[f32], at: usize) -> __m512 {
            debug_assert!(at + 16 <= s.len());
            // SAFETY: bounds asserted above; unaligned load is allowed.
            unsafe { _mm512_loadu_ps(s.as_ptr().add(at)) }
        }

        #[inline(always)]
        fn st(s: &mut [f32], at: usize, v: __m512) {
            debug_assert!(at + 16 <= s.len());
            // SAFETY: bounds asserted above; unaligned store is allowed.
            unsafe { _mm512_storeu_ps(s.as_mut_ptr().add(at), v) }
        }

        #[inline(always)]
        fn ld_n(s: &[f32], at: usize, len: usize) -> __m512 {
            if len == 16 {
                return Self::ld(s, at);
            }
            assert!(len >= 1 && at + len <= s.len());
            // SAFETY: `s[at..at + len]` is in bounds (asserted above), and
            // the masked load touches no lane past `len`.
            unsafe { _mm512_maskz_loadu_ps(mask(len), s.as_ptr().add(at)) }
        }

        #[inline(always)]
        fn st_n(s: &mut [f32], at: usize, len: usize, v: __m512) {
            if len == 16 {
                return Self::st(s, at, v);
            }
            assert!(len >= 1 && at + len <= s.len());
            // SAFETY: as in `ld_n`: in bounds, and no lane past `len` is
            // written.
            unsafe { _mm512_mask_storeu_ps(s.as_mut_ptr().add(at), mask(len), v) }
        }

        #[inline(always)]
        fn fma(a: __m512, b: __m512, c: __m512) -> __m512 {
            // SAFETY: callers are gated on runtime AVX-512F detection.
            unsafe { _mm512_fmadd_ps(a, b, c) }
        }
    }

    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA (checked by
    /// [`super::avx512_available`]).
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn matmul_rows(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        body::matmul_rows::<Avx512Lanes, 8>(a, b, k, n, rows, out)
    }

    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA (checked by
    /// [`super::avx512_available`]).
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn acc_matmul_at_rows(
        a: &[f32],
        dout: &[f32],
        m: usize,
        k: usize,
        n: usize,
        kks: Range<usize>,
        gw: &mut [f32],
    ) {
        body::acc_matmul_at_rows::<Avx512Lanes, 8>(a, dout, m, k, n, kks, gw)
    }

    /// `out = d[rows] · bᵀ` on tiles of 8, then 4, rows × 4 outputs, bit
    /// for bit the 8-lane body's. Each zmm holds two rows, row `i` in its
    /// low 256 bits and row `i + 1` in its high 256 bits, against a `b`
    /// strip broadcast to both halves, so every lane keeps its 8-wide fused
    /// chain over `j`; [`reduce_tile`] then runs the
    /// [`super::Lanes8::hsum`] tree for 4 rows × 4 outputs at once, and the
    /// scalar tail is folded in after it. Outputs left over (`k % 4`) run
    /// `body::matmul_bt_one`, and rows left over (`rows.len() % 4`) the
    /// 8-lane body.
    ///
    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA (checked by
    /// [`super::avx512_available`]).
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn matmul_bt_rows(
        dout: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), rows.len() * k);
        // On the stack: a 64-byte-aligned heap buffer, per call or per
        // thread, raised `lm_compute_local`'s peak RSS by 0.5–0.7 MB.
        let mut pairs = [MaybeUninit::uninit(); PAIRED];
        let ri = row_tiles::<4>(dout, b, n, k, &rows, 0, out, &mut pairs);
        let ri = row_tiles::<2>(dout, b, n, k, &rows, ri, out, &mut pairs);
        let rest = rows.start + ri..rows.end;
        body::matmul_bt_rows::<AvxLanes>(dout, b, n, k, rest, &mut out[ri * k..]);
    }

    /// Row-pair strips a [`matmul_bt_rows`] tile can hold: 8-row tiles of
    /// rows up to `n = 519`, 4-row tiles up to `n = 1031`. Wider rows run
    /// the 8-lane body.
    const PAIRED: usize = 256;

    /// [`matmul_bt_rows`]' tiles of `2·P` rows (`P` even) from row `ri` of
    /// `rows` on, while `2·P` rows remain and their strips fit `buf`;
    /// returns the first row left. A tile's rows are paired once into
    /// `buf`, strip `s` of rows `2p` and `2p + 1` at `buf[P·s + p]`, and
    /// reused by all its outputs.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn row_tiles<const P: usize>(
        dout: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        rows: &Range<usize>,
        mut ri: usize,
        out: &mut [f32],
        buf: &mut [MaybeUninit<__m512>],
    ) -> usize {
        let n8 = n / 8 * 8;
        if n8 / 8 * P > buf.len() {
            return ri;
        }
        while ri + 2 * P <= rows.len() {
            let i = rows.start + ri;
            // Every load below reads inside `d`, `bs` or `pairs`, and every
            // store inside `o`, so taking them checked is what bounds the
            // unchecked accesses.
            let d = &dout[i * n..(i + 2 * P) * n];
            let o = &mut out[ri * k..(ri + 2 * P) * k];
            let pairs = &mut buf[..n8 / 8 * P];
            for (j, x) in (0..n8).step_by(8).zip(pairs.chunks_exact_mut(P)) {
                for (p, xp) in x.iter_mut().enumerate() {
                    xp.write(row_pair(d, n, 2 * p, j));
                }
            }
            // SAFETY: the loop above wrote every slot of `pairs`, and
            // `MaybeUninit<T>` has `T`'s layout.
            let pairs = unsafe { &*(pairs as *const [MaybeUninit<__m512>] as *const [__m512]) };
            let mut kk = 0;
            while kk + 4 <= k {
                let bs = &b[kk * n..(kk + 4) * n];
                let acc = tile_chains::<P>(pairs, bs, n);
                for (r0, acc) in (0..2 * P).step_by(4).zip(acc.chunks_exact(2)) {
                    let t = reduce_tile([acc[0], acc[1]]);
                    // SAFETY: row `r0 + 3 < 2·P` of `o` is `k` long, and
                    // `kk + 4 <= k`.
                    unsafe {
                        let at = o.as_mut_ptr().add(r0 * k + kk);
                        _mm_storeu_ps(at, _mm512_extractf32x4_ps::<0>(t));
                        _mm_storeu_ps(at.add(k), _mm512_extractf32x4_ps::<1>(t));
                        _mm_storeu_ps(at.add(2 * k), _mm512_extractf32x4_ps::<2>(t));
                        _mm_storeu_ps(at.add(3 * k), _mm512_extractf32x4_ps::<3>(t));
                    }
                }
                for j in n8..n {
                    for r in 0..2 * P {
                        for c in 0..4 {
                            let s = &mut o[r * k + kk + c];
                            *s = d[r * n + j].mul_add(bs[c * n + j], *s);
                        }
                    }
                }
                kk += 4;
            }
            for kk in kk..k {
                let brow = &b[kk * n..(kk + 1) * n];
                for r in (0..2 * P).step_by(2) {
                    let (d0, d1) = d[r * n..(r + 2) * n].split_at(n);
                    let [s0, s1] = body::matmul_bt_one::<AvxLanes>(d0, d1, brow);
                    o[r * k + kk] = s0;
                    o[(r + 1) * k + kk] = s1;
                }
            }
            ri += 2 * P;
        }
        ri
    }

    /// Rows `r` and `r + 1` of `d` (rows of `n`) at columns `j..j + 8`, in
    /// the low and high 256 bits.
    #[inline(always)]
    fn row_pair(d: &[f32], n: usize, r: usize, j: usize) -> __m512 {
        assert!((r + 1) * n + j + 8 <= d.len());
        let p = d.as_ptr();
        // SAFETY: in bounds (asserted above); callers are gated on runtime
        // AVX-512F detection.
        unsafe {
            let lo = _mm256_castps_pd(_mm256_loadu_ps(p.add(r * n + j)));
            let hi = _mm256_castps_pd(_mm256_loadu_ps(p.add((r + 1) * n + j)));
            _mm512_castpd_ps(_mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo), hi))
        }
    }

    /// The 8-lane chains of a `2·P`-row × 4-output tile over the whole
    /// 8-lane strips of `j`: `acc[p][c]` holds rows `2p` (low half) and
    /// `2p + 1` (high half), paired in `pairs` as [`row_tiles`] lays them
    /// out, against row `c` of `bs` (4 rows of `n`).
    #[inline(always)]
    fn tile_chains<const P: usize>(pairs: &[__m512], bs: &[f32], n: usize) -> [[__m512; 4]; P] {
        assert!(pairs.len() == n / 8 * P && bs.len() == 4 * n);
        let bp = bs.as_ptr();
        // SAFETY: callers are gated on runtime AVX-512F detection, and
        // `c·n + j + 8 <= 4·n` for `c < 4` and the `n / 8` strips `j` of
        // `pairs` (asserted above).
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); 4]; P];
            for (j, x) in (0..n).step_by(8).zip(pairs.chunks_exact(P)) {
                let strip = |c: usize| {
                    let y = _mm256_castps_pd(_mm256_loadu_ps(bp.add(c * n + j)));
                    _mm512_castpd_ps(_mm512_broadcast_f64x4(y))
                };
                let y = [strip(0), strip(1), strip(2), strip(3)];
                for (row, &xv) in acc.iter_mut().zip(x) {
                    for (a, &yv) in row.iter_mut().zip(&y) {
                        *a = _mm512_fmadd_ps(xv, yv, *a);
                    }
                }
            }
            acc
        }
    }

    /// [`super::Lanes8::hsum`]'s tree `(q0 + q2) + (q1 + q3)` over
    /// `q_l = v_l + v_{l+4}` for the 16 chains of [`tile_chains`] at once.
    /// Every add takes the operands `hsum` adds, in the same order; only
    /// the shuffles that line them up differ. 128-bit lane `r` of the
    /// result holds row `r`'s four outputs in order.
    #[inline(always)]
    fn reduce_tile(acc: [[__m512; 4]; 2]) -> __m512 {
        let [lo, hi] = acc;
        // `tree_q(lo[c], hi[c])` holds output `c`'s `q` of rows 0..4, one
        // row per 128-bit lane.
        let (q0, q1) = (tree_q(lo[0], hi[0]), tree_q(lo[1], hi[1]));
        let (q2, q3) = (tree_q(lo[2], hi[2]), tree_q(lo[3], hi[3]));
        tree_s(tree_h(q0, q1), tree_h(q2, q3))
    }

    /// The `q` level: lane `l` of each 8-lane half plus lane `l + 4`; the
    /// halves of `a`, then those of `b`, one per 128-bit lane.
    #[inline(always)]
    fn tree_q(a: __m512, b: __m512) -> __m512 {
        // SAFETY: callers are gated on runtime AVX-512F detection.
        unsafe {
            _mm512_add_ps(_mm512_shuffle_f32x4::<0x88>(a, b), _mm512_shuffle_f32x4::<0xdd>(a, b))
        }
    }

    /// The first pair level: `(q0 + q2, q1 + q3)` of each 128-bit lane of
    /// `a`, then of `b`.
    #[inline(always)]
    fn tree_h(a: __m512, b: __m512) -> __m512 {
        // SAFETY: callers are gated on runtime AVX-512F detection.
        unsafe { _mm512_add_ps(_mm512_shuffle_ps::<0x44>(a, b), _mm512_shuffle_ps::<0xee>(a, b)) }
    }

    /// The last level: the two sums of each pair of `a`, then of `b`.
    #[inline(always)]
    fn tree_s(a: __m512, b: __m512) -> __m512 {
        // SAFETY: callers are gated on runtime AVX-512F detection.
        unsafe { _mm512_add_ps(_mm512_shuffle_ps::<0x88>(a, b), _mm512_shuffle_ps::<0xdd>(a, b)) }
    }
}

// ---- generic kernel bodies -------------------------------------------------

/// The single source of truth for every kernel's arithmetic, generic over
/// the lane backend. Each body takes a range of output rows (or columns)
/// plus the output subslice covering exactly that range; the public
/// kernels pass every row, and the tests split them at a row.
mod body {
    use super::{Lanes, Lanes8, Range, KC, LANES, UNROLL};

    /// `out = a[rows] · b` through [`gemm_tiles`], the steps being the `k`
    /// reduction: `x(r, s)` is `a[rows.start + r][s]`. `out` covers `rows`
    /// (`rows.len() × n`).
    #[inline(always)]
    pub(super) fn matmul_rows<L: Lanes, const R: usize>(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), rows.len() * n);
        let x = Operand { data: &a[rows.start * k..], row: k, step: 1 };
        gemm_tiles::<L, R>(x, b, n, k, out);
    }

    /// Accumulate `aᵀ·d` into the `kks` rows of `gw` through
    /// [`gemm_tiles`], the steps being the `m` samples: `x(r, i)` is
    /// `a[i][kks.start + r]`. `gw` covers `kks` (`kks.len() × n`).
    #[inline(always)]
    pub(super) fn acc_matmul_at_rows<L: Lanes, const R: usize>(
        a: &[f32],
        dout: &[f32],
        m: usize,
        k: usize,
        n: usize,
        kks: Range<usize>,
        gw: &mut [f32],
    ) {
        debug_assert_eq!(gw.len(), kks.len() * n);
        // `a` is empty when `m == 0`, and then no step reads `x`.
        let x = Operand { data: &a[kks.start.min(a.len())..], row: 1, step: k };
        gemm_tiles::<L, R>(x, dout, n, m, gw);
    }

    /// The left operand of [`gemm_tiles`]: `x(r, s) = data[r·row + s·step]`.
    #[derive(Clone, Copy)]
    struct Operand<'a> {
        data: &'a [f32],
        row: usize,
        step: usize,
    }

    /// The register tile both GEMMs run on: `c[r][j] += Σ_s x(r, s)·y[s][j]`
    /// over `s < steps`, for every row `r` of `c` (`c.len() / n` rows of
    /// `n`), with `y` rows `n` wide. The steps go in tiles of `KC`. Tiles
    /// of `R` rows × two vectors (`2·W` columns) keep their accumulators in
    /// registers across a step tile, `s` innermost and ascending, and carry
    /// them to the next through `c`, so each element is one fused chain in
    /// `s` order whatever the tile height, lane width, column strip or row
    /// partition. Rows left over run in tiles of 4 and then 1; the last
    /// columns run one strip of partial vectors.
    #[inline(always)]
    fn gemm_tiles<L: Lanes, const R: usize>(
        x: Operand,
        y: &[f32],
        n: usize,
        steps: usize,
        c: &mut [f32],
    ) {
        let rows = c.len().checked_div(n).unwrap_or(0);
        // `strip`'s whole-vector loads of `y` rows `..steps` are unchecked
        // in release; `c` holds `rows` rows of `n`.
        assert!(
            steps.checked_mul(n).is_some_and(|end| end <= y.len()),
            "y has fewer than `steps` rows"
        );
        for s0 in (0..steps).step_by(KC) {
            let tile = s0..(s0 + KC).min(steps);
            let mut r0 = row_tiles::<L, R>(x, y, n, &tile, 0, rows, c);
            if R > 4 {
                r0 = row_tiles::<L, 4>(x, y, n, &tile, r0, rows, c);
            }
            row_tiles::<L, 1>(x, y, n, &tile, r0, rows, c);
        }
    }

    /// [`gemm_tiles`]' `R`-row tiles over the steps of `tile`, from row
    /// `r0` on while `R` rows remain; returns the first row left.
    #[inline(always)]
    fn row_tiles<L: Lanes, const R: usize>(
        x: Operand,
        y: &[f32],
        n: usize,
        tile: &Range<usize>,
        mut r0: usize,
        rows: usize,
        c: &mut [f32],
    ) -> usize {
        let w = L::W;
        while r0 + R <= rows {
            let mut j = 0;
            while j + 2 * w <= n {
                strip::<L, R, 2>(x, y, n, tile.clone(), r0, j, [w, w], c);
                j += 2 * w;
            }
            match n - j {
                0 => {}
                rem if rem <= w => strip::<L, R, 1>(x, y, n, tile.clone(), r0, j, [rem], c),
                rem => strip::<L, R, 2>(x, y, n, tile.clone(), r0, j, [w, rem - w], c),
            }
            r0 += R;
        }
        r0
    }

    /// One `R`-row × `V`-vector tile at rows `r0..r0 + R`, columns from
    /// `j`, vector `v` covering `lens[v]` lanes, over the steps of `tile`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn strip<L: Lanes, const R: usize, const V: usize>(
        x: Operand,
        y: &[f32],
        n: usize,
        tile: Range<usize>,
        r0: usize,
        j: usize,
        lens: [usize; V],
        c: &mut [f32],
    ) {
        let at = |v: usize| j + v * L::W;
        let mut acc = [[L::zero(); V]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, a) in row.iter_mut().enumerate() {
                *a = L::ld_n(c, (r0 + r) * n + at(v), lens[v]);
            }
        }
        for s in tile {
            let mut ys = [L::zero(); V];
            for (v, yv) in ys.iter_mut().enumerate() {
                *yv = L::ld_n(y, s * n + at(v), lens[v]);
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let xv = L::splat(x.data[(r0 + r) * x.row + s * x.step]);
                for (a, &yv) in row.iter_mut().zip(&ys) {
                    *a = L::fma(xv, yv, *a);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &a) in row.iter().enumerate() {
                L::st_n(c, (r0 + r) * n + at(v), lens[v], a);
            }
        }
    }

    /// `out = d[rows] · bᵀ`: two rows × four outputs per pass share each
    /// load (six loads per eight FMAs). Every element is one 8-wide fused
    /// chain over `j`, reduced by the fixed [`Lanes8::hsum`] tree, with the
    /// scalar tail folded in *after* the tree. An odd last row pairs with
    /// itself and is stored once. The pairing never changes an element's
    /// chain, so any row count and row split give the same bits. `out`
    /// covers `rows` (`rows.len() × k`).
    #[inline(always)]
    pub(super) fn matmul_bt_rows<L: Lanes8>(
        dout: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), rows.len() * k);
        for ri in (0..rows.len()).step_by(2) {
            let pair = ri + 1 < rows.len();
            let i0 = rows.start + ri;
            let i1 = if pair { i0 + 1 } else { i0 };
            let d0 = &dout[i0 * n..(i0 + 1) * n];
            let d1 = &dout[i1 * n..(i1 + 1) * n];
            let mut store = |kk: usize, s0: &[f32], s1: &[f32]| {
                out[ri * k + kk..ri * k + kk + s0.len()].copy_from_slice(s0);
                if pair {
                    out[(ri + 1) * k + kk..(ri + 1) * k + kk + s1.len()].copy_from_slice(s1);
                }
            };
            let mut kk = 0;
            while kk + UNROLL <= k {
                let b0 = &b[kk * n..(kk + 1) * n];
                let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                let (mut v00, mut v01, mut v02, mut v03) =
                    (L::zero(), L::zero(), L::zero(), L::zero());
                let (mut v10, mut v11, mut v12, mut v13) =
                    (L::zero(), L::zero(), L::zero(), L::zero());
                let mut j = 0;
                while j + LANES <= n {
                    let (x0, x1) = (L::ld(d0, j), L::ld(d1, j));
                    let (y0, y1, y2, y3) = (L::ld(b0, j), L::ld(b1, j), L::ld(b2, j), L::ld(b3, j));
                    v00 = L::fma(x0, y0, v00);
                    v01 = L::fma(x0, y1, v01);
                    v02 = L::fma(x0, y2, v02);
                    v03 = L::fma(x0, y3, v03);
                    v10 = L::fma(x1, y0, v10);
                    v11 = L::fma(x1, y1, v11);
                    v12 = L::fma(x1, y2, v12);
                    v13 = L::fma(x1, y3, v13);
                    j += LANES;
                }
                let mut s0 = [L::hsum(v00), L::hsum(v01), L::hsum(v02), L::hsum(v03)];
                let mut s1 = [L::hsum(v10), L::hsum(v11), L::hsum(v12), L::hsum(v13)];
                while j < n {
                    for (r, brow) in [b0, b1, b2, b3].into_iter().enumerate() {
                        s0[r] = d0[j].mul_add(brow[j], s0[r]);
                        s1[r] = d1[j].mul_add(brow[j], s1[r]);
                    }
                    j += 1;
                }
                store(kk, &s0, &s1);
                kk += UNROLL;
            }
            while kk < k {
                let [s0, s1] = matmul_bt_one::<L>(d0, d1, &b[kk * n..(kk + 1) * n]);
                store(kk, &[s0], &[s1]);
                kk += 1;
            }
        }
    }

    /// One output of [`matmul_bt_rows`] for two rows: `d0·brow` and
    /// `d1·brow`, each an 8-wide fused chain over `j` reduced by the
    /// [`Lanes8::hsum`] tree, the scalar tail folded in after it. The rows
    /// are `brow.len()` long.
    #[inline(always)]
    pub(super) fn matmul_bt_one<L: Lanes8>(d0: &[f32], d1: &[f32], brow: &[f32]) -> [f32; 2] {
        let n = brow.len();
        let (mut v0, mut v1) = (L::zero(), L::zero());
        let mut j = 0;
        while j + LANES <= n {
            let y = L::ld(brow, j);
            v0 = L::fma(L::ld(d0, j), y, v0);
            v1 = L::fma(L::ld(d1, j), y, v1);
            j += LANES;
        }
        let (mut s0, mut s1) = (L::hsum(v0), L::hsum(v1));
        while j < n {
            s0 = d0[j].mul_add(brow[j], s0);
            s1 = d1[j].mul_add(brow[j], s1);
            j += 1;
        }
        [s0, s1]
    }

    /// Causal multi-head attention forward, all heads. `q`, `k`, `v` and
    /// `ctx` are `t × d` with head `h` in columns `h·dk..(h + 1)·dk`.
    /// `outs = [att, ctx]`: `att` (`heads × t × t`) receives the softmax
    /// probabilities and `ctx` (pre-zeroed) the context. `scratch =
    /// [kt, s]` is `dk × tp` and `t × tp`, `tp` being `t` rounded up to
    /// whole lanes.
    ///
    /// Scores run across keys `j`, 8 lanes at a time, against the head's
    /// K copied transposed into `kt`: each lane is the scalar chain
    /// `0 + q·k + q·k + …` in `c` order with unfused multiplies. The
    /// zero padding lets the last strip run full width; lanes past the
    /// diagonal are computed and dropped. The max, `exp`, the denominator
    /// and the normalisation stay scalar, in order. The context runs
    /// across the head's columns, each element a chain over `j` in order.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn attention_forward<L: Lanes8>(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        t: usize,
        d: usize,
        heads: usize,
        outs: [&mut [f32]; 2],
        scratch: [&mut [f32]; 2],
    ) {
        let [att, ctx] = outs;
        let [kt, s] = scratch;
        let (dk, tp) = (d / heads, super::lane_padded(t));
        debug_assert_eq!((kt.len(), s.len()), (dk * tp, t * tp));
        let inv = 1.0 / (dk as f32).sqrt();
        for head in 0..heads {
            let base = head * dk;
            transpose_head(k, t, d, base, tp, kt);
            causal_scores::<L>(q, t, d, base, kt, s);
            for i in 0..t {
                let n = i + 1;
                let row = &mut s[i * tp..i * tp + n];
                let mut mx = f32::NEG_INFINITY;
                for rj in row.iter_mut() {
                    *rj *= inv;
                    mx = mx.max(*rj);
                }
                let mut denom = 0.0;
                for rj in row.iter_mut() {
                    *rj = (*rj - mx).exp();
                    denom += *rj;
                }
                let arow = &mut att[head * t * t + i * t..head * t * t + i * t + n];
                for (a, rj) in arow.iter_mut().zip(row.iter()) {
                    *a = rj / denom;
                }
                let arow = &att[head * t * t + i * t..head * t * t + i * t + n];
                weighted_rows::<L>(
                    |j| arow[j],
                    0..n,
                    v,
                    d,
                    base,
                    &mut ctx[i * d + base..i * d + base + dk],
                );
            }
        }
    }

    /// Causal multi-head attention backward, all heads: from the forward's
    /// `q`, `k`, `v`, `att` and the context gradient `d_ctx`, write
    /// `grads = [d_q, d_k, d_v]` (each `t × d`, pre-zeroed). `scratch =
    /// [vt, ds]` is `dk × tp` and `t × tp`.
    ///
    /// `d_att` runs across keys against the head's V transposed, like the
    /// forward scores. `dot` and every `ds = a·(d_att − dot)·dk⁻¹` stay
    /// scalar and in order. `d_q`, `d_k` and `d_v` run across the head's
    /// columns; each element is the chain the row-by-row loop builds, over
    /// `j` (for `d_q`) or `i` (for `d_k`, `d_v`) in order from `0.0`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn attention_backward<L: Lanes8>(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        att: &[f32],
        d_ctx: &[f32],
        t: usize,
        d: usize,
        heads: usize,
        grads: [&mut [f32]; 3],
        scratch: [&mut [f32]; 2],
    ) {
        let [d_q, d_k, d_v] = grads;
        let [vt, ds] = scratch;
        let (dk, tp) = (d / heads, super::lane_padded(t));
        debug_assert_eq!((vt.len(), ds.len()), (dk * tp, t * tp));
        let dk_inv = 1.0 / (dk as f32).sqrt();
        for head in 0..heads {
            let base = head * dk;
            let a = &att[head * t * t..(head + 1) * t * t];
            transpose_head(v, t, d, base, tp, vt);
            // `d_att` for every row, then turned into `ds` in place.
            causal_scores::<L>(d_ctx, t, d, base, vt, ds);
            for i in 0..t {
                let n = i + 1;
                let row = &a[i * t..i * t + n];
                let d_att = &mut ds[i * tp..i * tp + n];
                let dot: f32 = d_att.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (x, &r) in d_att.iter_mut().zip(row) {
                    *x = r * (*x - dot) * dk_inv;
                }
                let dsrow = &ds[i * tp..i * tp + n];
                weighted_rows::<L>(
                    |j| dsrow[j],
                    0..n,
                    k,
                    d,
                    base,
                    &mut d_q[i * d + base..i * d + base + dk],
                );
            }
            for j in 0..t {
                let out = j * d + base..j * d + base + dk;
                weighted_rows::<L>(|i| ds[i * tp + j], j..t, q, d, base, &mut d_k[out.clone()]);
                weighted_rows::<L>(|i| a[i * t + j], j..t, d_ctx, d, base, &mut d_v[out]);
            }
        }
    }

    /// Copy head columns `base..base + dk` of the `t × d` matrix `x` into
    /// `xt` transposed (`dk × tp`); columns `t..tp` stay zero.
    #[inline(always)]
    fn transpose_head(x: &[f32], t: usize, d: usize, base: usize, tp: usize, xt: &mut [f32]) {
        let dk = xt.len() / tp;
        for j in 0..t {
            for (c, &xv) in x[j * d + base..j * d + base + dk].iter().enumerate() {
                xt[c * tp + j] = xv;
            }
        }
    }

    /// `out[i][j] = Σ_c x[i·d + off + c]·xt[c][j]` for every row `i < t`,
    /// over the 8-lane strips that cover `j ≤ i`: each lane one unfused
    /// chain in `c` order from `0.0`. Four rows per pass share each load
    /// of `xt` (`dk × tp`); a pass that overhangs `t` repeats the last row,
    /// storing the same values twice. `out` is `t × tp`; lanes past the
    /// diagonal are scratch.
    #[inline(always)]
    fn causal_scores<L: Lanes8>(
        x: &[f32],
        t: usize,
        d: usize,
        off: usize,
        xt: &[f32],
        out: &mut [f32],
    ) {
        let tp = super::lane_padded(t);
        let dk = xt.len() / tp;
        for i in (0..t).step_by(UNROLL) {
            let r = [0, 1, 2, 3].map(|o| (i + o).min(t - 1));
            let row = |o: usize| &x[r[o] * d + off..r[o] * d + off + dk];
            let (x0, x1, x2, x3) = (row(0), row(1), row(2), row(3));
            let mut j = 0;
            while j <= r[3] {
                let (mut s0, mut s1, mut s2, mut s3) = (L::zero(), L::zero(), L::zero(), L::zero());
                for c in 0..dk {
                    let col = L::ld(xt, c * tp + j);
                    s0 = L::add(s0, L::mul(L::splat(x0[c]), col));
                    s1 = L::add(s1, L::mul(L::splat(x1[c]), col));
                    s2 = L::add(s2, L::mul(L::splat(x2[c]), col));
                    s3 = L::add(s3, L::mul(L::splat(x3[c]), col));
                }
                for (&ro, so) in r.iter().zip([s0, s1, s2, s3]) {
                    L::st(out, ro * tp + j, so);
                }
                j += LANES;
            }
        }
    }

    /// `out[c] = Σ_{r ∈ rs} w(r)·src[r·d + off + c]` for `c < out.len()`,
    /// each element one unfused chain in `r` order from `0.0`: 16 columns
    /// per pass, then 8, then a scalar tail with the same chain.
    #[inline(always)]
    fn weighted_rows<L: Lanes8>(
        w: impl Fn(usize) -> f32,
        rs: Range<usize>,
        src: &[f32],
        d: usize,
        off: usize,
        out: &mut [f32],
    ) {
        let width = out.len();
        let mut c = 0;
        while c + 2 * LANES <= width {
            let (mut s0, mut s1) = (L::zero(), L::zero());
            for r in rs.clone() {
                let (vw, at) = (L::splat(w(r)), r * d + off + c);
                s0 = L::add(s0, L::mul(vw, L::ld(src, at)));
                s1 = L::add(s1, L::mul(vw, L::ld(src, at + LANES)));
            }
            L::st(out, c, s0);
            L::st(out, c + LANES, s1);
            c += 2 * LANES;
        }
        while c + LANES <= width {
            let mut s = L::zero();
            for r in rs.clone() {
                s = L::add(s, L::mul(L::splat(w(r)), L::ld(src, r * d + off + c)));
            }
            L::st(out, c, s);
            c += LANES;
        }
        while c < width {
            let mut s = 0.0f32;
            for r in rs.clone() {
                s += w(r) * src[r * d + off + c];
            }
            out[c] = s;
            c += 1;
        }
    }

    /// `xs[r] += bias` for each row `r ∈ rows`: 8-wide adds plus scalar
    /// tail. `xs` covers `rows` (`rows.len() × n`), and `bias` is `n` long.
    #[inline(always)]
    pub(super) fn add_bias_rows<L: Lanes8>(
        bias: &[f32],
        n: usize,
        rows: Range<usize>,
        xs: &mut [f32],
    ) {
        debug_assert_eq!(bias.len(), n);
        debug_assert_eq!(xs.len(), rows.len() * n);
        for ri in 0..rows.len() {
            let row = &mut xs[ri * n..(ri + 1) * n];
            let mut j = 0;
            while j + LANES <= n {
                L::st(row, j, L::add(L::ld(row, j), L::ld(bias, j)));
                j += LANES;
            }
            while j < n {
                row[j] += bias[j];
                j += 1;
            }
        }
    }
}

// ---- public kernels --------------------------------------------------------

/// `out[m×n] = a[m×k] · b[k×n]`, row-major: k-tiled register tiles (8 × 32
/// on AVX-512, else 4 × 16).
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * n];
    let path = path(true);
    record("matmul", 2 * (m * k * n) as u64, path, || match path {
        // SAFETY: `path` verified AVX-512F, AVX2 and FMA on this host.
        #[cfg(target_arch = "x86_64")]
        Path::Avx512 => unsafe { avx512::matmul_rows(a, b, k, n, 0..m, &mut out) },
        // SAFETY: `path` verified AVX2+FMA on this host.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { avx::matmul_rows(a, b, k, n, 0..m, &mut out) },
        _ => body::matmul_rows::<ScalarLanes, 4>(a, b, k, n, 0..m, &mut out),
    });
    out
}

/// `out[m×k] = d[m×n] · bᵀ[n×k]` (gradient w.r.t. the left operand): each
/// element an 8-wide fused dot product reduced by one fixed tree, on tiles
/// of 8 or 4 rows × 4 outputs, two rows per zmm, on AVX-512 (else 2 × 4).
pub fn matmul_bt(dout: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    debug_assert_eq!(dout.len(), m * n);
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * k];
    let path = path(true);
    record("matmul_bt", 2 * (m * n * k) as u64, path, || match path {
        // SAFETY: `path` verified AVX-512F, AVX2 and FMA on this host.
        #[cfg(target_arch = "x86_64")]
        Path::Avx512 => unsafe { avx512::matmul_bt_rows(dout, b, n, k, 0..m, &mut out) },
        // SAFETY: `path` verified AVX2+FMA on this host.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { avx::matmul_bt_rows(dout, b, n, k, 0..m, &mut out) },
        _ => body::matmul_bt_rows::<ScalarLanes>(dout, b, n, k, 0..m, &mut out),
    });
    out
}

/// Accumulate `aᵀ[k×m] · d[m×n]` into `gw[k×n]` (gradient w.r.t. the
/// right operand of `a·w`): register tiles of `gw` (8 × 32 on AVX-512,
/// else 4 × 16) held across all samples, so the batch reduction order of
/// each element is fixed. Panics unless `gw` is `k × n`.
pub fn acc_matmul_at(a: &[f32], dout: &[f32], m: usize, k: usize, n: usize, gw: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(dout.len(), m * n);
    assert!(k.checked_mul(n) == Some(gw.len()), "gw is not k × n");
    let path = path(true);
    record("acc_matmul_at", 2 * (m * k * n) as u64, path, || match path {
        // SAFETY: `path` verified AVX-512F, AVX2 and FMA on this host.
        #[cfg(target_arch = "x86_64")]
        Path::Avx512 => unsafe { avx512::acc_matmul_at_rows(a, dout, m, k, n, 0..k, gw) },
        // SAFETY: `path` verified AVX2+FMA on this host.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { avx::acc_matmul_at_rows(a, dout, m, k, n, 0..k, gw) },
        _ => body::acc_matmul_at_rows::<ScalarLanes, 4>(a, dout, m, k, n, 0..k, gw),
    });
}

/// `xs[r·n..][..n] += bias` for every row `r < m`. Pure per-lane adds, so
/// it is trivially bit-stable. Panics unless `xs` is `m × n` and `bias` is
/// `n` long: the AVX2 body loads `bias` unchecked.
pub fn add_bias_rows(xs: &mut [f32], bias: &[f32], m: usize, n: usize) {
    assert!(bias.len() == n && m.checked_mul(n) == Some(xs.len()), "xs is not m × n or bias not n");
    let path = path(false);
    record("add_bias_rows", (m * n) as u64, path, || {
        #[cfg(target_arch = "x86_64")]
        if path == Path::Avx2 {
            // SAFETY: `path` verified AVX2+FMA on this host.
            unsafe { avx::add_bias_rows(bias, n, 0..m, xs) };
            return;
        }
        body::add_bias_rows::<ScalarLanes>(bias, n, 0..m, xs);
    });
}

/// Causal multi-head self-attention forward: `q`, `k` and `v` are `t × d`
/// row-major with the `h` heads side by side in the columns. Returns the
/// softmax probabilities (`h × t × t`, zero above the diagonal) and the
/// context (`t × d`), bit-identical to [`reference::attention_forward`].
/// Runs on the calling thread and adds nothing to `kernel.flops`.
pub fn attention_forward(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    t: usize,
    d: usize,
    h: usize,
) -> (Vec<f32>, Vec<f32>) {
    assert!(h > 0 && d.is_multiple_of(h), "heads must divide d");
    assert!(q.len() == t * d && k.len() == t * d && v.len() == t * d);
    let tp = lane_padded(t);
    let (mut att, mut ctx) = (vec![0.0f32; h * t * t], vec![0.0f32; t * d]);
    let (mut kt, mut s) = (vec![0.0f32; d / h * tp], vec![0.0f32; t * tp]);
    let path = path(false);
    record("attention_forward", 0, path, || {
        let outs = [&mut att[..], &mut ctx[..]];
        let scratch = [&mut kt[..], &mut s[..]];
        #[cfg(target_arch = "x86_64")]
        if path == Path::Avx2 {
            // SAFETY: `path` verified AVX2+FMA on this host.
            unsafe { avx::attention_forward(q, k, v, t, d, h, outs, scratch) };
            return;
        }
        body::attention_forward::<ScalarLanes>(q, k, v, t, d, h, outs, scratch);
    });
    (att, ctx)
}

/// Causal multi-head self-attention backward: from the forward's `q`, `k`,
/// `v` and `att` and the context gradient `d_ctx`, returns `(d_q, d_k,
/// d_v)`, bit-identical to [`reference::attention_backward`]. Runs on the
/// calling thread and adds nothing to `kernel.flops`.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    att: &[f32],
    d_ctx: &[f32],
    t: usize,
    d: usize,
    h: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    assert!(h > 0 && d.is_multiple_of(h), "heads must divide d");
    assert!(q.len() == t * d && k.len() == t * d && v.len() == t * d && d_ctx.len() == t * d);
    assert_eq!(att.len(), h * t * t);
    let tp = lane_padded(t);
    let (mut d_q, mut d_k, mut d_v) =
        (vec![0.0f32; t * d], vec![0.0f32; t * d], vec![0.0f32; t * d]);
    let (mut vt, mut ds) = (vec![0.0f32; d / h * tp], vec![0.0f32; t * tp]);
    let path = path(false);
    record("attention_backward", 0, path, || {
        let grads = [&mut d_q[..], &mut d_k[..], &mut d_v[..]];
        let scratch = [&mut vt[..], &mut ds[..]];
        #[cfg(target_arch = "x86_64")]
        if path == Path::Avx2 {
            // SAFETY: `path` verified AVX2+FMA on this host.
            unsafe { avx::attention_backward(q, k, v, att, d_ctx, t, d, h, grads, scratch) };
            return;
        }
        body::attention_backward::<ScalarLanes>(q, k, v, att, d_ctx, t, d, h, grads, scratch);
    });
    (d_q, d_k, d_v)
}

/// `t` rounded up to a whole number of lanes (at least one strip): the key
/// width of the attention scratch, so every score strip runs full width.
fn lane_padded(t: usize) -> usize {
    t.next_multiple_of(LANES).max(LANES)
}

/// The scalar kernels the SIMD versions are measured against. For the
/// GEMM family they are the numeric drift oracle: FMA reassociates, so the
/// drift tests bound divergence from these sums. The attention loops are
/// an exact oracle: the dispatch equals them bit for bit. The
/// microbenches (`crates/bench/benches/kernels.rs`) measure speedups
/// against all of them.
pub mod reference {
    /// Naive `out[m×n] = a[m×k] · b[k×n]`, sequential saxpy over `k`.
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Naive `out[m×k] = d[m×n] · bᵀ[n×k]`, one dot product per element.
    pub fn matmul_bt(dout: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        debug_assert_eq!(dout.len(), m * n);
        debug_assert_eq!(b.len(), k * n);
        let mut out = vec![0.0f32; m * k];
        for i in 0..m {
            for kk in 0..k {
                let mut s = 0.0;
                let brow = &b[kk * n..(kk + 1) * n];
                let drow = &dout[i * n..(i + 1) * n];
                for (dv, bv) in drow.iter().zip(brow.iter()) {
                    s += dv * bv;
                }
                out[i * k + kk] = s;
            }
        }
        out
    }

    /// Naive accumulation of `aᵀ[k×m] · d[m×n]` into `gw[k×n]`.
    pub fn acc_matmul_at(a: &[f32], dout: &[f32], m: usize, k: usize, n: usize, gw: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(dout.len(), m * n);
        debug_assert_eq!(gw.len(), k * n);
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let drow = &dout[i * n..(i + 1) * n];
                let grow = &mut gw[kk * n..(kk + 1) * n];
                for (gv, &dv) in grow.iter_mut().zip(drow.iter()) {
                    *gv += av * dv;
                }
            }
        }
    }

    /// Causal multi-head self-attention forward as scalar loops: returns
    /// the softmax probabilities (`h × t × t`) and the context (`t × d`).
    pub fn attention_forward(
        q: &[f32],
        k: &[f32],
        vv: &[f32],
        t: usize,
        d: usize,
        h: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let dk = d / h;
        let mut att = vec![0.0f32; h * t * t];
        let mut ctx = vec![0.0f32; t * d];
        let inv = 1.0 / (dk as f32).sqrt();
        for head in 0..h {
            let base = head * dk;
            for i in 0..t {
                // scores over j ≤ i, softmax with max-subtraction.
                let mut mx = f32::NEG_INFINITY;
                let mut row = vec![0.0f32; i + 1];
                for (j, rj) in row.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for c in 0..dk {
                        s += q[i * d + base + c] * k[j * d + base + c];
                    }
                    *rj = s * inv;
                    mx = mx.max(*rj);
                }
                let mut denom = 0.0;
                for rj in row.iter_mut() {
                    *rj = (*rj - mx).exp();
                    denom += *rj;
                }
                for (j, rj) in row.iter().enumerate() {
                    let a = rj / denom;
                    att[head * t * t + i * t + j] = a;
                    for c in 0..dk {
                        ctx[i * d + base + c] += a * vv[j * d + base + c];
                    }
                }
            }
        }
        (att, ctx)
    }

    /// Causal multi-head self-attention backward as scalar loops: returns
    /// `(d_q, d_k, d_v)`.
    #[allow(clippy::too_many_arguments)]
    pub fn attention_backward(
        q: &[f32],
        k: &[f32],
        vv: &[f32],
        att: &[f32],
        d_ctx: &[f32],
        t: usize,
        d: usize,
        h: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let dk = d / h;
        let mut d_q = vec![0.0f32; t * d];
        let mut d_k = vec![0.0f32; t * d];
        let mut d_v = vec![0.0f32; t * d];
        let dk_inv = 1.0 / (dk as f32).sqrt();
        for head in 0..h {
            let base = head * dk;
            for i in 0..t {
                // dA_ij and softmax jacobian (rows are independent).
                let mut d_att = vec![0.0f32; i + 1];
                for (j, da) in d_att.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for cc in 0..dk {
                        s += d_ctx[i * d + base + cc] * vv[j * d + base + cc];
                    }
                    *da = s;
                }
                let row = &att[head * t * t + i * t..head * t * t + i * t + i + 1];
                let dot: f32 = d_att.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for j in 0..=i {
                    let ds = row[j] * (d_att[j] - dot) * dk_inv;
                    for cc in 0..dk {
                        d_q[i * d + base + cc] += ds * k[j * d + base + cc];
                        d_k[j * d + base + cc] += ds * q[i * d + base + cc];
                    }
                    // dV from d_ctx via att.
                    for cc in 0..dk {
                        d_v[j * d + base + cc] += row[j] * d_ctx[i * d + base + cc];
                    }
                }
            }
        }
        (d_q, d_k, d_v)
    }

    /// Naive broadcast bias add over rows.
    pub fn add_bias_rows(xs: &mut [f32], bias: &[f32], m: usize, n: usize) {
        debug_assert_eq!(xs.len(), m * n);
        debug_assert_eq!(bias.len(), n);
        for r in 0..m {
            for j in 0..n {
                xs[r * n + j] += bias[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random buffer in roughly [-1, 1].
    fn buf(len: usize, salt: u64) -> Vec<f32> {
        let mut s = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "{what}[{i}]: kernel {x} vs reference {y}"
            );
        }
    }

    /// Shapes chosen to hit both the unrolled body and every remainder
    /// path, plus one reduction long enough to cross the KC tile boundary.
    const SHAPES: &[(usize, usize, usize)] =
        &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (6, 300, 5), (5, 7, 9), (8, 257, 16)];

    /// `matmul` / `matmul_bt` / `acc_matmul_at` bodies over a row range, as
    /// in `body` (`matmul_bt`'s takes `n` before `k`).
    type Matmul = fn(&[f32], &[f32], usize, usize, Range<usize>, &mut [f32]);
    type AccMatmulAt = fn(&[f32], &[f32], usize, usize, usize, Range<usize>, &mut [f32]);

    /// One backend's GEMM bodies: name, `matmul`, `acc_matmul_at`,
    /// `matmul_bt`.
    type Gemms = (&'static str, Matmul, AccMatmulAt, Matmul);

    /// The GEMM bodies' instantiations this host can run: `set_simd` picks
    /// only the widest, so the narrower SIMD ones are reached here.
    fn instantiations() -> Vec<Gemms> {
        let mut all: Vec<Gemms> = vec![(
            "scalar",
            body::matmul_rows::<ScalarLanes, 4>,
            body::acc_matmul_at_rows::<ScalarLanes, 4>,
            body::matmul_bt_rows::<ScalarLanes>,
        )];
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            fn mm(a: &[f32], b: &[f32], k: usize, n: usize, rows: Range<usize>, o: &mut [f32]) {
                // SAFETY: listed only after runtime AVX2+FMA detection.
                unsafe { avx::matmul_rows(a, b, k, n, rows, o) }
            }
            fn bt(d: &[f32], b: &[f32], n: usize, k: usize, rows: Range<usize>, o: &mut [f32]) {
                // SAFETY: listed only after runtime AVX2+FMA detection.
                unsafe { avx::matmul_bt_rows(d, b, n, k, rows, o) }
            }
            fn at(
                a: &[f32],
                d: &[f32],
                m: usize,
                k: usize,
                n: usize,
                r: Range<usize>,
                g: &mut [f32],
            ) {
                // SAFETY: listed only after runtime AVX2+FMA detection.
                unsafe { avx::acc_matmul_at_rows(a, d, m, k, n, r, g) }
            }
            all.push(("avx2", mm, at, bt));
        }
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            fn mm(a: &[f32], b: &[f32], k: usize, n: usize, rows: Range<usize>, o: &mut [f32]) {
                // SAFETY: listed only after runtime AVX-512F detection.
                unsafe { avx512::matmul_rows(a, b, k, n, rows, o) }
            }
            fn bt(d: &[f32], b: &[f32], n: usize, k: usize, rows: Range<usize>, o: &mut [f32]) {
                // SAFETY: listed only after runtime AVX-512F detection.
                unsafe { avx512::matmul_bt_rows(d, b, n, k, rows, o) }
            }
            fn at(
                a: &[f32],
                d: &[f32],
                m: usize,
                k: usize,
                n: usize,
                r: Range<usize>,
                g: &mut [f32],
            ) {
                // SAFETY: listed only after runtime AVX-512F detection.
                unsafe { avx512::acc_matmul_at_rows(a, d, m, k, n, r, g) }
            }
            all.push(("avx512", mm, at, bt));
        }
        all
    }

    /// `tests/kernels_v2.rs`' shapes, as `(m, k, n)`.
    fn v2_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (1, 257, 1),
            (4, 256, 8),
            (5, 257, 9),
            (2, 512, 3),
            (7, 9, 33),
            (12, 64, 20),
            (1, 8, 16),
            (9, 300, 2),
            (33, 31, 17),
            (1, 5, 7),
            (3, 6, 8),
            (1, 7, 9),
            (3, 9, 15),
            (1, 10, 16),
            (3, 11, 17),
            (2, 13, 23),
            (3, 14, 24),
            (5, 15, 25),
        ];
        let mut s = 0x5eed_u64;
        let mut next = |lim: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % lim
        };
        for i in 0..30 {
            let k = if i % 5 == 0 { 250 + next(14) as usize } else { 1 + next(40) as usize };
            shapes.push((1 + next(24) as usize, k, 1 + next(40) as usize));
        }
        shapes
    }

    /// [`v2_shapes`], then the tails of the 8 × 32 tile: m 1..=17 rows
    /// against the 8- and 4-row tiles, n around one, two and three 16-lane
    /// vectors, k around the KC = 256 tile.
    fn gemm_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = v2_shapes();
        for m in 1..=17 {
            for n in [15, 16, 17, 31, 32, 33, 47, 48, 49] {
                for k in 255..=257 {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes
    }

    /// Every instantiation of the two GEMM bodies gives the scalar one's
    /// bits, over the whole output and split in two at a row.
    #[test]
    fn every_gemm_instantiation_gives_the_same_bits() {
        let all = instantiations();
        for (m, k, n) in gemm_shapes() {
            let (a, b, d) = (buf(m * k, 1), buf(k * n, 2), buf(m * n, 3));
            let run = |&(_, matmul, acc, _): &Gemms| {
                let mut out = vec![0.0f32; m * n];
                let (lo, hi) = out.split_at_mut(m / 2 * n);
                matmul(&a, &b, k, n, 0..m / 2, lo);
                matmul(&a, &b, k, n, m / 2..m, hi);
                let mut gw = buf(k * n, 8);
                let (lo, hi) = gw.split_at_mut(k / 2 * n);
                acc(&a, &d, m, k, n, 0..k / 2, lo);
                acc(&a, &d, m, k, n, k / 2..k, hi);
                out.extend(gw);
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            let want = run(&all[0]);
            for inst in &all[1..] {
                assert!(run(inst) == want, "{} differs from scalar at {m}x{k}x{n}", inst.0);
            }
        }
    }

    /// Every instantiation of the `matmul_bt` body gives the scalar one's
    /// bits, over the whole output and split at an odd row: m 1..=17 covers
    /// every `m % 8` against the 8- and 4-row tiles and an odd last row, n
    /// lies around the 8-lane chains and their scalar tail, k 1..=9 covers
    /// every `k % 4` against the 4 outputs of a pass; then rows past the
    /// tiles' strip buffer, and `kernels_v2.rs`' shapes.
    #[test]
    fn every_matmul_bt_instantiation_gives_the_same_bits() {
        let mut shapes = Vec::new();
        for m in 1..=17 {
            for n in [1, 7, 8, 9, 15, 16, 17, 64, 65, 300] {
                for k in (1..=9).chain([64, 67]) {
                    shapes.push((m, n, k));
                }
            }
        }
        // Rows too wide for the 8-row tile's strips, then for the 4-row one's.
        for n in [520, 1032] {
            shapes.extend([(8, n, 5), (13, n, 5)]);
        }
        shapes.extend(v2_shapes().into_iter().map(|(m, k, n)| (m, n, k)));
        let all = instantiations();
        for (m, n, k) in shapes {
            let (d, b) = (buf(m * n, 3), buf(k * n, 2));
            let run = |bt: Matmul, split: usize| {
                let mut out = vec![0.0f32; m * k];
                let (lo, hi) = out.split_at_mut(split * k);
                bt(&d, &b, n, k, 0..split, lo);
                bt(&d, &b, n, k, split..m, hi);
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            let want = run(all[0].3, 0);
            for &(name, .., bt) in &all {
                for split in [0, (m / 2) | 1] {
                    let split = split.min(m);
                    assert!(
                        run(bt, split) == want,
                        "{name} differs from scalar at {m}x{n}x{k} split at {split}"
                    );
                }
            }
        }
    }

    /// The SIMD bodies load the right operand unchecked behind one bounds
    /// check per call, so a short operand panics, in release too.
    #[test]
    #[should_panic]
    fn matmul_with_a_short_right_operand_panics() {
        let _ = matmul(&[1.0; 32], &[1.0; 63], 4, 8, 8);
    }

    #[test]
    #[should_panic]
    fn acc_matmul_at_with_a_short_left_operand_panics() {
        acc_matmul_at(&[1.0; 31], &[1.0; 32], 4, 8, 8, &mut [0.0; 64]);
    }

    /// `matmul_bt` with a `dout` or a `b` one element short panics, in
    /// release too: each case is caught on its own, so both must panic.
    #[test]
    fn matmul_bt_with_a_short_operand_panics() {
        let (m, n, k) = (8, 16, 8);
        let short_dout = std::panic::catch_unwind(|| matmul_bt(&[1.0; 127], &[1.0; 128], m, n, k));
        assert!(short_dout.is_err(), "a short `dout` must panic");
        let short_b = std::panic::catch_unwind(|| matmul_bt(&[1.0; 128], &[1.0; 127], m, n, k));
        assert!(short_b.is_err(), "a short `b` must panic");
    }

    /// `acc_matmul_at` into a `gw` one row short panics, in release too.
    #[test]
    #[should_panic]
    fn acc_matmul_at_with_a_short_gradient_panics() {
        acc_matmul_at(&[1.0; 32], &[1.0; 32], 4, 8, 8, &mut [0.0; 56]);
    }

    /// `add_bias_rows` with `xs` one row short or `bias` one 8-lane strip
    /// short panics, in release too: each case is caught on its own.
    #[test]
    fn add_bias_rows_with_a_short_operand_panics() {
        let (m, n) = (4, 16);
        let short_xs = std::panic::catch_unwind(|| {
            add_bias_rows(&mut [0.0; 48], &[1.0; 16], m, n);
        });
        assert!(short_xs.is_err(), "a short `xs` must panic");
        let short_bias = std::panic::catch_unwind(|| {
            add_bias_rows(&mut [0.0; 64], &[1.0; 8], m, n);
        });
        assert!(short_bias.is_err(), "a short `bias` must panic");
    }

    #[test]
    fn drift_matmul_is_bounded_reassociation() {
        for &(m, k, n) in SHAPES {
            let a = buf(m * k, 1);
            let b = buf(k * n, 2);
            assert_close(
                &matmul(&a, &b, m, k, n),
                &reference::matmul(&a, &b, m, k, n),
                1e-5,
                "matmul",
            );
        }
    }

    #[test]
    fn drift_matmul_bt_is_bounded_reassociation() {
        for &(m, n, k) in SHAPES {
            let d = buf(m * n, 3);
            let b = buf(k * n, 4);
            assert_close(
                &matmul_bt(&d, &b, m, n, k),
                &reference::matmul_bt(&d, &b, m, n, k),
                1e-5,
                "matmul_bt",
            );
        }
    }

    #[test]
    fn drift_acc_matmul_at_is_bounded_reassociation() {
        for &(m, k, n) in SHAPES {
            let a = buf(m * k, 5);
            let d = buf(m * n, 6);
            let mut g1 = buf(k * n, 7);
            let mut g2 = g1.clone();
            acc_matmul_at(&a, &d, m, k, n, &mut g1);
            reference::acc_matmul_at(&a, &d, m, k, n, &mut g2);
            assert_close(&g1, &g2, 1e-5, "acc_matmul_at");
        }
    }

    #[test]
    fn zero_inputs_stay_exactly_zero() {
        // 0·x fused into a zero accumulator is still exactly ±0 for
        // finite x, and IEEE (+0) + (−0) = +0, so zero inputs yield
        // exact zeros on both the SIMD and fallback paths.
        let (m, k, n) = (6, 9, 5);
        let a = vec![0.0f32; m * k];
        let b = buf(k * n, 12);
        assert!(matmul(&a, &b, m, k, n).iter().all(|&v| v == 0.0));
        let mut gw = vec![0.0f32; k * n];
        acc_matmul_at(&a, &buf(m * n, 13), m, k, n, &mut gw);
        assert!(gw.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn add_bias_rows_matches_reference() {
        let (m, n) = (5, 11);
        let bias = buf(n, 17);
        let mut a = buf(m * n, 18);
        let mut b = a.clone();
        add_bias_rows(&mut a, &bias, m, n);
        reference::add_bias_rows(&mut b, &bias, m, n);
        assert_eq!(a, b, "bias add is pure per-lane addition: exactly equal");
    }
}
