//! Kernels-v2 contract tests: the SIMD dispatch layer must (a) stay within
//! float tolerance of the scalar `kernels::reference` drift oracle for the
//! GEMM family, and equal the reference attention loops **bit for bit**,
//! (b) be **bit-identical** across every SIMD setting — on, off and
//! autodetected — on adversarial shapes,
//! (c) keep whole LM training runs byte-stable across those knobs, and
//! (d) actually exercise both the SIMD and the scalar-fallback paths at
//! runtime.
//!
//! The bit-identity claims are structural (one generic lane body per
//! kernel, fused multiply-add in both instantiations); these tests are the empirical check that the
//! structure holds on real shapes, including lane tails, unit and empty
//! dimensions, and reductions straddling the KC cache tile.

use mics_minidl::kernels::{self, reference};
use mics_minidl::{train_lm, LmSetup, LossScale, SyncSchedule, TinyTransformer, TrainOutcome};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The SIMD settings exercised by every bit-identity check: forced off,
/// forced on (a no-op downgrade on hosts without AVX2+FMA), and
/// autodetected.
const CONFIGS: &[Option<bool>] = &[Some(false), Some(true), None];

/// Serializes every test that touches the process-global SIMD knob and
/// restores autodetection when dropped.
struct Knobs(#[allow(dead_code)] MutexGuard<'static, ()>);

fn configure(simd: Option<bool>) -> Knobs {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard =
        LOCK.get_or_init(Default::default).lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    kernels::set_simd(simd);
    Knobs(guard)
}

impl Drop for Knobs {
    fn drop(&mut self) {
        kernels::set_simd(None);
    }
}

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

/// Shapes chosen to hit every special case in the kernels: empty and unit
/// dimensions, sub-lane tails, exact lane/unroll multiples, and reductions
/// that straddle (and exactly fill) the KC = 256 cache tile.
fn shapes() -> Vec<(usize, usize, usize)> {
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
        // The retiled backward GEMMs: k % 4 ∈ {1, 2, 3} against their
        // four-row tiles, one and three rows against the row pairing, and
        // n below and around the 8- and 16-column strips.
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
    // A seeded sweep of small random shapes, with the reduction axis pushed
    // around the KC boundary every few draws.
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

/// All four public kernels evaluated at one shape, concatenated in a fixed
/// order so one `Vec` captures the whole dispatch surface for comparison.
fn dispatch_all(m: usize, k: usize, n: usize) -> Vec<f32> {
    let a = buf(m * k, 1);
    let b = buf(k * n, 2);
    let dout = buf(m * n, 3);
    let bias_k = buf(k, 5);
    let bias_n = buf(n, 7);

    let mut out = kernels::matmul(&a, &b, m, k, n);
    out.extend(kernels::matmul_bt(&dout, &b, m, n, k));
    let mut gw = buf(k * n, 8);
    kernels::acc_matmul_at(&a, &dout, m, k, n, &mut gw);
    out.extend(gw);
    let mut rows = buf(m * n, 10);
    kernels::add_bias_rows(&mut rows, &bias_n, m, n);
    out.extend(rows);
    out.extend(bias_k); // keep operand coverage honest if signatures change
    out
}

/// The same surface through the scalar drift oracle.
fn reference_all(m: usize, k: usize, n: usize) -> Vec<f32> {
    let a = buf(m * k, 1);
    let b = buf(k * n, 2);
    let dout = buf(m * n, 3);
    let bias_k = buf(k, 5);
    let bias_n = buf(n, 7);

    let mut out = reference::matmul(&a, &b, m, k, n);
    out.extend(reference::matmul_bt(&dout, &b, m, n, k));
    let mut gw = buf(k * n, 8);
    reference::acc_matmul_at(&a, &dout, m, k, n, &mut gw);
    out.extend(gw);
    let mut rows = buf(m * n, 10);
    reference::add_bias_rows(&mut rows, &bias_n, m, n);
    out.extend(rows);
    out.extend(bias_k);
    out
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The kernel counter `name`.
fn stat(name: &str) -> u64 {
    kernels::kernel_stats()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing counter {name}"))
}

/// (a) + (b): every shape, every SIMD setting — tolerance against the
/// scalar reference, exact bits against the canonical (scalar) dispatch. FMA legitimately shifts low bits vs the unfused reference, so
/// the oracle check is a tolerance, never an equality.
#[test]
fn dispatch_matches_reference_and_is_bit_stable_across_knobs() {
    let _knobs = configure(Some(false));
    for (m, k, n) in shapes() {
        let canonical = dispatch_all(m, k, n);
        let oracle = reference_all(m, k, n);
        assert_eq!(canonical.len(), oracle.len());
        for (i, (got, want)) in canonical.iter().zip(&oracle).enumerate() {
            let tol = 1e-4 + 1e-3 * want.abs();
            assert!(
                (got - want).abs() <= tol,
                "{m}x{k}x{n} element {i}: dispatch {got} vs reference {want}"
            );
        }
        for &simd in CONFIGS {
            kernels::set_simd(simd);
            let got = dispatch_all(m, k, n);
            assert_eq!(
                bits(&got),
                bits(&canonical),
                "{m}x{k}x{n}: simd={simd:?} drifted from the scalar bits"
            );
            kernels::set_simd(Some(false));
        }
    }
}

/// `(t, dk, h)` for the attention kernels: sequence lengths on both sides
/// of one and two 8-lane strips, head widths around the 8- and 16-column
/// strips, and one, three and four heads.
fn attention_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for t in [1, 2, 7, 8, 9, 17, 33] {
        for dk in [1, 3, 8, 9, 16, 24] {
            for h in [1, 3, 4] {
                shapes.push((t, dk, h));
            }
        }
    }
    shapes
}

/// `attention_forward(q, k, v, t, d, h) -> (att, ctx)`.
type AttentionForward = fn(&[f32], &[f32], &[f32], usize, usize, usize) -> (Vec<f32>, Vec<f32>);
/// `attention_backward(q, k, v, att, d_ctx, t, d, h) -> (d_q, d_k, d_v)`.
type AttentionBackward = fn(
    &[f32],
    &[f32],
    &[f32],
    &[f32],
    &[f32],
    usize,
    usize,
    usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>);

/// Forward and backward attention at one shape, concatenated:
/// `att`, `ctx`, `d_q`, `d_k`, `d_v`. Softmax inputs are scaled up so the
/// probabilities are far from uniform.
fn attention_all(
    t: usize,
    dk: usize,
    h: usize,
    forward: AttentionForward,
    backward: AttentionBackward,
) -> Vec<f32> {
    let d = dk * h;
    let q: Vec<f32> = buf(t * d, 11).iter().map(|x| 3.0 * x).collect();
    let (k, v, d_ctx) = (buf(t * d, 12), buf(t * d, 13), buf(t * d, 14));
    let (att, ctx) = forward(&q, &k, &v, t, d, h);
    let (d_q, d_k, d_v) = backward(&q, &k, &v, &att, &d_ctx, t, d, h);
    [att, ctx, d_q, d_k, d_v].concat()
}

/// (a) + (b) for attention: at every shape and SIMD setting the
/// dispatch equals the scalar reference loops bit for bit.
#[test]
fn attention_dispatch_equals_the_reference_bit_for_bit() {
    let _knobs = configure(Some(false));
    for (t, dk, h) in attention_shapes() {
        let oracle =
            attention_all(t, dk, h, reference::attention_forward, reference::attention_backward);
        for &simd in CONFIGS {
            kernels::set_simd(simd);
            let got =
                attention_all(t, dk, h, kernels::attention_forward, kernels::attention_backward);
            assert_eq!(
                bits(&got),
                bits(&oracle),
                "t={t} dk={dk} h={h}: simd={simd:?} differs from the reference attention loops"
            );
        }
    }
}

fn lm_run() -> TrainOutcome {
    let cfg = LmSetup {
        model: TinyTransformer::new(7, 5, 8, 2, 12, 1),
        world: 2,
        partition_size: 2,
        micro_batch: 4,
        accum_steps: 2,
        iterations: 6,
        lr: 0.02,
        seed: 424242,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: 0,
    };
    train_lm(&cfg, SyncSchedule::TwoHop)
}

/// (c) The fig15-style LM training run — transformer forward/backward,
/// gradient synchronization, Adam — is **byte-identical** whether the
/// kernels run scalar or SIMD. This is the
/// end-to-end version of the per-kernel bit checks: if any kernel's
/// reduction order depended on the SIMD setting, six optimizer steps would
/// amplify the drift into visibly different losses.
#[test]
fn lm_training_is_byte_identical_across_simd_knobs() {
    let _knobs = configure(Some(false));
    let base = lm_run();
    for simd in [None, Some(true)] {
        kernels::set_simd(simd);
        let got = lm_run();
        assert_eq!(bits(&got.losses), bits(&base.losses), "losses drifted at simd={simd:?}");
        assert_eq!(
            bits(&got.final_params),
            bits(&base.final_params),
            "final parameters drifted at simd={simd:?}"
        );
    }
}

/// (d) Runtime feature detection: autodetection engages the SIMD path on
/// capable hosts, the `set_simd` override forces the scalar fallback *on the
/// same host*, and the two paths produce the same bits.
/// The counters prove each path actually executed — on a SIMD host this
/// test exercises the fallback, which is exactly the coverage a
/// SIMD-capable CI box would otherwise never get.
#[test]
fn runtime_detection_engages_simd_and_fallback_paths() {
    let _knobs = configure(None);
    kernels::init();
    let a = buf(64 * 64, 1);
    let b = buf(64 * 64, 2);

    let (simd_before, fallback_before) = (stat("kernel.simd_calls"), stat("kernel.fallback_calls"));
    let avx512_before = stat("kernel.avx512_calls");
    let auto = kernels::matmul(&a, &b, 64, 64, 64);
    if kernels::simd_available() {
        assert!(kernels::simd_active(), "autodetection must engage SIMD where available");
        assert!(stat("kernel.simd_calls") > simd_before, "SIMD path did not run");
        if kernels::simd_level() == "avx512" {
            assert!(stat("kernel.avx512_calls") > avx512_before, "AVX-512 path did not run");
        }
    } else {
        assert!(!kernels::simd_active());
        assert!(stat("kernel.fallback_calls") > fallback_before, "fallback path did not run");
    }

    kernels::set_simd(Some(false));
    let fallback_before = stat("kernel.fallback_calls");
    let forced = kernels::matmul(&a, &b, 64, 64, 64);
    assert!(!kernels::simd_active(), "forced-off must win over detection");
    assert!(stat("kernel.fallback_calls") > fallback_before, "forced fallback did not run");
    assert_eq!(bits(&auto), bits(&forced), "SIMD and fallback paths disagree");
}

/// `matmul_bt` runs on AVX-512 where the host has it: one call adds exactly
/// one to `kernel.avx512_calls` there, and nothing elsewhere.
#[test]
fn matmul_bt_counts_one_avx512_call_on_an_avx512_host() {
    let _knobs = configure(None);
    let (m, n, k) = (8, 16, 8);
    let (d, b) = (buf(m * n, 3), buf(k * n, 2));
    let before = stat("kernel.avx512_calls");
    let _ = kernels::matmul_bt(&d, &b, m, n, k);
    let want = u64::from(kernels::simd_level() == "avx512");
    assert_eq!(stat("kernel.avx512_calls") - before, want, "simd level {}", kernels::simd_level());
}
