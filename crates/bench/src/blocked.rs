//! The cache-blocked, register-unrolled v1 kernels of `mics-minidl`, kept
//! verbatim as the autovectorisation baseline the v2 SIMD kernels
//! (`mics_minidl::kernels`) are benchmarked against: the `blocked_ns`
//! column of `results/BENCH_kernels.json` (`benches/kernels.rs`). Nothing
//! outside the bench calls them.

/// Register-block height: rows of the reduction dimension fused per pass.
const UNROLL: usize = 4;
/// Cache tile for the reduction dimension of [`matmul`].
const KC: usize = 256;

/// Blocked `out[m×n] = a[m×k] · b[k×n]`, k-tiled and 4-way unrolled.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * n];
    for kk in (0..k).step_by(KC) {
        let kend = (kk + KC).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut kc = kk;
            while kc + UNROLL <= kend {
                let (a0, a1, a2, a3) = (arow[kc], arow[kc + 1], arow[kc + 2], arow[kc + 3]);
                let b0 = &b[kc * n..(kc + 1) * n];
                let b1 = &b[(kc + 1) * n..(kc + 2) * n];
                let b2 = &b[(kc + 2) * n..(kc + 3) * n];
                let b3 = &b[(kc + 3) * n..(kc + 4) * n];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
                kc += UNROLL;
            }
            while kc < kend {
                let av = arow[kc];
                let brow = &b[kc * n..(kc + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
                kc += 1;
            }
        }
    }
    out
}

/// Blocked `out[m×k] = d[m×n] · bᵀ[n×k]`: four simultaneous dot
/// products share each load of the `d` row.
pub fn matmul_bt(dout: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    debug_assert_eq!(dout.len(), m * n);
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * k];
    for i in 0..m {
        let drow = &dout[i * n..(i + 1) * n];
        let orow = &mut out[i * k..(i + 1) * k];
        let mut kk = 0;
        while kk + UNROLL <= k {
            let b0 = &b[kk * n..(kk + 1) * n];
            let b1 = &b[(kk + 1) * n..(kk + 2) * n];
            let b2 = &b[(kk + 2) * n..(kk + 3) * n];
            let b3 = &b[(kk + 3) * n..(kk + 4) * n];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (j, &dv) in drow.iter().enumerate() {
                s0 += dv * b0[j];
                s1 += dv * b1[j];
                s2 += dv * b2[j];
                s3 += dv * b3[j];
            }
            orow[kk] = s0;
            orow[kk + 1] = s1;
            orow[kk + 2] = s2;
            orow[kk + 3] = s3;
            kk += UNROLL;
        }
        while kk < k {
            let brow = &b[kk * n..(kk + 1) * n];
            let mut s = 0.0f32;
            for (&dv, &bv) in drow.iter().zip(brow.iter()) {
                s += dv * bv;
            }
            orow[kk] = s;
            kk += 1;
        }
    }
    out
}

/// Blocked accumulation of `aᵀ[k×m] · d[m×n]` into `gw[k×n]`: four
/// samples fuse per pass over the gradient rows.
pub fn acc_matmul_at(a: &[f32], dout: &[f32], m: usize, k: usize, n: usize, gw: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(dout.len(), m * n);
    debug_assert_eq!(gw.len(), k * n);
    let mut i = 0;
    while i + UNROLL <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let d0 = &dout[i * n..(i + 1) * n];
        let d1 = &dout[(i + 1) * n..(i + 2) * n];
        let d2 = &dout[(i + 2) * n..(i + 3) * n];
        let d3 = &dout[(i + 3) * n..(i + 4) * n];
        for kk in 0..k {
            let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            let grow = &mut gw[kk * n..(kk + 1) * n];
            for (j, gv) in grow.iter_mut().enumerate() {
                *gv += x0 * d0[j] + x1 * d1[j] + x2 * d2[j] + x3 * d3[j];
            }
        }
        i += UNROLL;
    }
    while i < m {
        let arow = &a[i * k..(i + 1) * k];
        let drow = &dout[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let grow = &mut gw[kk * n..(kk + 1) * n];
            for (gv, &dv) in grow.iter_mut().zip(drow.iter()) {
                *gv += av * dv;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mics_minidl::kernels::reference;

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

    /// The parent's drift bound: `tol` relative to the larger magnitude,
    /// floored at 1.
    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "{what}[{i}]: blocked {x} vs reference {y}"
            );
        }
    }

    /// Shapes that hit the unrolled body and every remainder path, plus
    /// reductions that cross the KC tile boundary.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (6, 300, 5),
        (5, 7, 9),
        (8, 257, 16),
        (5, 257, 9),
        (12, 64, 20),
    ];

    /// The blocked kernels are the perf baseline, so they must stay on the
    /// scalar drift oracle, not just be fast.
    #[test]
    fn blocked_matmul_stays_on_the_drift_oracle() {
        for &(m, k, n) in SHAPES {
            let (a, b) = (buf(m * k, 1), buf(k * n, 2));
            assert_close(
                &matmul(&a, &b, m, k, n),
                &reference::matmul(&a, &b, m, k, n),
                1e-5,
                &format!("matmul {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn blocked_matmul_bt_stays_on_the_drift_oracle() {
        for &(m, n, k) in SHAPES {
            let (d, b) = (buf(m * n, 3), buf(k * n, 4));
            assert_close(
                &matmul_bt(&d, &b, m, n, k),
                &reference::matmul_bt(&d, &b, m, n, k),
                1e-5,
                &format!("matmul_bt {m}x{n}x{k}"),
            );
        }
    }
}
