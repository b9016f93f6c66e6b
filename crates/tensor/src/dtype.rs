//! The half-precision cast of the mixed-precision training stack, which
//! keeps fp16 parameters/gradients and fp32 optimizer states.

/// Lossy conversion of an `f32` to IEEE 754 binary16, returned as its bit
/// pattern. Used by the mini-DL stack to emulate mixed-precision casts
/// deterministically (round-to-nearest-even).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN
        let mantissa = if frac != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | mantissa;
    }
    // Re-bias from 127 to 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal half.
        let half_exp = (unbiased + 15) as u32;
        let mut half_frac = frac >> 13;
        // Round to nearest even on the dropped 13 bits.
        let round_bits = frac & 0x1fff;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_frac & 1) == 1) {
            half_frac += 1;
            if half_frac == 0x400 {
                // Mantissa overflowed into the exponent.
                return sign | (((half_exp + 1) as u16) << 10).min(0x7c00);
            }
        }
        sign | ((half_exp as u16) << 10) | half_frac as u16
    } else if unbiased >= -24 {
        // Subnormal half.
        let shift = (-14 - unbiased) as u32;
        let full_frac = frac | 0x0080_0000; // implicit leading 1
        let shifted = full_frac >> (13 + shift);
        let round_mask = 1u32 << (12 + shift);
        let rem = full_frac & ((round_mask << 1) - 1);
        let mut half_frac = shifted;
        if rem > round_mask || (rem == round_mask && (half_frac & 1) == 1) {
            half_frac += 1;
        }
        sign | half_frac as u16
    } else {
        sign // underflow → signed zero
    }
}

/// Exact conversion of an IEEE 754 binary16 bit pattern to `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x3ff) as u32;
    let bits = if exp == 0x1f {
        // Inf / NaN
        sign | 0x7f80_0000 | (frac << 13)
    } else if exp == 0 {
        if frac == 0 {
            sign // zero
        } else {
            // Subnormal: value = frac × 2⁻²⁴. Normalize the mantissa.
            let mut e = -14i32;
            let mut f = frac;
            while f & 0x400 == 0 {
                f <<= 1;
                e -= 1;
            }
            f &= 0x3ff;
            let exp32 = (e + 127) as u32;
            sign | (exp32 << 23) | (f << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(bits)
}

/// Round-trip an `f32` through half precision (the core mixed-precision
/// quantization step).
pub fn quantize_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_halves_roundtrip() {
        for x in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.000061035156] {
            assert_eq!(quantize_f16(x), x, "{x} should be exactly representable");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(quantize_f16(1e6).is_infinite());
        assert!(quantize_f16(-1e6).is_infinite());
        assert!(quantize_f16(-1e6) < 0.0);
    }

    #[test]
    fn tiny_values_flush_to_zero() {
        assert_eq!(quantize_f16(1e-10), 0.0);
        assert_eq!(quantize_f16(-1e-10), 0.0);
        assert!(quantize_f16(-1e-10).is_sign_negative());
    }

    #[test]
    fn nan_stays_nan() {
        assert!(quantize_f16(f32::NAN).is_nan());
    }

    #[test]
    fn subnormals_roundtrip_through_bits() {
        // Smallest positive subnormal half = 2^-24.
        let tiny = f16_bits_to_f32(1);
        assert_eq!(tiny, 2.0f32.powi(-24));
        assert_eq!(f32_to_f16_bits(tiny), 1);
    }

    #[test]
    fn rounding_is_to_nearest() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half;
        // round-to-even keeps 1.0.
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(quantize_f16(x), 1.0);
        // Slightly above the midpoint rounds up.
        let y = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-13);
        assert_eq!(quantize_f16(y), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn quantization_error_bounded() {
        let mut x = -8.0f32;
        while x < 8.0 {
            let q = quantize_f16(x);
            let rel = if x != 0.0 { ((q - x) / x).abs() } else { q.abs() };
            assert!(rel <= 1.0 / 1024.0, "x={x} q={q} rel={rel}");
            x += 0.0137;
        }
    }
}
