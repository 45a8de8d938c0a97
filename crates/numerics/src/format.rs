//! Generic binary floating-point format machinery.
//!
//! A [`FloatSpec`] describes a format by its exponent width, mantissa width
//! and special-value conventions.  [`RoundedEncode`] converts an `f64` into
//! the nearest representable value of the format using IEEE-754
//! round-to-nearest-even, handling subnormals, overflow (to infinity or
//! saturated-finite) and the OCP FP8-E4M3 rules (no infinity, single NaN
//! pattern).
//!
//! `f64` is an exact carrier for every format considered here: the widest
//! mantissa we encode is 10 bits (FP16/TF32) and the widest exponent is
//! 8 bits (BF16/TF32), both strictly narrower than `f64`'s 52/11.

/// Static description of a binary floating-point format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloatSpec {
    /// Number of exponent bits.
    pub exp_bits: u32,
    /// Number of explicit mantissa (fraction) bits.
    pub man_bits: u32,
    /// `true` for formats with no infinity whose overflow saturates to the
    /// maximum finite magnitude and whose all-ones pattern is NaN
    /// (OCP FP8-E4M3).
    pub finite_only: bool,
}

impl FloatSpec {
    /// IEEE exponent bias: `2^(E-1) - 1`.
    #[inline]
    pub const fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Total storage width in bits (including the sign).
    #[inline]
    pub const fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Largest finite value representable in the format.
    pub fn max_finite(&self) -> f64 {
        let bits = if self.finite_only {
            // All-ones exponent with mantissa just below the NaN pattern.
            self.finite_only_max_bits()
        } else {
            // Max exponent field is reserved for inf/NaN.
            let e = (1u64 << self.exp_bits) - 2;
            let m = (1u64 << self.man_bits) - 1;
            (e << self.man_bits) | m
        };
        self.decode(bits)
    }

    fn finite_only_max_bits(&self) -> u64 {
        // E4M3: S.1111.110 is the largest finite (448); S.1111.111 is NaN.
        let e = (1u64 << self.exp_bits) - 1;
        let m = (1u64 << self.man_bits) - 2;
        (e << self.man_bits) | m
    }

    /// Smallest positive normal value.
    pub fn min_positive_normal(&self) -> f64 {
        libm_exp2(1 - self.bias())
    }

    /// Smallest positive subnormal value.
    pub fn min_positive_subnormal(&self) -> f64 {
        libm_exp2(1 - self.bias() - self.man_bits as i32)
    }

    /// Decode raw `bits` (right-aligned, `total_bits` wide) to `f64`.
    ///
    /// Exact: every representable value of the formats used in this crate
    /// fits in `f64` without rounding.
    pub fn decode(&self, bits: u64) -> f64 {
        let man_mask = (1u64 << self.man_bits) - 1;
        let exp_mask = (1u64 << self.exp_bits) - 1;
        let sign = (bits >> (self.exp_bits + self.man_bits)) & 1;
        let exp = (bits >> self.man_bits) & exp_mask;
        let man = bits & man_mask;
        let s = if sign == 1 { -1.0 } else { 1.0 };

        if exp == exp_mask {
            if self.finite_only {
                if man == man_mask {
                    return f64::NAN;
                }
                // Fall through: top exponent is an ordinary binade.
            } else if man == 0 {
                return s * f64::INFINITY;
            } else {
                return f64::NAN;
            }
        }
        if exp == 0 {
            // Subnormal (or zero).
            return s * man as f64 * libm_exp2(1 - self.bias() - self.man_bits as i32);
        }
        let frac = 1.0 + man as f64 * libm_exp2(-(self.man_bits as i32));
        s * frac * libm_exp2(exp as i32 - self.bias())
    }
}

/// `2^n` computed exactly via `f64` bit manipulation (no libm dependency).
#[inline]
fn libm_exp2(n: i32) -> f64 {
    if n >= -1022 {
        f64::from_bits(((n + 1023) as u64) << 52)
    } else {
        // Subnormal f64 range; irrelevant for our formats but kept correct.
        f64::from_bits(1u64 << (52 + n + 1022).max(0) as u32)
    }
}

/// Round-to-nearest-even conversion from `f64` into a [`FloatSpec`].
pub trait RoundedEncode {
    /// Encode `x` into the format, returning the raw bit pattern.
    fn encode(&self, x: f64) -> u64;
}

impl RoundedEncode for FloatSpec {
    fn encode(&self, x: f64) -> u64 {
        let man_mask = (1u64 << self.man_bits) - 1;
        let exp_mask = (1u64 << self.exp_bits) - 1;
        let sign_bit = 1u64 << (self.exp_bits + self.man_bits);

        if x.is_nan() {
            return if self.finite_only {
                (exp_mask << self.man_bits) | man_mask // S=0 canonical NaN
            } else {
                (exp_mask << self.man_bits) | (1u64 << (self.man_bits - 1))
            };
        }
        let sign = if x.is_sign_negative() { sign_bit } else { 0 };
        let ax = x.abs();
        if ax == 0.0 {
            return sign;
        }
        if ax.is_infinite() {
            return if self.finite_only {
                sign | self.finite_only_max_bits()
            } else {
                sign | (exp_mask << self.man_bits)
            };
        }

        // Deconstruct the f64.
        let xb = ax.to_bits();
        let mut e = ((xb >> 52) & 0x7ff) as i32 - 1023;
        let mut frac = xb & ((1u64 << 52) - 1);
        if ((xb >> 52) & 0x7ff) == 0 {
            // f64 subnormal — normalise (vanishingly small for our formats,
            // always rounds to zero, but stay exact anyway).
            let lz = frac.leading_zeros() as i32 - 11;
            frac <<= lz + 1;
            frac &= (1u64 << 52) - 1;
            e = -1022 - (lz + 1);
        }

        let bias = self.bias();
        let max_normal_exp = if self.finite_only {
            exp_mask as i32 - bias
        } else {
            exp_mask as i32 - 1 - bias
        };
        let min_normal_exp = 1 - bias;

        // Target significand: implicit 1 followed by man_bits fraction bits,
        // plus guard/sticky handling via the residue.
        let (mut kept, rest_sticky, result_exp): (u64, bool, i32) = if e >= min_normal_exp {
            let shift = 52 - self.man_bits;
            let kept = frac >> shift;
            let residue = frac & ((1u64 << shift) - 1);
            let half = 1u64 << (shift - 1);
            let rounded = round_rtne(kept, residue, half);
            (rounded, false, e)
        } else {
            // Subnormal in the target format: value = frac64 * 2^(e-52)
            // quantised in units of 2^(min_normal_exp - man_bits).
            let ulp_exp = min_normal_exp - self.man_bits as i32;
            // shift amount so that kept = floor(value / 2^ulp_exp)
            let total_shift = (ulp_exp - e) + 52; // >= 0 when subnormal region
            let sig = frac | (1u64 << 52); // include implicit one
            if total_shift > 63 {
                // Entire value below half an ulp of the smallest subnormal?
                // Compare against half-ulp exactly.
                let half_ulp = libm_exp2(ulp_exp - 1);
                if ax <= half_ulp {
                    return sign; // ties-to-even: 0 is even
                }
                return sign | 1;
            }
            let kept = sig >> total_shift;
            let residue = sig & ((1u64 << total_shift) - 1);
            let half = if total_shift == 0 {
                0
            } else {
                1u64 << (total_shift - 1)
            };
            let rounded = round_rtne(kept, residue, half);
            // rounded may carry into the normal range; handled below by the
            // generic carry logic using exp field 0.
            let exp_field0 = min_normal_exp - 1; // marker
            (rounded, false, exp_field0)
        };
        let _ = rest_sticky;

        if result_exp == min_normal_exp - 1 {
            // Subnormal path: `kept` is the subnormal mantissa, possibly
            // carried into 1.0 * 2^min_normal_exp (kept == 2^man_bits).
            if kept > man_mask {
                return sign | (1u64 << self.man_bits); // smallest normal
            }
            return sign | kept;
        }

        // Normal path: `kept` is the fraction field (hidden bit excluded);
        // rounding may carry it to 2^man_bits, which bumps the exponent and
        // zeroes the fraction.
        let mut exp = result_exp;
        if kept > man_mask {
            kept = 0;
            exp += 1;
        }
        if exp > max_normal_exp {
            return if self.finite_only {
                sign | self.finite_only_max_bits()
            } else {
                sign | (exp_mask << self.man_bits)
            };
        }
        if self.finite_only && exp == max_normal_exp {
            // Top binade exists but its all-ones mantissa is NaN; saturate.
            let enc = sign | (((exp + bias) as u64) << self.man_bits) | (kept & man_mask);
            if (enc & !sign_bit) == ((exp_mask << self.man_bits) | man_mask) {
                return sign | self.finite_only_max_bits();
            }
            return enc;
        }
        sign | (((exp + bias) as u64) << self.man_bits) | (kept & man_mask)
    }
}

/// Round `kept` (a truncated significand) given the `residue` below it,
/// using round-to-nearest, ties-to-even.
#[inline]
fn round_rtne(kept: u64, residue: u64, half: u64) -> u64 {
    if residue > half || (residue == half && kept & 1 == 1) {
        kept + 1
    } else {
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP16: FloatSpec = FloatSpec {
        exp_bits: 5,
        man_bits: 10,
        finite_only: false,
    };
    const E4M3: FloatSpec = FloatSpec {
        exp_bits: 4,
        man_bits: 3,
        finite_only: true,
    };
    const E5M2: FloatSpec = FloatSpec {
        exp_bits: 5,
        man_bits: 2,
        finite_only: false,
    };

    /// Brute-force nearest-representable reference (ties-to-even by
    /// preferring the encoding with an even mantissa LSB).
    fn nearest_ref(spec: &FloatSpec, x: f64) -> f64 {
        let n = 1u64 << spec.total_bits();
        let mut best = f64::INFINITY;
        let mut best_d = f64::INFINITY;
        for bits in 0..n {
            let v = spec.decode(bits);
            if v.is_nan() || v.is_infinite() {
                continue;
            }
            let d = (v - x).abs();
            if d < best_d || (d == best_d && ((bits & 1) == 0)) {
                // Tie: prefer even mantissa; also prefer +0 over -0 ordering
                // doesn't matter for magnitude comparisons.
                if d == best_d && v == best {
                    continue;
                }
                best_d = d;
                best = v;
            }
        }
        best
    }

    #[test]
    fn fp16_known_values() {
        assert_eq!(FP16.encode(1.0), 0x3c00);
        assert_eq!(FP16.encode(-2.0), 0xc000);
        assert_eq!(FP16.encode(65504.0), 0x7bff); // max finite
        assert_eq!(FP16.encode(65520.0), 0x7c00); // rounds to +inf
        assert_eq!(FP16.encode(0.0), 0x0000);
        assert!(FP16.decode(FP16.encode(f64::NAN)).is_nan());
        // Smallest subnormal: 2^-24.
        assert_eq!(FP16.encode(5.960464477539063e-8), 0x0001);
        // Half the smallest subnormal ties to even (zero).
        assert_eq!(FP16.encode(2.9802322387695312e-8), 0x0000);
    }

    #[test]
    fn fp16_round_half_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to 1.0.
        let x = 1.0 + f64::from_bits(((1023 - 11) as u64) << 52);
        assert_eq!(FP16.encode(x), 0x3c00);
        // 1 + 3*2^-11 halfway between 1+2^-10 and 1+2^-9: ties to even (0x3c02).
        let x = 1.0 + 3.0 * f64::from_bits(((1023 - 11) as u64) << 52);
        assert_eq!(FP16.encode(x), 0x3c02);
    }

    #[test]
    fn e4m3_ocp_rules() {
        assert_eq!(E4M3.max_finite(), 448.0);
        assert_eq!(E4M3.encode(448.0), 0x7e);
        assert_eq!(E4M3.encode(1.0e9), 0x7e); // saturate, no inf
        assert_eq!(E4M3.encode(f64::INFINITY), 0x7e);
        assert_eq!(E4M3.encode(f64::NEG_INFINITY), 0xfe);
        assert!(E4M3.decode(0x7f).is_nan());
        assert!(E4M3.decode(0xff).is_nan());
        assert!(E4M3.decode(E4M3.encode(f64::NAN)).is_nan());
        // 464 is the midpoint of [448, 480-does-not-exist]; everything
        // above max finite saturates.
        assert_eq!(E4M3.decode(E4M3.encode(1000.0)), 448.0);
    }

    #[test]
    fn e5m2_has_infinity() {
        assert_eq!(E5M2.max_finite(), 57344.0);
        assert!(E5M2.decode(E5M2.encode(1.0e9)).is_infinite());
        assert_eq!(E5M2.encode(1.0), 0x3c);
    }

    #[test]
    fn exhaustive_fp8_roundtrip() {
        for spec in [E4M3, E5M2] {
            for bits in 0..=255u64 {
                let v = spec.decode(bits);
                if v.is_nan() {
                    assert!(spec.decode(spec.encode(v)).is_nan());
                    continue;
                }
                if v.is_infinite() {
                    continue;
                }
                let re = spec.encode(v);
                // -0 and +0 both decode to 0.0; accept either sign.
                assert_eq!(spec.decode(re), v, "bits={bits:#x} spec={spec:?}");
            }
        }
    }

    #[test]
    fn exhaustive_fp16_roundtrip() {
        for bits in 0..=0xffffu64 {
            let v = FP16.decode(bits);
            if v.is_nan() || v.is_infinite() {
                continue;
            }
            assert_eq!(FP16.decode(FP16.encode(v)), v, "bits={bits:#x}");
        }
    }

    #[test]
    fn encode_matches_bruteforce_nearest_fp8() {
        // Dense scan of interesting magnitudes: encode() must pick the
        // nearest representable (ties handled by RTNE, which the reference
        // approximates by even-mantissa preference).
        for spec in [E4M3, E5M2] {
            let mut x = -600.0f64;
            while x <= 600.0 {
                let got = spec.decode(spec.encode(x));
                let want = nearest_ref(&spec, x);
                if got.is_infinite() {
                    // Reference skips infinities; accept overflow.
                    assert!(x.abs() > spec.max_finite());
                } else {
                    assert!(
                        (got - x).abs() <= (want - x).abs() + 1e-12,
                        "x={x} got={got} want={want} spec={spec:?}"
                    );
                }
                x += 0.37;
            }
        }
    }

    #[test]
    fn subnormal_span() {
        // FP16 subnormals: 2^-24 .. (1023/1024)*2^-14.
        assert_eq!(FP16.min_positive_subnormal(), 5.960464477539063e-8);
        assert_eq!(FP16.min_positive_normal(), 6.103515625e-5);
        let sub = 3.0 * FP16.min_positive_subnormal();
        assert_eq!(FP16.decode(FP16.encode(sub)), sub);
    }
}
