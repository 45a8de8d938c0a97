//! Concrete narrow floating-point types.
//!
//! Each type wraps a raw bit pattern and round-trips through `f64` for
//! arithmetic; conversions use round-to-nearest-even via
//! [`crate::format::RoundedEncode`].

use crate::format::{FloatSpec, RoundedEncode};
use core::fmt;

/// Common behaviour of every soft-float type in this crate.
pub trait SoftFloat: Copy + Clone + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Format description (exponent/mantissa widths, special rules).
    const SPEC: FloatSpec;
    /// Short PTX-style name (`f16`, `bf16`, `tf32`, `e4m3`, `e5m2`).
    const NAME: &'static str;

    /// Construct from raw bits (low `SPEC.total_bits()` bits significant).
    fn from_bits(bits: u64) -> Self;
    /// Raw bit pattern.
    fn to_bits(self) -> u64;

    /// Round `x` into the format (RTNE; FP8-E4M3 saturates).
    fn from_f64(x: f64) -> Self {
        Self::from_bits(Self::SPEC.encode(x))
    }
    /// Exact value as `f64`.
    fn to_f64(self) -> f64 {
        Self::SPEC.decode(self.to_bits())
    }
    /// Round an `f32` into the format.
    fn from_f32(x: f32) -> Self {
        Self::from_f64(x as f64)
    }
    /// Value as `f32` (exact for every format here).
    fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }
    /// Positive zero.
    fn zero() -> Self {
        Self::from_bits(0)
    }
    /// One.
    fn one() -> Self {
        Self::from_f64(1.0)
    }
    /// `true` if the value is NaN.
    fn is_nan(self) -> bool {
        self.to_f64().is_nan()
    }
    /// Largest finite value of the format.
    fn max_finite() -> f64 {
        Self::SPEC.max_finite()
    }
    /// Storage width in bits as laid out in memory (TF32 occupies 32 bits).
    fn storage_bits() -> u32 {
        Self::SPEC.total_bits().next_power_of_two().max(8)
    }
}

macro_rules! soft_float {
    ($(#[$doc:meta])* $name:ident, $store:ty, $exp:expr, $man:expr, $finite:expr, $pname:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub $store);

        impl SoftFloat for $name {
            const SPEC: FloatSpec = FloatSpec {
                exp_bits: $exp,
                man_bits: $man,
                finite_only: $finite,
            };
            const NAME: &'static str = $pname;

            #[inline]
            fn from_bits(bits: u64) -> Self {
                $name(bits as $store)
            }
            #[inline]
            fn to_bits(self) -> u64 {
                self.0 as u64
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", $pname, self.to_f64())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }

        impl From<f32> for $name {
            fn from(x: f32) -> Self {
                <$name as SoftFloat>::from_f32(x)
            }
        }

        impl From<$name> for f32 {
            fn from(x: $name) -> f32 {
                x.to_f32()
            }
        }
    };
}

soft_float!(
    /// IEEE-754 binary16 (half precision): 1-5-10.
    F16, u16, 5, 10, false, "f16"
);
soft_float!(
    /// bfloat16: 1-8-7 — FP32's exponent range with a truncated mantissa.
    Bf16, u16, 8, 7, false, "bf16"
);
soft_float!(
    /// TF32: 1-8-10 — the 19-bit tensor-core format stored in 32 bits.
    Tf32, u32, 8, 10, false, "tf32"
);
soft_float!(
    /// FP8 E4M3 (OCP): 1-4-3, no infinity, saturating, max finite 448.
    Fp8E4M3, u8, 4, 3, true, "e4m3"
);
soft_float!(
    /// FP8 E5M2: 1-5-2, IEEE-style with infinities, max finite 57344.
    Fp8E5M2, u8, 5, 2, false, "e5m2"
);

impl core::ops::Add for F16 {
    type Output = F16;
    /// Round-to-nearest-even addition in FP16 (used by the FP16-accumulate
    /// tensor-core path).
    fn add(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() + rhs.to_f64())
    }
}

impl core::ops::Mul for F16 {
    type Output = F16;
    /// Exact product rounded back into FP16.
    fn mul(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() * rhs.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_widths() {
        assert_eq!(F16::NAME, "f16");
        assert_eq!(F16::storage_bits(), 16);
        assert_eq!(Bf16::storage_bits(), 16);
        assert_eq!(Tf32::SPEC.total_bits(), 19);
        assert_eq!(Tf32::storage_bits(), 32);
        assert_eq!(Fp8E4M3::storage_bits(), 8);
        assert_eq!(Fp8E5M2::storage_bits(), 8);
    }

    #[test]
    fn bf16_truncates_like_f32_high_half() {
        // bf16(x) should be close to f32 with 7 mantissa bits; pi ->
        // 3.140625 exactly.
        let x = Bf16::from_f32(std::f32::consts::PI);
        assert_eq!(x.to_f64(), 3.140625);
        // Exponent range matches f32: 1e38 survives.
        assert!(Bf16::from_f32(1.0e38).to_f64().is_finite());
        assert!(F16::from_f32(1.0e38).to_f64().is_infinite());
    }

    #[test]
    fn tf32_precision() {
        // TF32 keeps 10 mantissa bits: 1 + 2^-10 is representable,
        // 1 + 2^-11 rounds to 1.
        assert_eq!(Tf32::from_f64(1.0 + 0.0009765625).to_f64(), 1.0009765625);
        assert_eq!(Tf32::from_f64(1.0 + 0.00048828125).to_f64(), 1.0);
    }

    #[test]
    fn fp8_extremes() {
        assert_eq!(Fp8E4M3::max_finite(), 448.0);
        assert_eq!(Fp8E5M2::max_finite(), 57344.0);
        assert_eq!(Fp8E4M3::from_f64(500.0).to_f64(), 448.0);
        assert!(Fp8E5M2::from_f64(70000.0).to_f64().is_infinite());
    }

    #[test]
    fn display_and_from_into() {
        let h: F16 = 1.5f32.into();
        let back: f32 = h.into();
        assert_eq!(back, 1.5);
        assert_eq!(format!("{h}"), "1.5");
    }

    #[test]
    fn f16_add_rounds() {
        // 2048 + 1 is not representable in FP16 (ulp at 2048 is 2).
        let a = F16::from_f64(2048.0);
        let b = F16::from_f64(1.0);
        assert_eq!((a + b).to_f64(), 2048.0);
        let c = F16::from_f64(3.0);
        assert_eq!((a + c).to_f64(), 2052.0); // ties-to-even goes up to 2052
    }
}
