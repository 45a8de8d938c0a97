//! Element types and GPU architectures.

use core::fmt;

/// The three GPU architecture generations compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// Compute capability 8.0 (A100) — 3rd-generation tensor cores.
    Ampere,
    /// Compute capability 8.9 (RTX 4090) — 4th-generation tensor cores,
    /// FP8 capable but no `wgmma`, no DPX hardware, no clusters.
    Ada,
    /// Compute capability 9.0 (H800) — 4th-generation tensor cores with
    /// `wgmma`, DPX hardware, TMA and distributed shared memory.
    Hopper,
}

impl Arch {
    /// Compute-capability string as reported by the driver.
    pub fn compute_capability(&self) -> &'static str {
        match self {
            Arch::Ampere => "8.0",
            Arch::Ada => "8.9",
            Arch::Hopper => "9.0",
        }
    }

    /// Hardware DPX units (Hopper only; others emulate in software).
    pub fn has_dpx_hardware(&self) -> bool {
        matches!(self, Arch::Hopper)
    }

    /// Thread-block clusters + distributed shared memory.
    pub fn has_clusters(&self) -> bool {
        matches!(self, Arch::Hopper)
    }

    /// Warp-group `wgmma` instructions.
    pub fn has_wgmma(&self) -> bool {
        matches!(self, Arch::Hopper)
    }

    /// Tensor Memory Accelerator bulk-copy engine.
    pub fn has_tma(&self) -> bool {
        matches!(self, Arch::Hopper)
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arch::Ampere => write!(f, "Ampere"),
            Arch::Ada => write!(f, "Ada"),
            Arch::Hopper => write!(f, "Hopper"),
        }
    }
}

/// Tensor-core element types (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE binary16.
    F16,
    /// bfloat16.
    BF16,
    /// TF32 (19-bit, stored as 32).
    TF32,
    /// IEEE binary32.
    F32,
    /// IEEE binary64.
    F64,
    /// FP8 E4M3.
    E4M3,
    /// FP8 E5M2.
    E5M2,
    /// Signed 8-bit integer.
    S8,
    /// Signed 4-bit integer.
    S4,
    /// 1-bit binary (AND·POPC tensor cores).
    B1,
    /// Signed 32-bit integer (accumulators).
    S32,
}

impl DType {
    /// Storage width in bits as laid out in memory.
    pub fn bits(&self) -> u32 {
        match self {
            DType::B1 => 1,
            DType::S4 => 4,
            DType::E4M3 | DType::E5M2 | DType::S8 => 8,
            DType::F16 | DType::BF16 => 16,
            DType::TF32 | DType::F32 | DType::S32 => 32,
            DType::F64 => 64,
        }
    }

    /// `true` for floating-point element types.
    pub fn is_float(&self) -> bool {
        matches!(
            self,
            DType::F16
                | DType::BF16
                | DType::TF32
                | DType::F32
                | DType::F64
                | DType::E4M3
                | DType::E5M2
        )
    }

    /// `true` for the two FP8 variants.
    pub fn is_fp8(&self) -> bool {
        matches!(self, DType::E4M3 | DType::E5M2)
    }

    /// PTX type suffix (`f16`, `e4m3`, `s8`, …).
    pub fn ptx_name(&self) -> &'static str {
        match self {
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::TF32 => "tf32",
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::E4M3 => "e4m3",
            DType::E5M2 => "e5m2",
            DType::S8 => "s8",
            DType::S4 => "s4",
            DType::B1 => "b1",
            DType::S32 => "s32",
        }
    }

    /// Whether `arch`'s tensor cores accept this type as an A/B operand at
    /// all (any programming interface).  Ada adds FP8 over Ampere; Hopper
    /// drops INT4 tensor-core support (Table I/VI).
    pub fn tc_supported_on(&self, arch: Arch) -> bool {
        match self {
            DType::E4M3 | DType::E5M2 => matches!(arch, Arch::Ada | Arch::Hopper),
            DType::S4 => matches!(arch, Arch::Ampere | Arch::Ada),
            DType::F16 | DType::BF16 | DType::TF32 | DType::F64 | DType::S8 | DType::B1 => true,
            DType::F32 | DType::S32 => false, // accumulator-only types
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.ptx_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(DType::B1.bits(), 1);
        assert_eq!(DType::S4.bits(), 4);
        assert_eq!(DType::E4M3.bits(), 8);
        assert_eq!(DType::F16.bits(), 16);
        assert_eq!(DType::TF32.bits(), 32);
        assert_eq!(DType::F64.bits(), 64);
    }

    #[test]
    fn arch_feature_matrix() {
        assert!(Arch::Hopper.has_dpx_hardware());
        assert!(!Arch::Ada.has_dpx_hardware());
        assert!(!Arch::Ampere.has_wgmma());
        assert!(Arch::Hopper.has_clusters());
        assert!(!Arch::Ada.has_clusters());
        assert!(Arch::Hopper.has_tma());
        assert_eq!(Arch::Ada.compute_capability(), "8.9");
    }

    #[test]
    fn fp8_support_matrix() {
        assert!(!DType::E4M3.tc_supported_on(Arch::Ampere));
        assert!(DType::E4M3.tc_supported_on(Arch::Ada));
        assert!(DType::E5M2.tc_supported_on(Arch::Hopper));
        // INT4 dropped on Hopper tensor cores.
        assert!(DType::S4.tc_supported_on(Arch::Ampere));
        assert!(!DType::S4.tc_supported_on(Arch::Hopper));
    }
}
