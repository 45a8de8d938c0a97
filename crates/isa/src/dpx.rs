//! The DPX dynamic-programming instruction family.
//!
//! CUDA 12 exposes ~90 `__v…` device functions combining additions with
//! min/max (and optional ReLU clamping) over `s32`, `u32` and paired
//! `s16x2`/`u16x2` operands.  On Hopper they are hardware-accelerated
//! (`VIMNMX`/`VIADDMNMX` SASS); on Ampere and Ada the CUDA headers emulate
//! them with ordinary integer instructions.  We model the representative
//! subset the paper measures in Figs. 6–7.

use crate::dtype::Arch;
use core::fmt;

/// Representative DPX functions (the set plotted in the paper's Figs. 6–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DpxFunc {
    /// `max(a+b, c)` over s32 — `__viaddmax_s32`.
    ViAddMaxS32,
    /// `min(a+b, c)` over s32 — `__viaddmin_s32`.
    ViAddMinS32,
    /// `max(max(a,b),c)` over s32 — `__vimax3_s32`.
    ViMax3S32,
    /// `min(min(a,b),c)` over s32 — `__vimin3_s32`.
    ViMin3S32,
    /// `max(a,b)` with a predicate output — `__vibmax_s32`.
    ViBMaxS32,
    /// `max(max(a+b, c), 0)` over s32 — `__viaddmax_s32_relu`.
    ViAddMaxS32Relu,
    /// `max(max(max(a,b),c),0)` over s32 — `__vimax3_s32_relu`.
    ViMax3S32Relu,
    /// `max(a+b, c)` per s16 lane pair — `__viaddmax_s16x2`.
    ViAddMaxS16x2,
    /// `max(max(a,b),c)` per s16 lane pair — `__vimax3_s16x2`.
    ViMax3S16x2,
    /// `max(max(a+b,c),0)` per s16 lane pair — `__viaddmax_s16x2_relu`.
    ViAddMaxS16x2Relu,
    /// `max(max(max(a,b),c),0)` per s16 lane pair — `__vimax3_s16x2_relu`.
    ViMax3S16x2Relu,
    /// `max(a+b, c)` over u32 — `__viaddmax_u32`.
    ViAddMaxU32,
    /// `min(a+b, c)` over u32 — `__viaddmin_u32`.
    ViAddMinU32,
    /// `max(max(a,b),c)` over u32 — `__vimax3_u32`.
    ViMax3U32,
    /// `max(a+b, c)` per u16 lane pair — `__viaddmax_u16x2`.
    ViAddMaxU16x2,
    /// `max(max(a,b),c)` per u16 lane pair — `__vimax3_u16x2`.
    ViMax3U16x2,
}

/// All modelled DPX functions, in the paper's plotting order (signed set
/// first — the ones Figs. 6–7 plot — then the unsigned extensions).
pub const ALL_DPX: [DpxFunc; 16] = [
    DpxFunc::ViAddMaxS32,
    DpxFunc::ViAddMinS32,
    DpxFunc::ViMax3S32,
    DpxFunc::ViMin3S32,
    DpxFunc::ViBMaxS32,
    DpxFunc::ViAddMaxS32Relu,
    DpxFunc::ViMax3S32Relu,
    DpxFunc::ViAddMaxS16x2,
    DpxFunc::ViMax3S16x2,
    DpxFunc::ViAddMaxS16x2Relu,
    DpxFunc::ViMax3S16x2Relu,
    DpxFunc::ViAddMaxU32,
    DpxFunc::ViAddMinU32,
    DpxFunc::ViMax3U32,
    DpxFunc::ViAddMaxU16x2,
    DpxFunc::ViMax3U16x2,
];

impl DpxFunc {
    /// CUDA device-function name.
    pub fn cuda_name(&self) -> &'static str {
        match self {
            DpxFunc::ViAddMaxS32 => "__viaddmax_s32",
            DpxFunc::ViAddMinS32 => "__viaddmin_s32",
            DpxFunc::ViMax3S32 => "__vimax3_s32",
            DpxFunc::ViMin3S32 => "__vimin3_s32",
            DpxFunc::ViBMaxS32 => "__vibmax_s32",
            DpxFunc::ViAddMaxS32Relu => "__viaddmax_s32_relu",
            DpxFunc::ViMax3S32Relu => "__vimax3_s32_relu",
            DpxFunc::ViAddMaxS16x2 => "__viaddmax_s16x2",
            DpxFunc::ViMax3S16x2 => "__vimax3_s16x2",
            DpxFunc::ViAddMaxS16x2Relu => "__viaddmax_s16x2_relu",
            DpxFunc::ViMax3S16x2Relu => "__vimax3_s16x2_relu",
            DpxFunc::ViAddMaxU32 => "__viaddmax_u32",
            DpxFunc::ViAddMinU32 => "__viaddmin_u32",
            DpxFunc::ViMax3U32 => "__vimax3_u32",
            DpxFunc::ViAddMaxU16x2 => "__viaddmax_u16x2",
            DpxFunc::ViMax3U16x2 => "__vimax3_u16x2",
        }
    }

    /// `true` for the unsigned variants.
    #[inline]
    pub fn is_unsigned(&self) -> bool {
        matches!(
            self,
            DpxFunc::ViAddMaxU32
                | DpxFunc::ViAddMinU32
                | DpxFunc::ViMax3U32
                | DpxFunc::ViAddMaxU16x2
                | DpxFunc::ViMax3U16x2
        )
    }

    /// `true` if the function clamps its result at zero.
    #[inline]
    pub fn has_relu(&self) -> bool {
        matches!(
            self,
            DpxFunc::ViAddMaxS32Relu
                | DpxFunc::ViMax3S32Relu
                | DpxFunc::ViAddMaxS16x2Relu
                | DpxFunc::ViMax3S16x2Relu
        )
    }

    /// `true` for the packed 16-bit-pair variants.
    #[inline]
    pub fn is_16x2(&self) -> bool {
        matches!(
            self,
            DpxFunc::ViAddMaxS16x2
                | DpxFunc::ViMax3S16x2
                | DpxFunc::ViAddMaxS16x2Relu
                | DpxFunc::ViMax3S16x2Relu
                | DpxFunc::ViAddMaxU16x2
                | DpxFunc::ViMax3U16x2
        )
    }

    /// Functional semantics: evaluate on three 32-bit operands (16x2
    /// variants operate per 16-bit half).
    #[inline]
    pub fn eval(&self, a: u32, b: u32, c: u32) -> u32 {
        if self.is_unsigned() {
            return if self.is_16x2() {
                let lo = self.eval_u32_part(a & 0xffff, b & 0xffff, c & 0xffff) & 0xffff;
                let hi = self.eval_u32_part(a >> 16, b >> 16, c >> 16) & 0xffff;
                (hi << 16) | lo
            } else {
                self.eval_u32_part(a, b, c)
            };
        }
        if self.is_16x2() {
            let lo = self.eval_s32_part(
                (a as i32) << 16 >> 16,
                (b as i32) << 16 >> 16,
                (c as i32) << 16 >> 16,
            ) as u32
                & 0xffff;
            let hi = self.eval_s32_part((a as i32) >> 16, (b as i32) >> 16, (c as i32) >> 16)
                as u32
                & 0xffff;
            (hi << 16) | lo
        } else {
            self.eval_s32_part(a as i32, b as i32, c as i32) as u32
        }
    }

    #[inline]
    fn eval_u32_part(&self, a: u32, b: u32, c: u32) -> u32 {
        match self {
            DpxFunc::ViAddMaxU32 | DpxFunc::ViAddMaxU16x2 => a.wrapping_add(b).max(c),
            DpxFunc::ViAddMinU32 => a.wrapping_add(b).min(c),
            DpxFunc::ViMax3U32 | DpxFunc::ViMax3U16x2 => a.max(b).max(c),
            _ => unreachable!("signed functions route through eval_s32_part"),
        }
    }

    #[inline]
    fn eval_s32_part(&self, a: i32, b: i32, c: i32) -> i32 {
        let base = match self {
            DpxFunc::ViAddMaxS32
            | DpxFunc::ViAddMaxS32Relu
            | DpxFunc::ViAddMaxS16x2
            | DpxFunc::ViAddMaxS16x2Relu => a.wrapping_add(b).max(c),
            DpxFunc::ViAddMinS32 => a.wrapping_add(b).min(c),
            DpxFunc::ViMax3S32
            | DpxFunc::ViMax3S32Relu
            | DpxFunc::ViMax3S16x2
            | DpxFunc::ViMax3S16x2Relu => a.max(b).max(c),
            DpxFunc::ViMin3S32 => a.min(b).min(c),
            DpxFunc::ViBMaxS32 => a.max(b),
            _ => unreachable!("unsigned functions route through eval_u32_part"),
        };
        if self.has_relu() {
            base.max(0)
        } else {
            base
        }
    }

    /// Number of simple integer instructions in the software emulation used
    /// on architectures without DPX hardware (derived from the CUDA header
    /// emulation paths: adds, IMNMX pairs, lane extract/insert for 16x2,
    /// extra compare for ReLU / predicate outputs).
    pub fn emulation_ops(&self, arch: Arch) -> u32 {
        if arch.has_dpx_hardware() {
            return 1;
        }
        let mut ops = match self {
            DpxFunc::ViAddMaxS32 | DpxFunc::ViAddMinS32 => 2, // IADD + IMNMX
            DpxFunc::ViMax3S32 | DpxFunc::ViMin3S32 => 2,     // IMNMX ×2
            DpxFunc::ViBMaxS32 => 3,                          // IMNMX + ISETP + SEL
            DpxFunc::ViAddMaxS32Relu => 3,
            DpxFunc::ViMax3S32Relu => 3,
            DpxFunc::ViAddMaxU32 | DpxFunc::ViAddMinU32 => 2,
            DpxFunc::ViMax3U32 => 2,
            // 16x2: extract both halves, operate per half, repack.
            DpxFunc::ViAddMaxS16x2 | DpxFunc::ViMax3S16x2 => 10,
            DpxFunc::ViAddMaxU16x2 | DpxFunc::ViMax3U16x2 => 10,
            DpxFunc::ViAddMaxS16x2Relu | DpxFunc::ViMax3S16x2Relu => 13,
        };
        if matches!(arch, Arch::Ada) {
            // Ada's emulation is essentially identical to Ampere's.
            ops = ops.max(2);
        }
        ops
    }

    /// SASS mnemonic on the given architecture (Hopper hardware names vs the
    /// first instruction of the emulation sequence elsewhere).
    pub fn sass_name(&self, arch: Arch) -> &'static str {
        if arch.has_dpx_hardware() {
            match self {
                DpxFunc::ViMax3S32 | DpxFunc::ViMin3S32 | DpxFunc::ViBMaxS32 => "VIMNMX",
                DpxFunc::ViMax3S32Relu => "VIMNMX3.RELU",
                DpxFunc::ViAddMaxS32 | DpxFunc::ViAddMinS32 => "VIADDMNMX",
                DpxFunc::ViAddMaxS32Relu => "VIADDMNMX.RELU",
                DpxFunc::ViAddMaxS16x2 | DpxFunc::ViAddMaxS16x2Relu => "VIADDMNMX.X2",
                DpxFunc::ViMax3S16x2 | DpxFunc::ViMax3S16x2Relu => "VIMNMX.X2",
                DpxFunc::ViAddMaxU32 | DpxFunc::ViAddMinU32 => "VIADDMNMX.U32",
                DpxFunc::ViMax3U32 => "VIMNMX.U32",
                DpxFunc::ViAddMaxU16x2 => "VIADDMNMX.U16X2",
                DpxFunc::ViMax3U16x2 => "VIMNMX.U16X2",
            }
        } else {
            "IMNMX" // leading instruction of the emulation sequence
        }
    }
}

impl fmt::Display for DpxFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cuda_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_s32() {
        assert_eq!(DpxFunc::ViAddMaxS32.eval(3, 4, 10), 10);
        assert_eq!(DpxFunc::ViAddMaxS32.eval(30, 4, 10), 34);
        assert_eq!(DpxFunc::ViAddMinS32.eval(30, 4, 10), 10);
        assert_eq!(DpxFunc::ViMax3S32.eval(1, 9, 5), 9);
        assert_eq!(DpxFunc::ViMin3S32.eval(1, 9, 5), 1);
        // ReLU clamps negatives to zero.
        let neg5 = (-5i32) as u32;
        assert_eq!(DpxFunc::ViAddMaxS32Relu.eval(neg5, 0, neg5), 0);
        assert_eq!(DpxFunc::ViAddMaxS32.eval(neg5, 0, neg5), neg5);
    }

    #[test]
    fn semantics_16x2_per_lane() {
        // a = (hi=1, lo=-2), b = (hi=1, lo=1), c = (hi=100, lo=0)
        let pack = |hi: i16, lo: i16| ((hi as u16 as u32) << 16) | lo as u16 as u32;
        let a = pack(1, -2);
        let b = pack(1, 1);
        let c = pack(100, 0);
        let r = DpxFunc::ViAddMaxS16x2.eval(a, b, c);
        assert_eq!(r, pack(100, 0)); // hi: max(2,100)=100; lo: max(-1,0)=0
        let r = DpxFunc::ViMax3S16x2Relu.eval(pack(-3, -4), pack(-2, -9), pack(-1, -7));
        assert_eq!(r, pack(0, 0));
    }

    #[test]
    fn emulation_cost_matrix() {
        for f in ALL_DPX {
            assert_eq!(f.emulation_ops(Arch::Hopper), 1, "{f} is 1 hw op on Hopper");
            assert!(f.emulation_ops(Arch::Ampere) >= 2, "{f} emulated on Ampere");
            // Ampere and Ada emulations cost the same (paper: "their
            // performance is almost the same").
            assert_eq!(f.emulation_ops(Arch::Ampere), f.emulation_ops(Arch::Ada));
        }
        // 16-bit variants are the expensive ones (paper: up to 13×).
        assert!(DpxFunc::ViMax3S16x2Relu.emulation_ops(Arch::Ampere) >= 13);
    }

    #[test]
    fn unsigned_semantics() {
        // u32 max treats 0xFFFF_FFFF as large, not −1.
        assert_eq!(DpxFunc::ViMax3U32.eval(u32::MAX, 1, 2), u32::MAX);
        assert_eq!(DpxFunc::ViMax3S32.eval(u32::MAX, 1, 2), 2); // −1 loses signed
        assert_eq!(DpxFunc::ViAddMaxU32.eval(3, 4, 10), 10);
        assert_eq!(DpxFunc::ViAddMinU32.eval(3, 4, 10), 7);
        // u16x2 lanes saturate independently of each other.
        let pack = |hi: u16, lo: u16| ((hi as u32) << 16) | lo as u32;
        assert_eq!(
            DpxFunc::ViMax3U16x2.eval(pack(0xffff, 1), pack(2, 2), pack(3, 3)),
            pack(0xffff, 3)
        );
    }

    #[test]
    fn sass_names() {
        assert_eq!(DpxFunc::ViAddMaxS32.sass_name(Arch::Hopper), "VIADDMNMX");
        assert_eq!(DpxFunc::ViAddMaxS32.sass_name(Arch::Ampere), "IMNMX");
        assert!(DpxFunc::ViMax3S16x2.sass_name(Arch::Hopper).contains("X2"));
    }
}
