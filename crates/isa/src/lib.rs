//! PTX-like instruction set for the Hopper-dissection reproduction.
//!
//! The paper benchmarks Nvidia GPUs at the PTX level ("it strikes a suitable
//! balance between granularity and complexity") and disassembles PTX to SASS
//! to identify the executing hardware unit.  This crate defines the
//! corresponding ISA for our simulator:
//!
//! * [`DType`] — every tensor-core element type of Table I;
//! * [`instr::Instr`] — warp-level instructions: scalar ALU, DPX functions,
//!   loads/stores with `ca`/`cg` cache operators, shared-memory ops,
//!   atomics, `cp.async` groups, TMA bulk copies, `mma`/`mma.sp`,
//!   `wgmma`/`wgmma.sp`, cluster/`mapa` distributed-shared-memory ops,
//!   barriers and special-register reads;
//! * [`mma::MmaDesc`] — shape/type descriptors with the validity rules of
//!   the PTX ISA manual (`m16n8k*` for `mma`, `m64nNk*` with N ∈ 8..256 for
//!   `wgmma`);
//! * [`lower`] — the PTX→SASS lowering of Table VI, including the Hopper
//!   INT4→IMAD CUDA-core fallback and the per-architecture DPX emulation
//!   sequences;
//! * [`kernel::KernelBuilder`] — a fluent builder, and [`asm`] — a small
//!   text assembler for a PTX-flavoured syntax.
//!
//! ```
//! use hopper_isa::{asm, lower, Arch, DType};
//! use hopper_isa::mma::MmaDesc;
//!
//! let k = asm::assemble(
//!     "add.s32 %r1, %r0, 1;\n\
//!      ld.global.ca.b32 %r2, [%r1];\n\
//!      exit;",
//! ).unwrap();
//! assert_eq!(k.instrs.len(), 3);
//!
//! // Table VI: INT4 mma lowers to tensor-core IMMA on Ampere but to
//! // CUDA-core IMAD on Hopper.
//! let d = MmaDesc::mma(16, 8, 32, DType::S4, DType::S32, false).unwrap();
//! assert!(lower::sass_for(Arch::Ampere, &d).unwrap().name.contains("IMMA"));
//! assert!(lower::sass_for(Arch::Hopper, &d).unwrap().name.contains("IMAD"));
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod disasm;
pub mod dpx;
pub mod dtype;
pub mod instr;
pub mod kernel;
pub mod lower;
pub mod mma;

pub use disasm::{disassemble, is_textual};
pub use dpx::DpxFunc;
pub use dtype::{Arch, DType};
pub use instr::{
    AddrExpr, CacheOp, CmpOp, FAluOp, FloatPrec, IAluOp, Instr, InstrInfo, MemSpace, Operand,
    Operands, Pred, Reg, Special, TileId, TilePattern, TracePayload, Width,
};
pub use kernel::{Kernel, KernelBuilder, KernelError, Label, TileUses};
pub use mma::{MmaDesc, MmaKind, OperandSource};
