//! Warp-level instructions.
//!
//! Instructions execute SIMT-style over the 32 lanes of a warp.  Control
//! flow is restricted to *uniform* branches (all active lanes agree on the
//! predicate) — sufficient for every microbenchmark in the paper, and the
//! simulator traps loudly on divergence rather than silently mis-timing it.

use crate::dpx::DpxFunc;
use crate::mma::MmaDesc;
use core::fmt;

/// A general-purpose register index (per-lane 64-bit storage in the
/// simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

/// A predicate register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pred(pub u8);

/// A tile-register index for matrix fragments (see `hopper-sim`'s tile
/// storage; abstracts the per-lane fragment layout, which the paper does
/// not measure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileId(pub u8);

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// General-purpose register.
    Reg(Reg),
    /// Sign-extended immediate.
    Imm(i64),
}

/// Define an operand-modifier enum together with its assembler spelling:
/// the variant list is the name table, so the assembler (`parse`) and the
/// disassembler (`name`) cannot disagree and a new variant cannot exist
/// without a spelling.
macro_rules! named_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $var:ident = $text:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $var,)+
        }

        impl $name {
            /// Every variant with its canonical assembler spelling.
            pub const NAMES: &'static [(&'static str, $name)] = &[$(($text, $name::$var),)+];

            /// Canonical assembler spelling.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$var => $text,)+
                }
            }

            /// Inverse of [`Self::name`].
            pub fn parse(s: &str) -> Option<Self> {
                Self::NAMES.iter().find(|(n, _)| *n == s).map(|&(_, v)| v)
            }
        }
    };
}

named_enum! {
    /// Memory access width in bytes (1, 2, 4, 8 or 16 = vectorised `v4.f32`).
    Width {
        /// 1 byte.
        B1 = "b8",
        /// 2 bytes.
        B2 = "b16",
        /// 4 bytes (`b32` / `f32`).
        B4 = "b32",
        /// 8 bytes (`b64` / `f64`).
        B8 = "b64",
        /// 16 bytes (`v4.f32` / `float4`).
        B16 = "v4",
    }
}

impl Width {
    /// Width in bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
            Width::B16 => 16,
        }
    }
}

named_enum! {
    /// PTX cache operators on loads.
    CacheOp {
        /// `.ca` — cache at all levels (L1 and L2).
        Ca = "ca",
        /// `.cg` — cache at global level (L2 only, bypass L1).
        Cg = "cg",
        /// `.cs` — streaming (evict-first); timing-wise like `.ca` here.
        Cs = "cs",
    }
}

named_enum! {
    /// Memory state spaces.
    MemSpace {
        /// Global device memory (through L1/L2 per the cache operator).
        Global = "global",
        /// Per-block shared memory.
        Shared = "shared",
        /// Another block's shared memory within the cluster (address produced
        /// by `mapa`; travels over the SM-to-SM network).
        SharedCluster = "shared::cluster",
    }
}

named_enum! {
    /// Integer ALU operations (per 32-bit lane).
    IAluOp {
        /// Wrapping add.
        Add = "add",
        /// Wrapping subtract.
        Sub = "sub",
        /// Wrapping multiply (low 32 bits).
        Mul = "mul",
        /// Signed minimum.
        Min = "min",
        /// Signed maximum.
        Max = "max",
        /// Bitwise and.
        And = "and",
        /// Bitwise or.
        Or = "or",
        /// Bitwise xor.
        Xor = "xor",
        /// Logical shift left.
        Shl = "shl",
        /// Logical shift right.
        Shr = "shr",
    }
}

named_enum! {
    /// Floating-point ALU operations.
    FAluOp {
        /// Addition.
        Add = "add",
        /// Multiplication.
        Mul = "mul",
        /// Minimum.
        Min = "min",
        /// Maximum.
        Max = "max",
    }
}

named_enum! {
    /// Comparison operators for `setp`.
    CmpOp {
        /// Equal.
        Eq = "eq",
        /// Not equal.
        Ne = "ne",
        /// Signed less-than.
        Lt = "lt",
        /// Signed less-or-equal.
        Le = "le",
        /// Signed greater-than.
        Gt = "gt",
        /// Signed greater-or-equal.
        Ge = "ge",
    }
}

impl CmpOp {
    /// Evaluate over signed 64-bit operands.
    pub fn eval(&self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Address expression: `[reg + imm]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrExpr {
    /// Base register (per-lane byte address).
    pub base: Reg,
    /// Byte offset.
    pub offset: i64,
}

named_enum! {
    /// Special (read-only) registers.
    Special {
        /// `%tid.x` — thread index within the block.
        TidX = "%tid.x",
        /// `%ctaid.x` — block index within the grid.
        CtaIdX = "%ctaid.x",
        /// `%ntid.x` — block dimension.
        NTidX = "%ntid.x",
        /// `%nctaid.x` — grid dimension.
        NCtaIdX = "%nctaid.x",
        /// `%laneid`.
        LaneId = "%laneid",
        /// `%warpid` within the block.
        WarpId = "%warpid",
        /// `%smid` — physical SM the block runs on.
        SmId = "%smid",
        /// `%cluster_ctarank` — block rank within its cluster.
        ClusterCtaRank = "%cluster_ctarank",
        /// `%cluster_nctarank` — cluster size.
        ClusterNCtaRank = "%cluster_nctarank",
        /// `%clock` — SM cycle counter (32-bit in PTX; we deliver 64).
        Clock = "%clock",
    }
}

named_enum! {
    /// FP precision for scalar float ops.
    FloatPrec {
        /// 32-bit.
        F32 = "f32",
        /// 64-bit.
        F64 = "f64",
    }
}

/// Tile initialisation patterns for [`Instr::FillTile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TilePattern {
    /// All zeros (the paper's "Zero" initialisation).
    Zero,
    /// Deterministic pseudo-random values in (−1, 1) (the paper's "Rand").
    Random {
        /// Stream seed.
        seed: u64,
    },
    /// Identity-like: 1 on the diagonal, 0 elsewhere.
    Identity,
    /// 2:4-structured pseudo-random values (for sparse operands).
    Sparse24Random {
        /// Stream seed.
        seed: u64,
    },
}

/// A warp-level instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Integer ALU: `dst = op(a, b)` per lane.
    IAlu {
        /// Operation.
        op: IAluOp,
        /// Destination.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Integer multiply-add `dst = a*b + c` (IMAD).
    IMad {
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// Float ALU `dst = op(a, b)` per lane.
    FAlu {
        /// Operation.
        op: FAluOp,
        /// Precision.
        prec: FloatPrec,
        /// Destination.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Fused multiply-add `dst = a*b + c` per lane.
    FFma {
        /// Precision.
        prec: FloatPrec,
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// Register move / immediate load.
    Mov {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Operand,
    },
    /// DPX function `dst = f(a, b, c)`.
    Dpx {
        /// Which DPX function.
        func: DpxFunc,
        /// Destination.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
        /// Third source.
        c: Operand,
    },
    /// Predicate set: `pred = cmp(a, b)` (uniform across the warp for
    /// branching purposes).
    SetP {
        /// Destination predicate.
        pred: Pred,
        /// Comparison.
        cmp: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Select: `dst = pred ? a : b` per lane.
    Sel {
        /// Destination.
        dst: Reg,
        /// Guard predicate.
        pred: Pred,
        /// Value if true.
        a: Operand,
        /// Value if false.
        b: Operand,
    },
    /// Branch to a label, optionally guarded (`@p` / `@!p`).
    Bra {
        /// Instruction index to jump to (resolved by the builder).
        target: usize,
        /// Optional (predicate, expected-value) guard.
        guard: Option<(Pred, bool)>,
    },
    /// Load: `dst = [addr]`.
    Ld {
        /// State space.
        space: MemSpace,
        /// Cache operator (global loads).
        cop: CacheOp,
        /// Access width.
        width: Width,
        /// Destination register (first of a pair for B8/B16).
        dst: Reg,
        /// Address.
        addr: AddrExpr,
    },
    /// Store: `[addr] = src`.
    St {
        /// State space.
        space: MemSpace,
        /// Access width.
        width: Width,
        /// Source register.
        src: Reg,
        /// Address.
        addr: AddrExpr,
    },
    /// Atomic add (returns old value into `dst` if present).
    AtomAdd {
        /// State space (shared, cluster-shared or global).
        space: MemSpace,
        /// Destination for the fetched value, if used.
        dst: Option<Reg>,
        /// Address.
        addr: AddrExpr,
        /// Addend.
        src: Operand,
    },
    /// `cp.async` — asynchronous global→shared copy issued by this thread.
    CpAsync {
        /// Bytes per lane (4, 8 or 16).
        width: Width,
        /// Shared-memory destination address.
        smem: AddrExpr,
        /// Global-memory source address.
        gmem: AddrExpr,
    },
    /// `cp.async.commit_group`.
    CpAsyncCommit,
    /// `cp.async.wait_group N` — wait until ≤ N groups are outstanding.
    CpAsyncWait {
        /// Maximum outstanding groups allowed after the wait.
        groups: u8,
    },
    /// TMA bulk 2-D tensor copy (global→shared), Hopper only: one
    /// instruction moves a `rows × row_bytes` box whose global rows are
    /// `gstride` bytes apart — the Tensor Memory Accelerator's descriptor
    /// shape.  Completion is tracked through the `cp.async` group
    /// machinery (an mbarrier approximation).
    TmaCopy {
        /// Rows in the box.
        rows: u16,
        /// Bytes per row.
        row_bytes: u16,
        /// Global stride between rows, bytes.
        gstride: u32,
        /// Shared-memory destination (rows packed contiguously).
        smem: AddrExpr,
        /// Global source of row 0.
        gmem: AddrExpr,
    },
    /// Tensor-core `mma`: `Dtile = Atile·Btile + Ctile`, warp-synchronous.
    Mma {
        /// Instruction descriptor.
        desc: MmaDesc,
        /// Destination tile.
        d: TileId,
        /// A tile.
        a: TileId,
        /// B tile.
        b: TileId,
        /// C tile.
        c: TileId,
    },
    /// `wgmma.fence` — order register accesses before an async group.
    WgmmaFence,
    /// Tensor-core `wgmma`: `Dtile += Atile·Btile`, asynchronous, issued by
    /// a warp group.
    Wgmma {
        /// Instruction descriptor (carries RS/SS operand sourcing).
        desc: MmaDesc,
        /// Accumulator tile (read-modify-write).
        d: TileId,
        /// A tile (register fragment for RS; shared-memory descriptor
        /// for SS — the tile storage models both).
        a: TileId,
        /// B tile (always a shared-memory descriptor).
        b: TileId,
    },
    /// `wgmma.commit_group`.
    WgmmaCommit,
    /// `wgmma.wait_group N`.
    WgmmaWait {
        /// Maximum outstanding groups allowed after the wait.
        groups: u8,
    },
    /// Load a tile of `rows × cols` elements of `dtype` from memory into
    /// tile storage (models `ldmatrix` and the `wgmma` shared-memory
    /// matrix descriptors; row-major at `addr`).
    LdTile {
        /// Destination tile.
        tile: TileId,
        /// Element type.
        dtype: crate::DType,
        /// Rows.
        rows: u16,
        /// Columns.
        cols: u16,
        /// Source space (global or shared).
        space: MemSpace,
        /// Base address of the row-major tile.
        addr: AddrExpr,
    },
    /// Store a tile to memory (models `stmatrix` / fragment stores);
    /// element width follows the tile's dtype.
    StTile {
        /// Source tile.
        tile: TileId,
        /// Destination space.
        space: MemSpace,
        /// Base address (row-major).
        addr: AddrExpr,
    },
    /// Initialise a tile in-place without memory traffic — benchmark setup
    /// for the paper's "Zero" vs "Rand" matrix-initialisation experiments.
    FillTile {
        /// Destination tile.
        tile: TileId,
        /// Element type.
        dtype: crate::DType,
        /// Rows.
        rows: u16,
        /// Columns.
        cols: u16,
        /// Fill pattern.
        pattern: TilePattern,
    },
    /// `mapa` — translate a shared-memory address into the cluster-DSM
    /// address of the block ranked `rank`.
    Mapa {
        /// Destination register for the mapped address.
        dst: Reg,
        /// Local shared-memory address.
        addr: Operand,
        /// Target block rank within the cluster.
        rank: Operand,
    },
    /// `bar.sync` — block-wide barrier.
    BarSync,
    /// `barrier.cluster.arrive` + `wait` — cluster-wide barrier.
    ClusterSync,
    /// Read a special register.
    ReadSpecial {
        /// Destination.
        dst: Reg,
        /// Which special register.
        sr: Special,
    },
    /// End the warp.
    Exit,
}

/// What operand payload a replay-trace record carries for an instruction
/// — the record↔instruction mapping shared by the capture engine
/// (`hopper-sim`), the trace format (`hopper-replay`), and its parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePayload {
    /// No payload (ALU, control flow, barriers, fences, ...).
    None,
    /// One resolved byte address per active lane, lane-ascending, with
    /// any cluster-DSM tag bits preserved (`ld`/`st`/`atom`).
    LaneAddrs,
    /// One resolved *global-side* byte address per active lane
    /// (`cp.async`; the shared side is derivable and purely functional).
    GlobalLaneAddrs,
    /// A single base byte address (TMA box source, tile load/store base).
    Base,
    /// At most one element: the tensor-core activity factor's `f64` bits
    /// (`mma`, and `wgmma` on the issuing warp-group leader; empty for
    /// non-leader `wgmma` warps).
    Activity,
}

impl TracePayload {
    /// Is `len` a valid payload length for this class, given the
    /// record's active-lane mask?
    pub fn len_ok(self, len: usize, active: u32) -> bool {
        match self {
            TracePayload::None => len == 0,
            TracePayload::LaneAddrs | TracePayload::GlobalLaneAddrs => {
                len == active.count_ones() as usize
            }
            TracePayload::Base => len == 1,
            TracePayload::Activity => len <= 1,
        }
    }
}

/// Every register an instruction touches, as one flat allocation-free
/// record: the single answer to "what does this instruction read or
/// write" that the register allocator ([`crate::Kernel::new`]), the
/// validator ([`crate::Kernel::validate`]) and the simulator's scoreboard
/// all read.  Tile ids are not listed: tile storage is keyed, not indexed,
/// so no tile id is out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    regs: [Reg; 4],
    len: u8,
    /// Predicate the instruction reads (`sel`, guarded `bra`).
    pub pred_read: Option<Pred>,
    /// Predicate the instruction writes (`setp`).
    pub pred_write: Option<Pred>,
}

impl Operands {
    const NONE: Operands = Operands {
        regs: [Reg(0); 4],
        len: 0,
        pred_read: None,
        pred_write: None,
    };

    /// Every GPR read or written, implicit ones included (repeats
    /// possible: `add %r1, %r1, %r1` lists `%r1` three times).
    pub fn regs(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    fn reg(mut self, r: Reg) -> Self {
        self.regs[self.len as usize] = r;
        self.len += 1;
        self
    }

    fn op(self, o: Operand) -> Self {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(_) => self,
        }
    }

    /// A `ld`/`st` data register: 16-byte accesses implicitly use the
    /// next register too.
    fn data(self, r: Reg, width: Width) -> Self {
        let o = self.reg(r);
        if width == Width::B16 {
            o.reg(Reg(r.0.saturating_add(1)))
        } else {
            o
        }
    }
}

/// Static facts about an instruction variant (see [`Instr::info`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrInfo {
    /// Short mnemonic for traces, profiles and error messages.
    pub mnemonic: &'static str,
    /// What operand payload a replay-trace record carries.
    pub payload: TracePayload,
    /// Whether [`crate::asm`] has a syntax for it (`false` = only
    /// [`crate::KernelBuilder`] can express it).
    pub textual: bool,
}

impl Instr {
    /// Every register and predicate this instruction reads or writes.
    pub fn operands(&self) -> Operands {
        let o = Operands::NONE;
        match self {
            Instr::IAlu { dst, a, b, .. } | Instr::FAlu { dst, a, b, .. } => {
                o.reg(*dst).op(*a).op(*b)
            }
            Instr::IMad { dst, a, b, c }
            | Instr::FFma { dst, a, b, c, .. }
            | Instr::Dpx { dst, a, b, c, .. } => o.reg(*dst).op(*a).op(*b).op(*c),
            Instr::Mov { dst, src } => o.reg(*dst).op(*src),
            Instr::SetP { pred, a, b, .. } => Operands {
                pred_write: Some(*pred),
                ..o.op(*a).op(*b)
            },
            Instr::Sel { dst, pred, a, b } => Operands {
                pred_read: Some(*pred),
                ..o.reg(*dst).op(*a).op(*b)
            },
            Instr::Bra { guard, .. } => Operands {
                pred_read: guard.map(|(p, _)| p),
                ..o
            },
            Instr::Ld {
                width, dst, addr, ..
            } => o.data(*dst, *width).reg(addr.base),
            Instr::St {
                width, src, addr, ..
            } => o.data(*src, *width).reg(addr.base),
            Instr::AtomAdd { dst, addr, src, .. } => {
                dst.map_or(o, |d| o.reg(d)).reg(addr.base).op(*src)
            }
            Instr::CpAsync { smem, gmem, .. } | Instr::TmaCopy { smem, gmem, .. } => {
                o.reg(smem.base).reg(gmem.base)
            }
            Instr::LdTile { addr, .. } | Instr::StTile { addr, .. } => o.reg(addr.base),
            Instr::Mapa { dst, addr, rank } => o.reg(*dst).op(*addr).op(*rank),
            Instr::ReadSpecial { dst, .. } => o.reg(*dst),
            Instr::CpAsyncCommit
            | Instr::CpAsyncWait { .. }
            | Instr::Mma { .. }
            | Instr::WgmmaFence
            | Instr::Wgmma { .. }
            | Instr::WgmmaCommit
            | Instr::WgmmaWait { .. }
            | Instr::FillTile { .. }
            | Instr::BarSync
            | Instr::ClusterSync
            | Instr::Exit => o,
        }
    }

    /// The widest state space whose contents or ordering the instruction
    /// touches: the operand space of memory instructions, `Global` for the
    /// asynchronous global→shared copies, `SharedCluster` for `mapa` (it
    /// manufactures a cluster address) and `barrier.cluster`.  `None` =
    /// registers and tiles only.
    pub fn mem_space(&self) -> Option<MemSpace> {
        match self {
            Instr::Ld { space, .. }
            | Instr::St { space, .. }
            | Instr::AtomAdd { space, .. }
            | Instr::LdTile { space, .. }
            | Instr::StTile { space, .. } => Some(*space),
            Instr::CpAsync { .. } | Instr::TmaCopy { .. } => Some(MemSpace::Global),
            Instr::Mapa { .. } | Instr::ClusterSync => Some(MemSpace::SharedCluster),
            Instr::BarSync => Some(MemSpace::Shared),
            Instr::IAlu { .. }
            | Instr::IMad { .. }
            | Instr::FAlu { .. }
            | Instr::FFma { .. }
            | Instr::Mov { .. }
            | Instr::Dpx { .. }
            | Instr::SetP { .. }
            | Instr::Sel { .. }
            | Instr::Bra { .. }
            | Instr::CpAsyncCommit
            | Instr::CpAsyncWait { .. }
            | Instr::Mma { .. }
            | Instr::WgmmaFence
            | Instr::Wgmma { .. }
            | Instr::WgmmaCommit
            | Instr::WgmmaWait { .. }
            | Instr::FillTile { .. }
            | Instr::ReadSpecial { .. }
            | Instr::Exit => None,
        }
    }

    /// Mnemonic, replay-trace payload class and textual-surface membership
    /// of this variant.
    pub fn info(&self) -> InstrInfo {
        use TracePayload as P;
        let (mnemonic, payload, textual) = match self {
            Instr::IAlu { .. } => ("ialu", P::None, true),
            Instr::IMad { .. } => ("imad", P::None, true),
            Instr::FAlu { .. } => ("falu", P::None, true),
            Instr::FFma { .. } => ("ffma", P::None, true),
            Instr::Mov { .. } => ("mov", P::None, true),
            Instr::Dpx { .. } => ("dpx", P::None, true),
            Instr::SetP { .. } => ("setp", P::None, true),
            Instr::Sel { .. } => ("sel", P::None, true),
            Instr::Bra { .. } => ("bra", P::None, true),
            Instr::Ld { .. } => ("ld", P::LaneAddrs, true),
            Instr::St { .. } => ("st", P::LaneAddrs, true),
            Instr::AtomAdd { .. } => ("atom.add", P::LaneAddrs, true),
            Instr::CpAsync { .. } => ("cp.async", P::GlobalLaneAddrs, true),
            Instr::CpAsyncCommit => ("cp.async.commit_group", P::None, true),
            Instr::CpAsyncWait { .. } => ("cp.async.wait_group", P::None, true),
            Instr::TmaCopy { .. } => ("cp.async.bulk.tensor", P::Base, false),
            Instr::Mma { .. } => ("mma", P::Activity, true),
            Instr::WgmmaFence => ("wgmma.fence", P::None, true),
            Instr::Wgmma { .. } => ("wgmma", P::Activity, true),
            Instr::WgmmaCommit => ("wgmma.commit_group", P::None, true),
            Instr::WgmmaWait { .. } => ("wgmma.wait_group", P::None, true),
            Instr::LdTile { .. } => ("ldmatrix", P::Base, false),
            Instr::StTile { .. } => ("stmatrix", P::Base, false),
            Instr::FillTile { .. } => ("filltile", P::None, false),
            Instr::Mapa { .. } => ("mapa", P::None, true),
            Instr::BarSync => ("bar.sync", P::None, true),
            Instr::ClusterSync => ("barrier.cluster", P::None, true),
            Instr::ReadSpecial { .. } => ("mov.special", P::None, true),
            Instr::Exit => ("exit", P::None, true),
        };
        InstrInfo {
            mnemonic,
            payload,
            textual,
        }
    }

    /// The replay-trace payload class of this instruction (see
    /// [`TracePayload`]).
    pub fn trace_payload(&self) -> TracePayload {
        self.info().payload
    }

    /// Short mnemonic for traces and error messages.
    pub fn mnemonic(&self) -> &'static str {
        self.info().mnemonic
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}
impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval(-1, 0));
        assert!(!CmpOp::Lt.eval(0, 0));
        assert!(CmpOp::Ge.eval(0, 0));
        assert!(CmpOp::Ne.eval(1, 2));
    }

    #[test]
    fn widths() {
        assert_eq!(Width::B16.bytes(), 16);
        assert_eq!(Width::B4.bytes(), 4);
    }

    #[test]
    fn operands_list_implicit_and_secondary_registers() {
        let at = |r| AddrExpr {
            base: Reg(r),
            offset: 8,
        };
        let regs = |i: &Instr| i.operands().regs().iter().map(|r| r.0).collect::<Vec<_>>();
        let st = |width| Instr::St {
            space: MemSpace::Shared,
            width,
            src: Reg(6),
            addr: at(2),
        };
        assert_eq!(regs(&st(Width::B8)), [6, 2]);
        assert_eq!(regs(&st(Width::B16)), [6, 7, 2]);
        let tma = Instr::TmaCopy {
            rows: 4,
            row_bytes: 64,
            gstride: 256,
            smem: at(3),
            gmem: at(9),
        };
        assert_eq!(regs(&tma), [3, 9]);
        assert_eq!(tma.mem_space(), Some(MemSpace::Global));
        assert!(!tma.info().textual);
        let atom = Instr::AtomAdd {
            space: MemSpace::SharedCluster,
            dst: None,
            addr: at(1),
            src: Operand::Imm(1),
        };
        assert_eq!(regs(&atom), [1]);
        assert_eq!(atom.mem_space(), Some(MemSpace::SharedCluster));
        let setp = Instr::SetP {
            pred: Pred(3),
            cmp: CmpOp::Lt,
            a: Operand::Reg(Reg(4)),
            b: Operand::Imm(0),
        };
        assert_eq!(regs(&setp), [4]);
        assert_eq!(setp.operands().pred_write, Some(Pred(3)));
        let bra = Instr::Bra {
            target: 0,
            guard: Some((Pred(1), false)),
        };
        assert_eq!(bra.operands().pred_read, Some(Pred(1)));
        assert_eq!(Instr::Exit.operands(), Operands::NONE);
    }

    #[test]
    fn name_tables_invert() {
        for &(name, op) in IAluOp::NAMES {
            assert_eq!(IAluOp::parse(name), Some(op));
            assert_eq!(op.name(), name);
        }
        assert_eq!(Special::parse("%clock"), Some(Special::Clock));
        assert_eq!(MemSpace::SharedCluster.name(), "shared::cluster");
        assert_eq!(Width::parse("f32"), None); // alias: the assembler's business
    }

    #[test]
    fn mnemonics() {
        let i = Instr::Mov {
            dst: Reg(0),
            src: Operand::Imm(1),
        };
        assert_eq!(i.mnemonic(), "mov");
        assert_eq!(Instr::WgmmaFence.mnemonic(), "wgmma.fence");
    }
}
