//! Seeded random-kernel generator.
//!
//! Kernels are generated as a list of *segments* — self-contained
//! instruction groups (an ALU chain, a masked global load, a complete
//! `cp.async` triple, a loop wrapping further segments…) — rather than
//! free-form instruction streams. Validity is guaranteed by construction:
//!
//! * every memory address is masked into its buffer (`GBUF_BYTES` global
//!   scratch passed as `%r0`, a fixed 2 KiB shared allocation), so the
//!   engine's bounds traps can't fire;
//! * branches only test loop counters initialised from immediates, or
//!   whether the warp leads its warp group, so control flow stays
//!   warp-uniform (the engine traps on divergence);
//! * `cp.async` always appears as copy→commit→wait, `wgmma` as
//!   fence→fill→issue→commit→wait, so nothing dangles at `exit`;
//! * cluster ops are only emitted for Hopper cluster launches, `wgmma`
//!   only for warp-group-sized blocks.
//!
//! The segment list also gives the shrinker a sound unit of deletion:
//! dropping a segment (or unwrapping a loop) always yields another valid
//! kernel, which plain instruction deletion would not (dangling branch
//! targets, missing `cp.async` waits).

use crate::rng::SplitMix64;
use hopper_isa::{
    CacheOp, CmpOp, DType, DpxFunc, FAluOp, IAluOp, Kernel, KernelBuilder, MemSpace, MmaDesc,
    Operand, OperandSource, Pred, Reg, Special, TileId, TilePattern, Width,
};
use hopper_sim::Launch;

/// Global scratch buffer every generated kernel receives as `%r0`.
pub const GBUF_BYTES: u64 = 1 << 16;
/// Address mask keeping a ≤16-byte access inside the global buffer,
/// 16-byte aligned.
const GMASK: i64 = (GBUF_BYTES as i64 - 1) & !15;
/// Shared memory declared by every generated kernel.
const SMEM: u32 = 2048;
/// Mask keeping a ≤16-byte access inside shared memory, 16-byte aligned.
const SMASK: i64 = (SMEM as i64 - 1) & !15;
/// Stored tensor-core accumulators (`store`) land in the global buffer
/// at per-warp offsets, so no two warps write the same bytes: the one
/// storing `wgmma` leader below this offset, `mma` warps from it up.
const WG_STORE_BYTES: i64 = GBUF_BYTES as i64 / 2;
/// Bytes per warp of a stored `mma` accumulator (16×8 32-bit elements).
const MMA_STORE_BYTES: i64 = 16 * 8 * 4;

// Register conventions (small fixed footprint keeps occupancy high and
// segments freely composable):
//   %r0 buffer param · %r1 tid · %r2 ctaid · %r4 int accumulator ·
//   %r5 float accumulator · %r8-%r11 per-segment scratch ·
//   %r13 loop counter · %p3 loop predicate · %p1 sel predicate ·
//   %p2 not-the-storing-leader predicate.
const R_BUF: Reg = Reg(0);
const R_TID: Reg = Reg(1);
const R_ACC: Reg = Reg(4);
const R_FACC: Reg = Reg(5);
const R_ADDR: Reg = Reg(9);
const R_ADDR2: Reg = Reg(10);
const R_TMP: Reg = Reg(11);
const R_LOOP: Reg = Reg(13);
const P_LOOP: Pred = Pred(3);
const P_SEL: Pred = Pred(1);
const P_FOLLOWER: Pred = Pred(2);

fn imm(v: i64) -> Operand {
    Operand::Imm(v)
}
fn reg(r: Reg) -> Operand {
    Operand::Reg(r)
}

/// One self-contained instruction group.
#[derive(Debug, Clone)]
pub enum Seg {
    /// Chain of integer ALU ops on the accumulator.
    IntChain(Vec<(IAluOp, i64)>),
    /// Chain of float ops on the float accumulator.
    FloatChain {
        /// Use the FP64 pipe.
        f64_: bool,
        /// Interleave FFMA.
        fma: bool,
        /// Chain length.
        n: u8,
    },
    /// One DPX instruction.
    Dpx(DpxFunc, i64, i64),
    /// Masked per-lane global load, accumulated.
    GlobalLd {
        /// Cache operator.
        cop: CacheOp,
        /// Access width.
        width: Width,
        /// Per-lane address stride.
        stride: i64,
        /// Base offset before masking.
        offset: i64,
    },
    /// Masked per-lane global store of the accumulator.
    GlobalSt {
        /// Access width.
        width: Width,
        /// Per-lane address stride.
        stride: i64,
        /// Base offset before masking.
        offset: i64,
    },
    /// Global atomic add (optionally fetching the old value).
    GlobalAtom {
        /// Fetch old value into the accumulator.
        fetch: bool,
        /// Base offset before masking.
        offset: i64,
    },
    /// Shared store then load at a tid-strided masked address.
    SharedRw {
        /// Access width.
        width: Width,
        /// Per-lane address stride.
        stride: i64,
        /// Base offset before masking.
        offset: i64,
    },
    /// Shared atomic add (optionally fetching the old value).
    SharedAtom {
        /// Fetch old value into the accumulator.
        fetch: bool,
        /// Base offset before masking.
        offset: i64,
    },
    /// Complete `cp.async` copy→commit→wait triple.
    CpAsync {
        /// Bytes per lane (4/8/16).
        width: Width,
        /// Shared destination offset before masking.
        soff: i64,
        /// Global source offset before masking.
        goff: i64,
    },
    /// Block barrier.
    Bar,
    /// `setp` + `sel` mixed into the accumulator.
    SelMix {
        /// Comparison.
        cmp: CmpOp,
        /// Threshold.
        threshold: i64,
    },
    /// Warp-synchronous tensor-core mma with freshly filled tiles.
    Mma {
        /// Shape/type descriptor.
        desc: MmaDesc,
        /// Operand fill pattern.
        pat: TilePattern,
        /// Store D to the global buffer, so the product is computed
        /// (an accumulator nothing reads is skipped).
        store: bool,
    },
    /// `stmatrix` then `ldmatrix` of a freshly filled 8×8 f16 tile at a
    /// warp-uniform in-range address.
    TileRw {
        /// Through shared memory (else the global buffer).
        shared: bool,
        /// 128-byte-aligned offset, in range for either space.
        offset: i64,
        /// Tile fill pattern.
        pat: TilePattern,
    },
    /// Warp-group wgmma group (Hopper, block ≥ 128 only).
    Wgmma {
        /// Shape/type descriptor.
        desc: MmaDesc,
        /// Operand fill pattern.
        pat: TilePattern,
        /// The group leader stores D to the global buffer, so the product
        /// is computed (an accumulator nothing reads is skipped).
        store: bool,
    },
    /// `mapa` + cluster-shared atomic + cluster barrier (cluster launches
    /// only).
    ClusterExchange {
        /// Shared offset in the peer block (pre-masked, aligned).
        offset: i64,
    },
    /// Back-to-back independent ops on one unit, each into a scratch
    /// register (herd plans only: 1024 threads contend for the unit).
    Herd {
        /// The saturated unit.
        op: HerdOp,
        /// Ops in the burst.
        n: u8,
    },
    /// Uniform counted loop around inner segments.
    Loop {
        /// Trip count.
        trips: u8,
        /// Body segments (never nested loops).
        body: Vec<Seg>,
    },
}

/// The unit a [`Seg::Herd`] burst saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HerdOp {
    /// DPX: the DPX unit on Hopper, an integer-pipe sequence elsewhere.
    Dpx(DpxFunc),
    /// FP64 adds.
    Fp64,
    /// `ld.global.ca` loads through the L1 port.
    LdCa,
}

/// Launch geometry for a generated kernel.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Blocks in the grid.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Cluster size (1 = no clusters).
    pub cluster: u32,
}

/// A generated kernel: seed, geometry and segment list. The kernel text
/// is a pure function of this plan, which is what makes segment-level
/// shrinking sound.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// Seed this plan was generated from (printed on every failure).
    pub seed: u64,
    /// Whether Hopper-only features (wgmma, clusters) were allowed.
    pub hopper: bool,
    /// Launch geometry.
    pub geom: Geometry,
    /// Top-level segments.
    pub segs: Vec<Seg>,
}

const WIDTHS: [Width; 5] = [Width::B1, Width::B2, Width::B4, Width::B8, Width::B16];
const CP_WIDTHS: [Width; 3] = [Width::B4, Width::B8, Width::B16];
const STRIDES: [i64; 7] = [0, 4, 8, 16, 32, 64, 128];
const COPS: [CacheOp; 3] = [CacheOp::Ca, CacheOp::Cg, CacheOp::Cs];
const DPX_FUNCS: [DpxFunc; 6] = [
    DpxFunc::ViAddMaxS32,
    DpxFunc::ViAddMinS32,
    DpxFunc::ViMax3S32,
    DpxFunc::ViMin3S32,
    DpxFunc::ViAddMaxU32,
    DpxFunc::ViMax3U32,
];

fn mma_descs() -> Vec<MmaDesc> {
    [
        MmaDesc::mma(16, 8, 16, DType::F16, DType::F32, false),
        MmaDesc::mma(16, 8, 8, DType::F16, DType::F32, false),
        MmaDesc::mma(16, 8, 32, DType::S8, DType::S32, false),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn wgmma_descs() -> Vec<MmaDesc> {
    [
        MmaDesc::wgmma(
            64,
            DType::F16,
            DType::F32,
            false,
            OperandSource::SharedShared,
        ),
        MmaDesc::wgmma(
            128,
            DType::F16,
            DType::F32,
            false,
            OperandSource::SharedShared,
        ),
    ]
    .into_iter()
    .flatten()
    .collect()
}

impl KernelPlan {
    /// Generate a plan from `seed`. `hopper` enables wgmma and cluster
    /// segments (pass `dev.arch == Arch::Hopper`).
    pub fn generate(seed: u64, hopper: bool) -> KernelPlan {
        // A tenth of the draws are herd plans, decided on a stream of
        // their own so every other seed keeps its plan.
        let mut h = SplitMix64::new(seed ^ 0x4e2d_4e2d_4e2d_4e2d);
        if h.chance(1, 10) {
            return KernelPlan::herd(seed, hopper, &mut h);
        }
        let mut g = SplitMix64::new(seed);
        let block = *g.pick(&[32u32, 64, 128, 256]);
        let cluster = if hopper && g.chance(1, 4) { 2 } else { 1 };
        let grid = if cluster == 2 {
            *g.pick(&[2u32, 4])
        } else {
            *g.pick(&[1u32, 2, 3, 5])
        };
        let geom = Geometry {
            grid,
            block,
            cluster,
        };
        let nseg = 3 + g.below(8) as usize;
        let mut segs: Vec<Seg> = (0..nseg)
            .map(|_| gen_seg(&mut g, &geom, hopper, true))
            .collect();
        // About half the tensor segments store their accumulator, decided
        // on a stream of their own so every plan keeps its draw.
        let mut st = SplitMix64::new(seed ^ 0x5707_e5d0_5707_e5d0);
        for s in &mut segs {
            mark_stores(s, &mut st);
        }
        KernelPlan {
            seed,
            hopper,
            geom,
            segs,
        }
    }

    /// A contended-unit plan: one 1024-thread block per SM whose warps
    /// loop on back-to-back ops of one unit, so most issue attempts are
    /// refused in herds at that unit's gate.
    fn herd(seed: u64, hopper: bool, h: &mut SplitMix64) -> KernelPlan {
        let op = match h.below(3) {
            0 => HerdOp::Dpx(*h.pick(&DPX_FUNCS)),
            1 => HerdOp::Fp64,
            _ => HerdOp::LdCa,
        };
        let burst = Seg::Herd {
            op,
            n: 4 + h.below(5) as u8,
        };
        KernelPlan {
            seed,
            hopper,
            geom: Geometry {
                grid: *h.pick(&[1u32, 2]),
                block: 1024,
                cluster: 1,
            },
            segs: vec![
                Seg::Loop {
                    trips: 2 + h.below(4) as u8,
                    body: vec![burst],
                },
                Seg::GlobalSt {
                    width: Width::B4,
                    stride: 4,
                    offset: 0,
                },
            ],
        }
    }

    /// Whether this is a contended-unit plan (it holds a [`Seg::Herd`]).
    pub fn is_herd(&self) -> bool {
        fn herd(s: &Seg) -> bool {
            match s {
                Seg::Herd { .. } => true,
                Seg::Loop { body, .. } => body.iter().any(herd),
                _ => false,
            }
        }
        self.segs.iter().any(herd)
    }

    /// Whether every instruction has an asm form (no tile segments), so
    /// the round-trip and serve oracles apply.
    pub fn is_textual(&self) -> bool {
        fn textual(s: &Seg) -> bool {
            match s {
                Seg::Mma { .. } | Seg::Wgmma { .. } | Seg::TileRw { .. } => false,
                Seg::Loop { body, .. } => body.iter().all(textual),
                _ => true,
            }
        }
        self.segs.iter().all(textual)
    }

    /// Tensor-core segments drawn, as `(live, skipped)`: live when some
    /// instruction reads the segment's accumulator (`Kernel::tile_uses`),
    /// so the engine computes its product.  Segments share tile ids, so
    /// one stored accumulator makes every segment of its kind live.
    pub fn tensor_draws(&self) -> (u64, u64) {
        fn count(s: &Seg, uses: &hopper_isa::TileUses, n: &mut (u64, u64)) {
            let live = match s {
                Seg::Mma { .. } => uses.read(MMA_D, false),
                Seg::Wgmma { .. } => uses.read(WG_D, true),
                Seg::Loop { body, .. } => {
                    body.iter().for_each(|s| count(s, uses, n));
                    return;
                }
                _ => return,
            };
            if live {
                n.0 += 1;
            } else {
                n.1 += 1;
            }
        }
        let uses = self.kernel().tile_uses();
        let mut n = (0, 0);
        self.segs.iter().for_each(|s| count(s, &uses, &mut n));
        n
    }

    /// Build the kernel (deterministic in the plan).
    pub fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new(format!("fuzz_{:016x}", self.seed));
        b.shared_mem(SMEM);
        b.special(R_TID, Special::TidX);
        b.special(Reg(2), Special::CtaIdX);
        b.mov(R_ACC, imm((self.seed & 0xFFFF) as i64));
        b.mov(R_FACC, imm(((self.seed >> 16) & 0xFFFF) as i64));
        for s in &self.segs {
            emit_seg(&mut b, s, &self.geom);
        }
        b.exit();
        b.build()
    }

    /// Launch description for the kernel, given the allocated buffer.
    pub fn launch(&self, buf: u64) -> Launch {
        let mut l = Launch::new(self.geom.grid, self.geom.block).with_params(vec![buf]);
        if self.geom.cluster > 1 {
            l = l.with_cluster(self.geom.cluster);
        }
        l
    }

    /// Plan with only the segments whose index is in `keep` (shrinker).
    pub fn with_segments(&self, segs: Vec<Seg>) -> KernelPlan {
        KernelPlan {
            segs,
            ..self.clone()
        }
    }

    /// Number of segments including loop bodies (shrink progress metric).
    pub fn seg_count(&self) -> usize {
        fn count(s: &Seg) -> usize {
            match s {
                Seg::Loop { body, .. } => 1 + body.iter().map(count).sum::<usize>(),
                _ => 1,
            }
        }
        self.segs.iter().map(count).sum()
    }

    /// Human-readable plan description for repro dumps.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "seed {:#018x}  grid {} block {} cluster {}  hopper {}\n",
            self.seed, self.geom.grid, self.geom.block, self.geom.cluster, self.hopper
        );
        for (i, s) in self.segs.iter().enumerate() {
            out.push_str(&format!("  seg[{i}]: {s:?}\n"));
        }
        out
    }
}

fn gen_seg(g: &mut SplitMix64, geom: &Geometry, hopper: bool, allow_loop: bool) -> Seg {
    if allow_loop && g.chance(1, 5) {
        let trips = 2 + g.below(5) as u8;
        let n = 1 + g.below(3) as usize;
        let body = (0..n).map(|_| gen_seg(g, geom, hopper, false)).collect();
        return Seg::Loop { trips, body };
    }
    loop {
        match g.below(14) {
            0 | 1 => {
                let n = 1 + g.below(4) as usize;
                let ops = (0..n)
                    .map(|_| {
                        let op = *g.pick(&[
                            IAluOp::Add,
                            IAluOp::Sub,
                            IAluOp::Mul,
                            IAluOp::Min,
                            IAluOp::Max,
                            IAluOp::And,
                            IAluOp::Or,
                            IAluOp::Xor,
                        ]);
                        (op, g.below(1 << 20) as i64)
                    })
                    .collect();
                return Seg::IntChain(ops);
            }
            2 => {
                return Seg::FloatChain {
                    f64_: g.chance(1, 3),
                    fma: g.chance(1, 2),
                    n: 1 + g.below(4) as u8,
                }
            }
            3 => {
                return Seg::Dpx(
                    *g.pick(&DPX_FUNCS),
                    g.below(1 << 16) as i64,
                    g.below(1 << 16) as i64,
                )
            }
            4 | 5 => {
                return Seg::GlobalLd {
                    cop: *g.pick(&COPS),
                    width: *g.pick(&WIDTHS),
                    stride: *g.pick(&STRIDES),
                    offset: g.below(GBUF_BYTES) as i64,
                }
            }
            6 => {
                return Seg::GlobalSt {
                    width: *g.pick(&WIDTHS),
                    stride: *g.pick(&STRIDES),
                    offset: g.below(GBUF_BYTES) as i64,
                }
            }
            7 => {
                return Seg::GlobalAtom {
                    fetch: g.chance(1, 2),
                    offset: g.below(GBUF_BYTES) as i64,
                }
            }
            8 => {
                return Seg::SharedRw {
                    width: *g.pick(&WIDTHS),
                    stride: *g.pick(&STRIDES),
                    offset: g.below(SMEM as u64) as i64,
                }
            }
            9 => {
                return Seg::SharedAtom {
                    fetch: g.chance(1, 2),
                    offset: g.below(SMEM as u64) as i64,
                }
            }
            10 => {
                return Seg::CpAsync {
                    width: *g.pick(&CP_WIDTHS),
                    soff: g.below(SMEM as u64) as i64,
                    goff: g.below(GBUF_BYTES) as i64,
                }
            }
            11 => {
                return if g.chance(1, 2) {
                    Seg::Bar
                } else {
                    Seg::SelMix {
                        cmp: *g.pick(&[
                            CmpOp::Eq,
                            CmpOp::Ne,
                            CmpOp::Lt,
                            CmpOp::Le,
                            CmpOp::Gt,
                            CmpOp::Ge,
                        ]),
                        threshold: g.below(1 << 16) as i64,
                    }
                };
            }
            12 => {
                let pat = if g.chance(1, 2) {
                    TilePattern::Zero
                } else {
                    TilePattern::Random { seed: g.next_u64() }
                };
                // A third of the tile segments move a tile instead of
                // multiplying one (128 B, so any 128-aligned offset below
                // SMEM fits both spaces).
                if g.chance(1, 3) {
                    return Seg::TileRw {
                        shared: g.chance(1, 2),
                        offset: g.below(SMEM as u64 / 128) as i64 * 128,
                        pat,
                    };
                }
                // wgmma needs a Hopper warp group; otherwise fall back to
                // warp-synchronous mma, which every modelled arch has.
                if hopper && geom.block >= 128 && g.chance(1, 2) {
                    let descs = wgmma_descs();
                    return Seg::Wgmma {
                        desc: *g.pick(&descs),
                        pat,
                        store: false,
                    };
                }
                let descs = mma_descs();
                return Seg::Mma {
                    desc: *g.pick(&descs),
                    pat,
                    store: false,
                };
            }
            _ => {
                if geom.cluster == 2 {
                    return Seg::ClusterExchange {
                        offset: (g.below(SMEM as u64) as i64) & SMASK,
                    };
                }
                // No cluster in this launch: re-roll.
            }
        }
    }
}

/// Set `store` on about half the tensor segments in `s` (loop bodies
/// included).  A `wgmma` stores only where its accumulator fits the one
/// slot below [`WG_STORE_BYTES`] that the grid's first leader owns.
fn mark_stores(s: &mut Seg, st: &mut SplitMix64) {
    match s {
        Seg::Mma { store, .. } => *store = st.chance(1, 2),
        Seg::Wgmma { desc, store, .. } => {
            *store = st.chance(1, 2) && wg_bytes(desc) <= WG_STORE_BYTES;
        }
        Seg::Loop { body, .. } => body.iter_mut().for_each(|s| mark_stores(s, st)),
        _ => {}
    }
}

/// Bytes of a `wgmma` accumulator tile (32-bit elements).
fn wg_bytes(desc: &MmaDesc) -> i64 {
    desc.m as i64 * desc.n as i64 * 4
}

/// The accumulator tiles of the tensor segments.
const MMA_D: TileId = TileId(3);
const WG_D: TileId = TileId(6);

/// Compute into `dst` the global address of this warp's slot: the
/// buffer plus `base + (index of the warp's `1 << shift`-thread group in
/// the grid) · bytes`.
fn emit_slot(b: &mut KernelBuilder, dst: Reg, geom: &Geometry, shift: i64, base: i64, bytes: i64) {
    b.imad(dst, reg(Reg(2)), imm(geom.block as i64), reg(R_TID));
    b.ialu(IAluOp::Shr, dst, reg(dst), imm(shift));
    b.imad(dst, reg(dst), imm(bytes), imm(base));
    b.ialu(IAluOp::Add, dst, reg(dst), reg(R_BUF));
}

/// Compute a masked per-lane global address into `R_ADDR`.
fn emit_gaddr(b: &mut KernelBuilder, dst: Reg, stride: i64, offset: i64) {
    b.imad(dst, reg(R_TID), imm(stride), imm(offset));
    b.ialu(IAluOp::And, dst, reg(dst), imm(GMASK));
    b.ialu(IAluOp::Add, dst, reg(dst), reg(R_BUF));
}

/// Compute a masked per-lane shared address into `dst`.
fn emit_saddr(b: &mut KernelBuilder, dst: Reg, stride: i64, offset: i64) {
    b.imad(dst, reg(R_TID), imm(stride), imm(offset));
    b.ialu(IAluOp::And, dst, reg(dst), imm(SMASK));
}

fn emit_seg(b: &mut KernelBuilder, s: &Seg, geom: &Geometry) {
    match s {
        Seg::IntChain(ops) => {
            for (op, v) in ops {
                b.ialu(*op, R_ACC, reg(R_ACC), imm(*v));
            }
        }
        Seg::FloatChain { f64_, fma, n } => {
            for i in 0..*n {
                if *fma && i % 2 == 1 {
                    b.ffma(R_FACC, reg(R_FACC), reg(R_FACC), reg(R_ACC));
                } else if *f64_ {
                    b.falu64(FAluOp::Add, R_FACC, reg(R_FACC), reg(R_FACC));
                } else {
                    b.falu(FAluOp::Mul, R_FACC, reg(R_FACC), reg(R_FACC));
                }
            }
        }
        Seg::Dpx(f, x, y) => {
            b.dpx(*f, R_ACC, reg(R_ACC), imm(*x), imm(*y));
        }
        Seg::GlobalLd {
            cop,
            width,
            stride,
            offset,
        } => {
            emit_gaddr(b, R_ADDR, *stride, *offset);
            b.ld(MemSpace::Global, *cop, *width, R_TMP, R_ADDR, 0);
            b.ialu(IAluOp::Add, R_ACC, reg(R_ACC), reg(R_TMP));
        }
        Seg::GlobalSt {
            width,
            stride,
            offset,
        } => {
            emit_gaddr(b, R_ADDR, *stride, *offset);
            b.st(MemSpace::Global, *width, R_ACC, R_ADDR, 0);
        }
        Seg::GlobalAtom { fetch, offset } => {
            emit_gaddr(b, R_ADDR, 0, *offset);
            let dst = fetch.then_some(R_TMP);
            b.atom_add(MemSpace::Global, dst, R_ADDR, 0, imm(1));
            if *fetch {
                b.ialu(IAluOp::Add, R_ACC, reg(R_ACC), reg(R_TMP));
            }
        }
        Seg::SharedRw {
            width,
            stride,
            offset,
        } => {
            emit_saddr(b, R_ADDR, *stride, *offset);
            b.st(MemSpace::Shared, *width, R_ACC, R_ADDR, 0);
            b.ld(MemSpace::Shared, CacheOp::Ca, *width, R_TMP, R_ADDR, 0);
            b.ialu(IAluOp::Xor, R_ACC, reg(R_ACC), reg(R_TMP));
        }
        Seg::SharedAtom { fetch, offset } => {
            emit_saddr(b, R_ADDR, 0, *offset);
            b.atom_add(MemSpace::Shared, fetch.then_some(R_TMP), R_ADDR, 0, imm(1));
            if *fetch {
                b.ialu(IAluOp::Add, R_ACC, reg(R_ACC), reg(R_TMP));
            }
        }
        Seg::CpAsync { width, soff, goff } => {
            emit_saddr(b, R_ADDR, width.bytes() as i64, *soff);
            emit_gaddr(b, R_ADDR2, width.bytes() as i64, *goff);
            b.cp_async(*width, (R_ADDR, 0), (R_ADDR2, 0));
            b.cp_async_commit();
            b.cp_async_wait(0);
        }
        Seg::Bar => {
            b.bar_sync();
        }
        Seg::SelMix { cmp, threshold } => {
            b.setp(P_SEL, *cmp, reg(R_ACC), imm(*threshold));
            b.sel(R_TMP, P_SEL, reg(R_ACC), imm(7));
            b.ialu(IAluOp::Xor, R_ACC, reg(R_ACC), reg(R_TMP));
        }
        Seg::Mma { desc, pat, store } => {
            let (m, n, k) = (desc.m as u16, desc.n as u16, desc.k as u16);
            b.fill_tile(TileId(0), desc.ab, m, k, *pat);
            b.fill_tile(TileId(1), desc.ab, k, n, *pat);
            b.fill_tile(TileId(2), desc.cd, m, n, TilePattern::Zero);
            b.mma(*desc, MMA_D, TileId(0), TileId(1), TileId(2));
            if *store {
                emit_slot(b, R_ADDR, geom, 5, WG_STORE_BYTES, MMA_STORE_BYTES);
                b.st_tile(MMA_D, MemSpace::Global, R_ADDR, 0);
            }
        }
        Seg::TileRw {
            shared,
            offset,
            pat,
        } => {
            let space = if *shared {
                b.mov(R_ADDR, imm(*offset));
                MemSpace::Shared
            } else {
                b.ialu(IAluOp::Add, R_ADDR, reg(R_BUF), imm(*offset));
                MemSpace::Global
            };
            b.fill_tile(TileId(7), DType::F16, 8, 8, *pat);
            b.st_tile(TileId(7), space, R_ADDR, 0);
            b.ld_tile(TileId(8), DType::F16, 8, 8, space, R_ADDR, 0);
        }
        Seg::Wgmma { desc, pat, store } => {
            let (m, n, k) = (desc.m as u16, desc.n as u16, desc.k as u16);
            b.fill_tile(TileId(4), desc.ab, m, k, *pat);
            b.fill_tile(TileId(5), desc.ab, k, n, *pat);
            b.fill_tile(WG_D, desc.cd, m, n, TilePattern::Zero);
            b.wgmma_fence();
            b.wgmma(*desc, WG_D, TileId(4), TileId(5));
            b.wgmma_commit();
            b.wgmma_wait(0);
            if *store {
                // Only a leader holds the product, and only the grid's
                // first one (warp 0 of block 0) stores it, so its slot is
                // the whole `wgmma` region; every other warp branches
                // around the store (warp-uniformly).  The store still makes
                // every leader's product live: `tile_uses` is per kernel.
                let skip = b.forward_label();
                b.special(R_TMP, Special::WarpId);
                b.ialu(IAluOp::Or, R_TMP, reg(R_TMP), reg(Reg(2)));
                b.setp(P_FOLLOWER, CmpOp::Ne, reg(R_TMP), imm(0));
                b.bra_if(skip, P_FOLLOWER, true);
                b.st_tile(WG_D, MemSpace::Global, R_BUF, 0);
                b.place(skip);
            }
        }
        Seg::ClusterExchange { offset } => {
            b.mapa(R_ADDR, imm(*offset), imm(1));
            b.atom_add(MemSpace::SharedCluster, None, R_ADDR, 0, imm(1));
            b.cluster_sync();
        }
        Seg::Herd { op, n } => {
            if *op == HerdOp::LdCa {
                emit_gaddr(b, R_ADDR, 4, 0);
            }
            let dsts = [Reg(8), R_ADDR2, R_TMP];
            for i in 0..*n as usize {
                let d = dsts[i % 3];
                match op {
                    HerdOp::Dpx(f) => b.dpx(*f, d, reg(R_ACC), reg(R_TID), imm(i as i64)),
                    HerdOp::Fp64 => b.falu64(FAluOp::Add, d, reg(R_FACC), reg(R_TID)),
                    HerdOp::LdCa => {
                        let off = i as i64 * 4096;
                        b.ld(MemSpace::Global, CacheOp::Ca, Width::B4, d, R_ADDR, off)
                    }
                };
            }
            b.ialu(
                IAluOp::Add,
                R_ACC,
                reg(R_ACC),
                reg(dsts[(*n as usize - 1) % 3]),
            );
        }
        Seg::Loop { trips, body } => {
            b.mov(R_LOOP, imm(0));
            let top = b.label_here();
            for s in body {
                emit_seg(b, s, geom);
            }
            b.ialu(IAluOp::Add, R_LOOP, reg(R_LOOP), imm(1));
            b.setp(P_LOOP, CmpOp::Lt, reg(R_LOOP), imm(*trips as i64));
            b.bra_if(top, P_LOOP, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_kernel() {
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            let a = KernelPlan::generate(seed, true);
            let b = KernelPlan::generate(seed, true);
            assert_eq!(a.kernel().digest(), b.kernel().digest());
            assert_eq!(a.geom.grid, b.geom.grid);
        }
    }

    #[test]
    fn plans_build_valid_kernels() {
        let mut textual = 0;
        for seed in 0..60u64 {
            for hopper in [false, true] {
                let p = KernelPlan::generate(seed, hopper);
                let k = p.kernel();
                assert!(k.instrs.len() >= 5, "seed {seed}: degenerate kernel");
                assert_eq!(
                    p.is_textual(),
                    hopper_isa::is_textual(&k),
                    "seed {seed}: plan/kernel textuality disagree"
                );
                if !hopper {
                    // Non-Hopper plans must not contain Hopper-only ops.
                    assert_eq!(p.geom.cluster, 1);
                    assert!(!k
                        .instrs
                        .iter()
                        .any(|i| matches!(i, hopper_isa::Instr::Wgmma { .. })));
                }
                if p.is_textual() {
                    textual += 1;
                    let text = hopper_isa::disassemble(&k).expect("textual plan disassembles");
                    let k2 = hopper_isa::asm::assemble_named(&text, &k.name)
                        .unwrap_or_else(|e| panic!("seed {seed}: line {}: {}", e.line, e.msg));
                    assert_eq!(
                        k.instrs, k2.instrs,
                        "seed {seed}: round-trip changed program"
                    );
                }
            }
        }
        assert!(textual > 30, "generator produces too few textual kernels");
    }
}
