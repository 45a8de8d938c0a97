//! Kernels and the fluent [`KernelBuilder`].

use crate::instr::{
    AddrExpr, CacheOp, CmpOp, FAluOp, FloatPrec, IAluOp, Instr, MemSpace, Operand, Pred, Reg,
    Special, Width,
};
use std::collections::HashMap;

/// A forward-referenceable branch label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A compiled kernel: a flat instruction list with resolved branch targets
/// plus its static resource footprint (used by the occupancy calculator).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Instruction stream.
    pub instrs: Vec<Instr>,
    /// Registers per thread (highest register index + 1, minimum 16 — the
    /// allocator granularity on real hardware).
    pub regs_per_thread: u32,
    /// Static shared memory per block, bytes.
    pub smem_bytes: u32,
    /// Human-readable name for traces.
    pub name: String,
}

/// Hardware limit on registers per thread.
pub const MAX_REGS_PER_THREAD: u32 = 256;
/// Predicate registers per thread.
pub const NUM_PREDS: u8 = 8;

/// Why [`Kernel::validate`] rejected a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError {
    /// Offending instruction index (`None` = a whole-kernel defect).
    pub pc: Option<usize>,
    /// What is wrong.
    pub msg: String,
}

impl core::fmt::Display for KernelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "pc {pc}: {}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}
impl std::error::Error for KernelError {}

impl Kernel {
    /// Assemble a kernel from its parts, deriving the register footprint
    /// from [`Instr::operands`] (highest register touched + 1, minimum 16,
    /// rounded up to the allocator granularity of 8).
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>, smem_bytes: u32) -> Kernel {
        let top = instrs
            .iter()
            .filter_map(|i| i.operands().regs().iter().map(|r| r.0).max())
            .max()
            .unwrap_or(0);
        Kernel {
            instrs,
            regs_per_thread: (top as u32 + 1).max(16).div_ceil(8) * 8,
            smem_bytes,
            name: name.into(),
        }
    }

    /// Check everything the simulator indexes with: every register operand
    /// below `regs_per_thread` (itself at most [`MAX_REGS_PER_THREAD`]),
    /// every predicate below [`NUM_PREDS`], every branch target inside the
    /// stream, and a closing `exit`.  The assembler, the builder and
    /// `Gpu::launch` all call this, so the engine never sees a kernel that
    /// fails it.
    pub fn validate(&self) -> Result<(), KernelError> {
        let err = |pc, msg| Err(KernelError { pc, msg });
        if !matches!(self.instrs.last(), Some(Instr::Exit)) {
            return err(None, "kernel must end with `exit`".into());
        }
        let nregs = self.regs_per_thread.min(MAX_REGS_PER_THREAD);
        for (pc, i) in self.instrs.iter().enumerate() {
            let at = |what: String| err(Some(pc), format!("`{}`: {what}", i.mnemonic()));
            let ops = i.operands();
            if let Some(r) = ops.regs().iter().find(|r| r.0 as u32 >= nregs) {
                return at(format!(
                    "register {r} out of range (kernel has {} registers per thread, \
                     limit {MAX_REGS_PER_THREAD})",
                    self.regs_per_thread
                ));
            }
            if let Some(p) = [ops.pred_read, ops.pred_write]
                .into_iter()
                .flatten()
                .find(|p| p.0 >= NUM_PREDS)
            {
                return at(format!(
                    "predicate {p} out of range (%p0..%p{})",
                    NUM_PREDS - 1
                ));
            }
            if let Instr::Bra { target, .. } = i {
                if *target >= self.instrs.len() {
                    return at(format!(
                        "branch target {target} past the last instruction ({})",
                        self.instrs.len() - 1
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of dynamic tensor-core instructions (for sanity checks).
    pub fn count_matching(&self, pred: impl Fn(&Instr) -> bool) -> usize {
        self.instrs.iter().filter(|i| pred(i)).count()
    }

    /// Stable content digest: order-sensitive FNV-1a 64 over the
    /// instruction stream (with resolved branch targets), the
    /// launch-relevant resource fields and the kernel name.
    ///
    /// Two kernels digest equal iff they would execute and occupy
    /// identically, so the digest is safe as a result-cache key
    /// (`hopper-serve`) and as a provenance stamp in profiler reports.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        // The derived Debug form is a canonical, field-complete rendering
        // of each instruction (no hidden state in `Instr`), separated by
        // `;` so instruction boundaries can't alias.
        for i in &self.instrs {
            feed(format!("{i:?};").as_bytes());
        }
        feed(&self.regs_per_thread.to_le_bytes());
        feed(&self.smem_bytes.to_le_bytes());
        feed(self.name.as_bytes());
        h
    }

    /// [`Self::digest`] as a fixed-width 16-char lowercase hex string.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

/// Fluent kernel builder with label patching.
///
/// ```
/// use hopper_isa::{KernelBuilder, Reg, Operand, IAluOp, CmpOp, Pred};
///
/// let mut b = KernelBuilder::new("count_to_ten");
/// b.mov(Reg(1), Operand::Imm(0));
/// let top = b.label_here();
/// b.ialu(IAluOp::Add, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1));
/// b.setp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(1)), Operand::Imm(10));
/// b.bra_if(top, Pred(0), true);
/// b.exit();
/// let k = b.build();
/// assert_eq!(k.instrs.len(), 5);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    instrs: Vec<Instr>,
    labels: HashMap<Label, usize>,
    pending: Vec<(usize, Label)>,
    next_label: usize,
    smem_bytes: u32,
    name: String,
}

impl KernelBuilder {
    /// Start a new kernel.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            instrs: Vec::new(),
            labels: HashMap::new(),
            pending: Vec::new(),
            next_label: 0,
            smem_bytes: 0,
            name: name.into(),
        }
    }

    /// Declare static shared memory for the block.
    pub fn shared_mem(&mut self, bytes: u32) -> &mut Self {
        self.smem_bytes = self.smem_bytes.max(bytes);
        self
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Place a label at the current position.
    pub fn label_here(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        self.labels.insert(l, self.instrs.len());
        l
    }

    /// Create a label to be placed later with [`Self::place`].
    pub fn forward_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Place a previously created forward label here.
    pub fn place(&mut self, l: Label) -> &mut Self {
        self.labels.insert(l, self.instrs.len());
        self
    }

    /// `mov dst, src`.
    pub fn mov(&mut self, dst: Reg, src: Operand) -> &mut Self {
        self.push(Instr::Mov { dst, src })
    }

    /// Integer ALU op.
    pub fn ialu(&mut self, op: IAluOp, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.push(Instr::IAlu { op, dst, a, b })
    }

    /// Integer multiply-add.
    pub fn imad(&mut self, dst: Reg, a: Operand, b: Operand, c: Operand) -> &mut Self {
        self.push(Instr::IMad { dst, a, b, c })
    }

    /// Float ALU op (f32).
    pub fn falu(&mut self, op: FAluOp, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.push(Instr::FAlu {
            op,
            prec: FloatPrec::F32,
            dst,
            a,
            b,
        })
    }

    /// Float ALU op (f64).
    pub fn falu64(&mut self, op: FAluOp, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.push(Instr::FAlu {
            op,
            prec: FloatPrec::F64,
            dst,
            a,
            b,
        })
    }

    /// Fused multiply-add (f32).
    pub fn ffma(&mut self, dst: Reg, a: Operand, b: Operand, c: Operand) -> &mut Self {
        self.push(Instr::FFma {
            prec: FloatPrec::F32,
            dst,
            a,
            b,
            c,
        })
    }

    /// DPX function.
    pub fn dpx(
        &mut self,
        func: crate::dpx::DpxFunc,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    ) -> &mut Self {
        self.push(Instr::Dpx { func, dst, a, b, c })
    }

    /// Set predicate.
    pub fn setp(&mut self, pred: Pred, cmp: CmpOp, a: Operand, b: Operand) -> &mut Self {
        self.push(Instr::SetP { pred, cmp, a, b })
    }

    /// Unconditional branch.
    pub fn bra(&mut self, target: Label) -> &mut Self {
        self.pending.push((self.instrs.len(), target));
        self.push(Instr::Bra {
            target: usize::MAX,
            guard: None,
        })
    }

    /// Guarded branch (`@p` if `when` else `@!p`).
    pub fn bra_if(&mut self, target: Label, pred: Pred, when: bool) -> &mut Self {
        self.pending.push((self.instrs.len(), target));
        self.push(Instr::Bra {
            target: usize::MAX,
            guard: Some((pred, when)),
        })
    }

    /// Load.
    #[allow(clippy::too_many_arguments)]
    pub fn ld(
        &mut self,
        space: MemSpace,
        cop: CacheOp,
        width: Width,
        dst: Reg,
        base: Reg,
        offset: i64,
    ) -> &mut Self {
        self.push(Instr::Ld {
            space,
            cop,
            width,
            dst,
            addr: AddrExpr { base, offset },
        })
    }

    /// Store.
    pub fn st(
        &mut self,
        space: MemSpace,
        width: Width,
        src: Reg,
        base: Reg,
        offset: i64,
    ) -> &mut Self {
        self.push(Instr::St {
            space,
            width,
            src,
            addr: AddrExpr { base, offset },
        })
    }

    /// Atomic add.
    pub fn atom_add(
        &mut self,
        space: MemSpace,
        dst: Option<Reg>,
        base: Reg,
        offset: i64,
        src: Operand,
    ) -> &mut Self {
        self.push(Instr::AtomAdd {
            space,
            dst,
            addr: AddrExpr { base, offset },
            src,
        })
    }

    /// Asynchronous global→shared copy.
    pub fn cp_async(&mut self, width: Width, smem: (Reg, i64), gmem: (Reg, i64)) -> &mut Self {
        self.push(Instr::CpAsync {
            width,
            smem: AddrExpr {
                base: smem.0,
                offset: smem.1,
            },
            gmem: AddrExpr {
                base: gmem.0,
                offset: gmem.1,
            },
        })
    }

    /// Commit the outstanding `cp.async` operations as a group.
    pub fn cp_async_commit(&mut self) -> &mut Self {
        self.push(Instr::CpAsyncCommit)
    }

    /// Wait until at most `groups` copy groups remain outstanding.
    pub fn cp_async_wait(&mut self, groups: u8) -> &mut Self {
        self.push(Instr::CpAsyncWait { groups })
    }

    /// TMA bulk 2-D tensor copy (global→shared).
    pub fn tma_copy(
        &mut self,
        rows: u16,
        row_bytes: u16,
        gstride: u32,
        smem: (Reg, i64),
        gmem: (Reg, i64),
    ) -> &mut Self {
        self.push(Instr::TmaCopy {
            rows,
            row_bytes,
            gstride,
            smem: AddrExpr {
                base: smem.0,
                offset: smem.1,
            },
            gmem: AddrExpr {
                base: gmem.0,
                offset: gmem.1,
            },
        })
    }

    /// Load a tile from memory.
    #[allow(clippy::too_many_arguments)]
    pub fn ld_tile(
        &mut self,
        tile: crate::TileId,
        dtype: crate::DType,
        rows: u16,
        cols: u16,
        space: MemSpace,
        base: Reg,
        offset: i64,
    ) -> &mut Self {
        self.push(Instr::LdTile {
            tile,
            dtype,
            rows,
            cols,
            space,
            addr: AddrExpr { base, offset },
        })
    }

    /// Store a tile to memory.
    pub fn st_tile(
        &mut self,
        tile: crate::TileId,
        space: MemSpace,
        base: Reg,
        offset: i64,
    ) -> &mut Self {
        self.push(Instr::StTile {
            tile,
            space,
            addr: AddrExpr { base, offset },
        })
    }

    /// Fill a tile in place (benchmark setup; no memory traffic).
    pub fn fill_tile(
        &mut self,
        tile: crate::TileId,
        dtype: crate::DType,
        rows: u16,
        cols: u16,
        pattern: crate::TilePattern,
    ) -> &mut Self {
        self.push(Instr::FillTile {
            tile,
            dtype,
            rows,
            cols,
            pattern,
        })
    }

    /// Warp-synchronous tensor-core `mma`.
    pub fn mma(
        &mut self,
        desc: crate::MmaDesc,
        d: crate::TileId,
        a: crate::TileId,
        b: crate::TileId,
        c: crate::TileId,
    ) -> &mut Self {
        self.push(Instr::Mma { desc, d, a, b, c })
    }

    /// Asynchronous warp-group `wgmma`.
    pub fn wgmma(
        &mut self,
        desc: crate::MmaDesc,
        d: crate::TileId,
        a: crate::TileId,
        b: crate::TileId,
    ) -> &mut Self {
        self.push(Instr::Wgmma { desc, d, a, b })
    }

    /// `wgmma.fence`.
    pub fn wgmma_fence(&mut self) -> &mut Self {
        self.push(Instr::WgmmaFence)
    }

    /// `wgmma.commit_group`.
    pub fn wgmma_commit(&mut self) -> &mut Self {
        self.push(Instr::WgmmaCommit)
    }

    /// `wgmma.wait_group N`.
    pub fn wgmma_wait(&mut self, groups: u8) -> &mut Self {
        self.push(Instr::WgmmaWait { groups })
    }

    /// `mapa`: map a shared address to the block ranked `rank`.
    pub fn mapa(&mut self, dst: Reg, addr: Operand, rank: Operand) -> &mut Self {
        self.push(Instr::Mapa { dst, addr, rank })
    }

    /// Cluster-wide barrier.
    pub fn cluster_sync(&mut self) -> &mut Self {
        self.push(Instr::ClusterSync)
    }

    /// Select `dst = pred ? a : b`.
    pub fn sel(&mut self, dst: Reg, pred: Pred, a: Operand, b: Operand) -> &mut Self {
        self.push(Instr::Sel { dst, pred, a, b })
    }

    /// Read a special register.
    pub fn special(&mut self, dst: Reg, sr: Special) -> &mut Self {
        self.push(Instr::ReadSpecial { dst, sr })
    }

    /// Block barrier.
    pub fn bar_sync(&mut self) -> &mut Self {
        self.push(Instr::BarSync)
    }

    /// Kernel exit.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Instr::Exit)
    }

    /// Resolve labels and produce the kernel.
    ///
    /// # Panics
    /// Panics on an unplaced label or a kernel that fails
    /// [`Kernel::validate`] — no closing `exit`, a register or predicate
    /// out of range (all authoring bugs worth failing fast on).
    pub fn build(mut self) -> Kernel {
        for (idx, label) in std::mem::take(&mut self.pending) {
            let target = *self
                .labels
                .get(&label)
                .unwrap_or_else(|| panic!("label {label:?} never placed in kernel {}", self.name));
            match &mut self.instrs[idx] {
                Instr::Bra { target: t, .. } => *t = target,
                other => unreachable!("pending patch on non-branch {other:?}"),
            }
        }
        let k = Kernel::new(self.name, self.instrs, self.smem_bytes);
        if let Err(e) = k.validate() {
            panic!("kernel {}: {e}", k.name);
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_with_backward_label() {
        let mut b = KernelBuilder::new("loop");
        b.mov(Reg(1), Operand::Imm(0));
        let top = b.label_here();
        b.ialu(IAluOp::Add, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1));
        b.setp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(1)), Operand::Imm(4));
        b.bra_if(top, Pred(0), true);
        b.exit();
        let k = b.build();
        match &k.instrs[3] {
            Instr::Bra { target, guard } => {
                assert_eq!(*target, 1);
                assert_eq!(*guard, Some((Pred(0), true)));
            }
            other => panic!("expected bra, got {other:?}"),
        }
    }

    #[test]
    fn forward_label() {
        let mut b = KernelBuilder::new("fwd");
        let end = b.forward_label();
        b.bra(end);
        b.mov(Reg(0), Operand::Imm(9));
        b.place(end);
        b.exit();
        let k = b.build();
        match &k.instrs[0] {
            Instr::Bra { target, .. } => assert_eq!(*target, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn register_footprint_rounds_up() {
        let mut b = KernelBuilder::new("regs");
        b.mov(Reg(37), Operand::Imm(0));
        b.exit();
        let k = b.build();
        assert_eq!(k.regs_per_thread, 40); // 38 rounded to 8-granularity
    }

    #[test]
    #[should_panic(expected = "must end with `exit`")]
    fn missing_exit_panics() {
        let mut b = KernelBuilder::new("noexit");
        b.mov(Reg(0), Operand::Imm(0));
        b.build();
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn unplaced_label_panics() {
        let mut b = KernelBuilder::new("dangling");
        let l = b.forward_label();
        b.bra(l);
        b.exit();
        b.build();
    }

    /// A hand-built kernel whose declared footprint lies is caught by
    /// `validate`, and `push` (which the builder never inspected) now
    /// counts like every other emitter.
    #[test]
    fn validate_rejects_what_the_engine_cannot_index() {
        let ld_v4 = Instr::Ld {
            space: MemSpace::Global,
            cop: CacheOp::Ca,
            width: Width::B16,
            dst: Reg(15),
            addr: AddrExpr {
                base: Reg(0),
                offset: 0,
            },
        };
        let lying = Kernel {
            instrs: vec![ld_v4.clone(), Instr::Exit],
            regs_per_thread: 16,
            smem_bytes: 0,
            name: "lying".into(),
        };
        let e = lying.validate().unwrap_err();
        assert_eq!(e.pc, Some(0));
        assert!(e.to_string().contains("%r16"), "{e}");
        assert_eq!(Kernel::new("k", lying.instrs.clone(), 0).validate(), Ok(()));

        let mut b = KernelBuilder::new("pushed");
        b.push(ld_v4).exit();
        assert_eq!(b.build().regs_per_thread, 24);

        let no_exit = Kernel::new("k", vec![Instr::BarSync], 0);
        assert_eq!(no_exit.validate().unwrap_err().pc, None);
        let wild = Instr::Bra {
            target: 2,
            guard: Some((Pred(8), true)),
        };
        let e = Kernel::new("k", vec![wild, Instr::Exit], 0)
            .validate()
            .unwrap_err();
        assert!(e.msg.contains("%p8"), "{e}");
    }

    fn two_instr_kernel(name: &str, imm: i64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        b.mov(Reg(1), Operand::Imm(imm));
        b.exit();
        b.build()
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let k = two_instr_kernel("k", 7);
        // Stable across clones and calls.
        assert_eq!(k.digest(), k.clone().digest());
        assert_eq!(k.digest_hex().len(), 16);
        assert_eq!(k.digest_hex(), format!("{:016x}", k.digest()));
        // Any content change moves the digest: operand, name, smem.
        assert_ne!(k.digest(), two_instr_kernel("k", 8).digest());
        assert_ne!(k.digest(), two_instr_kernel("k2", 7).digest());
        let mut b = KernelBuilder::new("k");
        b.shared_mem(256);
        b.mov(Reg(1), Operand::Imm(7));
        b.exit();
        assert_ne!(k.digest(), b.build().digest());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut b1 = KernelBuilder::new("ord");
        b1.mov(Reg(1), Operand::Imm(1));
        b1.mov(Reg(2), Operand::Imm(2));
        b1.exit();
        let mut b2 = KernelBuilder::new("ord");
        b2.mov(Reg(2), Operand::Imm(2));
        b2.mov(Reg(1), Operand::Imm(1));
        b2.exit();
        assert_ne!(b1.build().digest(), b2.build().digest());
    }
}
