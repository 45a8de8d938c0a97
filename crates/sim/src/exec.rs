//! Issue and execute: the scoreboard check, the [`Unit`] table every
//! SM-owned reservation goes through, and the functional + timing model of
//! the ALU, FP, DPX and tensor-core instructions.  Memory instructions
//! dispatch to `lsu.rs`.

use super::{
    Engine, Gate, IssueResult, SimFaultKind, Stalled, WarpStatus, DSM_TAG, MEM_QUEUE_DEPTH,
};
use crate::power;
use crate::replay::ReplayRec;
use crate::tc_timing;
use crate::tiles::{check_mma, execute_mma, Tile};
use hopper_isa::{
    AddrExpr, DpxFunc, FAluOp, FloatPrec, IAluOp, Instr, Kernel, MmaDesc, MmaKind, Operand, Pred,
    Reg, Special, TileId,
};
use hopper_trace::StallReason;
use std::array::from_fn;
use std::collections::HashMap;

/// When a [`Unit`] admits a new reservation.
#[derive(Debug, Clone, Copy)]
enum Admit {
    /// Math pipes: while the backlog is at most this many cycles; a
    /// refused attempt retries that many cycles before the pipe frees.
    Backlog(u64),
    /// Tensor cores: if the unit frees within this cycle (fractional
    /// initiation intervals; `acquire` still serialises at the exact II).
    ThisCycle,
    /// Memory ports: while the queue extends at most [`MEM_QUEUE_DEPTH`]
    /// cycles ahead (finite MSHR/queue depth).
    Queue,
}

/// One way an issue attempt can hold an SM-owned functional unit or port.
/// Every such reservation in the engine is an [`Engine::reserve`] or
/// [`Engine::occupy`] of a row of this table.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Name in unit spans and occupancy records.
    pub name: &'static str,
    /// Index of this row in [`Unit::ALL`] (what a refusal's [`Gate`] holds).
    row: u8,
    /// Index of the unit's limiter in `SmState::units`.
    limiter: usize,
    admit: Admit,
    /// What a refused attempt reports.
    stall: StallReason,
}

/// Limiters per SM: one per [`Unit::ALL`] row but the last.
pub(super) const N_UNITS: usize = 12;

/// A row whose limiter is its own index; only [`Unit::INT_SEQ`] shares one.
const fn unit(name: &'static str, row: usize, admit: Admit, stall: StallReason) -> Unit {
    Unit {
        name,
        row: row as u8,
        limiter: row,
        admit,
        stall,
    }
}

#[allow(missing_docs)] // the names say it
impl Unit {
    pub const INT: Unit = unit("int", 0, Admit::Backlog(0), StallReason::MathPipeBusy);
    pub const FP32: Unit = unit("fp32", 1, Admit::Backlog(2), StallReason::MathPipeBusy);
    pub const FP64: Unit = unit("fp64", 2, Admit::Backlog(2), StallReason::MathPipeBusy);
    pub const DPX: Unit = unit("dpx", 3, Admit::Backlog(4), StallReason::MathPipeBusy);
    /// The whole SM's tensor cores, as `wgmma` occupies them.
    pub const TENSOR_WG: Unit = unit(
        "tensor.wg",
        4,
        Admit::ThisCycle,
        StallReason::TensorPipeBusy,
    );
    pub const L1_PORT: Unit = unit("l1_port", 5, Admit::Queue, StallReason::MioQueueFull);
    pub const SMEM_PORT: Unit = unit("smem_port", 6, Admit::Queue, StallReason::MioQueueFull);
    pub const DSM_PORT: Unit = unit("dsm_port", 7, Admit::Queue, StallReason::MioQueueFull);
    /// The tensor core of scheduler quadrant `q` (`mma`).
    pub const fn tensor(q: usize) -> Unit {
        unit(
            "tensor",
            8 + q,
            Admit::ThisCycle,
            StallReason::TensorPipeBusy,
        )
    }
    /// The integer pipe as a multi-instruction sequence holds it (emulated
    /// DPX, lowered INT4 `mma`): [`Unit::INT`]'s limiter, deeper slack.
    pub const INT_SEQ: Unit = Unit {
        row: N_UNITS as u8,
        ..unit("int", 0, Admit::Backlog(4), StallReason::MathPipeBusy)
    };

    /// Every row, limiter-major: the first [`N_UNITS`] are one per limiter
    /// in the order the end-of-wave occupancy records leave in.
    pub const ALL: [Unit; N_UNITS + 1] = [
        Unit::INT,
        Unit::FP32,
        Unit::FP64,
        Unit::DPX,
        Unit::TENSOR_WG,
        Unit::L1_PORT,
        Unit::SMEM_PORT,
        Unit::DSM_PORT,
        Unit::tensor(0),
        Unit::tensor(1),
        Unit::tensor(2),
        Unit::tensor(3),
        Unit::INT_SEQ,
    ];
}

// A refusal names its row by index; every row must sit at its own.
const _: () = {
    let mut i = 0;
    while i < Unit::ALL.len() {
        assert!(Unit::ALL[i].row as usize == i);
        i += 1;
    }
};

impl<'a> Engine<'a> {
    // ------------------------------------------------------------ units

    /// The admission half of [`Self::reserve`]: would `unit` accept a
    /// reservation at `now`?  Mutates nothing.
    #[inline]
    pub(super) fn admit(&self, sm: usize, unit: Unit, now: f64) -> Result<(), Stalled> {
        let free = self.sms[sm].units[unit.limiter].free_at();
        let until = match unit.admit {
            Admit::Backlog(slack) if free > now + slack as f64 => free as u64 - slack,
            Admit::ThisCycle if free >= now + 1.0 => free as u64,
            Admit::Queue if free > now + MEM_QUEUE_DEPTH => free as u64,
            _ => return Ok(()),
        };
        Err(Stalled(until, unit.stall, Some(Gate::Unit(unit.row))))
    }

    /// Ask `gate` again, exactly as the door that set it asks.
    #[inline]
    fn readmit(&mut self, sm: usize, gate: Gate, now: f64) -> Result<(), Stalled> {
        match gate {
            Gate::Unit(row) => self.admit(sm, Unit::ALL[row as usize], now),
            Gate::Global => self.admit_global(sm, now),
        }
    }

    /// Occupy `unit` for `cost` cycles from `now` without an admission
    /// check and emit its busy span; returns the service start.
    #[inline]
    pub(super) fn occupy(&mut self, sm: usize, w: usize, unit: Unit, now: f64, cost: f64) -> f64 {
        let start = self.sms[sm].units[unit.limiter].acquire(now, cost);
        self.tr.unit(sm as u32, unit.name, w, start, cost);
        start
    }

    /// Admit, then occupy: the service start, or the stall to report.
    #[inline]
    pub(super) fn reserve(
        &mut self,
        sm: usize,
        w: usize,
        unit: Unit,
        now: f64,
        cost: f64,
    ) -> Result<f64, Stalled> {
        self.admit(sm, unit, now)?;
        Ok(self.occupy(sm, w, unit, now, cost))
    }

    // ------------------------------------------------------------ issue

    pub(super) fn try_issue(&mut self, w: usize, now: u64) -> IssueResult {
        let ws = &self.warps[w];
        if ws.status != WarpStatus::Ready {
            return IssueResult::Stalled(u64::MAX, StallReason::Barrier, None);
        }
        if ws.next_ready > now {
            return IssueResult::Stalled(ws.next_ready, StallReason::Dispatch, None);
        }
        let (pc, sm) = (ws.pc, ws.sm);

        // A warp refused at a gate has not issued since, so every check in
        // front of that gate still passes: ask the gate alone (DESIGN.md
        // §4d point 7).
        if let Some(gate) = ws.refused_by {
            if let Err(refusal) = self.readmit(sm, gate, now as f64) {
                #[cfg(debug_assertions)]
                self.check_refusal(w, now, &refusal);
                let Stalled(until, reason, gate) = refusal;
                return IssueResult::Stalled(until, reason, gate);
            }
        }

        // Data-dependency check.
        let ready_at = self.deps_ready_at(w, pc);
        if ready_at > now {
            return IssueResult::Stalled(ready_at, StallReason::Scoreboard, None);
        }

        // Structural + execute.  Copy the shared kernel reference out of
        // `self` so the borrow of the instruction doesn't pin `self` (and
        // no clone per attempt).
        let kernel: &Kernel = self.kernel;
        if let Err(Stalled(until, reason, gate)) = self.execute(w, &kernel.instrs[pc], now) {
            self.warps[w].refused_by = gate;
            return IssueResult::Stalled(until, reason, gate);
        }
        self.sm_metrics[sm].instructions += 1;
        let ws = &mut self.warps[w];
        ws.refused_by = None;
        ws.next_ready = ws.next_ready.max(now + 1);
        // Replay: follow the recorded PC sequence (this is what resolves
        // branches, whose guards are never evaluated).
        if let Some(rp) = self.replay.as_mut() {
            rp.cursors[w] += 1;
            let next = rp.streams[w].get(rp.cursors[w]).map(|r| r.pc as usize);
            if let Some(pc) = next {
                self.warps[w].pc = pc;
            }
        }
        IssueResult::Issued
    }

    /// For a warp that just issued at `now`: the wakeup of the scoreboard
    /// refusal its attempt at `now + 1` is certain to meet, or `None` when
    /// that attempt may issue or meet another refusal first (DESIGN.md §4d
    /// point 9).  Only the warp's own issues move its `reg_ready` and
    /// `pred_ready`, and a refusal in front of the scoreboard needs a
    /// barrier or a dispatch delay, both checked here.
    pub(super) fn scoreboard_wakeup(&self, w: usize, now: u64) -> Option<u64> {
        let ws = &self.warps[w];
        if ws.status != WarpStatus::Ready || ws.next_ready > now + 1 {
            return None;
        }
        debug_assert!(ws.refused_by.is_none(), "an issue clears the memo");
        let ready_at = self.deps_ready_at(w, ws.pc);
        (ready_at > now + 1).then_some(ready_at)
    }

    /// Latest ready time over every register the instruction at `pc` reads
    /// or writes (write-after-write ordering included) and the predicate
    /// it reads.
    fn deps_ready_at(&self, w: usize, pc: usize) -> u64 {
        let ws = &self.warps[w];
        let ops = &self.ops[pc];
        let pred = ops.pred_read.map_or(0, |p| ws.pred_ready[p.0 as usize]);
        let regs = ops.regs().iter().map(|r| ws.reg_ready[r.0 as usize]);
        regs.fold(pred, u64::max)
    }

    /// Debug oracle for the refusal memo: re-derive `memo` the long way —
    /// scoreboard, then `execute` — and demand the identical verdict.  A
    /// refused `execute` commits nothing, so the check leaves no trace.
    #[cfg(debug_assertions)]
    fn check_refusal(&mut self, w: usize, now: u64, memo: &Stalled) {
        let pc = self.warps[w].pc;
        let ready_at = self.deps_ready_at(w, pc);
        assert!(
            ready_at <= now,
            "warp {w} pc {pc}: memo hid a scoreboard stall"
        );
        let kernel: &Kernel = self.kernel;
        let full = self.execute(w, &kernel.instrs[pc], now);
        assert_eq!(
            full.as_ref().err(),
            Some(memo),
            "warp {w} pc {pc} cycle {now}: the memo's refusal differs from execute's"
        );
    }

    /// Debug touch-audit: a register the datapath reads or writes while
    /// issuing must be listed by `Instr::operands` for the issuing PC, or
    /// the scoreboard and the validator are blind to it.
    pub(super) fn audit_reg(&self, w: usize, r: Reg) {
        debug_assert!(
            self.ops[self.warps[w].pc].regs().contains(&r),
            "{r} touched by `{}` at pc {} but missing from Instr::operands()",
            self.kernel.instrs[self.warps[w].pc].mnemonic(),
            self.warps[w].pc
        );
    }

    // ------------------------------------------------------------- execute

    /// Execute `instr` for warp `w` at cycle `nowc`, or report why it
    /// cannot issue yet.  A stalled attempt commits nothing.  The PC
    /// advances on the way out unless the arm set it (taken branch, exit).
    fn execute(&mut self, w: usize, instr: &Instr, nowc: u64) -> Result<(), Stalled> {
        let now = nowc as f64;
        let sm = self.warps[w].sm;
        if self.tr.wants.instr {
            // Stalled attempts may leave pushes behind; the payload is
            // only read after an Issued outcome, so clearing here keeps
            // it exact.
            self.cap_payload.clear();
        }
        match instr {
            &Instr::IAlu { op, dst, a, b } => {
                self.reserve(sm, w, Unit::INT, now, 32.0 / self.dev.int_per_clk as f64)?;
                // The integer datapath is 64-bit (addresses need it); PTX
                // .s32 ops run at full width, observationally equivalent
                // for kernels that keep 32-bit quantities in range.
                self.write_row(w, dst, |e| {
                    let (x, y) = (&e.lanes(w, a), &e.lanes(w, b));
                    match op {
                        IAluOp::Add => zip(x, y, u64::wrapping_add),
                        IAluOp::Sub => zip(x, y, u64::wrapping_sub),
                        IAluOp::Mul => zip(x, y, u64::wrapping_mul),
                        IAluOp::Min => zip(x, y, |x, y| (x as i64).min(y as i64) as u64),
                        IAluOp::Max => zip(x, y, |x, y| (x as i64).max(y as i64) as u64),
                        IAluOp::And => zip(x, y, |x, y| x & y),
                        IAluOp::Or => zip(x, y, |x, y| x | y),
                        IAluOp::Xor => zip(x, y, |x, y| x ^ y),
                        IAluOp::Shl => zip(x, y, |x, y| x.wrapping_shl(y as u32)),
                        IAluOp::Shr => zip(x, y, |x, y| x.wrapping_shr(y as u32)),
                    }
                });
                self.finish_reg(w, dst, nowc + self.dev.alu_latency as u64);
                self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J;
            }
            &Instr::IMad { dst, a, b, c } => {
                self.reserve(sm, w, Unit::INT, now, 32.0 / self.dev.int_per_clk as f64)?;
                self.write_row(w, dst, |e| {
                    let (x, y, z) = (e.lanes(w, a), e.lanes(w, b), e.lanes(w, c));
                    from_fn(|l| x[l].wrapping_mul(y[l]).wrapping_add(z[l]))
                });
                self.finish_reg(w, dst, nowc + self.dev.alu_latency as u64 + 1);
                self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J;
            }
            &Instr::FAlu {
                op,
                prec,
                dst,
                a,
                b,
            } => {
                let ids = (w, sm);
                match op {
                    FAluOp::Add => self.fp_op(ids, prec, dst, [a, b], nowc, |[x, y]| x + y)?,
                    FAluOp::Mul => self.fp_op(ids, prec, dst, [a, b], nowc, |[x, y]| x * y)?,
                    FAluOp::Min => self.fp_op(ids, prec, dst, [a, b], nowc, |[x, y]| x.min(y))?,
                    FAluOp::Max => self.fp_op(ids, prec, dst, [a, b], nowc, |[x, y]| x.max(y))?,
                }
            }
            &Instr::FFma { prec, dst, a, b, c } => {
                self.fp_op((w, sm), prec, dst, [a, b, c], nowc, |[x, y, z]| x * y + z)?
            }
            &Instr::Mov { dst, src } => {
                self.occupy(sm, w, Unit::INT, now, 32.0 / self.dev.int_per_clk as f64);
                self.write_row(w, dst, |e| e.lanes(w, src));
                self.finish_reg(w, dst, nowc + 2);
            }
            &Instr::Dpx { func, dst, a, b, c } => {
                if self.dev.arch.has_dpx_hardware() {
                    self.reserve(sm, w, Unit::DPX, now, 32.0 / self.dev.dpx_per_clk as f64)?;
                    self.finish_reg(w, dst, nowc + self.dev.dpx_latency as u64);
                } else {
                    // Software emulation: a dependent chain of ALU ops.
                    let ops = func.emulation_ops(self.dev.arch);
                    let cost = ops as f64 * 32.0 / self.dev.int_per_clk as f64;
                    self.reserve(sm, w, Unit::INT_SEQ, now, cost)?;
                    self.sm_metrics[sm].instructions += ops as u64 - 1;
                    self.finish_reg(w, dst, nowc + (ops * self.dev.alu_latency) as u64);
                }
                self.write_row(w, dst, |e| {
                    let (x, y, z) = (e.lanes(w, a), e.lanes(w, b), e.lanes(w, c));
                    // One lane loop per function, each with `eval` folded
                    // to that function's arithmetic.
                    macro_rules! per_func {
                        ($($f:ident)*) => {
                            match func {
                                $(DpxFunc::$f => from_fn(|l| {
                                    let r = DpxFunc::$f.eval(x[l] as u32, y[l] as u32, z[l] as u32);
                                    r as u64
                                }),)*
                            }
                        };
                    }
                    per_func!(
                        ViAddMaxS32 ViAddMinS32 ViMax3S32 ViMin3S32 ViBMaxS32 ViAddMaxS32Relu
                        ViMax3S32Relu ViAddMaxS16x2 ViMax3S16x2 ViAddMaxS16x2Relu ViMax3S16x2Relu
                        ViAddMaxU32 ViAddMinU32 ViMax3U32 ViAddMaxU16x2 ViMax3U16x2
                    )
                });
                self.sm_metrics[sm].dpx_ops += 32;
                self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J * 1.5;
            }
            Instr::SetP { pred, cmp, a, b } => {
                let mut mask = 0u32;
                if !self.replaying() {
                    for lane in 0..32 {
                        let x = self.read_op(w, *a, lane) as i64;
                        let y = self.read_op(w, *b, lane) as i64;
                        if cmp.eval(x, y) {
                            mask |= 1 << lane;
                        }
                    }
                }
                let ws = &mut self.warps[w];
                debug_assert_eq!(self.ops[ws.pc].pred_write, Some(*pred));
                ws.pred[pred.0 as usize] = mask;
                ws.pred_ready[pred.0 as usize] = nowc + self.dev.alu_latency as u64;
                // Half a cycle of the integer pipe, and the one occupancy
                // without a busy span (traces stay as they always were).
                self.sms[sm].units[Unit::INT.limiter].acquire(now, 0.5);
            }
            &Instr::Sel { dst, pred, a, b } => {
                let pmask = self.read_pred(w, pred);
                self.write_row(w, dst, |e| {
                    let (x, y) = (e.lanes(w, a), e.lanes(w, b));
                    from_fn(|l| if pmask & (1 << l) != 0 { x[l] } else { y[l] })
                });
                self.finish_reg(w, dst, nowc + self.dev.alu_latency as u64);
            }
            // Replay: the direction is the next record's PC (applied by
            // `try_issue`); the guard predicate was never computed.
            Instr::Bra { target, guard } if !self.replaying() => {
                let taken = match guard {
                    None => true,
                    Some((p, expect)) => {
                        let mask = self.read_pred(w, *p);
                        let active = self.warps[w].active;
                        let t = mask & active;
                        if t != 0 && t != active {
                            let kind = SimFaultKind::DivergentBranch { mask: t, active };
                            self.fault(w, kind);
                            false
                        } else {
                            (t == active) == *expect
                        }
                    }
                };
                if taken {
                    self.warps[w].pc = *target;
                    return Ok(());
                }
            }
            Instr::Bra { .. } | Instr::WgmmaFence => {}
            Instr::Ld {
                space,
                cop,
                width,
                dst,
                addr,
            } => self.load((w, sm), *space, *cop, *width, *dst, *addr, now)?,
            Instr::St {
                space,
                width,
                src,
                addr,
            } => self.store((w, sm), *space, *width, *src, *addr, now)?,
            Instr::AtomAdd {
                space,
                dst,
                addr,
                src,
            } => self.atom((w, sm), *space, *dst, *addr, *src, now)?,
            Instr::CpAsync { width, smem, gmem } => {
                self.cp_async((w, sm), *width, *smem, *gmem, now)?
            }
            Instr::CpAsyncCommit => {
                let ws = &mut self.warps[w];
                let c = std::mem::take(&mut ws.cp_pending);
                ws.cp_groups.push(c);
            }
            Instr::CpAsyncWait { groups } => {
                if let Some(until) = wait_groups(&mut self.warps[w].cp_groups, *groups, now) {
                    return Err(Stalled(until, StallReason::TmaInFlight, None));
                }
            }
            Instr::TmaCopy {
                rows,
                row_bytes,
                gstride,
                smem,
                gmem,
            } => self.tma((w, sm), *rows, *row_bytes, *gstride, *smem, *gmem, now)?,
            Instr::Mma { desc, d, a, b, c } => self.mma((w, sm), desc, [*d, *a, *b, *c], nowc)?,
            Instr::Wgmma { desc, d, a, b } => self.wgmma((w, sm), desc, [*d, *a, *b], now)?,
            Instr::WgmmaCommit => {
                let e = self.wgmma_pipe(w);
                let c = std::mem::take(&mut e.0);
                e.1.push(c);
            }
            Instr::WgmmaWait { groups } => {
                if let Some(until) = wait_groups(&mut self.wgmma_pipe(w).1, *groups, now) {
                    return Err(Stalled(until, StallReason::TensorPipeBusy, None));
                }
            }
            Instr::LdTile {
                tile,
                dtype,
                rows,
                cols,
                space,
                addr,
            } => {
                let shape = (*dtype, *rows as usize, *cols as usize);
                self.ld_tile((w, sm), *tile, shape, *space, *addr, now)
            }
            Instr::StTile { tile, space, addr } => self.st_tile((w, sm), *tile, *space, *addr, now),
            Instr::FillTile {
                tile,
                dtype,
                rows,
                cols,
                pattern,
            } => {
                // Replay, and a warp that can never read the values, keep
                // only the shape (activity factors come from the trace or
                // from the A and B tiles, which are always read).
                let (rows, cols) = (*rows as usize, *cols as usize);
                let t = if self.replaying() || !self.tile_read(w, *tile) {
                    Tile::shape(*dtype, rows, cols)
                } else {
                    Tile::from_pattern(*dtype, rows, cols, *pattern)
                };
                self.put_tile(w, *tile, t);
            }
            &Instr::Mapa { dst, addr, rank } => {
                self.write_row(w, dst, |e| {
                    let (a, r) = (e.lanes(w, addr), e.lanes(w, rank));
                    from_fn(|l| DSM_TAG | ((r[l] & 0xffff) << 32) | (a[l] & 0xffff_ffff))
                });
                self.finish_reg(w, dst, nowc + self.dev.alu_latency as u64);
            }
            Instr::BarSync => {
                let bi = self.warps[w].block;
                self.blocks[bi].barrier_count += 1;
                self.sm_barrier_arrivals[sm] += 1;
                self.sm_metrics[sm].barrier_waits += 1;
                self.warps[w].status = WarpStatus::Barrier;
            }
            Instr::ClusterSync => {
                let cid = self.blocks[self.warps[w].block].spec.cluster_id;
                *self.cluster_barriers.entry(cid).or_insert(0) += 1;
                self.sm_metrics[sm].barrier_waits += 1;
                self.warps[w].status = WarpStatus::ClusterBarrier;
            }
            &Instr::ReadSpecial { dst, sr } => {
                let spec = self.blocks[self.warps[w].block].spec;
                let wib = self.warps[w].warp_in_block;
                self.write_row(w, dst, |e| match sr {
                    Special::TidX => from_fn(|l| (wib * 32 + l) as u64),
                    Special::CtaIdX => [spec.ctaid as u64; 32],
                    Special::NTidX => [e.cfg.threads_per_block as u64; 32],
                    Special::NCtaIdX => [e.cfg.grid_dim as u64; 32],
                    Special::LaneId => from_fn(|l| l as u64),
                    Special::WarpId => [wib as u64; 32],
                    Special::SmId => [spec.smid as u64; 32],
                    Special::ClusterCtaRank => [spec.cluster_rank as u64; 32],
                    Special::ClusterNCtaRank => [e.cfg.cluster_size as u64; 32],
                    Special::Clock => [nowc; 32],
                });
                self.finish_reg(w, dst, nowc + 2);
            }
            Instr::Exit => {
                self.warps[w].status = WarpStatus::Done;
                return Ok(());
            }
        }
        self.warps[w].pc += 1;
        Ok(())
    }

    // ------------------------------------------------------------- helpers

    #[inline]
    pub(super) fn finish_reg(&mut self, w: usize, r: Reg, at: u64) {
        self.audit_reg(w, r);
        self.warps[w].reg_ready[r.0 as usize] = at;
    }

    #[inline]
    pub(super) fn read_reg(&self, w: usize, r: Reg, lane: usize) -> u64 {
        self.audit_reg(w, r);
        self.warps[w].regs[r.0 as usize * 32 + lane]
    }

    #[inline]
    pub(super) fn read_op(&self, w: usize, o: Operand, lane: usize) -> u64 {
        match o {
            Operand::Imm(v) => v as u64,
            Operand::Reg(r) => self.read_reg(w, r, lane),
        }
    }

    /// A warp-uniform address (TMA descriptors, tile bases): lane 0's from
    /// the register file, or the replay record's in replay mode.  Capture
    /// mode records it.
    pub(super) fn uniform_base(&mut self, w: usize, addr: AddrExpr) -> u64 {
        let base = match self.replay_rec(w) {
            Some(rec) => rec.payload.first().copied().unwrap_or(0),
            None => self.uniform_addr(w, addr),
        };
        if self.tr.wants.instr {
            self.cap_payload.push(base);
        }
        base
    }

    pub(super) fn uniform_addr(&self, w: usize, addr: AddrExpr) -> u64 {
        self.read_reg(w, addr.base, 0)
            .wrapping_add(addr.offset as u64)
    }

    /// Lane mask of the predicate the issuing instruction reads.
    fn read_pred(&self, w: usize, p: Pred) -> u32 {
        let ws = &self.warps[w];
        debug_assert_eq!(self.ops[ws.pc].pred_read, Some(p));
        ws.pred[p.0 as usize]
    }

    /// Warp `w`'s 32 lanes of operand `o`, read once per instruction.
    #[inline]
    fn lanes(&self, w: usize, o: Operand) -> [u64; 32] {
        match o {
            Operand::Imm(v) => [v as u64; 32],
            Operand::Reg(r) => {
                self.audit_reg(w, r);
                let row = r.0 as usize * 32;
                self.warps[w].regs[row..row + 32]
                    .try_into()
                    .expect("32 lanes")
            }
        }
    }

    /// The functional write of a destination register: the whole row
    /// `f` computes, each lane from the same lane of its sources (so a
    /// destination that is also a source reads as before).  Skipped in
    /// replay, where values are never read.
    #[inline]
    fn write_row(&mut self, w: usize, dst: Reg, f: impl FnOnce(&Self) -> [u64; 32]) {
        if self.replaying() {
            return;
        }
        let v = f(self);
        let row = dst.0 as usize * 32;
        self.warps[w].regs[row..row + 32].copy_from_slice(&v);
    }

    fn fp_op<const N: usize>(
        &mut self,
        (w, sm): (usize, usize),
        prec: FloatPrec,
        dst: Reg,
        srcs: [Operand; N],
        nowc: u64,
        f: impl Fn([f64; N]) -> f64,
    ) -> Result<(), Stalled> {
        let alu = self.dev.alu_latency as u64;
        let (unit, per_clk, lat) = match prec {
            FloatPrec::F32 => (Unit::FP32, self.dev.fp32_per_clk, alu),
            FloatPrec::F64 => {
                let per_clk = self.dev.fp64_per_clk;
                (Unit::FP64, per_clk, alu + (32 / per_clk) as u64)
            }
        };
        self.reserve(sm, w, unit, nowc as f64, 32.0 / per_clk as f64)?;
        self.write_row(w, dst, |e| {
            // Row by row into place: `srcs.map` would copy each 256-byte
            // row again on its way through `array::try_map`.
            let v: [[u64; 32]; N] = from_fn(|k| e.lanes(w, srcs[k]));
            match prec {
                FloatPrec::F32 => from_fn(|l| {
                    let r = f(from_fn(|k| f32::from_bits(v[k][l] as u32) as f64));
                    (r as f32).to_bits() as u64
                }),
                FloatPrec::F64 => from_fn(|l| f(from_fn(|k| f64::from_bits(v[k][l]))).to_bits()),
            }
        });
        self.finish_reg(w, dst, nowc + lat);
        self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J;
        Ok(())
    }

    /// Current replay record for warp `w` (`None` in functional mode).
    /// Only valid during `execute` of a non-`Done` warp: stream
    /// validation guarantees `exit` terminates every stream, so the
    /// cursor is in bounds whenever an instruction can still issue.
    pub(super) fn replay_rec(&self, w: usize) -> Option<&'a ReplayRec> {
        let rp = self.replay.as_ref()?;
        let s: &'a [ReplayRec] = rp.streams[w];
        Some(&s[rp.cursors[w]])
    }

    pub(super) fn replaying(&self) -> bool {
        self.replay.is_some()
    }

    // -------------------------------------------------------- tensor cores

    /// Tile ownership key: per *warp*.  `mma` runs per warp; for `wgmma`
    /// only the group leader (warp 4k) touches tiles, so its per-warp key
    /// doubles as the group's tile namespace.
    pub(super) fn tile_owner(&self, w: usize) -> u32 {
        self.warps[w].warp_in_block as u32
    }

    /// Can warp `w` ever read tile `id`'s values (`Kernel::tile_uses`)?
    pub(super) fn tile_read(&self, w: usize, id: TileId) -> bool {
        let leader = self.warps[w].warp_in_block.is_multiple_of(4);
        self.tile_uses.read(id, leader)
    }

    /// Install `t` as tile `id` of warp `w`.
    pub(super) fn put_tile(&mut self, w: usize, id: TileId, t: Tile) {
        let key = self.tile_owner(w);
        let bi = self.warps[w].block;
        self.blocks[bi].tiles.insert((key, id.0), t);
    }

    /// Warp `w`'s `wgmma` commit-group pipeline: per warp group, so every
    /// member warp's `wgmma.wait_group` observes the leader's.
    fn wgmma_pipe(&mut self, w: usize) -> &mut (f64, Vec<f64>) {
        let ws = &self.warps[w];
        let key = 0x1000 + ws.warp_in_block as u32 / 4;
        self.blocks[ws.block].wgmma.entry(key).or_default()
    }

    fn mma(
        &mut self,
        (w, sm): (usize, usize),
        desc: &MmaDesc,
        [d, a, b, c]: [TileId; 4],
        nowc: u64,
    ) -> Result<(), Stalled> {
        if !desc.supported_on(self.dev.arch) {
            self.fault(w, SimFaultKind::UnsupportedOnDevice);
            return Ok(());
        }
        let now = nowc as f64;
        let key = self.tile_owner(w);
        let bi = self.warps[w].block;

        // Accumulator/operand dependency: a dependent chain of mma ops
        // serialises at the completion latency (this is exactly what the
        // paper's single-warp latency benchmark measures).
        let dep = [d, a, b, c]
            .iter()
            .filter_map(|t| self.blocks[bi].tile_ready.get(&(key, t.0)).copied())
            .max()
            .unwrap_or(0);
        if dep > nowc {
            return Err(Stalled(dep, StallReason::Scoreboard, None));
        }

        // Hopper INT4 falls back to IMAD on the integer pipe (Table VI).
        let lowered =
            hopper_isa::lower::sass_for(self.dev.arch, desc).expect("descriptor validated above");
        let tensor = lowered.unit != hopper_isa::lower::ExecUnit::CudaCore;
        let start = if tensor {
            let mut ii = tc_timing::mma_interval(self.dev, desc);
            if !self.cfg.opts.mma_issue_gap {
                ii -= self.dev.mma_issue_gap;
            }
            let quadrant = Unit::tensor(self.warps[w].scheduler);
            self.reserve(sm, w, quadrant, now, ii)?
        } else {
            let cost = lowered.expansion as f64 * 32.0 / self.dev.int_per_clk as f64;
            let start = self.reserve(sm, w, Unit::INT_SEQ, now, cost)?;
            self.sm_metrics[sm].instructions += lowered.expansion as u64 - 1;
            start
        };
        let Some(act) = self.mma_act(w, desc, [d, a, b], Some(c)) else {
            return Ok(());
        };
        self.sm_metrics[sm].tc_ops += desc.flops();
        if tensor {
            self.sm_metrics[sm].energy_j += desc.flops() as f64
                * power::tc_energy_per_flop(self.dev, desc.ab, desc.cd, desc.sparse, MmaKind::Mma)
                * act;
            let done = (start + tc_timing::mma_latency(self.dev, desc)).ceil() as u64;
            self.blocks[bi].tile_ready.insert((key, d.0), done);
        }
        Ok(())
    }

    fn wgmma(
        &mut self,
        (w, sm): (usize, usize),
        desc: &MmaDesc,
        dab: [TileId; 3],
        now: f64,
    ) -> Result<(), Stalled> {
        if !desc.supported_on(self.dev.arch) {
            self.fault(w, SimFaultKind::UnsupportedOnDevice);
            return Ok(());
        }
        // Only the warp-group leader drives the tensor cores.
        if !self.warps[w].warp_in_block.is_multiple_of(4) {
            return Ok(());
        }
        let ii = tc_timing::wgmma_interval_opts(self.dev, desc, self.cfg.opts.sparse_ss_penalty);
        let start = self.reserve(sm, w, Unit::TENSOR_WG, now, ii)?;
        // Results become accessible at the completion latency even though
        // the pipeline stays occupied for the full initiation interval
        // (accumulator forwarding) — this is what the paper's "completion
        // latency" measures (N/2 = 128 at N=256 while the sustained
        // interval is ~142).
        let done = start + tc_timing::wgmma_latency(self.dev, desc);
        let Some(act) = self.mma_act(w, desc, dab, None) else {
            return Ok(());
        };
        self.sm_metrics[sm].tc_ops += desc.flops();
        self.sm_metrics[sm].energy_j += desc.flops() as f64
            * power::tc_energy_per_flop(self.dev, desc.ab, desc.cd, desc.sparse, MmaKind::Wgmma)
            * act;
        // B always streams from shared memory; A only when sourced there.
        let a_smem = match desc.a_src {
            hopper_isa::OperandSource::SharedShared if desc.sparse => desc.a_smem_bytes_ss(),
            hopper_isa::OperandSource::SharedShared => desc.a_bytes(),
            _ => 0,
        };
        self.sm_metrics[sm].smem_bytes += a_smem + desc.b_bytes();
        let e = self.wgmma_pipe(w);
        e.0 = e.0.max(done);
        Ok(())
    }

    /// Run the functional datapath of an `mma`/`wgmma` and return the
    /// operand activity factor for the power model (capture mode records
    /// it), or `None` after recording a fault for a missing or ill-fitting
    /// operand tile.  A D that this warp can never read gets every check
    /// and its shape, not its values.  Replay takes the factor from the
    /// trace instead — it is tile-*value*-dependent and the values are
    /// gone, the one non-address operand a trace must carry — and
    /// registers only the destination tile's shape, so downstream
    /// `st.tile`/`mma` find it.
    fn mma_act(
        &mut self,
        w: usize,
        desc: &MmaDesc,
        [d, a, b]: [TileId; 3],
        c: Option<TileId>,
    ) -> Option<f64> {
        let (bi, key) = (self.warps[w].block, self.tile_owner(w));
        if let Some(rec) = self.replay_rec(w) {
            let shape = Tile::shape(desc.cd, desc.m as usize, desc.n as usize);
            self.blocks[bi].tiles.insert((key, d.0), shape);
            let act = rec.payload.first();
            return Some(act.map_or(1.0, |&bits| f64::from_bits(bits)));
        }
        let live = self.tile_read(w, d);
        let tiles = &self.blocks[bi].tiles;
        let (out, act) = match mma_functional(desc, tiles, key, [d, a, b], c, live) {
            Ok(done) => done,
            Err(kind) => {
                self.fault(w, kind);
                return None;
            }
        };
        self.blocks[bi].tiles.insert((key, d.0), out);
        let act = power::ACT_FLOOR + (1.0 - power::ACT_FLOOR) * act.min(1.0);
        if self.tr.wants.instr {
            self.cap_payload.push(act.to_bits());
        }
        Some(act)
    }
}

/// `D = A·B + C` over warp `key`'s tiles (`C` is `D` itself for `wgmma`,
/// zeros if it was never written): the result and the raw operand activity.
/// When D is not `live` (nothing ever reads its values), every check of the
/// product still runs, in the same order, and D is its shape alone.
/// Operands are used by reference — cloning A/B/C (hundreds of KB for a
/// full-size wgmma) per instruction would dwarf the datapath cost.
fn mma_functional(
    desc: &MmaDesc,
    tiles: &HashMap<(u32, u8), Tile>,
    key: u32,
    [d, a, b]: [TileId; 3],
    c: Option<TileId>,
    live: bool,
) -> Result<(Tile, f64), SimFaultKind> {
    let get = |id: TileId| {
        let missing = SimFaultKind::TileNotInitialised { tile: id.0 };
        tiles.get(&(key, id.0)).ok_or(missing)
    };
    let (ta, tb) = (get(a)?, get(b)?);
    debug_assert!(ta.has_values() && tb.has_values(), "A/B read as shapes");
    // 2:4-sparse A stores half its elements as structural zeros; the
    // *compressed* data the hardware toggles is the non-zero half.
    let act_a = if desc.sparse {
        (ta.activity() * 2.0).min(1.0)
    } else {
        ta.activity()
    };
    let act = (act_a + tb.activity()) / 2.0;
    let (m, n) = (desc.m as usize, desc.n as usize);
    let absent;
    let tc = match c {
        Some(ct) => get(ct)?,
        None => match tiles.get(&(key, d.0)) {
            Some(t) => t,
            None => {
                absent = if live {
                    Tile::zeros(desc.cd, m, n)
                } else {
                    Tile::shape(desc.cd, m, n)
                };
                &absent
            }
        },
    };
    let mismatch = |_| SimFaultKind::TileMismatch;
    if !live {
        check_mma(desc, ta, tb, tc).map_err(mismatch)?;
        return Ok((Tile::shape(desc.cd, m, n), act));
    }
    debug_assert!(tc.has_values(), "C read as a shape");
    Ok((execute_mma(desc, ta, tb, tc).map_err(mismatch)?, act))
}

/// Lane-wise `f` over two operand rows.
#[inline(always)]
fn zip(x: &[u64; 32], y: &[u64; 32], f: impl Fn(u64, u64) -> u64) -> [u64; 32] {
    from_fn(|l| f(x[l], y[l]))
}

/// `*.wait_group N` over a FIFO of commit-group completion times: retire
/// the groups done by `now`; if more than `keep` are still in flight,
/// return when the oldest excess one completes.
fn wait_groups(groups: &mut Vec<f64>, keep: u8, now: f64) -> Option<u64> {
    while !groups.is_empty() && groups[0] <= now {
        groups.remove(0);
    }
    let excess = groups.len().checked_sub(keep as usize + 1)?;
    Some(groups[excess].ceil() as u64)
}
