//! The SM side of every memory instruction: lane addresses, the shared
//! memory accessors, the coalescer and L1 lookup in front of the memory
//! side, and the `ld`/`st`/`atom`/`cp.async`/TMA/tile instructions built
//! from them.  Everything here is SM-local except what goes through
//! [`Engine::shared`].

use super::exec::Unit;
use super::memside::Fetch;
use super::{Engine, Gate, SimFaultKind, Stalled, CP_ASYNC_EXTRA_LATENCY, DSM_TAG};
use crate::mem::{bank_conflict_degree, coalesce_sectors_into, le_read};
use crate::power;
use crate::replay::ReplayRec;
use crate::tiles::{decode_elem, encode_elem, Tile};
use hopper_isa::{AddrExpr, CacheOp, DType, MemSpace, Operand, Reg, TileId, Width};

/// Active lanes of a warp-wide access, as `(lane, address)`, and the stack
/// buffer they are gathered into.
type Lanes = [(usize, u64)];
type LaneBuf = [(usize, u64); 32];

/// Coalescer output of one global access (sectors, then the lines L1 did
/// not serve).  Lives on the SM so the buffers amortise across the whole
/// run.
#[derive(Default)]
pub(super) struct Coalesced {
    sectors: Vec<u64>,
    missed: Vec<u64>,
}

impl Engine<'_> {
    // ------------------------------------------------------ lane addresses

    /// Active-lane addresses, written into a caller-provided stack buffer
    /// (memory instructions are the hot path; no per-instruction
    /// allocation).
    fn lane_addrs<'b>(&self, w: usize, addr: AddrExpr, buf: &'b mut LaneBuf) -> &'b Lanes {
        self.audit_reg(w, addr.base);
        let ws = &self.warps[w];
        let mut n = 0;
        for lane in 0..32 {
            if ws.active & (1 << lane) != 0 {
                let base = ws.regs[addr.base.0 as usize * 32 + lane];
                buf[n] = (lane, base.wrapping_add(addr.offset as u64));
                n += 1;
            }
        }
        &buf[..n]
    }

    /// Lane addresses at issue: from the replay record in replay mode,
    /// from the register file otherwise.  Capture mode records them.
    fn issue_lanes<'b>(&mut self, w: usize, addr: AddrExpr, buf: &'b mut LaneBuf) -> &'b Lanes {
        let lanes = match self.replay_rec(w) {
            Some(rec) => rec_lanes(rec, buf),
            None => self.lane_addrs(w, addr, buf),
        };
        if self.tr.wants.instr {
            self.cap_payload.extend(lanes.iter().map(|&(_, a)| a));
        }
        lanes
    }

    // ------------------------------------------------------- shared memory

    /// The `n` bytes of shared memory at a possibly-`mapa`-tagged address,
    /// bounds-checked.  An unmapped rank or an out-of-range span records a
    /// fault and yields `None`.  (`always`, here and on the accessor pair:
    /// they run per lane, and as calls cost shared atomics 30 %.)
    #[inline(always)]
    fn smem_span(&mut self, w: usize, addr: u64, n: u64) -> Option<&mut [u8]> {
        let own = self.warps[w].block;
        let (bi, off) = if addr & DSM_TAG != 0 {
            let rank = ((addr >> 32) & 0xffff) as u32;
            let cid = self.blocks[own].spec.cluster_id;
            let peer =
                |b: &super::BlockState| b.spec.cluster_id == cid && b.spec.cluster_rank == rank;
            let Some(bi) = self.blocks.iter().position(peer) else {
                self.fault(w, SimFaultKind::RankNotResident { rank });
                return None;
            };
            (bi, addr & 0xffff_ffff)
        } else {
            (own, addr)
        };
        let size = self.blocks[bi].smem.len() as u64;
        if off.checked_add(n).is_none_or(|end| end > size) {
            self.fault(w, SimFaultKind::SharedOutOfBounds { offset: off, size });
            return None;
        }
        Some(&mut self.blocks[bi].smem[off as usize..(off + n) as usize])
    }

    /// Functional read of `n ≤ 8` bytes in `space`, little-endian; a
    /// faulting shared access reads as zero.
    #[inline(always)]
    fn read_mem(&mut self, (w, sm): (usize, usize), space: MemSpace, addr: u64, n: u64) -> u64 {
        if space == MemSpace::Global {
            return self.shared(sm).0.global().read_scalar(addr, n);
        }
        self.smem_span(w, addr, n).map_or(0, |span| le_read(span))
    }

    /// Functional write of the low `n ≤ 8` bytes of `v` in `space`; a
    /// faulting shared access writes nothing.
    #[inline(always)]
    fn write_mem(&mut self, (w, sm): (usize, usize), space: MemSpace, addr: u64, n: u64, v: u64) {
        if space == MemSpace::Global {
            self.shared(sm).0.global().write_scalar(addr, n, v);
        } else if let Some(span) = self.smem_span(w, addr, n) {
            span.copy_from_slice(&v.to_le_bytes()[..n as usize]);
        }
    }

    /// [`Self::read_mem`] at each of `addrs` in order, into `out`; global
    /// memory resolves a page once per run of same-page addresses.
    fn read_many(
        &mut self,
        (w, sm): (usize, usize),
        space: MemSpace,
        n: u64,
        addrs: &[u64],
        out: &mut [u64],
    ) {
        if space == MemSpace::Global {
            return self.shared(sm).0.global().read_scalars(n, addrs, out);
        }
        if !self.smem_read_warp(w, n, addrs, out) {
            for (o, &a) in out.iter_mut().zip(addrs) {
                *o = self.read_mem((w, sm), space, a, n);
            }
        }
    }

    /// The warp-level shared read: the block is resolved once and, when no
    /// lane carries a `mapa` tag and every lane's span is in bounds, each
    /// lane reads at a fixed width.  Otherwise it reads nothing and returns
    /// `false`, and the caller's per-lane [`Self::read_mem`] raises the
    /// first fault exactly as before.
    fn smem_read_warp(&self, w: usize, n: u64, addrs: &[u64], out: &mut [u64]) -> bool {
        let smem = &self.blocks[self.warps[w].block].smem;
        let size = smem.len() as u64;
        let fits = |&a: &u64| a & DSM_TAG == 0 && a.checked_add(n).is_some_and(|end| end <= size);
        if !addrs.iter().all(fits) {
            return false;
        }
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = le_read(&smem[a as usize..(a + n) as usize]);
        }
        true
    }

    /// [`Self::write_mem`] of each `(addr, v)` in order; global memory
    /// resolves a page once per run of same-page addresses.
    fn write_many(
        &mut self,
        (w, sm): (usize, usize),
        space: MemSpace,
        n: u64,
        writes: &[(u64, u64)],
    ) {
        if space == MemSpace::Global {
            return self.shared(sm).0.global().write_scalars(n, writes);
        }
        for &(a, v) in writes {
            self.write_mem((w, sm), space, a, n, v);
        }
    }

    /// Bank-conflict degree, honouring the ablation toggle.
    fn conflict_degree(&self, addrs: impl Iterator<Item = u64> + Clone, width: u64) -> f64 {
        if self.cfg.opts.model_bank_conflicts {
            bank_conflict_degree(addrs, width) as f64
        } else {
            1.0
        }
    }

    fn dsm_bw_eff(&self) -> f64 {
        let cs = self.cfg.cluster_size.max(2) as f64;
        self.dev.dsm_bw_per_sm / (1.0 + self.dev.dsm_contention_per_cs * (cs - 2.0))
    }

    /// Reserve the SM's own shared-memory port, or its DSM port for a
    /// `remote` access, for `cost` cycles and count the bytes moved.
    fn shared_port(
        &mut self,
        (w, sm): (usize, usize),
        remote: bool,
        nbytes: u64,
        now: f64,
        cost: f64,
    ) -> Result<f64, Stalled> {
        let unit = if remote {
            Unit::DSM_PORT
        } else {
            Unit::SMEM_PORT
        };
        let start = self.reserve(sm, w, unit, now, cost)?;
        let m = &mut self.sm_metrics[sm];
        if remote {
            m.dsm_bytes += nbytes;
        } else {
            m.smem_bytes += nbytes;
        }
        Ok(start)
    }

    // ------------------------------------------------------- global memory

    /// Admission of a global `ld`/`st`/`cp.async`: room in the SM's L1
    /// port queue and no backpressure from the memory side.  Either refusal
    /// names the pair, so a retry re-asks both in this order.
    pub(super) fn admit_global(&mut self, sm: usize, now: f64) -> Result<(), Stalled> {
        let gated = |Stalled(until, reason, _)| Stalled(until, reason, Some(Gate::Global));
        self.admit(sm, Unit::L1_PORT, now).map_err(gated)?;
        self.shared(sm).0.backpressure(now).map_err(gated)
    }

    /// Timing of a coalesced global access: the SM's L1 port and L1 tags,
    /// then the memory side for whatever missed.  Returns the completion
    /// cycle.
    fn global_access(
        &mut self,
        (w, sm): (usize, usize),
        addrs: impl Iterator<Item = u64>,
        bytes: u64,
        cop: CacheOp,
        now: f64,
    ) -> u64 {
        // The scratch buffers move out of `self` for the duration of the
        // access (they are only touched here), so the borrow checker lets
        // the cache/limiter state mutate while they are live.
        let mut co = std::mem::take(&mut self.sms[sm].coalesced);
        coalesce_sectors_into(addrs, bytes, &mut co.sectors);
        let total_bytes = (co.sectors.len() * 32) as u64;
        self.sm_metrics[sm].l1_bytes += total_bytes;

        // L1 port occupancy regardless of hit/miss.
        let l1_cost = total_bytes as f64 / self.dev.l1_bw.for_width(bytes);
        let start = self.occupy(sm, w, Unit::L1_PORT, now, l1_cost);

        // One L1 lookup per touched line (sectors arrive grouped by line);
        // only `.ca` accesses allocate in L1.
        co.missed.clear();
        let mut prev = u64::MAX;
        for &s in &co.sectors {
            let line = s / 128;
            if line == prev {
                continue;
            }
            prev = line;
            if cop == CacheOp::Ca {
                let hit = self.l1[sm].access(line * 128);
                #[cfg(debug_assertions)]
                {
                    self.dbg_l1_lookups += 1;
                }
                if hit {
                    continue;
                }
            }
            co.missed.push(line);
        }
        let l1_done = start + l1_cost + self.dev.l1_latency as f64 - 1.0;
        let fetch = Fetch {
            warp: w,
            start,
            width: bytes,
            sectors: &co.sectors,
            missed: &co.missed,
        };
        let (mem, tr, m) = self.shared(sm);
        let (served, tlb_penalty) = mem.fetch(&fetch, m, tr);
        self.sms[sm].coalesced = co;
        (l1_done.max(served) + tlb_penalty).ceil() as u64
    }

    /// Timing of a `ld`/`st`, one path per space: the L1 port and the
    /// memory side for global (admitted by the caller before it gathered
    /// lanes); for shared, admission and bank-conflict serialisation on the
    /// SM's own port or bandwidth only on the DSM network.  Returns the
    /// cycle a load's data is back, and whether a shared access left the SM.
    fn ldst_time(
        &mut self,
        (w, sm): (usize, usize),
        (space, cop): (MemSpace, CacheOp),
        lanes: &Lanes,
        bytes: u64,
        now: f64,
    ) -> Result<(u64, bool), Stalled> {
        if space == MemSpace::Global {
            let addrs = lanes.iter().map(|&(_, a)| a);
            return Ok((self.global_access((w, sm), addrs, bytes, cop, now), false));
        }
        let remote = is_remote(space, lanes);
        let nbytes = lanes.len() as u64 * bytes;
        let (cost, lat) = if remote {
            (nbytes as f64 / self.dsm_bw_eff(), self.dev.dsm_latency)
        } else {
            let degree = self.conflict_degree(lanes.iter().map(|&(_, a)| a), bytes);
            let stream = nbytes as f64 / self.dev.smem_bw;
            (degree.max(stream), self.dev.smem_latency - 1)
        };
        let start = self.shared_port((w, sm), remote, nbytes, now, cost)?;
        Ok(((start + cost) as u64 + lat as u64, remote))
    }

    // -------------------------------------------------------- instructions

    #[allow(clippy::too_many_arguments)]
    pub(super) fn load(
        &mut self,
        (w, sm): (usize, usize),
        space: MemSpace,
        cop: CacheOp,
        width: Width,
        dst: Reg,
        addr: AddrExpr,
        now: f64,
    ) -> Result<(), Stalled> {
        if space == MemSpace::Global {
            self.admit_global(sm, now)?;
        }
        let mut abuf = [(0usize, 0u64); 32];
        let lanes = self.issue_lanes(w, addr, &mut abuf);
        let bytes = width.bytes();
        let (done, remote) = self.ldst_time((w, sm), (space, cop), lanes, bytes, now)?;
        if space != MemSpace::Global {
            let per_byte = if remote {
                power::L2_ENERGY_PER_BYTE_J
            } else {
                power::SMEM_ENERGY_PER_BYTE_J
            };
            self.sm_metrics[sm].energy_j += lanes.len() as f64 * bytes as f64 * per_byte;
        }
        if !self.replaying() {
            // Lane-major ≤ 8-byte accesses: `.v4` adds a second one 8 bytes
            // up, into the pair's second register.
            let wide = width == Width::B16;
            let k = 1 + wide as usize;
            let (mut addrs, mut vals) = ([0u64; 64], [0u64; 64]);
            for (&(_, a), at) in lanes.iter().zip(addrs.chunks_exact_mut(k)) {
                at[0] = a;
                if wide {
                    at[1] = a + 8;
                }
            }
            let n = lanes.len() * k;
            self.read_many((w, sm), space, bytes.min(8), &addrs[..n], &mut vals[..n]);
            let (lo, hi) = (dst.0 as usize * 32, (dst.0 + 1) as usize * 32);
            let regs = &mut self.warps[w].regs;
            for (&(lane, _), v) in lanes.iter().zip(vals.chunks_exact(k)) {
                regs[lo + lane] = v[0];
                if wide {
                    regs[hi + lane] = v[1];
                }
            }
        }
        self.finish_reg(w, dst, done);
        if width == Width::B16 {
            self.finish_reg(w, Reg(dst.0 + 1), done);
        }
        Ok(())
    }

    pub(super) fn store(
        &mut self,
        (w, sm): (usize, usize),
        space: MemSpace,
        width: Width,
        src: Reg,
        addr: AddrExpr,
        now: f64,
    ) -> Result<(), Stalled> {
        if space == MemSpace::Global {
            self.admit_global(sm, now)?;
        }
        let mut abuf = [(0usize, 0u64); 32];
        let lanes = self.issue_lanes(w, addr, &mut abuf);
        let bytes = width.bytes();
        // Stores are fire-and-forget; they still consume bandwidth.
        self.ldst_time((w, sm), (space, CacheOp::Cg), lanes, bytes, now)?;
        if !self.replaying() {
            // Lane-major like `load`'s, so a later lane wins an overlap.
            let wide = width == Width::B16;
            let k = 1 + wide as usize;
            let mut writes = [(0u64, 0u64); 64];
            for (&(lane, a), at) in lanes.iter().zip(writes.chunks_exact_mut(k)) {
                at[0] = (a, self.read_reg(w, src, lane));
                if wide {
                    at[1] = (a + 8, self.read_reg(w, Reg(src.0 + 1), lane));
                }
            }
            self.write_many((w, sm), space, bytes.min(8), &writes[..lanes.len() * k]);
        }
        Ok(())
    }

    pub(super) fn atom(
        &mut self,
        (w, sm): (usize, usize),
        space: MemSpace,
        dst: Option<Reg>,
        addr: AddrExpr,
        src: Operand,
        now: f64,
    ) -> Result<(), Stalled> {
        if space == MemSpace::Global {
            self.admit(sm, Unit::L1_PORT, now)?;
        }
        let mut abuf = [(0usize, 0u64); 32];
        let lanes = self.issue_lanes(w, addr, &mut abuf);
        let done = match space {
            MemSpace::Global => {
                // Atomics resolve at L2 (admitted above, before the lanes).
                let (mem, tr, m) = self.shared(sm);
                mem.atomic(now, lanes.len(), w, m, tr) as u64
            }
            MemSpace::Shared | MemSpace::SharedCluster => {
                let remote = is_remote(space, lanes);
                // Same-address collisions serialise (longest run over the
                // sorted lane addresses; stack buffer, no per-instruction
                // map).
                let mut sorted = [0u64; 32];
                for (k, &(_, a)) in lanes.iter().enumerate() {
                    sorted[k] = a;
                }
                let sorted = &mut sorted[..lanes.len()];
                sorted.sort_unstable();
                let runs = sorted.chunk_by(|a, b| a == b).map(<[u64]>::len);
                let serial = runs.max().unwrap_or(1) as f64;
                let (lat, cost) = if remote {
                    let stream = lanes.len() as f64 * 4.0 / self.dsm_bw_eff();
                    (self.dev.dsm_latency as f64, stream.max(serial))
                } else {
                    let offsets = lanes.iter().map(|&(_, a)| a & !DSM_TAG & 0xffff_ffff);
                    let degree = self.conflict_degree(offsets, 4);
                    (self.dev.smem_latency as f64, degree.max(serial))
                };
                let nbytes = lanes.len() as u64 * 4;
                let start = self.shared_port((w, sm), remote, nbytes, now, cost)?;
                (start + cost + lat) as u64
            }
        };
        // Functional: sequential lane order.
        if !self.replaying() {
            for &(lane, a) in lanes {
                let old = self.read_mem((w, sm), space, a, 4) as u32;
                let add = self.read_op(w, src, lane) as u32;
                self.write_mem((w, sm), space, a, 4, old.wrapping_add(add) as u64);
                if let Some(d) = dst {
                    self.warps[w].regs[d.0 as usize * 32 + lane] = old as u64;
                }
            }
        }
        if let Some(d) = dst {
            self.finish_reg(w, d, done);
        }
        Ok(())
    }

    /// Functional global→shared copy of `n` bytes (8-byte chunks: one page
    /// probe per chunk instead of one per byte).
    fn copy_to_shared(&mut self, (w, sm): (usize, usize), gsrc: u64, sdst: u64, n: u64) {
        let mut i = 0;
        while i < n {
            let chunk = (n - i).min(8);
            let v = self.read_mem((w, sm), MemSpace::Global, gsrc + i, chunk);
            self.write_mem((w, sm), MemSpace::Shared, sdst + i, chunk, v);
            i += chunk;
        }
    }

    /// The tail `cp.async` and TMA share: the shared-memory write stream
    /// of `nbytes` fetched by cycle `fetched`, folded into the warp's
    /// pending async group.  The shared-memory port cost is charged at
    /// issue (reserving it at the far-future completion time would falsely
    /// serialise every later shared access behind this copy).
    fn async_fill(&mut self, (w, sm): (usize, usize), nbytes: u64, fetched: u64, now: f64) {
        let smem_cost = nbytes as f64 / self.dev.smem_bw;
        self.occupy(sm, w, Unit::SMEM_PORT, now, smem_cost);
        self.sm_metrics[sm].smem_bytes += nbytes;
        // The asynchronous path (L2 → shared, bypassing the register file)
        // completes through a deeper pipe than an ordinary load; the extra
        // depth is calibrated against Table XIII's 16×16 AsyncPipe rows.
        let done = fetched as f64 + CP_ASYNC_EXTRA_LATENCY + smem_cost;
        let ws = &mut self.warps[w];
        ws.cp_pending = ws.cp_pending.max(done);
    }

    pub(super) fn cp_async(
        &mut self,
        (w, sm): (usize, usize),
        width: Width,
        smem: AddrExpr,
        gmem: AddrExpr,
        now: f64,
    ) -> Result<(), Stalled> {
        self.admit_global(sm, now)?;
        let bytes = width.bytes();
        // Only the global addresses drive timing, so only they are
        // captured (the shared side is a register-file bypass).
        let mut gbuf = [(0usize, 0u64); 32];
        let g = self.issue_lanes(w, gmem, &mut gbuf);
        if !self.replaying() {
            let mut sbuf = [(0usize, 0u64); 32];
            let s = self.lane_addrs(w, smem, &mut sbuf);
            for (&(_, ga), &(_, sa)) in g.iter().zip(s.iter()) {
                self.copy_to_shared((w, sm), ga, sa, bytes);
            }
        }
        // Timing: global fetch (L2 path, bypasses RF) + shared write.
        let addrs = g.iter().map(|&(_, a)| a);
        let fetched = self.global_access((w, sm), addrs, bytes, CacheOp::Cg, now);
        self.async_fill((w, sm), g.len() as u64 * bytes, fetched, now);
        Ok(())
    }

    /// TMA bulk 2-D tensor copy: a single warp instruction streams a
    /// `rows × row_bytes` box at L2 bandwidth — no per-thread issue cost,
    /// which is the Tensor Memory Accelerator's whole point.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn tma(
        &mut self,
        (w, sm): (usize, usize),
        rows: u16,
        row_bytes: u16,
        gstride: u32,
        smem: AddrExpr,
        gmem: AddrExpr,
        now: f64,
    ) -> Result<(), Stalled> {
        if !self.dev.arch.has_tma() {
            self.fault(w, SimFaultKind::UnsupportedOnDevice);
            return Ok(());
        }
        self.shared(sm).0.backpressure(now)?;
        let (rows, row_bytes, gstride) = (rows as u64, row_bytes as u64, gstride as u64);
        // Addresses come from lane 0 (the TMA descriptor is uniform).
        let gbase = self.uniform_base(w, gmem);
        if !self.replaying() {
            let sbase = self.uniform_addr(w, smem);
            for r in 0..rows {
                let (gsrc, sdst) = (gbase + r * gstride, sbase + r * row_bytes);
                self.copy_to_shared((w, sm), gsrc, sdst, row_bytes);
            }
        }
        // Timing: one bulk request through L2 (rows touch whole lines) plus
        // the shared-memory write stream.
        let lines = (0..rows).flat_map(|r| {
            (0..row_bytes)
                .step_by(128)
                .map(move |i| gbase + r * gstride + i)
        });
        let fetched = self.global_access((w, sm), lines, 16, CacheOp::Cg, now);
        self.async_fill((w, sm), rows * row_bytes, fetched, now);
        Ok(())
    }

    /// Move a whole tile's `total` bytes between `space` and tile storage;
    /// returns when the warp may issue again (tile loads block it).
    fn tile_traffic(
        &mut self,
        (w, sm): (usize, usize),
        space: MemSpace,
        base: u64,
        total: u64,
        cop: CacheOp,
        now: f64,
    ) -> u64 {
        match space {
            MemSpace::Global => {
                let lines = (0..total.div_ceil(128)).map(|i| base + i * 128);
                self.global_access((w, sm), lines, 16, cop, now)
            }
            MemSpace::Shared | MemSpace::SharedCluster => {
                let cost = total as f64 / self.dev.smem_bw;
                self.occupy(sm, w, Unit::SMEM_PORT, now, cost);
                self.sm_metrics[sm].smem_bytes += total;
                (now + cost) as u64 + 1
            }
        }
    }

    pub(super) fn ld_tile(
        &mut self,
        (w, sm): (usize, usize),
        tile: TileId,
        (dtype, rows, cols): (DType, usize, usize),
        space: MemSpace,
        addr: AddrExpr,
        now: f64,
    ) {
        let base = self.uniform_base(w, addr);
        let ebytes = dtype.bits().max(8) as u64 / 8; // B1/S4 padded to bytes in memory
        let n = (rows * cols) as u64;
        let mut data = Vec::with_capacity(if self.replaying() { 0 } else { rows * cols });
        if !self.replaying() {
            for i in 0..n {
                let raw = self.read_mem((w, sm), space, base + i * ebytes, ebytes);
                data.push(decode_elem(dtype, raw));
            }
        }
        let ready = self.tile_traffic((w, sm), space, base, n * ebytes, CacheOp::Ca, now);
        self.warps[w].next_ready = ready;
        let t = Tile {
            dtype,
            rows,
            cols,
            data,
        };
        self.put_tile(w, tile, t);
    }

    pub(super) fn st_tile(
        &mut self,
        (w, sm): (usize, usize),
        tile: TileId,
        space: MemSpace,
        addr: AddrExpr,
        now: f64,
    ) {
        let key = (self.tile_owner(w), tile.0);
        let Some(t) = self.blocks[self.warps[w].block].tiles.get(&key).cloned() else {
            self.fault(w, SimFaultKind::TileNotInitialised { tile: tile.0 });
            return;
        };
        let base = self.uniform_base(w, addr);
        let ebytes = t.dtype.bits().max(8) as u64 / 8;
        if !self.replaying() {
            debug_assert!(t.has_values(), "st.tile of tile {} read a shape", tile.0);
            for (i, &v) in t.data.iter().enumerate() {
                let raw = encode_elem(t.dtype, v);
                self.write_mem((w, sm), space, base + i as u64 * ebytes, ebytes, raw);
            }
        }
        let total = (t.rows * t.cols) as u64 * ebytes;
        self.tile_traffic((w, sm), space, base, total, CacheOp::Cg, now);
    }
}

/// A shared-space access leaves the SM when it is `shared::cluster` or any
/// lane carries a `mapa` tag.
fn is_remote(space: MemSpace, lanes: &Lanes) -> bool {
    space == MemSpace::SharedCluster || lanes.iter().any(|&(_, a)| a & DSM_TAG != 0)
}

/// Expand a replay record's payload into per-lane `(lane, address)`
/// pairs, lane-ascending over the active mask (the capture order).
fn rec_lanes<'b>(rec: &ReplayRec, buf: &'b mut LaneBuf) -> &'b Lanes {
    let mut n = 0;
    for lane in 0..32 {
        if rec.active & (1 << lane) != 0 {
            buf[n] = (lane, rec.payload.get(n).copied().unwrap_or(0));
            n += 1;
        }
    }
    &buf[..n]
}
