//! The lockstep multi-SM execution engine.
//!
//! The engine co-simulates a set of resident blocks on their SMs cycle by
//! cycle: four schedulers per SM issue one warp-instruction each per cycle,
//! a per-warp scoreboard enforces register dependencies, and functional
//! units / memory levels are modelled as throughput limiters whose queueing
//! delays produce both latency and sustained-bandwidth saturation.
//!
//! Functional execution happens at issue (so data-dependent addressing —
//! P-chase! — works), while destination registers become *ready* at the
//! modelled completion time.
//!
//! The engine is split along the SM / memory-side seam (DESIGN.md §4g):
//! this file holds the state, construction, the run and its trace
//! accounting, and barriers; `exec.rs` issues and executes (ALU, FP, DPX,
//! tensor core) and owns the [`Unit`] table; `lsu.rs` is the SM side of
//! every memory instruction; `memside.rs` is everything SMs share.

use crate::device::{DeviceConfig, Scheduler, SimOptions};
use crate::mem::{GlobalMem, Limiter, TagArray};
use crate::metrics::Metrics;
use crate::replay::{ReplayRec, ReplaySource};
use crate::tiles::Tile;
use hopper_isa::{Kernel, Operands, TileUses};
use hopper_trace::{
    wait_bucket, CacheTotals, InstrEvent, IssueEvent, PcTotals, SlotTotals, StallReason, StallSpan,
    TraceSink, UnitBusy, UnitSpan, Wants, N_SLOT_REASONS, N_WAIT_BUCKETS,
};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

#[path = "exec.rs"]
mod exec;
#[path = "legacy.rs"]
mod legacy;
#[path = "lsu.rs"]
mod lsu;
#[path = "memside.rs"]
mod memside;
#[path = "sched.rs"]
mod sched;

pub use crate::tiles::{decode_elem, encode_elem};
pub use exec::Unit;
use memside::MemSide;

/// Tag marking a register value as a cluster-DSM address produced by
/// `mapa` (bit 62 set; rank in bits 32..48; offset in the low 32).
pub const DSM_TAG: u64 = 1 << 62;

/// Predicate registers per warp (`Kernel::validate` bounds every index).
const NUM_PREDS: usize = hopper_isa::kernel::NUM_PREDS as usize;

/// Hard cap on simulated cycles per wave — a runaway-kernel backstop far
/// above any real microbenchmark in this repository.  Reaching it trips the
/// run's limit like a cycle budget would.
pub(crate) const MAX_CYCLES: u64 = 2_000_000_000;

/// Barrier release overhead, cycles.
const BAR_RELEASE: u64 = 22;
/// Cluster-barrier release overhead, cycles.
const CLUSTER_BAR_RELEASE: u64 = 60;
/// How far ahead of "now" the memory pipes accept new requests (models
/// finite MSHR/queue depth).
const MEM_QUEUE_DEPTH: f64 = 100.0;
/// Backlog bound on the DRAM channel (cycles); large enough to cover the
/// DRAM latency so bandwidth saturates, small enough that in-flight misses
/// stay finite (MSHR analogue).
const DRAM_QUEUE_DEPTH: f64 = 1200.0;
/// Dispatch stagger between co-resident blocks on one SM (cycles).  The
/// real block scheduler dispatches sequentially and memory jitter
/// decouples block phases; a deterministic simulator needs an explicit
/// offset or co-resident blocks stay phase-locked and never overlap each
/// other's load and compute phases.
const BLOCK_DISPATCH_STAGGER: u64 = 1500;
/// Extra completion depth of `cp.async`/TMA relative to a register load,
/// cycles (see `async_fill`).
const CP_ASYNC_EXTRA_LATENCY: f64 = 260.0;

/// Per-slot outcome code of one issue scan (trace accounting):
/// [`OUT_ISSUED`], `1 + bucket` = stalled for that reason, [`OUT_IDLE`] = no
/// runnable warp.  Weighted by the cycles each scan stands for, the
/// accumulated buckets satisfy issued + stalled + idle == cycles per slot
/// by construction.
const OUT_ISSUED: u8 = 0;
const OUT_IDLE: u8 = u8::MAX;

/// A scheduler slot's roster must fit the position bitmasks of the
/// per-SM step (`sched.rs`).  Device occupancy caps a slot at 16 warps
/// (2048 threads/SM ÷ 32 lanes ÷ 4 schedulers), so [`Engine::new`] rejects
/// anything wider with the other geometry asserts.
const MAX_SLOT_WARPS: usize = 64;

/// Placement of one block for this engine run.
#[derive(Debug, Clone, Copy)]
pub struct BlockSpec {
    /// `%ctaid.x` the block observes.
    pub ctaid: u32,
    /// Engine-local SM index the block runs on.
    pub sm: usize,
    /// Cluster this block belongs to (engine-local id).
    pub cluster_id: u32,
    /// `%cluster_ctarank`.
    pub cluster_rank: u32,
    /// Physical SM id reported by `%smid`.
    pub smid: u32,
}

/// A bound on a single engine run: a simulated-cycle budget and/or an
/// external cancel flag.
///
/// The budget is compared against the wave-local cycle counter every
/// iteration (one u64 compare — unmeasurable next to the issue loop);
/// the cancel flag, being an atomic load, is polled only every
/// [`CANCEL_CHECK_PERIOD`] iterations.  With the default
/// ([`RunLimit::none`]) neither bound can trigger, so bit-exactness of
/// unbounded runs is untouched.
#[derive(Debug, Clone)]
pub struct RunLimit {
    /// Stop once the wave-local cycle counter reaches this bound
    /// (`u64::MAX` = unlimited).  Fast-forward may overshoot by one
    /// jump; the overshoot is deterministic.
    pub max_cycles: u64,
    /// Cooperative cancellation: set to `true` from another thread to
    /// abort the run at the next poll.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RunLimit {
    /// No bound (the default): identical behaviour to pre-limit engines.
    pub fn none() -> Self {
        RunLimit {
            max_cycles: u64::MAX,
            cancel: None,
        }
    }
}

impl Default for RunLimit {
    fn default() -> Self {
        RunLimit::none()
    }
}

/// How often (in issue-loop iterations) the cancel flag is polled.
/// Sub-millisecond reaction time at typical simulation rates, while
/// keeping the atomic load off the per-cycle path.
const CANCEL_CHECK_PERIOD: u32 = 4096;

/// Engine launch description.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Blocks to co-simulate (must reference SMs `0..num_sms_used`).
    pub blocks: Vec<BlockSpec>,
    /// Threads per block (1..=1024).
    pub threads_per_block: u32,
    /// `%nctaid.x` the kernel observes (full grid, not just resident).
    pub grid_dim: u32,
    /// Cluster size (1 = no clustering).
    pub cluster_size: u32,
    /// Kernel parameters, loaded into `%r0..` of every thread.
    pub params: Vec<u64>,
    /// Fraction of device L2 bandwidth available to the simulated subset.
    pub l2_bw_scale: f64,
    /// Fraction of DRAM bandwidth available to the simulated subset.
    pub dram_bw_scale: f64,
    /// Mechanism toggles (ablations).
    pub opts: SimOptions,
    /// Cycle budget / cancellation bound for this run.
    pub limit: RunLimit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpStatus {
    Ready,
    Barrier,
    ClusterBarrier,
    Done,
}

/// `repr(C)` keeps declaration order: the fields every scan examination and
/// the refusal memo read come first, side by side in the first 40 bytes.
#[repr(C)]
struct WarpState {
    next_ready: u64,
    /// Earliest cycle a retry can possibly succeed (set on stall; stalls
    /// only ever resolve at known future times in this engine).
    retry_at: u64,
    pc: usize,
    /// The SM the warp's block runs on.
    sm: usize,
    status: WarpStatus,
    /// The gate that refused the last attempt, kept until the warp issues.
    refused_by: Option<Gate>,
    active: u32,
    block: usize,
    warp_in_block: usize,
    scheduler: usize,
    /// regs[r * 32 + lane]
    regs: Vec<u64>,
    reg_ready: Vec<u64>,
    pred: [u32; NUM_PREDS],
    pred_ready: [u64; NUM_PREDS],
    /// Uncommitted cp.async completion times.
    cp_pending: f64,
    /// Committed cp.async groups (completion times, FIFO).
    cp_groups: Vec<f64>,
    /// Last observed stall reason (trace attribution; only maintained
    /// while a sink is attached).
    stall_reason: StallReason,
    /// First cycle of the current stall span (`u64::MAX` = not stalled).
    stalled_since: u64,
}

struct BlockState {
    spec: BlockSpec,
    smem: Vec<u8>,
    warps: Vec<usize>,
    barrier_count: usize,
    /// Tiles keyed by (owner_key, tile id): owner is the warp for `mma`,
    /// the warp group for `wgmma`.
    tiles: HashMap<(u32, u8), Tile>,
    /// Completion times of tile writers (gates dependent `mma` issue).
    tile_ready: HashMap<(u32, u8), u64>,
    /// Per-warp-group wgmma pipeline: uncommitted max completion + FIFO of
    /// committed group completion times.
    wgmma: HashMap<u32, (f64, Vec<f64>)>,
}

struct SmState {
    /// Functional units and ports, in [`Unit::ALL`] order.
    units: [Limiter; exec::N_UNITS],
    last_sched: [usize; 4],
    /// Coalescer output of the global access in flight.
    coalesced: lsu::Coalesced,
    /// First fault raised by a warp on this SM.
    fault: Option<SimFault>,
}

/// A kernel fault the engine detected while executing: the launch stops at
/// the next limit poll and [`crate::Gpu::launch`] returns
/// [`crate::LaunchError::Fault`] instead of the process panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimFault {
    /// Index of the faulting instruction in the kernel.
    pub pc: u32,
    /// `%smid` of the SM the faulting warp runs on.
    pub sm: u32,
    /// The faulting warp's index within its block.
    pub warp: u32,
    /// What went wrong.
    pub kind: SimFaultKind,
}

/// The kinds of [`SimFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFaultKind {
    /// A shared-memory access reached past the block's allocation.
    SharedOutOfBounds {
        /// Byte offset of the access within the block's shared memory.
        offset: u64,
        /// The block's shared-memory size, bytes.
        size: u64,
    },
    /// A `mapa`-formed address names a cluster rank with no resident block.
    RankNotResident {
        /// The rank asked for.
        rank: u32,
    },
    /// A guarded branch whose predicate differs across the warp's active
    /// lanes (the engine models uniform control flow only).
    DivergentBranch {
        /// Active lanes on which the guard predicate is set.
        mask: u32,
        /// The warp's active lanes.
        active: u32,
    },
    /// An `mma`/`wgmma`/`stmatrix` operand tile that no `filltile`,
    /// `ldmatrix` or earlier `mma` of this warp has produced.
    TileNotInitialised {
        /// The tile id.
        tile: u8,
    },
    /// The operand tiles do not fit the `mma`/`wgmma` descriptor (shape,
    /// or a sparse A tile off the 2:4 pattern).
    TileMismatch,
    /// The instruction needs hardware this device lacks: `wgmma` or TMA
    /// off Hopper, an `mma` shape the architecture does not execute.
    UnsupportedOnDevice,
}

impl core::fmt::Display for SimFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let SimFault { pc, sm, warp, kind } = self;
        write!(f, "pc {pc} (sm {sm}, warp {warp}): {kind:?}")
    }
}

/// Persistent cache tag state, owned by the [`crate::Gpu`] so warm-up
/// launches keep their effect (the paper's methodology warms caches with a
/// separate pass before measuring).
#[derive(Debug)]
pub struct CacheState {
    /// Per-SM L1 tag arrays.
    pub l1: Vec<TagArray>,
    /// Device-wide L2 tag array.
    pub l2: TagArray,
    /// Device-wide TLB over 2 MiB pages (a page walk costs
    /// `DeviceConfig::tlb_miss_latency` extra cycles).
    pub tlb: TagArray,
}

impl CacheState {
    /// Fresh (cold) caches for a device.
    pub fn new(dev: &DeviceConfig) -> Self {
        CacheState {
            l1: (0..dev.num_sms as usize)
                .map(|_| TagArray::new(dev.l1_bytes as u64, 128, 8))
                .collect(),
            l2: TagArray::new(dev.l2_bytes, 128, 16),
            tlb: TagArray::new(
                dev.tlb_entries as u64 * (2 << 20),
                2 << 20,
                dev.tlb_entries.min(32) as usize,
            ),
        }
    }
}

/// The lockstep engine (one wave of resident blocks).
pub struct Engine<'a> {
    dev: &'a DeviceConfig,
    kernel: &'a Kernel,
    /// Registers and predicates of each of `kernel.instrs`, decoded once
    /// per wave so an issue attempt is a slice walk, not a per-variant
    /// `match` (all in range: `Kernel::validate` ran at launch).
    ops: Vec<Operands>,
    /// Which tiles' values each warp role can ever read, decided once per
    /// wave beside `ops`: a tensor-core value nobody reads is never
    /// computed (DESIGN.md §4).
    tile_uses: TileUses,
    cfg: EngineConfig,
    /// Everything the SMs share; SM code goes through [`Self::shared`].
    mem: MemSide<'a>,
    /// Per-SM L1 tag arrays (the SM half of the persistent cache state).
    l1: &'a mut [TagArray],
    sms: Vec<SmState>,
    blocks: Vec<BlockState>,
    warps: Vec<WarpState>,
    cycle: u64,
    cluster_barriers: HashMap<u32, usize>,
    /// Per cluster id: member block indices and total member warps
    /// (precomputed so barrier release never rescans `blocks`).
    cluster_members: Vec<(u32, Vec<usize>, usize)>,
    /// Per SM: warps currently arrived at some block barrier (early-out
    /// for [`Self::release_sm_barriers`]).
    sm_barrier_arrivals: Vec<usize>,
    /// Blocks resident on each SM (barrier-release working set).
    sm_blocks: Vec<Vec<usize>>,
    metrics: Metrics,
    /// Per-SM accumulators, folded into `metrics` SM-major after the run,
    /// so the f64 energy sums see one fixed addition order.
    sm_metrics: Vec<Metrics>,
    l1_stats0: (u64, u64),
    /// The attached trace sink and what it wants.
    tr: Tracer<'a>,
    /// Device cycle at which this wave starts (multi-wave launches).
    base_cycle: u64,
    /// Per-slot cycle accounting, `sm * 4 + sched`; empty unless a sink is
    /// attached.
    slot_acc: Vec<SlotAcc>,
    /// Per-PC sampling accumulators, one per kernel instruction; empty
    /// unless the attached sink wants [`Wants::pc_totals`], so the untraced
    /// hot path never touches it.
    pc_acc: Vec<PcAcc>,
    /// Set when an issue loop broke on its [`RunLimit`] (or a fault) rather
    /// than on warp completion.
    hit_limit: bool,
    /// Some SM recorded a [`SimFault`]; polled by `limit_tripped`.  The
    /// faults themselves sit in per-SM slots and are read after the run.
    faulted: bool,
    /// Replay mode: per-warp captured streams and issue cursors.  When
    /// set, operands and branch directions come from the streams and the
    /// functional datapath is skipped; every timing decision is
    /// unchanged.
    replay: Option<ReplayState<'a>>,
    /// Operand payload of the instruction currently being issued
    /// (gathered only for a sink that wants [`Wants::instr`]; cleared at
    /// every `execute`).
    cap_payload: Vec<u64>,
    /// Debug-only shadow counter of L1 tag-array lookups issued by this
    /// engine, cross-checked against the `Metrics` hit/miss delta at end
    /// of wave (`check_wave_invariants`; the memory side keeps L2's).
    #[cfg(debug_assertions)]
    dbg_l1_lookups: u64,
}

/// The attached trace sink and what it declared it consumes (`sink: None`
/// = untraced hot path, and then `wants` is [`Wants::NONE`]).  One struct
/// so the memory side can emit its own spans while SM state is borrowed.
struct Tracer<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    wants: Wants,
}

impl Tracer<'_> {
    /// Emit a functional-unit busy span (no-op unless the sink wants them).
    #[inline]
    fn unit(&mut self, sm: u32, unit: &'static str, w: usize, start: f64, cost: f64) {
        if !self.wants.unit {
            return;
        }
        let Some(s) = self.sink.as_mut() else { return };
        let s0 = start.floor() as u64;
        let end = ((start + cost).ceil() as u64).max(s0 + 1);
        s.unit(&UnitSpan {
            sm,
            unit,
            warp: w as u32,
            start: s0,
            end,
        });
    }
}

/// Replay streams resolved to engine warp indices (one slice + cursor per
/// resident warp, in warp order).
struct ReplayState<'a> {
    streams: Vec<&'a [ReplayRec]>,
    cursors: Vec<usize>,
}

impl<'a> Engine<'a> {
    /// Build an engine for one co-resident wave.
    pub fn new(
        dev: &'a DeviceConfig,
        kernel: &'a Kernel,
        cfg: EngineConfig,
        global: &'a mut GlobalMem,
        caches: &'a mut CacheState,
    ) -> Self {
        assert!(!cfg.blocks.is_empty(), "engine needs at least one block");
        assert!(cfg.threads_per_block >= 1 && cfg.threads_per_block <= 1024);
        debug_assert_eq!(kernel.validate(), Ok(()), "Gpu::occupancy validates");
        let num_sms = cfg.blocks.iter().map(|b| b.sm).max().unwrap() + 1;
        let nregs = (kernel.regs_per_thread as usize).max(cfg.params.len() + 1);
        let ops = kernel.instrs.iter().map(|i| i.operands()).collect();
        let tile_uses = kernel.tile_uses();
        let warps_per_block = cfg.threads_per_block.div_ceil(32) as usize;

        let mut warps = Vec::new();
        let mut blocks = Vec::new();
        // Count warps already placed per SM to assign schedulers, and
        // blocks per SM for the dispatch stagger.
        let mut sm_warp_count = vec![0usize; num_sms];
        let mut sm_block_count = vec![0u64; num_sms];
        for (bi, spec) in cfg.blocks.iter().enumerate() {
            // Alternate half-phase offsets (plus a small linear skew) so
            // even/odd co-resident blocks land in anti-phase.
            let i = sm_block_count[spec.sm];
            let dispatch_at = if cfg.opts.block_stagger {
                (i % 2) * BLOCK_DISPATCH_STAGGER + (i / 2) * 120
            } else {
                0
            };
            sm_block_count[spec.sm] += 1;
            let mut block_warps = Vec::new();
            for w in 0..warps_per_block {
                let threads_left = cfg.threads_per_block as usize - w * 32;
                let active = if threads_left >= 32 {
                    u32::MAX
                } else {
                    (1u32 << threads_left) - 1
                };
                let mut ws = WarpState {
                    next_ready: dispatch_at,
                    retry_at: 0,
                    pc: 0,
                    sm: spec.sm,
                    status: WarpStatus::Ready,
                    refused_by: None,
                    active,
                    block: bi,
                    warp_in_block: w,
                    scheduler: sm_warp_count[spec.sm] % 4,
                    regs: vec![0u64; nregs * 32],
                    reg_ready: vec![0u64; nregs],
                    pred: [0; NUM_PREDS],
                    pred_ready: [0; NUM_PREDS],
                    cp_pending: 0.0,
                    cp_groups: Vec::new(),
                    stall_reason: StallReason::Dispatch,
                    stalled_since: u64::MAX,
                };
                for (i, &p) in cfg.params.iter().enumerate() {
                    ws.regs[i * 32..(i + 1) * 32].fill(p);
                }
                sm_warp_count[spec.sm] += 1;
                block_warps.push(warps.len());
                warps.push(ws);
            }
            blocks.push(BlockState {
                spec: *spec,
                smem: vec![0u8; kernel.smem_bytes as usize],
                warps: block_warps,
                barrier_count: 0,
                tiles: HashMap::new(),
                tile_ready: HashMap::new(),
                wgmma: HashMap::new(),
            });
        }

        // Warps deal round-robin onto an SM's four scheduler slots.
        let widest = sm_warp_count.iter().max().unwrap().div_ceil(4);
        assert!(
            widest <= MAX_SLOT_WARPS,
            "{widest} warps on one scheduler slot; the ready masks hold {MAX_SLOT_WARPS}"
        );
        let (mem, l1) = MemSide::new(dev, (cfg.l2_bw_scale, cfg.dram_bw_scale), global, caches);
        assert!(
            l1.len() >= num_sms,
            "cache state sized for {} SMs; engine needs {num_sms}",
            l1.len()
        );
        let sms = (0..num_sms)
            .map(|_| SmState {
                units: std::array::from_fn(|_| Limiter::new()),
                last_sched: [0; 4],
                coalesced: lsu::Coalesced::default(),
                fault: None,
            })
            .collect();

        let l1_stats0 = l1_stats(l1);
        let tr = Tracer {
            sink: None,
            wants: Wants::NONE,
        };
        let mut cluster_members: Vec<(u32, Vec<usize>, usize)> = Vec::new();
        for (bi, b) in blocks.iter().enumerate() {
            let cid = b.spec.cluster_id;
            match cluster_members.iter_mut().find(|(c, ..)| *c == cid) {
                Some((_, members, warps)) => {
                    members.push(bi);
                    *warps += b.warps.len();
                }
                None => cluster_members.push((cid, vec![bi], b.warps.len())),
            }
        }
        let mut sm_blocks: Vec<Vec<usize>> = vec![Vec::new(); num_sms];
        for (bi, b) in blocks.iter().enumerate() {
            sm_blocks[b.spec.sm].push(bi);
        }
        Engine {
            dev,
            kernel,
            ops,
            tile_uses,
            cfg,
            mem,
            l1,
            sms,
            blocks,
            warps,
            cycle: 0,
            cluster_barriers: HashMap::new(),
            cluster_members,
            sm_barrier_arrivals: vec![0; num_sms],
            sm_blocks,
            metrics: Metrics::default(),
            sm_metrics: vec![Metrics::default(); num_sms],
            l1_stats0,
            tr,
            base_cycle: 0,
            slot_acc: Vec::new(),
            pc_acc: Vec::new(),
            hit_limit: false,
            faulted: false,
            replay: None,
            cap_payload: Vec::new(),
            #[cfg(debug_assertions)]
            dbg_l1_lookups: 0,
        }
    }

    /// Attach a trace sink.  What it [wants](TraceSink::wants) is read here,
    /// once, and is all the run constructs for it; a sink that wants nothing
    /// (a [`hopper_trace::NullSink`]) is dropped and the run stays on the
    /// untraced hot path.  Event timestamps stay wave-local; the sink is
    /// told `base_cycle` (the device cycle this wave starts at) so
    /// multi-wave timelines can be assembled.
    pub fn with_sink(mut self, sink: &'a mut dyn TraceSink, base_cycle: u64) -> Self {
        let wants = sink.wants();
        if wants != Wants::NONE {
            self.tr = Tracer {
                sink: Some(sink),
                wants,
            };
            self.base_cycle = base_cycle;
        }
        self
    }

    /// Switch the engine to replay mode: operands come from `source`
    /// instead of functional execution.  Fails if any resident warp has
    /// no captured stream.
    pub fn with_replay(mut self, source: &'a ReplaySource) -> Result<Self, String> {
        let mut streams = Vec::with_capacity(self.warps.len());
        for ws in &self.warps {
            let key = (self.blocks[ws.block].spec.ctaid, ws.warp_in_block as u32);
            let s = source
                .streams
                .get(&key)
                .ok_or_else(|| format!("trace has no stream for ctaid {} warp {}", key.0, key.1))?;
            streams.push(s.as_slice());
        }
        self.replay = Some(ReplayState {
            cursors: vec![0; streams.len()],
            streams,
        });
        Ok(self)
    }

    /// Run to completion; returns the wave's metrics.
    ///
    /// Any [`RunLimit`] in the config still applies — use
    /// [`Self::run_to_limit`] when the caller needs to know whether the
    /// run finished or was cut short.
    pub fn run(self) -> Metrics {
        self.run_to_limit().0
    }

    /// Run until all warps retire, the configured [`RunLimit`] trips or a
    /// warp faults.  Returns the metrics accumulated so far and `Ok(true)`
    /// iff the limit (budget or cancel) stopped the run before completion,
    /// `Err` with the first recorded fault (lowest SM) if one did.
    pub fn run_to_limit(mut self) -> (Metrics, Result<bool, SimFault>) {
        // Static warp→(sm, scheduler) rosters (built once; warp placement
        // never changes during a launch).
        let mut roster: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); 4]; self.sms.len()];
        for (w, ws) in self.warps.iter().enumerate() {
            roster[self.blocks[ws.block].spec.sm][ws.scheduler].push(w);
        }
        let tracing = self.tr.sink.is_some();
        if let Some(s) = self.tr.sink.as_mut() {
            s.begin_wave(self.base_cycle, self.sms.len() as u32, 4);
        }
        if tracing {
            self.slot_acc = vec![SlotAcc::default(); self.sms.len() * 4];
            if self.tr.wants.pc_totals {
                self.pc_acc = vec![PcAcc::default(); self.kernel.instrs.len()];
            }
        }
        match self.cfg.opts.scheduler {
            Scheduler::ReadySet if tracing => self.run_serial::<true>(&roster),
            Scheduler::ReadySet => self.run_serial::<false>(&roster),
            Scheduler::LegacyScan => self.run_legacy(&roster, tracing),
        }
        // Fold the per-SM accumulators in SM-major order: one fixed f64
        // addition order for energy, which EXPERIMENTS.md and the goldens
        // pin.
        let sm_metrics = std::mem::take(&mut self.sm_metrics);
        for m in &sm_metrics {
            self.metrics.merge_parallel(m);
        }
        self.metrics.cycles = self.cycle;
        self.mem.finish(&mut self.metrics);
        let l1 = l1_stats(self.l1);
        self.metrics.l1_hits = l1.0 - self.l1_stats0.0;
        self.metrics.l1_misses = l1.1 - self.l1_stats0.1;
        #[cfg(debug_assertions)]
        self.check_wave_invariants();
        if tracing {
            self.emit_wave_summary();
        }
        let fault = self.sms.iter_mut().find_map(|sm| sm.fault.take());
        (self.metrics, fault.map_or(Ok(self.hit_limit), Err))
    }

    /// Debug-build engine invariants, checked at end of every wave (so
    /// the whole test suite and the fuzzer's smoke slice exercise them):
    /// cache accounting must agree with the tag arrays, energy must be a
    /// sane accumulator, and no limiter may have booked work beyond the
    /// backpressure window its queue depth allows.
    #[cfg(debug_assertions)]
    fn check_wave_invariants(&self) {
        assert_eq!(
            self.metrics.l1_hits + self.metrics.l1_misses,
            self.dbg_l1_lookups,
            "L1 hits+misses diverged from tag lookups"
        );
        assert!(
            self.metrics.energy_j >= 0.0 && self.metrics.energy_j.is_finite(),
            "energy accumulator corrupt: {}",
            self.metrics.energy_j
        );
        // Every port is backpressured (acquire refuses when free_at runs
        // more than its queue depth ahead), so no backlog may extend past
        // the elapsed cycles plus the deepest window — unless the run was
        // cut short mid-issue by a RunLimit or a fault.
        let horizon = self.cycle as f64 + DRAM_QUEUE_DEPTH + 256.0;
        let audit = |unit: &str, l: &Limiter| {
            let busy = l.busy_cycles();
            assert!(
                busy >= 0.0 && busy.is_finite() && busy <= l.free_at() + 1e-6,
                "{unit}: busy_cycles {busy} inconsistent with free_at {}",
                l.free_at()
            );
            if !self.hit_limit {
                assert!(
                    busy <= horizon,
                    "{unit}: busy {busy} cycles exceeds elapsed {} + bounded backlog",
                    self.cycle
                );
            }
        };
        for (i, sm) in self.sms.iter().enumerate() {
            for (k, unit) in sm.units.iter().enumerate() {
                audit(&format!("sm{i}.{}#{k}", Unit::ALL[k].name), unit);
            }
        }
        for (name, port) in self.mem.ports() {
            audit(name, port);
        }
    }

    /// End of wave: the summary (per-slot totals, functional-unit
    /// occupancy, cache totals) for a sink that wants it, the per-PC totals
    /// (accumulated only when wanted), and the closing frame.
    fn emit_wave_summary(&mut self) {
        let total = self.cycle;
        let Some(s) = self.tr.sink.as_mut() else {
            return;
        };
        if self.tr.wants.summary {
            for (slot, acc) in self.slot_acc.iter().enumerate() {
                debug_assert_eq!(
                    acc.issued + acc.idle + acc.stalled.iter().sum::<u64>(),
                    total,
                    "slot {slot}: issued+idle+stalled must equal wave cycles"
                );
                s.slot_totals(&SlotTotals {
                    sm: (slot / 4) as u32,
                    sched: (slot % 4) as u32,
                    issued: acc.issued,
                    idle: acc.idle,
                    stalled: acc.stalled,
                    total,
                });
            }
            for (sm, st) in self.sms.iter().enumerate() {
                // One record per tensor quadrant (last in the table); the
                // profile merges them so the reported "tensor" occupancy is
                // the mean over quadrants.
                for (unit, row) in st.units.iter().zip(Unit::ALL) {
                    s.unit_busy(&UnitBusy {
                        sm: sm as u32,
                        unit: row.name,
                        busy: unit.busy_cycles(),
                        total,
                    });
                }
            }
            for (unit, port) in self.mem.ports() {
                s.unit_busy(&UnitBusy {
                    sm: u32::MAX,
                    unit,
                    busy: port.busy_cycles(),
                    total,
                });
            }
            s.cache_totals(&CacheTotals {
                l1_hits: self.metrics.l1_hits,
                l1_misses: self.metrics.l1_misses,
                l2_hits: self.metrics.l2_hits,
                l2_misses: self.metrics.l2_misses,
                tlb_misses: self.metrics.tlb_misses,
            });
        }
        for (pc, a) in self.pc_acc.iter().enumerate() {
            if a.issues == 0 && a.stalled.iter().all(|&x| x == 0) {
                continue;
            }
            s.pc_totals(&PcTotals {
                pc: pc as u32,
                op: self.kernel.instrs[pc].mnemonic(),
                issues: a.issues,
                stalled: a.stalled,
                wait_hist: a.wait_hist,
            });
        }
        s.end_wave(total);
    }

    /// Charge `advance` cycles of one slot outcome (code, binding PC) to
    /// the slot and, for stalls under PC sampling, to the binding PC.
    fn charge(&mut self, slot: usize, (code, pc): (u8, u32), advance: u64) {
        let acc = &mut self.slot_acc[slot];
        match code {
            OUT_ISSUED => acc.issued += advance,
            OUT_IDLE => acc.idle += advance,
            r => {
                let b = (r - 1) as usize;
                acc.stalled[b] += advance;
                if !self.pc_acc.is_empty() {
                    self.pc_acc[pc as usize].stalled[b] += advance;
                }
            }
        }
    }

    /// Close the warp's open stall span (if any), bump the PC sampling
    /// accumulators, and emit the issue event.
    fn note_issue(&mut self, sm: usize, sched: usize, w: usize, pc: usize) {
        let now = self.cycle;
        let ws = &mut self.warps[w];
        let since = ws.stalled_since;
        let reason = ws.stall_reason;
        ws.stalled_since = u64::MAX;
        if !self.pc_acc.is_empty() {
            // Issue cycles always advance the clock by exactly 1, so a
            // plain count matches the slot accounting's issued weight.
            let a = &mut self.pc_acc[pc];
            a.issues += 1;
            if since != u64::MAX && now > since {
                a.wait_hist[wait_bucket(now - since)] += 1;
            }
        }
        let Some(s) = self.tr.sink.as_mut() else {
            return;
        };
        if self.tr.wants.stall && since != u64::MAX && now > since {
            s.stall(&StallSpan {
                sm: sm as u32,
                sched: sched as u32,
                warp: w as u32,
                start: since,
                end: now,
                reason,
            });
        }
        if self.tr.wants.issue {
            s.issue(&IssueEvent {
                cycle: now,
                sm: sm as u32,
                sched: sched as u32,
                warp: w as u32,
                op: self.kernel.instrs[pc].mnemonic(),
            });
        }
        if self.tr.wants.instr {
            let ws = &self.warps[w];
            s.instr(&InstrEvent {
                cycle: now,
                sm: sm as u32,
                ctaid: self.blocks[ws.block].spec.ctaid,
                warp_in_block: ws.warp_in_block as u32,
                pc: pc as u32,
                op: self.kernel.instrs[pc].mnemonic(),
                active: ws.active,
                payload: &self.cap_payload,
            });
        }
    }

    /// Record a stall observation: start a span, or split it when the
    /// binding reason changes (e.g. a barrier wait turning into the
    /// post-release dispatch hold).
    fn note_stall(&mut self, sm: usize, sched: usize, w: usize, reason: StallReason) {
        let now = self.cycle;
        let ws = &mut self.warps[w];
        if ws.stalled_since == u64::MAX {
            ws.stalled_since = now;
            ws.stall_reason = reason;
        } else if ws.stall_reason != reason {
            let span = StallSpan {
                sm: sm as u32,
                sched: sched as u32,
                warp: w as u32,
                start: ws.stalled_since,
                end: now.max(ws.stalled_since + 1),
                reason: ws.stall_reason,
            };
            ws.stalled_since = now;
            ws.stall_reason = reason;
            if self.tr.wants.stall {
                if let Some(s) = self.tr.sink.as_mut() {
                    s.stall(&span);
                }
            }
        }
    }

    /// Release every complete cluster barrier at cycle `now` (after all
    /// SMs stepped it); `woke` hears the SM of each freed warp.
    fn release_cluster_barriers(&mut self, now: u64, mut woke: impl FnMut(usize)) {
        if self.cluster_barriers.is_empty() {
            return;
        }
        for ci in 0..self.cluster_members.len() {
            let (cid, total_warps) = (self.cluster_members[ci].0, self.cluster_members[ci].2);
            if self.cluster_barriers.get(&cid).copied() != Some(total_warps) {
                continue;
            }
            self.cluster_barriers.remove(&cid);
            let release = now + CLUSTER_BAR_RELEASE;
            for mi in 0..self.cluster_members[ci].1.len() {
                let b = self.cluster_members[ci].1[mi];
                for wi in 0..self.blocks[b].warps.len() {
                    let w = self.blocks[b].warps[wi];
                    if self.warps[w].status == WarpStatus::ClusterBarrier {
                        self.warps[w].status = WarpStatus::Ready;
                        self.warps[w].next_ready = self.warps[w].next_ready.max(release);
                        self.warps[w].retry_at = 0;
                        woke(self.blocks[b].spec.sm);
                    }
                }
            }
        }
    }

    /// Release full block barriers on one SM at its cycle `now`.  The
    /// index loops avoid a per-release clone of the warp list.
    fn release_sm_barriers(&mut self, sm: usize, now: u64) {
        if self.sm_barrier_arrivals[sm] == 0 {
            return;
        }
        let mut released = 0usize;
        for k in 0..self.sm_blocks[sm].len() {
            let bi = self.sm_blocks[sm][k];
            if self.blocks[bi].barrier_count == self.blocks[bi].warps.len() {
                self.blocks[bi].barrier_count = 0;
                released += self.blocks[bi].warps.len();
                let release = now + BAR_RELEASE;
                for wi in 0..self.blocks[bi].warps.len() {
                    let w = self.blocks[bi].warps[wi];
                    if self.warps[w].status == WarpStatus::Barrier {
                        self.warps[w].status = WarpStatus::Ready;
                        self.warps[w].next_ready = self.warps[w].next_ready.max(release);
                        self.warps[w].retry_at = 0;
                    }
                }
            }
        }
        self.sm_barrier_arrivals[sm] -= released;
    }

    /// The one door from SM code to run-shared state: the memory side,
    /// plus the tracer and the SM's metrics it reports into.
    fn shared(&mut self, sm: usize) -> (&mut MemSide<'a>, &mut Tracer<'a>, &mut Metrics) {
        (&mut self.mem, &mut self.tr, &mut self.sm_metrics[sm])
    }

    /// Record a fault of warp `w` at its issuing PC (the first per SM is
    /// kept); `limit_tripped` stops the wave at the next poll.
    fn fault(&mut self, w: usize, kind: SimFaultKind) {
        let ws = &self.warps[w];
        let spec = &self.blocks[ws.block].spec;
        self.sms[spec.sm].fault.get_or_insert(SimFault {
            pc: ws.pc as u32,
            sm: spec.smid,
            warp: ws.warp_in_block as u32,
            kind,
        });
        self.faulted = true;
    }
}

/// Summed (hits, misses) over the per-SM L1 tag arrays.
fn l1_stats(l1: &[TagArray]) -> (u64, u64) {
    l1.iter()
        .map(|t| t.stats())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Advance-weighted per-scheduler-slot cycle accounting (trace path).
#[derive(Debug, Clone, Copy, Default)]
struct SlotAcc {
    issued: u64,
    idle: u64,
    stalled: [u64; N_SLOT_REASONS],
}

/// Per-PC sampling accumulator (trace path, `pc_sampling`).  Stall cycles
/// are charged via the same advance-weighted slot outcomes as [`SlotAcc`],
/// so per-PC sums reproduce the slot totals exactly.
#[derive(Debug, Clone, Copy, Default)]
struct PcAcc {
    issues: u64,
    stalled: [u64; N_SLOT_REASONS],
    wait_hist: [u64; N_WAIT_BUCKETS],
}

/// A refused issue attempt: the earliest cycle worth retrying at, the
/// micro-architectural reason (trace attribution), and the admission gate
/// that refused it when that was a [`Unit`]-table door — the warp keeps it
/// and re-checks only that gate until it issues (DESIGN.md §4d point 7).
#[derive(Debug, PartialEq, Eq)]
struct Stalled(u64, StallReason, Option<Gate>);

/// An admission check an issue attempt can be refused at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// The row of [`Unit::ALL`] at this index ([`Engine::admit`]).
    Unit(u8),
    /// Global-memory admission: the SM's L1 port, then the memory side's
    /// backpressure (`admit_global`).
    Global,
}

/// Gates: the [`Unit::ALL`] rows, then [`Gate::Global`].
const N_GATES: usize = exec::N_UNITS + 2;

impl Gate {
    /// Dense index in `0..N_GATES` (a slot's per-gate masks, `sched.rs`).
    fn index(self) -> usize {
        match self {
            Gate::Unit(row) => row as usize,
            Gate::Global => N_GATES - 1,
        }
    }
}

/// Result of an issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueResult {
    Issued,
    /// Could not issue; earliest cycle worth retrying at, the
    /// micro-architectural reason (trace attribution), and the gate when
    /// one refused the attempt (what the warp's `refused_by` now holds).
    Stalled(u64, StallReason, Option<Gate>),
}
