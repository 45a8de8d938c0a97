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

use crate::device::{DeviceConfig, Scheduler, SimOptions};
use crate::mem::{bank_conflict_degree, coalesce_sectors_into, GlobalMem, Limiter, TagArray};
use crate::metrics::Metrics;
use crate::power;
use crate::replay::{ReplayRec, ReplaySource};
use crate::tc_timing;
use crate::tiles::{execute_mma, Tile};
use hopper_isa::{
    AddrExpr, CacheOp, DType, FAluOp, FloatPrec, IAluOp, Instr, Kernel, MemSpace, MmaKind, Operand,
    Operands, Pred, Reg, Special, TileId, Width,
};
use hopper_trace::{
    wait_bucket, CacheEvent, CacheLevel, CacheTotals, InstrEvent, IssueEvent, PcTotals, SlotTotals,
    StallReason, StallSpan, TraceConfig, TraceSink, UnitBusy, UnitSpan, N_SLOT_REASONS,
    N_WAIT_BUCKETS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[path = "legacy.rs"]
mod legacy;
#[path = "par.rs"]
mod par;
#[path = "sched.rs"]
mod sched;

/// Tag marking a register value as a cluster-DSM address produced by
/// `mapa` (bit 62 set; rank in bits 32..48; offset in the low 32).
pub const DSM_TAG: u64 = 1 << 62;

/// Predicate registers per warp (`Kernel::validate` bounds every index).
const NUM_PREDS: usize = hopper_isa::kernel::NUM_PREDS as usize;

/// Hard cap on simulated cycles — a runaway-kernel backstop far above any
/// real microbenchmark in this repository.
const MAX_CYCLES: u64 = 2_000_000_000;

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
/// Extra completion depth of `cp.async` relative to a register load,
/// cycles (see `do_cp_async`).
const CP_ASYNC_EXTRA_LATENCY: f64 = 260.0;

/// Per-slot outcome code of one issue scan (trace accounting):
/// [`OUT_ISSUED`], `1 + bucket` = stalled for that reason, [`OUT_IDLE`] = no
/// runnable warp.  Weighted by the cycles each scan stands for, the
/// accumulated buckets satisfy issued + stalled + idle == cycles per slot
/// by construction.
const OUT_ISSUED: u8 = 0;
const OUT_IDLE: u8 = u8::MAX;

/// A scheduler slot's roster must fit the position bitmasks of the
/// per-SM step (`sched.rs`).  Every modelled device stays well below this (2048
/// threads/SM ÷ 32 lanes ÷ 4 schedulers = 16); launches that somehow
/// exceed it fall back to the legacy scan.
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

struct WarpState {
    block: usize,
    warp_in_block: usize,
    scheduler: usize,
    pc: usize,
    active: u32,
    /// regs[r * 32 + lane]
    regs: Vec<u64>,
    reg_ready: Vec<u64>,
    pred: [u32; NUM_PREDS],
    pred_ready: [u64; NUM_PREDS],
    status: WarpStatus,
    next_ready: u64,
    /// Earliest cycle a retry can possibly succeed (set on stall; stalls
    /// only ever resolve at known future times in this engine).
    retry_at: u64,
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
    l1_port: Limiter,
    smem_port: Limiter,
    int_pipe: Limiter,
    fp32_pipe: Limiter,
    fp64_pipe: Limiter,
    dpx_pipe: Limiter,
    tc_quadrant: [Limiter; 4],
    tc_whole: Limiter,
    dsm_port: Limiter,
    last_sched: [usize; 4],
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
    /// Scoreboard view of `kernel.instrs`, index-aligned (see [`Decoded`]).
    decoded: Vec<Decoded>,
    cfg: EngineConfig,
    global: &'a mut GlobalMem,
    caches: &'a mut CacheState,
    sms: Vec<SmState>,
    blocks: Vec<BlockState>,
    warps: Vec<WarpState>,
    l2_port: Limiter,
    dram_port: Limiter,
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
    /// Per-SM accumulators, folded into `metrics` SM-major after the run.
    /// Serial and parallel paths both accumulate here so the f64 energy
    /// sums see one addition order and stay bitwise identical.
    sm_metrics: Vec<Metrics>,
    l1_stats0: (u64, u64),
    l2_stats0: (u64, u64),
    /// Attached trace sink (`None` = untraced hot path).
    sink: Option<&'a mut dyn TraceSink>,
    /// Event-category enables (only consulted while `sink` is attached).
    trace: TraceConfig,
    /// Device cycle at which this wave starts (multi-wave launches).
    base_cycle: u64,
    /// Reusable buffers for [`Self::global_access_time`]: cleared per
    /// access, never freed, so the per-instruction hot path allocates
    /// nothing once warm.
    scratch: AccessScratch,
    /// Per-slot cycle accounting, `sm * 4 + sched`; empty unless a sink is
    /// attached.
    slot_acc: Vec<SlotAcc>,
    /// Per-PC sampling accumulators, one per kernel instruction; empty
    /// unless a sink is attached and [`TraceConfig::pc_sampling`] is on,
    /// so the untraced hot path never touches it.
    pc_acc: Vec<PcAcc>,
    /// Set when an issue loop broke on its [`RunLimit`] rather than on
    /// warp completion.
    hit_limit: bool,
    /// Replay mode: per-warp captured streams and issue cursors.  When
    /// set, operands and branch directions come from the streams and the
    /// functional datapath is skipped; every timing decision is
    /// unchanged.
    replay: Option<ReplayState<'a>>,
    /// Operand payload of the instruction currently being issued
    /// (capture mode only; cleared at every `execute`).
    cap_payload: Vec<u64>,
    /// Capture mode: a sink is attached and wants per-instruction
    /// records ([`TraceConfig::instr_events`]).
    capture: bool,
    /// Debug-only shadow counters of L1/L2 tag-array lookups issued by
    /// this engine, cross-checked against the `Metrics` hit/miss deltas
    /// at end of wave (`check_wave_invariants`).
    #[cfg(debug_assertions)]
    dbg_l1_lookups: u64,
    #[cfg(debug_assertions)]
    dbg_l2_lookups: u64,
}

/// Scratch space for one coalesced global access (sectors → cache lines →
/// TLB pages). Lives on the engine so the buffers amortise across the
/// whole run.
#[derive(Default)]
struct AccessScratch {
    sectors: Vec<u64>,
    lines: Vec<u64>,
    pages: Vec<u64>,
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
        let decoded = kernel
            .instrs
            .iter()
            .map(|i| Decoded {
                ops: i.operands(),
                shared: i.mem_space() == Some(MemSpace::Global),
            })
            .collect();
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
                    block: bi,
                    warp_in_block: w,
                    scheduler: sm_warp_count[spec.sm] % 4,
                    pc: 0,
                    active,
                    regs: vec![0u64; nregs * 32],
                    reg_ready: vec![0u64; nregs],
                    pred: [0; NUM_PREDS],
                    pred_ready: [0; NUM_PREDS],
                    status: WarpStatus::Ready,
                    next_ready: dispatch_at,
                    retry_at: 0,
                    cp_pending: 0.0,
                    cp_groups: Vec::new(),
                    stall_reason: StallReason::Dispatch,
                    stalled_since: u64::MAX,
                };
                for (i, &p) in cfg.params.iter().enumerate() {
                    for lane in 0..32 {
                        ws.regs[i * 32 + lane] = p;
                    }
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

        assert!(
            caches.l1.len() >= num_sms,
            "cache state sized for {} SMs; engine needs {num_sms}",
            caches.l1.len()
        );
        let sms = (0..num_sms)
            .map(|_| SmState {
                l1_port: Limiter::new(),
                smem_port: Limiter::new(),
                int_pipe: Limiter::new(),
                fp32_pipe: Limiter::new(),
                fp64_pipe: Limiter::new(),
                dpx_pipe: Limiter::new(),
                tc_quadrant: [
                    Limiter::new(),
                    Limiter::new(),
                    Limiter::new(),
                    Limiter::new(),
                ],
                tc_whole: Limiter::new(),
                dsm_port: Limiter::new(),
                last_sched: [0; 4],
            })
            .collect();

        let l1_stats0 = caches
            .l1
            .iter()
            .map(|t| t.stats())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let l2_stats0 = caches.l2.stats();
        let trace = cfg.opts.trace;
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
            decoded,
            cfg,
            global,
            caches,
            sms,
            blocks,
            warps,
            l2_port: Limiter::new(),
            dram_port: Limiter::new(),
            cycle: 0,
            cluster_barriers: HashMap::new(),
            cluster_members,
            sm_barrier_arrivals: vec![0; num_sms],
            sm_blocks,
            metrics: Metrics::default(),
            sm_metrics: vec![Metrics::default(); num_sms],
            l1_stats0,
            l2_stats0,
            sink: None,
            trace,
            base_cycle: 0,
            scratch: AccessScratch::default(),
            slot_acc: Vec::new(),
            pc_acc: Vec::new(),
            hit_limit: false,
            replay: None,
            cap_payload: Vec::new(),
            capture: false,
            #[cfg(debug_assertions)]
            dbg_l1_lookups: 0,
            #[cfg(debug_assertions)]
            dbg_l2_lookups: 0,
        }
    }

    /// Attach a trace sink. Event timestamps stay wave-local; the sink is
    /// told `base_cycle` (the device cycle this wave starts at) so
    /// multi-wave timelines can be assembled. A [`hopper_trace::NullSink`]
    /// is dropped here, keeping the untraced hot path branch-free.
    pub fn with_sink(mut self, sink: &'a mut dyn TraceSink, base_cycle: u64) -> Self {
        if !sink.is_null() {
            self.sink = Some(sink);
            self.base_cycle = base_cycle;
            self.capture = self.trace.instr_events;
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

    /// Run until all warps retire or the configured [`RunLimit`] trips.
    /// Returns the metrics accumulated so far and `true` iff the limit
    /// (budget or cancel) stopped the run before completion.
    pub fn run_to_limit(mut self) -> (Metrics, bool) {
        // Static warp→(sm, scheduler) rosters (built once; warp placement
        // never changes during a launch).
        let mut roster: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); 4]; self.sms.len()];
        for (w, ws) in self.warps.iter().enumerate() {
            roster[self.blocks[ws.block].spec.sm][ws.scheduler].push(w);
        }
        let tracing = self.sink.is_some();
        if let Some(s) = self.sink.as_mut() {
            s.begin_wave(self.base_cycle, self.sms.len() as u32, 4);
        }
        if tracing {
            self.slot_acc = vec![SlotAcc::default(); self.sms.len() * 4];
            if self.trace.pc_sampling {
                self.pc_acc = vec![PcAcc::default(); self.kernel.instrs.len()];
            }
        }
        // A slot wider than the 64-bit masks falls back to the legacy
        // scan (real devices top out at 16 warps per scheduler slot, and
        // the cosim roster at 8, so this never triggers in practice).
        let fits = roster.iter().flatten().all(|c| c.len() <= MAX_SLOT_WARPS);
        if !fits && matches!(self.cfg.opts.scheduler, Scheduler::ReadySet) {
            warn_slot_overflow(&self.kernel.name, self.cfg.opts.sim_threads);
        }
        let workers = if fits { self.par_workers(tracing) } else { 1 };
        match self.cfg.opts.scheduler {
            Scheduler::ReadySet if fits && workers > 1 => self.run_parallel(&roster, workers),
            Scheduler::ReadySet if fits && tracing => self.run_serial::<true>(&roster),
            Scheduler::ReadySet if fits => self.run_serial::<false>(&roster),
            _ => self.run_legacy(&roster, tracing),
        }
        // Fold the per-SM accumulators in SM-major order — one fixed f64
        // addition order for energy regardless of execution path, which is
        // what makes serial and parallel runs bitwise-identical.
        let sm_metrics = std::mem::take(&mut self.sm_metrics);
        for m in &sm_metrics {
            self.metrics.merge_parallel(m);
        }
        self.metrics.cycles = self.cycle;
        let (h, m) = self.caches.l2.stats();
        self.metrics.l2_hits = h - self.l2_stats0.0;
        self.metrics.l2_misses = m - self.l2_stats0.1;
        let l1 = self
            .caches
            .l1
            .iter()
            .map(|t| t.stats())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        self.metrics.l1_hits = l1.0 - self.l1_stats0.0;
        self.metrics.l1_misses = l1.1 - self.l1_stats0.1;
        #[cfg(debug_assertions)]
        self.check_wave_invariants();
        if tracing {
            self.emit_wave_summary();
        }
        (self.metrics, self.hit_limit)
    }

    /// Worker count for this run: the configured `sim_threads`, unless a
    /// feature outside the parallel path's soundness argument is active —
    /// then 1 (silent serial fallback; results are identical either way,
    /// which is what the `parallel_equivalence` oracle enforces).
    ///
    /// The exclusions: tracing and replay/capture observe a global issue
    /// order; a finite cycle budget stops all SMs at one global cycle;
    /// clustered launches and cluster-feature kernels (`cluster.sync`,
    /// `mapa`, `shared::cluster` DSM accesses) reach across SMs outside
    /// the shared-class gate.
    fn par_workers(&self, tracing: bool) -> usize {
        let t = self.cfg.opts.sim_threads as usize;
        if t <= 1
            || self.sms.len() <= 1
            || tracing
            || self.capture
            || self.replay.is_some()
            || self.cfg.limit.max_cycles != u64::MAX
            || self.cfg.cluster_size > 1
            || self
                .kernel
                .instrs
                .iter()
                .any(|i| i.mem_space() == Some(MemSpace::SharedCluster))
        {
            return 1;
        }
        t.min(self.sms.len())
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
        assert_eq!(
            self.metrics.l2_hits + self.metrics.l2_misses,
            self.dbg_l2_lookups,
            "L2 hits+misses diverged from tag lookups"
        );
        assert!(
            self.metrics.energy_j >= 0.0 && self.metrics.energy_j.is_finite(),
            "energy accumulator corrupt: {}",
            self.metrics.energy_j
        );
        // Every port is backpressured (acquire refuses when free_at runs
        // more than its queue depth ahead), so no backlog may extend past
        // the elapsed cycles plus the deepest window — unless the run was
        // cut short mid-issue by a RunLimit.
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
            audit(&format!("sm{i}.int"), &sm.int_pipe);
            audit(&format!("sm{i}.fp32"), &sm.fp32_pipe);
            audit(&format!("sm{i}.fp64"), &sm.fp64_pipe);
            audit(&format!("sm{i}.dpx"), &sm.dpx_pipe);
            audit(&format!("sm{i}.tensor.wg"), &sm.tc_whole);
            audit(&format!("sm{i}.l1_port"), &sm.l1_port);
            audit(&format!("sm{i}.smem_port"), &sm.smem_port);
            audit(&format!("sm{i}.dsm_port"), &sm.dsm_port);
            for (q, l) in sm.tc_quadrant.iter().enumerate() {
                audit(&format!("sm{i}.tc{q}"), l);
            }
        }
        audit("l2_port", &self.l2_port);
        audit("dram", &self.dram_port);
    }

    /// End-of-wave aggregate emission: per-slot totals, functional-unit
    /// occupancy, cache totals.
    fn emit_wave_summary(&mut self) {
        let total = self.cycle;
        let cache = CacheTotals {
            l1_hits: self.metrics.l1_hits,
            l1_misses: self.metrics.l1_misses,
            l2_hits: self.metrics.l2_hits,
            l2_misses: self.metrics.l2_misses,
            tlb_misses: self.metrics.tlb_misses,
        };
        let Some(s) = self.sink.as_mut() else { return };
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
        for (sm, st) in self.sms.iter().enumerate() {
            let sm = sm as u32;
            let units: [(&'static str, f64); 8] = [
                ("int", st.int_pipe.busy_cycles()),
                ("fp32", st.fp32_pipe.busy_cycles()),
                ("fp64", st.fp64_pipe.busy_cycles()),
                ("dpx", st.dpx_pipe.busy_cycles()),
                ("tensor.wg", st.tc_whole.busy_cycles()),
                ("l1_port", st.l1_port.busy_cycles()),
                ("smem_port", st.smem_port.busy_cycles()),
                ("dsm_port", st.dsm_port.busy_cycles()),
            ];
            for (unit, busy) in units {
                s.unit_busy(&UnitBusy {
                    sm,
                    unit,
                    busy,
                    total,
                });
            }
            // One record per quadrant; the profile merges them so the
            // reported "tensor" occupancy is the mean over quadrants.
            for q in &st.tc_quadrant {
                s.unit_busy(&UnitBusy {
                    sm,
                    unit: "tensor",
                    busy: q.busy_cycles(),
                    total,
                });
            }
        }
        s.unit_busy(&UnitBusy {
            sm: u32::MAX,
            unit: "l2_port",
            busy: self.l2_port.busy_cycles(),
            total,
        });
        s.unit_busy(&UnitBusy {
            sm: u32::MAX,
            unit: "dram",
            busy: self.dram_port.busy_cycles(),
            total,
        });
        s.cache_totals(&cache);
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
        let Some(s) = self.sink.as_mut() else { return };
        if self.trace.stall_events && since != u64::MAX && now > since {
            s.stall(&StallSpan {
                sm: sm as u32,
                sched: sched as u32,
                warp: w as u32,
                start: since,
                end: now,
                reason,
            });
        }
        if self.trace.issue_events {
            s.issue(&IssueEvent {
                cycle: now,
                sm: sm as u32,
                sched: sched as u32,
                warp: w as u32,
                op: self.kernel.instrs[pc].mnemonic(),
            });
        }
        if self.trace.instr_events {
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
            if self.trace.stall_events {
                if let Some(s) = self.sink.as_mut() {
                    s.stall(&span);
                }
            }
        }
    }

    /// Emit a functional-unit busy span (no-op without a sink).
    fn trace_unit(&mut self, sm: u32, unit: &'static str, w: usize, start: f64, cost: f64) {
        if self.sink.is_none() || !self.trace.unit_events {
            return;
        }
        let s0 = start.floor() as u64;
        let end = ((start + cost).ceil() as u64).max(s0 + 1);
        if let Some(s) = self.sink.as_mut() {
            s.unit(&UnitSpan {
                sm,
                unit,
                warp: w as u32,
                start: s0,
                end,
            });
        }
    }

    /// Emit a cache hit/miss event (no-op without a sink).
    fn trace_cache(&mut self, sm: u32, level: CacheLevel, hit: bool, sectors: u32) {
        if self.sink.is_none() || !self.trace.cache_events {
            return;
        }
        let cycle = self.cycle;
        if let Some(s) = self.sink.as_mut() {
            s.cache(&CacheEvent {
                cycle,
                sm,
                level,
                hit,
                sectors,
            });
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

    // ---------------------------------------------------------------- issue

    fn try_issue(&mut self, w: usize, now: u64, local_only: bool) -> IssueResult {
        {
            let ws = &self.warps[w];
            match ws.status {
                WarpStatus::Done => return IssueResult::Stalled(u64::MAX, StallReason::Barrier),
                WarpStatus::Barrier | WarpStatus::ClusterBarrier => {
                    return IssueResult::Stalled(u64::MAX, StallReason::Barrier)
                }
                WarpStatus::Ready => {}
            }
            if ws.next_ready > now {
                return IssueResult::Stalled(ws.next_ready, StallReason::Dispatch);
            }
        }
        let pc = self.warps[w].pc;

        // Data-dependency check.
        let ready_at = self.deps_ready_at(w, pc);
        if ready_at > now {
            return IssueResult::Stalled(ready_at, StallReason::Scoreboard);
        }

        // Parallel shard: an instruction that passed every SM-local gate
        // but touches run-shared state must issue under the shared gate —
        // hand control back before anything commits.
        if local_only && self.decoded[pc].shared {
            return IssueResult::NeedsShared;
        }

        // Structural + execute.  Copy the shared kernel reference out of
        // `self` so the borrow of the instruction doesn't pin `self` (and
        // no clone per attempt).
        let kernel: &Kernel = self.kernel;
        let res = self.execute(w, &kernel.instrs[pc], now);
        match res {
            IssueResult::Issued => {
                let sm = self.sm_of(w);
                self.sm_metrics[sm].instructions += 1;
                let ws = &mut self.warps[w];
                ws.next_ready = ws.next_ready.max(now + 1);
                // Replay: follow the recorded PC sequence (this is what
                // resolves branches, whose guards are never evaluated).
                if let Some(rp) = self.replay.as_mut() {
                    rp.cursors[w] += 1;
                    let next = rp.streams[w].get(rp.cursors[w]).map(|r| r.pc as usize);
                    if let Some(pc) = next {
                        self.warps[w].pc = pc;
                    }
                }
            }
            IssueResult::Stalled(..) | IssueResult::NeedsShared => {}
        }
        res
    }

    /// Latest ready time over every register the instruction at `pc` reads
    /// or writes (write-after-write ordering included) and the predicate
    /// it reads.
    fn deps_ready_at(&self, w: usize, pc: usize) -> u64 {
        let ws = &self.warps[w];
        let ops = &self.decoded[pc].ops;
        let pred = ops.pred_read.map_or(0, |p| ws.pred_ready[p.0 as usize]);
        let regs = ops.regs().iter().map(|r| ws.reg_ready[r.0 as usize]);
        regs.fold(pred, u64::max)
    }

    /// Debug touch-audit: a register the datapath reads or writes while
    /// issuing must be listed by `Instr::operands` for the issuing PC, or
    /// the scoreboard and the validator are blind to it.
    fn audit_reg(&self, w: usize, r: Reg) {
        debug_assert!(
            self.decoded[self.warps[w].pc].ops.regs().contains(&r),
            "{r} touched by `{}` at pc {} but missing from Instr::operands()",
            self.kernel.instrs[self.warps[w].pc].mnemonic(),
            self.warps[w].pc
        );
    }

    // ------------------------------------------------------------- execute

    fn execute(&mut self, w: usize, instr: &Instr, nowc: u64) -> IssueResult {
        let now = nowc as f64;
        if self.capture {
            // Stalled attempts may leave pushes behind; the payload is
            // only read after an Issued outcome, so clearing here keeps
            // it exact.
            self.cap_payload.clear();
        }
        match instr {
            Instr::IAlu { op, dst, a, b } => {
                let cost = 32.0 / self.dev.int_per_clk as f64;
                let sm = self.sm_of(w);
                if self.sms[sm].int_pipe.free_at() > now {
                    return IssueResult::Stalled(
                        self.sms[sm].int_pipe.free_at() as u64,
                        StallReason::MathPipeBusy,
                    );
                }
                let ustart = self.sms[sm].int_pipe.acquire(now, cost);
                self.trace_unit(sm as u32, "int", w, ustart, cost);
                // The integer datapath is 64-bit (addresses need it); PTX
                // .s32 ops run at full width, observationally equivalent
                // for kernels that keep 32-bit quantities in range.
                if !self.replaying() {
                    self.lane_op2(w, *dst, *a, *b, |x, y| match op {
                        IAluOp::Add => x.wrapping_add(y),
                        IAluOp::Sub => x.wrapping_sub(y),
                        IAluOp::Mul => x.wrapping_mul(y),
                        IAluOp::Min => (x as i64).min(y as i64) as u64,
                        IAluOp::Max => (x as i64).max(y as i64) as u64,
                        IAluOp::And => x & y,
                        IAluOp::Or => x | y,
                        IAluOp::Xor => x ^ y,
                        IAluOp::Shl => x.wrapping_shl(y as u32),
                        IAluOp::Shr => x.wrapping_shr(y as u32),
                    });
                }
                self.finish_reg(w, *dst, nowc + self.dev.alu_latency as u64);
                self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J;
                self.advance(w);
                IssueResult::Issued
            }
            Instr::IMad { dst, a, b, c } => {
                let cost = 32.0 / self.dev.int_per_clk as f64;
                let sm = self.sm_of(w);
                if self.sms[sm].int_pipe.free_at() > now {
                    return IssueResult::Stalled(
                        self.sms[sm].int_pipe.free_at() as u64,
                        StallReason::MathPipeBusy,
                    );
                }
                let ustart = self.sms[sm].int_pipe.acquire(now, cost);
                self.trace_unit(sm as u32, "int", w, ustart, cost);
                if !self.replaying() {
                    self.lane_op3(w, *dst, *a, *b, *c, |x, y, z| {
                        x.wrapping_mul(y).wrapping_add(z)
                    });
                }
                self.finish_reg(w, *dst, nowc + self.dev.alu_latency as u64 + 1);
                self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J;
                self.advance(w);
                IssueResult::Issued
            }
            Instr::FAlu {
                op,
                prec,
                dst,
                a,
                b,
            } => self.fp_op(w, *prec, *dst, &[*a, *b], nowc, {
                let op = *op;
                move |v: &[f64]| match op {
                    FAluOp::Add => v[0] + v[1],
                    FAluOp::Mul => v[0] * v[1],
                    FAluOp::Min => v[0].min(v[1]),
                    FAluOp::Max => v[0].max(v[1]),
                }
            }),
            Instr::FFma { prec, dst, a, b, c } => {
                self.fp_op(w, *prec, *dst, &[*a, *b, *c], nowc, |v: &[f64]| {
                    v[0] * v[1] + v[2]
                })
            }
            Instr::Mov { dst, src } => {
                let sm = self.sm_of(w);
                let cost = 32.0 / self.dev.int_per_clk as f64;
                let ustart = self.sms[sm].int_pipe.acquire(now, cost);
                self.trace_unit(sm as u32, "int", w, ustart, cost);
                if !self.replaying() {
                    for lane in 0..32 {
                        let v = self.read_op(w, *src, lane);
                        self.warps[w].regs[dst.0 as usize * 32 + lane] = v;
                    }
                }
                self.finish_reg(w, *dst, nowc + 2);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::Dpx { func, dst, a, b, c } => {
                let sm = self.sm_of(w);
                if self.dev.arch.has_dpx_hardware() {
                    let cost = 32.0 / self.dev.dpx_per_clk as f64;
                    if self.sms[sm].dpx_pipe.free_at() > now + 4.0 {
                        return IssueResult::Stalled(
                            self.sms[sm].dpx_pipe.free_at() as u64 - 4,
                            StallReason::MathPipeBusy,
                        );
                    }
                    let ustart = self.sms[sm].dpx_pipe.acquire(now, cost);
                    self.trace_unit(sm as u32, "dpx", w, ustart, cost);
                    self.finish_reg(w, *dst, nowc + self.dev.dpx_latency as u64);
                } else {
                    // Software emulation: a dependent chain of ALU ops.
                    let ops = func.emulation_ops(self.dev.arch);
                    let cost = ops as f64 * 32.0 / self.dev.int_per_clk as f64;
                    if self.sms[sm].int_pipe.free_at() > now + 4.0 {
                        return IssueResult::Stalled(
                            self.sms[sm].int_pipe.free_at() as u64 - 4,
                            StallReason::MathPipeBusy,
                        );
                    }
                    let ustart = self.sms[sm].int_pipe.acquire(now, cost);
                    self.trace_unit(sm as u32, "int", w, ustart, cost);
                    self.sm_metrics[sm].instructions += ops as u64 - 1;
                    self.finish_reg(w, *dst, nowc + (ops * self.dev.alu_latency) as u64);
                }
                if !self.replaying() {
                    let (fa, fb, fc, fd) = (*a, *b, *c, *dst);
                    let f = *func;
                    self.lane_op3(w, fd, fa, fb, fc, move |x, y, z| {
                        f.eval(x as u32, y as u32, z as u32) as u64
                    });
                }
                self.sm_metrics[sm].dpx_ops += 32;
                self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J * 1.5;
                self.advance(w);
                IssueResult::Issued
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
                debug_assert_eq!(self.decoded[ws.pc].ops.pred_write, Some(*pred));
                ws.pred[pred.0 as usize] = mask;
                ws.pred_ready[pred.0 as usize] = nowc + self.dev.alu_latency as u64;
                let sm = self.sm_of(w);
                self.sms[sm].int_pipe.acquire(now, 0.5);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::Sel { dst, pred, a, b } => {
                if !self.replaying() {
                    let pmask = self.read_pred(w, *pred);
                    for lane in 0..32 {
                        let v = if pmask & (1 << lane) != 0 {
                            self.read_op(w, *a, lane)
                        } else {
                            self.read_op(w, *b, lane)
                        };
                        self.warps[w].regs[dst.0 as usize * 32 + lane] = v;
                    }
                }
                self.finish_reg(w, *dst, nowc + self.dev.alu_latency as u64);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::Bra { target, guard } => {
                // Replay: the direction is the next record's PC (applied
                // by `try_issue`); the guard predicate was never computed.
                if self.replaying() {
                    self.advance(w);
                    return IssueResult::Issued;
                }
                let taken = match guard {
                    None => true,
                    Some((p, expect)) => {
                        let mask = self.read_pred(w, *p);
                        let active = self.warps[w].active;
                        let t = mask & active;
                        if t != 0 && t != active {
                            panic!(
                                "divergent branch in kernel `{}` at pc {} — \
                                 the engine supports uniform control flow only",
                                self.kernel.name, self.warps[w].pc
                            );
                        }
                        (t == active) == *expect
                    }
                };
                if taken {
                    self.warps[w].pc = *target;
                } else {
                    self.advance(w);
                }
                IssueResult::Issued
            }
            Instr::Ld {
                space,
                cop,
                width,
                dst,
                addr,
            } => self.do_load(w, *space, *cop, *width, *dst, *addr, nowc),
            Instr::St {
                space,
                width,
                src,
                addr,
            } => self.do_store(w, *space, *width, *src, *addr, nowc),
            Instr::AtomAdd {
                space,
                dst,
                addr,
                src,
            } => self.do_atom(w, *space, *dst, *addr, *src, nowc),
            Instr::CpAsync { width, smem, gmem } => self.do_cp_async(w, *width, *smem, *gmem, nowc),
            Instr::CpAsyncCommit => {
                let ws = &mut self.warps[w];
                let c = ws.cp_pending;
                ws.cp_pending = 0.0;
                ws.cp_groups.push(c);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::CpAsyncWait { groups } => {
                let ws = &mut self.warps[w];
                while !ws.cp_groups.is_empty() && ws.cp_groups[0] <= now {
                    ws.cp_groups.remove(0);
                }
                if ws.cp_groups.len() > *groups as usize {
                    let idx = ws.cp_groups.len() - *groups as usize - 1;
                    return IssueResult::Stalled(
                        ws.cp_groups[idx].ceil() as u64,
                        StallReason::TmaInFlight,
                    );
                }
                self.advance(w);
                IssueResult::Issued
            }
            Instr::TmaCopy {
                rows,
                row_bytes,
                gstride,
                smem,
                gmem,
            } => self.do_tma(w, *rows, *row_bytes, *gstride, *smem, *gmem, nowc),
            Instr::Mma { desc, d, a, b, c } => self.do_mma(w, desc, *d, *a, *b, *c, nowc),
            Instr::WgmmaFence => {
                self.advance(w);
                IssueResult::Issued
            }
            Instr::Wgmma { desc, d, a, b } => self.do_wgmma(w, desc, *d, *a, *b, nowc),
            Instr::WgmmaCommit => {
                let key = self.wg_key(w);
                let bi = self.warps[w].block;
                let e = self.blocks[bi]
                    .wgmma
                    .entry(key)
                    .or_insert((0.0, Vec::new()));
                let c = e.0;
                e.0 = 0.0;
                e.1.push(c);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::WgmmaWait { groups } => {
                let key = self.wg_key(w);
                let bi = self.warps[w].block;
                let e = self.blocks[bi]
                    .wgmma
                    .entry(key)
                    .or_insert((0.0, Vec::new()));
                while !e.1.is_empty() && e.1[0] <= now {
                    e.1.remove(0);
                }
                if e.1.len() > *groups as usize {
                    let idx = e.1.len() - *groups as usize - 1;
                    return IssueResult::Stalled(
                        e.1[idx].ceil() as u64,
                        StallReason::TensorPipeBusy,
                    );
                }
                self.advance(w);
                IssueResult::Issued
            }
            Instr::LdTile {
                tile,
                dtype,
                rows,
                cols,
                space,
                addr,
            } => self.do_ld_tile(
                w,
                *tile,
                *dtype,
                *rows as usize,
                *cols as usize,
                *space,
                *addr,
                nowc,
            ),
            Instr::StTile { tile, space, addr } => self.do_st_tile(w, *tile, *space, *addr, nowc),
            Instr::FillTile {
                tile,
                dtype,
                rows,
                cols,
                pattern,
            } => {
                let key = self.tile_owner(w);
                // Replay keeps only the shape (the data is never read:
                // activity factors come from the trace).
                let t = if self.replaying() {
                    Tile {
                        dtype: *dtype,
                        rows: *rows as usize,
                        cols: *cols as usize,
                        data: Vec::new(),
                    }
                } else {
                    Tile::from_pattern(*dtype, *rows as usize, *cols as usize, *pattern)
                };
                let bi = self.warps[w].block;
                self.blocks[bi].tiles.insert((key, tile.0), t);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::Mapa { dst, addr, rank } => {
                if !self.replaying() {
                    for lane in 0..32 {
                        let a = self.read_op(w, *addr, lane) & 0xffff_ffff;
                        let r = self.read_op(w, *rank, lane) & 0xffff;
                        self.warps[w].regs[dst.0 as usize * 32 + lane] = DSM_TAG | (r << 32) | a;
                    }
                }
                self.finish_reg(w, *dst, nowc + self.dev.alu_latency as u64);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::BarSync => {
                let bi = self.warps[w].block;
                let sm = self.blocks[bi].spec.sm;
                self.blocks[bi].barrier_count += 1;
                self.sm_barrier_arrivals[sm] += 1;
                self.sm_metrics[sm].barrier_waits += 1;
                self.warps[w].status = WarpStatus::Barrier;
                self.advance(w);
                IssueResult::Issued
            }
            Instr::ClusterSync => {
                let bi = self.warps[w].block;
                let sm = self.blocks[bi].spec.sm;
                let cid = self.blocks[bi].spec.cluster_id;
                *self.cluster_barriers.entry(cid).or_insert(0) += 1;
                self.sm_metrics[sm].barrier_waits += 1;
                self.warps[w].status = WarpStatus::ClusterBarrier;
                self.advance(w);
                IssueResult::Issued
            }
            Instr::ReadSpecial { dst, sr } => {
                if !self.replaying() {
                    let bi = self.warps[w].block;
                    let spec = self.blocks[bi].spec;
                    let wib = self.warps[w].warp_in_block;
                    for lane in 0..32 {
                        let v = match sr {
                            Special::TidX => (wib * 32 + lane) as u64,
                            Special::CtaIdX => spec.ctaid as u64,
                            Special::NTidX => self.cfg.threads_per_block as u64,
                            Special::NCtaIdX => self.cfg.grid_dim as u64,
                            Special::LaneId => lane as u64,
                            Special::WarpId => wib as u64,
                            Special::SmId => spec.smid as u64,
                            Special::ClusterCtaRank => spec.cluster_rank as u64,
                            Special::ClusterNCtaRank => self.cfg.cluster_size as u64,
                            Special::Clock => nowc,
                        };
                        self.warps[w].regs[dst.0 as usize * 32 + lane] = v;
                    }
                }
                self.finish_reg(w, *dst, nowc + 2);
                self.advance(w);
                IssueResult::Issued
            }
            Instr::Exit => {
                self.warps[w].status = WarpStatus::Done;
                IssueResult::Issued
            }
        }
    }

    // ------------------------------------------------------------- helpers

    fn sm_of(&self, w: usize) -> usize {
        self.blocks[self.warps[w].block].spec.sm
    }

    fn advance(&mut self, w: usize) {
        self.warps[w].pc += 1;
    }

    fn finish_reg(&mut self, w: usize, r: Reg, at: u64) {
        self.audit_reg(w, r);
        self.warps[w].reg_ready[r.0 as usize] = at;
    }

    fn read_reg(&self, w: usize, r: Reg, lane: usize) -> u64 {
        self.audit_reg(w, r);
        self.warps[w].regs[r.0 as usize * 32 + lane]
    }

    fn read_op(&self, w: usize, o: Operand, lane: usize) -> u64 {
        match o {
            Operand::Imm(v) => v as u64,
            Operand::Reg(r) => self.read_reg(w, r, lane),
        }
    }

    /// A warp-uniform address (TMA descriptors, tile bases): lane 0's.
    fn uniform_addr(&self, w: usize, addr: AddrExpr) -> u64 {
        self.read_reg(w, addr.base, 0)
            .wrapping_add(addr.offset as u64)
    }

    /// Lane mask of the predicate the issuing instruction reads.
    fn read_pred(&self, w: usize, p: Pred) -> u32 {
        let ws = &self.warps[w];
        debug_assert_eq!(self.decoded[ws.pc].ops.pred_read, Some(p));
        ws.pred[p.0 as usize]
    }

    fn lane_op2(
        &mut self,
        w: usize,
        dst: Reg,
        a: Operand,
        b: Operand,
        f: impl Fn(u64, u64) -> u64,
    ) {
        for lane in 0..32 {
            let x = self.read_op(w, a, lane);
            let y = self.read_op(w, b, lane);
            self.warps[w].regs[dst.0 as usize * 32 + lane] = f(x, y);
        }
    }

    fn lane_op3(
        &mut self,
        w: usize,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
        f: impl Fn(u64, u64, u64) -> u64,
    ) {
        for lane in 0..32 {
            let x = self.read_op(w, a, lane);
            let y = self.read_op(w, b, lane);
            let z = self.read_op(w, c, lane);
            self.warps[w].regs[dst.0 as usize * 32 + lane] = f(x, y, z);
        }
    }

    fn fp_op(
        &mut self,
        w: usize,
        prec: FloatPrec,
        dst: Reg,
        srcs: &[Operand],
        nowc: u64,
        f: impl Fn(&[f64]) -> f64,
    ) -> IssueResult {
        let now = nowc as f64;
        let sm = self.sm_of(w);
        let (pipe_free, cost, lat) = match prec {
            FloatPrec::F32 => (
                self.sms[sm].fp32_pipe.free_at(),
                32.0 / self.dev.fp32_per_clk as f64,
                self.dev.alu_latency as u64,
            ),
            FloatPrec::F64 => (
                self.sms[sm].fp64_pipe.free_at(),
                32.0 / self.dev.fp64_per_clk as f64,
                self.dev.alu_latency as u64 + (32 / self.dev.fp64_per_clk) as u64,
            ),
        };
        if pipe_free > now + 2.0 {
            return IssueResult::Stalled(pipe_free as u64 - 2, StallReason::MathPipeBusy);
        }
        let (ustart, unit) = match prec {
            FloatPrec::F32 => (self.sms[sm].fp32_pipe.acquire(now, cost), "fp32"),
            FloatPrec::F64 => (self.sms[sm].fp64_pipe.acquire(now, cost), "fp64"),
        };
        self.trace_unit(sm as u32, unit, w, ustart, cost);
        if !self.replaying() {
            for lane in 0..32 {
                let mut vals = [0.0f64; 3];
                for (k, &o) in srcs.iter().enumerate() {
                    let bits = self.read_op(w, o, lane);
                    vals[k] = match prec {
                        FloatPrec::F32 => f32::from_bits(bits as u32) as f64,
                        FloatPrec::F64 => f64::from_bits(bits),
                    };
                }
                let r = f(&vals[..srcs.len()]);
                let bits = match prec {
                    FloatPrec::F32 => (r as f32).to_bits() as u64,
                    FloatPrec::F64 => r.to_bits(),
                };
                self.warps[w].regs[dst.0 as usize * 32 + lane] = bits;
            }
        }
        self.finish_reg(w, dst, nowc + lat);
        self.sm_metrics[sm].energy_j += 32.0 * power::ALU_ENERGY_J;
        self.advance(w);
        IssueResult::Issued
    }

    /// Active-lane addresses, written into a caller-provided stack buffer
    /// (memory instructions are the hot path; no per-instruction
    /// allocation).
    fn lane_addrs<'b>(
        &self,
        w: usize,
        addr: AddrExpr,
        buf: &'b mut [(usize, u64); 32],
    ) -> &'b [(usize, u64)] {
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

    /// Current replay record for warp `w` (`None` in functional mode).
    /// Only valid during `execute` of a non-`Done` warp: stream
    /// validation guarantees `exit` terminates every stream, so the
    /// cursor is in bounds whenever an instruction can still issue.
    fn replay_rec(&self, w: usize) -> Option<&'a ReplayRec> {
        let rp = self.replay.as_ref()?;
        let s: &'a [ReplayRec] = rp.streams[w];
        Some(&s[rp.cursors[w]])
    }

    fn replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// Lane addresses at issue: from the replay record in replay mode,
    /// from the register file otherwise.
    fn issue_lanes<'b>(
        &self,
        w: usize,
        addr: AddrExpr,
        buf: &'b mut [(usize, u64); 32],
    ) -> &'b [(usize, u64)] {
        match self.replay_rec(w) {
            Some(rec) => rec_lanes(rec, buf),
            None => self.lane_addrs(w, addr, buf),
        }
    }

    /// Decode a possibly-`mapa`-tagged shared address into (block index,
    /// offset).
    fn resolve_shared(&self, w: usize, addr: u64) -> (usize, u64) {
        let bi = self.warps[w].block;
        if addr & DSM_TAG != 0 {
            let rank = ((addr >> 32) & 0xffff) as u32;
            let off = addr & 0xffff_ffff;
            let cid = self.blocks[bi].spec.cluster_id;
            let target = self
                .blocks
                .iter()
                .position(|b| b.spec.cluster_id == cid && b.spec.cluster_rank == rank)
                .unwrap_or_else(|| {
                    panic!(
                        "mapa rank {rank} not resident in cluster {cid} (kernel `{}`)",
                        self.kernel.name
                    )
                });
            (target, off)
        } else {
            (bi, addr)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_load(
        &mut self,
        w: usize,
        space: MemSpace,
        cop: CacheOp,
        width: Width,
        dst: Reg,
        addr: AddrExpr,
        nowc: u64,
    ) -> IssueResult {
        let now = nowc as f64;
        let mut abuf = [(0usize, 0u64); 32];
        let lanes = self.issue_lanes(w, addr, &mut abuf);
        if self.capture {
            self.cap_payload.extend(lanes.iter().map(|&(_, a)| a));
        }
        let bytes = width.bytes();
        match space {
            MemSpace::Shared | MemSpace::SharedCluster => {
                let remote = space == MemSpace::SharedCluster
                    || lanes.iter().any(|&(_, a)| a & DSM_TAG != 0);
                let sm = self.sm_of(w);
                if remote {
                    let eff_bw = self.dsm_bw_eff();
                    let cost = (lanes.len() as u64 * bytes) as f64 / eff_bw;
                    if self.sms[sm].dsm_port.free_at() > now + MEM_QUEUE_DEPTH {
                        return IssueResult::Stalled(
                            self.sms[sm].dsm_port.free_at() as u64,
                            StallReason::MioQueueFull,
                        );
                    }
                    let start = self.sms[sm].dsm_port.acquire(now, cost);
                    self.trace_unit(sm as u32, "dsm_port", w, start, cost);
                    let done = (start + cost) as u64 + self.dev.dsm_latency as u64;
                    self.sm_metrics[sm].dsm_bytes += lanes.len() as u64 * bytes;
                    self.sm_metrics[sm].energy_j +=
                        lanes.len() as f64 * bytes as f64 * power::L2_ENERGY_PER_BYTE_J;
                    if !self.replaying() {
                        self.read_shared_lanes(w, lanes, bytes, dst);
                    }
                    self.finish_load_regs(w, dst, width, done);
                } else {
                    let degree = self.conflict_degree(lanes.iter().map(|&(_, a)| a), bytes);
                    let cost = degree.max(lanes.len() as f64 * bytes as f64 / self.dev.smem_bw);
                    if self.sms[sm].smem_port.free_at() > now + MEM_QUEUE_DEPTH {
                        return IssueResult::Stalled(
                            self.sms[sm].smem_port.free_at() as u64,
                            StallReason::MioQueueFull,
                        );
                    }
                    let start = self.sms[sm].smem_port.acquire(now, cost);
                    self.trace_unit(sm as u32, "smem_port", w, start, cost);
                    let done = (start + cost) as u64 + self.dev.smem_latency as u64 - 1;
                    self.sm_metrics[sm].smem_bytes += lanes.len() as u64 * bytes;
                    self.sm_metrics[sm].energy_j +=
                        lanes.len() as f64 * bytes as f64 * power::SMEM_ENERGY_PER_BYTE_J;
                    if !self.replaying() {
                        self.read_shared_lanes(w, lanes, bytes, dst);
                    }
                    self.finish_load_regs(w, dst, width, done);
                }
                self.advance(w);
                IssueResult::Issued
            }
            MemSpace::Global => {
                let sm = self.sm_of(w);
                if self.sms[sm].l1_port.free_at() > now + MEM_QUEUE_DEPTH {
                    return IssueResult::Stalled(
                        self.sms[sm].l1_port.free_at() as u64,
                        StallReason::MioQueueFull,
                    );
                }
                if let Some(until) = self.mem_backpressure(now) {
                    return IssueResult::Stalled(until, StallReason::MioQueueFull);
                }
                // Functional read.
                if !self.replaying() {
                    for &(lane, a) in lanes {
                        let lo = self.global.read_scalar(a, bytes.min(8));
                        self.warps[w].regs[dst.0 as usize * 32 + lane] = lo;
                        if width == Width::B16 {
                            let hi = self.global.read_scalar(a + 8, 8);
                            self.warps[w].regs[(dst.0 + 1) as usize * 32 + lane] = hi;
                        }
                    }
                }
                let done = self.global_access_time(w, sm, lanes, bytes, cop, now);
                self.finish_load_regs(w, dst, width, done);
                self.advance(w);
                IssueResult::Issued
            }
        }
    }

    fn read_shared_lanes(&mut self, w: usize, lanes: &[(usize, u64)], bytes: u64, dst: Reg) {
        for &(lane, a) in lanes {
            let (bi, off) = self.resolve_shared(w, a);
            let mut lo = 0u64;
            for i in 0..bytes.min(8) {
                let idx = (off + i) as usize;
                let byte = self.blocks[bi].smem.get(idx).copied().unwrap_or_else(|| {
                    panic!(
                        "shared load out of bounds: offset {} ≥ {} in kernel `{}`",
                        idx,
                        self.blocks[bi].smem.len(),
                        self.kernel.name
                    )
                });
                lo |= (byte as u64) << (8 * i);
            }
            self.warps[w].regs[dst.0 as usize * 32 + lane] = lo;
            if bytes == 16 {
                let mut hi = 0u64;
                for i in 0..8 {
                    hi |= (self.blocks[bi].smem[(off + 8 + i) as usize] as u64) << (8 * i);
                }
                self.warps[w].regs[(dst.0 + 1) as usize * 32 + lane] = hi;
            }
        }
    }

    fn finish_load_regs(&mut self, w: usize, dst: Reg, width: Width, done: u64) {
        self.finish_reg(w, dst, done);
        if width == Width::B16 {
            self.finish_reg(w, Reg(dst.0 + 1), done);
        }
    }

    /// Timing of a coalesced global access through L1 → L2 → DRAM.
    /// Returns the completion cycle.
    #[allow(clippy::too_many_arguments)]
    fn global_access_time(
        &mut self,
        w: usize,
        sm: usize,
        lanes: &[(usize, u64)],
        bytes: u64,
        cop: CacheOp,
        now: f64,
    ) -> u64 {
        // The scratch buffers move out of `self` for the duration of the
        // access (they are only touched here), so the borrow checker lets
        // the cache/limiter state mutate while they are live.
        let mut scratch = std::mem::take(&mut self.scratch);
        coalesce_sectors_into(lanes.iter().map(|&(_, a)| a), bytes, &mut scratch.sectors);
        let sectors = &scratch.sectors;
        let total_bytes = (sectors.len() * 32) as u64;
        self.sm_metrics[sm].l1_bytes += total_bytes;
        let tracing_cache = self.sink.is_some() && self.trace.cache_events;

        // L1 port occupancy regardless of hit/miss.
        let l1_cost = total_bytes as f64 / self.dev.l1_bw.for_width(bytes);
        let start = self.sms[sm].l1_port.acquire(now, l1_cost);
        self.trace_unit(sm as u32, "l1_port", w, start, l1_cost);

        // Classify lines.
        scratch.lines.clear();
        scratch.lines.extend(sectors.iter().map(|&s| s / 128));
        scratch.lines.dedup();
        // Address translation: a TLB miss on any touched 2 MiB page adds a
        // page walk to the access.
        let mut tlb_penalty = 0.0;
        scratch.pages.clear();
        scratch.pages.extend(sectors.iter().map(|&s| s >> 21));
        scratch.pages.sort_unstable();
        scratch.pages.dedup();
        for &page in &scratch.pages {
            if !self.caches.tlb.access(page << 21) {
                tlb_penalty = self.dev.tlb_miss_latency as f64;
                self.sm_metrics[sm].tlb_misses += 1;
                if tracing_cache {
                    self.trace_cache(sm as u32, CacheLevel::Tlb, false, 0);
                }
            }
        }
        let mut worst_done = start + l1_cost + self.dev.l1_latency as f64 - 1.0;
        let mut miss_bytes = 0u64;
        for &line in &scratch.lines {
            let nsec = if tracing_cache {
                sectors.iter().filter(|&&s| s / 128 == line).count() as u32
            } else {
                0
            };
            let l1_hit = cop == CacheOp::Ca && self.caches.l1[sm].access(line * 128);
            #[cfg(debug_assertions)]
            if cop == CacheOp::Ca {
                self.dbg_l1_lookups += 1;
            }
            if tracing_cache && cop == CacheOp::Ca {
                self.trace_cache(sm as u32, CacheLevel::L1, l1_hit, nsec);
            }
            if l1_hit {
                continue;
            }
            miss_bytes += 128;
            let l2_hit = self.caches.l2.access(line * 128);
            #[cfg(debug_assertions)]
            {
                self.dbg_l2_lookups += 1;
            }
            if tracing_cache {
                self.trace_cache(sm as u32, CacheLevel::L2, l2_hit, nsec);
            }
            if !l2_hit {
                let dram_cost =
                    128.0 / (self.dev.dram_bw / self.dev.clock_hz * self.cfg.dram_bw_scale);
                let s2 = self.dram_port.acquire(start, dram_cost);
                self.trace_unit(u32::MAX, "dram", w, s2, dram_cost);
                self.sm_metrics[sm].dram_bytes += 128;
                self.sm_metrics[sm].energy_j += 128.0 * power::DRAM_ENERGY_PER_BYTE_J;
                worst_done = worst_done.max(s2 + dram_cost + self.dev.dram_latency as f64);
            } else {
                worst_done = worst_done.max(start + self.dev.l2_latency as f64);
            }
        }
        if miss_bytes > 0 {
            let l2_cost =
                miss_bytes as f64 / (self.dev.l2_bw.for_width(bytes) * self.cfg.l2_bw_scale);
            let s = self.l2_port.acquire(start, l2_cost);
            self.trace_unit(u32::MAX, "l2_port", w, s, l2_cost);
            self.sm_metrics[sm].l2_bytes += miss_bytes;
            self.sm_metrics[sm].energy_j += miss_bytes as f64 * power::L2_ENERGY_PER_BYTE_J;
            worst_done = worst_done.max(s + l2_cost + self.dev.l2_latency as f64 - 1.0);
        }
        self.scratch = scratch;
        // The page walk precedes the data access, delaying whatever level
        // ultimately serves it.
        (worst_done + tlb_penalty).ceil() as u64
    }

    fn do_store(
        &mut self,
        w: usize,
        space: MemSpace,
        width: Width,
        src: Reg,
        addr: AddrExpr,
        nowc: u64,
    ) -> IssueResult {
        let now = nowc as f64;
        let mut abuf = [(0usize, 0u64); 32];
        let lanes = self.issue_lanes(w, addr, &mut abuf);
        if self.capture {
            self.cap_payload.extend(lanes.iter().map(|&(_, a)| a));
        }
        let bytes = width.bytes();
        match space {
            MemSpace::Shared | MemSpace::SharedCluster => {
                let sm = self.sm_of(w);
                let remote = space == MemSpace::SharedCluster
                    || lanes.iter().any(|&(_, a)| a & DSM_TAG != 0);
                if remote {
                    let eff_bw = self.dsm_bw_eff();
                    let cost = (lanes.len() as u64 * bytes) as f64 / eff_bw;
                    if self.sms[sm].dsm_port.free_at() > now + MEM_QUEUE_DEPTH {
                        return IssueResult::Stalled(
                            self.sms[sm].dsm_port.free_at() as u64,
                            StallReason::MioQueueFull,
                        );
                    }
                    let ustart = self.sms[sm].dsm_port.acquire(now, cost);
                    self.trace_unit(sm as u32, "dsm_port", w, ustart, cost);
                    self.sm_metrics[sm].dsm_bytes += lanes.len() as u64 * bytes;
                } else {
                    let degree = self.conflict_degree(lanes.iter().map(|&(_, a)| a), bytes);
                    let cost = degree.max(lanes.len() as f64 * bytes as f64 / self.dev.smem_bw);
                    if self.sms[sm].smem_port.free_at() > now + MEM_QUEUE_DEPTH {
                        return IssueResult::Stalled(
                            self.sms[sm].smem_port.free_at() as u64,
                            StallReason::MioQueueFull,
                        );
                    }
                    let ustart = self.sms[sm].smem_port.acquire(now, cost);
                    self.trace_unit(sm as u32, "smem_port", w, ustart, cost);
                    self.sm_metrics[sm].smem_bytes += lanes.len() as u64 * bytes;
                }
                if !self.replaying() {
                    for &(lane, a) in lanes {
                        let (bi, off) = self.resolve_shared(w, a);
                        let lo = self.read_reg(w, src, lane);
                        for i in 0..bytes.min(8) {
                            self.blocks[bi].smem[(off + i) as usize] = (lo >> (8 * i)) as u8;
                        }
                        if bytes == 16 {
                            let hi = self.read_reg(w, Reg(src.0 + 1), lane);
                            for i in 0..8 {
                                self.blocks[bi].smem[(off + 8 + i) as usize] =
                                    (hi >> (8 * i)) as u8;
                            }
                        }
                    }
                }
                self.advance(w);
                IssueResult::Issued
            }
            MemSpace::Global => {
                let sm = self.sm_of(w);
                if self.sms[sm].l1_port.free_at() > now + MEM_QUEUE_DEPTH {
                    return IssueResult::Stalled(
                        self.sms[sm].l1_port.free_at() as u64,
                        StallReason::MioQueueFull,
                    );
                }
                if let Some(until) = self.mem_backpressure(now) {
                    return IssueResult::Stalled(until, StallReason::MioQueueFull);
                }
                if !self.replaying() {
                    for &(lane, a) in lanes {
                        let lo = self.read_reg(w, src, lane);
                        self.global.write_scalar(a, bytes.min(8), lo);
                        if width == Width::B16 {
                            let hi = self.read_reg(w, Reg(src.0 + 1), lane);
                            self.global.write_scalar(a + 8, 8, hi);
                        }
                    }
                }
                // Stores are fire-and-forget; they still consume bandwidth.
                self.global_access_time(w, sm, lanes, bytes, CacheOp::Cg, now);
                self.advance(w);
                IssueResult::Issued
            }
        }
    }

    fn do_atom(
        &mut self,
        w: usize,
        space: MemSpace,
        dst: Option<Reg>,
        addr: AddrExpr,
        src: Operand,
        nowc: u64,
    ) -> IssueResult {
        let now = nowc as f64;
        let mut abuf = [(0usize, 0u64); 32];
        let lanes = self.issue_lanes(w, addr, &mut abuf);
        if self.capture {
            self.cap_payload.extend(lanes.iter().map(|&(_, a)| a));
        }
        let sm = self.sm_of(w);
        match space {
            MemSpace::Shared | MemSpace::SharedCluster => {
                let remote = space == MemSpace::SharedCluster
                    || lanes.iter().any(|&(_, a)| a & DSM_TAG != 0);
                // Same-address collisions serialise (longest run over the
                // sorted lane addresses; stack buffer, no per-instruction
                // map).
                let mut sorted = [0u64; 32];
                for (k, &(_, a)) in lanes.iter().enumerate() {
                    sorted[k] = a;
                }
                let sorted = &mut sorted[..lanes.len()];
                sorted.sort_unstable();
                let mut serial = 1u32;
                let mut run = 1u32;
                for k in 1..sorted.len() {
                    if sorted[k] == sorted[k - 1] {
                        run += 1;
                        serial = serial.max(run);
                    } else {
                        run = 1;
                    }
                }
                let serial = serial as f64;
                let degree =
                    self.conflict_degree(lanes.iter().map(|&(_, a)| a & !DSM_TAG & 0xffff_ffff), 4);
                let (lat, port_cost) = if remote {
                    let eff_bw = self.dsm_bw_eff();
                    (
                        (self.dev.dsm_latency as f64),
                        (lanes.len() as f64 * 4.0 / eff_bw).max(serial),
                    )
                } else {
                    ((self.dev.smem_latency as f64), degree.max(serial))
                };
                let port = if remote {
                    &mut self.sms[sm].dsm_port
                } else {
                    &mut self.sms[sm].smem_port
                };
                if port.free_at() > now + MEM_QUEUE_DEPTH {
                    return IssueResult::Stalled(port.free_at() as u64, StallReason::MioQueueFull);
                }
                let start = port.acquire(now, port_cost);
                let unit = if remote { "dsm_port" } else { "smem_port" };
                self.trace_unit(sm as u32, unit, w, start, port_cost);
                if remote {
                    self.sm_metrics[sm].dsm_bytes += lanes.len() as u64 * 4;
                } else {
                    self.sm_metrics[sm].smem_bytes += lanes.len() as u64 * 4;
                }
                // Functional: sequential lane order.
                if !self.replaying() {
                    for &(lane, a) in lanes {
                        let (bi, off) = self.resolve_shared(w, a);
                        let old = u32::from_le_bytes(
                            self.blocks[bi].smem[off as usize..off as usize + 4]
                                .try_into()
                                .unwrap(),
                        );
                        let add = self.read_op(w, src, lane) as u32;
                        let newv = old.wrapping_add(add);
                        self.blocks[bi].smem[off as usize..off as usize + 4]
                            .copy_from_slice(&newv.to_le_bytes());
                        if let Some(d) = dst {
                            self.warps[w].regs[d.0 as usize * 32 + lane] = old as u64;
                        }
                    }
                }
                if let Some(d) = dst {
                    self.finish_reg(w, d, (start + port_cost + lat) as u64);
                }
                self.advance(w);
                IssueResult::Issued
            }
            MemSpace::Global => {
                // Atomics resolve at L2.
                if self.sms[sm].l1_port.free_at() > now + MEM_QUEUE_DEPTH {
                    return IssueResult::Stalled(
                        self.sms[sm].l1_port.free_at() as u64,
                        StallReason::MioQueueFull,
                    );
                }
                let cost = (lanes.len() * 4) as f64 / (self.dev.l2_bw.b4 * self.cfg.l2_bw_scale);
                let start = self.l2_port.acquire(now, cost);
                self.trace_unit(u32::MAX, "l2_port", w, start, cost);
                self.sm_metrics[sm].l2_bytes += lanes.len() as u64 * 4;
                if !self.replaying() {
                    for &(lane, a) in lanes {
                        let old = self.global.read_scalar(a, 4) as u32;
                        let add = self.read_op(w, src, lane) as u32;
                        self.global.write_scalar(a, 4, old.wrapping_add(add) as u64);
                        if let Some(d) = dst {
                            self.warps[w].regs[d.0 as usize * 32 + lane] = old as u64;
                        }
                    }
                }
                if let Some(d) = dst {
                    self.finish_reg(w, d, (start + cost + self.dev.l2_latency as f64) as u64);
                }
                self.advance(w);
                IssueResult::Issued
            }
        }
    }

    /// Finite-MSHR backpressure: stall issue while the shared L2/DRAM
    /// queues are too far ahead of "now".
    fn mem_backpressure(&self, now: f64) -> Option<u64> {
        // The L2 window must exceed the L2 hit latency or in-flight
        // requests can never cover it (MLP starvation).
        let l2_window = 2.0 * self.dev.l2_latency as f64;
        let l2_lag = self.l2_port.backlog(now);
        if l2_lag > l2_window {
            return Some((now + l2_lag - l2_window) as u64);
        }
        let dram_lag = self.dram_port.backlog(now);
        if dram_lag > DRAM_QUEUE_DEPTH {
            return Some((now + dram_lag - DRAM_QUEUE_DEPTH) as u64);
        }
        None
    }

    /// Bank-conflict degree, honouring the ablation toggle.
    fn conflict_degree(&self, addrs: impl Iterator<Item = u64>, width: u64) -> f64 {
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

    fn do_cp_async(
        &mut self,
        w: usize,
        width: Width,
        smem: AddrExpr,
        gmem: AddrExpr,
        nowc: u64,
    ) -> IssueResult {
        let now = nowc as f64;
        let sm = self.sm_of(w);
        if self.sms[sm].l1_port.free_at() > now + MEM_QUEUE_DEPTH {
            return IssueResult::Stalled(
                self.sms[sm].l1_port.free_at() as u64,
                StallReason::MioQueueFull,
            );
        }
        if let Some(until) = self.mem_backpressure(now) {
            return IssueResult::Stalled(until, StallReason::MioQueueFull);
        }
        let bytes = width.bytes();
        let mut gbuf = [(0usize, 0u64); 32];
        let g = self.issue_lanes(w, gmem, &mut gbuf);
        if self.capture {
            // Only the global addresses drive timing, so only they are
            // recorded (the shared side is a register-file bypass).
            self.cap_payload.extend(g.iter().map(|&(_, a)| a));
        }
        if !self.replaying() {
            let mut sbuf = [(0usize, 0u64); 32];
            let s = self.lane_addrs(w, smem, &mut sbuf);
            // Functional copy now (8-byte chunks: one page probe per
            // chunk instead of one per byte).
            for (&(_, ga), &(_, sa)) in g.iter().zip(s.iter()) {
                let (bi, off) = self.resolve_shared(w, sa);
                let mut i = 0;
                while i < bytes {
                    let n = (bytes - i).min(8);
                    let v = self.global.read_scalar(ga + i, n);
                    for j in 0..n {
                        self.blocks[bi].smem[(off + i + j) as usize] = (v >> (8 * j)) as u8;
                    }
                    i += n;
                }
            }
        }
        // Timing: global fetch (L2 path, bypasses RF) + shared write.
        // The shared-memory port cost is charged at issue (reserving it at
        // the far-future completion time would falsely serialise every
        // later shared access behind this copy).
        let done = self.global_access_time(w, sm, g, bytes, CacheOp::Cg, now);
        let smem_cost = (g.len() as u64 * bytes) as f64 / self.dev.smem_bw;
        let ustart = self.sms[sm].smem_port.acquire(now, smem_cost);
        self.trace_unit(sm as u32, "smem_port", w, ustart, smem_cost);
        self.sm_metrics[sm].smem_bytes += g.len() as u64 * bytes;
        // The asynchronous path (L2 → shared, bypassing the register file)
        // completes through a deeper pipe than an ordinary load; the extra
        // depth is calibrated against Table XIII's 16×16 AsyncPipe rows.
        let done = done as f64 + CP_ASYNC_EXTRA_LATENCY;
        let ws = &mut self.warps[w];
        ws.cp_pending = ws.cp_pending.max(done + smem_cost);
        self.advance(w);
        IssueResult::Issued
    }

    /// TMA bulk 2-D tensor copy: a single warp instruction streams a
    /// `rows × row_bytes` box at L2 bandwidth — no per-thread issue cost,
    /// which is the Tensor Memory Accelerator's whole point.
    #[allow(clippy::too_many_arguments)]
    fn do_tma(
        &mut self,
        w: usize,
        rows: u16,
        row_bytes: u16,
        gstride: u32,
        smem: AddrExpr,
        gmem: AddrExpr,
        nowc: u64,
    ) -> IssueResult {
        assert!(
            self.dev.arch.has_tma(),
            "TMA bulk copies require Hopper; {} is {}",
            self.dev.name,
            self.dev.arch
        );
        let now = nowc as f64;
        let sm = self.sm_of(w);
        if let Some(until) = self.mem_backpressure(now) {
            return IssueResult::Stalled(until, StallReason::MioQueueFull);
        }
        let bytes = rows as u64 * row_bytes as u64;
        // Addresses come from lane 0 (the TMA descriptor is uniform).
        let gbase = match self.replay_rec(w) {
            Some(rec) => rec.payload.first().copied().unwrap_or(0),
            None => self.uniform_addr(w, gmem),
        };
        if self.capture {
            self.cap_payload.push(gbase);
        }
        if !self.replaying() {
            let sbase = self.uniform_addr(w, smem);
            let (bi, soff) = self.resolve_shared(w, sbase);
            for r in 0..rows as u64 {
                let gsrc = gbase + r * gstride as u64;
                let sdst = soff + r * row_bytes as u64;
                let mut i = 0u64;
                while i < row_bytes as u64 {
                    let n = (row_bytes as u64 - i).min(8);
                    let v = self.global.read_scalar(gsrc + i, n);
                    for j in 0..n {
                        self.blocks[bi].smem[(sdst + i + j) as usize] = (v >> (8 * j)) as u8;
                    }
                    i += n;
                }
            }
        }
        // Timing: one bulk request through L2 (rows touch whole lines) plus
        // the shared-memory write stream.
        let lanes: Vec<(usize, u64)> = (0..rows as u64)
            .flat_map(|r| {
                (0..row_bytes as u64)
                    .step_by(128)
                    .map(move |i| (0usize, gbase + r * gstride as u64 + i))
            })
            .collect();
        let done = self.global_access_time(w, sm, &lanes, 16, CacheOp::Cg, now);
        let smem_cost = bytes as f64 / self.dev.smem_bw;
        let ustart = self.sms[sm].smem_port.acquire(now, smem_cost);
        self.trace_unit(sm as u32, "smem_port", w, ustart, smem_cost);
        self.sm_metrics[sm].smem_bytes += bytes;
        let done = done as f64 + CP_ASYNC_EXTRA_LATENCY + smem_cost;
        let ws = &mut self.warps[w];
        ws.cp_pending = ws.cp_pending.max(done);
        self.advance(w);
        IssueResult::Issued
    }

    /// Tile ownership key: per *warp*.  `mma` runs per warp; for `wgmma`
    /// only the group leader (warp 4k) touches tiles, so its per-warp key
    /// doubles as the group's tile namespace.
    fn tile_owner(&self, w: usize) -> u32 {
        self.warps[w].warp_in_block as u32
    }

    /// `wgmma` commit-group namespace: per warp group (so every member
    /// warp's `wgmma.wait_group` observes the leader's pipeline).
    fn wg_key(&self, w: usize) -> u32 {
        0x1000 + self.warps[w].warp_in_block as u32 / 4
    }

    fn get_tile(&self, bi: usize, key: u32, id: TileId, what: &str) -> Tile {
        self.blocks[bi]
            .tiles
            .get(&(key, id.0))
            .cloned()
            .unwrap_or_else(|| {
                panic!(
                    "kernel `{}`: {what} tile t{} not initialised (FillTile/LdTile first)",
                    self.kernel.name, id.0
                )
            })
    }

    #[allow(clippy::too_many_arguments)]
    fn do_mma(
        &mut self,
        w: usize,
        desc: &hopper_isa::MmaDesc,
        d: TileId,
        a: TileId,
        b: TileId,
        c: TileId,
        nowc: u64,
    ) -> IssueResult {
        assert!(
            desc.supported_on(self.dev.arch),
            "{desc} is not executable on {} ({})",
            self.dev.name,
            self.dev.arch
        );
        let now = nowc as f64;
        let sm = self.sm_of(w);
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
            return IssueResult::Stalled(dep, StallReason::Scoreboard);
        }

        // Hopper INT4 falls back to IMAD on the integer pipe (Table VI).
        let lowered =
            hopper_isa::lower::sass_for(self.dev.arch, desc).expect("descriptor validated above");
        if lowered.unit == hopper_isa::lower::ExecUnit::CudaCore {
            let cost = lowered.expansion as f64 * 32.0 / self.dev.int_per_clk as f64;
            if self.sms[sm].int_pipe.free_at() > now + 4.0 {
                return IssueResult::Stalled(
                    self.sms[sm].int_pipe.free_at() as u64 - 4,
                    StallReason::MathPipeBusy,
                );
            }
            let ustart = self.sms[sm].int_pipe.acquire(now, cost);
            self.trace_unit(sm as u32, "int", w, ustart, cost);
            self.sm_metrics[sm].instructions += lowered.expansion as u64 - 1;
            let act = self.mma_act(w, bi, key, desc, d, a, b, Some(c));
            if self.capture {
                self.cap_payload.push(act.to_bits());
            }
            self.sm_metrics[sm].tc_ops += desc.flops();
            self.advance(w);
            return IssueResult::Issued;
        }

        let quadrant = self.warps[w].scheduler;
        let mut ii = tc_timing::mma_interval(self.dev, desc);
        if !self.cfg.opts.mma_issue_gap {
            ii -= self.dev.mma_issue_gap;
        }
        // Fractional intervals: issue as soon as the quadrant frees within
        // this cycle (acquire() still serialises at the exact II).
        if self.sms[sm].tc_quadrant[quadrant].free_at() >= now + 1.0 {
            return IssueResult::Stalled(
                self.sms[sm].tc_quadrant[quadrant].free_at() as u64,
                StallReason::TensorPipeBusy,
            );
        }
        let start = self.sms[sm].tc_quadrant[quadrant].acquire(now, ii);
        self.trace_unit(sm as u32, "tensor", w, start, ii);
        let lat = tc_timing::mma_latency(self.dev, desc);
        let act = self.mma_act(w, bi, key, desc, d, a, b, Some(c));
        if self.capture {
            self.cap_payload.push(act.to_bits());
        }
        self.sm_metrics[sm].tc_ops += desc.flops();
        self.sm_metrics[sm].energy_j += desc.flops() as f64
            * power::tc_energy_per_flop(self.dev, desc.ab, desc.cd, desc.sparse, MmaKind::Mma)
            * act;
        self.blocks[bi]
            .tile_ready
            .insert((key, d.0), (start + lat).ceil() as u64);
        self.advance(w);
        IssueResult::Issued
    }

    fn do_wgmma(
        &mut self,
        w: usize,
        desc: &hopper_isa::MmaDesc,
        d: TileId,
        a: TileId,
        b: TileId,
        nowc: u64,
    ) -> IssueResult {
        assert!(
            desc.supported_on(self.dev.arch),
            "{desc} requires Hopper; {} is {}",
            self.dev.name,
            self.dev.arch
        );
        let leader = self.warps[w].warp_in_block.is_multiple_of(4);
        if !leader {
            self.advance(w);
            return IssueResult::Issued;
        }
        let now = nowc as f64;
        let sm = self.sm_of(w);
        let ii = tc_timing::wgmma_interval_opts(self.dev, desc, self.cfg.opts.sparse_ss_penalty);
        if self.sms[sm].tc_whole.free_at() >= now + 1.0 {
            return IssueResult::Stalled(
                self.sms[sm].tc_whole.free_at() as u64,
                StallReason::TensorPipeBusy,
            );
        }
        let start = self.sms[sm].tc_whole.acquire(now, ii);
        self.trace_unit(sm as u32, "tensor.wg", w, start, ii);
        let lat = tc_timing::wgmma_latency(self.dev, desc);
        // Results become accessible at the completion latency even though
        // the pipeline stays occupied for the full initiation interval
        // (accumulator forwarding) — this is what the paper's "completion
        // latency" measures (N/2 = 128 at N=256 while the sustained
        // interval is ~142).
        let done = start + lat;
        let key = self.tile_owner(w);
        let bi = self.warps[w].block;
        let act = self.mma_act(w, bi, key, desc, d, a, b, None);
        if self.capture {
            self.cap_payload.push(act.to_bits());
        }
        self.sm_metrics[sm].tc_ops += desc.flops();
        self.sm_metrics[sm].energy_j += desc.flops() as f64
            * power::tc_energy_per_flop(self.dev, desc.ab, desc.cd, desc.sparse, MmaKind::Wgmma)
            * act;
        if desc.a_src == hopper_isa::OperandSource::SharedShared {
            self.sm_metrics[sm].smem_bytes += if desc.sparse {
                desc.a_smem_bytes_ss()
            } else {
                desc.a_bytes()
            } + desc.b_bytes();
        } else {
            self.sm_metrics[sm].smem_bytes += desc.b_bytes();
        }
        let gk = self.wg_key(w);
        let e = self.blocks[bi].wgmma.entry(gk).or_insert((0.0, Vec::new()));
        e.0 = e.0.max(done);
        self.advance(w);
        IssueResult::Issued
    }

    /// Activity factor for an `mma`/`wgmma`: from the replay record when
    /// replaying (the factor is tile-*value*-dependent and the values are
    /// gone — it is the one non-address operand the trace must carry),
    /// from functional execution otherwise.  Replay still registers the
    /// destination tile's shape so downstream `st.tile`/`mma` find it.
    #[allow(clippy::too_many_arguments)]
    fn mma_act(
        &mut self,
        w: usize,
        bi: usize,
        key: u32,
        desc: &hopper_isa::MmaDesc,
        d: TileId,
        a: TileId,
        b: TileId,
        c: Option<TileId>,
    ) -> f64 {
        if self.replaying() {
            let act = self
                .replay_rec(w)
                .and_then(|rec| rec.payload.first().copied())
                .map(f64::from_bits)
                .unwrap_or(1.0);
            self.blocks[bi].tiles.insert(
                (key, d.0),
                Tile {
                    dtype: desc.cd,
                    rows: desc.m as usize,
                    cols: desc.n as usize,
                    data: Vec::new(),
                },
            );
            return act;
        }
        self.exec_mma_functional(bi, key, desc, d, a, b, c)
    }

    /// Run the functional datapath; returns the operand activity factor
    /// for the power model.
    #[allow(clippy::too_many_arguments)]
    fn exec_mma_functional(
        &mut self,
        bi: usize,
        key: u32,
        desc: &hopper_isa::MmaDesc,
        d: TileId,
        a: TileId,
        b: TileId,
        c: Option<TileId>,
    ) -> f64 {
        // Operands by reference: cloning A/B/C (hundreds of KB for a
        // full-size wgmma) per instruction would dwarf the datapath cost.
        // The shared borrows all end before the result is inserted.
        let tiles = &self.blocks[bi].tiles;
        let missing = |what: &str, id: TileId| -> ! {
            panic!(
                "kernel `{}`: {what} tile t{} not initialised (FillTile/LdTile first)",
                self.kernel.name, id.0
            )
        };
        let ta = tiles.get(&(key, a.0)).unwrap_or_else(|| missing("A", a));
        let tb = tiles.get(&(key, b.0)).unwrap_or_else(|| missing("B", b));
        // 2:4-sparse A stores half its elements as structural zeros; the
        // *compressed* data the hardware toggles is the non-zero half.
        let act_a = if desc.sparse {
            (ta.activity() * 2.0).min(1.0)
        } else {
            ta.activity()
        };
        let zeros;
        let tc = match c {
            Some(ct) => tiles.get(&(key, ct.0)).unwrap_or_else(|| missing("C", ct)),
            None => match tiles.get(&(key, d.0)) {
                Some(t) => t,
                None => {
                    zeros = Tile::zeros(desc.cd, desc.m as usize, desc.n as usize);
                    &zeros
                }
            },
        };
        let act = (act_a + tb.activity()) / 2.0;
        let out = execute_mma(desc, ta, tb, tc).unwrap_or_else(|e| {
            panic!(
                "kernel `{}`: functional {desc} failed: {e}",
                self.kernel.name
            )
        });
        self.blocks[bi].tiles.insert((key, d.0), out);
        power::ACT_FLOOR + (1.0 - power::ACT_FLOOR) * act.min(1.0)
    }

    #[allow(clippy::too_many_arguments)]
    fn do_ld_tile(
        &mut self,
        w: usize,
        tile: TileId,
        dtype: DType,
        rows: usize,
        cols: usize,
        space: MemSpace,
        addr: AddrExpr,
        nowc: u64,
    ) -> IssueResult {
        let now = nowc as f64;
        let sm = self.sm_of(w);
        let base = match self.replay_rec(w) {
            Some(rec) => rec.payload.first().copied().unwrap_or(0),
            None => self.uniform_addr(w, addr),
        };
        if self.capture {
            self.cap_payload.push(base);
        }
        let ebits = dtype.bits().max(8) as u64; // B1/S4 padded to bytes in memory
        let total = (rows * cols) as u64 * ebits / 8;
        let mut data = Vec::with_capacity(if self.replaying() { 0 } else { rows * cols });
        match space {
            MemSpace::Shared | MemSpace::SharedCluster => {
                if !self.replaying() {
                    let (bi, off) = self.resolve_shared(w, base);
                    for i in 0..(rows * cols) as u64 {
                        let raw = read_elem_from(&self.blocks[bi].smem, off + i * ebits / 8, ebits);
                        data.push(decode_elem(dtype, raw));
                    }
                }
                let cost = total as f64 / self.dev.smem_bw;
                let ustart = self.sms[sm].smem_port.acquire(now, cost);
                self.trace_unit(sm as u32, "smem_port", w, ustart, cost);
                self.sm_metrics[sm].smem_bytes += total;
                self.warps[w].next_ready = (now + cost) as u64 + 1;
            }
            MemSpace::Global => {
                if !self.replaying() {
                    for i in 0..(rows * cols) as u64 {
                        let raw = self.global.read_scalar(base + i * ebits / 8, ebits / 8);
                        data.push(decode_elem(dtype, raw));
                    }
                }
                let lanes: Vec<(usize, u64)> = (0..total.div_ceil(128))
                    .map(|i| (0usize, base + i * 128))
                    .collect();
                let done = self.global_access_time(w, sm, &lanes, 16, CacheOp::Ca, now);
                self.warps[w].next_ready = done;
            }
        }
        let key = self.tile_owner(w);
        let bi = self.warps[w].block;
        self.blocks[bi].tiles.insert(
            (key, tile.0),
            Tile {
                dtype,
                rows,
                cols,
                data,
            },
        );
        self.advance(w);
        IssueResult::Issued
    }

    fn do_st_tile(
        &mut self,
        w: usize,
        tile: TileId,
        space: MemSpace,
        addr: AddrExpr,
        nowc: u64,
    ) -> IssueResult {
        let now = nowc as f64;
        let sm = self.sm_of(w);
        let key = self.tile_owner(w);
        let bi = self.warps[w].block;
        let t = self.get_tile(bi, key, tile, "store");
        let base = match self.replay_rec(w) {
            Some(rec) => rec.payload.first().copied().unwrap_or(0),
            None => self.uniform_addr(w, addr),
        };
        if self.capture {
            self.cap_payload.push(base);
        }
        let ebits = t.dtype.bits().max(8) as u64;
        let total = (t.rows * t.cols) as u64 * ebits / 8;
        match space {
            MemSpace::Shared | MemSpace::SharedCluster => {
                if !self.replaying() {
                    let (tbi, off) = self.resolve_shared(w, base);
                    for (i, &v) in t.data.iter().enumerate() {
                        let raw = encode_elem(t.dtype, v);
                        write_elem_to(
                            &mut self.blocks[tbi].smem,
                            off + i as u64 * ebits / 8,
                            ebits,
                            raw,
                        );
                    }
                }
                let cost = total as f64 / self.dev.smem_bw;
                let ustart = self.sms[sm].smem_port.acquire(now, cost);
                self.trace_unit(sm as u32, "smem_port", w, ustart, cost);
                self.sm_metrics[sm].smem_bytes += total;
            }
            MemSpace::Global => {
                if !self.replaying() {
                    for (i, &v) in t.data.iter().enumerate() {
                        let raw = encode_elem(t.dtype, v);
                        self.global
                            .write_scalar(base + i as u64 * ebits / 8, ebits / 8, raw);
                    }
                }
                let lanes: Vec<(usize, u64)> = (0..total.div_ceil(128))
                    .map(|i| (0usize, base + i * 128))
                    .collect();
                self.global_access_time(w, sm, &lanes, 16, CacheOp::Cg, now);
            }
        }
        self.advance(w);
        IssueResult::Issued
    }
}

fn read_elem_from(buf: &[u8], off: u64, ebits: u64) -> u64 {
    let bytes = ebits / 8;
    let mut v = 0u64;
    for i in 0..bytes {
        v |= (buf[(off + i) as usize] as u64) << (8 * i);
    }
    v
}

fn write_elem_to(buf: &mut [u8], off: u64, ebits: u64, v: u64) {
    for i in 0..ebits / 8 {
        buf[(off + i) as usize] = (v >> (8 * i)) as u8;
    }
}

/// Decode a raw little-endian element into its numeric value.
pub fn decode_elem(dtype: DType, raw: u64) -> f64 {
    use hopper_numerics::{Bf16, Fp8E4M3, Fp8E5M2, SoftFloat, Tf32, F16};
    match dtype {
        DType::F16 => F16::from_bits(raw).to_f64(),
        DType::BF16 => Bf16::from_bits(raw).to_f64(),
        DType::TF32 => Tf32::from_bits(raw & 0x7ffff).to_f64(),
        DType::F32 => f32::from_bits(raw as u32) as f64,
        DType::F64 => f64::from_bits(raw),
        DType::E4M3 => Fp8E4M3::from_bits(raw).to_f64(),
        DType::E5M2 => Fp8E5M2::from_bits(raw).to_f64(),
        DType::S8 => raw as u8 as i8 as f64,
        DType::S4 => hopper_numerics::Int4::from_nibble(raw as u8).get() as f64,
        DType::B1 => {
            if raw & 1 != 0 {
                1.0
            } else {
                0.0
            }
        }
        DType::S32 => raw as u32 as i32 as f64,
    }
}

/// Encode a numeric value into its raw little-endian element bits.
pub fn encode_elem(dtype: DType, v: f64) -> u64 {
    use hopper_numerics::{Bf16, Fp8E4M3, Fp8E5M2, SoftFloat, Tf32, F16};
    match dtype {
        DType::F16 => F16::from_f64(v).to_bits(),
        DType::BF16 => Bf16::from_f64(v).to_bits(),
        DType::TF32 => Tf32::from_f64(v).to_bits(),
        DType::F32 => (v as f32).to_bits() as u64,
        DType::F64 => v.to_bits(),
        DType::E4M3 => Fp8E4M3::from_f64(v).to_bits(),
        DType::E5M2 => Fp8E5M2::from_f64(v).to_bits(),
        DType::S8 => (v as i64 as i8) as u8 as u64,
        DType::S4 => hopper_numerics::Int4::new_clamped(v as i32).to_nibble() as u64,
        DType::B1 => (v != 0.0) as u64,
        DType::S32 => (v as i64 as i32) as u32 as u64,
    }
}

/// Expand a replay record's payload into per-lane `(lane, address)`
/// pairs, lane-ascending over the active mask (the capture order).
fn rec_lanes<'b>(rec: &ReplayRec, buf: &'b mut [(usize, u64); 32]) -> &'b [(usize, u64)] {
    let mut n = 0;
    for lane in 0..32 {
        if rec.active & (1 << lane) != 0 {
            buf[n] = (lane, rec.payload.get(n).copied().unwrap_or(0));
            n += 1;
        }
    }
    &buf[..n]
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

/// Result of an issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueResult {
    Issued,
    /// Could not issue; earliest cycle worth retrying at, plus the
    /// micro-architectural reason (trace attribution).
    Stalled(u64, StallReason),
    /// Parallel shard only: the instruction passed every SM-local gate
    /// but touches run-shared state, so it must issue under the shared
    /// gate.  Nothing was committed — the attempt is replayed verbatim
    /// once the gate grants this SM exclusive access.
    NeedsShared,
}

/// One instruction as the issue path sees it, decoded once per wave from
/// `hopper-isa`'s metadata so an issue attempt is a slice walk, not a
/// per-variant `match`.
struct Decoded {
    /// Registers and predicates for the scoreboard (all in range:
    /// `Kernel::validate` ran at launch).
    ops: Operands,
    /// Touches run-shared state (global memory and with it the L2/TLB/DRAM
    /// queues), so a parallel shard must issue it under the shared gate.
    /// Everything else is SM-local under the parallel path's eligibility
    /// rules (single-block clusters keep DSM traffic on the issuing SM's
    /// own port and smem).
    shared: bool,
}

/// One-time structured warning when a scheduler slot exceeds the 64-warp
/// ready-mask width and the run silently falls back to the legacy serial
/// scan (disabling both the ready-set and parallel paths for that wave).
fn warn_slot_overflow(kernel: &str, sim_threads: u32) {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if WARNED.swap(true, Ordering::Relaxed) {
        return;
    }
    hopper_obs::log::event(
        hopper_obs::log::Level::Warn,
        "sim.engine",
        "scheduler slot exceeds 64 warps; falling back to the legacy serial scan",
    )
    .str("kernel", kernel)
    .u64("max_slot_warps", MAX_SLOT_WARPS as u64)
    .u64("sim_threads", u64::from(sim_threads))
    .emit();
}
