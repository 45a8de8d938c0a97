//! Top-level device API: allocation, launches, wave scheduling, DVFS.
//!
//! A [`Gpu`] owns the global memory and runs kernels through the engine.
//! Grids larger than one resident wave are executed wave by wave, with the
//! per-wave engine simulating one *representative* SM-group and shared
//! levels scaled to that group's bandwidth share — exact for the
//! homogeneous grids every microbenchmark in the paper uses, and the
//! source of the DPX wave-quantisation sawtooth.  Cluster launches
//! co-simulate whole clusters so SM-to-SM traffic is real.

use crate::device::{DeviceConfig, SimOptions};
use crate::engine::{BlockSpec, CacheState, Engine, EngineConfig, RunLimit, SimFault, MAX_CYCLES};
use crate::mem::GlobalMem;
use crate::metrics::{Metrics, RunStats};
use crate::power::resolve_dvfs;
use crate::replay::{CaptureSink, Replay, ReplaySource};
use hopper_isa::kernel::{Kernel, MAX_REGS_PER_THREAD};
use hopper_trace::{StallProfile, TraceSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Waves at or below this many blocks are co-simulated in full (one block
/// per SM) instead of using the representative-SM fast path, so small
/// grids keep complete functional side effects.
const COSIM_MAX_BLOCKS: u64 = 32;

/// Words per host-copy chunk of [`Gpu::write_u32s`]/[`Gpu::read_u32s`]:
/// one 4 KiB page.
const U32_CHUNK: usize = 1024;

/// Launch geometry.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Blocks in the grid.
    pub grid: u32,
    /// Threads per block (1..=1024).
    pub block: u32,
    /// Cluster size (1 = no clusters; >1 requires Hopper).
    pub cluster: u32,
    /// Kernel parameters (loaded into `%r0..` of every thread).
    pub params: Vec<u64>,
}

impl Launch {
    /// Simple grid×block launch.
    pub fn new(grid: u32, block: u32) -> Self {
        Launch {
            grid,
            block,
            cluster: 1,
            params: Vec::new(),
        }
    }

    /// Attach parameters.
    pub fn with_params(mut self, params: Vec<u64>) -> Self {
        self.params = params;
        self
    }

    /// Set the cluster size.
    pub fn with_cluster(mut self, cs: u32) -> Self {
        self.cluster = cs;
        self
    }
}

/// What distinguishes one run of a kernel from another: who listens, how
/// long it may go, and where operands come from.  [`Gpu::run`] takes it;
/// the default is a plain [`Gpu::launch`].
#[derive(Default)]
pub struct Run<'a> {
    /// Receives the trace categories it [wants](TraceSink::wants) — and the
    /// run constructs only those.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Cycle budget and/or cancel flag (default: unbounded).
    pub budget: RunBudget,
    /// Replay a captured launch instead of executing functionally.
    pub replay: Option<Replay<'a>>,
}

/// A bound on a launch: a total simulated-cycle budget (across all waves)
/// and/or a cooperative cancel flag.  Both are optional; the default is
/// unbounded, which takes the exact same engine path as [`Gpu::launch`].
///
/// When a bound trips, the launch aborts cleanly mid-grid and returns
/// [`LaunchError::DeadlineExceeded`] or [`LaunchError::Cancelled`];
/// functional side effects of already-simulated waves remain in device
/// memory (callers that need pristine state should use a fresh [`Gpu`]).
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Abort once this many simulated cycles have accumulated.
    pub max_cycles: Option<u64>,
    /// Abort (at the next engine poll) once this flag is set.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RunBudget {
    /// Budget of `max_cycles` simulated cycles, no cancel flag.
    pub fn cycles(max_cycles: u64) -> Self {
        RunBudget {
            max_cycles: Some(max_cycles),
            cancel: None,
        }
    }

    /// Attach a cancel flag (shared with the thread that may set it).
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    fn limit_for_wave(&self, cycles_so_far: u64) -> RunLimit {
        RunLimit {
            max_cycles: self
                .max_cycles
                .map_or(u64::MAX, |m| m.saturating_sub(cycles_so_far)),
            cancel: self.cancel.clone(),
        }
    }

    /// Classify a tripped limit: a set cancel flag wins over the cycle
    /// budget (the canceller acted first).
    fn abort_error(&self, cycles_run: u64) -> LaunchError {
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return LaunchError::Cancelled { cycles_run };
            }
        }
        LaunchError::DeadlineExceeded {
            budget_cycles: self.max_cycles.unwrap_or(MAX_CYCLES),
            cycles_run,
        }
    }
}

/// Launch-time errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel's per-block resources exceed the device limits, or the
    /// kernel fails [`Kernel::validate`] (e.g. it addresses registers
    /// beyond its declared footprint).
    ResourceExceeded(String),
    /// Device memory exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// Feature not available on this architecture (e.g. clusters off
    /// Hopper).
    Unsupported(String),
    /// A [`RunBudget`] cycle budget, or without one the engine's cap of
    /// two billion cycles per wave, tripped before the grid finished.
    DeadlineExceeded {
        /// The budget (or cap) that was exceeded, simulated cycles.
        budget_cycles: u64,
        /// Cycles actually simulated before the abort.
        cycles_run: u64,
    },
    /// A [`RunBudget`] cancel flag was set before the grid finished.
    Cancelled {
        /// Cycles actually simulated before the abort.
        cycles_run: u64,
    },
    /// A replayed launch's trace does not match the kernel or launch
    /// geometry (missing warp stream, bad PC, payload arity mismatch).
    Replay(String),
    /// The kernel faulted while executing (e.g. a shared-memory access
    /// outside the block's allocation); the launch stopped there.
    Fault(SimFault),
}

impl core::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LaunchError::ResourceExceeded(s) => write!(f, "resource limit exceeded: {s}"),
            LaunchError::OutOfMemory {
                requested,
                capacity,
            } => {
                write!(
                    f,
                    "out of memory: {requested} B requested, {capacity} B capacity"
                )
            }
            LaunchError::Unsupported(s) => write!(f, "unsupported: {s}"),
            LaunchError::DeadlineExceeded {
                budget_cycles,
                cycles_run,
            } => write!(
                f,
                "deadline exceeded: cycle budget {budget_cycles} hit after {cycles_run} cycles"
            ),
            LaunchError::Cancelled { cycles_run } => {
                write!(f, "cancelled after {cycles_run} simulated cycles")
            }
            LaunchError::Replay(s) => write!(f, "replay trace mismatch: {s}"),
            LaunchError::Fault(fault) => write!(f, "kernel fault at {fault}"),
        }
    }
}
impl std::error::Error for LaunchError {}

/// Coarse phases of one simulated launch, reported to a [`PhaseSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Validation, occupancy and launch bookkeeping.
    Setup,
    /// Wave-by-wave (or clustered) engine execution.
    Waves,
    /// DVFS resolution and statistics assembly.
    Finalize,
}

impl RunPhase {
    /// Stable lower-case name (used as a metric label).
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Setup => "setup",
            RunPhase::Waves => "waves",
            RunPhase::Finalize => "finalize",
        }
    }
}

/// Receiver for per-phase wall-clock timings of a launch.
///
/// The simulator stays free of any metrics dependency: callers that want
/// phase timings (the serving tier's workers, benchmarks) install an
/// implementation with [`Gpu::set_phase_sink`] and route durations into
/// whatever registry they use.  Phases are reported in order at the end
/// of a successful launch; failed launches report nothing.
pub trait PhaseSink: Send {
    /// One completed phase and its wall-clock duration.
    fn phase(&mut self, phase: RunPhase, dur: std::time::Duration);
}

/// One launch in progress: what all of its waves share, and the metrics
/// accumulated over the waves run so far.
struct InFlight<'a, 's> {
    kernel: &'a Kernel,
    launch: &'a Launch,
    sink: Option<&'s mut dyn TraceSink>,
    budget: RunBudget,
    replay: Option<&'s ReplaySource>,
    total: Metrics,
}

/// A simulated GPU.
pub struct Gpu {
    dev: DeviceConfig,
    mem: GlobalMem,
    caches: CacheState,
    opts: SimOptions,
    phase_sink: Option<Box<dyn PhaseSink>>,
}

impl Gpu {
    /// Bring up a device.
    pub fn new(dev: DeviceConfig) -> Self {
        Self::with_options(dev, SimOptions::default())
    }

    /// Bring up a device with mechanism toggles (ablation studies).
    pub fn with_options(dev: DeviceConfig, opts: SimOptions) -> Self {
        Gpu {
            mem: GlobalMem::new(),
            caches: CacheState::new(&dev),
            dev,
            opts,
            phase_sink: None,
        }
    }

    /// Install (or clear) the per-launch phase-timing sink.
    pub fn set_phase_sink(&mut self, sink: Option<Box<dyn PhaseSink>>) {
        self.phase_sink = sink;
    }

    /// Drop all cache tag state (cold-start the memory hierarchy).
    pub fn flush_caches(&mut self) {
        self.caches = CacheState::new(&self.dev);
    }

    /// Device description.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Allocate device memory (checked against capacity, for the paper's
    /// OOM cells in Table XII).
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, LaunchError> {
        if self.mem.allocated().saturating_add(bytes) > self.dev.mem_bytes {
            return Err(LaunchError::OutOfMemory {
                requested: bytes,
                capacity: self.dev.mem_bytes,
            });
        }
        Ok(self.mem.alloc(bytes))
    }

    /// Host→device copy.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.mem.write_bytes(addr, data);
    }

    /// Device→host copy.
    pub fn read(&self, addr: u64, n: usize) -> Vec<u8> {
        self.mem.read_bytes(addr, n)
    }

    /// Write a slice of little-endian u32s, a page's worth at a time
    /// through a stack buffer (no copy of the whole input).
    pub fn write_u32s(&mut self, addr: u64, vals: &[u32]) {
        let mut buf = [0u8; U32_CHUNK * 4];
        for (i, chunk) in vals.chunks(U32_CHUNK).enumerate() {
            for (b, v) in buf.chunks_exact_mut(4).zip(chunk) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            let at = addr + (i * U32_CHUNK * 4) as u64;
            self.mem.write_bytes(at, &buf[..chunk.len() * 4]);
        }
    }

    /// Read a slice of little-endian u32s, a page's worth at a time.
    pub fn read_u32s(&self, addr: u64, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        let mut buf = [0u8; U32_CHUNK * 4];
        while out.len() < n {
            let bytes = &mut buf[..(n - out.len()).min(U32_CHUNK) * 4];
            self.mem.read_into(addr + out.len() as u64 * 4, bytes);
            let words = bytes.chunks_exact(4);
            out.extend(words.map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])));
        }
        out
    }

    /// Direct access to backing memory (test setup).
    pub fn mem_mut(&mut self) -> &mut GlobalMem {
        &mut self.mem
    }

    /// Resident blocks per SM for `kernel` under `launch` — the standard
    /// occupancy calculation over threads, shared memory, registers and the
    /// block-count limit.
    ///
    /// This is also the launch path's front door for kernels that did not
    /// come through the assembler or the builder: a kernel the engine could
    /// not index (see [`Kernel::validate`]) is refused here.
    pub fn occupancy(&self, kernel: &Kernel, block_threads: u32) -> Result<u32, LaunchError> {
        let d = &self.dev;
        kernel.validate().map_err(|e| {
            LaunchError::ResourceExceeded(format!("invalid kernel `{}`: {e}", kernel.name))
        })?;
        if block_threads == 0 || block_threads > 1024 {
            return Err(LaunchError::ResourceExceeded(format!(
                "block size {block_threads} outside 1..=1024"
            )));
        }
        if kernel.smem_bytes > d.smem_per_block {
            return Err(LaunchError::ResourceExceeded(format!(
                "kernel needs {} B shared memory; device block limit is {} B",
                kernel.smem_bytes, d.smem_per_block
            )));
        }
        let by_threads = d.max_threads_per_sm / block_threads;
        let by_smem = d
            .smem_per_sm
            .checked_div(kernel.smem_bytes)
            .unwrap_or(u32::MAX);
        let regs_per_block = kernel.regs_per_thread * block_threads;
        let by_regs = d
            .regs_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(u32::MAX);
        let occ = by_threads
            .min(by_smem)
            .min(by_regs)
            .min(d.max_blocks_per_sm);
        if occ == 0 {
            return Err(LaunchError::ResourceExceeded(format!(
                "kernel `{}` cannot fit even one block per SM \
                 (threads {block_threads}, smem {} B, regs/thread {})",
                kernel.name, kernel.smem_bytes, kernel.regs_per_thread
            )));
        }
        Ok(occ)
    }

    /// Launch and simulate a kernel; returns aggregate statistics.
    pub fn launch(&mut self, kernel: &Kernel, launch: &Launch) -> Result<RunStats, LaunchError> {
        self.run(kernel, launch, Run::default())
    }

    /// Launch under a [`RunBudget`]: abort with a structured error if the
    /// simulated-cycle budget or the cancel flag trips (the serve daemon's
    /// per-request deadline path).
    pub fn launch_bounded(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
        budget: &RunBudget,
    ) -> Result<RunStats, LaunchError> {
        self.run(
            kernel,
            launch,
            Run {
                budget: budget.clone(),
                ..Run::default()
            },
        )
    }

    /// Launch with an attached [`TraceSink`] receiving the cycle-level
    /// events it [wants](TraceSink::wants) (see `hopper-trace`).  A
    /// `NullSink` wants nothing and costs nothing.
    pub fn launch_traced(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
        sink: &mut dyn TraceSink,
    ) -> Result<RunStats, LaunchError> {
        self.run(
            kernel,
            launch,
            Run {
                sink: Some(sink),
                ..Run::default()
            },
        )
    }

    /// Launch under a [`StallProfile`] aggregator and return it alongside
    /// the run statistics ([`RunStats::stalls`] is filled in).
    pub fn profile(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
    ) -> Result<(RunStats, StallProfile), LaunchError> {
        let mut prof = StallProfile::default();
        let mut stats = self.launch_traced(kernel, launch, &mut prof)?;
        stats.stalls = Some(prof.summary());
        Ok((stats, prof))
    }

    /// Launch a kernel while capturing every issued instruction — PC,
    /// active mask and resolved operand payload — into a [`ReplaySource`].
    ///
    /// Capture is a sink like any other ([`CaptureSink`]), and what it
    /// wants is the instruction records alone, so the returned
    /// [`RunStats`] are bitwise identical to an uncaptured
    /// [`Self::launch`] of the same kernel.
    pub fn launch_captured(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
    ) -> Result<(RunStats, ReplaySource), LaunchError> {
        let mut sink = CaptureSink::default();
        let stats = self.launch_traced(kernel, launch, &mut sink)?;
        Ok((stats, sink.into_source()))
    }

    /// Re-run a captured launch in replay mode: the full timing model
    /// (schedulers, caches, DRAM, banks, DVFS) executes as usual, but
    /// operands — memory addresses, branch directions, tensor-core
    /// activity — come from `source` instead of functional execution.
    /// `source` is validated against `kernel` first.
    pub fn launch_replayed(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
        source: &ReplaySource,
    ) -> Result<RunStats, LaunchError> {
        let replay = Replay {
            source,
            prevalidated: false,
        };
        self.run(
            kernel,
            launch,
            Run {
                replay: Some(replay),
                ..Run::default()
            },
        )
    }

    /// The one door every launch goes through: simulate `kernel` over
    /// `launch` as `run` describes.  The methods above are this with one
    /// field of [`Run`] set.
    pub fn run(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
        run: Run<'_>,
    ) -> Result<RunStats, LaunchError> {
        if let Some(Replay {
            source,
            prevalidated: false,
        }) = run.replay
        {
            source.validate(kernel).map_err(LaunchError::Replay)?;
        }
        let t_setup = std::time::Instant::now();
        if launch.cluster > 1 && !self.dev.arch.has_clusters() {
            return Err(LaunchError::Unsupported(format!(
                "cluster launches require Hopper; {} is {}",
                self.dev.name, self.dev.arch
            )));
        }
        if launch.cluster > 16 {
            return Err(LaunchError::Unsupported("max cluster size is 16".into()));
        }
        if launch.grid == 0 {
            return Err(LaunchError::ResourceExceeded("empty grid".into()));
        }
        // Parameters are preloaded into `%r0..`; they must fit the file.
        if launch.params.len() >= MAX_REGS_PER_THREAD as usize {
            return Err(LaunchError::ResourceExceeded(format!(
                "{} kernel parameters do not fit {MAX_REGS_PER_THREAD} registers per thread",
                launch.params.len()
            )));
        }
        let occ = self.occupancy(kernel, launch.block)?;

        let t_waves = std::time::Instant::now();
        let mut run = InFlight {
            kernel,
            launch,
            sink: run.sink,
            budget: run.budget,
            replay: run.replay.map(|r| r.source),
            total: Metrics::default(),
        };
        if launch.cluster > 1 {
            self.run_clustered(&mut run, occ)?
        } else {
            self.run_waves(&mut run, occ)?
        };
        let InFlight {
            sink,
            total: metrics,
            ..
        } = run;
        let t_finalize = std::time::Instant::now();

        let energy = if self.opts.model_dvfs {
            metrics.energy_j
        } else {
            0.0
        };
        let dvfs = resolve_dvfs(&self.dev, metrics.cycles, energy);
        if let Some(s) = sink {
            // Cycles the run effectively "lost" to DVFS: extra nominal-clock
            // cycles the same wall time would have held without throttling.
            let throttle = dvfs.achieved_hz / self.dev.clock_hz;
            let lost = if throttle < 1.0 {
                (metrics.cycles as f64 * (1.0 / throttle - 1.0)).round() as u64
            } else {
                0
            };
            s.dvfs_throttle(lost);
        }
        let stats = RunStats {
            metrics,
            nominal_clock_hz: self.dev.clock_hz,
            achieved_clock_hz: dvfs.achieved_hz,
            avg_power_w: dvfs.power_w,
            stalls: None,
        };
        if let Some(ps) = self.phase_sink.as_mut() {
            ps.phase(RunPhase::Setup, t_waves.duration_since(t_setup));
            ps.phase(RunPhase::Waves, t_finalize.duration_since(t_waves));
            ps.phase(RunPhase::Finalize, t_finalize.elapsed());
        }
        Ok(stats)
    }

    /// Wave-by-wave execution with a representative SM per wave.
    ///
    /// All blocks of a wave run the same code on identical data paths; the
    /// engine simulates the most-loaded SM and grants it `1/active_sms` of
    /// the shared L2/DRAM bandwidth.  Total cycles accumulate over waves —
    /// which is precisely where the paper's DPX sawtooth comes from: a grid
    /// of `k·SMs + 1` blocks pays a whole extra wave for one block.
    fn run_waves(&mut self, run: &mut InFlight, occ: u32) -> Result<(), LaunchError> {
        let sms = self.dev.num_sms;
        let per_wave_capacity = sms as u64 * occ as u64;
        let mut remaining = run.launch.grid as u64;
        let mut ctaid = 0u32;
        while remaining > 0 {
            let wave_blocks = remaining.min(per_wave_capacity);
            let active_sms = wave_blocks.min(sms as u64) as u32;
            let (specs, bw_share, replicas) = if wave_blocks <= COSIM_MAX_BLOCKS {
                // Small wave: co-simulate every block on its own SM —
                // exact timing *and* complete functional side effects.
                let specs = (0..wave_blocks as u32)
                    .map(|i| BlockSpec {
                        ctaid: ctaid + i,
                        sm: i as usize,
                        cluster_id: 0,
                        cluster_rank: 0,
                        smid: i,
                    })
                    .collect();
                (specs, 1.0, 1.0)
            } else {
                // Large homogeneous wave: simulate the most-loaded SM with
                // its bandwidth share and scale the counters.  Functional
                // side effects exist only for the simulated blocks — the
                // microbenchmark workloads this path serves never read
                // results across blocks.
                let blocks_on_rep = wave_blocks.div_ceil(sms as u64) as u32;
                let specs = (0..blocks_on_rep)
                    .map(|i| BlockSpec {
                        ctaid: ctaid + i * sms, // round-robin raster
                        sm: 0,
                        cluster_id: 0,
                        cluster_rank: 0,
                        smid: 0,
                    })
                    .collect();
                (
                    specs,
                    1.0 / active_sms as f64,
                    wave_blocks as f64 / blocks_on_rep as f64,
                )
            };
            self.run_wave(run, specs, 1, bw_share, replicas)?;
            remaining -= wave_blocks;
            ctaid = ctaid.wrapping_add(wave_blocks as u32);
        }
        Ok(())
    }

    /// One engine run: simulate `specs` with `bw_share` of the shared L2/DRAM
    /// bandwidth, scale the counters by the `replicas` identical groups the
    /// run stands for, and append the wave to `run.total`.  Fails on a
    /// replay mismatch, a tripped budget or a kernel fault.
    fn run_wave(
        &mut self,
        run: &mut InFlight,
        specs: Vec<BlockSpec>,
        cluster_size: u32,
        bw_share: f64,
        replicas: f64,
    ) -> Result<(), LaunchError> {
        let cfg = EngineConfig {
            blocks: specs,
            threads_per_block: run.launch.block,
            grid_dim: run.launch.grid,
            cluster_size,
            params: run.launch.params.clone(),
            l2_bw_scale: bw_share,
            dram_bw_scale: bw_share,
            opts: self.opts,
            limit: run.budget.limit_for_wave(run.total.cycles),
        };
        let mut engine = Engine::new(&self.dev, run.kernel, cfg, &mut self.mem, &mut self.caches);
        if let Some(s) = run.sink.as_deref_mut() {
            engine = engine.with_sink(s, run.total.cycles);
        }
        if let Some(src) = run.replay {
            engine = engine.with_replay(src).map_err(LaunchError::Replay)?;
        }
        let (mut wave, end) = engine.run_to_limit();
        if replicas != 1.0 {
            scale_counters(&mut wave, replicas);
        }
        run.total.merge_sequential(&wave);
        match end {
            Ok(false) => Ok(()),
            Ok(true) => Err(run.budget.abort_error(run.total.cycles)),
            Err(fault) => Err(LaunchError::Fault(fault)),
        }
    }

    /// Cluster launches: co-simulate one representative cluster per wave
    /// (its blocks on distinct SMs), scaling shared bandwidth to the number
    /// of concurrently active clusters.
    fn run_clustered(&mut self, run: &mut InFlight, occ: u32) -> Result<(), LaunchError> {
        let launch = run.launch;
        let cs = launch.cluster;
        if !launch.grid.is_multiple_of(cs) {
            return Err(LaunchError::ResourceExceeded(format!(
                "grid {} not divisible by cluster size {cs}",
                launch.grid
            )));
        }
        let sms = self.dev.num_sms;
        let clusters_total = launch.grid / cs;
        // All blocks of a cluster must be resident simultaneously on
        // distinct SMs; occupancy within the SM still applies.
        let clusters_per_wave = (sms / cs).max(1) * occ;
        let mut remaining = clusters_total;
        let mut first_cta = 0u32;
        while remaining > 0 {
            let wave_clusters = remaining.min(clusters_per_wave);
            let active_sms = (wave_clusters * cs).min(sms);
            let specs: Vec<BlockSpec> = (0..cs)
                .map(|r| BlockSpec {
                    ctaid: first_cta + r,
                    sm: r as usize,
                    cluster_id: 0,
                    cluster_rank: r,
                    smid: r,
                })
                .collect();
            let bw_share = cs as f64 / active_sms as f64;
            self.run_wave(run, specs, cs, bw_share, wave_clusters as f64)?;
            remaining -= wave_clusters;
            first_cta = first_cta.wrapping_add(wave_clusters * cs);
        }
        Ok(())
    }
}

/// Scale everything except cycles by the number of identical replicas the
/// representative group stands for.
fn scale_counters(m: &mut Metrics, factor: f64) {
    let s = |v: &mut u64| *v = (*v as f64 * factor).round() as u64;
    s(&mut m.instructions);
    s(&mut m.tc_ops);
    s(&mut m.dpx_ops);
    s(&mut m.l1_bytes);
    s(&mut m.l1_hits);
    s(&mut m.l1_misses);
    s(&mut m.l2_bytes);
    s(&mut m.l2_hits);
    s(&mut m.l2_misses);
    s(&mut m.dram_bytes);
    s(&mut m.smem_bytes);
    s(&mut m.dsm_bytes);
    s(&mut m.barrier_waits);
    s(&mut m.tlb_misses);
    m.energy_j *= factor;
}
