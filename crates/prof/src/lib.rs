//! Nsight-Compute-style kernel profiler for the Hopper-dissection
//! simulator.
//!
//! [`profile_kernel`] (or [`profile_run`], for a bounded or replayed
//! launch) runs a kernel under a stall profiler plus the
//! engine's per-PC sampler and derives a sectioned [`KernelReport`] in the
//! spirit of the paper's multi-level analysis (and of Nsight Compute):
//!
//! * **Speed of Light** — achieved vs device-peak issue, compute-pipe and
//!   memory-level utilisation, using the calibrated per-device peaks from
//!   `hopper-sim::device`.
//! * **Occupancy** — theoretical resident warps from the standard limiter
//!   calculation (threads / shared memory / registers / block cap, naming
//!   the binding limiter) vs achieved scheduler-slot activity.
//! * **Memory Workload** — L1/L2 hit rates, per-level bytes, sector
//!   efficiency and DRAM bytes per instruction.
//! * **Roofline** — the run's arithmetic intensity and achieved tensor
//!   throughput against each numeric format's ceiling, with the
//!   DVFS-throttled ceiling shown separately (this is how the paper's
//!   power-limited `wgmma` gap becomes visible).
//! * **Source / PC view** — per-instruction issue counts, binding-stall
//!   cycles by [`StallReason`], and issue-wait histograms, whose sums
//!   reproduce the launch's [`StallSummary`] totals exactly.
//!
//! Reports render as aligned terminal text ([`KernelReport::render`]) and
//! as deterministic JSON with sorted keys and no timestamps
//! ([`KernelReport::to_json`]).

#![warn(missing_docs)]

pub mod json;
mod render;
pub mod workloads;

pub use json::run_stats_to_json;

use hopper_isa::{disasm, DType, Kernel};
use hopper_sim::{
    DeviceConfig, Gpu, Launch, LaunchError, PcSampleSink, Run, RunStats, StallProfile, StallReason,
    StallSummary, TeeSink, TraceSink,
};
use hopper_trace::{N_SLOT_REASONS, N_WAIT_BUCKETS};

/// One Speed-of-Light row: an achieved rate against its device peak.
#[derive(Debug, Clone, PartialEq)]
pub struct SolEntry {
    /// Metric name (`"sm_issue"`, `"dram"`, ...).
    pub name: &'static str,
    /// Achieved value in `unit`.
    pub achieved: f64,
    /// Device peak in `unit`.
    pub peak: f64,
    /// Unit the two values are expressed in.
    pub unit: &'static str,
    /// Achieved as a percentage of peak (cycle-normalised for memory
    /// levels, so DVFS throttling does not distort the ratio).
    pub pct: f64,
}

/// Occupancy section: limiter analysis plus achieved slot activity.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyReport {
    /// Warps per block of the launch.
    pub warps_per_block: u32,
    /// Device cap on resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Resident-block bound imposed by each resource:
    /// `(limiter name, max blocks per SM)`.
    pub limits: Vec<(&'static str, u32)>,
    /// Resident blocks per SM (minimum over `limits`).
    pub blocks_per_sm: u32,
    /// Name of the binding limiter (first minimum in `limits` order).
    pub limiter: &'static str,
    /// Theoretical resident warps per SM.
    pub theoretical_warps: u32,
    /// `theoretical_warps / max_warps_per_sm`, percent.
    pub theoretical_pct: f64,
    /// Fraction of scheduler-slot cycles with a resident warp, percent
    /// (from the launch's stall attribution).
    pub achieved_pct: f64,
}

/// Memory-workload section: hit rates, traffic and efficiency.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// L1 line hit rate, percent.
    pub l1_hit_rate_pct: f64,
    /// L2 line hit rate, percent.
    pub l2_hit_rate_pct: f64,
    /// Bytes requested at L1.
    pub l1_bytes: u64,
    /// Bytes served by L2.
    pub l2_bytes: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Bytes moved across shared-memory ports.
    pub smem_bytes: u64,
    /// Bytes moved over the SM-to-SM cluster network.
    pub dsm_bytes: u64,
    /// TLB misses (2 MiB page walks).
    pub tlb_misses: u64,
    /// DRAM bytes per issued instruction.
    pub dram_bytes_per_instr: f64,
    /// Requested bytes over 128 B lines moved at L1, percent (coalescing
    /// quality; 100 % = every byte of every touched line was requested).
    pub l1_sector_efficiency_pct: f64,
    /// Same at L2.
    pub l2_sector_efficiency_pct: f64,
}

/// One numeric format's roofline ceiling for the profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Format name (`"f16"`, `"tf32"`, ...).
    pub dtype: String,
    /// Dense peak at the nominal clock, TFLOPS.
    pub peak_tflops: f64,
    /// Peak scaled by this run's achieved/nominal clock ratio — the
    /// ceiling the run could actually reach under its DVFS state.
    pub throttled_tflops: f64,
    /// Arithmetic intensity at which the memory roof meets this ceiling,
    /// FLOP/byte.
    pub ridge_ai: f64,
    /// `min(peak, AI × DRAM peak)` at this run's arithmetic intensity
    /// (the classic attainable-performance bound).
    pub attainable_tflops: f64,
}

/// Roofline section: the run's operating point plus per-format ceilings.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineReport {
    /// Tensor-core ops per DRAM byte (0 when the run moved no DRAM bytes —
    /// a compute-resident kernel sits at infinite intensity).
    pub ai_flop_per_byte: f64,
    /// Achieved tensor throughput, TFLOPS.
    pub achieved_tflops: f64,
    /// Device DRAM peak (measured), GB/s.
    pub dram_peak_gbps: f64,
    /// Per-format ceilings.
    pub points: Vec<RooflinePoint>,
}

/// One Source/PC row: everything sampled for one kernel instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct PcRow {
    /// Kernel instruction index.
    pub pc: u32,
    /// Disassembled instruction (mnemonic fallback).
    pub asm: String,
    /// Warp-issues of this instruction.
    pub issues: u64,
    /// Binding-stall slot-cycles by [`StallReason::SLOT_REASONS`] bucket.
    pub stalled: [u64; N_SLOT_REASONS],
    /// Issue-wait histogram (log2 buckets).
    pub wait_hist: [u64; N_WAIT_BUCKETS],
}

impl PcRow {
    /// Total binding-stall cycles on this instruction.
    pub fn stall_cycles(&self) -> u64 {
        self.stalled.iter().sum()
    }

    /// Dominant stall reason, if the instruction ever bound a stall.
    pub fn top_stall(&self) -> Option<(StallReason, u64)> {
        StallReason::SLOT_REASONS
            .iter()
            .map(|&r| (r, self.stalled[r.bucket()]))
            .max_by_key(|&(_, v)| v)
            .filter(|&(_, v)| v > 0)
    }

    /// Estimated mean issue-wait, cycles (geometric bucket midpoints).
    pub fn mean_wait(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0.0f64);
        for (b, &count) in self.wait_hist.iter().enumerate() {
            n += count;
            let mid = if b == 0 {
                1.0
            } else {
                ((1u64 << b) as f64 * (1u64 << (b + 1)) as f64).sqrt()
            };
            sum += count as f64 * mid;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// A complete sectioned kernel report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Device marketing name.
    pub device: String,
    /// Kernel name.
    pub kernel: String,
    /// Stable content digest of the profiled kernel
    /// ([`Kernel::digest_hex`]) — provenance stamp shared with the serve
    /// result cache, so cached and fresh reports are attributable to the
    /// exact kernel text while staying byte-identical in payload.
    pub kernel_digest: String,
    /// Launch geometry: blocks in the grid.
    pub grid: u32,
    /// Launch geometry: threads per block.
    pub block: u32,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Wall-clock microseconds at the achieved clock.
    pub time_us: f64,
    /// Nominal device clock, MHz.
    pub nominal_clock_mhz: f64,
    /// Achieved (DVFS-resolved) clock, MHz.
    pub achieved_clock_mhz: f64,
    /// Warp-instructions per cycle over the device.
    pub ipc: f64,
    /// Speed-of-Light rows.
    pub sol: Vec<SolEntry>,
    /// Occupancy section.
    pub occupancy: OccupancyReport,
    /// Memory-workload section.
    pub memory: MemoryReport,
    /// Roofline section.
    pub roofline: RooflineReport,
    /// Source/PC rows, ascending PC.
    pub pcs: Vec<PcRow>,
    /// The launch's collapsed stall attribution (per-PC rows sum to its
    /// `stalled` buckets — checked by [`KernelReport::pc_stalls_match`]).
    pub stalls: StallSummary,
}

impl KernelReport {
    /// `true` when the per-PC stall buckets sum exactly to the launch-wide
    /// [`StallSummary::stalled`] totals (the Source-view conservation
    /// property; holds by construction).
    pub fn pc_stalls_match(&self) -> bool {
        let mut by = [0u64; N_SLOT_REASONS];
        for row in &self.pcs {
            for (a, b) in by.iter_mut().zip(row.stalled.iter()) {
                *a += b;
            }
        }
        by == self.stalls.stalled
    }

    /// Total issues over the PC view (equals `issued` slot-cycles of the
    /// simulated SMs — per-wave accounting, not scaled to the full grid).
    pub fn pc_issues_total(&self) -> u64 {
        self.pcs.iter().map(|r| r.issues).sum()
    }
}

/// Profile a kernel launch: run it under a [`StallProfile`] +
/// [`PcSampleSink`] tee and derive the full sectioned report.
pub fn profile_kernel(
    gpu: &mut Gpu,
    kernel: &Kernel,
    launch: &Launch,
) -> Result<KernelReport, LaunchError> {
    profile_run(gpu, kernel, launch, Run::default())
}

/// [`profile_kernel`] for any [`Run`]: under a budget (the serve daemon's
/// deadline path — a tripped budget or cancel flag surfaces as
/// [`LaunchError::DeadlineExceeded`] / [`LaunchError::Cancelled`]), or
/// replaying a captured trace, whose report is byte-identical to the
/// functional run's.  The profiler's sinks are attached here, teed with
/// a sink already in `run` (a [`ChromeTrace`](hopper_sim::ChromeTrace)
/// timeline, say), which sees the run as if it were alone.
pub fn profile_run(
    gpu: &mut Gpu,
    kernel: &Kernel,
    launch: &Launch,
    run: Run<'_>,
) -> Result<KernelReport, LaunchError> {
    let mut prof = StallProfile::default();
    let mut pcs = PcSampleSink::default();
    let mut ours = TeeSink::new(&mut prof, &mut pcs);
    let mut both;
    let sink: &mut dyn TraceSink = match run.sink {
        Some(theirs) => {
            both = TeeSink::new(&mut ours, theirs);
            &mut both
        }
        None => &mut ours,
    };
    let run = Run {
        sink: Some(sink),
        ..run
    };
    let mut stats = gpu.run(kernel, launch, run)?;
    stats.stalls = Some(prof.summary());
    let blocks_per_sm = gpu.occupancy(kernel, launch.block)?;
    debug_assert!(prof.conservation_ok());
    Ok(build_report(
        gpu.device(),
        kernel,
        launch,
        &stats,
        &prof,
        &pcs,
        blocks_per_sm,
    ))
}

fn build_report(
    dev: &DeviceConfig,
    kernel: &Kernel,
    launch: &Launch,
    stats: &RunStats,
    prof: &StallProfile,
    pcs: &PcSampleSink,
    blocks_per_sm: u32,
) -> KernelReport {
    let m = &stats.metrics;
    let summary = stats.stalls.unwrap_or_default();
    KernelReport {
        device: dev.name.to_string(),
        kernel: kernel.name.clone(),
        kernel_digest: kernel.digest_hex(),
        grid: launch.grid,
        block: launch.block,
        cycles: m.cycles,
        time_us: stats.seconds() * 1e6,
        nominal_clock_mhz: stats.nominal_clock_hz / 1e6,
        achieved_clock_mhz: stats.achieved_clock_hz / 1e6,
        ipc: m.ipc(),
        sol: speed_of_light(dev, stats, prof, &summary),
        occupancy: occupancy_section(dev, kernel, launch, stats, blocks_per_sm),
        memory: memory_section(stats),
        roofline: roofline_section(dev, stats),
        pcs: pc_section(kernel, pcs),
        stalls: summary,
    }
}

/// Mean busy fraction over every instance of a unit (0 when absent).
fn unit_occupancy(prof: &StallProfile, unit: &str) -> f64 {
    let (mut busy, mut total) = (0.0f64, 0.0f64);
    for u in &prof.units {
        if u.unit == unit {
            busy += u.busy;
            total += u.total as f64;
        }
    }
    if total == 0.0 {
        0.0
    } else {
        (busy / total).min(1.0)
    }
}

fn speed_of_light(
    dev: &DeviceConfig,
    stats: &RunStats,
    prof: &StallProfile,
    summary: &StallSummary,
) -> Vec<SolEntry> {
    let m = &stats.metrics;
    let cycles = m.cycles.max(1) as f64;
    let secs = stats.seconds().max(1e-30);
    let mut out = Vec::new();
    // Issue slots: instructions per clock per SM against the 4-wide
    // scheduler ceiling.
    let issue_rate = summary.issue_rate();
    out.push(SolEntry {
        name: "sm_issue",
        achieved: issue_rate * 4.0,
        peak: 4.0,
        unit: "inst/clk/SM",
        pct: issue_rate * 100.0,
    });
    // Compute pipes: busy fraction is already achieved/peak.
    let tensor = unit_occupancy(prof, "tensor").max(unit_occupancy(prof, "tensor.wg"));
    for (name, occ) in [
        ("fp32_pipe", unit_occupancy(prof, "fp32")),
        ("int_pipe", unit_occupancy(prof, "int")),
        ("tensor_pipe", tensor),
    ] {
        out.push(SolEntry {
            name,
            achieved: occ * 100.0,
            peak: 100.0,
            unit: "%",
            pct: occ * 100.0,
        });
    }
    // Memory levels: achieved GB/s against the calibrated peak, with the
    // percentage computed on bytes/cycle so DVFS cannot distort it.
    let peak_bpc = [
        ("dram", m.dram_bytes, dev.dram_bw / dev.clock_hz),
        (
            "l2",
            m.l2_bytes,
            dev.l2_bw.b16.max(dev.l2_bw.b8).max(dev.l2_bw.b4),
        ),
        (
            "l1",
            m.l1_bytes,
            dev.l1_bw.b16.max(dev.l1_bw.b8).max(dev.l1_bw.b4) * dev.num_sms as f64,
        ),
        ("smem", m.smem_bytes, dev.smem_bw * dev.num_sms as f64),
    ];
    for (name, bytes, peak) in peak_bpc {
        let bpc = bytes as f64 / cycles;
        out.push(SolEntry {
            name,
            achieved: bytes as f64 / secs / 1e9,
            peak: peak * dev.clock_hz / 1e9,
            unit: "GB/s",
            pct: bpc / peak * 100.0,
        });
    }
    out
}

fn occupancy_section(
    dev: &DeviceConfig,
    kernel: &Kernel,
    launch: &Launch,
    stats: &RunStats,
    blocks_per_sm: u32,
) -> OccupancyReport {
    let warps_per_block = launch.block.div_ceil(32);
    let max_warps = dev.max_threads_per_sm / 32;
    // Same limiter arithmetic as `Gpu::occupancy`, kept per-resource so
    // the report can name the binding one.
    let by_threads = dev.max_threads_per_sm / launch.block.max(1);
    let by_smem = dev
        .smem_per_sm
        .checked_div(kernel.smem_bytes)
        .unwrap_or(u32::MAX);
    let by_regs = dev
        .regs_per_sm
        .checked_div(kernel.regs_per_thread * launch.block)
        .unwrap_or(u32::MAX);
    let limits = vec![
        ("threads", by_threads),
        ("smem", by_smem),
        ("regs", by_regs),
        ("device_blocks", dev.max_blocks_per_sm),
    ];
    let limiter = limits
        .iter()
        .min_by_key(|&&(_, v)| v)
        .map(|&(n, _)| n)
        .unwrap_or("threads");
    let theoretical_warps = (blocks_per_sm * warps_per_block).min(max_warps);
    OccupancyReport {
        warps_per_block,
        max_warps_per_sm: max_warps,
        limits,
        blocks_per_sm,
        limiter,
        theoretical_warps,
        theoretical_pct: theoretical_warps as f64 / max_warps as f64 * 100.0,
        achieved_pct: stats.achieved_occupancy().unwrap_or(0.0) * 100.0,
    }
}

fn memory_section(stats: &RunStats) -> MemoryReport {
    let m = &stats.metrics;
    let sector_eff = |bytes: u64, hits: u64, misses: u64| {
        let moved = (hits + misses) * 128;
        if moved == 0 {
            0.0
        } else {
            (bytes as f64 / moved as f64 * 100.0).min(100.0)
        }
    };
    MemoryReport {
        l1_hit_rate_pct: m.l1_hit_rate() * 100.0,
        l2_hit_rate_pct: m.l2_hit_rate() * 100.0,
        l1_bytes: m.l1_bytes,
        l2_bytes: m.l2_bytes,
        dram_bytes: m.dram_bytes,
        smem_bytes: m.smem_bytes,
        dsm_bytes: m.dsm_bytes,
        tlb_misses: m.tlb_misses,
        dram_bytes_per_instr: if m.instructions == 0 {
            0.0
        } else {
            m.dram_bytes as f64 / m.instructions as f64
        },
        l1_sector_efficiency_pct: sector_eff(m.l1_bytes, m.l1_hits, m.l1_misses),
        l2_sector_efficiency_pct: sector_eff(m.l2_bytes, m.l2_hits, m.l2_misses),
    }
}

/// Formats reported on the roofline, in display order.
const ROOFLINE_DTYPES: [DType; 5] = [DType::F16, DType::TF32, DType::S8, DType::E4M3, DType::F64];

fn roofline_section(dev: &DeviceConfig, stats: &RunStats) -> RooflineReport {
    let m = &stats.metrics;
    let ai = if m.dram_bytes == 0 {
        0.0
    } else {
        m.tc_ops as f64 / m.dram_bytes as f64
    };
    let throttle = stats.throttle().min(1.0);
    let dram_peak = dev.dram_bw; // bytes/s (measured peak)
    let points = ROOFLINE_DTYPES
        .iter()
        .filter_map(|&dt| {
            let peak = dev.peak_tflops(dt)?;
            // A compute-resident run (no DRAM traffic) is bounded by the
            // compute roof alone.
            let attainable = if m.dram_bytes == 0 {
                peak
            } else {
                peak.min(ai * dram_peak / 1e12)
            };
            Some(RooflinePoint {
                dtype: format!("{dt}").to_lowercase(),
                peak_tflops: peak,
                throttled_tflops: peak * throttle,
                ridge_ai: peak * 1e12 / dram_peak,
                attainable_tflops: attainable,
            })
        })
        .collect();
    RooflineReport {
        ai_flop_per_byte: ai,
        achieved_tflops: stats.tc_tflops(),
        dram_peak_gbps: dram_peak / 1e9,
        points,
    }
}

fn pc_section(kernel: &Kernel, pcs: &PcSampleSink) -> Vec<PcRow> {
    pcs.pcs
        .iter()
        .map(|s| {
            let asm = kernel
                .instrs
                .get(s.pc as usize)
                .and_then(disasm::instr_to_asm)
                .unwrap_or_else(|| s.op.to_string());
            PcRow {
                pc: s.pc,
                asm,
                issues: s.issues,
                stalled: s.stalled,
                wait_hist: s.wait_hist,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_row_derivations() {
        let mut row = PcRow {
            pc: 3,
            asm: "ld.global.ca.b64 %r3, [%r3]".into(),
            issues: 10,
            stalled: [0; N_SLOT_REASONS],
            wait_hist: [0; N_WAIT_BUCKETS],
        };
        assert_eq!(row.stall_cycles(), 0);
        assert_eq!(row.top_stall(), None);
        assert_eq!(row.mean_wait(), 0.0);
        row.stalled[StallReason::Scoreboard.bucket()] = 400;
        row.stalled[StallReason::Dispatch.bucket()] = 10;
        row.wait_hist[5] = 10; // ten waits in [32, 63]
        assert_eq!(row.stall_cycles(), 410);
        assert_eq!(row.top_stall(), Some((StallReason::Scoreboard, 400)));
        let mid = (32.0f64 * 64.0).sqrt();
        assert!((row.mean_wait() - mid).abs() < 1e-9);
    }

    #[test]
    fn pc_conservation_check_detects_mismatch() {
        let mut r = KernelReport {
            device: "x".into(),
            kernel: "k".into(),
            kernel_digest: "0000000000000000".into(),
            grid: 1,
            block: 32,
            cycles: 100,
            time_us: 1.0,
            nominal_clock_mhz: 1000.0,
            achieved_clock_mhz: 1000.0,
            ipc: 1.0,
            sol: vec![],
            occupancy: OccupancyReport {
                warps_per_block: 1,
                max_warps_per_sm: 64,
                limits: vec![],
                blocks_per_sm: 1,
                limiter: "threads",
                theoretical_warps: 1,
                theoretical_pct: 1.5625,
                achieved_pct: 25.0,
            },
            memory: MemoryReport {
                l1_hit_rate_pct: 0.0,
                l2_hit_rate_pct: 0.0,
                l1_bytes: 0,
                l2_bytes: 0,
                dram_bytes: 0,
                smem_bytes: 0,
                dsm_bytes: 0,
                tlb_misses: 0,
                dram_bytes_per_instr: 0.0,
                l1_sector_efficiency_pct: 0.0,
                l2_sector_efficiency_pct: 0.0,
            },
            roofline: RooflineReport {
                ai_flop_per_byte: 0.0,
                achieved_tflops: 0.0,
                dram_peak_gbps: 1000.0,
                points: vec![],
            },
            pcs: vec![],
            stalls: StallSummary::default(),
        };
        assert!(r.pc_stalls_match());
        r.stalls.stalled[0] = 7;
        assert!(!r.pc_stalls_match());
        r.pcs.push(PcRow {
            pc: 0,
            asm: "exit".into(),
            issues: 1,
            stalled: {
                let mut s = [0; N_SLOT_REASONS];
                s[0] = 7;
                s
            },
            wait_hist: [0; N_WAIT_BUCKETS],
        });
        assert!(r.pc_stalls_match());
    }
}
