//! Device models for the three GPUs of the paper's Table III.
//!
//! Every timing parameter carries a comment naming the paper measurement it
//! was calibrated against (the standard validated-simulator methodology of
//! GPGPU-Sim / Accel-Sim).  Architectural *mechanisms* — schedulers,
//! scoreboards, cache levels, pipelines, the cluster network — live in the
//! engine; this file is only numbers.

use hopper_isa::{Arch, DType};

/// Per-width memory-level bandwidth (bytes per clock), calibrated from the
/// paper's Table V which shows different sustained rates for 4-byte,
/// 8-byte and 16-byte (`float4`) accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelBw {
    /// 4-byte (`b32`) accesses.
    pub b4: f64,
    /// 8-byte (`b64`) accesses.
    pub b8: f64,
    /// 16-byte vectorised (`v4.f32`) accesses.
    pub b16: f64,
}

impl LevelBw {
    /// Bandwidth for an access of `bytes` width.
    pub fn for_width(&self, bytes: u64) -> f64 {
        match bytes {
            0..=4 => self.b4,
            5..=8 => self.b8,
            _ => self.b16,
        }
    }

    /// Uniform bandwidth across widths.
    pub fn uniform(b: f64) -> Self {
        LevelBw {
            b4: b,
            b8: b,
            b16: b,
        }
    }
}

/// Tensor-core throughput for one A/B type: dense and 2:4-sparse peak
/// FLOPs (or integer OPs) per clock per SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcRate {
    /// Dense multiply+add operations per clock per SM.
    pub dense: f64,
    /// Sparse (2:4) operations per clock per SM, counted over the
    /// uncompressed K as the paper does.
    pub sparse: f64,
}

/// Warp-scheduler implementation selector.  Both produce bit-identical
/// `Metrics`, stall attribution, and Chrome traces (enforced by the
/// `sched_equivalence` test suite); `LegacyScan` exists as the reference
/// for those tests and for perf A/B measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Per-slot ready sets with sleep lists and min-wakeup tracking: the
    /// issue loop touches only runnable warps, and wholly-asleep slots
    /// cost O(1) per iteration.
    #[default]
    ReadySet,
    /// The original full roster rescan every iteration (O(resident
    /// warps) even when everything sleeps on a DRAM latency).
    LegacyScan,
}

/// Feature toggles for ablation studies: each switch disables one
/// modelled mechanism so its contribution to a paper result can be
/// isolated (see the `ablations` bench target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Activity-based power accounting + DVFS throttling.
    pub model_dvfs: bool,
    /// Shared-memory bank-conflict serialisation.
    pub model_bank_conflicts: bool,
    /// The sparse-SS `wgmma` uncompressed-A fetch penalty.
    pub sparse_ss_penalty: bool,
    /// Anti-phase dispatch stagger between co-resident blocks.
    pub block_stagger: bool,
    /// Per-instruction `mma` issue gap (Hopper's warp-level-mma tax).
    pub mma_issue_gap: bool,
    /// Warp-scheduler implementation (equivalent results; see
    /// [`Scheduler`]).
    pub scheduler: Scheduler,
    /// Ignored.  Kept only because `benchmark/` (`engine_serial.rs`,
    /// `par2.rs`, `paper_sweep.rs`) names it; ROADMAP item 4(a) deletes it
    /// with those readers.
    #[doc(hidden)]
    pub sim_threads: u32,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            model_dvfs: true,
            model_bank_conflicts: true,
            sparse_ss_penalty: true,
            block_stagger: true,
            mma_issue_gap: true,
            scheduler: Scheduler::default(),
            sim_threads: 0,
        }
    }
}

/// Complete device description.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, e.g. `H800 PCIe`.
    pub name: &'static str,
    /// Architecture generation.
    pub arch: Arch,
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// FP32 CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Boost clock the simulator runs at, Hz.  The RTX 4090 is set *above*
    /// its official 2520 MHz because the paper observed it "runs at a
    /// higher frequency than the officially announced boost frequency"
    /// (its measured mma throughput exceeds the official peak).
    pub clock_hz: f64,
    /// Device memory size, bytes (Table III).
    pub mem_bytes: u64,
    /// Effective DRAM bandwidth, bytes/s — the paper's *measured* global
    /// throughput (92 / 90 / 91 % of theoretical on 4090 / A100 / H800).
    pub dram_bw: f64,
    /// Theoretical DRAM bandwidth, bytes/s (Table III).
    pub dram_bw_theoretical: f64,
    /// Board power limit, W (DVFS throttles when exceeded).
    pub tdp_w: f64,
    /// Idle + uncore power, W (calibrated from Table XI's lowest draws).
    pub idle_w: f64,

    // ---- occupancy limits ----
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Max resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per SM, bytes.
    pub smem_per_sm: u32,
    /// Max shared memory per block, bytes.
    pub smem_per_block: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,

    // ---- latencies (cycles), Table IV ----
    /// L1 hit, load-to-use.  Paper: 43.4 / 37.9 / 40.7 clk.
    pub l1_latency: u32,
    /// Shared memory, load-to-use.  Paper: 30.1 / 29.0 / 29.0 clk.
    pub smem_latency: u32,
    /// L2 hit.  Paper: 273.0 / 261.5 / 263.0 clk.
    pub l2_latency: u32,
    /// DRAM (TLB-warm).  Paper: 541.5 / 466.3 / 478.8 clk.
    pub dram_latency: u32,
    /// SM-to-SM cluster network, load-to-use.  Paper §IV-E: 180 cycles on
    /// H800, "a 32% reduction compared to L2".  0 on devices without DSM.
    pub dsm_latency: u32,
    /// Added latency of a TLB miss (page walk), cycles.  The paper's
    /// global-latency methodology warms the TLB explicitly "to avoid the
    /// occurrence of cold misses" — this is what it avoids.
    pub tlb_miss_latency: u32,
    /// TLB entries (2 MiB pages).
    pub tlb_entries: u32,

    // ---- bandwidths ----
    /// L1 per SM, bytes/clk (Table V row 1).
    pub l1_bw: LevelBw,
    /// Shared memory per SM, bytes/clk (Table V: ≈128 on all three).
    pub smem_bw: f64,
    /// L2 aggregate, bytes/clk (Table V row 2).
    pub l2_bw: LevelBw,
    /// Cluster SM-to-SM egress per SM at cluster size 2, bytes/clk
    /// (calibrated so ring-based copy peaks at ≈3.27 TB/s, Fig 8).
    pub dsm_bw_per_sm: f64,
    /// Contention growth of the SM-to-SM fabric per extra cluster block
    /// beyond 2 (calibrated: 3.27 TB/s at CS=2 → 2.65 TB/s at CS=4).
    pub dsm_contention_per_cs: f64,

    // ---- cache geometry ----
    /// L1 capacity per SM, bytes.
    pub l1_bytes: u32,
    /// L2 capacity, bytes.
    pub l2_bytes: u64,

    // ---- scalar pipelines ----
    /// INT32 lanes per SM (ops/clk).
    pub int_per_clk: u32,
    /// FP32 lanes per SM.
    pub fp32_per_clk: u32,
    /// FP64 lanes per SM.  2 on RTX 4090 and on the export-limited H800
    /// (the paper measures 16 B/clk of FP64-add throughput on both — the
    /// bottleneck it calls out in the Table V FP64 cells); 32 on A100.
    pub fp64_per_clk: u32,
    /// Dependent-issue latency of simple INT/FP32 ALU ops.
    pub alu_latency: u32,
    /// DPX ops per clock per SM when hardware-accelerated (Hopper);
    /// emulated architectures run `DpxFunc::emulation_ops` ALU ops instead.
    pub dpx_per_clk: u32,
    /// DPX hardware latency, cycles.
    pub dpx_latency: u32,

    // ---- tensor cores ----
    /// Tensor cores per SM (4 quadrants on every modelled part).
    pub tc_per_sm: u32,
    /// Extra per-instruction issue overhead of warp-level `mma` on this
    /// architecture, cycles.  Calibrated: A100/4090 sustain >95 % of peak
    /// with `mma` while H800 averages 62.9 % — Hopper's tensor cores are
    /// sized for `wgmma` and pay a fixed gap per `mma` issue (Table VII).
    pub mma_issue_gap: f64,
    /// `wgmma` per-instruction issue overhead, cycles (H800 sustains
    /// >95 % of peak with N=256 instructions, Table VIII).
    pub wgmma_issue_gap: f64,
}

impl DeviceConfig {
    /// A100 PCIe 40 GB (Ampere, CC 8.0).
    pub fn a100() -> Self {
        DeviceConfig {
            name: "A100 PCIe",
            arch: Arch::Ampere,
            num_sms: 108,
            cores_per_sm: 64,
            clock_hz: 1.410e9,
            mem_bytes: 40 * (1 << 30),
            dram_bw: 1407.2e9,             // Table V measured
            dram_bw_theoretical: 1555.0e9, // Table III
            tdp_w: 250.0,
            idle_w: 55.0,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            smem_per_sm: 164 * 1024,
            smem_per_block: 163 * 1024,
            regs_per_sm: 65536,
            l1_latency: 38,    // Table IV: 37.9
            smem_latency: 29,  // Table IV: 29.0
            l2_latency: 261,   // Table IV: 261.5
            dram_latency: 466, // Table IV: 466.3
            dsm_latency: 0,
            tlb_miss_latency: 280,
            tlb_entries: 512,
            l1_bw: LevelBw {
                b4: 99.5,
                b8: 120.0,
                b16: 106.8,
            }, // Table V
            smem_bw: 128.0, // Table V
            l2_bw: LevelBw {
                b4: 1853.7,
                b8: 1990.4,
                b16: 2007.9,
            }, // Table V
            dsm_bw_per_sm: 0.0,
            dsm_contention_per_cs: 0.0,
            l1_bytes: 192 * 1024,
            l2_bytes: 40 * (1 << 20),
            int_per_clk: 64,
            fp32_per_clk: 64,
            fp64_per_clk: 32,
            alu_latency: 4,
            dpx_per_clk: 0,
            dpx_latency: 0,
            tc_per_sm: 4,
            mma_issue_gap: 0.05,  // mma reaches >95 % of peak (Table VII)
            wgmma_issue_gap: 0.0, // no wgmma on Ampere
        }
    }

    /// GeForce RTX 4090 (Ada Lovelace, CC 8.9).
    pub fn rtx4090() -> Self {
        DeviceConfig {
            name: "RTX4090",
            arch: Arch::Ada,
            num_sms: 128,
            cores_per_sm: 128,
            // Official boost 2520 MHz; the paper's unit observably ran
            // higher (measured mma throughput exceeds the official peak by
            // ~8 %), so the model uses the observed effective clock.
            clock_hz: 2.72e9,
            mem_bytes: 24 * (1 << 30),
            dram_bw: 929.8e9,              // Table V measured
            dram_bw_theoretical: 1008.0e9, // Table III
            tdp_w: 450.0,
            idle_w: 60.0,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 24,
            smem_per_sm: 100 * 1024,
            smem_per_block: 99 * 1024,
            regs_per_sm: 65536,
            l1_latency: 43,    // Table IV: 43.4
            smem_latency: 30,  // Table IV: 30.1
            l2_latency: 273,   // Table IV: 273.0
            dram_latency: 541, // Table IV: 541.5
            dsm_latency: 0,
            tlb_miss_latency: 300,
            tlb_entries: 512,
            l1_bw: LevelBw {
                b4: 63.7,
                b8: 121.2,
                b16: 121.2,
            }, // Table V; the FP64
            // cell (13.3 B/clk) is reproduced by the fp64 pipe, not the L1 path
            smem_bw: 128.0,
            l2_bw: LevelBw {
                b4: 1622.2,
                b8: 1500.8,
                b16: 1708.0,
            }, // Table V
            dsm_bw_per_sm: 0.0,
            dsm_contention_per_cs: 0.0,
            l1_bytes: 128 * 1024,
            l2_bytes: 72 * (1 << 20),
            int_per_clk: 64,
            fp32_per_clk: 128,
            fp64_per_clk: 2, // paper: FP64 add = 16 B/clk/SM (2 adds/clk)
            alu_latency: 4,
            dpx_per_clk: 0,
            dpx_latency: 0,
            tc_per_sm: 4,
            mma_issue_gap: 0.2,
            wgmma_issue_gap: 0.0,
        }
    }

    /// H800 PCIe 80 GB (Hopper, CC 9.0).
    pub fn h800() -> Self {
        DeviceConfig {
            name: "H800 PCIe",
            arch: Arch::Hopper,
            num_sms: 114,
            cores_per_sm: 128,
            clock_hz: 1.755e9,
            mem_bytes: 80 * (1 << 30),
            dram_bw: 1861.5e9,             // Table V measured
            dram_bw_theoretical: 2039.0e9, // Table III
            tdp_w: 350.0,                  // paper §IV-C: "the 350W power limit of the H800-PCIe"
            idle_w: 70.0,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            smem_per_sm: 228 * 1024,
            smem_per_block: 227 * 1024,
            regs_per_sm: 65536,
            l1_latency: 41,    // Table IV: 40.7
            smem_latency: 29,  // Table IV: 29.0
            l2_latency: 263,   // Table IV: 263.0
            dram_latency: 479, // Table IV: 478.8
            dsm_latency: 180,  // §IV-E: "SM-to-SM network latency is 180 cycles"
            tlb_miss_latency: 280,
            tlb_entries: 768,
            l1_bw: LevelBw {
                b4: 125.8,
                b8: 124.1,
                b16: 124.1,
            }, // Table V; FP64 cell
            // (16 B/clk) is reproduced by the 2-wide fp64 pipe
            smem_bw: 128.0,
            l2_bw: LevelBw {
                b4: 4472.3,
                b8: 1817.3,
                b16: 3942.4,
            }, // Table V
            // Ring-based copy peak ≈3.27 TB/s over 57 clusters of 2
            // (114 SMs): 3.27e12 / 114 SMs / 1.755 GHz ≈ 16.3 B/clk/SM.
            dsm_bw_per_sm: 16.3,
            // 3.27 → 2.65 TB/s from CS=2 → CS=4 ⇒ ÷1.234 for 2 extra
            // blocks ⇒ ≈0.117 per block.
            dsm_contention_per_cs: 0.117,
            l1_bytes: 256 * 1024,
            l2_bytes: 50 * (1 << 20),
            int_per_clk: 64,
            fp32_per_clk: 128,
            fp64_per_clk: 2, // export-limited: paper measures 16 B/clk FP64 add
            alu_latency: 4,
            dpx_per_clk: 32, // hardware DPX; calibrated to Fig 7's per-SM rates
            dpx_latency: 4,  // dependent-issue latency of VIMNMX/VIADDMNMX
            tc_per_sm: 4,
            // mma only averages 62.9 % of peak on Hopper (Table VII):
            // fixed issue gap per warp-level mma.
            mma_issue_gap: 2.3,
            wgmma_issue_gap: 5.0, // ≥95 % of peak at N=256 (Table VIII)
        }
    }

    /// The three devices of the paper.
    pub fn all() -> [DeviceConfig; 3] {
        [Self::a100(), Self::rtx4090(), Self::h800()]
    }

    /// Resolve a wire/CLI device name (`h800`, `a100`, `rtx4090`) to its
    /// calibrated configuration.
    pub fn by_name(name: &str) -> Option<DeviceConfig> {
        Self::all().into_iter().find(|d| d.wire_name() == name)
    }

    /// The name [`Self::by_name`] resolves back to this device.
    pub fn wire_name(&self) -> &'static str {
        match self.arch {
            Arch::Ampere => "a100",
            Arch::Ada => "rtx4090",
            Arch::Hopper => "h800",
        }
    }

    /// Tensor cores on the whole device (Table III: 432 / 512 / 456).
    pub fn total_tensor_cores(&self) -> u32 {
        self.num_sms * self.tc_per_sm
    }

    /// Peak tensor-core rate for an A/B type via `mma`-visible pipelines,
    /// in ops/clk/SM.  Derived from the official peak TFLOPS quoted in the
    /// paper's Table VII caption divided by SMs × clock.
    pub fn tc_rate(&self, ab: DType) -> Option<TcRate> {
        // Dense FP16 ops/clk/SM anchors: A100 312 TF → 2048; RTX 4090
        // 330.3 TF (official) but the unit clocks higher, so the per-clock
        // rate stays the architectural 1024; H800 756.5 TF → 3781 ≈ 3785.
        let fp16_dense = match self.arch {
            Arch::Ampere => 2048.0,
            Arch::Ada => 1024.0,
            Arch::Hopper => 3781.0,
        };
        let scale = |f: f64| TcRate {
            dense: fp16_dense * f,
            sparse: fp16_dense * f * 2.0,
        };
        let r = match ab {
            DType::F16 | DType::BF16 => scale(1.0),
            DType::TF32 => {
                // Quarter rate on GeForce Ada (official TF32 peak 82.6 TF
                // vs FP16 330.3), half rate on the data-centre parts.
                if self.arch == Arch::Ada {
                    scale(0.25)
                } else {
                    scale(0.5)
                }
            }
            DType::S8 => scale(2.0),
            DType::E4M3 | DType::E5M2 => {
                if matches!(self.arch, Arch::Ada | Arch::Hopper) {
                    scale(2.0)
                } else {
                    return None;
                }
            }
            DType::S4 => {
                if matches!(self.arch, Arch::Ampere | Arch::Ada) {
                    scale(4.0)
                } else {
                    return None; // Hopper INT4 runs on CUDA cores
                }
            }
            DType::B1 => scale(8.0),
            DType::F64 => TcRate {
                dense: self.fp64_per_clk as f64 * 2.0,
                sparse: self.fp64_per_clk as f64 * 2.0,
            },
            _ => return None,
        };
        Some(r)
    }

    /// Peak TFLOPS for a type (dense), matching the Table VII caption.
    pub fn peak_tflops(&self, ab: DType) -> Option<f64> {
        self.tc_rate(ab)
            .map(|r| r.dense * self.num_sms as f64 * self.nominal_clock_hz() / 1e12)
    }

    /// Clock used for peak-rate bookkeeping (official boost), which for
    /// the 4090 differs from the observed simulation clock.
    pub fn nominal_clock_hz(&self) -> f64 {
        match self.arch {
            Arch::Ada => 2.52e9,
            _ => self.clock_hz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for d in DeviceConfig::all() {
            assert_eq!(DeviceConfig::by_name(d.wire_name()), Some(d));
        }
        assert_eq!(DeviceConfig::by_name("H800"), None);
    }

    #[test]
    fn table_iii_properties() {
        let [a100, ada, h800] = DeviceConfig::all();
        assert_eq!(a100.num_sms * a100.cores_per_sm, 108 * 64);
        assert_eq!(ada.num_sms * ada.cores_per_sm, 128 * 128);
        assert_eq!(h800.num_sms * h800.cores_per_sm, 114 * 128);
        assert_eq!(a100.total_tensor_cores(), 432);
        assert_eq!(ada.total_tensor_cores(), 512);
        assert_eq!(h800.total_tensor_cores(), 456);
        assert!(h800.arch.has_dpx_hardware());
        assert!(!a100.arch.has_dpx_hardware());
    }

    #[test]
    fn peak_tflops_match_table_vii_caption() {
        let a100 = DeviceConfig::a100();
        assert!((a100.peak_tflops(DType::F16).unwrap() - 312.0).abs() < 4.0);
        assert!((a100.peak_tflops(DType::TF32).unwrap() - 156.0).abs() < 2.0);
        assert!((a100.peak_tflops(DType::S8).unwrap() - 624.0).abs() < 8.0);
        let h800 = DeviceConfig::h800();
        assert!((h800.peak_tflops(DType::F16).unwrap() - 756.5).abs() < 8.0);
        assert!((h800.peak_tflops(DType::TF32).unwrap() - 378.0).abs() < 4.0);
        assert!((h800.peak_tflops(DType::S8).unwrap() - 1513.0).abs() < 16.0);
        let ada = DeviceConfig::rtx4090();
        assert!((ada.peak_tflops(DType::F16).unwrap() - 330.3).abs() < 4.0);
        assert!((ada.peak_tflops(DType::TF32).unwrap() - 82.6).abs() < 2.0);
    }

    #[test]
    fn hopper_drops_int4_ampere_lacks_fp8() {
        assert!(DeviceConfig::h800().tc_rate(DType::S4).is_none());
        assert!(DeviceConfig::a100().tc_rate(DType::E4M3).is_none());
        assert!(DeviceConfig::rtx4090().tc_rate(DType::E4M3).is_some());
    }

    #[test]
    fn dsm_only_on_hopper() {
        assert!(DeviceConfig::h800().dsm_latency > 0);
        assert_eq!(DeviceConfig::a100().dsm_latency, 0);
        // §IV-E: 180 cycles is a 32 % reduction vs L2 (263).
        let h = DeviceConfig::h800();
        let reduction = 1.0 - h.dsm_latency as f64 / h.l2_latency as f64;
        assert!((reduction - 0.32).abs() < 0.02);
    }

    #[test]
    fn memory_level_bandwidth_ordering() {
        for d in DeviceConfig::all() {
            // L1 per-SM aggregate exceeds the per-SM share of L2, which
            // exceeds the per-SM share of DRAM (Table V's level ordering).
            let l1 = d.l1_bw.b16 * d.num_sms as f64;
            let l2 = d.l2_bw.b16;
            let dram_clk = d.dram_bw / d.clock_hz;
            assert!(l1 > l2, "{}: L1 {l1} !> L2 {l2}", d.name);
            assert!(l2 > dram_clk, "{}: L2 {l2} !> DRAM {dram_clk}", d.name);
        }
    }

    #[test]
    fn l2_vs_dram_ratio_matches_table_v() {
        // Paper: L2/global throughput = 4.67 / 2.01 / 4.23 ×.
        for (d, want) in DeviceConfig::all().iter().zip([2.01, 4.67, 4.23]) {
            let got = d.l2_bw.b16.max(d.l2_bw.b4) / (d.dram_bw / d.clock_hz);
            assert!(
                (got - want).abs() / want < 0.12,
                "{}: {got} vs {want}",
                d.name
            );
        }
    }
}
