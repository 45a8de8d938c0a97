//! Run metrics captured by the engine.

use hopper_trace::StallSummary;

/// Counters and derived quantities from a simulated launch.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Metrics {
    /// Total simulated cycles (critical path over all SMs/waves).
    pub cycles: u64,
    /// Dynamic instructions issued (warp-level).
    pub instructions: u64,
    /// Tensor-core multiply+add operations executed (uncompressed count
    /// for sparse, matching the paper's TFLOPS accounting).
    pub tc_ops: u64,
    /// DPX function invocations (warp-level × 32 lanes).
    pub dpx_ops: u64,
    /// Bytes read/written at L1 (hits + misses pass through).
    pub l1_bytes: u64,
    /// L1 hits / misses (line granularity).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Bytes served by L2.
    pub l2_bytes: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Bytes moved across shared memory ports.
    pub smem_bytes: u64,
    /// Bytes moved over the SM-to-SM cluster network.
    pub dsm_bytes: u64,
    /// Dynamic energy accumulated, joules (at nominal frequency).
    pub energy_j: f64,
    /// Barrier stalls observed (count of warp-arrivals).
    pub barrier_waits: u64,
    /// TLB misses (2 MiB page walks).
    pub tlb_misses: u64,
}

impl Metrics {
    /// Warp-instructions issued per cycle over the whole device
    /// (0 when no cycles were simulated).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L1 line hit rate in [0, 1] (0 when L1 saw no lookups).
    pub fn l1_hit_rate(&self) -> f64 {
        hit_rate(self.l1_hits, self.l1_misses)
    }

    /// L2 line hit rate in [0, 1] (0 when L2 saw no lookups).
    pub fn l2_hit_rate(&self) -> f64 {
        hit_rate(self.l2_hits, self.l2_misses)
    }

    /// Merge another SM's / wave's counters; cycles take the max (parallel
    /// hardware), everything else sums.
    pub fn merge_parallel(&mut self, other: &Metrics) {
        self.cycles = self.cycles.max(other.cycles);
        self.add_counters(other);
    }

    /// Append a sequential phase: cycles add, counters add.
    pub fn merge_sequential(&mut self, other: &Metrics) {
        self.cycles += other.cycles;
        self.add_counters(other);
    }

    fn add_counters(&mut self, other: &Metrics) {
        self.instructions += other.instructions;
        self.tc_ops += other.tc_ops;
        self.dpx_ops += other.dpx_ops;
        self.l1_bytes += other.l1_bytes;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_bytes += other.l2_bytes;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.dram_bytes += other.dram_bytes;
        self.smem_bytes += other.smem_bytes;
        self.dsm_bytes += other.dsm_bytes;
        self.energy_j += other.energy_j;
        self.barrier_waits += other.barrier_waits;
        self.tlb_misses += other.tlb_misses;
    }
}

/// Result of a full launch, including the power/DVFS outcome.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct RunStats {
    /// Aggregated counters.
    pub metrics: Metrics,
    /// Nominal device clock, Hz.
    pub nominal_clock_hz: f64,
    /// Achieved clock after DVFS throttling, Hz.
    pub achieved_clock_hz: f64,
    /// Average board power over the run, W (post-throttle).
    pub avg_power_w: f64,
    /// Launch-wide stall attribution (populated by [`crate::Gpu::profile`]
    /// and trace-sink launches; `None` for untraced launches).
    pub stalls: Option<StallSummary>,
}

impl RunStats {
    /// Wall-clock seconds at the achieved (possibly throttled) frequency.
    pub fn seconds(&self) -> f64 {
        self.metrics.cycles as f64 / self.achieved_clock_hz
    }

    /// Seconds if the device had held its nominal clock.
    pub fn seconds_nominal(&self) -> f64 {
        self.metrics.cycles as f64 / self.nominal_clock_hz
    }

    /// Tensor-core TFLOPS (or TOPS) over the run.
    pub fn tc_tflops(&self) -> f64 {
        self.metrics.tc_ops as f64 / self.seconds() / 1e12
    }

    /// Throttle ratio (1.0 = no throttling).
    pub fn throttle(&self) -> f64 {
        self.achieved_clock_hz / self.nominal_clock_hz
    }

    /// Achieved occupancy in [0, 1]: the fraction of scheduler-slot
    /// cycles that had at least one resident (non-retired) warp, i.e.
    /// `1 - idle / slot_cycles` over the launch's stall attribution.
    /// `None` for untraced launches (no [`StallSummary`] recorded).
    pub fn achieved_occupancy(&self) -> Option<f64> {
        let s = self.stalls.as_ref()?;
        if s.slot_cycles == 0 {
            return Some(0.0);
        }
        Some(1.0 - s.idle as f64 / s.slot_cycles as f64)
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_semantics() {
        let mut a = Metrics {
            cycles: 100,
            instructions: 10,
            ..Default::default()
        };
        let b = Metrics {
            cycles: 150,
            instructions: 20,
            ..Default::default()
        };
        a.merge_parallel(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.instructions, 30);
        a.merge_sequential(&Metrics {
            cycles: 50,
            instructions: 1,
            ..Default::default()
        });
        assert_eq!(a.cycles, 200);
        assert_eq!(a.instructions, 31);
    }

    #[test]
    fn stats_derivations() {
        let s = RunStats {
            metrics: Metrics {
                cycles: 1_000_000,
                tc_ops: 2_000_000_000,
                ..Default::default()
            },
            nominal_clock_hz: 1.0e9,
            achieved_clock_hz: 0.5e9,
            avg_power_w: 300.0,
            stalls: None,
        };
        assert_eq!(s.seconds(), 2.0e-3);
        assert_eq!(s.seconds_nominal(), 1.0e-3);
        assert_eq!(s.throttle(), 0.5);
        assert!((s.tc_tflops() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn derived_metric_helpers() {
        let empty = Metrics::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.l1_hit_rate(), 0.0);
        assert_eq!(empty.l2_hit_rate(), 0.0);
        let m = Metrics {
            cycles: 200,
            instructions: 100,
            l1_hits: 3,
            l1_misses: 1,
            l2_hits: 9,
            l2_misses: 1,
            ..Default::default()
        };
        assert!((m.ipc() - 0.5).abs() < 1e-12);
        assert!((m.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert!((m.l2_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn achieved_occupancy_from_stall_summary() {
        let mut s = RunStats::default();
        assert_eq!(s.achieved_occupancy(), None);
        s.stalls = Some(StallSummary {
            slot_cycles: 400,
            issued: 100,
            idle: 100,
            ..Default::default()
        });
        assert!((s.achieved_occupancy().unwrap() - 0.75).abs() < 1e-12);
        s.stalls = Some(StallSummary::default());
        assert_eq!(s.achieved_occupancy(), Some(0.0));
    }
}
