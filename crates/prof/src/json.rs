//! Deterministic JSON serialisation of a [`KernelReport`]: keys sorted at
//! every level, no timestamps, no environment-dependent fields — two runs
//! of the same workload produce byte-identical output.

use crate::KernelReport;
use hopper_obs::json::obj;
use hopper_sim::RunStats;
use hopper_trace::{wait_bucket_label, StallReason, N_WAIT_BUCKETS};
use serde_json::Value;

fn f(v: f64) -> Value {
    Value::Float(v)
}

fn u(v: u64) -> Value {
    Value::UInt(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// Stall buckets as a `reason name → slot-cycles` object (sorted keys).
fn stalled_obj(stalled: &[u64]) -> Value {
    obj(StallReason::SLOT_REASONS
        .iter()
        .map(|&r| (r.name(), u(stalled[r.bucket()])))
        .collect())
}

impl KernelReport {
    /// Serialise the report as a deterministic JSON [`Value`] (sorted
    /// keys, no timestamps).
    pub fn to_json(&self) -> Value {
        let sol = Value::Array(
            self.sol
                .iter()
                .map(|e| {
                    obj(vec![
                        ("achieved", f(e.achieved)),
                        ("name", s(e.name)),
                        ("peak", f(e.peak)),
                        ("pct", f(e.pct)),
                        ("unit", s(e.unit)),
                    ])
                })
                .collect(),
        );
        let oc = &self.occupancy;
        let occupancy = obj(vec![
            ("achieved_pct", f(oc.achieved_pct)),
            ("blocks_per_sm", u(oc.blocks_per_sm as u64)),
            (
                "limits",
                obj(oc
                    .limits
                    .iter()
                    .map(|&(n, v)| {
                        (
                            n,
                            if v == u32::MAX {
                                Value::Null
                            } else {
                                u(v as u64)
                            },
                        )
                    })
                    .collect()),
            ),
            ("limiter", s(oc.limiter)),
            ("max_warps_per_sm", u(oc.max_warps_per_sm as u64)),
            ("theoretical_pct", f(oc.theoretical_pct)),
            ("theoretical_warps", u(oc.theoretical_warps as u64)),
            ("warps_per_block", u(oc.warps_per_block as u64)),
        ]);
        let m = &self.memory;
        let memory = obj(vec![
            ("dram_bytes", u(m.dram_bytes)),
            ("dram_bytes_per_instr", f(m.dram_bytes_per_instr)),
            ("dsm_bytes", u(m.dsm_bytes)),
            ("l1_bytes", u(m.l1_bytes)),
            ("l1_hit_rate_pct", f(m.l1_hit_rate_pct)),
            ("l1_sector_efficiency_pct", f(m.l1_sector_efficiency_pct)),
            ("l2_bytes", u(m.l2_bytes)),
            ("l2_hit_rate_pct", f(m.l2_hit_rate_pct)),
            ("l2_sector_efficiency_pct", f(m.l2_sector_efficiency_pct)),
            ("smem_bytes", u(m.smem_bytes)),
            ("tlb_misses", u(m.tlb_misses)),
        ]);
        let r = &self.roofline;
        let roofline = obj(vec![
            ("achieved_tflops", f(r.achieved_tflops)),
            ("ai_flop_per_byte", f(r.ai_flop_per_byte)),
            ("dram_peak_gbps", f(r.dram_peak_gbps)),
            (
                "points",
                Value::Array(
                    r.points
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("attainable_tflops", f(p.attainable_tflops)),
                                ("dtype", s(&p.dtype)),
                                ("peak_tflops", f(p.peak_tflops)),
                                ("ridge_ai", f(p.ridge_ai)),
                                ("throttled_tflops", f(p.throttled_tflops)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let pcs = Value::Array(
            self.pcs
                .iter()
                .map(|row| {
                    // Bucket order (ascending wait), as an array so the
                    // sorted-key rule doesn't scramble the histogram.
                    let hist = Value::Array(
                        (0..N_WAIT_BUCKETS)
                            .filter(|&b| row.wait_hist[b] > 0)
                            .map(|b| {
                                obj(vec![
                                    ("count", u(row.wait_hist[b])),
                                    ("wait", Value::Str(wait_bucket_label(b))),
                                ])
                            })
                            .collect(),
                    );
                    obj(vec![
                        ("asm", s(&row.asm)),
                        ("issues", u(row.issues)),
                        ("pc", u(row.pc as u64)),
                        ("stall_cycles", u(row.stall_cycles())),
                        ("stalled", stalled_obj(&row.stalled)),
                        ("wait_hist", hist),
                    ])
                })
                .collect(),
        );
        let st = &self.stalls;
        let stalls = obj(vec![
            ("dvfs_throttle_cycles", u(st.dvfs_throttle_cycles)),
            ("idle", u(st.idle)),
            ("issued", u(st.issued)),
            ("slot_cycles", u(st.slot_cycles)),
            ("stalled", stalled_obj(&st.stalled)),
        ]);
        obj(vec![
            ("achieved_clock_mhz", f(self.achieved_clock_mhz)),
            ("block", u(self.block as u64)),
            ("cycles", u(self.cycles)),
            ("device", s(&self.device)),
            ("grid", u(self.grid as u64)),
            ("ipc", f(self.ipc)),
            ("kernel", s(&self.kernel)),
            ("kernel_digest", s(&self.kernel_digest)),
            ("memory", memory),
            ("nominal_clock_mhz", f(self.nominal_clock_mhz)),
            ("occupancy", occupancy),
            ("pcs", pcs),
            ("roofline", roofline),
            ("sol", sol),
            ("stalls", stalls),
            ("time_us", f(self.time_us)),
        ])
    }

    /// Pretty-printed deterministic JSON string.
    pub fn to_json_string(&self) -> String {
        let t0 = std::time::Instant::now();
        let out = serde_json::to_string_pretty(&self.to_json())
            .expect("Value serialisation is infallible");
        crate::render::observe_render_us("json", t0);
        out
    }
}

/// Deterministic JSON for a [`RunStats`] payload (sorted keys, derived
/// rates included so clients need no local arithmetic).
///
/// This is the *single* rendering of aggregate stats — the serve daemon's
/// `report=stats` payloads and `htrace`'s capture/replay summaries both
/// call it, so the two tools agree byte-for-byte on identical runs.
pub fn run_stats_to_json(stats: &RunStats) -> Value {
    let m = &stats.metrics;
    obj(vec![
        (
            "achieved_clock_mhz",
            Value::Float(stats.achieved_clock_hz / 1e6),
        ),
        ("avg_power_w", Value::Float(stats.avg_power_w)),
        ("barrier_waits", Value::UInt(m.barrier_waits)),
        ("cycles", Value::UInt(m.cycles)),
        ("dpx_ops", Value::UInt(m.dpx_ops)),
        ("dram_bytes", Value::UInt(m.dram_bytes)),
        ("dsm_bytes", Value::UInt(m.dsm_bytes)),
        ("energy_j", Value::Float(m.energy_j)),
        ("instructions", Value::UInt(m.instructions)),
        ("ipc", Value::Float(m.ipc())),
        ("l1_bytes", Value::UInt(m.l1_bytes)),
        ("l1_hit_rate_pct", Value::Float(m.l1_hit_rate() * 100.0)),
        ("l2_bytes", Value::UInt(m.l2_bytes)),
        ("l2_hit_rate_pct", Value::Float(m.l2_hit_rate() * 100.0)),
        (
            "nominal_clock_mhz",
            Value::Float(stats.nominal_clock_hz / 1e6),
        ),
        ("smem_bytes", Value::UInt(m.smem_bytes)),
        ("tc_ops", Value::UInt(m.tc_ops)),
        ("time_us", Value::Float(stats.seconds() * 1e6)),
        ("tlb_misses", Value::UInt(m.tlb_misses)),
    ])
}
