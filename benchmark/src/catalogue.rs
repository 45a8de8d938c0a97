//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics.  `BENCHMARK.json` repeats
//! them for the driver; a test keeps the two in step.

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// Workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "paper_sweep",
        "paper-harness slice (pchase, bandwidth, DPX, DSM) a researcher regenerating EXPERIMENTS.md waits on; the untraced functional engine does the work, serve/replay/infer none",
    ),
    (
        "engine_serial",
        "direct Gpu::launch of 11 seeded kernel classes at sim_threads=1, one class per engine mechanism; isolates issue loop, memory model and functional execute (traced run adds the sim_threads=2 A/B phase)",
    ),
    (
        "trace_tools",
        "what hprof/htrace do: trace sinks, profile reports, capture, both trace encodings, replay; the engine's write side and the replay decoder, numerics bypassed in replay",
    ),
    (
        "serve_mixed",
        "hsimd over loopback TCP, closed loop, 2 clients, 1 worker: p50 is the cache-hit path (wire, assemble, digest, render), the tail is the cold path (engine behind one worker)",
    ),
    (
        "infer_sweep",
        "hopper_infer::run over a 10-point serving grid; scheduler, KV pool, TP and power model only, so it is the bypass workload for every engine, ISA and serve change",
    ),
];

/// End-to-end metrics; every workload reports every one of them.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("wall_s", "s", false, 0.20),
    e2e("cpu_s", "s", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("work_per_s", "1/s", true, 0.20),
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("op_tail_ms", "ms", false, 0.25),
];

/// Per-layer metrics, by crate.  A workload reports 0 for the layers it
/// bypasses.
pub const PER_LAYER: [MetricDef; 95] = [
    // hopper-numerics (probed in engine_serial)
    lower("numerics.fp8_e4m3_encode_ns", "ns"),
    lower("numerics.f16_encode_ns", "ns"),
    // hopper-isa (probed in serve_mixed over its kernel roster)
    lower("isa.assemble_us_per_kinstr", "us"),
    lower("isa.disassemble_us_per_kinstr", "us"),
    lower("isa.digest_ns_per_instr", "ns"),
    lower("isa.lower_sass_us", "us"),
    // hopper-sim engine (engine_serial)
    lower("sim.launch.pchase_ms", "ms"),
    lower("sim.launch.pchase_busy_ms", "ms"),
    lower("sim.launch.stream_ms", "ms"),
    lower("sim.launch.smem_conflict_ms", "ms"),
    lower("sim.launch.atomics_ms", "ms"),
    lower("sim.launch.alu_ms", "ms"),
    lower("sim.launch.dpx_ms", "ms"),
    lower("sim.launch.mma_ms", "ms"),
    lower("sim.launch.wgmma_ms", "ms"),
    lower("sim.launch.async_copy_ms", "ms"),
    lower("sim.launch.cluster_dsm_ms", "ms"),
    lower("sim.launch.instrs_total", "count"),
    lower("sim.launch.cycles_total", "count"),
    lower("sim.launch_bounded_ratio", "ratio"),
    lower("sim.gpu_new_us", "us"),
    higher("sim.mem_init_mb_per_s", "MB/s"),
    lower("sim.tiles.mma_16x8x16_us", "us"),
    lower("sim.tiles.wgmma_64x128x16_us", "us"),
    // hopper-sim par (the sim_threads=2 phase of engine_serial's traced run)
    higher("sim.par2.speedup", "ratio"),
    higher("sim.par2.alu_speedup", "ratio"),
    higher("sim.par2.dpx_speedup", "ratio"),
    higher("sim.par2.mma_speedup", "ratio"),
    higher("sim.par2.stream_speedup", "ratio"),
    higher("sim.par2.pchase_busy_speedup", "ratio"),
    higher("sim.par2.atomics_speedup", "ratio"),
    lower("sim.par2.fallback_cluster_ratio", "ratio"),
    higher("sim.par2.cpu_per_wall", "ratio"),
    // hopper-trace (trace_tools)
    lower("trace.null_sink_ratio", "ratio"),
    lower("trace.stall_profile_ratio", "ratio"),
    lower("trace.pc_sampling_ratio", "ratio"),
    lower("trace.chrome_export_ms", "ms"),
    // hopper-prof (trace_tools)
    lower("prof.profile_ms", "ms"),
    lower("prof.render_text_us", "us"),
    lower("prof.render_json_us", "us"),
    lower("prof.report_bytes", "bytes"),
    // hopper-replay (trace_tools)
    lower("replay.capture_ratio", "ratio"),
    higher("replay.to_text_mb_per_s", "MB/s"),
    higher("replay.to_binary_mb_per_s", "MB/s"),
    higher("replay.parse_text_mb_per_s", "MB/s"),
    higher("replay.parse_binary_mb_per_s", "MB/s"),
    lower("replay.validate_ms", "ms"),
    higher("replay.launch_minstr_per_s", "M/s"),
    lower("replay.vs_functional_ratio", "ratio"),
    lower("replay.bytes_per_record", "bytes"),
    // hopper-serve (serve_mixed)
    lower("serve.ping_p50_us", "us"),
    lower("serve.parse_request_us", "us"),
    lower("serve.hit_p50_ms", "ms"),
    lower("serve.hit_p99_ms", "ms"),
    lower("serve.cold_p50_ms", "ms"),
    lower("serve.cold_p99_ms", "ms"),
    lower("serve.cold_profile_p50_ms", "ms"),
    lower("serve.cold_replay_p50_ms", "ms"),
    lower("serve.cold_infer_p50_ms", "ms"),
    lower("serve.worker_util", "ratio"),
    higher("serve.cache_hit_ratio", "ratio"),
    higher("serve.zipf_hit_ratio", "ratio"),
    lower("serve.queue_full_total", "count"),
    lower("serve.metrics_scrape_ms", "ms"),
    lower("serve.resp_bytes_p50", "bytes"),
    lower("serve.startup_ms", "ms"),
    lower("serve.shutdown_drain_ms", "ms"),
    // hopper-obs (probed in serve_mixed)
    lower("obs.counter_inc_ns", "ns"),
    lower("obs.hist_observe_ns", "ns"),
    lower("obs.expo_render_us", "us"),
    // hopper-infer (infer_sweep)
    lower("infer.continuous_us_per_iter", "us"),
    lower("infer.disagg_us_per_iter", "us"),
    lower("infer.pressure_us_per_iter", "us"),
    lower("infer.tp4_us_per_iter", "us"),
    lower("infer.scenario_parse_us", "us"),
    lower("infer.report_json_us", "us"),
    lower("infer.iterations_total", "count"),
    lower("infer.preempted_total", "count"),
    // hopper-te (probed in infer_sweep)
    lower("te.sharegpt_synth_us_per_req", "us"),
    lower("te.table12_ms", "ms"),
    lower("te.linear_cost_ns", "ns"),
    // hopper-micro / hopper-bench (paper_sweep)
    lower("bench.table04_s", "s"),
    lower("bench.table05_s", "s"),
    lower("bench.table10_s", "s"),
    lower("bench.fig07_s", "s"),
    lower("bench.fig08_s", "s"),
    lower("bench.fig09_s", "s"),
    lower("bench.table13_e8_s", "s"),
    lower("bench.cells_total", "count"),
    higher("bench.within10_frac", "ratio"),
    higher("bench.within20_frac", "ratio"),
    lower("micro.report_render_us", "us"),
    // the harness itself (all workloads; reported, never gated)
    lower("hbench.timer_overhead_ns", "ns"),
    lower("hbench.trace_overhead_ratio", "ratio"),
    lower("hbench.pass_spread", "ratio"),
];

/// Unit of a catalogue metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
    }

    /// Two-way check against the file the driver reads.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let field =
            |o: &serde_json::Value, k: &str| o.get(k).unwrap().as_str().unwrap().to_string();
        let workloads: Vec<(String, String)> = v
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = v.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name"), d.name);
                assert_eq!(field(j, "unit"), d.unit, "{}", d.name);
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field(j, "better"), better, "{}", d.name);
                assert_eq!(
                    j.get("bound").and_then(|b| b.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
                let nkeys = j.as_object().unwrap().len();
                assert_eq!(nkeys, if d.bound.is_some() { 4 } else { 3 }, "{}", d.name);
            }
        }
        let secs = v.get("run_seconds").unwrap().as_u64().unwrap();
        assert!((1..=60).contains(&secs));
        assert_eq!(
            v.get("paths").unwrap().as_array().unwrap()[0].as_str(),
            Some("benchmark")
        );
    }
}
