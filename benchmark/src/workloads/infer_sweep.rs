//! `infer_sweep`: `hopper_infer::run` over a ten-point serving grid on
//! the H800 with llama2-7b — the one user-facing path that never enters
//! the cycle engine.

use super::{LayerView, Spec, Workload};
use crate::recorder::Recorder;
use crate::roster::SplitMix64;
use crate::stats::Fnv;
use hopper_infer::{InferBudget, InferScenario, Mode, Precision};
use hopper_sim::DeviceConfig;
use hopper_te::{CostModel, Linear, ShareGptSynth};

/// See [`Spec`].
pub const SPEC: Spec = Spec {
    name: "infer_sweep",
    work_unit: "scheduler iterations",
    tail_q: 0.90,
};

/// Requests per grid point at full size (≈ 0.1 s of host time per point).
const REQUESTS: u32 = 100_000;

/// One grid point.
struct Point {
    /// Span tag and layer bucket: continuous, disagg, pressure or tp4.
    kind: &'static str,
    scenario: InferScenario,
}

/// The serving-simulation workload.
pub struct InferSweep {
    dev: DeviceConfig,
    points: Vec<Point>,
    /// Iterations per kind and preemptions of the last pass.
    iterations: Vec<(&'static str, u64)>,
    preempted: u64,
}

impl InferSweep {
    /// fp16/fp8 × continuous/disaggregated × `max_seqs` 64/512, a
    /// KV-pressure point that preempts, and a `tp=4` point; each point's
    /// request stream is seeded.
    pub fn new(seed: u64, shrink: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let requests = (REQUESTS / shrink.max(1)).max(200);
        let base = |rng: &mut SplitMix64| InferScenario {
            requests,
            qps: 2000.0,
            seed: rng.next_u64() >> 16,
            ..InferScenario::default()
        };
        let mut points = Vec::new();
        for precision in [Precision::Fp16, Precision::Fp8] {
            for (mode, kind) in [
                (Mode::Continuous, "continuous"),
                (Mode::Disaggregated, "disagg"),
            ] {
                for max_seqs in [64, 512] {
                    points.push(Point {
                        kind,
                        scenario: InferScenario {
                            precision,
                            mode,
                            max_seqs,
                            ..base(&mut rng)
                        },
                    });
                }
            }
        }
        points.push(Point {
            kind: "pressure",
            scenario: InferScenario {
                max_seqs: 4096,
                qps: 20_000.0,
                ..base(&mut rng)
            },
        });
        points.push(Point {
            kind: "tp4",
            scenario: InferScenario {
                tp: 4,
                ..base(&mut rng)
            },
        });
        rng.shuffle(&mut points);
        InferSweep {
            dev: DeviceConfig::h800(),
            points,
            iterations: Vec::new(),
            preempted: 0,
        }
    }
}

impl Workload for InferSweep {
    fn roster_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for p in &self.points {
            h.write(p.scenario.canonical_json().as_bytes());
        }
        h.0
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.iterations.clear();
        self.preempted = 0;
        for p in &self.points {
            let op = rec.op_begin("infer.scenario", p.kind);
            let t = rec.begin_tagged("infer.run", p.kind);
            let result = hopper_infer::run(&p.scenario, &self.dev, &InferBudget::default(), None);
            rec.end(t);
            let json = result.as_ref().ok().map(|report| {
                let t = rec.begin("infer.report_json");
                let json = report.to_json().to_string();
                rec.end(t);
                json
            });
            let ok = result
                .as_ref()
                .is_ok_and(|r| r.outcome == "ok" && r.completed == p.scenario.requests);
            rec.op_end(op, ok);
            if let (Ok(report), Some(json)) = (result, json) {
                // The report renders every float at fixed precision, so
                // its bytes are the re-run check: a second pass must
                // produce the same ones.
                rec.digest_bytes(json.as_bytes());
                rec.work(report.iterations);
                self.iterations.push((p.kind, report.iterations));
                self.preempted += report.preempted;
            }
        }
    }

    fn layers(&mut self, rec: &mut Recorder, view: &mut LayerView<'_>) {
        let traced = view.traced_passes as f64;
        for (kind, metric) in [
            ("continuous", "infer.continuous_us_per_iter"),
            ("disagg", "infer.disagg_us_per_iter"),
            ("pressure", "infer.pressure_us_per_iter"),
            ("tp4", "infer.tp4_us_per_iter"),
        ] {
            let iters: u64 = self
                .iterations
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, n)| n)
                .sum();
            if iters > 0 {
                let ns = view.sum_self_ns("infer.run", Some(kind));
                view.set(metric, ns / 1e3 / (iters as f64 * traced));
            }
        }
        view.set(
            "infer.report_json_us",
            view.median_self_ns("infer.report_json", None) / 1e3,
        );
        let total: u64 = self.iterations.iter().map(|(_, n)| n).sum();
        view.set("infer.iterations_total", total as f64);
        view.set("infer.preempted_total", self.preempted as f64);

        let values: Vec<serde_json::Value> =
            self.points.iter().map(|p| p.scenario.to_value()).collect();
        for (p, v) in self.points.iter().zip(&values) {
            rec.check(
                "scenario JSON parses back to the scenario",
                InferScenario::parse(v).as_ref() == Ok(&p.scenario),
            );
        }
        let parse_ns = view.probe(50, || {
            values
                .iter()
                .filter(|v| InferScenario::parse(v).is_ok())
                .count()
        });
        view.set(
            "infer.scenario_parse_us",
            parse_ns / 1e3 / values.len().max(1) as f64,
        );

        // hopper-te underneath: request synthesis, the Table XII
        // arithmetic, one operator cost.
        let synth_ns = view.probe(5, || ShareGptSynth::new(7).timed_batch(2000, 50.0).len());
        view.set("te.sharegpt_synth_us_per_req", synth_ns / 1e3 / 2000.0);
        let table12_ns = view.probe(5, || hopper_bench::table12().cells.len());
        view.set("te.table12_ms", table12_ns / 1e6);
        let cm = CostModel::new(self.dev.clone());
        let linear = Linear::square(4096);
        let linear_ns = view.probe(2000, || linear.forward(&cm, Precision::Fp8).total());
        view.set("te.linear_cost_ns", linear_ns);
    }
}
