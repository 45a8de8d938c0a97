//! One run of one workload: calibrate, set up (several times), time passes
//! for the requested duration, check outputs, derive metrics.

use crate::catalogue::{self, END_TO_END, PER_LAYER};
use crate::host;
use crate::recorder::{self, OpSample, Recorder};
use crate::stats;
use crate::workloads::{self, LayerView, Spec, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// How a run is sized.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Roster seed.
    pub seed: u64,
    /// Keep starting passes until this much time has been measured.
    pub seconds: f64,
    /// The traced run: every other pass records spans, and the per-layer
    /// metrics are reported instead of the end-to-end ones.
    pub trace: bool,
    /// Divide every size by this (1 = full; the selftest uses 50).
    pub shrink: u32,
    /// Times the workload is set up; `setup_s` is the median.
    pub setup_reps: usize,
}

/// Fewest timed passes, whatever `seconds` says.
const MIN_PASSES: usize = 3;
/// The traced run needs two passes of each kind for its overhead ratio.
const MIN_PASSES_TRACED: usize = 4;

/// Where span files go (inside the benchmark's own directory).
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload facts.
    pub spec: Spec,
    /// The options the run was made with.
    pub opts: RunOpts,
    /// Ops and checks attempted / failed, and the first failure messages.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// See `attempted`.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of the generated inputs.
    pub roster_digest: u64,
    /// Digest of the first pass's simulated results.
    pub sim_digest: u64,
    /// Timed passes.
    pub passes: usize,
    /// Op latency samples of the timed passes.
    pub op_samples: usize,
    /// How many of them lie beyond the tail percentile, all passes pooled.
    pub tail_beyond: usize,
    /// (max − min) / median of the pass wall times.
    pub pass_spread: f64,
    /// The per-pass figures the end-to-end metrics are medians of.
    pub per_pass: Vec<Value>,
    /// Seconds spent in timed passes.
    pub timed_s: f64,
    /// Host block.
    pub host: Value,
}

impl Outcome {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Process exit code for this run.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    fn metrics_json(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = catalogue::unit_of(name).unwrap_or("");
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(*value)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), self.metrics_json()),
        ])
        .to_string()
    }

    /// Everything known about the run, one JSON object.
    pub fn detail(&self) -> Value {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        Value::Object(vec![
            ("attempted".into(), Value::UInt(self.attempted)),
            ("correct".into(), Value::Bool(self.correct())),
            ("failed".into(), Value::UInt(self.failed)),
            ("failed_frac".into(), Value::Float(failed_frac)),
            (
                "failures".into(),
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("host".into(), self.host.clone()),
            ("metrics".into(), self.metrics_json()),
            ("op_samples".into(), Value::UInt(self.op_samples as u64)),
            ("pass_spread".into(), Value::Float(self.pass_spread)),
            ("per_pass".into(), Value::Array(self.per_pass.clone())),
            ("passes".into(), Value::UInt(self.passes as u64)),
            (
                "roster_digest".into(),
                Value::Str(format!("{:016x}", self.roster_digest)),
            ),
            ("seconds".into(), Value::Float(self.opts.seconds)),
            ("seed".into(), Value::UInt(self.opts.seed)),
            ("shrink".into(), Value::UInt(self.opts.shrink as u64)),
            (
                "sim_digest".into(),
                Value::Str(format!("{:016x}", self.sim_digest)),
            ),
            ("tail_beyond".into(), Value::UInt(self.tail_beyond as u64)),
            ("tail_q".into(), Value::Float(self.spec.tail_q)),
            ("timed_s".into(), Value::Float(self.timed_s)),
            ("trace".into(), Value::Bool(self.opts.trace)),
            ("work_unit".into(), Value::Str(self.spec.work_unit.into())),
            ("workload".into(), Value::Str(self.spec.name.into())),
        ])
    }
}

/// Cost of the harness's own instruments, measured at start-up and
/// subtracted from every per-call figure (Arafa et al., arXiv 1905.08778).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// One empty `Instant::now()` pair, ns.
    pub timer_ns: f64,
    /// One empty recorded span, ns.
    pub span_ns: f64,
}

/// Measure the empty timer pair and the empty span.
pub fn calibrate() -> Calibration {
    const N: u32 = 20_000;
    let mut timer: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..N {
                std::hint::black_box(Instant::now().elapsed());
            }
            t0.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    let mut span: Vec<f64> = (0..5)
        .map(|_| {
            let mut rec = Recorder::default();
            rec.tracing = true;
            let t0 = Instant::now();
            for _ in 0..N {
                let t = rec.begin("calibrate");
                rec.end(t);
            }
            t0.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    Calibration {
        timer_ns: stats::median(&mut timer),
        span_ns: stats::median(&mut span),
    }
}

/// Every pass must reproduce the first pass's simulated results.
pub fn check_pass_digests(rec: &mut Recorder, digests: &[u64]) {
    for (k, d) in digests.iter().enumerate().skip(1) {
        rec.check(
            &format!("pass {} sim_digest == pass 1", k + 1),
            *d == digests[0],
        );
    }
}

/// One timed pass.  Every end-to-end timing is the median over passes of
/// a per-pass figure, so a slow episode of the host that covers fewer than
/// half the passes leaves the run's numbers where they were.
struct PassRecord {
    wall_s: f64,
    cpu_s: f64,
    /// Nearest-rank median and tail of this pass's op latencies, ms.
    op_p50_ms: f64,
    op_tail_ms: f64,
    traced: bool,
    work: u64,
    digest: u64,
}

/// Run one workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let loadavg_start = host::loadavg();
    let cal = calibrate();
    let mut rec = Recorder::default();

    // Set-up, several times: build the workload from the seed and run the
    // untimed warm-up pass.  The last instance is the one that gets timed.
    let mut setup_s = Vec::new();
    let mut built: Option<(Spec, Box<dyn Workload>)> = None;
    for _ in 0..opts.setup_reps.max(1) {
        if let Some((_, mut prev)) = built.take() {
            prev.finish(&mut rec);
        }
        let t0 = Instant::now();
        let (spec, mut w) = workloads::build(&opts.workload, opts.seed, opts.shrink, &mut rec)?;
        w.pass(&mut rec);
        setup_s.push(t0.elapsed().as_secs_f64());
        rec.discard();
        built = Some((spec, w));
    }
    let (spec, mut w) = built.expect("at least one set-up");
    w.begin_timed(&mut rec);

    let min_passes = if opts.trace {
        MIN_PASSES_TRACED
    } else {
        MIN_PASSES
    };
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut ops: Vec<OpSample> = Vec::new();
    let timed_start = Instant::now();
    while passes.len() < min_passes || timed_start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && passes.len().is_multiple_of(2);
        rec.tracing = traced;
        let root = rec.begin("pass");
        let (c0, t0) = (host::process_cpu_s(), Instant::now());
        w.pass(&mut rec);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - c0;
        rec.end(root);
        let data = rec.take_pass();
        let mut lat_ms: Vec<f64> = data.ops.iter().map(|o| o.dur_ns as f64 / 1e6).collect();
        lat_ms.sort_by(f64::total_cmp);
        ops.extend(data.ops);
        passes.push(PassRecord {
            wall_s,
            cpu_s,
            op_p50_ms: stats::nearest_rank(&lat_ms, 0.50),
            op_tail_ms: stats::nearest_rank(&lat_ms, spec.tail_q),
            traced,
            work: data.work,
            digest: data.digest,
        });
    }
    rec.tracing = false;
    let timed_s = timed_start.elapsed().as_secs_f64();
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    check_pass_digests(&mut rec, &digests);

    let walls = |want_traced: Option<bool>| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| want_traced.is_none_or(|t| p.traced == t))
            .map(|p| p.wall_s)
            .collect()
    };
    let mut all_walls = walls(None);
    let wall_median = stats::median(&mut all_walls);
    let pass_spread = if wall_median > 0.0 {
        (all_walls[all_walls.len() - 1] - all_walls[0]) / wall_median
    } else {
        0.0
    };
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if opts.trace {
        let spans = rec.take_spans();
        let selfs = recorder::self_times(&spans);
        let traced_passes = passes.iter().filter(|p| p.traced).count();
        let mut view = LayerView::new(
            &spans,
            &selfs,
            &ops,
            traced_passes,
            cal.span_ns,
            cal.timer_ns,
            opts.shrink,
        );
        w.layers(&mut rec, &mut view);
        view.set("hbench.timer_overhead_ns", cal.timer_ns);
        let untraced = stats::median(&mut walls(Some(false)));
        if untraced > 0.0 {
            view.set(
                "hbench.trace_overhead_ratio",
                stats::median(&mut walls(Some(true))) / untraced,
            );
        }
        view.set("hbench.pass_spread", pass_spread);
        let values = view.into_values();
        for m in PER_LAYER {
            metrics.insert(m.name, values.get(m.name).copied().unwrap_or(0.0));
        }
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}.json", spec.name);
        std::fs::write(&path, recorder::chrome_trace_json(spec.name, &spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    w.finish(&mut rec);
    if !opts.trace {
        let median_of = |f: fn(&PassRecord) -> f64| {
            stats::median(&mut passes.iter().map(f).collect::<Vec<f64>>())
        };
        metrics.insert("setup_s", stats::median(&mut setup_s.clone()));
        metrics.insert("wall_s", wall_median);
        metrics.insert("cpu_s", median_of(|p| p.cpu_s));
        metrics.insert("peak_rss_mb", host::peak_rss_mb());
        metrics.insert("work_per_s", median_of(|p| p.work as f64 / p.wall_s));
        metrics.insert("op_p50_ms", median_of(|p| p.op_p50_ms));
        metrics.insert("op_tail_ms", median_of(|p| p.op_tail_ms));
        debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));
    }

    Ok(Outcome {
        spec,
        opts: opts.clone(),
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures.clone(),
        metrics,
        roster_digest: w.roster_digest(),
        sim_digest: digests[0],
        passes: passes.len(),
        op_samples: ops.len(),
        tail_beyond: stats::samples_beyond(ops.len(), spec.tail_q),
        per_pass: passes
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("cpu_s".into(), Value::Float(p.cpu_s)),
                    ("op_p50_ms".into(), Value::Float(p.op_p50_ms)),
                    ("op_tail_ms".into(), Value::Float(p.op_tail_ms)),
                    ("traced".into(), Value::Bool(p.traced)),
                    ("wall_s".into(), Value::Float(p.wall_s)),
                    ("work".into(), Value::UInt(p.work)),
                ])
            })
            .collect(),
        pass_spread,
        timed_s,
        host: host::host_block(&loadavg_start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{par2, serve_mixed};
    use hopper_sim::RunStats;

    fn selftest_opts(workload: &str, trace: bool) -> RunOpts {
        RunOpts {
            workload: workload.into(),
            seed: 5,
            seconds: 0.0,
            trace,
            shrink: 50,
            setup_reps: 1,
        }
    }

    /// Every output check, fed a doctored result, must turn into a failed
    /// count and a non-zero exit code.
    #[test]
    fn doctored_results_fail_the_run() {
        let good = RunStats::default();
        let mut doctored = RunStats::default();
        doctored.metrics.cycles += 1;
        let verdicts = [
            // sim_threads=2 vs serial: statistics, then memory image.
            par2::par_matches_serial((&good, 7), (&doctored, 7)),
            par2::par_matches_serial((&good, 7), (&good, 8)),
            // replayed (and captured) vs functional statistics.
            workloads::same_stats(&good, &doctored),
            // cold vs cached response: payload differs, then an error reply.
            serve_mixed::cold_equals_cached(
                r#"{"corr_id":"1-1","digest":"ab","id":null,"result":{"cycles":10},"status":"ok"}"#,
                r#"{"corr_id":"1-2","digest":"ab","id":null,"result":{"cycles":11},"status":"ok"}"#,
            ),
            serve_mixed::cold_equals_cached(
                r#"{"corr_id":"1-1","error":{"kind":"internal","message":"x"},"id":null,"status":"error"}"#,
                r#"{"corr_id":"1-2","error":{"kind":"internal","message":"x"},"id":null,"status":"error"}"#,
            ),
        ];
        for (i, ok) in verdicts.into_iter().enumerate() {
            assert!(!ok, "doctored input {i} passed its check");
        }
        // The undoctored counterparts pass.
        assert!(par2::par_matches_serial((&good, 7), (&good, 7)));
        assert!(workloads::same_stats(&good, &good));
        assert!(serve_mixed::cold_equals_cached(
            r#"{"corr_id":"1-1","digest":"ab","id":null,"result":{"cycles":10},"status":"ok"}"#,
            r#"{"corr_id":"9-9","digest":"ab","id":null,"result":{"cycles":10},"status":"ok","timings":[]}"#,
        ));

        // A profile report whose PC rows were tampered with.
        let case = crate::roster::case(
            crate::roster::Class::Alu,
            "h800",
            50,
            &mut crate::roster::SplitMix64::new(1),
        );
        let mut rec = Recorder::default();
        let (mut gpu, launch, _) = case.instantiate(Default::default(), &mut rec);
        let mut report = hopper_prof::profile_kernel(&mut gpu, &case.kernel, &launch).unwrap();
        assert!(report.pc_stalls_match());
        report.pcs[0].stalled[0] += 1;
        assert!(!report.pc_stalls_match());

        // A pass (or an infer re-run) whose digest moved: the run fails.
        let mut rec = Recorder::default();
        check_pass_digests(&mut rec, &[1, 1, 1]);
        assert_eq!(rec.failed, 0);
        check_pass_digests(&mut rec, &[1, 2, 1]);
        rec.check("doctored", report.pc_stalls_match());
        assert_eq!(rec.failed, 2);
        let mut outcome = run(&selftest_opts("infer_sweep", false)).unwrap();
        assert_eq!((outcome.exit_code(), outcome.correct()), (0, true));
        outcome.failed = rec.failed;
        assert_eq!(outcome.exit_code(), 1);
        assert!(outcome.contract_line().starts_with(r#"{"correct":false,"#));
        let detail = outcome.detail();
        assert!(detail.get("failed_frac").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let outcome = run(&selftest_opts("infer_sweep", false)).unwrap();
        let v: Value = serde_json::from_str(&outcome.contract_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(v.get("attempted").unwrap().as_u64().unwrap() >= 1);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        for (name, m) in metrics {
            let value = m.get("value").unwrap().as_f64().unwrap();
            assert!(value > 0.0, "{name} must never be 0");
            assert_eq!(m.get("unit").unwrap().as_str(), catalogue::unit_of(name));
        }
    }

    #[test]
    fn calibration_is_small_and_positive() {
        let cal = calibrate();
        assert!(cal.timer_ns > 0.0 && cal.timer_ns < 10_000.0, "{cal:?}");
        assert!(cal.span_ns >= cal.timer_ns / 2.0 && cal.span_ns < 50_000.0);
    }
}
