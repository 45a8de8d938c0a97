//! The five workloads.  Each builds its state from the seed, runs passes
//! over it, and — in the traced run — derives its layers' metrics.

use crate::recorder::{OpSample, Recorder, Span};
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

pub mod engine_serial;
pub mod infer_sweep;
pub mod paper_sweep;
pub mod par2;
pub mod serve_mixed;
pub mod trace_tools;

/// Fixed facts about a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in the catalogue.
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// Percentile `op_tail_ms` reports, taken per pass: p99 where a pass
    /// holds hundreds of ops, p90 where it holds five to sixty.  The run's
    /// document prints how many samples of all passes lie beyond it.
    pub tail_q: f64,
}

/// A workload instance, built for one seed.
pub trait Workload {
    /// Digest of every generated input.
    fn roster_digest(&self) -> u64;

    /// One pass over the roster.  Must produce the same simulated results
    /// every time: the runner fails the run when two passes' digests differ.
    fn pass(&mut self, rec: &mut Recorder);

    /// Called once between the warm-up pass and the first timed pass.
    fn begin_timed(&mut self, _rec: &mut Recorder) {}

    /// Traced run only: fill in this workload's per-layer metrics.
    fn layers(&mut self, rec: &mut Recorder, view: &mut LayerView<'_>);

    /// Stop whatever the workload started (servers, threads).
    fn finish(&mut self, _rec: &mut Recorder) {}
}

/// Build a workload.  `shrink` divides its sizes (1 = full, 50 = selftest).
pub fn build(
    name: &str,
    seed: u64,
    shrink: u32,
    rec: &mut Recorder,
) -> Result<(Spec, Box<dyn Workload>), String> {
    Ok(match name {
        "paper_sweep" => (
            paper_sweep::SPEC,
            Box::new(paper_sweep::PaperSweep::new(seed, shrink)),
        ),
        "engine_serial" => (
            engine_serial::SPEC,
            Box::new(engine_serial::EngineSerial::new(seed, shrink)),
        ),
        "trace_tools" => (
            trace_tools::SPEC,
            Box::new(trace_tools::TraceTools::new(seed, shrink)),
        ),
        "serve_mixed" => (
            serve_mixed::SPEC,
            Box::new(serve_mixed::ServeMixed::new(seed, shrink, rec)?),
        ),
        "infer_sweep" => (
            infer_sweep::SPEC,
            Box::new(infer_sweep::InferSweep::new(seed, shrink)),
        ),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// What the traced run hands a workload to derive layer metrics from:
/// the spans of the traced passes with their self times, every op sample
/// of the timed passes, and the measured cost of the harness's own timer.
pub struct LayerView<'a> {
    /// Spans of the traced passes.
    pub spans: &'a [Span],
    /// Self time of each span, ns.
    pub selfs: &'a [u64],
    /// Op samples of every timed pass.
    pub ops: &'a [OpSample],
    /// Timed passes that recorded spans.
    pub traced_passes: usize,
    /// Cost of one empty span (two clock reads and the bookkeeping), ns;
    /// subtracted from every per-call figure.
    pub span_overhead_ns: f64,
    /// Cost of one empty timer pair, ns; probes subtract it.
    pub timer_overhead_ns: f64,
    /// Sizes are divided by this (1 except in the selftest).
    pub shrink: u32,
    values: BTreeMap<&'static str, f64>,
}

impl<'a> LayerView<'a> {
    /// View over the traced passes' spans and all timed ops.
    pub fn new(
        spans: &'a [Span],
        selfs: &'a [u64],
        ops: &'a [OpSample],
        traced_passes: usize,
        span_overhead_ns: f64,
        timer_overhead_ns: f64,
        shrink: u32,
    ) -> Self {
        LayerView {
            spans,
            selfs,
            ops,
            traced_passes,
            span_overhead_ns,
            timer_overhead_ns,
            shrink,
            values: BTreeMap::new(),
        }
    }

    /// Report a layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Everything reported so far.
    pub fn into_values(self) -> BTreeMap<&'static str, f64> {
        self.values
    }

    fn self_times_of(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.selfs)
            .filter(|(s, _)| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|(_, &ns)| (ns as f64 - self.span_overhead_ns).max(0.0))
            .collect()
    }

    /// Median self time (ns, overhead-corrected) of the spans called
    /// `name` (and tagged `tag`, when given); 0 when there are none.
    pub fn median_self_ns(&self, name: &str, tag: Option<&str>) -> f64 {
        stats::median(&mut self.self_times_of(name, tag))
    }

    /// Summed self time (ns, overhead-corrected) of those spans.
    pub fn sum_self_ns(&self, name: &str, tag: Option<&str>) -> f64 {
        self.self_times_of(name, tag).iter().sum()
    }

    /// Summed wall time (ns) of the ops called `name` (tagged `tag`).
    pub fn sum_op_ns(&self, name: &str, tag: Option<&str>) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.name == name && tag.is_none_or(|t| o.tag == t))
            .map(|o| o.dur_ns as f64)
            .sum()
    }

    /// Ascending wall times (ms) of the ops tagged `tag`.
    pub fn op_ms_sorted(&self, name: &str, tag: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| o.name == name && o.tag == tag)
            .map(|o| o.dur_ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Micro-probe: ns per call of `f`, as the median of five timed
    /// batches of `iters` calls, timer overhead subtracted.
    pub fn probe<R>(&self, iters: u32, mut f: impl FnMut() -> R) -> f64 {
        let iters = iters.max(1);
        let mut batches: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                (t0.elapsed().as_nanos() as f64 - self.timer_overhead_ns).max(0.0) / iters as f64
            })
            .collect();
        stats::median(&mut batches)
    }
}

/// Debug rendering as a digest input: complete, and distinct for distinct
/// bit patterns of the floats the simulator reports.
pub fn digest_debug(rec: &mut Recorder, value: &impl std::fmt::Debug) {
    rec.digest_bytes(format!("{value:?}").as_bytes());
}

/// Two launches that must agree bit for bit (replay against capture,
/// `sim_threads=2` against serial, a `NullSink` launch against a plain one).
pub fn same_stats(a: &hopper_sim::RunStats, b: &hopper_sim::RunStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}
