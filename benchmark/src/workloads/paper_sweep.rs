//! `paper_sweep`: a slice of the paper harnesses `gen-experiments` runs.
//!
//! The full sweep takes two minutes on this host (README, sizing table);
//! the slice keeps the harnesses that fit a one-second-scale pass and
//! still span pointer chase, bandwidth, DPX and distributed shared
//! memory.  The two heavier shapes of the real sweep — the `wgmma` N sweep
//! and the 8×8 `cp.async` GEMM row — are timed once in the traced run.

use super::{digest_debug, LayerView, Spec, Workload};
use crate::recorder::Recorder;
use crate::roster::SplitMix64;
use crate::stats::Fnv;
use hopper_micro::report::Report;
use hopper_sim::DeviceConfig;
use std::time::Instant;

/// See [`Spec`].
pub const SPEC: Spec = Spec {
    name: "paper_sweep",
    work_unit: "report cells",
    tail_q: 0.90,
};

type Harness = (&'static str, &'static str, fn() -> Report);

/// Op name, layer metric, harness.
const HARNESSES: [Harness; 5] = [
    ("bench.table04", "bench.table04_s", hopper_bench::table04),
    ("bench.table05", "bench.table05_s", hopper_bench::table05),
    ("bench.fig07", "bench.fig07_s", hopper_bench::fig07),
    ("bench.fig08", "bench.fig08_s", hopper_bench::fig08),
    ("bench.fig09", "bench.fig09_s", hopper_bench::fig09),
];

/// The selftest keeps the two harnesses that cost milliseconds.
const SELFTEST_HARNESSES: [usize; 2] = [0, 3];

/// The paper-harness workload.
pub struct PaperSweep {
    order: Vec<usize>,
    reports: Vec<Report>,
}

impl PaperSweep {
    /// The seed only orders the harnesses: their inputs are the paper's.
    pub fn new(seed: u64, shrink: u32) -> Self {
        // One sweep job, one rayon worker: the harnesses fan their cells
        // over the pool, and a pass must not depend on the host's width.
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .expect("the rayon shim never fails");
        hopper_sim::threads::set_sweep_jobs(1);
        let mut order: Vec<usize> = if shrink > 1 {
            SELFTEST_HARNESSES.to_vec()
        } else {
            (0..HARNESSES.len()).collect()
        };
        SplitMix64::new(seed).shuffle(&mut order);
        PaperSweep {
            order,
            reports: Vec::new(),
        }
    }
}

fn fold_report(rec: &mut Recorder, rep: &Report) {
    rec.digest_bytes(rep.id.as_bytes());
    for c in &rep.cells {
        rec.digest_bytes(c.label.as_bytes());
        digest_debug(rec, &(c.paper, c.measured));
    }
    rec.work(rep.cells.len() as u64);
}

/// Share of the comparable cells of `reports` within `tol` of the paper.
fn pooled_pass_rate(reports: &[Report], tol: f64) -> f64 {
    let verdicts: Vec<bool> = reports
        .iter()
        .flat_map(|r| r.cells.iter().filter_map(move |c| c.within(tol)))
        .collect();
    if verdicts.is_empty() {
        return 0.0;
    }
    verdicts.iter().filter(|&&ok| ok).count() as f64 / verdicts.len() as f64
}

impl Workload for PaperSweep {
    fn roster_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &i in &self.order {
            h.write(HARNESSES[i].0.as_bytes());
        }
        h.0
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.reports.clear();
        for &i in &self.order {
            let (op, _, harness) = HARNESSES[i];
            let t = rec.op_begin(op, "");
            let rep = harness();
            rec.op_end(t, !rep.cells.is_empty());
            fold_report(rec, &rep);
            self.reports.push(rep);
        }
    }

    fn layers(&mut self, _rec: &mut Recorder, view: &mut LayerView<'_>) {
        for (op, metric, _) in HARNESSES {
            view.set(metric, view.median_self_ns(op, None) / 1e9);
        }
        if view.shrink == 1 {
            let t0 = Instant::now();
            std::hint::black_box(hopper_bench::table10());
            view.set("bench.table10_s", t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            std::hint::black_box(hopper_micro::asyncbench::table_async(
                DeviceConfig::h800(),
                &hopper_micro::paper::TABLE_XIII[..1],
            ));
            view.set("bench.table13_e8_s", t0.elapsed().as_secs_f64());
        }
        let cells: usize = self.reports.iter().map(|r| r.cells.len()).sum();
        view.set("bench.cells_total", cells as f64);
        view.set("bench.within10_frac", pooled_pass_rate(&self.reports, 0.10));
        view.set("bench.within20_frac", pooled_pass_rate(&self.reports, 0.20));
        let reports = &self.reports;
        let render_ns = view.probe(20, || {
            reports
                .iter()
                .map(|r| r.render().len() + r.render_markdown().len())
                .sum::<usize>()
        });
        view.set("micro.report_render_us", render_ns / 1e3);
    }

    fn finish(&mut self, _rec: &mut Recorder) {
        // Back to the auto-sized pool for whatever runs next in-process.
        rayon::ThreadPoolBuilder::new()
            .build_global()
            .expect("the rayon shim never fails");
    }
}
