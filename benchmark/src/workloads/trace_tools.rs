//! `trace_tools`: what `hprof` and `htrace` do to a kernel — run it under
//! each trace sink, build and render a profile report, capture it, write
//! and read both trace encodings, validate and replay.

use super::engine_serial::serial_opts;
use super::{digest_debug, same_stats, LayerView, Spec, Workload};
use crate::recorder::Recorder;
use crate::roster::{self, Case, Class, SplitMix64};
use hopper_prof::profile_kernel;
use hopper_replay::Trace;
use hopper_sim::{ChromeTrace, NullSink, PcSampleSink};

/// See [`Spec`].
pub const SPEC: Spec = Spec {
    name: "trace_tools",
    work_unit: "simulated warp-instructions",
    tail_q: 0.90,
};

/// Textual classes (a trace embeds its kernel's assembly), with an extra
/// shrink that keeps a pass near one second while the six traces together
/// still hold several hundred thousand records.
const ROSTER: [(Class, u32); 6] = [
    (Class::Pchase, 8),
    (Class::Stream, 4),
    (Class::SmemConflict, 4),
    (Class::Atomics, 4),
    (Class::Alu, 8),
    (Class::Dpx, 4),
];

/// The chrome-trace sink keeps every event; it runs on this one class.
const CHROME_CLASS: Class = Class::Pchase;

/// The tooling workload.
pub struct TraceTools {
    cases: Vec<Case>,
    /// Bytes and records of the last pass's traces, for the MB/s figures.
    text_bytes: u64,
    binary_bytes: u64,
    records: u64,
    replay_instrs: u64,
    report_bytes: u64,
}

impl TraceTools {
    /// Six textual kernels, seeded order.
    pub fn new(seed: u64, shrink: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut cases: Vec<Case> = ROSTER
            .iter()
            .map(|&(class, extra)| roster::case(class, "h800", shrink * extra, &mut rng))
            .collect();
        rng.shuffle(&mut cases);
        TraceTools {
            cases,
            text_bytes: 0,
            binary_bytes: 0,
            records: 0,
            replay_instrs: 0,
            report_bytes: 0,
        }
    }
}

impl TraceTools {
    fn tools_for(&mut self, case: &Case, rec: &mut Recorder) {
        let name = case.class.name();
        let k = &case.kernel;

        // Plain launch: the base of every ratio below.
        let op = rec.op_begin("tools.plain", name);
        let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
        let plain = gpu.launch(k, &launch);
        rec.op_end(op, plain.is_ok());
        let Ok(plain) = plain else { return };
        digest_debug(rec, &plain);
        rec.work(plain.metrics.instructions);

        let op = rec.op_begin("tools.null_sink", name);
        let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
        let r = gpu.launch_traced(k, &launch, &mut NullSink);
        rec.op_end(op, r.is_ok());
        if let Ok(s) = &r {
            rec.check("NullSink launch == plain launch", same_stats(s, &plain));
            rec.work(s.metrics.instructions);
        }

        let op = rec.op_begin("tools.stall_profile", name);
        let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
        let r = gpu.profile(k, &launch);
        rec.op_end(op, r.is_ok());
        if let Ok((s, prof)) = &r {
            rec.check("stall profile conserves cycles", prof.conservation_ok());
            digest_debug(rec, &s.stalls);
            rec.work(s.metrics.instructions);
        }

        let op = rec.op_begin("tools.pc_sampling", name);
        let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
        let mut pcs = PcSampleSink::default();
        let r = gpu.launch_traced(k, &launch, &mut pcs);
        rec.op_end(op, r.is_ok());
        if let Ok(s) = &r {
            rec.digest_u64(pcs.total_issues());
            rec.work(s.metrics.instructions);
        }

        if case.class == CHROME_CLASS {
            let op = rec.op_begin("tools.chrome", name);
            let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
            let mut chrome = ChromeTrace::new();
            let r = gpu.launch_traced(k, &launch, &mut chrome);
            let t = rec.begin("trace.chrome_export");
            let json = chrome.to_json();
            rec.end(t);
            rec.op_end(op, r.is_ok() && !chrome.is_empty());
            rec.digest_u64(json.len() as u64);
            if let Ok(s) = &r {
                rec.work(s.metrics.instructions);
            }
        }

        let op = rec.op_begin("tools.prof", name);
        let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
        let t = rec.begin("prof.profile");
        let report = profile_kernel(&mut gpu, k, &launch);
        rec.end(t);
        if let Ok(report) = &report {
            let t = rec.begin("prof.render_text");
            let text = report.render();
            rec.end(t);
            let t = rec.begin("prof.render_json");
            let json = report.to_json_string();
            rec.end(t);
            rec.check(
                "profile report: per-PC stalls sum to the launch's",
                report.pc_stalls_match(),
            );
            rec.digest_bytes(json.as_bytes());
            self.report_bytes += (text.len() + json.len()) as u64;
            rec.work(plain.metrics.instructions);
        }
        rec.op_end(op, report.is_ok());

        let op = rec.op_begin("tools.capture", name);
        let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
        let t = rec.begin("replay.capture");
        let captured = Trace::capture_kernel(&mut gpu, case.device, k, &launch);
        rec.end(t);
        rec.op_end(op, captured.is_ok());
        let Ok((cap_stats, trace)) = captured else {
            return;
        };
        rec.check(
            "captured launch == plain launch",
            same_stats(&cap_stats, &plain),
        );
        rec.work(cap_stats.metrics.instructions);
        self.records += trace.total_records();

        let op = rec.op_begin("tools.serialize", name);
        let t = rec.begin("replay.to_text");
        let text = trace.to_text();
        rec.end(t);
        let t = rec.begin("replay.to_binary");
        let binary = trace.to_binary();
        rec.end(t);
        rec.op_end(op, true);
        self.text_bytes += text.len() as u64;
        self.binary_bytes += binary.len() as u64;
        rec.digest_u64(hopper_replay::bytes_digest(&binary));

        let op = rec.op_begin("tools.parse", name);
        let t = rec.begin("replay.parse_text");
        let from_text = Trace::parse(text.as_bytes());
        rec.end(t);
        let t = rec.begin("replay.parse_binary");
        let from_binary = Trace::parse(&binary);
        rec.end(t);
        rec.op_end(op, from_text.is_ok() && from_binary.is_ok());
        let (Ok(from_text), Ok(from_binary)) = (from_text, from_binary) else {
            return;
        };
        rec.check(
            "both encodings parse back to the captured trace",
            from_text == trace && from_binary == trace,
        );

        let op = rec.op_begin("tools.validate", name);
        let t = rec.begin("replay.validate");
        let validated = from_binary.validate();
        rec.end(t);
        rec.op_end(op, validated.is_ok());
        let Ok(kernel) = validated else { return };

        let op = rec.op_begin("tools.replay", name);
        let (mut gpu, launch, _) = case.instantiate(serial_opts(), rec);
        let t = rec.begin("replay.launch");
        let replayed = gpu.launch_replayed(&kernel, &launch, &from_binary.source);
        rec.end(t);
        rec.op_end(op, replayed.is_ok());
        if let Ok(s) = &replayed {
            rec.check(
                "replayed launch == captured launch",
                same_stats(s, &cap_stats),
            );
            rec.work(s.metrics.instructions);
            self.replay_instrs += s.metrics.instructions;
        }
    }
}

impl Workload for TraceTools {
    fn roster_digest(&self) -> u64 {
        roster::cases_digest(&self.cases)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.text_bytes = 0;
        self.binary_bytes = 0;
        self.records = 0;
        self.replay_instrs = 0;
        self.report_bytes = 0;
        let cases = std::mem::take(&mut self.cases);
        for case in &cases {
            self.tools_for(case, rec);
        }
        self.cases = cases;
    }

    fn layers(&mut self, _rec: &mut Recorder, view: &mut LayerView<'_>) {
        let plain = view.sum_op_ns("tools.plain", None);
        let ratio = |num: f64| if plain > 0.0 { num / plain } else { 0.0 };
        view.set(
            "trace.null_sink_ratio",
            ratio(view.sum_op_ns("tools.null_sink", None)),
        );
        view.set(
            "trace.stall_profile_ratio",
            ratio(view.sum_op_ns("tools.stall_profile", None)),
        );
        view.set(
            "trace.pc_sampling_ratio",
            ratio(view.sum_op_ns("tools.pc_sampling", None)),
        );
        view.set(
            "replay.capture_ratio",
            ratio(view.sum_op_ns("tools.capture", None)),
        );
        view.set(
            "replay.vs_functional_ratio",
            ratio(view.sum_op_ns("tools.replay", None)),
        );
        view.set(
            "trace.chrome_export_ms",
            view.median_self_ns("trace.chrome_export", None) / 1e6,
        );
        view.set(
            "prof.profile_ms",
            view.median_self_ns("prof.profile", None) / 1e6,
        );
        view.set(
            "prof.render_text_us",
            view.median_self_ns("prof.render_text", None) / 1e3,
        );
        view.set(
            "prof.render_json_us",
            view.median_self_ns("prof.render_json", None) / 1e3,
        );
        let n = self.cases.len().max(1) as f64;
        view.set("prof.report_bytes", self.report_bytes as f64 / n);
        view.set(
            "replay.validate_ms",
            view.median_self_ns("replay.validate", None) / 1e6,
        );

        // Rates over the traced passes: bytes (or instructions) of one
        // pass × traced passes, over the summed span time.
        fn rate(view: &LayerView<'_>, per_pass: u64, span: &str) -> f64 {
            let ns = view.sum_self_ns(span, None);
            if ns > 0.0 {
                per_pass as f64 * view.traced_passes as f64 / ns * 1e3
            } else {
                0.0
            }
        }
        view.set(
            "replay.to_text_mb_per_s",
            rate(view, self.text_bytes, "replay.to_text"),
        );
        view.set(
            "replay.to_binary_mb_per_s",
            rate(view, self.binary_bytes, "replay.to_binary"),
        );
        view.set(
            "replay.parse_text_mb_per_s",
            rate(view, self.text_bytes, "replay.parse_text"),
        );
        view.set(
            "replay.parse_binary_mb_per_s",
            rate(view, self.binary_bytes, "replay.parse_binary"),
        );
        view.set(
            "replay.launch_minstr_per_s",
            rate(view, self.replay_instrs, "replay.launch"),
        );
        if self.records > 0 {
            view.set(
                "replay.bytes_per_record",
                self.binary_bytes as f64 / self.records as f64,
            );
        }
    }
}
