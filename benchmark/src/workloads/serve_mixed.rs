//! `serve_mixed`: an in-process `hsimd` over real loopback TCP.
//!
//! Closed loop with two client threads — `hsim-client`, `hload` and
//! `hsim-top` each wait for a reply before sending again — against one
//! worker, so cold jobs queue behind each other.  Nine requests in ten hit
//! the result cache (parse, assemble, digest, cache, render, wire; the
//! engine does nothing), one in ten bypasses it (`no_cache`) and pays for a
//! fresh `Gpu` and a simulation behind the single worker: the median is
//! the hit path, the tail is the cold path.

use super::{LayerView, Spec, Workload};
use crate::recorder::Recorder;
use crate::roster::{self, Case, Class, SplitMix64};
use crate::stats::{self, Fnv};
use hopper_obs::Registry;
use hopper_replay::Trace;
use hopper_serve::protocol::{parse_request, ReportKind};
use hopper_serve::{canonical_response, Client, RunSpec, Server, ServerConfig};
use hopper_sim::mem::GlobalMem;
use serde_json::Value;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// See [`Spec`].
pub const SPEC: Spec = Spec {
    name: "serve_mixed",
    work_unit: "ok requests",
    tail_q: 0.99,
};

/// Kernels primed into the result cache.
const PRIMED: usize = 48;
/// Of which also primed with a `profile` report (48 + 12 ≤ the cache's 64).
const PRIMED_PROFILES: usize = 12;
/// Kernels of the Zipf phase (twice the cache).
const ZIPF_KERNELS: usize = 128;
/// Requests of the Zipf phase.
const ZIPF_REQUESTS: usize = 240;
/// Simultaneous requests of the burst phase: one worker busy, 16 queued,
/// the rest refused.
const BURST: usize = 24;
/// Requests per client and pass: 270 hits (54 of them profile reports),
/// 25 cold stats (five per kernel class), 3 cold profiles, 1 trace replay,
/// 1 infer report.
const MIX: [(Kind, usize); 6] = [
    (Kind::HitStats, 216),
    (Kind::HitProfile, 54),
    (Kind::ColdStats, 25),
    (Kind::ColdProfile, 3),
    (Kind::ColdReplay, 1),
    (Kind::ColdInfer, 1),
];
/// A request over this counts as failed.  A hit takes 0.2 ms and a cold
/// job 10 ms, but with two clients, the connection threads and a busy
/// worker on two cores a request now and then waits out several scheduler
/// slices; the limit catches one that hung, the bounds on `op_p50_ms` and
/// `op_tail_ms` catch a slower path.
const LIMIT: Duration = Duration::from_millis(500);

/// Classes a daemon can run without host-initialised buffers, with the
/// shrink that puts a cold job near ten milliseconds.
const SERVE_CLASSES: [(Class, u32); 5] = [
    (Class::Alu, 6),
    (Class::Dpx, 6),
    (Class::SmemConflict, 6),
    (Class::Atomics, 6),
    (Class::Stream, 6),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HitStats,
    HitProfile,
    ColdStats,
    ColdProfile,
    ColdReplay,
    ColdInfer,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::HitStats => "hit_stats",
            Kind::HitProfile => "hit_profile",
            Kind::ColdStats => "cold_stats",
            Kind::ColdProfile => "cold_profile",
            Kind::ColdReplay => "cold_replay",
            Kind::ColdInfer => "cold_infer",
        }
    }
}

/// One scheduled request: both spellings of its line and what the
/// payload must hash to.
struct Req {
    kind: Kind,
    line: String,
    line_timed: String,
    expect: u64,
}

/// What a client thread brings back per request.
struct Sample {
    kind: Kind,
    start: Instant,
    dur: Duration,
    ok: bool,
    payload: u64,
    bytes: usize,
    /// The response line, kept on traced passes for its `timings`.
    response: Option<String>,
}

/// FNV of the `result` payload of an ok response (0 for anything else).
/// Keys are sorted, so the payload sits between `"result":` and the
/// `"status"` key that follows it.
fn payload_digest(resp: &str) -> u64 {
    let Some(at) = resp.find("\"result\":") else {
        return 0;
    };
    let Some(end) = resp.rfind(",\"status\":\"ok\"") else {
        return 0;
    };
    if end <= at {
        return 0;
    }
    let mut h = Fnv::default();
    h.write(&resp.as_bytes()[at + 9..end]);
    h.0
}

/// A cold response and the cached one that follows it must be the same
/// line once the per-request envelope fields are stripped.
pub fn cold_equals_cached(cold: &str, cached: &str) -> bool {
    cold.contains("\"status\":\"ok\"") && canonical_response(cold) == canonical_response(cached)
}

/// A `run` request for `case` against a daemon whose devices start empty:
/// buffers are laid out from the arena base exactly as `Gpu::alloc` would.
fn spec_for(case: &Case) -> RunSpec {
    let mut next = GlobalMem::BASE;
    let params = case
        .bufs
        .iter()
        .map(|b| {
            let addr = next;
            next = (next + b.bytes.max(1) + 255) & !255;
            addr
        })
        .collect();
    let text = case.text.clone().expect("serve classes are textual");
    let mut spec = RunSpec::new(text, case.device, case.grid, case.block);
    spec.name = Some(case.kernel.name.clone());
    spec.cluster = case.cluster;
    spec.params = params;
    spec
}

/// A primed (kernel, report): cached line, cached line with timings, the
/// two `no_cache` spellings, payload digest.
type Primed = (String, String, String, String, u64);

fn lines(spec: &mut RunSpec) -> (String, String) {
    spec.timings = false;
    let plain = spec.to_request_line();
    spec.timings = true;
    let timed = spec.to_request_line();
    spec.timings = false;
    (plain, timed)
}

/// The daemon workload.
pub struct ServeMixed {
    server: Option<Server>,
    client: Client,
    registry: Arc<Registry>,
    schedules: [Vec<Req>; 2],
    /// Kernel texts and request lines, for the ISA and parse probes.
    texts: Vec<String>,
    /// Specs of the Zipf phase's 128 kernels.
    zipf: Vec<RunSpec>,
    zipf_order: Vec<usize>,
    /// A full-size cold job that keeps the worker busy during the burst.
    slow_line: String,
    burst_line: String,
    roster_digest: u64,
    startup_ms: f64,
    /// Daemon counters at the start of the timed phase.
    stats_at_start: Option<Value>,
    /// Response sizes of the timed passes.
    resp_bytes: Vec<f64>,
}

fn send_ok(client: &Client, line: &str, rec: &mut Recorder, what: &str) -> String {
    let resp = client.send_line(line).unwrap_or_default();
    rec.check(what, resp.contains("\"status\":\"ok\""));
    resp
}

impl ServeMixed {
    /// Start the daemon, generate the roster and prime the cache.
    pub fn new(seed: u64, shrink: u32, rec: &mut Recorder) -> Result<Self, String> {
        // The daemon logs one line per request at info level.
        hopper_obs::log::set_filter("off")?;
        let mut rng = SplitMix64::new(seed);
        // One small captured trace (a single chasing warp) for the replay
        // requests; captured before the daemon starts so that nothing that
        // can fail runs while it is up.
        let trace_case = roster::case(Class::Pchase, "h800", shrink * 400, &mut rng);
        let mut scratch = Recorder::default();
        let (mut gpu, launch, _) =
            trace_case.instantiate(super::engine_serial::serial_opts(), &mut scratch);
        let (_, trace) =
            Trace::capture_kernel(&mut gpu, trace_case.device, &trace_case.kernel, &launch)
                .map_err(|e| format!("capturing the replay trace: {e}"))?;
        let registry = Arc::new(Registry::new());
        let t0 = Instant::now();
        let server = Server::start(ServerConfig {
            workers: 1,
            cache_cap: 64,
            queue_cap: 16,
            registry: Some(registry.clone()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("starting hsimd: {e}"))?;
        let client = Client::new(server.local_addr().to_string());
        let pong = client.ping().unwrap_or_default();
        let startup_ms = t0.elapsed().as_secs_f64() * 1e3;
        rec.check("daemon answers ping", pong.contains("pong"));

        let cases: Vec<Case> = (0..ZIPF_KERNELS)
            .map(|i| {
                let (class, extra) = SERVE_CLASSES[i % SERVE_CLASSES.len()];
                roster::case(class, "h800", shrink * extra, &mut rng)
            })
            .collect();
        let mut h = Fnv::default();
        h.write_u64(roster::cases_digest(&cases));
        let zipf: Vec<RunSpec> = cases.iter().map(spec_for).collect();
        let texts: Vec<String> = zipf.iter().map(|s| s.kernel.clone()).collect();

        // Prime: the first submission simulates and stores, the second is
        // served from the cache; the two must agree.
        let mut stats_lines: Vec<Primed> = Vec::new();
        let mut profile_lines: Vec<Primed> = Vec::new();
        for (i, base) in zipf.iter().take(PRIMED).enumerate() {
            let reports: &[ReportKind] = if i < PRIMED_PROFILES {
                &[ReportKind::Stats, ReportKind::Profile]
            } else {
                &[ReportKind::Stats]
            };
            for &report in reports {
                let mut spec = base.clone();
                spec.report = report;
                let (plain, timed) = lines(&mut spec);
                let cold = client.send_line(&plain).unwrap_or_default();
                let cached = client.send_line(&plain).unwrap_or_default();
                rec.check(
                    "cold response == cached response (canonical)",
                    cold_equals_cached(&cold, &cached),
                );
                spec.no_cache = true;
                let (cold_plain, cold_timed) = lines(&mut spec);
                let entry = (
                    plain,
                    timed,
                    cold_plain,
                    cold_timed,
                    payload_digest(&cached),
                );
                match report {
                    ReportKind::Profile => profile_lines.push(entry),
                    _ => stats_lines.push(entry),
                }
            }
        }

        // The captured trace to replay, and one serving scenario.
        let mut replay = spec_for(&trace_case);
        replay.params = trace.header.params.clone();
        replay.trace = Some(trace.to_text());
        replay.no_cache = true;
        let replay_lines = lines(&mut replay);
        let replay_expect = payload_digest(&send_ok(&client, &replay_lines.0, rec, "trace replay"));

        let mut infer = RunSpec::new("", "h800", 1, 32);
        infer.report = ReportKind::Infer;
        infer.infer = Some(Value::Object(vec![
            (
                "requests".into(),
                Value::UInt((2000 / shrink.max(1)).max(50) as u64),
            ),
            ("seed".into(), Value::UInt(rng.below(1 << 20))),
        ]));
        infer.no_cache = true;
        let infer_lines = lines(&mut infer);
        let infer_expect = payload_digest(&send_ok(&client, &infer_lines.0, rec, "infer report"));
        h.write(replay_lines.0.as_bytes());
        h.write(infer_lines.0.as_bytes());

        // Each client's schedule: fixed counts per kind, seeded kernels
        // and order, replayed every pass.
        let per_pass = |n: usize| (n / shrink.max(1) as usize).max(1);
        // Requests of a kind are spread evenly over the kernel classes
        // (kernel `i` is of class `i % 5`), so that every seed assembles
        // the same mix of texts and queues the same amount of simulation
        // behind the worker; which kernel of the class is seeded.
        let nclasses = SERVE_CLASSES.len();
        let of_class = |lines: &[Primed], class: usize, rng: &mut SplitMix64| {
            let n = (lines.len() - class).div_ceil(nclasses);
            lines[class + nclasses * rng.below(n as u64) as usize].clone()
        };
        let schedule_for = |rng: &mut SplitMix64| {
            let mut reqs = Vec::new();
            for (kind, count) in MIX {
                for j in 0..per_pass(count) {
                    let (line, line_timed, expect) = match kind {
                        Kind::HitStats => {
                            let e = of_class(&stats_lines, j % nclasses, rng);
                            (e.0, e.1, e.4)
                        }
                        Kind::HitProfile => {
                            let e = of_class(&profile_lines, j % nclasses, rng);
                            (e.0, e.1, e.4)
                        }
                        Kind::ColdStats => {
                            let e = of_class(&stats_lines, j % nclasses, rng);
                            (e.2, e.3, e.4)
                        }
                        Kind::ColdProfile => {
                            let e = of_class(&profile_lines, 2 * j % nclasses, rng);
                            (e.2, e.3, e.4)
                        }
                        Kind::ColdReplay => (
                            replay_lines.0.clone(),
                            replay_lines.1.clone(),
                            replay_expect,
                        ),
                        Kind::ColdInfer => {
                            (infer_lines.0.clone(), infer_lines.1.clone(), infer_expect)
                        }
                    };
                    reqs.push(Req {
                        kind,
                        line,
                        line_timed,
                        expect,
                    });
                }
            }
            rng.shuffle(&mut reqs);
            reqs
        };
        let schedules = [schedule_for(&mut rng), schedule_for(&mut rng)];
        for r in schedules.iter().flatten() {
            h.write(r.line.as_bytes());
        }

        // Zipf(1) over 128 kernels against the 64-entry LRU.
        let weights: Vec<f64> = (1..=ZIPF_KERNELS).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let zipf_order = (0..per_pass(ZIPF_REQUESTS).max(8))
            .map(|_| {
                let mut u = rng.unit() * total;
                weights
                    .iter()
                    .position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(ZIPF_KERNELS - 1)
            })
            .collect();

        let mut slow = spec_for(&roster::case(Class::Alu, "h800", shrink, &mut rng));
        slow.no_cache = true;
        let mut burst = spec_for(&cases[0]);
        burst.no_cache = true;

        Ok(ServeMixed {
            server: Some(server),
            client,
            registry,
            schedules,
            texts,
            zipf,
            zipf_order,
            slow_line: slow.to_request_line(),
            burst_line: burst.to_request_line(),
            roster_digest: h.0,
            startup_ms,
            stats_at_start: None,
            resp_bytes: Vec::new(),
        })
    }

    fn daemon_stats(&self) -> Option<Value> {
        self.client
            .stats()
            .ok()
            .and_then(|v| v.get("result").cloned())
    }
}

fn run_client(client: &Client, schedule: &[Req], traced: bool) -> Vec<Sample> {
    schedule
        .iter()
        .map(|req| {
            let line = if traced { &req.line_timed } else { &req.line };
            let start = Instant::now();
            let resp = client.send_line(line);
            let dur = start.elapsed();
            let resp = resp.unwrap_or_default();
            let payload = payload_digest(&resp);
            Sample {
                kind: req.kind,
                start,
                dur,
                ok: payload != 0 && payload == req.expect && dur <= LIMIT,
                payload,
                bytes: resp.len(),
                response: traced.then_some(resp),
            }
        })
        .collect()
}

/// The daemon's six stage names, as span names.
fn stage_span(name: &str) -> &'static str {
    match name {
        "parse" => "serve.stage.parse",
        "assemble" => "serve.stage.assemble",
        "cache" => "serve.stage.cache",
        "queue" => "serve.stage.queue",
        "simulate" => "serve.stage.simulate",
        "render" => "serve.stage.render",
        _ => "serve.stage.other",
    }
}

/// Fold a response's `timings` into child spans of its request span.  The
/// daemon's timeline is anchored at accept; the client only knows when it
/// connected and when the reply arrived, so the timeline is centred in
/// the request interval.
fn fold_timings(
    rec: &mut Recorder,
    parent: u32,
    op_id: u32,
    start_ns: u64,
    end_ns: u64,
    resp: &str,
) {
    let Ok(v) = serde_json::from_str(resp) else {
        return;
    };
    let Some(stages) = v.get("timings").and_then(Value::as_array) else {
        return;
    };
    let stage = |s: &Value, key: &str| s.get(key).and_then(Value::as_u64).unwrap_or(0) * 1000;
    let server_ns = stages
        .iter()
        .map(|s| stage(s, "start_us") + stage(s, "dur_us"))
        .max()
        .unwrap_or(0);
    let anchor = start_ns + (end_ns - start_ns).saturating_sub(server_ns) / 2;
    for s in stages {
        let name = stage_span(s.get("name").and_then(Value::as_str).unwrap_or(""));
        let lo = (anchor + stage(s, "start_us")).min(end_ns);
        let hi = (lo + stage(s, "dur_us")).min(end_ns);
        rec.add_span(name, "", lo, hi, Some(parent), op_id);
    }
}

impl Workload for ServeMixed {
    fn roster_digest(&self) -> u64 {
        self.roster_digest
    }

    fn begin_timed(&mut self, _rec: &mut Recorder) {
        self.stats_at_start = self.daemon_stats();
        self.resp_bytes.clear();
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let traced = rec.tracing;
        let pass_start = Instant::now();
        let client = &self.client;
        let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .schedules
                .iter()
                .map(|schedule| s.spawn(move || run_client(client, schedule, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let pass_end = Instant::now();
        for (c, samples) in per_client.iter().enumerate() {
            let tag = if c == 0 { "client0" } else { "client1" };
            let op_id = rec.new_op_id();
            let last_end = samples.last().map_or(pass_end, |s| s.start + s.dur);
            let (lo, hi) = (rec.ns_of(pass_start), rec.ns_of(last_end));
            let client_span = rec.add_span("serve.client", tag, lo, hi, None, op_id);
            for s in samples {
                rec.push_op("serve.request", s.kind.tag(), s.dur.as_nanos() as u64, s.ok);
                rec.digest_u64(s.payload);
                rec.work(s.ok as u64);
                self.resp_bytes.push(s.bytes as f64);
                let op_id = rec.new_op_id();
                let (lo, hi) = (rec.ns_of(s.start), rec.ns_of(s.start + s.dur));
                let span = rec.add_span("serve.request", s.kind.tag(), lo, hi, client_span, op_id);
                if let (Some(span), Some(resp)) = (span, &s.response) {
                    fold_timings(rec, span, op_id, lo, hi, resp);
                }
            }
        }
    }

    fn layers(&mut self, rec: &mut Recorder, view: &mut LayerView<'_>) {
        fn p(view: &LayerView<'_>, tag: &str, q: f64) -> f64 {
            stats::nearest_rank(&view.op_ms_sorted("serve.request", tag), q)
        }
        let mut hits = view.op_ms_sorted("serve.request", "hit_stats");
        hits.extend(view.op_ms_sorted("serve.request", "hit_profile"));
        hits.sort_by(f64::total_cmp);
        view.set("serve.hit_p50_ms", stats::nearest_rank(&hits, 0.50));
        view.set("serve.hit_p99_ms", stats::nearest_rank(&hits, 0.99));
        view.set("serve.cold_p50_ms", p(view, "cold_stats", 0.50));
        view.set("serve.cold_p99_ms", p(view, "cold_stats", 0.99));
        view.set("serve.cold_profile_p50_ms", p(view, "cold_profile", 0.50));
        view.set("serve.cold_replay_p50_ms", p(view, "cold_replay", 0.50));
        view.set("serve.cold_infer_p50_ms", p(view, "cold_infer", 0.50));
        self.resp_bytes.sort_by(f64::total_cmp);
        view.set(
            "serve.resp_bytes_p50",
            stats::nearest_rank(&self.resp_bytes, 0.50),
        );
        view.set("serve.startup_ms", self.startup_ms);

        // Worker utilisation and cache hit ratio of the timed phase, from
        // the daemon's own `stats` op.
        let now = self.daemon_stats();
        if let (Some(a), Some(b)) = (&self.stats_at_start, &now) {
            let delta = |section: &str, key: &str| {
                let get = |v: &Value| {
                    v.get(section)
                        .and_then(|s| s.get(key))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                };
                get(b) - get(a)
            };
            let uptime = delta("workers", "uptime_us");
            if uptime > 0.0 {
                view.set("serve.worker_util", delta("workers", "busy_us") / uptime);
            }
            let lookups = delta("cache", "hits") + delta("cache", "misses");
            if lookups > 0.0 {
                view.set("serve.cache_hit_ratio", delta("cache", "hits") / lookups);
            }
        }

        // The floor under every request: connect + one line each way.
        let mut pings: Vec<f64> = (0..200)
            .map(|_| {
                let t0 = Instant::now();
                let _ = std::hint::black_box(self.client.ping());
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        pings.sort_by(f64::total_cmp);
        view.set("serve.ping_p50_us", stats::nearest_rank(&pings, 0.50));
        let mut scrapes: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                let _ = std::hint::black_box(self.client.metrics());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        view.set("serve.metrics_scrape_ms", stats::median(&mut scrapes));

        let lines: Vec<&str> = self.schedules[0]
            .iter()
            .take(64)
            .map(|r| r.line.as_str())
            .collect();
        let parse_ns = view.probe(10, || {
            lines.iter().filter(|l| parse_request(l).is_ok()).count()
        });
        view.set(
            "serve.parse_request_us",
            parse_ns / 1e3 / lines.len().max(1) as f64,
        );

        // hopper-isa on the roster's texts: what every request pays before
        // the cache can answer.
        let kernels: Vec<_> = self
            .texts
            .iter()
            .filter_map(|t| hopper_isa::asm::assemble(t).ok())
            .collect();
        let kinstrs = kernels.iter().map(|k| k.instrs.len()).sum::<usize>().max(1) as f64 / 1e3;
        let texts = &self.texts;
        let asm_ns = view.probe(5, || {
            texts
                .iter()
                .filter(|t| hopper_isa::asm::assemble(t).is_ok())
                .count()
        });
        view.set("isa.assemble_us_per_kinstr", asm_ns / 1e3 / kinstrs);
        let disasm_ns = view.probe(5, || {
            kernels
                .iter()
                .filter_map(hopper_isa::disassemble)
                .map(|t| t.len())
                .sum::<usize>()
        });
        view.set("isa.disassemble_us_per_kinstr", disasm_ns / 1e3 / kinstrs);
        let digest_ns = view.probe(20, || kernels.iter().fold(0u64, |a, k| a ^ k.digest()));
        view.set("isa.digest_ns_per_instr", digest_ns / (kinstrs * 1e3));
        let sass_ns = view.probe(5, || {
            kernels
                .iter()
                .map(|k| hopper_isa::lower::sass_listing(hopper_isa::Arch::Hopper, k).len())
                .sum::<usize>()
        });
        view.set(
            "isa.lower_sass_us",
            sass_ns / 1e3 / kernels.len().max(1) as f64,
        );

        // hopper-obs: the registry operations on every request's path,
        // and one exposition of the daemon's live registry.
        let scratch = Registry::new();
        let counter = scratch.counter("hbench_probe_total", "Probe counter.", &[("k", "v")]);
        view.set("obs.counter_inc_ns", view.probe(100_000, || counter.inc()));
        let hist = scratch.histogram("hbench_probe_us", "Probe histogram.", &[]);
        let mut x = 1u64;
        let observe_ns = view.probe(100_000, || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(x >> 44);
        });
        view.set("obs.hist_observe_ns", observe_ns);
        let registry = &self.registry;
        view.set(
            "obs.expo_render_us",
            view.probe(20, || registry.render().len()) / 1e3,
        );

        // Burst: hold the worker with one long job, then 24 at once —
        // 16 fit the queue, the rest are refused.
        let rejected_before = self.daemon_stats();
        std::thread::scope(|s| {
            let slow = s.spawn(|| self.client.send_line(&self.slow_line));
            std::thread::sleep(Duration::from_millis(5));
            let barrier = Barrier::new(BURST);
            let replies: Vec<String> = std::thread::scope(|b| {
                let handles: Vec<_> = (0..BURST)
                    .map(|_| {
                        b.spawn(|| {
                            barrier.wait();
                            self.client.send_line(&self.burst_line).unwrap_or_default()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_default())
                    .collect()
            });
            let refused = replies.iter().filter(|r| r.contains("queue_full")).count();
            let served = replies
                .iter()
                .filter(|r| r.contains("\"status\":\"ok\""))
                .count();
            rec.check(
                "burst: every request is served or refused with queue_full",
                refused + served == BURST && refused > 0,
            );
            let _ = slow.join();
        });
        if let (Some(a), Some(b)) = (rejected_before, self.daemon_stats()) {
            let rejected = |v: &Value| {
                v.get("queue")
                    .and_then(|q| q.get("rejected"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            view.set(
                "serve.queue_full_total",
                rejected(&b).saturating_sub(rejected(&a)) as f64,
            );
        }

        // Zipf over twice the cache: hit ratio of the LRU, from the
        // daemon's counters.  Last, because it evicts the primed entries.
        let before = self.daemon_stats();
        for &k in &self.zipf_order {
            let resp = self
                .client
                .send_line(&self.zipf[k].to_request_line())
                .unwrap_or_default();
            rec.check("zipf request ok", resp.contains("\"status\":\"ok\""));
        }
        if let (Some(a), Some(b)) = (before, self.daemon_stats()) {
            let count = |v: &Value, key: &str| {
                v.get("cache")
                    .and_then(|c| c.get(key))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            let hits = count(&b, "hits") - count(&a, "hits");
            let misses = count(&b, "misses") - count(&a, "misses");
            if hits + misses > 0 {
                view.set("serve.zipf_hit_ratio", hits as f64 / (hits + misses) as f64);
            }
        }

        let t0 = Instant::now();
        self.finish(rec);
        view.set("serve.shutdown_drain_ms", t0.elapsed().as_secs_f64() * 1e3);
    }

    fn finish(&mut self, _rec: &mut Recorder) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}
