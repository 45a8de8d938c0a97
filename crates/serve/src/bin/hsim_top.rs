//! `hsim-top` — a live terminal dashboard for an `hsimd` daemon.
//!
//! Polls the daemon's `stats` and `metrics` ops and renders throughput
//! (QPS), per-stage p50/p99 latency, queue depth, cache hit rate,
//! worker utilization and per-device run counts.

use hopper_obs::cli::{Args, Flag, Spec};
use hopper_obs::expo::{self, Exposition};
use hopper_obs::log::{self, Level};
use hopper_serve::{Client, DEFAULT_ADDR};
use serde_json::Value;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "hsim-top",
    about: "live dashboard for the hsimd simulation daemon",
    flags: &[
        Flag::value("addr", "HOST:PORT", "daemon address (default 127.0.0.1:7077)"),
        Flag::value("interval-ms", "MS", "refresh interval (default 1000)"),
        Flag::value("frames", "N", "exit after N frames (default: run until ^C)"),
        Flag::switch("once", "print one frame and exit, without clearing the screen"),
    ],
    notes: "\
Each frame polls the `stats` op (request counters, queue, cache,
workers) and the `metrics` op (the Prometheus registry, for per-stage
latency quantiles and per-device run counts).  QPS is the request-count
delta between frames, so the first frame shows 0.
",
    ..Spec::NONE
};

/// A latency distribution as ascending `(inclusive_bound_us, count)`
/// pairs with non-cumulative counts.
struct Dist(Vec<(u64, u64)>);

impl Dist {
    /// Smallest recorded bound covering quantile `q`, or `None` when
    /// the distribution is empty.
    fn quantile(&self, q: f64) -> Option<u64> {
        let total: u64 = self.0.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for &(bound, count) in &self.0 {
            seen += count;
            if seen >= rank {
                return Some(bound);
            }
        }
        None
    }

    /// From a parsed exposition's cumulative `_bucket` samples of one
    /// labelled histogram series.
    fn from_expo(doc: &Exposition, family: &str, label_key: &str, label_val: &str) -> Dist {
        let bucket = format!("{family}_bucket");
        let mut pairs: Vec<(f64, f64)> = doc
            .samples_named(&bucket)
            .filter(|s| s.label(label_key) == Some(label_val))
            .filter_map(|s| {
                let le = s.label("le")?;
                if le == "+Inf" {
                    return None; // the last finite bucket already holds the top
                }
                Some((le.parse::<f64>().ok()?, s.value))
            })
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        Dist(
            pairs
                .into_iter()
                .map(|(le, cum)| {
                    let count = (cum - prev).max(0.0) as u64;
                    prev = cum;
                    (le as u64, count)
                })
                .collect(),
        )
    }
}

fn fmt_quantiles(d: &Dist) -> String {
    match (d.quantile(0.50), d.quantile(0.99)) {
        (Some(p50), Some(p99)) => format!("{p50:>9} /{p99:>10}"),
        _ => format!("{:>9} /{:>10}", "-", "-"),
    }
}

fn get_u64(v: &Value, section: &str, key: &str) -> u64 {
    v.get(section)
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn get_f64(v: &Value, section: &str, key: &str) -> f64 {
    v.get(section)
        .and_then(|s| s.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Serving-simulator panel: iteration/token/preemption counters and
/// per-phase iteration cost quantiles from the `hsim_infer_*` families.
/// Empty string until the daemon has executed at least one infer run.
fn render_infer_panel(doc: &Exposition) -> String {
    let count = |family: &str, key: &str, val: &str| -> u64 {
        doc.samples_named(family)
            .filter(|s| s.label(key) == Some(val))
            .map(|s| s.value as u64)
            .sum()
    };
    let iters: u64 = ["prefill", "decode", "mixed"]
        .iter()
        .map(|p| count("hsim_infer_iterations_total", "phase", p))
        .sum();
    if iters == 0 {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "\ninfer     iterations {} (prefill {} / decode {} / mixed {})   preemptions {}\n",
        iters,
        count("hsim_infer_iterations_total", "phase", "prefill"),
        count("hsim_infer_iterations_total", "phase", "decode"),
        count("hsim_infer_iterations_total", "phase", "mixed"),
        doc.samples_named("hsim_infer_preemptions_total")
            .map(|s| s.value as u64)
            .sum::<u64>(),
    ));
    out.push_str(&format!(
        "          tokens prefill {} / decode {}   kv pages in use {}\n",
        count("hsim_infer_tokens_total", "kind", "prefill"),
        count("hsim_infer_tokens_total", "kind", "decode"),
        doc.samples_named("hsim_infer_kv_pages_in_use")
            .map(|s| s.value as u64)
            .sum::<u64>(),
    ));
    out.push_str("\ninfer iteration (µs)      p50 /       p99\n");
    for phase in ["prefill", "decode", "mixed"] {
        let d = Dist::from_expo(doc, "hsim_infer_phase_us", "phase", phase);
        out.push_str(&format!("  {phase:<18}{}\n", fmt_quantiles(&d)));
    }
    out
}

/// Render one dashboard frame.
fn render_frame(addr: &str, stats: &Value, doc: &Exposition, qps: f64) -> String {
    let mut out = String::new();
    let uptime_s = get_u64(stats, "workers", "uptime_us") as f64 / 1e6;
    out.push_str(&format!(
        "hsimd {addr} — up {uptime_s:.1}s — {} workers, utilization {:.1}%\n",
        get_u64(stats, "workers", "count"),
        get_f64(stats, "workers", "utilization_pct"),
    ));
    out.push_str(&format!(
        "requests  total {:<8} ok {:<8} error {:<6} deadline_exceeded {:<4} qps {qps:.1}\n",
        get_u64(stats, "requests", "total"),
        get_u64(stats, "requests", "ok"),
        get_u64(stats, "requests", "error"),
        get_u64(stats, "requests", "deadline_exceeded"),
    ));
    out.push_str(&format!(
        "queue     depth {}/{} (rejected {})\n",
        get_u64(stats, "queue", "depth"),
        get_u64(stats, "queue", "capacity"),
        get_u64(stats, "queue", "rejected"),
    ));
    out.push_str(&format!(
        "cache     {}/{} entries, hit rate {:.1}% (hits {}, misses {}, evictions {})\n",
        get_u64(stats, "cache", "entries"),
        get_u64(stats, "cache", "capacity"),
        get_f64(stats, "cache", "hit_rate_pct"),
        get_u64(stats, "cache", "hits"),
        get_u64(stats, "cache", "misses"),
        get_u64(stats, "cache", "evictions"),
    ));
    out.push_str("\nstage latency (µs)        p50 /       p99\n");
    for stage in ["parse", "assemble", "cache", "queue", "simulate", "render"] {
        let d = Dist::from_expo(doc, "hsimd_stage_duration_us", "stage", stage);
        out.push_str(&format!("  {stage:<18}{}\n", fmt_quantiles(&d)));
    }
    for path in ["cached", "all"] {
        let d = Dist::from_expo(doc, "hsimd_request_duration_us", "path", path);
        out.push_str(&format!("  e2e:{path:<14}{}\n", fmt_quantiles(&d)));
    }
    let mut devices: Vec<(String, u64)> = doc
        .samples_named("hsimd_runs_total")
        .filter_map(|s| Some((s.label("device")?.to_string(), s.value as u64)))
        .collect();
    devices.sort();
    if !devices.is_empty() {
        out.push_str("\nruns by device   ");
        for (dev, n) in devices {
            out.push_str(&format!("{dev} {n}   "));
        }
        out.push('\n');
    }
    out.push_str(&render_infer_panel(doc));
    out
}

fn main() -> ExitCode {
    let args = Args::from_env(&SPEC);
    let addr: String = args.value("addr").unwrap_or_else(|| DEFAULT_ADDR.into());
    let interval = Duration::from_millis(args.value("interval-ms").unwrap_or(1000));
    let once = args.switch("once");
    let frames: Option<u64> = if once { Some(1) } else { args.value("frames") };
    let client = Client::new(addr.clone());
    let mut prev: Option<(Instant, u64)> = None;
    let mut frame = 0u64;
    loop {
        let polled = client.stats().map_err(|e| e.to_string()).and_then(|env| {
            let text = client.metrics().map_err(|e| e.to_string())?;
            Ok((env, expo::parse(&text).map_err(|e| e.to_string())?))
        });
        let (envelope, metrics_doc) = match polled {
            Ok(p) => p,
            Err(e) => {
                log::event(Level::Error, "hsim_top", "poll failed")
                    .str("addr", &addr)
                    .str("detail", &e)
                    .emit();
                return ExitCode::from(2);
            }
        };
        let stats = envelope.get("result").cloned().unwrap_or(Value::Null);
        let now = Instant::now();
        let total = get_u64(&stats, "requests", "total");
        let qps = match prev {
            Some((t, n)) if now > t => (total.saturating_sub(n)) as f64 / (now - t).as_secs_f64(),
            _ => 0.0,
        };
        prev = Some((now, total));
        if !once {
            print!("\x1b[2J\x1b[H"); // clear screen, home cursor
        }
        print!("{}", render_frame(&addr, &stats, &metrics_doc, qps));
        frame += 1;
        if frames.is_some_and(|n| frame >= n) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}
