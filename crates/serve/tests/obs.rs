//! Observability end-to-end: correlation ids tie response envelopes to
//! server log lines, the `metrics` op and the `GET /metrics` HTTP shim
//! export the same deterministic registry, and request timelines appear
//! under the opt-in `timings` flag.

use hopper_obs::log::Capture;
use hopper_obs::{expo, Registry};
use hopper_serve::{canonical_response, Client, RunSpec, Server, ServerConfig};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const KERNEL: &str = "mov %r1, %tid.x;\nadd.s32 %r2, %r1, 7;\nexit;";

fn start(mut cfg: ServerConfig) -> (Server, Client, Arc<Registry>) {
    // Private registry per daemon: tests run concurrently in this
    // process and must not share counter atomics.
    let reg = Arc::new(Registry::new());
    cfg.registry = Some(reg.clone());
    let server = Server::start(cfg).expect("bind ephemeral port");
    let client = Client::new(server.local_addr().to_string());
    (server, client, reg)
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response JSON ({e}): {line}"))
}

fn corr_id_of(v: &Value) -> String {
    v.get("corr_id")
        .and_then(Value::as_str)
        .expect("envelope carries corr_id")
        .to_string()
}

#[test]
fn correlation_id_links_response_to_server_logs() {
    let capture = Capture::start();
    let (server, client, _reg) = start(ServerConfig::default());
    let mut spec = RunSpec::new(KERNEL, "h800", 2, 64);
    spec.id = Some("corr-test".into());
    let v = parse(&client.run(&spec).unwrap());
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    let corr = corr_id_of(&v);
    // Minted ids are `<pid hex>-<seq hex>`.
    let (pid, seq) = corr.split_once('-').expect("corr_id shape");
    assert!(u64::from_str_radix(pid, 16).is_ok(), "corr_id: {corr}");
    assert!(u64::from_str_radix(seq, 16).is_ok(), "corr_id: {corr}");
    // The client-visible id appears in the server's structured logs
    // (the capture also sees other tests' lines; filter by our id).
    let matching: Vec<String> = capture
        .lines()
        .into_iter()
        .filter(|l| l.contains(&format!("\"corr_id\":\"{corr}\"")))
        .collect();
    assert!(
        matching.iter().any(|l| l.contains("\"msg\":\"run ok\"")),
        "no `run ok` log line carries corr_id {corr}: {matching:?}"
    );
    // Every matching line is well-formed JSON with the reserved keys.
    for line in &matching {
        let v: Value = serde_json::from_str(line).expect("log line is JSON");
        for key in ["level", "msg", "target", "ts_us"] {
            assert!(v.get(key).is_some(), "log line missing {key}: {line}");
        }
    }
    // Error envelopes carry (fresh) correlation ids too, and the id
    // shows up in the failure log line.
    let bad = parse(&client.run(&RunSpec::new(KERNEL, "mi300", 1, 32)).unwrap());
    assert_eq!(bad.get("status").and_then(Value::as_str), Some("error"));
    let bad_corr = corr_id_of(&bad);
    assert_ne!(bad_corr, corr, "corr ids are per-request");
    assert!(
        capture
            .lines()
            .iter()
            .any(|l| l.contains(&format!("\"corr_id\":\"{bad_corr}\""))
                && l.contains("\"kind\":\"unknown_device\"")),
        "no failure log line carries corr_id {bad_corr}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn metrics_op_reports_cache_and_request_counters() {
    let (server, client, _reg) = start(ServerConfig::default());
    let spec = RunSpec::new(KERNEL, "h800", 2, 64);
    let cold = client.run(&spec).unwrap();
    let cached = client.run(&spec).unwrap();
    assert_eq!(canonical_response(&cold), canonical_response(&cached));
    let doc = expo::parse(&client.metrics().unwrap()).expect("exposition parses");
    // Request counters, by op and by status.
    assert_eq!(
        doc.value("hsimd_requests_total", &[("op", "run")]),
        Some(2.0)
    );
    assert_eq!(doc.value("hsimd_run_requests_total", &[]), Some(2.0));
    assert_eq!(
        doc.value("hsimd_run_responses_total", &[("status", "ok")]),
        Some(2.0)
    );
    // Cold = miss + store, repeat = hit.
    for (result, n) in [("miss", 1.0), ("store", 1.0), ("hit", 1.0)] {
        assert_eq!(
            doc.value("hsimd_cache_ops_total", &[("result", result)]),
            Some(n),
            "cache_ops result={result}"
        );
    }
    // Per-device run counts: only the cold request simulated.
    assert_eq!(
        doc.value("hsimd_runs_total", &[("device", "h800")]),
        Some(1.0)
    );
    // Stage histograms observed the run once per stage.
    for stage in ["parse", "assemble", "cache", "queue", "simulate", "render"] {
        let n = doc
            .value("hsimd_stage_duration_us_count", &[("stage", stage)])
            .unwrap_or(0.0);
        assert!(n >= 1.0, "no {stage} stage samples");
    }
    // The engine's phase hooks fed the registry.
    for phase in ["setup", "waves", "finalize"] {
        assert_eq!(
            doc.value("hsim_phase_duration_us_count", &[("phase", phase)]),
            Some(1.0),
            "phase {phase}"
        );
    }
    // Scrape-time gauges.
    assert_eq!(doc.value("hsimd_workers", &[]), Some(2.0));
    assert_eq!(doc.value("hsimd_queue_capacity", &[]), Some(16.0));
    assert_eq!(doc.value("hsimd_cache_entries", &[]), Some(1.0));
    server.shutdown();
    server.join();
}

/// One raw HTTP GET against the NDJSON listener.
fn http_get(addr: &str, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    s.flush().unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read HTTP response");
    resp
}

#[test]
fn http_shim_serves_metrics_and_is_deterministic_when_idle() {
    let (server, client, _reg) = start(ServerConfig::default());
    // Produce some traffic, then let the daemon go idle.
    let _ = client.run(&RunSpec::new(KERNEL, "a100", 1, 32)).unwrap();
    let addr = server.local_addr().to_string();
    let first = http_get(&addr, "/metrics");
    let (head, body) = first.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{head}"
    );
    assert!(
        head.contains(&format!("Content-Length: {}", body.len())),
        "advertised length must match the body: {head}"
    );
    let doc = expo::parse(body).expect("HTTP body is a valid exposition");
    assert_eq!(
        doc.value("hsimd_runs_total", &[("device", "a100")]),
        Some(1.0)
    );
    // Idle daemon: repeated scrapes are byte-identical (no uptime-like
    // series, gauges are set not incremented, scrapes aren't counted).
    let second = http_get(&addr, "/metrics");
    assert_eq!(first, second, "idle scrapes must be byte-identical");
    // The NDJSON `metrics` op exports the same registry text.
    assert_eq!(client.metrics().unwrap(), *body.to_string());
    // Unknown paths 404 without killing the listener.
    let missing = http_get(&addr, "/other");
    assert!(missing.starts_with("HTTP/1.1 404 Not Found"), "{missing}");
    assert_eq!(
        parse(&client.ping().unwrap())
            .get("status")
            .and_then(Value::as_str),
        Some("ok")
    );
    server.shutdown();
    server.join();
}

#[test]
fn timings_flag_attaches_stage_timeline() {
    let (server, client, _reg) = start(ServerConfig::default());
    let mut spec = RunSpec::new(KERNEL, "rtx4090", 1, 64);
    spec.timings = true;
    let stage_names = |v: &Value| -> Vec<String> {
        v.get("timings")
            .and_then(Value::as_array)
            .expect("timings array")
            .iter()
            .map(|s| s.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    };
    let cold_line = client.run(&spec).unwrap();
    let cold = parse(&cold_line);
    assert_eq!(
        stage_names(&cold),
        ["parse", "assemble", "cache", "queue", "simulate", "render"],
        "cold run timeline"
    );
    // Stages are anchored and ordered: starts are monotone.
    let starts: Vec<u64> = cold
        .get("timings")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|s| s.get("start_us").and_then(Value::as_u64).unwrap())
        .collect();
    assert!(
        starts.windows(2).all(|w| w[0] <= w[1]),
        "starts: {starts:?}"
    );
    // A cache hit's timeline stops at the cache probe.
    let hit = parse(&client.run(&spec).unwrap());
    assert_eq!(stage_names(&hit), ["parse", "assemble", "cache"]);
    // The flag is envelope-only: payloads match the timing-free request.
    let mut plain = spec.clone();
    plain.timings = false;
    let plain_line = client.run(&plain).unwrap();
    assert!(!plain_line.contains("\"timings\""));
    assert_eq!(
        canonical_response(&plain_line),
        canonical_response(&cold_line)
    );
    // Error envelopes carry the partial timeline too.
    let mut bad = RunSpec::new("frobnicate %r1;\nexit;", "h800", 1, 32);
    bad.timings = true;
    let err = parse(&client.run(&bad).unwrap());
    assert_eq!(err.get("status").and_then(Value::as_str), Some("error"));
    assert_eq!(stage_names(&err), ["parse"]);
    server.shutdown();
    server.join();
}

#[test]
fn hsimd_queue_stage_visible_in_stats_and_metrics_after_traffic() {
    // A couple of no-cache runs through a single worker: queue-wait and
    // end-to-end histograms in `stats` must agree with the registry's
    // `_count` samples — they are the same atomics.
    let (server, client, reg) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut spec = RunSpec::new(KERNEL, "h800", 1, 32);
    spec.no_cache = true;
    for _ in 0..3 {
        let v = parse(&client.run(&spec).unwrap());
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    }
    let stats = client.stats().unwrap();
    let total: u64 = stats
        .get("result")
        .and_then(|r| r.get("latency_us"))
        .and_then(|l| l.get("total"))
        .and_then(Value::as_array)
        .expect("total histogram")
        .iter()
        .map(|b| b.get("count").and_then(Value::as_u64).unwrap())
        .sum();
    assert_eq!(total, 3);
    let doc = expo::parse(&reg.render()).unwrap();
    assert_eq!(
        doc.value("hsimd_request_duration_us_count", &[("path", "all")]),
        Some(3.0)
    );
    assert_eq!(
        doc.value("hsimd_cache_ops_total", &[("result", "bypass")]),
        Some(3.0)
    );
    server.shutdown();
    server.join();
}

#[test]
fn exposition_layout_is_sorted_help_type_samples() {
    // The whole layout a scraper relies on, in one exact render: families
    // sorted however registered, each `# HELP` then `# TYPE` then its
    // samples, no blank lines, a final newline.
    let reg = Registry::new();
    reg.gauge("b_depth", "B.", &[]).set(2);
    reg.counter("a_total", "A.", &[("k", "v")]).inc();
    assert_eq!(
        reg.render(),
        "# HELP a_total A.\n# TYPE a_total counter\na_total{k=\"v\"} 1\n\
         # HELP b_depth B.\n# TYPE b_depth gauge\nb_depth 2\n"
    );
}
