//! End-to-end and concurrency tests for the simulation service.
//!
//! The three ISSUE-level guarantees exercised here:
//!   1. identical requests produce byte-identical response lines in
//!      canonical form (envelope minus the per-request `corr_id`), with
//!      repeats served from the result cache (visible only through the
//!      stats hit counter — never in the response itself);
//!   2. an over-full queue rejects with a well-formed `queue_full`
//!      error, and over-budget simulations abort with
//!      `deadline_exceeded`;
//!   3. graceful shutdown drains in-flight jobs before the daemon stops.

use hopper_obs::Registry;
use hopper_serve::protocol::ReportKind;
use hopper_serve::server::MAX_LINE;
use hopper_serve::{canonical_response, Client, RunSpec, Server, ServerConfig};
use serde_json::Value;
use std::sync::Arc;

/// A kernel cheap enough for tight test loops.
const SMALL_KERNEL: &str = "mov %r1, %tid.x;\nadd.s32 %r2, %r1, 7;\nexit;";

/// A kernel that spins ~300k cycles so jobs dwell in workers long
/// enough for queue-full and drain tests to observe them.
const SLOW_KERNEL: &str = "
    mov %r1, 0;
L:
    add.s32 %r1, %r1, 1;
    setp.lt.s32 %p0, %r1, 50000;
    @%p0 bra L;
    exit;
";

fn start(mut cfg: ServerConfig) -> (Server, Client) {
    // Each test daemon publishes into a private registry: tests in this
    // binary run concurrently in one process, and counters registered on
    // the global registry would share atomics across servers, breaking
    // the exact-value stats assertions below.
    cfg.registry = Some(Arc::new(Registry::new()));
    let server = Server::start(cfg).expect("bind ephemeral port");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response JSON ({e}): {line}"))
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(|s| s.as_str()).expect("status")
}

fn error_kind(v: &Value) -> &str {
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .expect("error.kind")
}

#[test]
fn run_succeeds_on_all_three_devices() {
    let (server, client) = start(ServerConfig::default());
    for device in ["h800", "a100", "rtx4090"] {
        let line = client
            .run(&RunSpec::new(SMALL_KERNEL, device, 2, 64))
            .unwrap();
        let v = parse(&line);
        assert_eq!(status(&v), "ok", "device {device}: {line}");
        let digest = v.get("digest").and_then(|d| d.as_str()).expect("digest");
        assert_eq!(digest.len(), 16, "digest must be 16 hex chars");
        let cycles = v
            .get("result")
            .and_then(|r| r.get("cycles"))
            .and_then(|c| c.as_u64())
            .expect("result.cycles");
        assert!(cycles > 0, "device {device} reported zero cycles");
    }
    server.shutdown();
    server.join();
}

#[test]
fn repeat_submissions_are_byte_identical_and_cached() {
    let (server, client) = start(ServerConfig::default());
    let mut spec = RunSpec::new(SMALL_KERNEL, "h800", 4, 128);
    spec.id = Some("repeat".into());
    let cold = client.run(&spec).unwrap();
    assert_eq!(status(&parse(&cold)), "ok", "{cold}");
    for _ in 0..3 {
        let again = client.run(&spec).unwrap();
        assert_eq!(
            canonical_response(&again),
            canonical_response(&cold),
            "cached response must be byte-identical in canonical form"
        );
    }
    let stats = client.stats().unwrap();
    let cache = stats
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache");
    assert_eq!(cache.get("hits").and_then(|h| h.as_u64()), Some(3));
    assert!(cache.get("misses").and_then(|m| m.as_u64()).unwrap() >= 1);
    server.shutdown();
    server.join();
}

#[test]
fn no_cache_requests_bypass_but_match_bytes() {
    let (server, client) = start(ServerConfig::default());
    let spec = RunSpec::new(SMALL_KERNEL, "rtx4090", 2, 96);
    let first = client.run(&spec).unwrap();
    let mut bypass = spec.clone();
    bypass.no_cache = true;
    let second = client.run(&bypass).unwrap();
    // Different request (no_cache) but same simulation: determinism means
    // the canonical payloads still match byte for byte.
    assert_eq!(canonical_response(&first), canonical_response(&second));
    let stats = client.stats().unwrap();
    let hits = stats
        .get("result")
        .and_then(|r| r.get("cache"))
        .and_then(|c| c.get("hits"))
        .and_then(|h| h.as_u64());
    assert_eq!(hits, Some(0), "no_cache must not touch the cache");
    server.shutdown();
    server.join();
}

/// `sim_threads` once chose a per-request engine worker count; it never
/// changed a result, and the daemon now ignores it like any unknown key.
#[test]
fn stale_sim_threads_key_is_ignored() {
    let (server, client) = start(ServerConfig::default());
    let mut spec = RunSpec::new(SMALL_KERNEL, "h800", 4, 128);
    spec.no_cache = true;
    let line = spec.to_request_line();
    let plain = client.send_line(&line).unwrap();
    assert_eq!(status(&parse(&plain)), "ok", "{plain}");
    for value in ["4", "\"x\""] {
        let stale = format!("{{\"sim_threads\":{value},{}", &line[1..]);
        let answer = client.send_line(&stale).unwrap();
        assert_eq!(
            canonical_response(&answer),
            canonical_response(&plain),
            "sim_threads {value}"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn profile_report_carries_matching_digest() {
    let (server, client) = start(ServerConfig::default());
    let mut spec = RunSpec::new(SMALL_KERNEL, "h800", 2, 64);
    spec.report = ReportKind::Profile;
    spec.name = Some("svc_profile".into());
    let line = client.run(&spec).unwrap();
    let v = parse(&line);
    assert_eq!(status(&v), "ok", "{line}");
    let envelope_digest = v
        .get("digest")
        .and_then(|d| d.as_str())
        .unwrap()
        .to_string();
    let report = v.get("result").expect("profile payload");
    assert_eq!(
        report.get("kernel_digest").and_then(|d| d.as_str()),
        Some(envelope_digest.as_str()),
        "report digest must match the envelope digest"
    );
    assert_eq!(
        report.get("kernel").and_then(|k| k.as_str()),
        Some("svc_profile")
    );
    assert!(
        report.get("stalls").is_some(),
        "profile payload has sections"
    );
    server.shutdown();
    server.join();
}

#[test]
fn structured_errors_for_bad_inputs() {
    let (server, client) = start(ServerConfig::default());
    // Unknown device.
    let line = client
        .run(&RunSpec::new(SMALL_KERNEL, "mi300", 1, 32))
        .unwrap();
    let v = parse(&line);
    assert_eq!(status(&v), "error");
    assert_eq!(error_kind(&v), "unknown_device");
    // Assembly failure (id echoed back in the error envelope).
    let mut bad = RunSpec::new("frobnicate %r1;\nexit;", "h800", 1, 32);
    bad.id = Some("bad-asm".into());
    let v = parse(&client.run(&bad).unwrap());
    assert_eq!(status(&v), "error");
    assert_eq!(error_kind(&v), "asm_error");
    assert_eq!(v.get("id").and_then(|i| i.as_str()), Some("bad-asm"));
    // Malformed JSON.
    let v = parse(&client.send_line("this is not json").unwrap());
    assert_eq!(error_kind(&v), "bad_request");
    // Ping still answers.
    let v = parse(&client.ping().unwrap());
    assert_eq!(status(&v), "ok");
    assert_eq!(v.get("result").and_then(|r| r.as_str()), Some("pong"));
    server.shutdown();
    server.join();
}

/// Kernels whose operands the engine cannot index used to assemble, kill
/// the only worker with an index panic, and leave the daemon answering
/// `internal` forever.  Each is now refused up front (or, where the
/// implicit pair register merely widens the footprint, runs), and the
/// one worker keeps serving.
#[test]
fn out_of_range_operands_never_reach_the_worker() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    for bad in [
        "mov.s32 %r300, 1;\nexit;",
        "ld.global.v4 %r255, [%r0];\nexit;",
        "st.global.v4 [%r0], %r255;\nexit;",
        "sel %r2, %p9, 1, 2;\nexit;",
        "setp.lt.s32 %p200, %r1, 4;\nexit;",
        "bra END;\nexit;\nEND:",
    ] {
        let v = parse(&client.run(&RunSpec::new(bad, "h800", 1, 32)).unwrap());
        assert_eq!(status(&v), "error", "{bad}");
        assert_eq!(error_kind(&v), "asm_error", "{bad}");
    }
    let mut many = RunSpec::new(SMALL_KERNEL, "h800", 1, 32);
    many.params = vec![0; 300];
    let v = parse(&client.run(&many).unwrap());
    assert_eq!(error_kind(&v), "launch_error");
    for good in [
        "ld.global.v4 %r15, [%r0];\nst.global.v4 [%r0], %r15;\nexit;",
        include_str!("../../../examples/kernels/saxpy.asm"),
    ] {
        let line = client.run(&RunSpec::new(good, "h800", 2, 64)).unwrap();
        assert_eq!(status(&parse(&line)), "ok", "{line}");
    }
    server.shutdown();
    server.join();
}

/// A kernel fault (here a shared load through a wild pointer, then a
/// divergent branch) used to be an engine panic that cost the daemon its
/// worker; it is a typed `launch_error` now, and the one worker keeps
/// serving.
#[test]
fn kernel_faults_are_launch_errors_and_the_worker_survives() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let wild = "mov.s32 %r2, 1048576;\nld.shared.b32 %r4, [%r2];\nexit;";
    let divergent = "mov %r1, %tid.x;\nsetp.lt.s32 %p0, %r1, 7;\n@%p0 bra END;\n\
                     add.s32 %r1, %r1, 1;\nEND: exit;";
    for (text, fault) in [(wild, "pc 1"), (divergent, "pc 2")] {
        let line = client.run(&RunSpec::new(text, "h800", 2, 64)).unwrap();
        let v = parse(&line);
        assert_eq!(status(&v), "error", "{line}");
        assert_eq!(error_kind(&v), "launch_error", "{line}");
        assert!(line.contains(&format!("kernel fault at {fault}")), "{line}");
    }
    let saxpy = include_str!("../../../examples/kernels/saxpy.asm");
    let line = client.run(&RunSpec::new(saxpy, "h800", 2, 64)).unwrap();
    assert_eq!(status(&parse(&line)), "ok", "{line}");
    server.shutdown();
    server.join();
}

/// A request line without a newline used to grow the daemon for as long
/// as the client kept sending.  One byte over `MAX_LINE` is answered with
/// one `bad_request` line and the connection closes; the daemon serves on.
#[test]
fn an_over_long_request_line_is_refused_and_the_daemon_serves_on() {
    use std::io::{Read, Write};
    let (server, client) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A daemon that keeps buffering never answers: fail, do not hang.
    let patience = std::time::Duration::from_secs(60);
    conn.set_read_timeout(Some(patience)).unwrap();
    conn.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply)
        .expect("one answer, then EOF");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "{reply}");
    assert_eq!(error_kind(&parse(lines[0])), "bad_request", "{reply}");
    assert_eq!(status(&parse(&client.ping().unwrap())), "ok");
    let saxpy = include_str!("../../../examples/kernels/saxpy.asm");
    let line = client.run(&RunSpec::new(saxpy, "h800", 2, 64)).unwrap();
    assert_eq!(status(&parse(&line)), "ok", "{line}");
    server.shutdown();
    server.join();
}

#[test]
fn tight_cycle_budget_returns_deadline_exceeded() {
    let (server, client) = start(ServerConfig::default());
    let mut spec = RunSpec::new(SLOW_KERNEL, "h800", 4, 128);
    spec.max_cycles = Some(10_000);
    let v = parse(&client.run(&spec).unwrap());
    assert_eq!(status(&v), "error");
    assert_eq!(error_kind(&v), "deadline_exceeded");
    let stats = client.stats().unwrap();
    let dl = stats
        .get("result")
        .and_then(|r| r.get("requests"))
        .and_then(|q| q.get("deadline_exceeded"))
        .and_then(|d| d.as_u64());
    assert_eq!(dl, Some(1));
    server.shutdown();
    server.join();
}

#[test]
fn wall_deadline_aborts_long_simulation() {
    let (server, client) = start(ServerConfig::default());
    // A huge grid of slow blocks would simulate for many seconds; a
    // 50 ms wall deadline must cut it short with a structured error.
    let mut spec = RunSpec::new(SLOW_KERNEL, "h800", 200_000, 128);
    spec.deadline_ms = Some(50);
    let v = parse(&client.run(&spec).unwrap());
    assert_eq!(status(&v), "error", "{v}");
    assert_eq!(error_kind(&v), "deadline_exceeded");
    let msg = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(|m| m.as_str())
        .unwrap();
    assert!(msg.contains("wall deadline"), "message: {msg}");
    server.shutdown();
    server.join();
}

#[test]
fn full_queue_rejects_with_wellformed_error() {
    // One worker and a one-slot queue: with one job running and one
    // queued, further submissions must be rejected immediately.
    let (server, client) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        cache_cap: 0,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut handles = Vec::new();
    for i in 0..8 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut spec = RunSpec::new(SLOW_KERNEL, "h800", 32, 128);
            spec.id = Some(format!("q{i}"));
            spec.no_cache = true;
            Client::new(addr).run(&spec).unwrap()
        }));
    }
    let mut ok = 0usize;
    let mut rejected = 0usize;
    for h in handles {
        let v = parse(&h.join().unwrap());
        match status(&v) {
            "ok" => ok += 1,
            "error" => {
                assert_eq!(error_kind(&v), "queue_full");
                let msg = v
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(|m| m.as_str())
                    .unwrap();
                assert!(msg.contains("queue full"), "message: {msg}");
                // The id must be echoed so clients can correlate.
                assert!(v
                    .get("id")
                    .and_then(|i| i.as_str())
                    .unwrap()
                    .starts_with('q'));
                rejected += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(ok >= 1, "at least the running job must complete");
    assert!(rejected >= 1, "8 jobs into a 1+1 pipeline must overflow");
    let stats = client.stats().unwrap();
    let rej = stats
        .get("result")
        .and_then(|r| r.get("queue"))
        .and_then(|q| q.get("rejected"))
        .and_then(|n| n.as_u64())
        .unwrap();
    assert_eq!(rej as usize, rejected);
    server.shutdown();
    server.join();
}

#[test]
fn concurrent_identical_requests_all_match() {
    let (server, _client) = start(ServerConfig {
        workers: 4,
        queue_cap: 64,
        ..ServerConfig::default()
    });
    let addr = Arc::new(server.local_addr().to_string());
    let mut handles = Vec::new();
    for _ in 0..12 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            Client::new(addr.as_str())
                .run(&RunSpec::new(SMALL_KERNEL, "a100", 4, 128))
                .unwrap()
        }));
    }
    let lines: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(status(&parse(&lines[0])), "ok", "{}", lines[0]);
    let first = canonical_response(&lines[0]);
    for line in &lines[1..] {
        assert_eq!(
            canonical_response(line),
            first,
            "concurrent identical requests diverged"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    // Submit two slow jobs: one runs, one queues.
    let mut handles = Vec::new();
    for i in 0..2 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut spec = RunSpec::new(SLOW_KERNEL, "h800", 64, 128);
            spec.id = Some(format!("drain{i}"));
            Client::new(addr).run(&spec).unwrap()
        }));
    }
    // Give them time to land in the worker/queue, then shut down.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let bye = parse(&client.shutdown().unwrap());
    assert_eq!(status(&bye), "ok");
    assert_eq!(bye.get("result").and_then(|r| r.as_str()), Some("draining"));
    // Both in-flight jobs still complete successfully.
    for h in handles {
        let v = parse(&h.join().unwrap());
        assert_eq!(status(&v), "ok", "in-flight job dropped on shutdown: {v}");
    }
    server.join();
    // The daemon is gone: new connections are refused.
    assert!(Client::new(addr).ping().is_err());
}

#[test]
fn stats_snapshot_has_all_sections() {
    let (server, client) = start(ServerConfig::default());
    let _ = client
        .run(&RunSpec::new(SMALL_KERNEL, "h800", 1, 32))
        .unwrap();
    let v = client.stats().unwrap();
    assert_eq!(status(&v), "ok");
    let snap = v.get("result").expect("stats payload");
    for section in ["cache", "latency_us", "queue", "requests", "workers"] {
        assert!(snap.get(section).is_some(), "missing section {section}");
    }
    assert_eq!(
        snap.get("requests")
            .and_then(|r| r.get("total"))
            .and_then(|t| t.as_u64()),
        Some(1)
    );
    assert_eq!(
        snap.get("workers")
            .and_then(|w| w.get("count"))
            .and_then(|c| c.as_u64()),
        Some(2)
    );
    let total_hist = snap
        .get("latency_us")
        .and_then(|l| l.get("total"))
        .and_then(|t| t.as_array())
        .expect("total latency histogram");
    let observed: u64 = total_hist
        .iter()
        .map(|b| b.get("count").and_then(|c| c.as_u64()).unwrap())
        .sum();
    assert_eq!(observed, 1, "one run observed end-to-end");
    server.shutdown();
    server.join();
}
