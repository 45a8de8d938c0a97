//! The real binaries over real TCP and files: one `hsimd` on an ephemeral
//! port, driven by `hsim-client`, `hload` and `hsim-top` as a user would.
//! Expected payloads are computed in-process by the library calls the
//! daemon makes and expected envelopes are rendered by `protocol`, so
//! nothing here re-types a key list.

use hopper_infer::{InferBudget, InferScenario};
use hopper_obs::{expo, Registry};
use hopper_replay::Trace;
use hopper_serve::protocol::{error_response, ok_response, run_stats_to_json, ProtoError};
use hopper_serve::server::device_config;
use hopper_serve::{canonical_response, stats::ServeStats};
use hopper_sim::{Gpu, Launch};
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

#[path = "../../obs/tests/support/cli_contract.rs"]
mod cli_contract;

/// How long any one step of the daemon's life may take on a loaded host.
const DEADLINE: Duration = Duration::from_secs(60);
const CRATES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
const SCENARIO: &str =
    r#"{"model":"llama2-7b","precision":"fp16","qps":200.0,"requests":24,"seed":7}"#;

/// A spawned `hsimd`; killed on drop so a failed assertion leaves no
/// process behind.
struct Daemon {
    child: Child,
    stdout: Receiver<String>,
    addr: String,
}

impl Daemon {
    fn spawn() -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hsimd"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hsimd");
        let pipe = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (tx, stdout) = mpsc::channel();
        std::thread::spawn(move || {
            pipe.lines()
                .map_while(Result::ok)
                .try_for_each(|l| tx.send(l))
        });
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        let first = daemon.stdout.recv_timeout(DEADLINE).expect("hsimd start");
        let addr = first.strip_prefix("hsimd listening on ");
        daemon.addr = addr.expect("listening line first").to_string();
        daemon
    }

    /// Run one client binary against this daemon: `(stdout, exit code)`.
    fn client(&self, exe: &str, args: &[&str], more: &[&str]) -> (String, i32) {
        let out = Command::new(exe)
            .args(["--addr", &self.addr])
            .args(args)
            .args(more)
            .stderr(Stdio::null())
            .output()
            .expect("spawn client");
        let text = String::from_utf8(out.stdout).expect("UTF-8 output");
        (text, out.status.code().expect("exit code"))
    }

    /// `hsim-client ARGS MORE`: one response line, exit status `code`.
    fn request(&self, code: i32, args: &[&str], more: &[&str]) -> String {
        let (text, got) = self.client(env!("CARGO_BIN_EXE_hsim-client"), args, more);
        assert_eq!(got, code, "hsim-client {args:?} {more:?}: {text}");
        let line = text.strip_suffix('\n').expect("newline-terminated");
        assert!(!line.contains('\n'), "one line per response: {text}");
        line.to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("bad JSON ({e}): {text}"))
}

fn keys(v: &Value) -> Vec<&str> {
    let fields = v.as_object().expect("an object");
    fields.iter().map(|(k, _)| k.as_str()).collect()
}

/// Does `line` carry `template`'s envelope?  Canonical form compares every
/// field but the two per-request ones, bytes and key order included; those
/// two must sit where `protocol` puts them.
fn same_envelope(line: &str, template: &str) -> bool {
    canonical_response(line) == canonical_response(template)
        && keys(&parse(line)) == keys(&parse(template))
}

/// An `ok` line must be the envelope `protocol` renders around the
/// in-process `payload` (and the line's own stage timeline, when asked
/// for), with a `pid-seq` hex correlation id.
fn assert_ok(line: &str, id: Option<&str>, digest: &str, payload: Value, timings: bool) {
    let resp = parse(line);
    let stages = resp.get("timings").cloned();
    assert_eq!(stages.is_some(), timings, "{line}");
    let id = id.map(str::to_string);
    let template = ok_response(&id, "0-0", Some(digest), payload, stages);
    assert!(same_envelope(line, &template), "{line}\nvs {template}");
    let corr = resp.get("corr_id").and_then(Value::as_str);
    let (pid, seq) = corr.and_then(|c| c.split_once('-')).expect("pid-seq");
    assert!(u64::from_str_radix(pid, 16).is_ok() && u64::from_str_radix(seq, 16).is_ok());
}

/// An error line must be the envelope `protocol` renders for `kind`
/// around the daemon's own (non-empty) message.
fn assert_error(line: &str, kind: &'static str) {
    let resp = parse(line);
    let message = resp.get("error").and_then(|e| e.get("message"));
    let message = message.and_then(Value::as_str).expect("error.message");
    assert!(!message.is_empty(), "{line}");
    let template = error_response(&None, "0-0", &ProtoError::new(kind, message), None);
    assert!(same_envelope(line, &template), "{line}\nvs {template}");
}

fn scratch_file(name: &str, content: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bins_smoke");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join(name), content).expect("write scratch file");
    dir.join(name).to_str().expect("UTF-8 path").to_string()
}

fn infer_payload(qps: f64) -> (InferScenario, Value) {
    let mut scn = InferScenario::parse(&parse(SCENARIO)).expect("scenario parses");
    scn.qps = qps;
    let dev = device_config("h800").unwrap();
    let report = hopper_infer::run(&scn, &dev, &InferBudget::default(), None).unwrap();
    (scn, report.to_json())
}

#[test]
fn real_binaries_round_trip_through_one_daemon() {
    let mut daemon = Daemon::spawn();
    let asm = format!("{CRATES}/../examples/kernels/histogram.asm");
    let text = std::fs::read_to_string(&asm).expect("example kernel present");
    let kernel = hopper_isa::asm::assemble_named(&text, "kernel").expect("kernel assembles");
    let digest = kernel.digest_hex();
    let mut launch = Launch::new(2, 128);
    launch.params = vec![hopper_sim::GlobalMem::BASE];
    let base = hopper_sim::GlobalMem::BASE.to_string();
    let run = [
        "run", &asm, "--grid", "2", "--block", "128", "--param", &base,
    ];
    let stats_on = |dev: &str| {
        let stats = Gpu::new(device_config(dev).unwrap()).launch(&kernel, &launch);
        run_stats_to_json(&stats.unwrap())
    };

    // Stats on every device, client id echoed; a repeat is answered from
    // the cache with the same payload, plus the stage timeline on request.
    for dev in ["h800", "a100", "rtx4090"] {
        let id = format!("smoke-{dev}");
        let line = daemon.request(0, &run, &["--device", dev, "--id", &id]);
        assert_ok(&line, Some(&id), &digest, stats_on(dev), false);
    }
    let timed = daemon.request(0, &run, &["--timings"]);
    assert_ok(&timed, None, &digest, stats_on("h800"), true);

    // Profile report.
    let line = daemon.request(0, &run, &["--report", "profile"]);
    let mut gpu = Gpu::new(device_config("h800").unwrap());
    let report = hopper_prof::profile_kernel(&mut gpu, &kernel, &launch).unwrap();
    assert_eq!(report.kernel_digest, digest);
    assert_ok(&line, None, &digest, report.to_json(), false);

    // The golden trace, replayed by the daemon.
    let golden = format!("{CRATES}/replay/golden/histogram.htrace");
    let line = daemon.request(0, &["run", "--trace", &golden], &[]);
    let trace = Trace::parse(&std::fs::read(&golden).unwrap()).unwrap();
    let traced = trace.validate().unwrap();
    let mut gpu = Gpu::new(device_config(&trace.header.device).unwrap());
    let stats = gpu.launch_replayed(&traced, &trace.launch(), &trace.source);
    let payload = run_stats_to_json(&stats.unwrap());
    assert_ok(&line, None, &traced.digest_hex(), payload, false);

    // A serving scenario: cold and cached agree, both equal the library.
    let scn_file = scratch_file("infer.json", SCENARIO);
    let infer = ["run", "--report", "infer", "--device", "h800", "--scenario"];
    let cold = daemon.request(0, &infer, &[&scn_file]);
    let (scn, payload) = infer_payload(200.0);
    let scn_digest = hopper_replay::bytes_digest(scn.canonical_json().as_bytes());
    assert_ok(&cold, None, &format!("{scn_digest:016x}"), payload, false);
    let again = daemon.request(0, &infer, &[&scn_file]);
    assert_eq!(canonical_response(&again), canonical_response(&cold));

    // A one-iteration budget is a deterministic deadline error (distinct
    // seed: a cache hit would answer without consulting the budget), and
    // an invalid scenario is refused before it reaches the queue.
    let tight = scratch_file("infer_tight.json", &SCENARIO.replace(":7}", ":8}"));
    let line = daemon.request(1, &infer, &[&tight, "--max-cycles", "1"]);
    assert_error(&line, "deadline_exceeded");
    let bad = scratch_file("infer_bad.json", r#"{"model":"gpt-5"}"#);
    assert_error(&daemon.request(1, &infer, &[&bad]), "bad_request");
    // A rate so small every arrival time overflows is refused the same
    // way; the hload sweep below is the next request served.
    let tiny = scratch_file("infer_tiny_qps.json", r#"{"qps":5e-324}"#);
    assert_error(&daemon.request(1, &infer, &[&tiny]), "bad_request");

    // hload: a two-point sweep is the library's report at each rate.
    let sweep = ["--device", "h800", "--scenario", &scn_file];
    let (sweep, code) = daemon.client(env!("CARGO_BIN_EXE_hload"), &sweep, &["--qps", "100,200"]);
    assert_eq!(code, 0, "{sweep}");
    let point = |qps: f64| json!({"qps": qps, "report": infer_payload(qps).1});
    let points = vec![point(100.0), point(200.0)];
    let want = json!({"device": "h800", "points": points, "scenario": scn.to_value()});
    assert_eq!(parse(&sweep), want);

    // Metrics: the op and the HTTP shim export the same bytes, the text
    // parses, carries every family the daemon declares at start-up, and
    // counted the traffic above.
    let (op_text, code) = daemon.client(env!("CARGO_BIN_EXE_hsim-client"), &["metrics"], &[]);
    assert_eq!(code, 0);
    let mut http = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    write!(http, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut resp = String::new();
    http.read_to_string(&mut resp).expect("read HTTP response");
    let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(op_text, body, "metrics op and GET /metrics must agree");
    let doc = expo::parse(&op_text).expect("exposition parses");
    let declared = Registry::new();
    ServeStats::registered(&declared);
    for family in expo::parse(&declared.render()).unwrap().types.keys() {
        assert!(doc.types.contains_key(family), "{family} missing");
    }
    for dev in ["h800", "a100", "rtx4090"] {
        let runs = doc.value("hsimd_runs_total", &[("device", dev)]);
        assert!(runs >= Some(1.0), "{dev}: {runs:?}");
    }
    assert_eq!(doc.value("hsimd_deadline_exceeded_total", &[]), Some(1.0));
    // Hits: the timed repeat, the infer repeat, hload's 200 qps point.
    let hits = doc.value("hsimd_cache_ops_total", &[("result", "hit")]);
    assert_eq!(hits, Some(3.0));

    // hsim-top renders one frame with the queue line and the infer panel.
    let (frame, code) = daemon.client(env!("CARGO_BIN_EXE_hsim-top"), &["--once"], &[]);
    assert_eq!(code, 0, "{frame}");
    assert!(frame.contains("\nqueue ") && frame.contains("\ninfer "));

    // Clean shutdown: the op is acknowledged, the daemon drains and exits 0.
    daemon.request(0, &["shutdown"], &[]);
    let last = daemon.stdout.recv_timeout(DEADLINE).expect("exit line");
    assert_eq!(last, "hsimd: drained and stopped");
    assert!(daemon.child.wait().expect("wait hsimd").success());
}

#[test]
fn hload_refuses_a_rate_below_the_floor() {
    for qps in ["0", "5e-324", "NaN"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hload"))
            .args(["--local", "--requests", "4", "--qps", qps])
            .output()
            .expect("spawn hload");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--qps {qps}: {stderr}");
        assert!(out.stdout.is_empty(), "--qps {qps}: no document");
        let line = stderr.lines().next().expect("an error line");
        let event = parse(line);
        assert_eq!(event.get("level").and_then(Value::as_str), Some("error"));
        let detail = event.get("detail").and_then(Value::as_str).unwrap_or("");
        assert!(detail.contains("qps must be finite and at least"), "{line}");
        assert!(!stderr.contains("panicked at"), "{stderr}");
    }
}

#[test]
fn every_serve_bin_keeps_the_command_line_contract() {
    let asm = format!("{CRATES}/../examples/kernels/saxpy.asm");
    let asm = asm.as_str();
    cli_contract::assert_contract(
        env!("CARGO_BIN_EXE_hsimd"),
        &[
            "--addr",
            "--workers",
            "--queue-cap",
            "--cache-cap",
            "--deadline-ms",
            "--max-cycles",
        ],
        &[&["--workers", "x"], &["--block", "x"]],
    );
    let run_flags = [
        "--addr",
        "--pretty",
        "ping",
        "stats",
        "metrics",
        "shutdown",
        "run",
        "--trace",
        "--scenario",
        "--device",
        "--grid",
        "--block",
        "--cluster",
        "--param",
        "--report",
        "--name",
        "--id",
        "--max-cycles",
        "--deadline-ms",
        "--no-cache",
        "--timings",
    ];
    // A run option before `run`, and a grid that does not fit a u32 (it
    // used to wrap to 1 and run): usage errors before any connection.
    let grid = ["run", asm, "--grid", "4294967297"];
    let bad: [&[&str]; 4] = [
        &["run", asm, "--block", "x"],
        &["--grid", "2", "run", asm],
        &grid,
        &[],
    ];
    cli_contract::assert_contract(env!("CARGO_BIN_EXE_hsim-client"), &run_flags, &bad);
    cli_contract::assert_contract(
        env!("CARGO_BIN_EXE_hsim-top"),
        &["--addr", "--interval-ms", "--frames", "--once"],
        &[&["--frames", "-1"], &["--block", "x"]],
    );
    let hload_flags = [
        "--addr",
        "--local",
        "--device",
        "--scenario",
        "--model",
        "--precision",
        "--mode",
        "--tp",
        "--requests",
        "--seed",
        "--max-seqs",
        "--qps",
        "--pretty",
    ];
    let bad: [&[&str]; 3] = [
        &["--local", "--device", "h900"],
        &["--tp", "x"],
        &["--block", "x"],
    ];
    cli_contract::assert_contract(env!("CARGO_BIN_EXE_hload"), &hload_flags, &bad);
}

#[test]
fn doctored_envelopes_fail_the_comparison() {
    let ok = ok_response(&None, "0-0", Some("0"), Value::Object(vec![]), None);
    let err = error_response(&None, "0-0", &ProtoError::new("internal", "m"), None);
    assert!(same_envelope(&ok, &ok) && same_envelope(&err, &err));
    // In turn: a renamed key, a missing section, a type change, two keys
    // out of order, a per-request key out of place; then the error object.
    for (line, from, to) in [
        (&ok, r#""digest":"#, r#""hash":"#),
        (&ok, r#""result":{},"#, ""),
        (&ok, r#""status":"ok""#, r#""status":true"#),
        (&ok, r#""id":null,"result":{}"#, r#""result":{},"id":null"#),
        (
            &ok,
            r#""corr_id":"0-0","digest":"0""#,
            r#""digest":"0","corr_id":"0-0""#,
        ),
        (&err, r#""kind":"#, r#""type":"#),
        (&err, r#","message":"m""#, ""),
        (
            &err,
            r#"{"kind":"internal","message":"m"}"#,
            r#""internal""#,
        ),
    ] {
        let bad = line.replace(from, to);
        assert!(bad != *line && !same_envelope(&bad, line), "{bad} passes");
    }
}
