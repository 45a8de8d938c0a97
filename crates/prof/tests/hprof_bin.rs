//! The real `hprof` binary, one kernel per device: its `--json` report must
//! have the structure of the checked-in golden report — the same set of
//! key paths with the same JSON type at each — while values stay free, so
//! a recalibration does not churn the goldens but a renamed key, a missing
//! section or a type change fails.  Recording a Chrome trace of the same
//! run must not change the report.

use serde_json::Value;
use std::collections::BTreeMap;

#[path = "../../obs/tests/support/cli_contract.rs"]
mod cli_contract;

/// Flatten a JSON tree into `key path → type name`.  Array elements share
/// one path (`pcs[]`): their number is workload-dependent and free.
/// `null` counts as a number: it stands in for one in optional slots
/// (an unconstrained occupancy limit).
fn schema(node: &Value, path: String, out: &mut BTreeMap<String, &'static str>) {
    let kind = match node {
        Value::Object(fields) => {
            for (k, v) in fields {
                schema(v, format!("{path}.{k}"), out);
            }
            "object"
        }
        Value::Array(items) => {
            for v in items {
                schema(v, format!("{path}[]"), out);
            }
            "array"
        }
        Value::Bool(_) => "bool",
        Value::Str(_) => "string",
        _ => "number",
    };
    out.insert(path, kind);
}

fn schema_of(doc: &Value) -> BTreeMap<String, &'static str> {
    let mut out = BTreeMap::new();
    schema(doc, String::new(), &mut out);
    out
}

fn golden(dev: &str) -> Value {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    let text = std::fs::read_to_string(format!("{dir}/hprof_{dev}_pchase.json"));
    serde_json::from_str(&text.expect("golden report present")).expect("golden parses")
}

#[test]
fn hprof_json_has_the_golden_structure_on_every_device() {
    for dev in ["h800", "a100", "rtx4090"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hprof"))
            .args([dev, "pchase", "--json"])
            .output()
            .expect("spawn hprof");
        assert!(out.status.success(), "hprof {dev} pchase: {out:?}");
        let text = String::from_utf8(out.stdout).expect("hprof prints UTF-8");
        let report = serde_json::from_str(&text).expect("hprof prints JSON");
        assert_eq!(schema_of(&report), schema_of(&golden(dev)), "device {dev}");
    }
}

/// `doc` (an object) with `key` renamed, dropped, and retyped.
fn doctored(doc: &Value, key: &str) -> [Value; 3] {
    let fields = doc.as_object().expect("doctoring an object");
    let at = fields.iter().position(|(k, _)| k == key).expect("key");
    let mut renamed = fields.clone();
    renamed[at].0.push('x');
    let mut missing = fields.clone();
    missing.remove(at);
    let mut retyped = fields.clone();
    retyped[at].1 = Value::Bool(true);
    [renamed, missing, retyped].map(Value::Object)
}

#[test]
fn doctored_reports_fail_the_structure_comparison() {
    let gold = golden("h800");
    let want = schema_of(&gold);
    for key in ["cycles", "kernel_digest", "roofline", "pcs"] {
        for bad in doctored(&gold, key) {
            assert_ne!(schema_of(&bad), want, "doctored `{key}` must not pass");
        }
    }
}

#[test]
fn hprof_keeps_the_command_line_contract() {
    let bad: [&[&str]; 3] = [&["h900"], &["h800", "nope"], &["h800", "pchase", "x"]];
    let flags = ["DEVICE", "WORKLOAD", "--json", "--out", "--chrome-trace"];
    cli_contract::assert_contract(env!("CARGO_BIN_EXE_hprof"), &flags, &bad);
}

#[test]
fn hprof_reports_are_the_same_with_a_chrome_trace() {
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/hprof_chrome");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the trace directory");
    let plain = ["all", "pchase", "--json"];
    let trace = format!("{dir}/t.json");
    let traced = [&plain[..], &["--chrome-trace", &trace]].concat();
    let (code, want, err) = cli_contract::run(env!("CARGO_BIN_EXE_hprof"), &plain);
    assert_eq!(code, 0, "{err}");
    let (code, got, err) = cli_contract::run(env!("CARGO_BIN_EXE_hprof"), &traced);
    assert_eq!(code, 0, "{err}");
    assert!(got == want, "--chrome-trace changed the --json report");
    // Several reports: one timeline each, suffixed `-<device>-<workload>`.
    for dev in ["h800", "a100", "rtx4090"] {
        let path = format!("{dir}/t-{dev}-pchase.json");
        let text = std::fs::read_to_string(&path).expect("one trace per report");
        let doc: Value = serde_json::from_str(&text).expect("the trace is JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array);
        let spans = events.expect("a traceEvents array").iter();
        let spans = spans.filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"));
        assert!(spans.count() > 0, "{path} has no events");
    }
    assert!(!std::path::Path::new(&trace).exists(), "{trace}");
}

#[test]
fn hprof_reports_an_unwritable_chrome_trace() {
    // A regular file cannot hold a directory.
    let file = concat!(env!("CARGO_TARGET_TMPDIR"), "/hprof_trace_is_a_file");
    std::fs::write(file, "").expect("write a regular file");
    let path = format!("{file}/x.json");
    let args = ["h800", "stream", "--chrome-trace", &path];
    let (code, _, err) = cli_contract::run(env!("CARGO_BIN_EXE_hprof"), &args);
    assert_eq!(code, 1, "{err}");
    assert!(err.starts_with(&format!("hprof: {path}: ")), "{err}");
    assert!(!err.contains("panicked at"), "{err}");
}

#[test]
fn hprof_reports_an_unwritable_output_directory() {
    // A regular file cannot hold a directory.
    let file = concat!(env!("CARGO_TARGET_TMPDIR"), "/hprof_out_is_a_file");
    std::fs::write(file, "").expect("write a regular file");
    let dir = format!("{file}/reports");
    let (code, out, err) = cli_contract::run(env!("CARGO_BIN_EXE_hprof"), &["--out", &dir]);
    assert_eq!(code, 1, "{err}");
    assert!(
        out.is_empty() && err.starts_with(&format!("hprof: {dir}: ")),
        "{err}"
    );
    assert!(!err.contains("panicked at"), "{err}");
}
