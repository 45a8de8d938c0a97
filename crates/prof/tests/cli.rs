//! `profile_kernel`'s command line, now served by `hprof`: the
//! `DEVICE KERNEL [--chrome-trace PATH]` form keeps its usage errors, and
//! one report writes its timeline at exactly PATH.

use serde_json::Value;

#[path = "../../obs/tests/support/cli_contract.rs"]
mod cli_contract;

#[test]
fn profile_kernel_keeps_the_command_line_contract() {
    let flags = ["DEVICE", "WORKLOAD", "--chrome-trace"];
    let bad: [&[&str]; 4] = [
        &["h900"],
        &["h800", "nope"],
        &["h800", "stream", "x"],
        &["--block", "x"],
    ];
    let hprof = env!("CARGO_BIN_EXE_hprof");
    cli_contract::assert_contract(hprof, &flags, &bad);
    // One report: the timeline goes to PATH itself, with no suffix.
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/profile_kernel_stream.json");
    let _ = std::fs::remove_file(path);
    let args = ["h800", "stream", "--chrome-trace", path];
    let (code, out, err) = cli_contract::run(hprof, &args);
    assert_eq!(code, 0, "{err}");
    assert!(!out.is_empty(), "the report still goes to stdout");
    let text = std::fs::read_to_string(path).expect("the trace is at PATH");
    let doc: Value = serde_json::from_str(&text).expect("the trace is JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array);
    assert!(!events.expect("a traceEvents array").is_empty(), "{path}");
}
