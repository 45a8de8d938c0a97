//! The real `htrace` binary over the checked-in golden trace: `info` must
//! print the trace header as the library parses it, and `replay` the one
//! shared stats rendering of an in-process replay, byte for byte — the
//! same payload the serve daemon answers `report=stats` with.

use hopper_replay::Trace;
use hopper_sim::{DeviceConfig, Gpu};
use serde_json::json;

#[path = "../../obs/tests/support/cli_contract.rs"]
mod cli_contract;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/histogram.htrace");

fn htrace(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_htrace"))
        .args(args)
        .output()
        .expect("spawn htrace");
    assert!(out.status.success(), "htrace {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("htrace prints UTF-8")
}

#[test]
fn info_and_replay_print_what_the_library_computes() {
    let trace = Trace::parse(&std::fs::read(GOLDEN).expect("golden trace present"));
    let trace = trace.expect("golden trace parses");
    let h = &trace.header;
    assert!(h.digest_hex.len() == 16 && u64::from_str_radix(&h.digest_hex, 16).is_ok());
    let want = json!({
        "block": h.block, "cluster": h.cluster, "device": h.device, "grid": h.grid,
        "kernel": h.kernel_name, "kernel_digest": h.digest_hex, "params": h.params,
        "records": trace.total_records(), "version": h.version, "warps": trace.warp_count(),
    });
    let info = serde_json::from_str(&htrace(&["info", GOLDEN])).expect("info prints JSON");
    assert_eq!(want, info, "keys sorted, values from the header");

    let kernel = trace.validate().expect("golden trace validates");
    let stats = Gpu::new(DeviceConfig::h800())
        .launch_replayed(&kernel, &trace.launch(), &trace.source)
        .expect("golden trace replays");
    let want = serde_json::to_string_pretty(&hopper_prof::run_stats_to_json(&stats)).unwrap();
    assert_eq!(htrace(&["replay", GOLDEN]), format!("{want}\n"));
}

#[test]
fn htrace_keeps_the_command_line_contract() {
    let asm = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/kernels/saxpy.asm"
    );
    let flags = [
        "capture",
        "info",
        "replay",
        "--device",
        "--grid",
        "--block",
        "--cluster",
        "--param",
        "--name",
        "--binary",
        "-o, --out",
        "--profile",
    ];
    let capture = [
        "capture",
        "--device",
        "h800",
        "--grid",
        "1",
        "-o",
        "/dev/null",
        asm,
    ];
    let bad: [&[&str]; 6] = [
        &[&capture[..], &["--block", "x"]].concat(),
        &capture,
        &[&capture[..], &["--block", "32", "--device", "h900"]].concat(),
        &["--profile", "replay", GOLDEN],
        &["info", GOLDEN, GOLDEN],
        &["trace"],
    ];
    cli_contract::assert_contract(env!("CARGO_BIN_EXE_htrace"), &flags, &bad);
}
