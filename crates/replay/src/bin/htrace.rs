//! `htrace` — capture, inspect and replay simulator traces
//! (`htrace --help` lists the commands and their flags).
//!
//! `capture` assembles the kernel, runs it with instruction-event capture
//! and writes the trace; the run's stats JSON goes to stdout (identical
//! to an uncaptured run's — capture is transparent).  `info` prints the
//! header as deterministic JSON.  `replay` re-runs the trace through the
//! full timing model and prints the same stats JSON (bitwise-identical to
//! the capture output), or with `--profile` the full sectioned
//! `hopper-prof` report — same schema, same `kernel_digest`, as a
//! functional profile of the same kernel.
//!
//! Device memory is not snapshotted: a replay needs no input buffers (addresses come from the
//! capture), which is exactly what makes traces portable.

use hopper_obs::cli::{Arg, Args, Flag, FromArg, Spec};
use hopper_obs::json::obj;
use hopper_prof::run_stats_to_json;
use hopper_replay::Trace;
use hopper_sim::{DeviceConfig, Gpu, Launch, Replay, Run};
use serde_json::Value;

const TRACE: &[Arg] = &[Arg::required("TRACE", "trace file (text or binary)")];

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "htrace",
    about: "capture, inspect and replay simulator traces",
    commands: &[
        Spec {
            name: "capture",
            about: "run KERNEL with capture, write its trace, print the run's stats JSON",
            args: &[Arg::required("KERNEL", "kernel assembly (.asm)")],
            flags: &[
                Flag::value("device", "NAME", "h800 | a100 | rtx4090 (required)"),
                Flag::value("grid", "N", "blocks in the grid (required)"),
                Flag::value("block", "N", "threads per block (required)"),
                Flag::value("cluster", "N", "cluster size (default 1)"),
                Flag::value("param", "V", "kernel parameter into %r0, %r1, …").repeated(),
                Flag::value("name", "NAME", "kernel name (default: KERNEL's file stem)"),
                Flag::switch("binary", "write the binary encoding instead of text"),
                Flag::value("out", "OUT.htrace", "trace file to write (required)").short("o"),
            ],
            ..Spec::NONE
        },
        Spec { name: "info", about: "print TRACE's header as JSON", args: TRACE, ..Spec::NONE },
        Spec {
            name: "replay",
            about: "replay TRACE through the timing model; print the stats JSON",
            args: TRACE,
            flags: &[Flag::switch("profile", "print the sectioned hopper-prof report instead")],
            ..Spec::NONE
        },
    ],
    ..Spec::NONE
};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("htrace: {msg}");
    std::process::exit(1);
}

/// A flag `capture` cannot do without.
fn required<T: FromArg>(args: &Args, long: &str) -> T {
    args.value(long)
        .unwrap_or_else(|| args.fail(format!("capture needs --{long}")))
}

fn stats_json(stats: &hopper_sim::RunStats) -> String {
    let v = run_stats_to_json(stats);
    serde_json::to_string_pretty(&v).expect("Value serialisation is infallible")
}

fn load_trace(path: &str) -> Trace {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(format!("read {path}: {e}")));
    Trace::parse(&bytes).unwrap_or_else(|e| fail(e))
}

fn cmd_capture(args: &Args) {
    let device: String = required(args, "device");
    let launch = Launch {
        grid: required(args, "grid"),
        block: required(args, "block"),
        cluster: args.value("cluster").unwrap_or(1),
        params: args.values("param"),
    };
    let out: String = required(args, "out");
    let input = args.arg("KERNEL").unwrap_or_default();
    let dev = DeviceConfig::by_name(&device)
        .unwrap_or_else(|| args.fail(format!("unknown device `{device}`")));
    let asm_text =
        std::fs::read_to_string(input).unwrap_or_else(|e| fail(format!("read {input}: {e}")));
    let name = args.value("name").unwrap_or_else(|| {
        std::path::Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "kernel".into())
    });
    let mut gpu = Gpu::new(dev);
    let (stats, trace) =
        Trace::capture(&mut gpu, &device, &asm_text, &name, &launch).unwrap_or_else(|e| fail(e));
    let bytes = if args.switch("binary") {
        trace.to_binary()
    } else {
        trace.to_text().into_bytes()
    };
    std::fs::write(&out, &bytes).unwrap_or_else(|e| fail(format!("write {out}: {e}")));
    eprintln!(
        "captured {} warps / {} records ({} bytes) -> {out}",
        trace.warp_count(),
        trace.total_records(),
        bytes.len()
    );
    println!("{}", stats_json(&stats));
}

fn cmd_info(args: &Args) {
    let trace = load_trace(args.arg("TRACE").unwrap_or_default());
    let h = &trace.header;
    let v = obj(vec![
        ("block", Value::UInt(h.block.into())),
        ("cluster", Value::UInt(h.cluster.into())),
        ("device", Value::Str(h.device.clone())),
        ("grid", Value::UInt(h.grid.into())),
        ("kernel", Value::Str(h.kernel_name.clone())),
        ("kernel_digest", Value::Str(h.digest_hex.clone())),
        (
            "params",
            Value::Array(h.params.iter().map(|&p| Value::UInt(p)).collect()),
        ),
        ("records", Value::UInt(trace.total_records())),
        ("version", Value::UInt(h.version.into())),
        ("warps", Value::UInt(trace.warp_count() as u64)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&v).expect("Value serialisation is infallible")
    );
}

fn cmd_replay(args: &Args) {
    let trace = load_trace(args.arg("TRACE").unwrap_or_default());
    let kernel = trace.validate().unwrap_or_else(|e| fail(e));
    let dev = DeviceConfig::by_name(&trace.header.device).unwrap_or_else(|| {
        fail(format!(
            "trace names unknown device `{}`",
            trace.header.device
        ))
    });
    let launch = trace.launch();
    let mut gpu = Gpu::new(dev);
    // Already validated above; skip the redundant prevalidation pass.
    let run = Run {
        replay: Some(Replay {
            source: &trace.source,
            prevalidated: true,
        }),
        ..Run::default()
    };
    let rendered = if args.switch("profile") {
        hopper_prof::profile_run(&mut gpu, &kernel, &launch, run)
            .unwrap_or_else(|e| fail(e))
            .to_json_string()
    } else {
        stats_json(&gpu.run(&kernel, &launch, run).unwrap_or_else(|e| fail(e)))
    };
    println!("{rendered}");
}

fn main() {
    let args = Args::from_env(&SPEC);
    match args.command() {
        Some("capture") => cmd_capture(&args),
        Some("info") => cmd_info(&args),
        _ => cmd_replay(&args),
    }
}
