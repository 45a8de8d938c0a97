//! `htrace` — capture, inspect and replay simulator traces.
//!
//! ```text
//! htrace capture --device h800 --grid 4 --block 128 [--cluster N]
//!                [--param V]... [--name NAME] [--binary] -o OUT.htrace KERNEL.asm
//! htrace info TRACE
//! htrace replay [--profile] TRACE
//! ```
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
//! `--param` values accept decimal or `0x` hex.  Device memory is not
//! snapshotted: a replay needs no input buffers (addresses come from the
//! capture), which is exactly what makes traces portable.

use hopper_prof::{json::obj, run_stats_to_json};
use hopper_replay::{Trace, TraceError};
use hopper_sim::{DeviceConfig, Gpu, Launch, Replay, Run};
use serde_json::Value;

fn usage() -> ! {
    eprintln!(
        "usage: htrace capture --device h800|a100|rtx4090 --grid N --block N \\\n\
         \x20              [--cluster N] [--param V]... [--name NAME] [--binary] \\\n\
         \x20              -o OUT.htrace KERNEL.asm\n\
         \x20      htrace info TRACE\n\
         \x20      htrace replay [--profile] TRACE"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("htrace: {msg}");
    std::process::exit(1);
}

fn parse_u64_auto(tok: &str) -> Option<u64> {
    match tok.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => tok.parse().ok(),
    }
}

fn load_trace(path: &str) -> Trace {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(format!("read {path}: {e}")));
    Trace::parse(&bytes).unwrap_or_else(|e| fail(e))
}

fn cmd_capture(args: &[String]) {
    let mut device = None;
    let mut grid = None;
    let mut block = None;
    let mut cluster = 1u32;
    let mut params = Vec::new();
    let mut name = None;
    let mut binary = false;
    let mut out = None;
    let mut input = None;
    let mut i = 0;
    let next = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--device" => device = Some(next(args, &mut i)),
            "--grid" => grid = next(args, &mut i).parse::<u32>().ok(),
            "--block" => block = next(args, &mut i).parse::<u32>().ok(),
            "--cluster" => {
                cluster = next(args, &mut i)
                    .parse::<u32>()
                    .unwrap_or_else(|_| usage())
            }
            "--param" => {
                params.push(parse_u64_auto(&next(args, &mut i)).unwrap_or_else(|| usage()))
            }
            "--name" => name = Some(next(args, &mut i)),
            "--binary" => binary = true,
            "-o" | "--out" => out = Some(next(args, &mut i)),
            a if a.starts_with('-') => usage(),
            a => {
                if input.replace(a.to_string()).is_some() {
                    usage();
                }
            }
        }
        i += 1;
    }
    let (Some(device), Some(grid), Some(block), Some(out), Some(input)) =
        (device, grid, block, out, input)
    else {
        usage()
    };
    let dev = DeviceConfig::by_name(&device)
        .unwrap_or_else(|| fail(format!("unknown device `{device}` (h800|a100|rtx4090)")));
    let asm_text =
        std::fs::read_to_string(&input).unwrap_or_else(|e| fail(format!("read {input}: {e}")));
    let name = name.unwrap_or_else(|| {
        std::path::Path::new(&input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "kernel".into())
    });
    let launch = Launch {
        grid,
        block,
        cluster,
        params,
    };
    let mut gpu = Gpu::new(dev);
    let (stats, trace) =
        Trace::capture(&mut gpu, &device, &asm_text, &name, &launch).unwrap_or_else(|e| fail(e));
    let bytes = if binary {
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
    println!(
        "{}",
        serde_json::to_string_pretty(&run_stats_to_json(&stats))
            .expect("Value serialisation is infallible")
    );
}

fn cmd_info(args: &[String]) {
    let [path] = args else { usage() };
    let trace = load_trace(path);
    let h = &trace.header;
    let v = obj(vec![
        ("block", Value::UInt(h.block as u64)),
        ("cluster", Value::UInt(h.cluster as u64)),
        ("device", Value::Str(h.device.clone())),
        ("grid", Value::UInt(h.grid as u64)),
        ("kernel", Value::Str(h.kernel_name.clone())),
        ("kernel_digest", Value::Str(h.digest_hex.clone())),
        (
            "params",
            Value::Array(h.params.iter().map(|&p| Value::UInt(p)).collect()),
        ),
        ("records", Value::UInt(trace.total_records())),
        ("version", Value::UInt(h.version as u64)),
        ("warps", Value::UInt(trace.warp_count() as u64)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&v).expect("Value serialisation is infallible")
    );
}

fn cmd_replay(args: &[String]) {
    let mut profile = false;
    let mut path = None;
    for a in args {
        match a.as_str() {
            "--profile" => profile = true,
            a if a.starts_with('-') => usage(),
            a => {
                if path.replace(a.to_string()).is_some() {
                    usage();
                }
            }
        }
    }
    let Some(path) = path else { usage() };
    let trace = load_trace(&path);
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
    let rendered = if profile {
        hopper_prof::profile_run(&mut gpu, &kernel, &launch, run)
            .unwrap_or_else(|e| fail(e))
            .to_json_string()
    } else {
        let stats = gpu.run(&kernel, &launch, run).unwrap_or_else(|e| fail(e));
        serde_json::to_string_pretty(&run_stats_to_json(&stats))
            .expect("Value serialisation is infallible")
    };
    println!("{rendered}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "capture" => cmd_capture(rest),
        "info" => cmd_info(rest),
        "replay" => cmd_replay(rest),
        "--help" | "-h" => {
            let _ = TraceError::NotTextual; // silence unused-import lint paths
            usage()
        }
        _ => usage(),
    }
}
