//! Profile a kernel: where do the cycles go?
//!
//! Runs a built-in workload (shared with the `hprof` CLI via
//! `hopper_prof::workloads`) under the `hopper-trace` stall profiler and
//! prints the per-scheduler stall-reason histogram, functional-unit
//! occupancy, and cache behaviour.  Optionally also records a Chrome-trace
//! timeline (open in `chrome://tracing` or Perfetto).
//!
//! For the full Nsight-style sectioned report (Speed-of-Light, occupancy,
//! roofline, per-PC hotspots) use `hprof` from `hopper-bench` instead.
//!
//! ```text
//! cargo run --release -p hopper-examples --bin profile_kernel -- \
//!     [h800|a100|rtx4090|all] [pchase|stream|tensor|dpx] [--chrome-trace out.json]
//! ```

use hopper_prof::workloads::Workload;
use hopper_sim::trace::TeeSink;
use hopper_sim::{ChromeTrace, DeviceConfig, Gpu, StallProfile};

fn profile_one(dev: DeviceConfig, workload: Workload, chrome_path: Option<&str>) {
    let mut gpu = Gpu::new(dev);
    println!(
        "== {} ({} SMs @ {:.0} MHz) — `{}` ==",
        gpu.device().name,
        gpu.device().num_sms,
        gpu.device().clock_hz / 1e6,
        workload.name()
    );
    let (k, launch) = workload.build(&mut gpu);

    let (stats, prof) = if let Some(path) = chrome_path {
        // Tee the event stream: aggregate stalls *and* record a timeline.
        let mut prof = StallProfile::default();
        let mut chrome = ChromeTrace::new();
        let mut tee = TeeSink::new(&mut prof, &mut chrome);
        let mut stats = gpu.launch_traced(&k, &launch, &mut tee).expect("launch");
        stats.stalls = Some(prof.summary());
        chrome
            .write_to(std::path::Path::new(path))
            .expect("write chrome trace");
        println!("chrome trace: {path} ({} events)", chrome.len());
        (stats, prof)
    } else {
        gpu.profile(&k, &launch).expect("launch")
    };

    assert!(
        prof.conservation_ok(),
        "stall accounting must conserve cycles"
    );
    print!("{}", prof.render());
    let s = stats.stalls.expect("profile fills stalls");
    println!(
        "issue rate {:.3} instr/slot-cycle over {} cycles ({:.1} µs)\n",
        s.issue_rate(),
        stats.metrics.cycles,
        stats.seconds() * 1e6
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut device = "h800".to_string();
    let mut kernel = "stream".to_string();
    let mut chrome: Option<String> = None;
    let mut pos = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chrome-trace" => {
                i += 1;
                chrome = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--chrome-trace needs a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "usage: profile_kernel [h800|a100|rtx4090|all] \
                     [pchase|stream|tensor|dpx] [--chrome-trace out.json]"
                );
                return;
            }
            a => {
                match pos {
                    0 => device = a.to_string(),
                    1 => kernel = a.to_string(),
                    _ => {
                        eprintln!("unexpected argument `{a}`");
                        std::process::exit(2);
                    }
                }
                pos += 1;
            }
        }
        i += 1;
    }

    let Some(workload) = Workload::parse(&kernel) else {
        eprintln!("unknown kernel `{kernel}` (expected pchase|stream|tensor|dpx)");
        std::process::exit(2);
    };

    if device == "all" {
        for name in ["h800", "a100", "rtx4090"] {
            // One trace file per device, so later runs don't overwrite
            // earlier ones: out.json → out-h800.json, out-a100.json, …
            let per_dev = chrome.as_deref().map(|p| match p.rsplit_once('.') {
                Some((stem, ext)) => format!("{stem}-{name}.{ext}"),
                None => format!("{p}-{name}"),
            });
            profile_one(
                DeviceConfig::by_name(name).expect("listed above"),
                workload,
                per_dev.as_deref(),
            );
        }
    } else {
        match DeviceConfig::by_name(&device) {
            Some(dev) => profile_one(dev, workload, chrome.as_deref()),
            None => {
                eprintln!("unknown device `{device}` (expected h800|a100|rtx4090|all)");
                std::process::exit(2);
            }
        }
    }
}
