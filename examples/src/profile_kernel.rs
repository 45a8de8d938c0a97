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
//! `cargo run --release -p hopper-examples --bin profile_kernel -- --help`
//! lists the arguments.

use hopper_obs::cli::{Arg, Args, Flag, Spec};
use hopper_prof::workloads::Workload;
use hopper_sim::trace::TeeSink;
use hopper_sim::{ChromeTrace, DeviceConfig, Gpu, StallProfile};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "profile_kernel",
    about: "stall attribution and unit occupancy of a built-in kernel",
    args: &[
        Arg::optional("DEVICE", "h800 | a100 | rtx4090 | all (default h800)"),
        Arg::optional("KERNEL", "pchase | stream | tensor | dpx (default stream)"),
    ],
    flags: &[Flag::value("chrome-trace", "PATH", "also write a Chrome-trace timeline to PATH")],
    ..Spec::NONE
};

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
        if let Err(e) = chrome.write_to(std::path::Path::new(path)) {
            eprintln!("profile_kernel: {path}: {e}");
            std::process::exit(1);
        }
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
    let args = Args::from_env(&SPEC);
    let kernel = args.arg("KERNEL").unwrap_or("stream");
    let workload =
        Workload::parse(kernel).unwrap_or_else(|| args.fail(format!("unknown kernel `{kernel}`")));
    let chrome: Option<String> = args.value("chrome-trace");
    let names = match args.arg("DEVICE").unwrap_or("h800") {
        "all" => vec!["h800", "a100", "rtx4090"],
        name => vec![name],
    };
    for &name in &names {
        let dev = DeviceConfig::by_name(name)
            .unwrap_or_else(|| args.fail(format!("unknown device `{name}`")));
        // With `all`, one trace file per device so later runs don't
        // overwrite earlier ones: out.json → out-h800.json, out-a100.json, …
        let path = chrome.as_deref().map(|p| match p.rsplit_once('.') {
            _ if names.len() == 1 => p.to_string(),
            Some((stem, ext)) => format!("{stem}-{name}.{ext}"),
            None => format!("{p}-{name}"),
        });
        profile_one(dev, workload, path.as_deref());
    }
}
