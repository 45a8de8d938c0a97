//! `hprof` — Nsight-Compute-style profiler CLI for the simulator.
//!
//! Runs a built-in workload on a simulated device and prints the sectioned
//! kernel report (Speed-of-Light, occupancy, memory, roofline, per-PC),
//! optionally recording a Chrome-trace timeline of the same run (open it
//! in `chrome://tracing` or Perfetto).
//!
//! `hprof --help` lists the arguments.  The `--json` rendering is
//! deterministic (sorted keys, no timestamps: two runs are byte-identical),
//! and `--chrome-trace` does not change it.

use hopper_obs::cli::{Arg, Args, Flag, Spec};
use hopper_prof::workloads::Workload;
use hopper_prof::{profile_run, KernelReport};
use hopper_sim::{ChromeTrace, DeviceConfig, Gpu, Run};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "hprof",
    about: "Nsight-Compute-style sectioned kernel reports from the simulator",
    args: &[
        Arg::optional("DEVICE", "h800 | a100 | rtx4090 | all (default h800)"),
        Arg::optional("WORKLOAD", "pchase | stream | tensor | dpx | all (default pchase)"),
    ],
    flags: &[
        Flag::switch("json", "deterministic JSON instead of text"),
        Flag::value("out", "DIR", "write hprof_<device>_<workload>.{txt,json} files to DIR"),
        Flag::value("chrome-trace", "PATH",
            "also write a Chrome-trace timeline to PATH (PATH-<device>-<workload> for several)"),
    ],
    ..Spec::NONE
};

/// Profile one workload, teeing the run into `chrome` when given.
fn run_one(
    dev: DeviceConfig,
    workload: Workload,
    chrome: Option<&mut ChromeTrace>,
) -> KernelReport {
    let mut gpu = Gpu::new(dev);
    let (kernel, launch) = workload.build(&mut gpu);
    let run = Run {
        sink: chrome.map(|c| c as _),
        ..Run::default()
    };
    let report = profile_run(&mut gpu, &kernel, &launch, run).expect("built-in workload launches");
    let s = &report.stalls;
    assert_eq!(
        s.issued + s.idle + s.stalled.iter().sum::<u64>(),
        s.slot_cycles,
        "stall accounting must conserve cycles"
    );
    assert!(
        report.pc_stalls_match(),
        "per-PC stall cycles must sum to the launch's stall summary"
    );
    report
}

fn fail(path: impl std::fmt::Display, e: std::io::Error) -> ! {
    eprintln!("hprof: {path}: {e}");
    std::process::exit(1)
}

fn main() {
    let args = Args::from_env(&SPEC);
    let json = args.switch("json");
    let devices: Vec<DeviceConfig> = match args.arg("DEVICE").unwrap_or("h800") {
        "all" => vec!["h800", "a100", "rtx4090"],
        name => vec![name],
    }
    .into_iter()
    .map(|n| DeviceConfig::by_name(n).unwrap_or_else(|| args.fail(format!("unknown device `{n}`"))))
    .collect();
    let workloads: Vec<Workload> = match args.arg("WORKLOAD").unwrap_or("pchase") {
        "all" => Workload::ALL.to_vec(),
        w => {
            vec![Workload::parse(w).unwrap_or_else(|| args.fail(format!("unknown workload `{w}`")))]
        }
    };
    let out_dir: Option<String> = args.value("out");
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
    }
    let chrome_path: Option<String> = args.value("chrome-trace");
    let several = devices.len() * workloads.len() > 1;

    for dev in &devices {
        for &w in &workloads {
            let mut chrome = chrome_path.as_ref().map(|_| ChromeTrace::new());
            let report = run_one(dev.clone(), w, chrome.as_mut());
            if let (Some(p), Some(chrome)) = (&chrome_path, &chrome) {
                // Several reports get one timeline each, so later runs do
                // not overwrite earlier ones: out.json → out-h800-pchase.json.
                let suffix = format!("-{}-{}", dev.wire_name(), w.name());
                let path = match p.rsplit_once('.') {
                    _ if !several => p.clone(),
                    Some((stem, ext)) => format!("{stem}{suffix}.{ext}"),
                    None => format!("{p}{suffix}"),
                };
                chrome
                    .write_to(std::path::Path::new(&path))
                    .unwrap_or_else(|e| fail(&path, e));
                eprintln!("hprof: wrote {path} ({} events)", chrome.len());
            }
            let rendered = if json {
                report.to_json_string()
            } else {
                report.render()
            };
            match &out_dir {
                Some(dir) => {
                    let ext = if json { "json" } else { "txt" };
                    let name = format!("hprof_{}_{}.{ext}", dev.wire_name(), w.name());
                    let path = std::path::Path::new(dir).join(name);
                    std::fs::write(&path, rendered).unwrap_or_else(|e| fail(path.display(), e));
                    println!("wrote {}", path.display());
                }
                None => println!("{rendered}"),
            }
        }
    }
}
