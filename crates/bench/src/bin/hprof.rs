//! `hprof` — Nsight-Compute-style profiler CLI for the simulator.
//!
//! Runs a built-in workload on a simulated device and prints the sectioned
//! kernel report (Speed-of-Light, occupancy, memory, roofline, per-PC).
//!
//! `hprof --help` lists the arguments.  The `--json` rendering is
//! deterministic (sorted keys, no timestamps: two runs are byte-identical).

use hopper_obs::cli::{Arg, Args, Flag, Spec};
use hopper_prof::workloads::Workload;
use hopper_prof::{profile_kernel, KernelReport};
use hopper_sim::{DeviceConfig, Gpu};

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
    ],
    ..Spec::NONE
};

fn run_one(dev: DeviceConfig, workload: Workload) -> KernelReport {
    let mut gpu = Gpu::new(dev);
    let (kernel, launch) = workload.build(&mut gpu);
    let report = profile_kernel(&mut gpu, &kernel, &launch).expect("built-in workload launches");
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

    for dev in &devices {
        for &w in &workloads {
            let report = run_one(dev.clone(), w);
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
