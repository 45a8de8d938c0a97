//! `hprof` — Nsight-Compute-style profiler CLI for the simulator.
//!
//! Runs a built-in workload on a simulated device and prints the sectioned
//! kernel report (Speed-of-Light, occupancy, memory, roofline, per-PC).
//!
//! ```text
//! hprof [h800|a100|rtx4090|all] [pchase|stream|tensor|dpx|all] [--json] [--out DIR]
//! ```
//!
//! `--json` switches to the deterministic JSON rendering (sorted keys, no
//! timestamps: two runs are byte-identical).  `--out DIR` writes one
//! `hprof_<device>_<workload>.{txt,json}` per report instead of stdout.

use hopper_prof::workloads::Workload;
use hopper_prof::{profile_kernel, KernelReport};
use hopper_sim::{DeviceConfig, Gpu};

fn usage() -> ! {
    eprintln!(
        "usage: hprof [h800|a100|rtx4090|all] [pchase|stream|tensor|dpx|all] [--json] [--out DIR]"
    );
    std::process::exit(2);
}

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut device = "h800".to_string();
    let mut workload = "pchase".to_string();
    let mut json = false;
    let mut out_dir: Option<String> = None;
    let mut pos = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => {
                println!(
                    "usage: hprof [h800|a100|rtx4090|all] [pchase|stream|tensor|dpx|all] \
                     [--json] [--out DIR]"
                );
                return;
            }
            a if a.starts_with('-') => usage(),
            a => {
                match pos {
                    0 => device = a.to_string(),
                    1 => workload = a.to_string(),
                    _ => usage(),
                }
                pos += 1;
            }
        }
        i += 1;
    }

    let devices: Vec<&str> = if device == "all" {
        vec!["h800", "a100", "rtx4090"]
    } else {
        vec![device.as_str()]
    };
    let workloads: Vec<Workload> = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::parse(&workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload `{workload}` (expected pchase|stream|tensor|dpx|all)");
                std::process::exit(2);
            }
        }
    };

    for dev_name in &devices {
        let Some(dev) = DeviceConfig::by_name(dev_name) else {
            eprintln!("unknown device `{dev_name}` (expected h800|a100|rtx4090|all)");
            std::process::exit(2);
        };
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
                    std::fs::create_dir_all(dir).expect("create output directory");
                    let path = std::path::Path::new(dir)
                        .join(format!("hprof_{dev_name}_{}.{ext}", w.name()));
                    std::fs::write(&path, rendered).expect("write report");
                    println!("wrote {}", path.display());
                }
                None => println!("{rendered}"),
            }
        }
    }
}
