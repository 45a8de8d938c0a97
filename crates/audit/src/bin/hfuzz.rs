//! hfuzz — seeded differential fuzzer for the Hopper simulator.
//!
//! Generates valid random kernels and cross-checks every redundant
//! implementation pair (legacy vs ready-set scheduler down to the final
//! memory image, traced vs untraced, capture vs replay, asm round-trip,
//! serve cold vs cached). Every failure prints the seed that reproduces
//! it and dumps a repro `.kernel` file runnable with `hsim-client`.
//! `hfuzz --help` lists the flags.

use hopper_audit::gen::KernelPlan;
use hopper_audit::oracle::{check_plan, ServeOracle};
use hopper_audit::rng::{kernel_seed, seed_from_str};
use hopper_audit::shrink::minimize;
use hopper_isa::{disassemble, Arch};
use hopper_obs::cli::{Args, Flag, Spec};
use hopper_sim::DeviceConfig;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "hfuzz",
    about: "seeded differential fuzzer for the Hopper simulator",
    flags: &[
        Flag::value("seed", "S", "0x-hex, decimal, or any string, hashed (default 0xh0pper)"),
        Flag::value("iters", "N", "kernels to generate and check (default 200)"),
        Flag::value("devices", "LIST", "comma-separated devices, in turn (default h800,a100,rtx4090)"),
        Flag::switch("minimize", "shrink a failing kernel before writing its repro"),
        Flag::value("serve-every", "N", "serve-daemon oracle cadence; 0 disables it (default 25)"),
        Flag::value("out", "DIR", "directory for repro files (default .)"),
    ],
    notes: "Exit code 1 on the first failure.\n",
    ..Spec::NONE
};

/// Write a reproducer file next to the failure: kernel text (assembler
/// input — `//` comment headers are stripped by the assembler) plus an
/// `hsim-client` invocation. Non-textual kernels get a debug listing.
fn dump_repro(out: &Path, plan: &KernelPlan, dev: &DeviceConfig, why: &str) -> PathBuf {
    let path = out.join(format!("hfuzz-repro-{:016x}.kernel", plan.seed));
    let k = plan.kernel();
    let mut body = String::new();
    body.push_str(&format!("// hfuzz reproducer, seed {:#018x}\n", plan.seed));
    body.push_str(&format!("// device: {}\n", dev.wire_name()));
    body.push_str(&format!(
        "// failure: {}\n",
        why.lines().next().unwrap_or("?")
    ));
    body.push_str("// plan:\n");
    for line in plan.describe().lines() {
        body.push_str(&format!("//   {line}\n"));
    }
    match disassemble(&k) {
        Some(text) => {
            body.push_str(&format!(
                "// run with: hsim-client --addr HOST:PORT run {} --device {} --grid {} --block {}{}\n",
                path.display(),
                dev.wire_name(),
                plan.geom.grid,
                plan.geom.block,
                if plan.geom.cluster > 1 {
                    format!(" --cluster {}", plan.geom.cluster)
                } else {
                    String::new()
                }
            ));
            body.push_str(&text);
        }
        None => {
            body.push_str("// kernel uses builder-only tile instructions; debug listing:\n");
            for i in &k.instrs {
                body.push_str(&format!("//   {i:?}\n"));
            }
        }
    }
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("hfuzz: could not write repro file {}: {e}", path.display());
    }
    path
}

fn main() -> ExitCode {
    let args = Args::from_env(&SPEC);
    let seed_str: String = args.value("seed").unwrap_or_else(|| "0xh0pper".into());
    let run_seed = seed_from_str(&seed_str);
    let iters: u64 = args.value("iters").unwrap_or(200);
    let names = args.value("devices");
    let names = names.unwrap_or_else(|| ["h800", "a100", "rtx4090"].map(String::from).to_vec());
    let device = |n: &String| {
        DeviceConfig::by_name(n).unwrap_or_else(|| args.fail(format!("unknown device `{n}`")))
    };
    let devices: Vec<DeviceConfig> = names.iter().map(device).collect();
    let serve_every: u64 = args.value("serve-every").unwrap_or(25);
    let out = PathBuf::from(args.value("out").unwrap_or_else(|| ".".to_string()));
    // The serve oracle daemon shares this process; keep its per-request
    // chatter out of the fuzz log unless HOPPER_LOG asks for it.
    let _ = hopper_obs::log::set_filter("warn");
    hopper_obs::log::init_from_env();
    let serve = if serve_every > 0 {
        match ServeOracle::start() {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("hfuzz: serve oracle disabled (daemon failed to start: {e})");
                None
            }
        }
    } else {
        None
    };

    println!(
        "hfuzz: seed {} ({:#018x}), {} iters, devices [{}], serve oracle {}",
        seed_str,
        run_seed,
        iters,
        devices
            .iter()
            .map(|d| d.wire_name())
            .collect::<Vec<_>>()
            .join(","),
        if serve.is_some() {
            format!("every {}", serve_every)
        } else {
            "off".into()
        }
    );

    let (mut textual, mut herds) = (0u64, 0u64);
    let (mut infer_checks, mut infer_preempting) = (0u64, 0u64);
    for i in 0..iters {
        let dev = &devices[(i % devices.len() as u64) as usize];
        let hopper = dev.arch == Arch::Hopper;
        let seed = kernel_seed(run_seed, i);
        let plan = KernelPlan::generate(seed, hopper);
        textual += u64::from(plan.is_textual());
        herds += u64::from(plan.is_herd());
        let use_serve = if serve_every > 0 && i % serve_every == 0 {
            serve.as_ref()
        } else {
            None
        };
        if let Err(why) = check_plan(&plan, dev, use_serve) {
            eprintln!(
                "\nhfuzz: FAILURE at iter {i} on {} (kernel seed {:#018x})\n{why}",
                dev.wire_name(),
                seed
            );
            let final_plan = if args.switch("minimize") {
                eprint!("hfuzz: minimizing ({} segments) ...", plan.seg_count());
                let _ = std::io::stderr().flush();
                let small = minimize(&plan, |p| check_plan(p, dev, None).is_err());
                eprintln!(" {} segments", small.seg_count());
                small
            } else {
                plan
            };
            let path = dump_repro(&out, &final_plan, dev, &why);
            eprintln!(
                "hfuzz: repro written to {}\n\
                 hfuzz: reproduce with: hfuzz --seed {:#x} --iters 1 --devices {} --serve-every 1",
                path.display(),
                seed,
                dev.wire_name()
            );
            if let Some(s) = serve {
                s.stop();
            }
            return ExitCode::FAILURE;
        }
        // The infer oracle rides the same cadence as the serve oracle:
        // scenario-level determinism is cheap but not free.
        if let Some(srv) = use_serve {
            infer_checks += 1;
            let checked = srv.check_infer(seed, dev);
            if checked.as_ref().is_ok_and(|&preempted| preempted > 0) {
                infer_preempting += 1;
            }
            if let Err(why) = checked {
                eprintln!(
                    "\nhfuzz: FAILURE at iter {i} on {} (infer seed {:#018x})\n{why}\n\
                     hfuzz: reproduce with: hfuzz --seed {:#x} --iters 1 --devices {} --serve-every 1",
                    dev.wire_name(),
                    seed,
                    seed,
                    dev.wire_name()
                );
                if let Some(s) = serve {
                    s.stop();
                }
                return ExitCode::FAILURE;
            }
        }
        if (i + 1) % 50 == 0 {
            println!("hfuzz: {}/{} kernels clean", i + 1, iters);
        }
    }

    if let Some(s) = serve {
        s.stop();
    }
    println!(
        "hfuzz: PASS — {} kernels ({} textual) clean across {} device(s); \
         {} herd draws; {} infer scenarios, {} preempting",
        iters,
        textual,
        devices.len(),
        herds,
        infer_checks,
        infer_preempting
    );
    ExitCode::SUCCESS
}
