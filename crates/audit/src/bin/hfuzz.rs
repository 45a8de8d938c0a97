//! hfuzz — seeded differential fuzzer for the Hopper simulator.
//!
//! Generates valid random kernels and cross-checks every redundant
//! implementation pair (legacy vs ready-set scheduler, traced vs
//! untraced, asm round-trip, serve cold vs cached). Every failure prints
//! the seed that reproduces it and dumps a repro `.kernel` file runnable
//! with `hsim-client`.
//!
//! ```text
//! hfuzz [--seed S] [--iters N] [--devices h800,a100,rtx4090]
//!       [--minimize] [--serve-every N] [--out DIR]
//! ```

use hopper_audit::gen::KernelPlan;
use hopper_audit::oracle::{check_plan, ServeOracle};
use hopper_audit::rng::{kernel_seed, seed_from_str};
use hopper_audit::shrink::minimize;
use hopper_isa::{disassemble, Arch};
use hopper_sim::DeviceConfig;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    seed: u64,
    seed_str: String,
    iters: u64,
    devices: Vec<DeviceConfig>,
    minimize: bool,
    serve_every: u64,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: hfuzz [--seed S] [--iters N] [--devices h800,a100,rtx4090]\n\
         \x20            [--minimize] [--serve-every N] [--out DIR]\n\
         \n\
         S may be 0x-hex, decimal, or any string (hashed). --serve-every 0\n\
         disables the serve-daemon oracle. Exit code 1 on the first failure."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: seed_from_str("0xh0pper"),
        seed_str: "0xh0pper".into(),
        iters: 200,
        devices: vec![
            DeviceConfig::h800(),
            DeviceConfig::a100(),
            DeviceConfig::rtx4090(),
        ],
        minimize: false,
        serve_every: 25,
        out: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seed" => {
                args.seed_str = val();
                args.seed = seed_from_str(&args.seed_str);
            }
            "--iters" => args.iters = val().parse().unwrap_or_else(|_| usage()),
            "--devices" => {
                args.devices = val()
                    .split(',')
                    .map(|n| DeviceConfig::by_name(n.trim()).unwrap_or_else(|| usage()))
                    .collect();
                if args.devices.is_empty() {
                    usage();
                }
            }
            "--minimize" => args.minimize = true,
            "--serve-every" => args.serve_every = val().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = PathBuf::from(val()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// Write a reproducer file next to the failure: kernel text (assembler
/// input — `//` comment headers are stripped by the assembler) plus an
/// `hsim-client` invocation. Non-textual kernels get a debug listing.
fn dump_repro(args: &Args, plan: &KernelPlan, dev: &DeviceConfig, why: &str) -> PathBuf {
    let path = args
        .out
        .join(format!("hfuzz-repro-{:016x}.kernel", plan.seed));
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
    let args = parse_args();
    // The serve oracle daemon shares this process; keep its per-request
    // chatter out of the fuzz log unless HOPPER_LOG asks for it.
    let _ = hopper_obs::log::set_filter("warn");
    hopper_obs::log::init_from_env();
    let serve = if args.serve_every > 0 {
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
        args.seed_str,
        args.seed,
        args.iters,
        args.devices
            .iter()
            .map(|d| d.wire_name())
            .collect::<Vec<_>>()
            .join(","),
        if serve.is_some() {
            format!("every {}", args.serve_every)
        } else {
            "off".into()
        }
    );

    let mut textual = 0u64;
    let (mut infer_checks, mut infer_preempting) = (0u64, 0u64);
    for i in 0..args.iters {
        let dev = &args.devices[(i % args.devices.len() as u64) as usize];
        let hopper = dev.arch == Arch::Hopper;
        let seed = kernel_seed(args.seed, i);
        let plan = KernelPlan::generate(seed, hopper);
        if plan.is_textual() {
            textual += 1;
        }
        let use_serve = if args.serve_every > 0 && i % args.serve_every == 0 {
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
            let final_plan = if args.minimize {
                eprint!("hfuzz: minimizing ({} segments) ...", plan.seg_count());
                let _ = std::io::stderr().flush();
                let small = minimize(&plan, |p| check_plan(p, dev, None).is_err());
                eprintln!(" {} segments", small.seg_count());
                small
            } else {
                plan
            };
            let path = dump_repro(&args, &final_plan, dev, &why);
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
            println!("hfuzz: {}/{} kernels clean", i + 1, args.iters);
        }
    }

    if let Some(s) = serve {
        s.stop();
    }
    println!(
        "hfuzz: PASS — {} kernels ({} textual) clean across {} device(s); \
         {} infer scenarios, {} preempting",
        args.iters,
        textual,
        args.devices.len(),
        infer_checks,
        infer_preempting
    );
    ExitCode::SUCCESS
}
