//! `hopper-run`: execute a PTX-flavoured assembly file on a simulated
//! device from the command line.
//!
//! ```text
//! hopper-run kernel.asm --device h800 --grid 4 --block 256 \
//!     --alloc 4096 --param @0 --dump 0:8
//! ```
//!
//! `hopper-run --help` lists the flags.

use hopper_isa::asm::assemble_named;
use hopper_obs::cli::{Arg, Args, Flag, FromArg, Spec};
use hopper_prof::run_stats_to_json;
use hopper_sim::{DeviceConfig, Gpu, Launch};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "hopper-run",
    about: "run a PTX-flavoured assembly file on a simulated device",
    args: &[Arg::required("FILE", "kernel assembly")],
    flags: &[
        Flag::value("device", "NAME", "h800 | a100 | rtx4090 (default h800)"),
        Flag::value("grid", "N", "blocks in the grid (default 1)"),
        Flag::value("block", "N", "threads per block (default 32)"),
        Flag::value("cluster", "CS", "thread-block cluster size, Hopper only (default 1)"),
        Flag::value("alloc", "BYTES", "allocate a buffer; buffers are numbered 0, 1, …").repeated(),
        Flag::value("param", "V|@N", "parameter into %r0, %r1, …; @N: buffer N's address").repeated(),
        Flag::value("fill", "N:V0,V1", "pre-fill buffer N with little-endian u32s").repeated(),
        Flag::value("dump", "N:COUNT", "print COUNT u32s of buffer N after the run").repeated(),
        Flag::switch("json", "print the run's stats (hsimd's stats payload) and dumps as JSON"),
    ],
    ..Spec::NONE
};

/// A `--param`: a value, or `@N` for buffer N's address.
enum Param {
    Value(u64),
    Buffer(usize),
}

impl FromArg for Param {
    fn from_arg(s: &str) -> Result<Param, String> {
        match s.strip_prefix('@') {
            Some(n) => usize::from_arg(n).map(Param::Buffer),
            None => u64::from_arg(s).map(Param::Value),
        }
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

fn main() {
    let args = Args::from_env(&SPEC);
    let file = args.arg("FILE").unwrap_or_default();
    let name: String = args.value("device").unwrap_or_else(|| "h800".into());
    let device = DeviceConfig::by_name(&name)
        .unwrap_or_else(|| args.fail(format!("unknown device `{name}`")));
    let (grid, block) = (args.value("grid"), args.value("block"));
    let launch = Launch::new(grid.unwrap_or(1), block.unwrap_or(32))
        .with_cluster(args.value("cluster").unwrap_or(1));
    let (allocs, params) = (args.values::<u64>("alloc"), args.values::<Param>("param"));
    let fills: Vec<(usize, Vec<u32>)> = args.values("fill");
    let dumps: Vec<(usize, usize)> = args.values("dump");

    let source =
        std::fs::read_to_string(file).unwrap_or_else(|e| fail(format!("cannot read {file}: {e}")));
    let kernel = assemble_named(&source, file).unwrap_or_else(|e| fail(format!("{file}: {e}")));
    let mut gpu = Gpu::new(device);
    let buffers: Vec<(u64, u64)> = allocs
        .iter()
        .map(|&b| match gpu.alloc(b) {
            Ok(addr) => (addr, b),
            Err(e) => fail(format!("allocation failed: {e}")),
        })
        .collect();
    let buffer = |flag: &str, idx: usize| match buffers.get(idx) {
        Some(&b) => b,
        None => fail(format!("{flag}: buffer {idx} is not allocated")),
    };
    // Every dump must read inside its buffer; checked before the launch.
    let mut reads = Vec::new();
    for (idx, count) in dumps {
        let (addr, bytes) = buffer("--dump", idx);
        if u64::try_from(count).map_or(true, |c| c > bytes / 4) {
            fail(format!(
                "--dump {idx}:{count}: buffer {idx} holds {} u32s",
                bytes / 4
            ));
        }
        reads.push((idx, addr, count));
    }
    let params = params.into_iter().map(|p| match p {
        Param::Value(v) => v,
        Param::Buffer(idx) => buffer("--param", idx).0,
    });
    let launch = launch.with_params(params.collect());
    for (idx, vals) in &fills {
        gpu.write_u32s(buffer("--fill", *idx).0, vals);
    }
    let stats = gpu
        .launch(&kernel, &launch)
        .unwrap_or_else(|e| fail(format!("launch failed: {e}")));

    if args.switch("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&run_stats_to_json(&stats)).expect("stats serialise")
        );
        for &(idx, addr, n) in &reads {
            println!(
                "{}",
                serde_json::json!({ "buffer": idx, "values": gpu.read_u32s(addr, n) })
            );
        }
        return;
    }
    println!(
        "{file}: {} blocks × {} threads on {}",
        launch.grid,
        launch.block,
        gpu.device().name
    );
    let m = &stats.metrics;
    println!(
        "  {} cycles  ({:.3} µs at {:.0} MHz{})",
        m.cycles,
        stats.seconds() * 1e6,
        stats.achieved_clock_hz / 1e6,
        if stats.throttle() < 0.999 {
            format!(", throttled ×{:.3}", stats.throttle())
        } else {
            String::new()
        }
    );
    println!(
        "  {} instructions (ipc {:.3}), {} TC ops, {} DPX ops",
        m.instructions,
        m.ipc(),
        m.tc_ops,
        m.dpx_ops
    );
    println!(
        "  traffic: L1 {} B ({:.1}% hit), L2 {} B ({:.1}% hit), DRAM {} B, SMEM {} B, DSM {} B",
        m.l1_bytes,
        m.l1_hit_rate() * 100.0,
        m.l2_bytes,
        m.l2_hit_rate() * 100.0,
        m.dram_bytes,
        m.smem_bytes,
        m.dsm_bytes
    );
    println!("  avg power {:.1} W", stats.avg_power_w);
    for &(idx, addr, n) in &reads {
        println!("  buffer {idx}[0..{n}] = {:?}", gpu.read_u32s(addr, n));
    }
}
