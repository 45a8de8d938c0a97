//! The command line of `hopper-run`: the shared contract, and the checks
//! it makes before it simulates.

#[path = "../../crates/obs/tests/support/cli_contract.rs"]
mod cli_contract;

use cli_contract::{assert_contract, run};
use hopper_sim::{DeviceConfig, Gpu, Launch};

const SAXPY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/saxpy.asm");
const HISTOGRAM: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/histogram.asm");

#[test]
fn hopper_run_keeps_the_command_line_contract() {
    let flags = [
        "FILE",
        "--device",
        "--grid",
        "--block",
        "--cluster",
        "--alloc",
        "--param",
        "--fill",
        "--dump",
        "--json",
    ];
    let bad: [&[&str]; 6] = [
        &[SAXPY, "--block", "x"],
        &[SAXPY, "--device", "hopper"],
        &[SAXPY, "--grid", "4294967296"],
        &[SAXPY, "--dump", "0"],
        &[SAXPY, SAXPY],
        &[],
    ];
    assert_contract(env!("CARGO_BIN_EXE_hopper-run"), &flags, &bad);
}

#[test]
fn hopper_run_checks_every_dump_against_its_buffer() {
    // An unallocated buffer used to panic on the index, and a COUNT beyond
    // the buffer to abort allocating it (400 GB here).
    for dump in ["3:4", "0:100000000000", "0:17"] {
        let args = [SAXPY, "--alloc", "64", "--dump", dump];
        let (code, out, err) = run(env!("CARGO_BIN_EXE_hopper-run"), &args);
        assert_eq!(code, 1, "--dump {dump}: {err}");
        assert!(out.is_empty(), "--dump {dump}: fails before the launch");
        assert!(
            err.starts_with("--dump") && err.lines().count() == 1,
            "{err}"
        );
    }
    let args = [
        SAXPY, "--alloc", "64", "--param", "@0", "--dump", "0:16", "--json",
    ];
    let (code, out, err) = run(env!("CARGO_BIN_EXE_hopper-run"), &args);
    assert_eq!(code, 0, "{err}");
    assert!(out.ends_with("{\"buffer\":0,\"values\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n"));
}

#[test]
fn hopper_run_json_prints_the_hsimd_stats_payload() {
    let args = [
        HISTOGRAM, "--grid", "2", "--block", "256", "--alloc", "1024", "--param", "@0", "--json",
    ];
    let (code, out, err) = run(env!("CARGO_BIN_EXE_hopper-run"), &args);
    assert_eq!(code, 0, "{err}");

    let source = std::fs::read_to_string(HISTOGRAM).expect("read the kernel");
    let kernel = hopper_isa::asm::assemble_named(&source, HISTOGRAM).expect("assembles");
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let bins = gpu.alloc(1024).expect("alloc");
    let launch = Launch::new(2, 256).with_params(vec![bins]);
    let stats = gpu.launch(&kernel, &launch).expect("launch");
    let want = serde_json::to_string_pretty(&hopper_prof::run_stats_to_json(&stats)).unwrap();
    assert_eq!(out, format!("{want}\n"));
}
