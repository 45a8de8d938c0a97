//! `hbench` command line.  Sizes are constants in the source; the
//! arguments only choose what to run.

use hbench::catalogue::WORKLOADS;
use hbench::runner::{self, Outcome, RunOpts, OUT_DIR};
use hbench::{compare, selftest};
use serde_json::Value;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
hbench -- end-to-end and per-layer benchmark of the hopper-dissect stack

USAGE:
    hbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    hbench compare A.jsonl B.jsonl [MORE.jsonl...]
    hbench selftest

run        one workload in this process, or (without --workload) all five, each
           in a child process.  --trace 1 is the traced run: it reports the
           per-layer metrics and writes out/trace-<workload>.json.  --out
           appends the run's full document to FILE, one JSON object per line.
           The last line of standard output is the result object.
compare    each file is a set of runs written with --out; prints a verdict per
           (end-to-end metric, workload); exits 1 on `worse` or new failures.
selftest   all five workloads at 1/50 size with their output checks.
";

/// Run length when `--seconds` is not given; `BENCHMARK.json` asks the
/// driver for the same.
const DEFAULT_SECONDS: f64 = 12.0;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--out" => parsed.out = Some(value()?),
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: bad number `{v}`"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

fn report(outcome: &Outcome, out: Option<&str>) -> Result<(), String> {
    let detail = outcome.detail().to_string();
    if let Some(path) = out {
        append_line(path, &detail)?;
    }
    for failure in &outcome.failures {
        eprintln!("hbench: {}: {failure}", outcome.spec.name);
    }
    println!("{detail}");
    println!("{}", outcome.contract_line());
    Ok(())
}

/// All five workloads, each in its own process: a clean `VmHWM`, and the
/// rayon pool and `hopper_sim::threads` budget are process-global.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating hbench: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let scratch = format!("{OUT_DIR}/run-{}.jsonl", std::process::id());
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for (name, _) in WORKLOADS {
        let _ = std::fs::remove_file(&scratch);
        let status = Command::new(&exe)
            .args(["run", "--workload", name, "--out", &scratch])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("running {name}: {e}"))?;
        all_ok &= status.success();
        let line = std::fs::read_to_string(&scratch).unwrap_or_default();
        let Ok(doc) = serde_json::from_str(line.trim()) else {
            eprintln!("hbench: {name} produced no result");
            all_ok = false;
            continue;
        };
        let doc: Value = doc;
        println!("{}", line.trim());
        if let Some(path) = &args.out {
            append_line(path, line.trim())?;
        }
        attempted += doc.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += doc.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(ms) = doc.get("metrics").and_then(Value::as_object) {
            metrics.extend(ms.iter().map(|(k, v)| (format!("{name}.{k}"), v.clone())));
        }
    }
    let _ = std::fs::remove_file(&scratch);
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(all_ok && failed == 0)),
        ("attempted".into(), Value::UInt(attempted.max(1))),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{summary}");
    Ok(ExitCode::from(u8::from(!(all_ok && failed == 0))))
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let Some(workload) = args.workload.clone() else {
        return run_all(&args);
    };
    let outcome = runner::run(&RunOpts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        shrink: 1,
        setup_reps: 3,
    })?;
    report(&outcome, args.out.as_deref())?;
    Ok(ExitCode::from(outcome.exit_code()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare::compare(BENCHMARK_JSON, &args[1..])
            .map(|clean| ExitCode::from(u8::from(!clean))),
        Some("selftest") => selftest::selftest().map(|ok| ExitCode::from(u8::from(!ok))),
        Some("-h" | "--help" | "help") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("expected `run`, `compare` or `selftest`".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hbench: {e}\n\n{USAGE}");
        ExitCode::from(2)
    })
}
