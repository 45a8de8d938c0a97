//! `hload` — open-loop Poisson load generator for the serving simulator.
//!
//! Sweeps a base infer scenario across one or more arrival rates and
//! emits a single sorted-key JSON document of `{qps, report}` points,
//! so throughput/latency curves (tokens/s, TTFT/TPOT percentiles) come
//! out of one invocation.  Two backends:
//!
//! * default: submit each point to a running `hsimd` through the
//!   `infer` report kind (exercising queue, cache and metrics);
//! * `--local`: call `hopper_infer::run` in-process — no daemon needed,
//!   byte-identical payloads to what the daemon would return.
//!
//! Exit codes: 0 = every point ok, 1 = a point failed (OOM/unsupported
//! scenarios still count as ok — they are reports, not failures),
//! 2 = usage or transport error.

use hopper_infer::{check_qps, InferBudget, InferScenario};
use hopper_obs::log::{self, Level};
use hopper_serve::protocol::ReportKind;
use hopper_serve::server::device_config;
use hopper_serve::{Client, RunSpec};
use serde_json::Value;
use std::process::ExitCode;

const USAGE: &str = "\
hload -- Poisson load generator for the hsimd `infer` report

USAGE:
    hload [OPTIONS]

OPTIONS:
    --addr HOST:PORT   hsimd address (default 127.0.0.1:7077)
    --local            simulate in-process instead of through a daemon
    --device NAME      h800 | a100 | rtx4090 (default h800)
    --scenario FILE    base scenario JSON (`-` reads stdin); flag
                       overrides below are applied on top
    --model NAME       llama-3b | llama2-7b | llama2-13b
    --precision P      fp32 | fp16 | bf16 | fp8
    --mode M           continuous | disaggregated
    --tp N             tensor-parallel degree (1-8)
    --requests N       requests per point
    --seed N           workload seed
    --max-seqs N       resident-sequence cap
    --qps LIST         comma-separated arrival rates to sweep, each at
                       least 0.001 req/s (default: the scenario's qps,
                       single point)
    --pretty           pretty-print the output JSON
    -h, --help         print this help
";

struct Cli {
    addr: String,
    local: bool,
    device: String,
    base: Vec<(String, Value)>,
    qps: Vec<f64>,
    pretty: bool,
}

/// Set `key` in the scenario object, replacing any earlier spelling.
fn set(fields: &mut Vec<(String, Value)>, key: &str, v: Value) {
    fields.retain(|(k, _)| k != key);
    fields.push((key.to_string(), v));
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7077".to_string(),
        local: false,
        device: "h800".to_string(),
        base: Vec::new(),
        qps: Vec::new(),
        pretty: false,
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        let parse_n = |flag: &str, val: &str| -> Result<u64, String> {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: `{val}` is not a non-negative integer"))
        };
        match a {
            "-h" | "--help" => return Ok(None),
            "--addr" => cli.addr = value(&mut i)?,
            "--local" => cli.local = true,
            "--pretty" => cli.pretty = true,
            "--device" => cli.device = value(&mut i)?,
            "--scenario" => {
                let path = value(&mut i)?;
                let text = if path == "-" {
                    let mut text = String::new();
                    std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                        .map_err(|e| format!("reading stdin: {e}"))?;
                    text
                } else {
                    std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?
                };
                let v: Value = serde_json::from_str(&text)
                    .map_err(|e| format!("{path}: invalid JSON: {e}"))?;
                match v {
                    Value::Object(fields) => {
                        for (k, val) in fields {
                            set(&mut cli.base, &k, val);
                        }
                    }
                    _ => return Err(format!("{path}: scenario must be a JSON object")),
                }
            }
            "--model" => {
                let v = value(&mut i)?;
                set(&mut cli.base, "model", Value::Str(v));
            }
            "--precision" => {
                let v = value(&mut i)?;
                set(&mut cli.base, "precision", Value::Str(v));
            }
            "--mode" => {
                let v = value(&mut i)?;
                set(&mut cli.base, "mode", Value::Str(v));
            }
            "--tp" => {
                let n = parse_n(a, &value(&mut i)?)?;
                set(&mut cli.base, "tp", Value::UInt(n));
            }
            "--requests" => {
                let n = parse_n(a, &value(&mut i)?)?;
                set(&mut cli.base, "requests", Value::UInt(n));
            }
            "--seed" => {
                let n = parse_n(a, &value(&mut i)?)?;
                set(&mut cli.base, "seed", Value::UInt(n));
            }
            "--max-seqs" => {
                let n = parse_n(a, &value(&mut i)?)?;
                set(&mut cli.base, "max_seqs", Value::UInt(n));
            }
            "--qps" => {
                let list = value(&mut i)?;
                for part in list.split(',') {
                    let q: f64 = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("--qps: `{part}` is not a number"))?;
                    cli.qps
                        .push(check_qps(q).map_err(|e| format!("--qps: {e}"))?);
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(Some(cli))
}

/// Simulate one point in-process, producing the same payload the daemon
/// renders for the `infer` report kind.
fn run_local(scn: &InferScenario, device: &str) -> Result<Value, String> {
    let dev = device_config(device)
        .ok_or_else(|| format!("unknown device {device:?} (expected h800, a100 or rtx4090)"))?;
    hopper_infer::run(scn, &dev, &InferBudget::default(), None)
        .map(|r| r.to_json())
        .map_err(|e| format!("{e:?}"))
}

/// Submit one point to the daemon and unwrap its result payload.
fn run_daemon(client: &Client, scenario: &Value, device: &str) -> Result<Value, String> {
    let mut spec = RunSpec::new(String::new(), device, 1, 1);
    spec.report = ReportKind::Infer;
    spec.infer = Some(scenario.clone());
    let line = client.run(&spec).map_err(|e| e.to_string())?;
    let v: Value = serde_json::from_str(&line).map_err(|e| format!("bad response: {e}"))?;
    match v.get("status").and_then(|s| s.as_str()) {
        Some("ok") => v
            .get("result")
            .cloned()
            .ok_or_else(|| "response missing `result`".to_string()),
        _ => Err(v
            .get("error")
            .map(|e| e.to_string())
            .unwrap_or_else(|| line.clone())),
    }
}

fn main() -> ExitCode {
    log::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Some(cli)) => cli,
        Err(e) => {
            log::event(Level::Error, "hload", "invalid arguments")
                .str("detail", &e)
                .emit();
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Validate the base scenario once before sweeping.
    let base = match InferScenario::parse(&Value::Object(cli.base.clone())) {
        Ok(s) => s,
        Err(e) => {
            log::event(Level::Error, "hload", "invalid scenario")
                .str("detail", &e)
                .emit();
            return ExitCode::from(2);
        }
    };
    let sweep: Vec<f64> = if cli.qps.is_empty() {
        vec![base.qps]
    } else {
        cli.qps.clone()
    };
    let client = Client::new(cli.addr.clone());
    let mut points: Vec<Value> = Vec::new();
    let mut failed = false;
    for q in &sweep {
        let mut scn = base.clone();
        scn.qps = *q;
        let outcome = if cli.local {
            run_local(&scn, &cli.device)
        } else {
            run_daemon(&client, &scn.to_value(), &cli.device)
        };
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                log::event(Level::Error, "hload", "point failed")
                    .str("device", &cli.device)
                    .str("detail", &e)
                    .emit();
                failed = true;
                Value::Str(e)
            }
        };
        points.push(Value::Object(vec![
            ("qps".to_string(), Value::Float(*q)),
            ("report".to_string(), report),
        ]));
    }
    let doc = Value::Object(vec![
        ("device".to_string(), Value::Str(cli.device.clone())),
        ("points".to_string(), Value::Array(points)),
        // The resolved base scenario (qps varies per point).
        ("scenario".to_string(), base.to_value()),
    ]);
    if cli.pretty {
        match serde_json::to_string_pretty(&doc) {
            Ok(s) => println!("{s}"),
            Err(_) => println!("{doc}"),
        }
    } else {
        println!("{doc}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
