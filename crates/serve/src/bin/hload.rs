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
use hopper_obs::cli::{self, Args, Flag, Spec};
use hopper_obs::json::obj;
use hopper_obs::log::{self, Level};
use hopper_serve::protocol::ReportKind;
use hopper_serve::server::device_config;
use hopper_serve::{Client, RunSpec, DEFAULT_ADDR};
use hopper_sim::DeviceConfig;
use serde_json::Value;
use std::process::ExitCode;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "hload",
    about: "Poisson load generator for the hsimd `infer` report",
    flags: &[
        Flag::value("addr", "HOST:PORT", "hsimd address (default 127.0.0.1:7077)"),
        Flag::switch("local", "simulate in-process instead of through a daemon"),
        Flag::value("device", "NAME", "h800 | a100 | rtx4090 (default h800)"),
        Flag::value("scenario", "FILE", "base scenario JSON (`-` reads stdin), under the flags below"),
        Flag::value("model", "NAME", "llama-3b | llama2-7b | llama2-13b"),
        Flag::value("precision", "P", "fp32 | fp16 | bf16 | fp8"),
        Flag::value("mode", "M", "continuous | disaggregated"),
        Flag::value("tp", "N", "tensor-parallel degree (1-8)"),
        Flag::value("requests", "N", "requests per point"),
        Flag::value("seed", "N", "workload seed"),
        Flag::value("max-seqs", "N", "resident-sequence cap"),
        Flag::value("qps", "LIST", "comma-separated arrival rates, each at least 0.001 req/s"),
        Flag::switch("pretty", "pretty-print the output JSON"),
    ],
    ..Spec::NONE
};

/// Set `key` in the scenario object, replacing any earlier spelling.
fn set(fields: &mut Vec<(String, Value)>, key: &str, v: Value) {
    fields.retain(|(k, _)| k != key);
    fields.push((key.to_string(), v));
}

/// The base scenario: `--scenario`'s object with the field flags on top.
fn base_scenario(args: &Args) -> Result<InferScenario, String> {
    let mut fields = Vec::new();
    if let Some(path) = args.value::<String>("scenario") {
        let text = cli::read_input(&path)?;
        match serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))? {
            Value::Object(given) => fields = given,
            _ => return Err(format!("{path}: scenario must be a JSON object")),
        }
    }
    // Each field flag names its scenario key, with `-` as `_`.
    for flag in ["model", "precision", "mode"] {
        if let Some(v) = args.value(flag) {
            set(&mut fields, flag, Value::Str(v));
        }
    }
    for flag in ["tp", "requests", "seed", "max-seqs"] {
        if let Some(n) = args.value(flag) {
            set(&mut fields, &flag.replace('-', "_"), Value::UInt(n));
        }
    }
    InferScenario::parse(&Value::Object(fields))
}

/// Simulate one point in-process, producing the same payload the daemon
/// renders for the `infer` report kind.
fn run_local(scn: &InferScenario, dev: &DeviceConfig) -> Result<Value, String> {
    hopper_infer::run(scn, dev, &InferBudget::default(), None)
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
    let args = Args::from_env(&SPEC);
    let device: String = args.value("device").unwrap_or_else(|| "h800".into());
    let dev =
        device_config(&device).unwrap_or_else(|| args.fail(format!("unknown device `{device}`")));
    let base = base_scenario(&args).unwrap_or_else(|e| args.fail(e));
    let qps: Vec<f64> = args.value("qps").unwrap_or_else(|| vec![base.qps]);
    let sweep: Vec<f64> = qps
        .into_iter()
        .map(|q| check_qps(q).unwrap_or_else(|e| args.fail(format!("--qps: {e}"))))
        .collect();
    let addr: String = args.value("addr").unwrap_or_else(|| DEFAULT_ADDR.into());
    let client = Client::new(addr);
    let mut points: Vec<Value> = Vec::new();
    let mut failed = false;
    for q in &sweep {
        let mut scn = base.clone();
        scn.qps = *q;
        let outcome = if args.switch("local") {
            run_local(&scn, &dev)
        } else {
            run_daemon(&client, &scn.to_value(), &device)
        };
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                log::event(Level::Error, "hload", "point failed")
                    .str("device", &device)
                    .str("detail", &e)
                    .emit();
                failed = true;
                Value::Str(e)
            }
        };
        points.push(obj(vec![("qps", Value::Float(*q)), ("report", report)]));
    }
    let doc = obj(vec![
        ("device", Value::Str(device)),
        ("points", Value::Array(points)),
        // The resolved base scenario (qps varies per point).
        ("scenario", base.to_value()),
    ]);
    match args
        .switch("pretty")
        .then(|| serde_json::to_string_pretty(&doc))
    {
        Some(Ok(s)) => println!("{s}"),
        _ => println!("{doc}"),
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
