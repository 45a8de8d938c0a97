//! `hsim-client` — command-line client for the `hsimd` daemon.
//!
//! Exit codes: 0 = daemon answered `status:"ok"`, 1 = daemon answered
//! `status:"error"`, 2 = usage or transport failure.

use hopper_obs::cli::{self, Arg, Args, Flag, Spec};
use hopper_obs::log::{self, Level};
use hopper_serve::protocol::ReportKind;
use hopper_serve::{Client, RunSpec, DEFAULT_ADDR};
use serde_json::Value;
use std::process::ExitCode;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "hsim-client",
    about: "client for the hsimd simulation daemon",
    flags: &[
        Flag::value("addr", "HOST:PORT", "daemon address (default 127.0.0.1:7077)"),
        Flag::switch("pretty", "pretty-print the response JSON"),
    ],
    commands: &[
        Spec { name: "ping", about: "liveness probe", ..Spec::NONE },
        Spec { name: "stats", about: "daemon statistics snapshot", ..Spec::NONE },
        Spec { name: "metrics", about: "the daemon's Prometheus exposition, raw", ..Spec::NONE },
        Spec { name: "shutdown", about: "graceful shutdown (drains queued jobs)", ..Spec::NONE },
        Spec {
            name: "run",
            about: "simulate a kernel FILE, a captured --trace, or a --report infer scenario",
            args: &[Arg::optional("FILE", "kernel assembly; `-` reads stdin")],
            flags: &[
                Flag::value("trace", "FILE", "replay a trace; device, geometry and params from its header"),
                Flag::value("scenario", "FILE", "infer scenario JSON for --report infer (`-` reads stdin)"),
                Flag::value("device", "NAME", "h800 | a100 | rtx4090 (default h800)"),
                Flag::value("grid", "N", "blocks in the grid (default 1)"),
                Flag::value("block", "N", "threads per block (default 128)"),
                Flag::value("cluster", "N", "cluster size (default 1)"),
                Flag::value("param", "N", "kernel parameter, loaded into %r0.. in order").repeated(),
                Flag::value("report", "KIND", "stats | profile | infer (default stats)"),
                Flag::value("name", "NAME", "kernel name stamped into reports"),
                Flag::value("id", "ID", "correlation id echoed in the response"),
                Flag::value("max-cycles", "N", "simulated-cycle budget (infer: scheduler iterations)"),
                Flag::value("deadline-ms", "MS", "wall-clock deadline for this run"),
                Flag::switch("no-cache", "bypass the daemon's result cache"),
                Flag::switch("timings", "ask for the per-stage timeline in the response"),
            ],
            ..Spec::NONE
        },
    ],
    ..Spec::NONE
};

/// The `run` request the command line describes: the trace header (when
/// `--trace` is given) under the flags given explicitly.
fn run_spec(args: &Args) -> Result<RunSpec, String> {
    let mut spec = RunSpec::new(String::new(), "h800", 1, 128);
    if let Some(path) = args.value::<String>("trace") {
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let trace = hopper_replay::Trace::parse(&bytes).map_err(|e| format!("{path}: {e}"))?;
        // The wire carries the text encoding; a binary file is converted,
        // a text file rides verbatim (so its cache digest matches the
        // bytes on disk).
        spec.trace = Some(match String::from_utf8(bytes) {
            Ok(text) if !text.starts_with("HTRB") => text,
            _ => trace.to_text(),
        });
        spec.device = trace.header.device;
        spec.grid = trace.header.grid;
        spec.block = trace.header.block;
        spec.cluster = trace.header.cluster;
        spec.params = trace.header.params;
    }
    if let Some(file) = args.arg("FILE") {
        spec.kernel = cli::read_input(file)?;
    }
    spec.device = args.value("device").unwrap_or(spec.device);
    spec.grid = args.value("grid").unwrap_or(spec.grid);
    spec.block = args.value("block").unwrap_or(spec.block);
    spec.cluster = args.value("cluster").unwrap_or(spec.cluster);
    spec.params.extend(args.values::<u64>("param"));
    spec.name = args.value("name");
    spec.id = args.value("id");
    spec.max_cycles = args.value("max-cycles");
    spec.deadline_ms = args.value("deadline-ms");
    spec.no_cache = args.switch("no-cache");
    spec.timings = args.switch("timings");
    if let Some(kind) = args.value::<String>("report") {
        spec.report = ReportKind::parse(&kind)
            .ok_or_else(|| format!("--report: `{kind}` is not stats|profile|infer"))?;
    }
    if let Some(path) = args.value::<String>("scenario") {
        let text = cli::read_input(&path)?;
        let v = serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        spec.infer = Some(v);
    }
    if spec.report != ReportKind::Infer && spec.trace.is_none() && spec.kernel.is_empty() {
        return Err("run needs a kernel FILE (or `-` for stdin) or --trace FILE".to_string());
    }
    if spec.report != ReportKind::Infer && spec.infer.is_some() {
        return Err("--scenario requires --report infer".to_string());
    }
    Ok(spec)
}

fn main() -> ExitCode {
    let args = Args::from_env(&SPEC);
    let addr: String = args.value("addr").unwrap_or_else(|| DEFAULT_ADDR.into());
    let client = Client::new(addr.clone());
    let mut request_id = None;
    let sent = match args.command() {
        Some("ping") => client.ping(),
        Some("stats") => client.send_line(r#"{"op":"stats"}"#),
        Some("shutdown") => client.shutdown(),
        Some("metrics") => match client.metrics() {
            // The exposition is plain text, not JSON: print it raw.
            Ok(text) => {
                print!("{text}");
                return ExitCode::SUCCESS;
            }
            Err(e) => Err(e),
        },
        _ => {
            let spec = run_spec(&args).unwrap_or_else(|e| args.fail(e));
            request_id.clone_from(&spec.id);
            client.run(&spec)
        }
    };
    let line = match sent {
        Ok(line) => line,
        Err(e) => {
            log::event(Level::Error, "hsim_client", "transport failure")
                .str("addr", &addr)
                .str("id", request_id.as_deref().unwrap_or(""))
                .str("detail", &e.to_string())
                .emit();
            return ExitCode::from(2);
        }
    };
    let parsed: Option<Value> = serde_json::from_str(&line).ok();
    let pretty = parsed.as_ref().filter(|_| args.switch("pretty"));
    match pretty.map(serde_json::to_string_pretty) {
        Some(Ok(s)) => println!("{s}"),
        _ => println!("{line}"),
    }
    match parsed.as_ref().and_then(|v| v.get("status")) {
        Some(Value::Str(status)) if status == "ok" => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}
