//! `hsimd` — the simulation service daemon.
//!
//! Binds a TCP listener, prints `hsimd listening on <addr>` (parsed by
//! scripts and tests to discover ephemeral ports), then serves until a
//! client sends the `shutdown` op.  Structured JSON logs go to stderr;
//! filter them with `HOPPER_LOG` (e.g. `HOPPER_LOG=debug` or
//! `HOPPER_LOG=warn,hsimd=debug`).

use hopper_obs::log::{self, Level};
use hopper_serve::{Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
hsimd -- simulation-as-a-service daemon for hopper-sim

USAGE:
    hsimd [OPTIONS]

OPTIONS:
    --addr HOST:PORT   listen address (default 127.0.0.1:7077; port 0 = ephemeral)
    --workers N        simulation worker threads (default 2)
    --queue-cap N      bounded job-queue capacity (default 16)
    --cache-cap N      result-cache entries, 0 disables caching (default 64)
    --deadline-ms MS   default wall-clock deadline per run (default: none)
    --max-cycles N     default simulated-cycle budget per run (default: none)
    -h, --help         print this help

The daemon speaks newline-delimited JSON; see hsim-client or DESIGN.md
for the wire protocol.  It exits after a client sends {\"op\":\"shutdown\"},
draining already-queued jobs first.  Structured logs are JSON lines on
stderr, filtered by the HOPPER_LOG environment variable
(error|warn|info|debug|trace, or comma-separated target=level pairs).
";

fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7077".into(),
        ..ServerConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "-h" | "--help" => return Ok(None),
            "--addr" | "--workers" | "--queue-cap" | "--cache-cap" | "--deadline-ms"
            | "--max-cycles" => {
                i += 1;
                let val = args
                    .get(i)
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .as_str();
                let parse_n = || {
                    val.parse::<u64>()
                        .map_err(|_| format!("{flag}: `{val}` is not a non-negative integer"))
                };
                match flag {
                    "--addr" => cfg.addr = val.to_string(),
                    "--workers" => cfg.workers = parse_n()? as usize,
                    "--queue-cap" => cfg.queue_cap = parse_n()? as usize,
                    "--cache-cap" => cfg.cache_cap = parse_n()? as usize,
                    "--deadline-ms" => cfg.default_deadline_ms = Some(parse_n()?),
                    "--max-cycles" => cfg.default_max_cycles = Some(parse_n()?),
                    _ => unreachable!(),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    log::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Some(cfg)) => cfg,
        Err(e) => {
            log::event(Level::Error, "hsimd", "invalid arguments")
                .str("detail", &e)
                .emit();
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            log::event(Level::Error, "hsimd", "failed to start")
                .str("detail", &e.to_string())
                .emit();
            return ExitCode::FAILURE;
        }
    };
    println!("hsimd listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.join();
    println!("hsimd: drained and stopped");
    ExitCode::SUCCESS
}
