//! `hsimd` — the simulation service daemon.
//!
//! Binds a TCP listener, prints `hsimd listening on <addr>` (parsed by
//! scripts and tests to discover ephemeral ports), then serves until a
//! client sends the `shutdown` op.  `hsimd --help` lists the flags and
//! the `HOPPER_LOG` log filter.

use hopper_obs::cli::{Args, Flag, Spec};
use hopper_obs::log::{self, Level};
use hopper_serve::{Server, ServerConfig, DEFAULT_ADDR};
use std::io::Write;
use std::process::ExitCode;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "hsimd",
    about: "simulation-as-a-service daemon for hopper-sim",
    flags: &[
        Flag::value("addr", "HOST:PORT", "listen address (default 127.0.0.1:7077; port 0 = ephemeral)"),
        Flag::value("workers", "N", "simulation worker threads (default 2)"),
        Flag::value("queue-cap", "N", "bounded job-queue capacity (default 16)"),
        Flag::value("cache-cap", "N", "result-cache entries, 0 disables caching (default 64)"),
        Flag::value("deadline-ms", "MS", "default wall-clock deadline per run (default: none)"),
        Flag::value("max-cycles", "N", "default simulated-cycle budget per run (default: none)"),
    ],
    notes: "\
The daemon speaks newline-delimited JSON; see hsim-client or DESIGN.md
for the wire protocol.  It exits after a client sends {\"op\":\"shutdown\"},
draining already-queued jobs first.  Structured logs are JSON lines on
stderr, filtered by the HOPPER_LOG environment variable
(error|warn|info|debug|trace, or comma-separated target=level pairs).
",
    ..Spec::NONE
};

fn main() -> ExitCode {
    let args = Args::from_env(&SPEC);
    let d = ServerConfig::default();
    let cfg = ServerConfig {
        addr: args.value("addr").unwrap_or_else(|| DEFAULT_ADDR.into()),
        workers: args.value("workers").unwrap_or(d.workers),
        queue_cap: args.value("queue-cap").unwrap_or(d.queue_cap),
        cache_cap: args.value("cache-cap").unwrap_or(d.cache_cap),
        default_deadline_ms: args.value("deadline-ms"),
        default_max_cycles: args.value("max-cycles"),
        ..d
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
