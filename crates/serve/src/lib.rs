//! hopper-serve: simulation-as-a-service for the Hopper-dissection
//! simulator.
//!
//! The `hsimd` daemon accepts newline-delimited JSON over TCP,
//! assembles submitted kernel text, runs it on a named device
//! (`h800`/`a100`/`rtx4090`) through `hopper-sim`, and answers with
//! deterministic JSON — either aggregate run statistics or a full
//! `hopper-prof` report.  Production concerns are modelled explicitly:
//! a bounded job queue with structured backpressure, a worker pool, a
//! per-request deadline reaper, a content-addressed LRU result cache,
//! and graceful drain on shutdown.  `hsim-client` is the matching CLI,
//! and `hsim-top` a live terminal dashboard over the daemon's metrics.
//!
//! Observability is built in (`hopper-obs`): every response envelope
//! carries a server-minted `corr_id` matching the daemon's structured
//! log lines, the `metrics` op (and a `GET /metrics` HTTP shim on the
//! same port) exports a deterministic Prometheus text exposition, and
//! requests can opt into a per-stage `timings` timeline.  Since
//! `corr_id`/`timings` vary per request, differential comparisons use
//! [`protocol::canonical_response`], which strips exactly those fields.
//!
//! ```no_run
//! use hopper_serve::{Client, RunSpec, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let client = Client::new(server.local_addr().to_string());
//! let resp = client.run(&RunSpec::new("exit;", "h800", 4, 128)).unwrap();
//! assert!(resp.contains("\"status\":\"ok\""));
//! server.shutdown();
//! server.join();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

pub use client::Client;
pub use protocol::{canonical_response, ReportKind, RunSpec};
pub use server::{Server, ServerConfig};

/// The address `hsimd` listens on, and its clients dial, when given none.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7077";
