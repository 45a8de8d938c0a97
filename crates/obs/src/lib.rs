//! hopper-obs: the observability substrate of the workspace.
//!
//! The paper's methodology is "measure everything, attribute
//! everything"; `hopper-trace` and `hopper-prof` apply that to
//! *simulated* time.  This crate applies it to *wall-clock* time and
//! service behaviour — the serving tier (`hsimd`), the profiler's render
//! paths and the engine's host-side run phases all report here.
//!
//! Six pieces, plain `std` plus vendored `serde`'s `Value` tree:
//!
//! * [`Histogram`] — a lock-free log2-bucket histogram with a
//!   *single-pass* [`HistogramSnapshot`] (bucket counts, their sum and
//!   the value sum are read in one sweep, so a snapshot can never show a
//!   total that disagrees with its own buckets).
//! * [`Registry`] — named counters/gauges/histograms with sorted label
//!   sets, rendered as deterministic Prometheus text exposition
//!   ([`Registry::render`]) and parseable back ([`expo::parse`]).
//! * [`log`] — leveled structured JSON logging on stderr, filtered by
//!   the `HOPPER_LOG` environment variable, with a capture sink for
//!   tests asserting on log contents.
//! * [`span::Timeline`] — per-request stage timelines (name, start,
//!   duration) anchored at accept time, plus [`corr::mint`] for the
//!   correlation ids that tie a response envelope to its log lines.
//! * [`cli`] — the one command-line parser: each bin declares its flags
//!   in a `const` table that yields both the parse and the `--help`, and
//!   reports usage errors as a [`log`] event.
//! * [`json::obj`] — the one sorted-key object builder behind every
//!   report, response and log line.
//!
//! ```
//! use hopper_obs::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache_ops_total", "Cache operations.", &[("result", "hit")]);
//! hits.inc();
//! let lat = reg.histogram("request_us", "Request latency.", &[]);
//! lat.record(130);
//! let text = reg.render();
//! assert!(text.contains(r#"cache_ops_total{result="hit"} 1"#));
//! assert!(text.contains("# TYPE request_us histogram"));
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod corr;
pub mod expo;
pub mod hist;
pub mod json;
pub mod log;
pub mod registry;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot, N_BUCKETS};
pub use log::Level;
pub use registry::{Counter, Gauge, Registry};
pub use span::{Stage, Timeline};
