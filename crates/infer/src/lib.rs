//! Serving-level LLM inference simulation over the calibrated
//! `hopper-te` operator costs.
//!
//! The paper's Transformer-Engine section (§IV-D, Table XII) stops at a
//! fixed batch-8 decode benchmark; the interesting FP8-vs-FP16 behaviour
//! only emerges at the *application* level, where a continuous-batching
//! scheduler mixes compute-bound prefill chunks with memory-bound decode
//! steps and the batch composition decides which precision wins.  This
//! crate rebuilds that layer:
//!
//! * [`scenario`] — the `infer` request payload: model, precision,
//!   tensor-parallel degree, scheduler mode, open-loop arrival rate and
//!   capacity knobs, with a canonical sorted-key JSON form whose bytes
//!   are the daemon's cache digest;
//! * [`kv`] — a paged KV-cache pool whose per-device capacity falls out
//!   of the same `Gpu::alloc` accounting that produces Table XII's OOM
//!   cells;
//! * [`tp`] — a ring all-reduce / point-to-point transfer cost model
//!   riding the calibrated DSM network tables (Hopper) with an L2-proxy
//!   fallback elsewhere;
//! * [`sched`] — the iteration-level simulator: continuous batching with
//!   chunked prefill and preemption, plus a disaggregated
//!   prefill/decode mode, with energy accounting through the power+DVFS
//!   model;
//! * [`report`] — deterministic sorted-key JSON reports (tokens/s,
//!   tokens/joule, TTFT/TPOT/e2e percentiles);
//! * [`metrics`] — `hsim_infer_*` registry families surfaced by
//!   `hsim-top`.

#![warn(missing_docs)]

pub mod kv;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod sched;
pub mod tp;

pub use kv::KvPool;
pub use metrics::InferMetrics;
pub use report::{InferReport, Percentiles};
pub use scenario::{check_qps, InferScenario, Mode, MIN_QPS};
// Re-exported so scenario builders don't need a hopper-te dependency.
pub use hopper_te::Precision;
pub use sched::{run, InferBudget, InferError};
pub use tp::TpModel;
