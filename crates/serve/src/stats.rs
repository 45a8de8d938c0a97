//! Daemon observability: request counters, per-stage latency histograms
//! and worker utilization, rendered as sorted-key JSON by the `stats`
//! endpoint.
//!
//! Counters and histograms are `hopper-obs` handles.  When the daemon
//! runs with observability on, [`ServeStats::registered`] wires every
//! handle to a named series in the metric registry — the `stats` JSON
//! and the Prometheus `metrics` exposition then read the *same atomics*,
//! so the two endpoints can never disagree.
//!
//! Histogram reads go through [`hopper_obs::Histogram::snapshot`] — one
//! sweep of the bucket array per histogram, so a snapshot's derived
//! count always equals the sum of the buckets it reports.  (The previous
//! local histogram read `count()` and the bucket JSON in two separate
//! passes over the live atomics and could tear under concurrent
//! recording.)

use crate::cache::CacheCounters;
use hopper_obs::json::obj;
use hopper_obs::{Counter, Histogram, HistogramSnapshot, Registry};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

/// log2 microsecond buckets: bucket `b` holds latencies in
/// `[2^(b-1), 2^b)` µs (bucket 0 = sub-microsecond), topping out above
/// ten seconds.
pub const N_LATENCY_BUCKETS: usize = hopper_obs::N_BUCKETS;

/// Help text of the per-stage histogram family (shared with the worker
/// and connection threads, which record the stages not tracked here).
pub const STAGE_HELP: &str = "Request stage duration, microseconds.";

const REQUEST_HELP: &str = "End-to-end run request duration, microseconds.";

/// All daemon counters (shared across connection and worker threads).
#[derive(Debug)]
pub struct ServeStats {
    started: Instant,
    /// `run` requests received (any outcome).
    pub requests_total: Counter,
    /// `run` requests answered `status:"ok"`.
    pub requests_ok: Counter,
    /// `run` requests answered `status:"error"`.
    pub requests_error: Counter,
    /// Rejections due to a full queue (subset of `requests_error`).
    pub queue_rejected: Counter,
    /// Deadline/budget aborts (subset of `requests_error`).
    pub deadline_exceeded: Counter,
    /// Cumulative worker busy time, µs.
    pub worker_busy_us: Counter,
    /// Kernel-text assembly latency (`stage="assemble"`).
    pub lat_assemble: Arc<Histogram>,
    /// Enqueue → dequeue wait (`stage="queue"`).
    pub lat_queue_wait: Arc<Histogram>,
    /// Simulation (launch → raw result) latency (`stage="simulate"`).
    pub lat_sim: Arc<Histogram>,
    /// End-to-end latency of cache-hit responses (`path="cached"`).
    pub lat_cache_hit: Arc<Histogram>,
    /// End-to-end latency of every `run` response (`path="all"`).
    pub lat_total: Arc<Histogram>,
}

impl ServeStats {
    /// Handles wired to named series in `reg`; `started` anchors
    /// worker-utilization uptime.
    pub fn registered(reg: &Registry) -> Self {
        ServeStats {
            started: Instant::now(),
            requests_total: reg.counter(
                "hsimd_run_requests_total",
                "Run requests received (any outcome).",
                &[],
            ),
            requests_ok: reg.counter(
                "hsimd_run_responses_total",
                "Run responses by envelope status.",
                &[("status", "ok")],
            ),
            requests_error: reg.counter(
                "hsimd_run_responses_total",
                "Run responses by envelope status.",
                &[("status", "error")],
            ),
            queue_rejected: reg.counter(
                "hsimd_queue_rejected_total",
                "Run requests rejected because the job queue was full.",
                &[],
            ),
            deadline_exceeded: reg.counter(
                "hsimd_deadline_exceeded_total",
                "Runs aborted by a cycle budget or wall deadline.",
                &[],
            ),
            worker_busy_us: reg.counter(
                "hsimd_worker_busy_us_total",
                "Cumulative worker busy time, microseconds.",
                &[],
            ),
            lat_assemble: reg.histogram(
                "hsimd_stage_duration_us",
                STAGE_HELP,
                &[("stage", "assemble")],
            ),
            lat_queue_wait: reg.histogram(
                "hsimd_stage_duration_us",
                STAGE_HELP,
                &[("stage", "queue")],
            ),
            lat_sim: reg.histogram(
                "hsimd_stage_duration_us",
                STAGE_HELP,
                &[("stage", "simulate")],
            ),
            lat_cache_hit: reg.histogram(
                "hsimd_request_duration_us",
                REQUEST_HELP,
                &[("path", "cached")],
            ),
            lat_total: reg.histogram(
                "hsimd_request_duration_us",
                REQUEST_HELP,
                &[("path", "all")],
            ),
        }
    }

    /// Stats-endpoint snapshot (sorted keys; counter values are
    /// inherently racy but each histogram is one consistent sweep).
    pub fn snapshot(
        &self,
        cache: CacheCounters,
        queue_depth: usize,
        queue_capacity: usize,
        workers: usize,
    ) -> Value {
        let uptime_us = self.started.elapsed().as_micros() as u64;
        let busy_us = self.worker_busy_us.get();
        let util_pct = if uptime_us == 0 || workers == 0 {
            0.0
        } else {
            busy_us as f64 / (uptime_us as f64 * workers as f64) * 100.0
        };
        let hit_rate_pct = if cache.hits + cache.misses == 0 {
            0.0
        } else {
            cache.hits as f64 / (cache.hits + cache.misses) as f64 * 100.0
        };
        obj(vec![
            (
                "cache",
                obj(vec![
                    ("capacity", Value::UInt(cache.capacity as u64)),
                    ("entries", Value::UInt(cache.entries as u64)),
                    ("evictions", Value::UInt(cache.evictions)),
                    ("hit_rate_pct", Value::Float(hit_rate_pct)),
                    ("hits", Value::UInt(cache.hits)),
                    ("misses", Value::UInt(cache.misses)),
                ]),
            ),
            (
                "latency_us",
                obj(vec![
                    ("assemble", hist_to_json(&self.lat_assemble.snapshot())),
                    ("cache_hit", hist_to_json(&self.lat_cache_hit.snapshot())),
                    ("queue_wait", hist_to_json(&self.lat_queue_wait.snapshot())),
                    ("sim", hist_to_json(&self.lat_sim.snapshot())),
                    ("total", hist_to_json(&self.lat_total.snapshot())),
                ]),
            ),
            (
                "queue",
                obj(vec![
                    ("capacity", Value::UInt(queue_capacity as u64)),
                    ("depth", Value::UInt(queue_depth as u64)),
                    ("rejected", Value::UInt(self.queue_rejected.get())),
                ]),
            ),
            (
                "requests",
                obj(vec![
                    (
                        "deadline_exceeded",
                        Value::UInt(self.deadline_exceeded.get()),
                    ),
                    ("error", Value::UInt(self.requests_error.get())),
                    ("ok", Value::UInt(self.requests_ok.get())),
                    ("total", Value::UInt(self.requests_total.get())),
                ]),
            ),
            (
                "workers",
                obj(vec![
                    ("busy_us", Value::UInt(busy_us)),
                    ("count", Value::UInt(workers as u64)),
                    ("uptime_us", Value::UInt(uptime_us)),
                    ("utilization_pct", Value::Float(util_pct)),
                ]),
            ),
        ])
    }
}

/// Non-empty buckets as `{count, le_us}` objects in ascending order
/// (`le_us` is the bucket's exclusive upper bound in µs) — the wire
/// shape the `stats` endpoint has always used.
fn hist_to_json(snap: &HistogramSnapshot) -> Value {
    Value::Array(
        (0..N_LATENCY_BUCKETS)
            .filter_map(|b| {
                let count = snap.buckets[b];
                if count == 0 {
                    return None;
                }
                Some(obj(vec![
                    ("count", Value::UInt(count)),
                    ("le_us", Value::UInt(1u64 << b)),
                ]))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_microseconds() {
        let h = Histogram::default();
        h.record(0); // bucket 0: < 1 µs
        h.record(1); // bucket 1: [1, 2)
        h.record(3); // bucket 2: [2, 4)
        h.record(3);
        h.record(u64::MAX); // clamped to the last bucket
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        let arr = hist_to_json(&snap);
        let buckets = arr.as_array().unwrap();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].get("le_us").unwrap().as_u64(), Some(1));
        assert_eq!(buckets[2].get("count").unwrap().as_u64(), Some(2));
        assert_eq!(buckets[2].get("le_us").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn snapshot_shape() {
        let s = ServeStats::registered(&Registry::new());
        s.requests_total.add(3);
        s.lat_total.record(10);
        let v = s.snapshot(
            CacheCounters {
                entries: 1,
                capacity: 8,
                hits: 2,
                misses: 2,
                evictions: 0,
            },
            1,
            16,
            2,
        );
        for key in ["cache", "latency_us", "queue", "requests", "workers"] {
            assert!(v.get(key).is_some(), "missing section {key}");
        }
        assert_eq!(
            v.get("cache")
                .unwrap()
                .get("hit_rate_pct")
                .unwrap()
                .as_f64(),
            Some(50.0)
        );
        assert_eq!(
            v.get("requests").unwrap().get("total").unwrap().as_u64(),
            Some(3)
        );
        // Keys sorted at the top level.
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn registered_stats_share_atomics_with_the_registry() {
        let reg = Registry::new();
        let s = ServeStats::registered(&reg);
        s.requests_total.inc();
        s.requests_ok.inc();
        s.lat_sim.record(100);
        let doc = hopper_obs::expo::parse(&reg.render()).unwrap();
        assert_eq!(doc.value("hsimd_run_requests_total", &[]), Some(1.0));
        assert_eq!(
            doc.value("hsimd_run_responses_total", &[("status", "ok")]),
            Some(1.0)
        );
        assert_eq!(
            doc.value("hsimd_stage_duration_us_count", &[("stage", "simulate")]),
            Some(1.0)
        );
        // Two ServeStats on the same registry share series (idempotent
        // registration), so a restart-free re-wire double-counts nothing.
        let s2 = ServeStats::registered(&reg);
        assert_eq!(s2.requests_total.get(), 1);
    }
}
