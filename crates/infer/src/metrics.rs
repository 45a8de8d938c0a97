//! `hsim_infer_*` registry families.
//!
//! The scheduler reports simulated quantities (iterations, tokens,
//! pages, per-iteration simulated microseconds) into the shared
//! `hopper-obs` registry so `hsimd` exports them over
//! `/metrics` and `hsim-top` renders a serving panel next to the
//! request-path stages.

use hopper_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Handles for every infer metric family.
#[derive(Clone)]
pub struct InferMetrics {
    /// Iterations by phase.
    pub prefill_iterations: Counter,
    /// Decode-only iterations.
    pub decode_iterations: Counter,
    /// Mixed prefill+decode iterations.
    pub mixed_iterations: Counter,
    /// Sequences preempted for KV pages.
    pub preemptions: Counter,
    /// Prompt tokens processed.
    pub tokens_prefill: Counter,
    /// Output tokens generated.
    pub tokens_decode: Counter,
    /// KV pages currently claimed (last engine to update wins).
    pub kv_pages_in_use: Gauge,
    /// Simulated iteration duration, µs, prefill phase.
    pub phase_prefill_us: Arc<Histogram>,
    /// Simulated iteration duration, µs, decode phase.
    pub phase_decode_us: Arc<Histogram>,
    /// Simulated iteration duration, µs, mixed phase.
    pub phase_mixed_us: Arc<Histogram>,
}

impl InferMetrics {
    /// Register (idempotently) against `reg`.
    pub fn register(reg: &Registry) -> InferMetrics {
        let iters = |phase| {
            reg.counter(
                "hsim_infer_iterations_total",
                "Serving scheduler iterations by phase",
                &[("phase", phase)],
            )
        };
        let tokens = |kind| {
            reg.counter(
                "hsim_infer_tokens_total",
                "Tokens processed by the serving simulator",
                &[("kind", kind)],
            )
        };
        let phase_us = |phase| {
            reg.histogram(
                "hsim_infer_phase_us",
                "Simulated iteration duration by phase, microseconds",
                &[("phase", phase)],
            )
        };
        InferMetrics {
            prefill_iterations: iters("prefill"),
            decode_iterations: iters("decode"),
            mixed_iterations: iters("mixed"),
            preemptions: reg.counter(
                "hsim_infer_preemptions_total",
                "Sequences preempted to reclaim KV pages",
                &[],
            ),
            tokens_prefill: tokens("prefill"),
            tokens_decode: tokens("decode"),
            kv_pages_in_use: reg.gauge(
                "hsim_infer_kv_pages_in_use",
                "KV cache pages currently allocated",
                &[],
            ),
            phase_prefill_us: phase_us("prefill"),
            phase_decode_us: phase_us("decode"),
            phase_mixed_us: phase_us("mixed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_render_and_accumulate() {
        let reg = Registry::new();
        let m = InferMetrics::register(&reg);
        m.prefill_iterations.inc();
        m.decode_iterations.add(3);
        m.preemptions.inc();
        m.tokens_prefill.add(128);
        m.kv_pages_in_use.set(42);
        m.phase_decode_us.record(1500);
        let text = reg.render();
        for needle in [
            "hsim_infer_iterations_total{phase=\"prefill\"} 1",
            "hsim_infer_iterations_total{phase=\"decode\"} 3",
            "hsim_infer_preemptions_total 1",
            "hsim_infer_tokens_total{kind=\"prefill\"} 128",
            "hsim_infer_kv_pages_in_use 42",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // Registration is idempotent: same handles, no duplicate families.
        let again = InferMetrics::register(&reg);
        again.prefill_iterations.inc();
        let text = reg.render();
        assert!(text.contains("hsim_infer_iterations_total{phase=\"prefill\"} 2"));
    }
}
