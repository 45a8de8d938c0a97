//! Deterministic serving reports.
//!
//! Every float in the report is rounded to six decimals before JSON
//! rendering, and every object is built through the sorted-key helper,
//! so a fixed scenario produces byte-identical JSON on every run — the
//! property the daemon's cache digest and the audit oracle verify.

use hopper_obs::json::obj;
use serde_json::Value;

/// Round to six decimals for stable, compact JSON.
pub(crate) fn round6(x: f64) -> f64 {
    if x.is_finite() {
        (x * 1e6).round() / 1e6
    } else {
        x
    }
}

/// A bijection onto integers whose order is `f64::total_cmp`'s: for
/// finite values the `partial_cmp` order, except that -0 sorts before +0
/// (simulated times and latencies are never -0).  Sorting these integers
/// is faster than sorting floats with a comparator.
pub(crate) fn order_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 1 << 63)
}

/// The inverse of [`order_key`].
pub(crate) fn from_order_key(k: u64) -> f64 {
    f64::from_bits(k ^ (((!k as i64 >> 63) as u64) | 1 << 63))
}

/// Latency summary in milliseconds (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Summarise `values` (any unit — the caller scales).  Empty input
    /// yields all-zero.
    pub fn from_values(values: Vec<f64>) -> Percentiles {
        let n = values.len();
        if n == 0 {
            return Percentiles::default();
        }
        debug_assert!(values.iter().all(|x| x.is_finite()), "finite latencies");
        // Sorted in place as integer keys.  Exact: equal keys are
        // bitwise-equal values, so the unstable sort yields the sequence
        // a stable `partial_cmp` sort does — and the mean summed over it.
        let mut keys: Vec<u64> = values.into_iter().map(order_key).collect();
        keys.sort_unstable();
        let rank = |q: f64| -> f64 {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            from_order_key(keys[idx])
        };
        Percentiles {
            mean: keys.iter().map(|&k| from_order_key(k)).sum::<f64>() / n as f64,
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
        }
    }

    fn to_value(self) -> Value {
        obj(vec![
            ("mean", Value::Float(round6(self.mean))),
            ("p50", Value::Float(round6(self.p50))),
            ("p90", Value::Float(round6(self.p90))),
            ("p99", Value::Float(round6(self.p99))),
        ])
    }
}

/// Result of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReport {
    /// `"ok"`, `"oom"` or `"unsupported"`.
    pub outcome: &'static str,
    /// Failure description when `outcome != "ok"`, else empty.
    pub detail: String,
    /// Echo of the scenario (model wire name).
    pub model: String,
    /// Echo of the scenario (precision wire name).
    pub precision: &'static str,
    /// Echo of the scenario (mode wire name).
    pub mode: &'static str,
    /// Tensor-parallel degree per engine.
    pub tp: u32,
    /// Total GPUs (tp, or 2·tp when disaggregated).
    pub gpus: u32,
    /// Requests submitted.
    pub requests: u32,
    /// Requests finished (== submitted on `"ok"`).
    pub completed: u32,
    /// Sequences preempted (pages reclaimed, prefill redone).
    pub preempted: u64,
    /// Scheduler iterations, total and by phase.
    pub iterations: u64,
    /// Prefill-only iterations.
    pub prefill_iterations: u64,
    /// Decode-only iterations.
    pub decode_iterations: u64,
    /// Mixed prefill+decode iterations.
    pub mixed_iterations: u64,
    /// Simulated wall-clock seconds to drain the workload.
    pub sim_seconds: f64,
    /// Prompt tokens processed.
    pub tokens_in: u64,
    /// Output tokens generated.
    pub tokens_out: u64,
    /// (in+out) tokens per simulated second.
    pub tokens_per_s: f64,
    /// Output tokens per simulated second.
    pub decode_tokens_per_s: f64,
    /// Total energy, joules (dynamic + idle across all GPUs).
    pub energy_j: f64,
    /// (in+out) tokens per joule.
    pub tokens_per_joule: f64,
    /// Mean board power per GPU, watts.
    pub avg_power_w: f64,
    /// Worst DVFS ratio seen (1.0 = never throttled).
    pub min_clock_ratio: f64,
    /// KV pool capacity, pages (per engine; decode engine when
    /// disaggregated).
    pub kv_pages: u64,
    /// KV pool high-water mark, pages.
    pub kv_pages_peak: u64,
    /// Tokens per KV page.
    pub kv_page_tokens: u32,
    /// Time to first token, milliseconds.
    pub ttft_ms: Percentiles,
    /// Time per output token (steady decode), milliseconds.
    pub tpot_ms: Percentiles,
    /// End-to-end request latency, milliseconds.
    pub e2e_ms: Percentiles,
}

impl InferReport {
    /// A failed report (`"oom"` / `"unsupported"`): the scenario cannot
    /// run on the device, with `detail` naming the reason.
    #[allow(clippy::too_many_arguments)]
    pub fn failed(
        outcome: &'static str,
        model: &str,
        precision: &'static str,
        mode: &'static str,
        tp: u32,
        gpus: u32,
        requests: u32,
        kv_page_tokens: u32,
        detail: String,
    ) -> InferReport {
        debug_assert!(matches!(outcome, "oom" | "unsupported"));
        InferReport {
            outcome,
            detail,
            model: model.to_string(),
            precision,
            mode,
            tp,
            gpus,
            requests,
            completed: 0,
            preempted: 0,
            iterations: 0,
            prefill_iterations: 0,
            decode_iterations: 0,
            mixed_iterations: 0,
            sim_seconds: 0.0,
            tokens_in: 0,
            tokens_out: 0,
            tokens_per_s: 0.0,
            decode_tokens_per_s: 0.0,
            energy_j: 0.0,
            tokens_per_joule: 0.0,
            avg_power_w: 0.0,
            min_clock_ratio: 1.0,
            kv_pages: 0,
            kv_pages_peak: 0,
            kv_page_tokens,
            ttft_ms: Percentiles::default(),
            tpot_ms: Percentiles::default(),
            e2e_ms: Percentiles::default(),
        }
    }

    /// Sorted-key JSON rendering.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("avg_power_w", Value::Float(round6(self.avg_power_w))),
            ("completed", Value::UInt(self.completed as u64)),
            ("decode_iterations", Value::UInt(self.decode_iterations)),
            (
                "decode_tokens_per_s",
                Value::Float(round6(self.decode_tokens_per_s)),
            ),
            ("detail", Value::Str(self.detail.clone())),
            ("e2e_ms", self.e2e_ms.to_value()),
            ("energy_j", Value::Float(round6(self.energy_j))),
            ("gpus", Value::UInt(self.gpus as u64)),
            ("iterations", Value::UInt(self.iterations)),
            ("kv_page_tokens", Value::UInt(self.kv_page_tokens as u64)),
            ("kv_pages", Value::UInt(self.kv_pages)),
            ("kv_pages_peak", Value::UInt(self.kv_pages_peak)),
            (
                "min_clock_ratio",
                Value::Float(round6(self.min_clock_ratio)),
            ),
            ("mixed_iterations", Value::UInt(self.mixed_iterations)),
            ("mode", Value::Str(self.mode.to_string())),
            ("model", Value::Str(self.model.clone())),
            ("outcome", Value::Str(self.outcome.to_string())),
            ("precision", Value::Str(self.precision.to_string())),
            ("preempted", Value::UInt(self.preempted)),
            ("prefill_iterations", Value::UInt(self.prefill_iterations)),
            ("requests", Value::UInt(self.requests as u64)),
            ("sim_seconds", Value::Float(round6(self.sim_seconds))),
            ("tokens_in", Value::UInt(self.tokens_in)),
            ("tokens_out", Value::UInt(self.tokens_out)),
            (
                "tokens_per_joule",
                Value::Float(round6(self.tokens_per_joule)),
            ),
            ("tokens_per_s", Value::Float(round6(self.tokens_per_s))),
            ("tp", Value::UInt(self.tp as u64)),
            ("tpot_ms", self.tpot_ms.to_value()),
            ("ttft_ms", self.ttft_ms.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::from_values(v);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p90, 90.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.mean, 50.5);
        // Single sample: every percentile is that sample.
        let one = Percentiles::from_values(vec![7.0]);
        assert_eq!((one.p50, one.p90, one.p99, one.mean), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(Percentiles::from_values(Vec::new()), Percentiles::default());
    }

    #[test]
    fn key_sort_matches_a_stable_partial_cmp_sort() {
        // Many ties (including +0) among a few distinct values, plus
        // wide-ranging and negative finite ones.
        let mut v: Vec<f64> = (0..1000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) % 7) as f64 * 0.1)
            .collect();
        v.extend([
            f64::MAX,
            -f64::MAX,
            5e-324,
            -5e-324,
            -1.5,
            1e300,
            f64::MIN_POSITIVE,
        ]);
        let mut stable = v.clone();
        stable.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut keys: Vec<u64> = v.iter().map(|&x| order_key(x)).collect();
        keys.sort_unstable();
        let keyed: Vec<u64> = keys.iter().map(|&k| from_order_key(k).to_bits()).collect();
        let bits: Vec<u64> = stable.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, keyed);
        let p = Percentiles::from_values(v);
        let mean = stable.iter().sum::<f64>() / stable.len() as f64;
        assert_eq!(p.mean.to_bits(), mean.to_bits());
    }

    #[test]
    fn json_keys_are_sorted_and_stable() {
        let r = InferReport::failed(
            "oom",
            "llama2-7b",
            "fp32",
            "continuous",
            1,
            1,
            8,
            16,
            "w".into(),
        );
        let v = r.to_json();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(v.to_string(), r.to_json().to_string());
    }

    #[test]
    fn round6_truncates_noise() {
        assert_eq!(round6(1.23456789), 1.234568);
        assert_eq!(round6(0.1 + 0.2), 0.3);
    }
}
