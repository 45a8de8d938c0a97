//! The `infer` request payload.
//!
//! A scenario describes one serving experiment: which model at which
//! precision, how many GPUs cooperate (tensor parallelism), how the
//! scheduler is organised, and the open-loop arrival process.  The
//! device is deliberately *not* part of the scenario — it rides the
//! daemon's `RunSpec.device` field like every other report kind, so the
//! same scenario file can be replayed across H800/A100/RTX4090.
//!
//! [`InferScenario::canonical_json`] renders the scenario with every
//! default resolved and keys sorted; the daemon digests those bytes for
//! its result cache, so two spellings of the same experiment share a
//! cache entry.

use hopper_obs::json::obj;
use hopper_te::{LlmModel, Precision};
use serde_json::Value;

/// Scheduler organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One engine interleaves chunked prefill with decode at iteration
    /// granularity (vLLM-style continuous batching).
    Continuous,
    /// Prefill and decode run on separate `tp`-GPU engines; finished
    /// prompts ship their KV pages across the interconnect
    /// (DistServe/Splitwise-style disaggregation).
    Disaggregated,
}

impl Mode {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Continuous => "continuous",
            Mode::Disaggregated => "disaggregated",
        }
    }

    fn parse(s: &str) -> Option<Mode> {
        match s {
            "continuous" => Some(Mode::Continuous),
            "disaggregated" => Some(Mode::Disaggregated),
            _ => None,
        }
    }
}

/// A fully-resolved serving experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct InferScenario {
    /// Model wire name (`llama-3b`, `llama2-7b`, `llama2-13b`).
    pub model: String,
    /// Compute precision.
    pub precision: Precision,
    /// Tensor-parallel degree per engine (1–8).
    pub tp: u32,
    /// Scheduler organisation.
    pub mode: Mode,
    /// Open-loop Poisson arrival rate, requests/s (at least [`MIN_QPS`]).
    pub qps: f64,
    /// Number of requests to serve.
    pub requests: u32,
    /// Workload seed (ShareGPT-shaped synthesis + arrivals).
    pub seed: u64,
    /// Max sequences resident per engine iteration.
    pub max_seqs: u32,
    /// Prefill token budget per iteration (chunked prefill).
    pub max_batch_tokens: u32,
    /// Tokens per KV-cache page.
    pub kv_page_tokens: u32,
}

impl Default for InferScenario {
    fn default() -> Self {
        InferScenario {
            model: "llama2-7b".to_string(),
            precision: Precision::Fp16,
            tp: 1,
            mode: Mode::Continuous,
            qps: 50.0,
            requests: 64,
            seed: 1,
            max_seqs: 64,
            max_batch_tokens: 8192,
            kv_page_tokens: 16,
        }
    }
}

/// Lowest accepted arrival rate, requests/s.  The longest inter-arrival
/// gap the workload synthesiser can draw is `27.7 / qps` seconds, so at
/// this floor a million requests still arrive within ~3·10^10 s: every
/// arrival time, and every latency taken from one, stays finite.
pub const MIN_QPS: f64 = 1e-3;

/// Validate an arrival rate: finite and at least [`MIN_QPS`].  Every way
/// a rate enters a scenario (the `infer` payload, `hload --qps`) comes
/// through here.
pub fn check_qps(q: f64) -> Result<f64, String> {
    if q.is_finite() && q >= MIN_QPS {
        Ok(q)
    } else {
        Err(format!(
            "qps must be finite and at least {MIN_QPS}, got {q}"
        ))
    }
}

fn precision_parse(s: &str) -> Option<Precision> {
    match s {
        "fp32" => Some(Precision::Fp32),
        "fp16" => Some(Precision::Fp16),
        "bf16" => Some(Precision::Bf16),
        "fp8" => Some(Precision::Fp8),
        _ => None,
    }
}

fn precision_name(p: Precision) -> &'static str {
    match p {
        Precision::Fp32 => "fp32",
        Precision::Fp16 => "fp16",
        Precision::Bf16 => "bf16",
        Precision::Fp8 => "fp8",
    }
}

impl InferScenario {
    /// Resolve the model name to its shape.
    pub fn llm_model(&self) -> LlmModel {
        match self.model.as_str() {
            "llama-3b" => LlmModel::llama_3b(),
            "llama2-7b" => LlmModel::llama2_7b(),
            "llama2-13b" => LlmModel::llama2_13b(),
            // parse() guarantees one of the above.
            other => unreachable!("unvalidated model {other}"),
        }
    }

    /// Parse from the daemon's `infer` JSON object.  Unknown fields are
    /// rejected — a typo must not silently become a default (and alias a
    /// cache entry).
    pub fn parse(v: &Value) -> Result<InferScenario, String> {
        let fields = match v {
            Value::Object(fields) => fields,
            _ => return Err("infer must be an object".to_string()),
        };
        let mut s = InferScenario::default();
        for (k, val) in fields {
            match k.as_str() {
                "model" => {
                    let name = val.as_str().ok_or("model must be a string")?;
                    if !matches!(name, "llama-3b" | "llama2-7b" | "llama2-13b") {
                        return Err(format!(
                            "unknown model {name:?} (expected llama-3b, llama2-7b or llama2-13b)"
                        ));
                    }
                    s.model = name.to_string();
                }
                "precision" => {
                    let name = val.as_str().ok_or("precision must be a string")?;
                    s.precision = precision_parse(name).ok_or_else(|| {
                        format!("unknown precision {name:?} (expected fp32, fp16, bf16 or fp8)")
                    })?;
                }
                "mode" => {
                    let name = val.as_str().ok_or("mode must be a string")?;
                    s.mode = Mode::parse(name).ok_or_else(|| {
                        format!("unknown mode {name:?} (expected continuous or disaggregated)")
                    })?;
                }
                "tp" => {
                    let n = val.as_u64().ok_or("tp must be a positive integer")?;
                    if !(1..=8).contains(&n) {
                        return Err(format!("tp must be in 1..=8, got {n}"));
                    }
                    s.tp = n as u32;
                }
                "qps" => {
                    s.qps = check_qps(val.as_f64().ok_or("qps must be a number")?)?;
                }
                "requests" => {
                    let n = val.as_u64().ok_or("requests must be a positive integer")?;
                    if n == 0 || n > 1_000_000 {
                        return Err(format!("requests must be in 1..=1000000, got {n}"));
                    }
                    s.requests = n as u32;
                }
                "seed" => {
                    s.seed = val.as_u64().ok_or("seed must be a non-negative integer")?;
                }
                "max_seqs" => {
                    let n = val.as_u64().ok_or("max_seqs must be a positive integer")?;
                    if n == 0 || n > 4096 {
                        return Err(format!("max_seqs must be in 1..=4096, got {n}"));
                    }
                    s.max_seqs = n as u32;
                }
                "max_batch_tokens" => {
                    let n = val
                        .as_u64()
                        .ok_or("max_batch_tokens must be a positive integer")?;
                    if n == 0 || n > 1 << 20 {
                        return Err(format!("max_batch_tokens must be in 1..=2^20, got {n}"));
                    }
                    s.max_batch_tokens = n as u32;
                }
                "kv_page_tokens" => {
                    let n = val
                        .as_u64()
                        .ok_or("kv_page_tokens must be a positive integer")?;
                    if n == 0 || n > 1024 {
                        return Err(format!("kv_page_tokens must be in 1..=1024, got {n}"));
                    }
                    s.kv_page_tokens = n as u32;
                }
                other => return Err(format!("unknown infer field {other:?}")),
            }
        }
        Ok(s)
    }

    /// Sorted-key JSON with every default resolved.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("kv_page_tokens", Value::UInt(self.kv_page_tokens as u64)),
            (
                "max_batch_tokens",
                Value::UInt(self.max_batch_tokens as u64),
            ),
            ("max_seqs", Value::UInt(self.max_seqs as u64)),
            ("mode", Value::Str(self.mode.name().to_string())),
            ("model", Value::Str(self.model.clone())),
            (
                "precision",
                Value::Str(precision_name(self.precision).to_string()),
            ),
            ("qps", Value::Float(self.qps)),
            ("requests", Value::UInt(self.requests as u64)),
            ("seed", Value::UInt(self.seed)),
            ("tp", Value::UInt(self.tp as u64)),
        ])
    }

    /// The canonical byte form the daemon digests for its cache key.
    pub fn canonical_json(&self) -> String {
        self.to_value().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_canonically() {
        let s = InferScenario::default();
        let reparsed = InferScenario::parse(&serde_json::from_str(&s.canonical_json()).unwrap())
            .expect("canonical form parses");
        assert_eq!(s, reparsed);
        assert_eq!(s.canonical_json(), reparsed.canonical_json());
    }

    #[test]
    fn spelling_variants_share_a_canonical_form() {
        // Explicit defaults and omitted defaults digest identically.
        let a = InferScenario::parse(&serde_json::from_str(r#"{"model":"llama2-7b"}"#).unwrap())
            .unwrap();
        let b = InferScenario::parse(
            &serde_json::from_str(r#"{"tp":1,"model":"llama2-7b","seed":1}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(a.canonical_json(), b.canonical_json());
    }

    #[test]
    fn rejects_unknown_and_invalid_fields() {
        for bad in [
            r#"{"modle":"llama2-7b"}"#,
            r#"{"model":"gpt-5"}"#,
            r#"{"precision":"fp4"}"#,
            r#"{"mode":"offline"}"#,
            r#"{"tp":0}"#,
            r#"{"tp":9}"#,
            r#"{"qps":0.0}"#,
            r#"{"qps":-1.0}"#,
            r#"{"requests":0}"#,
            r#"{"max_seqs":0}"#,
            r#"{"kv_page_tokens":0}"#,
            r#"[1,2]"#,
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(InferScenario::parse(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn qps_below_the_floor_or_non_finite_is_rejected() {
        // 5e-324 is finite and positive, but every arrival time it
        // produces overflows to +inf.
        for q in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, 5e-324, 0.999e-3] {
            let v = Value::Object(vec![("qps".to_string(), Value::Float(q))]);
            assert!(InferScenario::parse(&v).is_err(), "qps {q} should fail");
        }
        for q in [MIN_QPS, 1.0, f64::MAX] {
            let v = Value::Object(vec![("qps".to_string(), Value::Float(q))]);
            assert_eq!(InferScenario::parse(&v).map(|s| s.qps), Ok(q));
        }
    }

    #[test]
    fn canonical_keys_are_sorted() {
        let s = InferScenario::default().canonical_json();
        let v: Value = serde_json::from_str(&s).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
