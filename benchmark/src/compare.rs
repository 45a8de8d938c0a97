//! `hbench compare A B [more…]`: do two sets of runs agree within the
//! benchmark's own bounds?
//!
//! A set is a file of run documents, one JSON object per line, as
//! `hbench run --out FILE` appends them.  Every later set is compared
//! against the first.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound of each other.
    Same,
    /// The later set's median is worse by more than the bound.
    Worse,
    /// The later set's median is better by more than the bound.
    Better,
    /// The baseline's own inter-quartile spread exceeds the bound, so the
    /// sets cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of a set's values (quartiles collapse to the
/// median when there are fewer than two values).
pub fn summary(values: &[f64]) -> (f64, f64, f64) {
    let median = stats::median(&mut values.to_vec());
    match stats::quartiles(values) {
        Some([q1, _, q3]) => (median, q1, q3),
        None => (median, median, median),
    }
}

/// Compare baseline values `a` with later values `b` under `bound`.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, q1, q3) = summary(a);
    let (mb, _, _) = summary(b);
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    if (q3 - q1) / ma.abs() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One set: per workload, per metric, the values of its runs; plus the
/// failures and simulated-result digests seen.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, u64>,
    digests: BTreeMap<(String, u64), Vec<String>>,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| doc.get(k).ok_or(format!("{path}:{}: no `{k}`", i + 1));
        let workload = field("workload")?.as_str().unwrap_or("").to_string();
        if field("trace")?.as_bool() == Some(true) {
            continue;
        }
        *set.failed.entry(workload.clone()).or_default() += field("failed")?.as_u64().unwrap_or(0);
        let seed = field("seed")?.as_u64().unwrap_or(0);
        set.digests
            .entry((workload.clone(), seed))
            .or_default()
            .push(field("sim_digest")?.as_str().unwrap_or("").to_string());
        if let Some(metrics) = field("metrics")?.as_object() {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    set.values
                        .entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(set)
}

/// (name, higher is better, bound) of every end-to-end metric, from the
/// file the driver reads.
fn bounds(benchmark_json: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string(benchmark_json).map_err(|e| format!("{benchmark_json}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{benchmark_json}: {e}"))?;
    let listed = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or(format!("{benchmark_json}: no `end_to_end`"))?;
    listed
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err(format!("{benchmark_json}: malformed end_to_end entry")),
            }
        })
        .collect()
}

/// Compare every later set with the first; prints one row per (metric,
/// workload) and returns `true` when nothing got worse and nothing new
/// failed.
pub fn compare(benchmark_json: &str, paths: &[String]) -> Result<bool, String> {
    if paths.len() < 2 {
        return Err("compare needs at least two sets".into());
    }
    let bounds = bounds(benchmark_json)?;
    let base = load(&paths[0])?;
    let mut clean = true;
    for path in &paths[1..] {
        let later = load(path)?;
        println!("# {} -> {path}", paths[0]);
        println!(
            "{:<14} {:<12} {:>6} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
            "workload",
            "metric",
            "bound",
            "A median",
            "A quartiles",
            "B median",
            "B quartiles",
            "B/A"
        );
        for (workload, metrics) in &base.values {
            for (name, higher, bound) in &bounds {
                let (Some(a), Some(b)) = (
                    metrics.get(name),
                    later.values.get(workload).and_then(|m| m.get(name)),
                ) else {
                    continue;
                };
                let v = verdict(a, b, *higher, *bound);
                clean &= v != Verdict::Worse;
                let (ma, a1, a3) = summary(a);
                let (mb, b1, b3) = summary(b);
                println!(
                    "{workload:<14} {name:<12} {bound:>6.2} {ma:>12.5} {:>25} {mb:>12.5} {:>25} {:>8.3}  {}",
                    format!("[{a1:.5}, {a3:.5}]"),
                    format!("[{b1:.5}, {b3:.5}]"),
                    mb / ma,
                    v.label()
                );
            }
            let (fa, fb) = (
                base.failed.get(workload).copied().unwrap_or(0),
                later.failed.get(workload).copied().unwrap_or(0),
            );
            if fb > fa {
                clean = false;
                println!("{workload:<14} failed rose from {fa} to {fb}");
            }
        }
        for (key, digests) in &base.digests {
            let moved = later
                .digests
                .get(key)
                .is_some_and(|d| d.iter().chain(digests).any(|x| x != &digests[0]));
            if moved {
                println!("{:<14} sim_digest differs (seed {})", key.0, key.1);
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_baseline_spread() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(verdict(&a, &[1.05, 1.04, 1.06], false, 0.10), Verdict::Same);
        assert_eq!(
            verdict(&a, &[1.15, 1.14, 1.16], false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[0.85, 0.84, 0.86], false, 0.10),
            Verdict::Better
        );
        // Throughput: lower is worse.
        assert_eq!(verdict(&a, &[0.85, 0.84, 0.86], true, 0.10), Verdict::Worse);
        assert_eq!(
            verdict(&a, &[1.15, 1.14, 1.16], true, 0.10),
            Verdict::Better
        );
        // A baseline whose quartiles are further apart than the bound
        // cannot resolve anything.
        let noisy = [0.8, 1.0, 1.2, 0.7, 1.3];
        assert_eq!(
            verdict(&noisy, &[2.0, 2.0], false, 0.10),
            Verdict::Unresolved
        );
        // A single baseline run has no spread to speak of.
        assert_eq!(verdict(&[1.0], &[1.2], false, 0.10), Verdict::Worse);
    }
}
