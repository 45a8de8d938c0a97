//! `hbench selftest`: every workload at 1/50 size, untraced and traced,
//! with its output checks — seconds, not minutes, so `check.sh` can run it.

use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::runner::{self, Outcome, RunOpts};

/// Sizes are divided by this.
pub const SHRINK: u32 = 50;

fn opts(workload: &str, trace: bool) -> RunOpts {
    RunOpts {
        workload: workload.into(),
        seed: 1,
        seconds: 0.0,
        trace,
        shrink: SHRINK,
        setup_reps: 1,
    }
}

/// What is wrong with `outcome`, if anything.
pub fn problems(outcome: &Outcome) -> Vec<String> {
    let mut out: Vec<String> = outcome.failures.clone();
    if outcome.failed > 0 {
        out.push(format!(
            "{} of {} failed",
            outcome.failed, outcome.attempted
        ));
    }
    let want: Vec<&str> = if outcome.opts.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in &want {
        match outcome.metrics.get(name) {
            None => out.push(format!("metric {name} not reported")),
            Some(v) if !v.is_finite() => out.push(format!("metric {name} is {v}")),
            Some(v) if !outcome.opts.trace && *v <= 0.0 => {
                out.push(format!("end-to-end metric {name} is {v}"));
            }
            Some(_) => {}
        }
    }
    for name in outcome.metrics.keys() {
        if !want.contains(name) {
            out.push(format!("metric {name} is not in the catalogue"));
        }
    }
    out
}

/// Run everything small; `Ok(true)` when all of it is in order.
pub fn selftest() -> Result<bool, String> {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let t0 = std::time::Instant::now();
            let outcome = runner::run(&opts(workload, trace))?;
            let problems = problems(&outcome);
            println!(
                "{workload:<14} {} {:>3} passes {:>6} checked {:>5.2}s  {}",
                if trace { "traced  " } else { "untraced" },
                outcome.passes,
                outcome.attempted,
                t0.elapsed().as_secs_f64(),
                if problems.is_empty() { "ok" } else { "FAILED" },
            );
            for p in &problems {
                println!("    {p}");
            }
            ok &= problems.is_empty();
        }
    }
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{self, Span};
    use serde_json::Value;

    /// Two-way: every catalogue name is emitted and nothing else is, on
    /// every workload, in both kinds of run.
    #[test]
    fn every_workload_emits_exactly_the_catalogue() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let outcome = runner::run(&opts(workload, trace)).expect(workload);
                assert_eq!(problems(&outcome), Vec::<String>::new(), "{workload}");
                assert!(outcome.passes >= 3);
                assert_ne!(outcome.sim_digest, crate::stats::Fnv::default().0);
            }
        }
        span_file_adds_up("infer_sweep");
        span_file_adds_up("engine_serial");
    }

    /// The span file of a single-threaded workload is a forest whose self
    /// times add up to its roots: nothing is counted twice or lost.
    fn span_file_adds_up(workload: &str) {
        let path = format!("{}/trace-{workload}.json", runner::OUT_DIR);
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() > 20);
        let arg = |e: &Value, k: &str| e.get("args").unwrap().get(k).and_then(Value::as_u64);
        let spans: Vec<Span> = events
            .iter()
            .map(|e| Span {
                name: "",
                tag: "",
                start_ns: arg(e, "start_ns").unwrap(),
                end_ns: arg(e, "end_ns").unwrap(),
                parent: arg(e, "parent").map(|p| p as u32),
                op_id: 0,
            })
            .collect();
        let selfs = recorder::self_times(&spans);
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(selfs.iter().sum::<u64>(), roots, "{workload}");
        for (e, s) in events.iter().zip(&selfs) {
            assert_eq!(arg(e, "self_ns"), Some(*s));
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        }
    }
}
