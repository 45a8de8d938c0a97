//! End-to-end behaviour of the serving simulator: bit determinism,
//! the FP8-vs-FP16 crossover, Table XII OOM propagation, disaggregation
//! trade-offs, preemption and the daemon abort paths.

use hopper_infer::{run, InferBudget, InferMetrics, InferScenario, Mode, MIN_QPS};
use hopper_obs::Registry;
use hopper_sim::DeviceConfig;
use hopper_te::Precision;
use proptest::prelude::*;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn base() -> InferScenario {
    InferScenario {
        model: "llama2-7b".to_string(),
        precision: Precision::Fp16,
        tp: 1,
        mode: Mode::Continuous,
        qps: 200.0,
        requests: 200,
        seed: 7,
        max_seqs: 64,
        max_batch_tokens: 8192,
        kv_page_tokens: 16,
    }
}

#[test]
fn reports_are_byte_identical_across_runs_and_metrics() {
    let dev = DeviceConfig::h800();
    for mode in [Mode::Continuous, Mode::Disaggregated] {
        let mut scn = base();
        scn.mode = mode;
        let plain = run(&scn, &dev, &InferBudget::default(), None)
            .unwrap()
            .to_json()
            .to_string();
        // Metrics recording must never perturb the simulation.
        let reg = Registry::new();
        let m = InferMetrics::register(&reg);
        let with_metrics = run(&scn, &dev, &InferBudget::default(), Some(&m))
            .unwrap()
            .to_json()
            .to_string();
        assert_eq!(plain, with_metrics, "{}", mode.name());
        let again = run(&scn, &dev, &InferBudget::default(), None)
            .unwrap()
            .to_json()
            .to_string();
        assert_eq!(plain, again, "{}", mode.name());
    }
}

#[test]
fn fp8_fp16_crossover_tracks_batch_size() {
    // Small resident batches are weight-stream + overhead bound: FP8's
    // extra per-layer cast cost loses to FP16 (the paper's Table XII
    // finding, batch 8).  Saturated batches are prefill-compute bound:
    // FP8's doubled tensor-core peak wins.  The crossover sits between
    // max_seqs 256 and 512 on H800/llama2-7B.
    let dev = DeviceConfig::h800();
    let tokps = |p: Precision, max_seqs: u32| {
        let mut scn = base();
        scn.precision = p;
        scn.qps = 100_000.0; // effectively offline: arrival never gates
        scn.requests = 1500;
        scn.max_seqs = max_seqs;
        let r = run(&scn, &dev, &InferBudget::default(), None).unwrap();
        assert_eq!(r.outcome, "ok");
        (r.tokens_per_s, r.tokens_per_joule)
    };
    let (t16_small, _) = tokps(Precision::Fp16, 64);
    let (t8_small, j8_small) = tokps(Precision::Fp8, 64);
    assert!(
        t16_small > t8_small,
        "small batch: fp16 {t16_small:.0} must beat fp8 {t8_small:.0}"
    );
    let (t16_big, j16_big) = tokps(Precision::Fp16, 512);
    let (t8_big, j8_big) = tokps(Precision::Fp8, 512);
    assert!(
        t8_big > t16_big,
        "large batch: fp8 {t8_big:.0} must beat fp16 {t16_big:.0}"
    );
    // Energy efficiency: FP8's ~2× lower J/FLOP wins at scale regardless
    // of the throughput crossover.
    assert!(
        j8_big > j16_big,
        "fp8 {j8_big:.1} tok/J vs fp16 {j16_big:.1}"
    );
    assert!(j8_small > 0.0);
}

#[test]
fn table_xii_oom_and_unsupported_cells_propagate() {
    let mut scn = base();
    scn.model = "llama2-13b".to_string();
    scn.precision = Precision::Fp32;
    scn.requests = 32;
    // 52 GB of weights on a 40 GB A100: the Table XII dash.
    let r = run(&scn, &DeviceConfig::a100(), &InferBudget::default(), None).unwrap();
    assert_eq!(r.outcome, "oom");
    assert!(r.detail.contains("weights"), "{}", r.detail);
    assert_eq!(r.completed, 0);
    // Sharding the weights across two ranks rescues the cell.
    scn.tp = 2;
    let r = run(&scn, &DeviceConfig::a100(), &InferBudget::default(), None).unwrap();
    assert_eq!(r.outcome, "ok", "{}", r.detail);
    assert_eq!(r.completed, 32);
    // FP8 predates Ampere's tensor cores entirely.
    let mut scn = base();
    scn.precision = Precision::Fp8;
    let r = run(&scn, &DeviceConfig::a100(), &InferBudget::default(), None).unwrap();
    assert_eq!(r.outcome, "unsupported");
}

#[test]
fn disaggregation_trades_ttft_for_tpot() {
    let dev = DeviceConfig::h800();
    let mut scn = base();
    scn.requests = 600;
    scn.max_seqs = 128;
    let cont = run(&scn, &dev, &InferBudget::default(), None).unwrap();
    scn.mode = Mode::Disaggregated;
    let dis = run(&scn, &dev, &InferBudget::default(), None).unwrap();
    assert_eq!(dis.gpus, 2 * scn.tp);
    // A dedicated prefill engine means prompts never queue behind
    // decode batches: TTFT collapses.
    assert!(
        dis.ttft_ms.p50 < cont.ttft_ms.p50 / 2.0,
        "disaggregated ttft {:.1} vs continuous {:.1}",
        dis.ttft_ms.p50,
        cont.ttft_ms.p50
    );
    // And by construction no iteration mixes phases.
    assert_eq!(dis.mixed_iterations, 0);
    assert!(dis.prefill_iterations > 0 && dis.decode_iterations > 0);
}

#[test]
fn kv_pressure_preempts_and_still_completes() {
    // 1024 resident sequences of ~153 tokens outgrow the 7B FP16 pool on
    // H800: the scheduler must preempt, redo prefill, and still finish
    // every request.
    let dev = DeviceConfig::h800();
    let mut scn = base();
    scn.qps = 100_000.0;
    scn.requests = 1500;
    scn.max_seqs = 1024;
    let r = run(&scn, &dev, &InferBudget::default(), None).unwrap();
    assert_eq!(r.outcome, "ok");
    assert!(r.preempted > 0, "expected KV preemptions");
    assert_eq!(r.completed, 1500);
    assert_eq!(r.kv_pages_peak, r.kv_pages, "pressure fills the pool");
}

#[test]
fn iteration_cap_and_cancel_abort() {
    let dev = DeviceConfig::h800();
    let scn = base();
    let capped = InferBudget {
        max_iterations: Some(1),
        cancel: None,
    };
    assert_eq!(
        run(&scn, &dev, &capped, None),
        Err(hopper_infer::InferError::IterationsExceeded { budget: 1 })
    );
    let flag = Arc::new(AtomicBool::new(true));
    flag.store(true, Ordering::Relaxed);
    let cancelled = InferBudget {
        max_iterations: None,
        cancel: Some(flag),
    };
    assert_eq!(
        run(&scn, &dev, &cancelled, None),
        Err(hopper_infer::InferError::Cancelled { iterations: 0 })
    );
}

#[test]
fn report_invariants_hold() {
    let dev = DeviceConfig::h800();
    for mode in [Mode::Continuous, Mode::Disaggregated] {
        let mut scn = base();
        scn.mode = mode;
        let r = run(&scn, &dev, &InferBudget::default(), None).unwrap();
        assert_eq!(r.outcome, "ok");
        assert_eq!(r.completed, r.requests);
        for p in [&r.ttft_ms, &r.tpot_ms, &r.e2e_ms] {
            assert!(p.p50 > 0.0 && p.p50 <= p.p90 && p.p90 <= p.p99);
        }
        assert!(r.ttft_ms.p50 < r.e2e_ms.p50);
        assert!(r.sim_seconds > 0.0 && r.energy_j > 0.0);
        assert!(r.tokens_per_s > 0.0 && r.tokens_per_joule > 0.0);
        assert!(r.decode_tokens_per_s < r.tokens_per_s);
        // Average board power sits between idle and TDP.
        assert!(
            r.avg_power_w >= dev.idle_w && r.avg_power_w <= dev.tdp_w + 1e-9,
            "{}",
            r.avg_power_w
        );
        assert!(r.min_clock_ratio > 0.0 && r.min_clock_ratio <= 1.0);
        assert!(r.kv_pages_peak <= r.kv_pages);
        assert_eq!(
            r.iterations,
            r.prefill_iterations + r.decode_iterations + r.mixed_iterations
        );
        assert_eq!(
            r.gpus,
            scn.tp * if mode == Mode::Disaggregated { 2 } else { 1 }
        );
        // Throughput identity: tokens/s × seconds covers the unique tokens.
        let total = (r.tokens_in + r.tokens_out) as f64;
        assert!((r.tokens_per_s * r.sim_seconds - total).abs() <= 0.01 * total);
    }
}

#[test]
fn tensor_parallel_raises_throughput_at_saturation() {
    let dev = DeviceConfig::h800();
    let tokps = |tp: u32| {
        let mut scn = base();
        scn.tp = tp;
        scn.qps = 100_000.0;
        scn.requests = 1000;
        scn.max_seqs = 512;
        let r = run(&scn, &dev, &InferBudget::default(), None).unwrap();
        (r.tokens_per_s, r.tokens_per_joule)
    };
    let (t1, j1) = tokps(1);
    let (t2, j2) = tokps(2);
    let (t4, _) = tokps(4);
    assert!(t2 > t1 && t4 > t2, "tp scaling: {t1:.0} {t2:.0} {t4:.0}");
    // Sub-linear: comm and the second GPU's idle power tax efficiency.
    assert!(t2 < 2.0 * t1, "all-reduce must cost something");
    assert!(j2 < j1, "tokens/J drops with tp: {j2:.1} vs {j1:.1}");
}

#[test]
fn metrics_families_populate() {
    let dev = DeviceConfig::h800();
    let reg = Registry::new();
    let m = InferMetrics::register(&reg);
    let mut scn = base();
    scn.qps = 100_000.0;
    scn.requests = 1500;
    scn.max_seqs = 1024;
    run(&scn, &dev, &InferBudget::default(), Some(&m)).unwrap();
    let text = reg.render();
    let doc = hopper_obs::expo::parse(&text).expect("exposition parses");
    let count = |family: &str, key: &str, val: &str| {
        doc.samples
            .iter()
            .filter(|s| s.name == family && s.labels.iter().any(|(k, v)| k == key && v == val))
            .map(|s| s.value)
            .sum::<f64>()
    };
    assert!(count("hsim_infer_iterations_total", "phase", "mixed") > 0.0);
    assert!(count("hsim_infer_tokens_total", "kind", "prefill") > 0.0);
    assert!(count("hsim_infer_tokens_total", "kind", "decode") > 0.0);
    assert!(
        doc.samples
            .iter()
            .any(|s| s.name == "hsim_infer_preemptions_total" && s.value > 0.0),
        "preemptions counter:\n{text}"
    );
}

/// Every leaf of a rendered report is a string or a finite number (the
/// JSON writer renders a non-finite float as `null`).
fn assert_finite(v: &Value, path: &str) {
    match v {
        Value::Object(fields) => fields
            .iter()
            .for_each(|(k, v)| assert_finite(v, &format!("{path}.{k}"))),
        Value::Float(x) => assert!(x.is_finite(), "{path} = {x}"),
        Value::Str(_) | Value::UInt(_) | Value::Int(_) => {}
        other => panic!("{path} = {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scenario `parse` accepts — full ranges, arrival rates from
    /// subnormal to `f64::MAX`, `requests` capped small — ends in a
    /// report whose JSON parses back with finite numbers, never in a
    /// panic.  `parse` refuses exactly the rates below `MIN_QPS`.
    #[test]
    fn accepted_scenarios_run_to_a_finite_report(
        names in (0usize..3, 0usize..4, 0usize..2, 0usize..3),
        tp in 1u64..9,
        qps in prop_oneof![
            (1.0f64..10.0, -330i32..310).prop_map(|(m, e)| m * 10f64.powi(e)),
            Just(0.0),
            Just(5e-324),
            Just(MIN_QPS),
            Just(f64::MAX),
        ],
        requests in 1u64..49,
        seed in 0u64..u64::MAX,
        knobs in (
            prop_oneof![1u64..17, 1u64..4097],
            prop_oneof![1u64..65, 1u64..(1 << 20) + 1],
            prop_oneof![1u64..3, 1u64..1025],
        ),
    ) {
        let (model, precision, mode, dev) = names;
        let (max_seqs, max_batch_tokens, kv_page_tokens) = knobs;
        let str = |s: &str| Value::Str(s.to_string());
        let fields = [
            ("model", str(["llama-3b", "llama2-7b", "llama2-13b"][model])),
            ("precision", str(["fp32", "fp16", "bf16", "fp8"][precision])),
            ("mode", str(["continuous", "disaggregated"][mode])),
            ("tp", Value::UInt(tp)),
            ("qps", Value::Float(qps)),
            ("requests", Value::UInt(requests)),
            ("seed", Value::UInt(seed)),
            ("max_seqs", Value::UInt(max_seqs)),
            ("max_batch_tokens", Value::UInt(max_batch_tokens)),
            ("kv_page_tokens", Value::UInt(kv_page_tokens)),
        ];
        let v = Value::Object(fields.map(|(k, v)| (k.to_string(), v)).to_vec());
        match InferScenario::parse(&v) {
            Err(e) => prop_assert!(!(qps >= MIN_QPS && qps.is_finite()), "{e}"),
            Ok(scn) => {
                let dev = [DeviceConfig::h800, DeviceConfig::a100, DeviceConfig::rtx4090][dev]();
                let report = run(&scn, &dev, &InferBudget::default(), None)
                    .expect("only a budget aborts a run");
                let text = report.to_json().to_string();
                let back: Value = serde_json::from_str(&text).expect("report JSON parses");
                assert_finite(&back, "report");
            }
        }
    }
}
