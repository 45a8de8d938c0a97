//! The reference scheduler: the straightforward loops the two-pass
//! iteration in `sched.rs` replaced, kept as the oracle it is compared
//! against.  Each iteration walks the batch once per step — grow decode
//! KV, schedule, apply, retire — and collects its chunks and decode
//! indices into per-iteration vectors.

use super::*;
use hopper_obs::Registry;
use proptest::prelude::*;

/// A resident sequence as the reference loops track it.
#[derive(Debug, Clone, Copy)]
struct Seq {
    idx: usize,
    input_len: u32,
    output_len: u32,
    prefilled: u32,
    generated: u32,
    pages: u64,
}

/// [`super::schedule`] with the reference loops.
fn schedule(sim: &Sim, pool: &mut KvPool, out: &mut Served) -> Result<f64, InferError> {
    match sim.scn.mode {
        Mode::Continuous => run_continuous(sim, pool, out),
        Mode::Disaggregated => run_disaggregated(sim, pool, out),
    }
}

fn run_continuous(sim: &Sim, pool: &mut KvPool, out: &mut Served) -> Result<f64, InferError> {
    let Sim {
        scn,
        ctx,
        workload,
        budget,
        metrics,
        ..
    } = *sim;
    let Served {
        stats,
        first_token,
        finish,
    } = out;
    let mut pending: VecDeque<usize> = (0..workload.len()).collect();
    let mut running: Vec<Seq> = Vec::new();
    let mut completed = 0usize;

    while completed < workload.len() {
        check_budget(budget, stats.iterations)?;

        // Iteration-level admission in arrival order.
        while running.len() < scn.max_seqs as usize {
            let Some(&i) = pending.front() else { break };
            let at = workload[i].at_s;
            if at > stats.t {
                if !running.is_empty() {
                    break;
                }
                stats.t = at; // idle: jump to the next arrival
            }
            let req = workload[i].req;
            let need = pool.pages_for_tokens(req.input_len);
            if !pool.try_alloc(need) {
                break;
            }
            pending.pop_front();
            running.push(Seq {
                idx: i,
                input_len: req.input_len,
                output_len: req.output_len,
                prefilled: 0,
                generated: 0,
                pages: need,
            });
        }
        debug_assert!(!running.is_empty(), "admission must make progress");

        // Grow decode KV before costing; preempt the youngest sequence
        // when the pool runs dry.
        let mut j = 0;
        while j < running.len() {
            let s = running[j];
            if s.prefilled == s.input_len && s.generated < s.output_len {
                let need = pool
                    .pages_for_tokens(s.input_len + s.generated + 1)
                    .saturating_sub(s.pages);
                if need > 0 && !pool.try_alloc(need) {
                    // Reclaim from the youngest (tail) sequence; requeue
                    // it for a fresh prefill, preserving arrival order.
                    let victim = running.pop().expect("running non-empty");
                    pool.free(victim.pages);
                    pending.push_front(victim.idx);
                    stats.preempted += 1;
                    if let Some(m) = metrics {
                        m.preemptions.inc();
                    }
                    continue; // retry j against the refilled pool
                }
                if need > 0 {
                    running[j].pages += need;
                }
            }
            j += 1;
        }

        // Schedule: prefill chunks under the token budget, one decode
        // token per fully-prefilled sequence.
        let mut chunk_budget = scn.max_batch_tokens;
        let mut chunks: Vec<(usize, u32)> = Vec::new();
        let mut decode_js: Vec<usize> = Vec::new();
        let mut decode_ctx_tokens = 0u64;
        for (j, s) in running.iter().enumerate() {
            if s.prefilled < s.input_len {
                if chunk_budget > 0 {
                    let c = (s.input_len - s.prefilled).min(chunk_budget);
                    chunks.push((j, c));
                    chunk_budget -= c;
                }
            } else if s.generated < s.output_len {
                decode_js.push(j);
                decode_ctx_tokens += (s.input_len + s.generated) as u64;
            }
        }
        let prefill_tokens: u64 = chunks.iter().map(|&(_, c)| c as u64).sum();
        let decode_tokens = decode_js.len() as u64;
        debug_assert!(prefill_tokens + decode_tokens > 0, "iteration must work");

        let cost = ctx.iteration(prefill_tokens, decode_tokens, decode_ctx_tokens);
        stats.account(&cost, prefill_tokens, decode_tokens, pool, metrics);

        // Apply: advance prefill (completing it emits the first token)
        // and decode.
        for &(j, c) in &chunks {
            let s = &mut running[j];
            s.prefilled += c;
            if s.prefilled == s.input_len {
                s.generated = 1;
                if first_token[s.idx].is_none() {
                    first_token[s.idx] = Some(stats.t);
                }
            }
        }
        for &j in &decode_js {
            running[j].generated += 1;
        }

        running.retain(|s| {
            if s.generated == s.output_len && s.prefilled == s.input_len {
                pool.free(s.pages);
                finish[s.idx] = stats.t;
                completed += 1;
                false
            } else {
                true
            }
        });
    }
    Ok(stats.t)
}

fn run_disaggregated(
    sim: &Sim,
    decode_pool: &mut KvPool,
    out: &mut Served,
) -> Result<f64, InferError> {
    let Sim {
        scn,
        dev,
        model,
        ctx,
        workload,
        budget,
        metrics,
    } = *sim;
    let Served {
        stats,
        first_token,
        finish,
    } = out;
    // Phase 1: prefill engine (its own pool; prompt pages only).
    let mut prefill_pool = match KvPool::for_device(
        dev,
        model,
        scn.precision,
        scn.tp,
        scn.kv_page_tokens,
        scn.max_batch_tokens,
    ) {
        Ok(p) => p,
        Err(_) => unreachable!("decode pool sizing already succeeded"),
    };
    let tpm = TpModel::new(dev.clone(), scn.tp);
    let kv_tok = kv_bytes_per_token(model, scn.tp);

    let mut p_stats = EngineStats::new();
    // (ready time on the decode engine, request index)
    let mut handoff: Vec<(f64, usize)> = Vec::new();
    let mut pending: VecDeque<usize> = (0..workload.len()).collect();
    let mut running: Vec<Seq> = Vec::new();
    let mut done_prefill = 0usize;

    while done_prefill < workload.len() {
        check_budget(budget, stats.iterations + p_stats.iterations)?;

        while running.len() < scn.max_seqs as usize {
            let Some(&i) = pending.front() else { break };
            let at = workload[i].at_s;
            if at > p_stats.t {
                if !running.is_empty() {
                    break;
                }
                p_stats.t = at;
            }
            let req = workload[i].req;
            let need = prefill_pool.pages_for_tokens(req.input_len);
            if !prefill_pool.try_alloc(need) {
                break;
            }
            pending.pop_front();
            running.push(Seq {
                idx: i,
                input_len: req.input_len,
                output_len: req.output_len,
                prefilled: 0,
                generated: 0,
                pages: need,
            });
        }
        debug_assert!(!running.is_empty());

        let mut chunk_budget = scn.max_batch_tokens;
        let mut chunks: Vec<(usize, u32)> = Vec::new();
        for (j, s) in running.iter().enumerate() {
            if chunk_budget == 0 {
                break;
            }
            debug_assert!(s.prefilled < s.input_len);
            let c = (s.input_len - s.prefilled).min(chunk_budget);
            chunks.push((j, c));
            chunk_budget -= c;
        }
        let prefill_tokens: u64 = chunks.iter().map(|&(_, c)| c as u64).sum();

        let cost = ctx.iteration(prefill_tokens, 0, 0);
        p_stats.account(&cost, prefill_tokens, 0, &prefill_pool, metrics);

        for &(j, c) in &chunks {
            running[j].prefilled += c;
        }
        running.retain(|s| {
            if s.prefilled == s.input_len {
                done_prefill += 1;
                prefill_pool.free(s.pages);
                first_token[s.idx] = Some(p_stats.t);
                if s.output_len == 1 {
                    // Nothing to decode: the request is done at prefill.
                    finish[s.idx] = p_stats.t;
                } else {
                    // Ship the prompt KV shards to the decode engine.
                    let xfer = tpm.transfer_s(s.input_len as u64 * kv_tok);
                    handoff.push((p_stats.t + xfer, s.idx));
                }
                false
            } else {
                true
            }
        });
    }
    stats.merge(&p_stats);

    // Phase 2: decode engine, fed by the handoff queue in ready order.
    handoff.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
    let mut d_stats = EngineStats::new();
    let mut queue: VecDeque<(f64, usize)> = handoff.into();
    let mut running: Vec<Seq> = Vec::new();

    while !queue.is_empty() || !running.is_empty() {
        check_budget(budget, stats.iterations + d_stats.iterations)?;

        while running.len() < scn.max_seqs as usize {
            let Some(&(ready, i)) = queue.front() else {
                break;
            };
            if ready > d_stats.t {
                if !running.is_empty() {
                    break;
                }
                d_stats.t = ready;
            }
            let req = workload[i].req;
            // Reserve the full final context: transferred prompt KV plus
            // every output token.  No growth, no preemption.
            let need = decode_pool.pages_for_tokens(req.input_len + req.output_len);
            if !decode_pool.try_alloc(need) {
                break;
            }
            queue.pop_front();
            running.push(Seq {
                idx: i,
                input_len: req.input_len,
                output_len: req.output_len,
                prefilled: req.input_len,
                generated: 1,
                pages: need,
            });
        }
        debug_assert!(!running.is_empty());

        let decode_tokens = running.len() as u64;
        let decode_ctx_tokens: u64 = running
            .iter()
            .map(|s| (s.input_len + s.generated) as u64)
            .sum();
        let cost = ctx.iteration(0, decode_tokens, decode_ctx_tokens);
        d_stats.account(&cost, 0, decode_tokens, decode_pool, metrics);

        for s in running.iter_mut() {
            s.generated += 1;
        }
        running.retain(|s| {
            if s.generated == s.output_len {
                decode_pool.free(s.pages);
                finish[s.idx] = d_stats.t;
                false
            } else {
                true
            }
        });
    }
    stats.merge(&d_stats);
    Ok(p_stats.t.max(d_stats.t))
}

/// One scenario through `scheduler` with metrics on: the report, its
/// JSON bytes and the metric exposition it left behind.
fn observe(
    scn: &InferScenario,
    dev: &DeviceConfig,
    scheduler: Scheduler,
) -> (Result<InferReport, InferError>, Option<String>, String) {
    let reg = Registry::new();
    let metrics = InferMetrics::register(&reg);
    let report = simulate(scn, dev, &InferBudget::default(), Some(&metrics), scheduler);
    let json = report.as_ref().ok().map(|r| r.to_json().to_string());
    (report, json, reg.render())
}

fn assert_same_as_reference(scn: &InferScenario, dev: &DeviceConfig) -> InferReport {
    let (fast, fast_json, fast_expo) = observe(scn, dev, super::schedule);
    let (slow, slow_json, slow_expo) = observe(scn, dev, schedule);
    assert_eq!(fast, slow, "report differs on {} for {scn:?}", dev.name);
    assert_eq!(fast_json, slow_json, "JSON differs on {}", dev.name);
    assert_eq!(fast_expo, slow_expo, "exposition differs on {}", dev.name);
    fast.expect("no budget set")
}

const MODELS: [&str; 3] = ["llama-3b", "llama2-7b", "llama2-13b"];
const PRECISIONS: [Precision; 4] = [
    Precision::Fp32,
    Precision::Fp16,
    Precision::Bf16,
    Precision::Fp8,
];

fn device(i: usize) -> DeviceConfig {
    [
        DeviceConfig::h800,
        DeviceConfig::a100,
        DeviceConfig::rtx4090,
    ][i % 3]()
}

fn mode(i: usize) -> Mode {
    [Mode::Continuous, Mode::Disaggregated][i % 2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small arrival-gated workloads across every knob: pages of one
    /// token (a growth then takes two pages), prefill budgets small
    /// enough to chunk one prompt across several iterations, one to
    /// thousands of resident sequences.
    #[test]
    fn two_pass_scheduler_matches_the_reference(
        shape in (0usize..3, 0usize..4, 0usize..2, 1u32..9, 0usize..3),
        page_tokens in prop_oneof![1u32..3, 1u32..65],
        batch_tokens in prop_oneof![1u32..65, 1u32..8193],
        max_seqs in prop_oneof![1u32..17, 1u32..4097],
        requests in 1u32..97,
        seed in 0u64..1 << 40,
        qps in 1.0f64..4000.0,
    ) {
        let (model, precision, m, tp, dev) = shape;
        let scn = InferScenario {
            model: MODELS[model].to_string(),
            precision: PRECISIONS[precision],
            tp,
            mode: mode(m),
            qps,
            requests,
            seed,
            max_seqs,
            max_batch_tokens: batch_tokens,
            kv_page_tokens: page_tokens,
        };
        assert_same_as_reference(&scn, &device(dev));
    }

    /// Everything arrives at once and outgrows the KV pool: decode
    /// growth preempts, and with prompts still queued behind the prefill
    /// budget the victim at the tail is often mid-prefill.
    #[test]
    fn two_pass_scheduler_matches_the_reference_under_kv_pressure(
        shape in (0usize..3, 0usize..4, 0usize..2, 1u32..3, 0usize..3),
        page_tokens in prop_oneof![1u32..3, 1u32..65],
        batch_tokens in 512u32..8193,
        requests in 600u32..1800,
        seed in 0u64..1 << 40,
    ) {
        let (model, precision, m, tp, dev) = shape;
        let scn = InferScenario {
            model: MODELS[model].to_string(),
            precision: PRECISIONS[precision],
            tp,
            mode: mode(m),
            qps: 1e6,
            requests,
            seed,
            max_seqs: 4096,
            max_batch_tokens: batch_tokens,
            kv_page_tokens: page_tokens,
        };
        assert_same_as_reference(&scn, &device(dev));
    }
}

#[test]
fn the_pressure_shape_preempts() {
    // The rtx4090 pool holds ~15k llama2-7b tokens; 1200 requests of
    // ~150 tokens need ten times that.
    let scn = InferScenario {
        qps: 1e6,
        requests: 1200,
        max_seqs: 4096,
        max_batch_tokens: 512,
        kv_page_tokens: 1,
        ..InferScenario::default()
    };
    let r = assert_same_as_reference(&scn, &DeviceConfig::rtx4090());
    assert_eq!(r.outcome, "ok");
    assert!(r.preempted > 0, "no preemption: {r:?}");
}
