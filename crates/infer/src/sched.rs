//! The iteration-level serving simulator.
//!
//! Each scheduler iteration is one fused forward pass over the current
//! batch: prefill chunks (token-budgeted, vLLM-style chunked prefill)
//! plus one decode token for every resident sequence.  Iteration cost
//! composes the calibrated `hopper-te` terms:
//!
//! ```text
//! raw   = max(compute, memory) + layers·overhead + comm
//! compute = 2·params·tokens / (tp · matmul_peak(p) · 0.6)
//! memory  = (weight_stream/tp + kv_read + kv_write) / dram_bw
//! comm    = 2·layers · ring_allreduce(tokens · hidden · 2)
//! ```
//!
//! with the per-layer overhead constants solved from Table XII and the
//! ring all-reduce riding the §IV-E DSM network numbers.  Unlike the
//! paper's batch-8 decode benchmark (where FP8 compute gains vanish),
//! prefill GEMMs here run at the precision's own tensor-core peak — the
//! mechanism behind the FP8-vs-FP16 crossover at large batch.
//!
//! Every iteration deposits dynamic energy (tensor-core FLOPs at the
//! Table VIII/XI per-FLOP energies, DRAM and link bytes at the
//! calibrated per-byte energies) and runs through the DVFS governor, so
//! a power-limited scenario stretches in time exactly like the paper's
//! "Rand" columns.

use crate::kv::{kv_bytes_per_token, KvPool};
use crate::metrics::InferMetrics;
use crate::report::{from_order_key, order_key, InferReport, Percentiles};
use crate::scenario::{InferScenario, Mode};
use crate::tp::TpModel;
use hopper_isa::{Arch, DType, MmaKind};
use hopper_sim::power::{
    resolve_dvfs, tc_energy_per_flop, DRAM_ENERGY_PER_BYTE_J, L2_ENERGY_PER_BYTE_J,
};
use hopper_sim::DeviceConfig;
use hopper_te::{layer_overhead_s, CostModel, LlmModel, Precision, ShareGptSynth, TimedRequest};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Abort controls threaded in from the daemon's request budget.
#[derive(Debug, Clone, Default)]
pub struct InferBudget {
    /// Iteration cap (the daemon's `max_cycles` reinterpreted at
    /// scheduler granularity).
    pub max_iterations: Option<u64>,
    /// Cooperative cancel flag (the daemon's deadline reaper).
    pub cancel: Option<Arc<AtomicBool>>,
}

/// Why a simulation stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The iteration cap fired before the workload drained.
    IterationsExceeded {
        /// The cap that fired.
        budget: u64,
    },
    /// The cancel flag was raised (daemon deadline).
    Cancelled {
        /// Iterations completed before the flag was observed.
        iterations: u64,
    },
}

/// Per-iteration outcome of the cost model.
struct IterCost {
    /// DVFS-stretched seconds.
    seconds: f64,
    /// Dynamic energy across the engine's GPUs, joules.
    energy_j: f64,
    /// Achieved/nominal clock.
    clock_ratio: f64,
}

/// Precomputed cost terms for one engine.
struct CostCtx {
    dev: DeviceConfig,
    params: f64,
    layers: f64,
    hidden: u64,
    tp: u32,
    /// Aggregate engine matmul peak × MFU, FLOP/s.
    effective_flops: f64,
    /// Streamed weight bytes per GPU per forward pass.
    weight_stream_per_gpu: f64,
    /// Per-iteration framework overhead, seconds.
    overhead_s: f64,
    /// KV bytes per token per GPU.
    kv_per_token: f64,
    /// Tensor-core energy per FLOP at activity 1.0 (real data).
    e_flop: f64,
    tpm: TpModel,
}

impl CostCtx {
    fn new(dev: &DeviceConfig, model: &LlmModel, p: Precision, tp: u32) -> CostCtx {
        let cm = CostModel::new(dev.clone());
        // Real weights and activations toggle like the paper's "Rand"
        // operands: activity 1.0.
        let (ab, cd) = match p {
            Precision::Fp32 => (DType::TF32, DType::F32),
            Precision::Fp16 => (DType::F16, DType::F32),
            Precision::Bf16 => (DType::BF16, DType::F32),
            Precision::Fp8 => (DType::E4M3, DType::F32),
        };
        let kind = if dev.arch == Arch::Hopper {
            MmaKind::Wgmma
        } else {
            MmaKind::Mma
        };
        // Streamed bytes per forward pass, matching LlmRunner's decode
        // step: FP8 streams the 1 B/param cached copies, FP32 streams 4.
        let weight_stream = match p {
            Precision::Fp8 => model.params as f64,
            Precision::Fp32 => model.params as f64 * 4.0,
            _ => model.params as f64 * 2.0,
        };
        CostCtx {
            dev: dev.clone(),
            params: model.params as f64,
            layers: model.layers as f64,
            hidden: model.hidden,
            tp,
            effective_flops: cm.matmul_peak(p) * 0.6 * tp as f64,
            weight_stream_per_gpu: weight_stream / tp as f64,
            overhead_s: model.layers as f64 * layer_overhead_s(dev.arch, p),
            kv_per_token: kv_bytes_per_token(model, tp) as f64,
            e_flop: tc_energy_per_flop(dev, ab, cd, false, kind),
            tpm: TpModel::new(dev.clone(), tp),
        }
    }

    /// Cost one iteration processing `prefill_tokens` prompt tokens and
    /// `decode_tokens` single-token decode steps whose contexts sum to
    /// `decode_ctx_tokens`.
    fn iteration(
        &self,
        prefill_tokens: u64,
        decode_tokens: u64,
        decode_ctx_tokens: u64,
    ) -> IterCost {
        let tokens = (prefill_tokens + decode_tokens) as f64;
        let flops = 2.0 * self.params * tokens;
        let compute_s = flops / self.effective_flops;

        let kv_read = decode_ctx_tokens as f64 * self.kv_per_token;
        let kv_write = tokens * self.kv_per_token;
        let bytes_per_gpu = self.weight_stream_per_gpu + kv_read + kv_write;
        let memory_s = bytes_per_gpu / self.dev.dram_bw;

        // Two activation all-reduces per layer (post-attention, post-MLP),
        // each paying ring latency.
        let reduce_bytes = (tokens * self.hidden as f64 * 2.0) as u64;
        let comm_s = 2.0 * self.layers * self.tpm.allreduce_s(reduce_bytes);

        let raw_s = compute_s.max(memory_s) + self.overhead_s + comm_s;

        let e_compute = flops * self.e_flop;
        let e_dram = bytes_per_gpu * self.tp as f64 * DRAM_ENERGY_PER_BYTE_J;
        let e_comm = if self.tp > 1 {
            2.0 * self.layers
                * (2 * (self.tp - 1) as u64 * reduce_bytes) as f64
                * L2_ENERGY_PER_BYTE_J
        } else {
            0.0
        };
        let energy_j = e_compute + e_dram + e_comm;

        // DVFS per GPU: dynamic power above TDP stretches the iteration.
        let cycles = (raw_s * self.dev.clock_hz) as u64;
        let r = resolve_dvfs(&self.dev, cycles, energy_j / self.tp as f64);
        let clock_ratio = r.achieved_hz / self.dev.clock_hz;
        IterCost {
            seconds: raw_s / clock_ratio,
            energy_j,
            clock_ratio,
        }
    }
}

/// A resident sequence.
#[derive(Debug, Clone, Copy)]
struct Seq {
    /// Request index into the workload arrays (`requests` is a `u32`;
    /// the narrow field keeps a `Seq` at 32 bytes).
    idx: u32,
    input_len: u32,
    output_len: u32,
    /// Prompt tokens processed so far.
    prefilled: u32,
    /// Output tokens produced so far (1 is produced by the iteration
    /// that completes prefill).
    generated: u32,
    /// KV pages held.
    pages: u64,
}

/// Shared engine bookkeeping (iterations, clock, energy, phase mix).
struct EngineStats {
    t: f64,
    iterations: u64,
    prefill_iterations: u64,
    decode_iterations: u64,
    mixed_iterations: u64,
    energy_dyn_j: f64,
    min_clock_ratio: f64,
    preempted: u64,
}

impl EngineStats {
    fn new() -> EngineStats {
        EngineStats {
            t: 0.0,
            iterations: 0,
            prefill_iterations: 0,
            decode_iterations: 0,
            mixed_iterations: 0,
            energy_dyn_j: 0.0,
            min_clock_ratio: 1.0,
            preempted: 0,
        }
    }

    /// Account one iteration; classifies the phase and feeds metrics.
    fn account(
        &mut self,
        cost: &IterCost,
        prefill_tokens: u64,
        decode_tokens: u64,
        pool: &KvPool,
        metrics: Option<&InferMetrics>,
    ) {
        self.t += cost.seconds;
        self.iterations += 1;
        self.energy_dyn_j += cost.energy_j;
        self.min_clock_ratio = self.min_clock_ratio.min(cost.clock_ratio);
        let us = (cost.seconds * 1e6) as u64;
        match (prefill_tokens > 0, decode_tokens > 0) {
            (true, true) => {
                self.mixed_iterations += 1;
                if let Some(m) = metrics {
                    m.mixed_iterations.inc();
                    m.phase_mixed_us.record(us);
                }
            }
            (true, false) => {
                self.prefill_iterations += 1;
                if let Some(m) = metrics {
                    m.prefill_iterations.inc();
                    m.phase_prefill_us.record(us);
                }
            }
            _ => {
                self.decode_iterations += 1;
                if let Some(m) = metrics {
                    m.decode_iterations.inc();
                    m.phase_decode_us.record(us);
                }
            }
        }
        if let Some(m) = metrics {
            m.tokens_prefill.add(prefill_tokens);
            m.tokens_decode.add(decode_tokens);
            m.kv_pages_in_use.set(pool.in_use() as i64);
        }
    }

    fn merge(&mut self, other: &EngineStats) {
        self.iterations += other.iterations;
        self.prefill_iterations += other.prefill_iterations;
        self.decode_iterations += other.decode_iterations;
        self.mixed_iterations += other.mixed_iterations;
        self.energy_dyn_j += other.energy_dyn_j;
        self.min_clock_ratio = self.min_clock_ratio.min(other.min_clock_ratio);
        self.preempted += other.preempted;
    }
}

/// Check the abort controls; `iterations` counts completed iterations
/// across all engines.
fn check_budget(budget: &InferBudget, iterations: u64) -> Result<(), InferError> {
    if let Some(cancel) = &budget.cancel {
        if cancel.load(Ordering::Relaxed) {
            return Err(InferError::Cancelled { iterations });
        }
    }
    if let Some(cap) = budget.max_iterations {
        if iterations >= cap {
            return Err(InferError::IterationsExceeded { budget: cap });
        }
    }
    Ok(())
}

/// What a scheduler reads: the scenario, its device, model, cost terms
/// and workload, and the abort controls.
struct Sim<'a> {
    scn: &'a InferScenario,
    dev: &'a DeviceConfig,
    model: &'a LlmModel,
    ctx: &'a CostCtx,
    workload: &'a [TimedRequest],
    budget: &'a InferBudget,
    metrics: Option<&'a InferMetrics>,
}

/// What a scheduler writes: engine statistics and per-request times.
struct Served {
    stats: EngineStats,
    first_token: Vec<Option<f64>>,
    finish: Vec<f64>,
}

/// Drains `sim.workload` through the scenario's engine(s), whose KV pool
/// (the decode engine's, when disaggregated) is `pool`; returns the
/// simulated seconds.  Tests substitute a reference scheduler.
type Scheduler = fn(&Sim, &mut KvPool, &mut Served) -> Result<f64, InferError>;

/// Run a scenario on a device.  Returns `Err` only for the daemon's
/// abort paths; infeasible scenarios (OOM, unsupported precision) come
/// back as reports with a non-`"ok"` outcome.
pub fn run(
    scn: &InferScenario,
    dev: &DeviceConfig,
    budget: &InferBudget,
    metrics: Option<&InferMetrics>,
) -> Result<InferReport, InferError> {
    simulate(scn, dev, budget, metrics, schedule)
}

fn schedule(sim: &Sim, pool: &mut KvPool, out: &mut Served) -> Result<f64, InferError> {
    match sim.scn.mode {
        Mode::Continuous => run_continuous(sim, pool, out),
        Mode::Disaggregated => run_disaggregated(sim, pool, out),
    }
}

fn simulate(
    scn: &InferScenario,
    dev: &DeviceConfig,
    budget: &InferBudget,
    metrics: Option<&InferMetrics>,
    scheduler: Scheduler,
) -> Result<InferReport, InferError> {
    let model = scn.llm_model();
    let precision = scn.precision;
    let mode = scn.mode;
    let gpus = match mode {
        Mode::Continuous => scn.tp,
        Mode::Disaggregated => 2 * scn.tp,
    };
    let precision_name = match precision {
        Precision::Fp32 => "fp32",
        Precision::Fp16 => "fp16",
        Precision::Bf16 => "bf16",
        Precision::Fp8 => "fp8",
    };
    let failed = |outcome: &'static str, detail: String| {
        InferReport::failed(
            outcome,
            &scn.model,
            precision_name,
            mode.name(),
            scn.tp,
            gpus,
            scn.requests,
            scn.kv_page_tokens,
            detail,
        )
    };

    if precision == Precision::Fp8 && !matches!(dev.arch, Arch::Ada | Arch::Hopper) {
        return Ok(failed(
            "unsupported",
            format!("fp8 requires CC 8.9+; {} is {:?}", dev.name, dev.arch),
        ));
    }

    let mut pool = match KvPool::for_device(
        dev,
        &model,
        precision,
        scn.tp,
        scn.kv_page_tokens,
        scn.max_batch_tokens,
    ) {
        Ok(p) => p,
        Err(detail) => return Ok(failed("oom", detail)),
    };

    let workload: Vec<TimedRequest> =
        ShareGptSynth::new(scn.seed).timed_batch(scn.requests as usize, scn.qps);
    // Worst-case single sequence must fit, or admission can deadlock.
    let worst = workload
        .iter()
        .map(|r| r.req.input_len + r.req.output_len)
        .max()
        .unwrap_or(0);
    if pool.pages_for_tokens(worst) > pool.total_pages() {
        return Ok(failed(
            "oom",
            format!(
                "a single {worst}-token sequence needs {} pages but the pool holds {}",
                pool.pages_for_tokens(worst),
                pool.total_pages()
            ),
        ));
    }

    let ctx = CostCtx::new(dev, &model, precision, scn.tp);
    let n = scn.requests as usize;
    let sim = Sim {
        scn,
        dev,
        model: &model,
        ctx: &ctx,
        workload: &workload,
        budget,
        metrics,
    };
    let mut served = Served {
        stats: EngineStats::new(),
        first_token: vec![None; n],
        finish: vec![0.0; n],
    };
    let sim_seconds = scheduler(&sim, &mut pool, &mut served)?;
    let Served {
        stats,
        first_token,
        finish,
    } = served;

    // Unique workload tokens (recomputation after preemption is charged
    // in time and energy but not in goodput).
    let tokens_in: u64 = workload.iter().map(|r| r.req.input_len as u64).sum();
    let tokens_out: u64 = workload.iter().map(|r| r.req.output_len as u64).sum();
    let total_tokens = (tokens_in + tokens_out) as f64;

    let idle_j = dev.idle_w * gpus as f64 * sim_seconds;
    let energy_j = stats.energy_dyn_j + idle_j;

    let mut ttft = Vec::with_capacity(n);
    let mut tpot = Vec::new();
    let mut e2e = Vec::with_capacity(n);
    for (i, r) in workload.iter().enumerate() {
        let ft = first_token[i].expect("all requests completed");
        ttft.push((ft - r.at_s) * 1e3);
        e2e.push((finish[i] - r.at_s) * 1e3);
        if r.req.output_len > 1 {
            tpot.push((finish[i] - ft) * 1e3 / (r.req.output_len - 1) as f64);
        }
    }

    Ok(InferReport {
        outcome: "ok",
        detail: String::new(),
        model: scn.model.clone(),
        precision: precision_name,
        mode: mode.name(),
        tp: scn.tp,
        gpus,
        requests: scn.requests,
        completed: scn.requests,
        preempted: stats.preempted,
        iterations: stats.iterations,
        prefill_iterations: stats.prefill_iterations,
        decode_iterations: stats.decode_iterations,
        mixed_iterations: stats.mixed_iterations,
        sim_seconds,
        tokens_in,
        tokens_out,
        tokens_per_s: total_tokens / sim_seconds,
        decode_tokens_per_s: tokens_out as f64 / sim_seconds,
        energy_j,
        tokens_per_joule: total_tokens / energy_j,
        avg_power_w: energy_j / sim_seconds / gpus as f64,
        min_clock_ratio: stats.min_clock_ratio,
        kv_pages: pool.total_pages(),
        kv_pages_peak: pool.peak(),
        kv_page_tokens: scn.kv_page_tokens,
        ttft_ms: Percentiles::from_values(ttft),
        tpot_ms: Percentiles::from_values(tpot),
        e2e_ms: Percentiles::from_values(e2e),
    })
}

/// Admit pending requests in arrival order while `max_seqs` and `pool`
/// allow, claiming prompt pages; an idle engine's clock `t` jumps to the
/// next arrival.
fn admit(
    sim: &Sim,
    pool: &mut KvPool,
    t: &mut f64,
    pending: &mut VecDeque<usize>,
    running: &mut Vec<Seq>,
) {
    while running.len() < sim.scn.max_seqs as usize {
        let Some(&i) = pending.front() else { break };
        let at = sim.workload[i].at_s;
        if at > *t {
            if !running.is_empty() {
                break;
            }
            *t = at; // idle: jump to the next arrival
        }
        let req = sim.workload[i].req;
        let need = pool.pages_for_tokens(req.input_len);
        if !pool.try_alloc(need) {
            break;
        }
        pending.pop_front();
        running.push(Seq {
            idx: i as u32,
            input_len: req.input_len,
            output_len: req.output_len,
            prefilled: 0,
            generated: 0,
            pages: need,
        });
    }
    debug_assert!(!running.is_empty(), "admission must make progress");
}

/// Continuous batching: one engine interleaves chunked prefill with
/// decode; decode KV pages grow on demand and exhaustion preempts the
/// youngest sequence.  An iteration is two passes over the batch
/// (DESIGN §9): grow, schedule and advance; then, once the iteration is
/// costed, stamp first tokens and retire.
fn run_continuous(sim: &Sim, pool: &mut KvPool, out: &mut Served) -> Result<f64, InferError> {
    let Served {
        stats,
        first_token,
        finish,
    } = out;
    let page_tokens = pool.page_tokens() as u64;
    let mut pending: VecDeque<usize> = (0..sim.workload.len()).collect();
    let mut running: Vec<Seq> = Vec::new();
    let mut completed = 0usize;

    while completed < sim.workload.len() {
        check_budget(sim.budget, stats.iterations)?;
        admit(sim, pool, &mut stats.t, &mut pending, &mut running);

        // Pass 1: grow decode KV, schedule and advance — prefill chunks
        // under the token budget, one decode token per fully-prefilled
        // sequence — summing the iteration's work from each sequence's
        // state before it advances.  A preemption pops the tail, at or
        // after `j` and not yet visited, so no scheduled sequence is lost
        // and the budget is spent in the order growing everything first
        // would spend it.
        let mut chunk_budget = sim.scn.max_batch_tokens;
        let mut prefill_tokens = 0u64;
        let mut decode_tokens = 0u64;
        let mut decode_ctx_tokens = 0u64;
        // Lowest index whose sequence emitted its first token or finished.
        let mut first_event = usize::MAX;
        let mut j = 0;
        while j < running.len() {
            let s = &mut running[j];
            if s.prefilled < s.input_len {
                if chunk_budget > 0 {
                    let c = (s.input_len - s.prefilled).min(chunk_budget);
                    chunk_budget -= c;
                    prefill_tokens += c as u64;
                    s.prefilled += c;
                    if s.prefilled == s.input_len {
                        s.generated = 1; // completing prefill emits a token
                        first_event = first_event.min(j);
                    }
                }
            } else {
                debug_assert!(s.generated < s.output_len, "finished sequences retire");
                // Divide only when the next token crosses a page boundary.
                let tokens = (s.input_len + s.generated + 1) as u64;
                if tokens > s.pages * page_tokens {
                    let need = tokens.div_ceil(page_tokens) - s.pages;
                    if !pool.try_alloc(need) {
                        // Reclaim from the youngest (tail) sequence; requeue
                        // it for a fresh prefill, preserving arrival order.
                        let victim = running.pop().expect("running non-empty");
                        pool.free(victim.pages);
                        pending.push_front(victim.idx as usize);
                        stats.preempted += 1;
                        if let Some(m) = sim.metrics {
                            m.preemptions.inc();
                        }
                        continue; // retry j against the refilled pool
                    }
                    s.pages += need;
                }
                decode_tokens += 1;
                decode_ctx_tokens += (s.input_len + s.generated) as u64;
                s.generated += 1;
                if s.generated == s.output_len {
                    first_event = first_event.min(j);
                }
            }
            j += 1;
        }
        debug_assert!(prefill_tokens + decode_tokens > 0, "iteration must work");

        let cost = sim
            .ctx
            .iteration(prefill_tokens, decode_tokens, decode_ctx_tokens);
        stats.account(&cost, prefill_tokens, decode_tokens, pool, sim.metrics);

        // Pass 2, from the first event on: stamp first tokens (the
        // sequences at `generated == 1`), retire finished sequences and
        // compact the survivors in order.
        let start = first_event.min(running.len());
        let mut kept = start;
        for r in start..running.len() {
            let s = running[r];
            if s.generated == 1 {
                first_token[s.idx as usize].get_or_insert(stats.t);
            }
            if s.generated == s.output_len {
                pool.free(s.pages);
                finish[s.idx as usize] = stats.t;
                completed += 1;
            } else {
                running[kept] = s;
                kept += 1;
            }
        }
        running.truncate(kept);
    }
    Ok(stats.t)
}

/// Disaggregated prefill/decode: a `tp`-GPU prefill engine streams KV
/// pages to a `tp`-GPU decode engine over the interconnect.  Decode
/// admission reserves the full context up front (no preemption), the
/// conservative policy disaggregation papers assume.
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
    // (`order_key` of the ready time on the decode engine, request index)
    let mut handoff: Vec<(u64, usize)> = Vec::new();
    let mut pending: VecDeque<usize> = (0..workload.len()).collect();
    let mut running: Vec<Seq> = Vec::new();
    let mut done_prefill = 0usize;

    while done_prefill < workload.len() {
        check_budget(budget, stats.iterations + p_stats.iterations)?;
        admit(
            sim,
            &mut prefill_pool,
            &mut p_stats.t,
            &mut pending,
            &mut running,
        );

        // Chunks go to a prefix of the batch, in order, until the token
        // budget runs out; each sequence advances as it is scheduled.
        let mut chunk_budget = scn.max_batch_tokens;
        let mut prefill_tokens = 0u64;
        let mut scheduled = 0;
        for s in running.iter_mut() {
            if chunk_budget == 0 {
                break;
            }
            debug_assert!(s.prefilled < s.input_len);
            let c = (s.input_len - s.prefilled).min(chunk_budget);
            chunk_budget -= c;
            prefill_tokens += c as u64;
            s.prefilled += c;
            scheduled += 1;
        }

        let cost = ctx.iteration(prefill_tokens, 0, 0);
        p_stats.account(&cost, prefill_tokens, 0, &prefill_pool, metrics);

        // Hand finished prompts over, compacting the scheduled prefix.
        let mut kept = 0;
        for r in 0..scheduled {
            let s = running[r];
            if s.prefilled < s.input_len {
                running[kept] = s;
                kept += 1;
                continue;
            }
            done_prefill += 1;
            prefill_pool.free(s.pages);
            first_token[s.idx as usize] = Some(p_stats.t);
            if s.output_len == 1 {
                // Nothing to decode: the request is done at prefill.
                finish[s.idx as usize] = p_stats.t;
            } else {
                // Ship the prompt KV shards to the decode engine.
                let xfer = tpm.transfer_s(s.input_len as u64 * kv_tok);
                handoff.push((order_key(p_stats.t + xfer), s.idx as usize));
            }
        }
        running.drain(kept..scheduled);
    }
    stats.merge(&p_stats);

    // Phase 2: decode engine, fed by the handoff queue in ready order.
    // The integer pairs order as `(ready, idx)` does and are distinct, so
    // the unstable sort is exact.
    handoff.sort_unstable();
    let mut d_stats = EngineStats::new();
    let mut queue: VecDeque<(u64, usize)> = handoff.into();
    let mut running: Vec<Seq> = Vec::new();
    // Σ(input_len + generated) over `running`.
    let mut decode_ctx_tokens = 0u64;

    while !queue.is_empty() || !running.is_empty() {
        check_budget(budget, stats.iterations + d_stats.iterations)?;

        while running.len() < scn.max_seqs as usize {
            let Some(&(key, i)) = queue.front() else {
                break;
            };
            let ready = from_order_key(key);
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
                idx: i as u32,
                input_len: req.input_len,
                output_len: req.output_len,
                prefilled: req.input_len,
                generated: 1,
                pages: need,
            });
            decode_ctx_tokens += (req.input_len + 1) as u64;
        }
        debug_assert!(!running.is_empty());
        debug_assert_eq!(
            decode_ctx_tokens,
            running
                .iter()
                .map(|s| (s.input_len + s.generated) as u64)
                .sum::<u64>()
        );

        let decode_tokens = running.len() as u64;
        let cost = ctx.iteration(0, decode_tokens, decode_ctx_tokens);
        d_stats.account(&cost, 0, decode_tokens, decode_pool, metrics);

        // Every sequence gains a token; the finished ones retire.
        let mut kept = 0;
        for r in 0..running.len() {
            let mut s = running[r];
            s.generated += 1;
            if s.generated == s.output_len {
                decode_pool.free(s.pages);
                finish[s.idx as usize] = d_stats.t;
                decode_ctx_tokens -= (s.input_len + s.generated - 1) as u64;
            } else {
                running[kept] = s;
                kept += 1;
                decode_ctx_tokens += 1;
            }
        }
        running.truncate(kept);
    }
    stats.merge(&d_stats);
    Ok(p_stats.t.max(d_stats.t))
}

#[cfg(test)]
mod reference;
