//! Differential oracles: run one generated kernel through every redundant
//! implementation pair in the workspace and demand exact agreement.
//!
//! Checked per kernel and device:
//!
//! 1. **Scheduler equivalence** — legacy full-roster scan vs ready-set
//!    must produce bitwise-identical `Metrics`, DVFS outcome, final
//!    contents of the kernel's global buffer, stall attribution, PC
//!    samples and Chrome-trace bytes (generalises the golden
//!    `sched_equivalence` suite to random programs).
//! 2. **Trace transparency** — profiled/traced runs must report the same
//!    `Metrics` as untraced runs: observation must not perturb timing.
//! 3. **Determinism** — running the same launch twice on fresh GPUs gives
//!    identical results.
//! 4. **Sanity invariants** — stall conservation, occupancy ∈ [0, 1],
//!    finite non-negative energy, idle ≤ power ≤ TDP, achieved ≤ nominal
//!    clock.
//! 5. **Assembler round-trip** (textual kernels) — disassemble → assemble
//!    reproduces the exact instruction list, twice (digest fixpoint).
//! 6. **Serve cache** (textual kernels, when a [`ServeOracle`] is
//!    provided) — a cold daemon response and the cached replay must be
//!    byte-identical in canonical form (envelope minus the per-request
//!    `corr_id`/`timings`), the daemon's metrics must record the cold
//!    run as a cache miss+store and the replay as a hit, and opting
//!    into `timings` must not change the payload.
//! 7. **Replay round-trip** — capturing a trace must not perturb the run
//!    (capture transparency), and replaying the captured streams through
//!    the timing model must reproduce the functional run's `Metrics`,
//!    stall buckets, DVFS outcome and full stall profile bitwise; for
//!    textual kernels the trace must additionally survive the text and
//!    binary file formats unchanged.
//!
//! Number 8 is retired; new oracles take 9 onwards.

use crate::gen::{KernelPlan, GBUF_BYTES};
use crate::rng::SplitMix64;
use hopper_isa::{asm, disassemble};
use hopper_obs::Registry;
use hopper_replay::Trace;
use hopper_serve::{canonical_response, Client, ReportKind, RunSpec, Server, ServerConfig};
use hopper_sim::{
    ChromeTrace, DeviceConfig, Gpu, Launch, PcSampleSink, Replay, Run, RunStats, Scheduler,
    SimOptions, StallProfile,
};
use std::sync::Arc;

/// Fail the oracle with a formatted reason.
macro_rules! ensure {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            return Err(format!($($arg)*));
        }
    };
}

fn gpu_with(dev: &DeviceConfig, sched: Scheduler) -> Gpu {
    Gpu::with_options(
        dev.clone(),
        SimOptions {
            scheduler: sched,
            ..Default::default()
        },
    )
}

/// Allocate and deterministically fill the kernel's scratch buffer.
/// Uses the bulk `write_bytes` path on purpose: the fuzzer then also
/// exercises the page-chunked copy against the engine's scalar reads.
fn setup(gpu: &mut Gpu, plan: &KernelPlan) -> Result<(u64, Launch), String> {
    let buf = gpu
        .alloc(GBUF_BYTES)
        .map_err(|e| format!("alloc failed: {e:?}"))?;
    let mut g = SplitMix64::new(plan.seed ^ 0xF1F1_F1F1);
    let data: Vec<u8> = (0..GBUF_BYTES).map(|_| g.next_u64() as u8).collect();
    gpu.mem_mut().write_bytes(buf, &data);
    Ok((buf, plan.launch(buf)))
}

fn sanity(plan: &KernelPlan, dev: &DeviceConfig, tag: &str, s: &RunStats) -> Result<(), String> {
    ensure!(
        s.achieved_clock_hz > 0.0 && s.achieved_clock_hz <= s.nominal_clock_hz + 1e-6,
        "{tag}: achieved clock {} outside (0, nominal {}]",
        s.achieved_clock_hz,
        s.nominal_clock_hz
    );
    ensure!(
        s.avg_power_w.is_finite()
            && s.avg_power_w >= dev.idle_w - 1e-6
            && s.avg_power_w <= dev.tdp_w + 1e-6,
        "{tag}: avg power {} W outside [idle {}, TDP {}]",
        s.avg_power_w,
        dev.idle_w,
        dev.tdp_w
    );
    if let Some(occ) = s.achieved_occupancy() {
        ensure!(
            (0.0..=1.0 + 1e-9).contains(&occ),
            "{tag}: achieved occupancy {occ} outside [0, 1]"
        );
    }
    let _ = plan;
    Ok(())
}

/// Run the full oracle battery for one plan on one device. On failure the
/// returned string names the oracle that tripped; callers prepend the seed.
pub fn check_plan(
    plan: &KernelPlan,
    dev: &DeviceConfig,
    serve: Option<&ServeOracle>,
) -> Result<(), String> {
    let k = plan.kernel();

    // 1+3: untraced, both schedulers, ready-set twice (determinism); each
    // run also returns the final image of the kernel's global buffer.
    let run = |sched| -> Result<(RunStats, Vec<u8>), String> {
        let mut gpu = gpu_with(dev, sched);
        let (buf, l) = setup(&mut gpu, plan)?;
        let s = gpu
            .launch(&k, &l)
            .map_err(|e| format!("launch ({sched:?}) failed: {e:?}"))?;
        Ok((s, gpu.read(buf, GBUF_BYTES as usize)))
    };
    let (rs, rs_mem) = run(Scheduler::ReadySet)?;
    let (legacy, legacy_mem) = run(Scheduler::LegacyScan)?;
    let (rs2, _) = run(Scheduler::ReadySet)?;
    ensure!(
        rs.metrics == legacy.metrics,
        "scheduler oracle: untraced Metrics diverge\n  ready-set: {:?}\n  legacy:    {:?}",
        rs.metrics,
        legacy.metrics
    );
    ensure!(
        rs.achieved_clock_hz == legacy.achieved_clock_hz,
        "scheduler oracle: DVFS outcome diverges ({} vs {})",
        rs.achieved_clock_hz,
        legacy.achieved_clock_hz
    );
    ensure!(
        rs_mem == legacy_mem,
        "scheduler oracle: schedulers leave different memory contents"
    );
    ensure!(
        rs.metrics == rs2.metrics && rs.achieved_clock_hz == rs2.achieved_clock_hz,
        "determinism oracle: two identical ready-set runs disagree"
    );
    sanity(plan, dev, "ready-set", &rs)?;
    sanity(plan, dev, "legacy", &legacy)?;

    // 2: profiled runs — stall attribution equal across schedulers and
    // metrics equal to the untraced run (trace transparency).
    let prof = |sched| -> Result<_, String> {
        let mut gpu = gpu_with(dev, sched);
        let (_, l) = setup(&mut gpu, plan)?;
        gpu.profile(&k, &l)
            .map_err(|e| format!("profile ({sched:?}) failed: {e:?}"))
    };
    let (sa, pa) = prof(Scheduler::ReadySet)?;
    let (sb, pb) = prof(Scheduler::LegacyScan)?;
    ensure!(
        sa.metrics == rs.metrics,
        "trace-transparency oracle: profiling changed Metrics\n  profiled: {:?}\n  plain:    {:?}",
        sa.metrics,
        rs.metrics
    );
    ensure!(
        sa.metrics == sb.metrics && sa.stalls == sb.stalls,
        "scheduler oracle: profiled stats diverge"
    );
    if let Some(d) = pa.first_divergence(&pb) {
        return Err(format!("scheduler oracle: StallProfile diverges: {d}"));
    }
    ensure!(
        pa.conservation_ok(),
        "invariant oracle: stall profile breaks cycle conservation"
    );

    // 1 again, through the trace sinks: byte-identical Chrome JSON and
    // equal PC samples across schedulers.
    let chrome = |sched| -> Result<String, String> {
        let mut gpu = gpu_with(dev, sched);
        let (_, l) = setup(&mut gpu, plan)?;
        let mut t = ChromeTrace::new();
        gpu.launch_traced(&k, &l, &mut t)
            .map_err(|e| format!("traced launch ({sched:?}) failed: {e:?}"))?;
        Ok(t.to_json())
    };
    ensure!(
        chrome(Scheduler::ReadySet)? == chrome(Scheduler::LegacyScan)?,
        "scheduler oracle: Chrome traces not byte-identical"
    );
    let pcs = |sched| -> Result<PcSampleSink, String> {
        let mut gpu = gpu_with(dev, sched);
        let (_, l) = setup(&mut gpu, plan)?;
        let mut s = PcSampleSink::default();
        gpu.launch_traced(&k, &l, &mut s)
            .map_err(|e| format!("pc-sampled launch ({sched:?}) failed: {e:?}"))?;
        Ok(s)
    };
    ensure!(
        pcs(Scheduler::ReadySet)? == pcs(Scheduler::LegacyScan)?,
        "scheduler oracle: per-PC samples diverge"
    );

    // 7: replay round-trip.  Capture is transparent (the captured run's
    // stats equal the plain run's bitwise), and a replayed trace
    // reproduces Metrics, stalls, DVFS and the full stall profile.
    let (cap, source) = {
        let mut gpu = gpu_with(dev, Scheduler::ReadySet);
        let (_, l) = setup(&mut gpu, plan)?;
        gpu.launch_captured(&k, &l)
            .map_err(|e| format!("replay oracle: capture failed: {e:?}"))?
    };
    ensure!(
        cap.metrics == rs.metrics
            && cap.stalls == rs.stalls
            && cap.achieved_clock_hz == rs.achieved_clock_hz,
        "replay oracle: capture perturbed the run\n  captured: {:?}\n  plain:    {:?}",
        cap.metrics,
        rs.metrics
    );
    source
        .validate(&k)
        .map_err(|e| format!("replay oracle: captured streams invalid: {e}"))?;
    let rep = {
        let mut gpu = gpu_with(dev, Scheduler::ReadySet);
        let (_, l) = setup(&mut gpu, plan)?;
        gpu.launch_replayed(&k, &l, &source)
            .map_err(|e| format!("replay oracle: replay failed: {e:?}"))?
    };
    ensure!(
        rep.metrics == rs.metrics
            && rep.stalls == rs.stalls
            && rep.achieved_clock_hz == rs.achieved_clock_hz,
        "replay oracle: replayed run diverges from functional run\n  replayed:   {:?}\n  functional: {:?}",
        rep.metrics,
        rs.metrics
    );
    let (rp_s, rp_p) = {
        let mut gpu = gpu_with(dev, Scheduler::ReadySet);
        let (_, l) = setup(&mut gpu, plan)?;
        let mut prof = StallProfile::default();
        let run = Run {
            sink: Some(&mut prof),
            replay: Some(Replay {
                source: &source,
                prevalidated: false,
            }),
            ..Run::default()
        };
        let mut stats = gpu
            .run(&k, &l, run)
            .map_err(|e| format!("replay oracle: profiled replay failed: {e:?}"))?;
        stats.stalls = Some(prof.summary());
        (stats, prof)
    };
    ensure!(
        rp_s.metrics == sa.metrics && rp_s.stalls == sa.stalls,
        "replay oracle: profiled replay stats diverge"
    );
    if let Some(d) = rp_p.first_divergence(&pa) {
        return Err(format!(
            "replay oracle: replayed StallProfile diverges: {d}"
        ));
    }

    // 5: assembler round-trip fixpoint (textual kernels only).
    if plan.is_textual() {
        let text =
            disassemble(&k).ok_or_else(|| "textual plan failed to disassemble".to_string())?;
        let k2 = asm::assemble_named(&text, &k.name).map_err(|e| {
            format!(
                "round-trip oracle: reassembly failed at line {}: {}",
                e.line, e.msg
            )
        })?;
        ensure!(
            k.instrs == k2.instrs && k.smem_bytes == k2.smem_bytes,
            "round-trip oracle: disasm→asm changed the program"
        );
        let text2 = disassemble(&k2).ok_or_else(|| "second disassembly failed".to_string())?;
        let k3 = asm::assemble_named(&text2, &k.name)
            .map_err(|e| format!("round-trip oracle: second reassembly failed: {}", e.msg))?;
        ensure!(
            k2.digest() == k3.digest(),
            "round-trip oracle: digest not a fixpoint ({:x} vs {:x})",
            k2.digest(),
            k3.digest()
        );

        // 7 (file formats): the captured trace survives both on-disk
        // encodings unchanged and still validates after reparse.
        let trace = {
            let mut gpu = gpu_with(dev, Scheduler::ReadySet);
            let (_, l) = setup(&mut gpu, plan)?;
            let (_, trace) = Trace::capture_kernel(&mut gpu, dev.wire_name(), &k, &l)
                .map_err(|e| format!("replay oracle: trace capture failed: {e}"))?;
            trace
        };
        for (fmt, bytes) in [
            ("text", trace.to_text().into_bytes()),
            ("binary", trace.to_binary()),
        ] {
            let back = Trace::parse(&bytes)
                .map_err(|e| format!("replay oracle: {fmt} reparse failed: {e}"))?;
            ensure!(
                back == trace,
                "replay oracle: {fmt} round-trip changed the trace"
            );
            back.validate()
                .map_err(|e| format!("replay oracle: reparsed {fmt} trace invalid: {e}"))?;
        }

        // 6: serve-path cold vs cached.
        if let Some(srv) = serve {
            srv.check(plan, &text, dev)?;
        }
    }

    Ok(())
}

/// In-process `hsimd` used to cross-check the serve path: submits each
/// textual kernel three times (cold, cached, cached+`timings`) and
/// demands canonically byte-identical responses plus matching cache
/// metric increments (cold → miss+store, replays → hits).
pub struct ServeOracle {
    server: Server,
    addr: String,
    registry: Arc<Registry>,
}

impl ServeOracle {
    /// Start a private daemon on a loopback port with its own metric
    /// registry, so cache-op assertions see only this daemon's traffic.
    pub fn start() -> std::io::Result<ServeOracle> {
        let registry = Arc::new(Registry::new());
        let server = Server::start(ServerConfig {
            registry: Some(registry.clone()),
            ..Default::default()
        })?;
        let addr = server.local_addr().to_string();
        Ok(ServeOracle {
            server,
            addr,
            registry,
        })
    }

    /// Current value of `hsimd_cache_ops_total{result=...}` (0 before the
    /// daemon first touches the cache).
    fn cache_op(&self, result: &str) -> u64 {
        hopper_obs::expo::parse(&self.registry.render())
            .ok()
            .and_then(|e| e.value("hsimd_cache_ops_total", &[("result", result)]))
            .unwrap_or(0.0) as u64
    }

    /// Submit `text` three times: the second run must hit the result
    /// cache and match the cold run byte-for-byte in canonical form, and
    /// a third run with `timings` on must carry the same payload. The
    /// daemon's own metrics must agree: exactly one miss and one store
    /// from the cold run, one hit per replay.
    pub fn check(&self, plan: &KernelPlan, text: &str, dev: &DeviceConfig) -> Result<(), String> {
        let mut spec = RunSpec::new(text, dev.wire_name(), plan.geom.grid, plan.geom.block);
        spec.name = Some(format!("fuzz_{:016x}", plan.seed));
        spec.cluster = plan.geom.cluster;
        // The daemon builds a fresh GPU per job; sparse memory reads zeros,
        // so a raw base address is a valid deterministic parameter.
        spec.params = vec![hopper_sim::GlobalMem::BASE];
        if plan.seed & 1 == 0 {
            spec.report = ReportKind::Profile;
        }
        let client = Client::new(self.addr.clone());

        let (miss0, store0, hit0) = (
            self.cache_op("miss"),
            self.cache_op("store"),
            self.cache_op("hit"),
        );
        let cold = client
            .run(&spec)
            .map_err(|e| format!("serve oracle: cold request failed: {e}"))?;
        ensure!(
            cold.contains("\"status\":\"ok\""),
            "serve oracle: daemon rejected kernel: {cold}"
        );
        ensure!(
            self.cache_op("miss") == miss0 + 1 && self.cache_op("store") == store0 + 1,
            "serve oracle: cold run did not record exactly one cache miss+store \
             (miss {miss0} -> {}, store {store0} -> {})",
            self.cache_op("miss"),
            self.cache_op("store")
        );
        let cached = client
            .run(&spec)
            .map_err(|e| format!("serve oracle: cached request failed: {e}"))?;
        ensure!(
            canonical_response(&cold) == canonical_response(&cached),
            "serve oracle: cached response differs from cold run\n  cold:   {cold}\n  cached: {cached}"
        );
        ensure!(
            self.cache_op("hit") == hit0 + 1 && self.cache_op("miss") == miss0 + 1,
            "serve oracle: replay did not record exactly one cache hit \
             (hit {hit0} -> {}, miss {miss0} -> {})",
            self.cache_op("hit"),
            self.cache_op("miss")
        );

        // Opting into per-stage timings decorates the envelope only: the
        // payload stays byte-identical and the cache still hits.
        spec.timings = true;
        let timed = client
            .run(&spec)
            .map_err(|e| format!("serve oracle: timings request failed: {e}"))?;
        ensure!(
            timed.contains("\"timings\":"),
            "serve oracle: timings flag produced no timeline: {timed}"
        );
        ensure!(
            canonical_response(&timed) == canonical_response(&cold),
            "serve oracle: timings flag changed the payload\n  cold:  {cold}\n  timed: {timed}"
        );
        ensure!(
            self.cache_op("hit") == hit0 + 2,
            "serve oracle: timings replay bypassed the cache (hit {hit0} -> {})",
            self.cache_op("hit")
        );
        Ok(())
    }

    /// Infer-report oracle: derive a small serving scenario from `seed`,
    /// then demand (a) two in-process `hopper_infer::run` calls render
    /// byte-identical JSON, (b) the daemon's cold response carries that
    /// exact payload and records one cache miss+store, (c) the cached
    /// replay is canonically byte-identical and records one hit, and
    /// (d) successful reports satisfy the power/percentile invariants.
    ///
    /// Page sizes run from 1 to 64 tokens and half the small draws get a
    /// prefill budget of at most 64 tokens, so prompts chunk across
    /// iterations.  One draw in three is the KV-pressure shape: 2–3 k
    /// FP16 requests arriving at once with 4096 resident sequences, which
    /// outgrows every device's pool and must preempt (checked).  Returns
    /// the run's preemption count.
    pub fn check_infer(&self, seed: u64, dev: &DeviceConfig) -> Result<u64, String> {
        use hopper_infer::{Mode, Precision};
        let mut g = SplitMix64::new(seed ^ 0x1FE2_0A5C_11B7_D30D);
        let workload_seed = g.next_u64();
        let kv_page_tokens = 1 + (g.next_u64() % 64) as u32;
        let pressure = g.next_u64().is_multiple_of(3);
        let scn = if pressure {
            hopper_infer::InferScenario {
                requests: 2000 + (g.next_u64() % 1001) as u32,
                qps: 1e6,
                max_seqs: 4096,
                max_batch_tokens: 512 + (g.next_u64() % 7681) as u32,
                precision: Precision::Fp16,
                mode: Mode::Continuous,
                tp: 1,
                ..Default::default()
            }
        } else {
            hopper_infer::InferScenario {
                requests: 8 + (g.next_u64() % 25) as u32, // 8..=32
                qps: 50.0 * (1 + g.next_u64() % 8) as f64,
                max_seqs: 16 << (g.next_u64() % 3), // 16, 32, 64
                max_batch_tokens: if g.next_u64().is_multiple_of(2) {
                    1 + (g.next_u64() % 64) as u32
                } else {
                    8192
                },
                precision: match g.next_u64() % 3 {
                    0 => Precision::Fp16,
                    1 => Precision::Bf16,
                    _ => Precision::Fp8,
                },
                mode: if g.next_u64().is_multiple_of(4) {
                    Mode::Disaggregated
                } else {
                    Mode::Continuous
                },
                tp: if g.next_u64().is_multiple_of(4) { 2 } else { 1 },
                ..Default::default()
            }
        };
        let scn = hopper_infer::InferScenario {
            seed: workload_seed,
            kv_page_tokens,
            ..scn
        };

        let budget = hopper_infer::InferBudget::default();
        let local = hopper_infer::run(&scn, dev, &budget, None)
            .map_err(|e| format!("infer oracle: local run failed: {e:?}"))?;
        let local_json = local.to_json().to_string();
        let again = hopper_infer::run(&scn, dev, &budget, None)
            .map_err(|e| format!("infer oracle: local rerun failed: {e:?}"))?
            .to_json()
            .to_string();
        ensure!(
            local_json == again,
            "infer oracle: two identical local runs render different bytes\n  a: {local_json}\n  b: {again}"
        );
        if local.outcome == "ok" {
            ensure!(
                local.completed == local.requests,
                "infer oracle: ok run completed {} of {} requests",
                local.completed,
                local.requests
            );
            ensure!(
                local.avg_power_w >= dev.idle_w - 1e-6 && local.avg_power_w <= dev.tdp_w + 1e-6,
                "infer oracle: avg power {} W outside [idle {}, TDP {}]",
                local.avg_power_w,
                dev.idle_w,
                dev.tdp_w
            );
            for (name, p) in [
                ("ttft", &local.ttft_ms),
                ("tpot", &local.tpot_ms),
                ("e2e", &local.e2e_ms),
            ] {
                ensure!(
                    p.p50 <= p.p90 && p.p90 <= p.p99,
                    "infer oracle: {name} percentiles not monotone ({} / {} / {})",
                    p.p50,
                    p.p90,
                    p.p99
                );
            }
            ensure!(
                local.iterations
                    == local.prefill_iterations + local.decode_iterations + local.mixed_iterations,
                "infer oracle: iteration phase counts do not sum"
            );
        }
        ensure!(
            !pressure || local.preempted > 0,
            "infer oracle: the KV-pressure shape did not preempt: {local_json}"
        );

        let mut spec = RunSpec::new(String::new(), dev.wire_name(), 1, 1);
        spec.report = ReportKind::Infer;
        spec.infer = Some(
            serde_json::from_str(&scn.canonical_json())
                .map_err(|e| format!("infer oracle: canonical json invalid: {e}"))?,
        );
        let client = Client::new(self.addr.clone());
        let (miss0, store0, hit0) = (
            self.cache_op("miss"),
            self.cache_op("store"),
            self.cache_op("hit"),
        );
        let cold = client
            .run(&spec)
            .map_err(|e| format!("infer oracle: cold request failed: {e}"))?;
        ensure!(
            cold.contains("\"status\":\"ok\""),
            "infer oracle: daemon rejected scenario: {cold}"
        );
        let payload = serde_json::from_str(&cold)
            .ok()
            .and_then(|v| v.get("result").map(|r| r.to_string()))
            .ok_or_else(|| format!("infer oracle: response has no result: {cold}"))?;
        ensure!(
            payload == local_json,
            "infer oracle: daemon payload diverges from in-process run\n  daemon: {payload}\n  local:  {local_json}"
        );
        ensure!(
            self.cache_op("miss") == miss0 + 1 && self.cache_op("store") == store0 + 1,
            "infer oracle: cold run did not record exactly one cache miss+store"
        );
        let cached = client
            .run(&spec)
            .map_err(|e| format!("infer oracle: cached request failed: {e}"))?;
        ensure!(
            canonical_response(&cold) == canonical_response(&cached),
            "infer oracle: cached response differs from cold run\n  cold:   {cold}\n  cached: {cached}"
        );
        ensure!(
            self.cache_op("hit") == hit0 + 1,
            "infer oracle: replay did not record exactly one cache hit"
        );
        Ok(local.preempted)
    }

    /// Shut the daemon down.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}
