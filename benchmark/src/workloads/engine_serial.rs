//! `engine_serial`: direct `Gpu::launch` of one kernel class per engine
//! mechanism, serial engine, fresh device per launch.  Its traced run also
//! hosts the `sim_threads = 2` phase (see [`super::par2`]).

use super::{digest_debug, LayerView, Spec, Workload};
use crate::recorder::Recorder;
use crate::roster::{self, Case, Class, SplitMix64};
use hopper_isa::{DType, MmaDesc, OperandSource, TilePattern};
use hopper_numerics::{Fp8E4M3, SoftFloat, F16};
use hopper_sim::tiles::{execute_mma, Tile};
use hopper_sim::{RunBudget, SimOptions};
use std::time::Instant;

/// See [`Spec`].
pub const SPEC: Spec = Spec {
    name: "engine_serial",
    work_unit: "simulated warp-instructions",
    tail_q: 0.90,
};

/// Classes that also run on the A100 and the RTX 4090.
const CROSS_DEVICE: [Class; 4] = [Class::Pchase, Class::Stream, Class::Mma, Class::Dpx];

/// Engine options of every launch here: one worker, everything else default.
pub fn serial_opts() -> SimOptions {
    SimOptions {
        sim_threads: 1,
        ..SimOptions::default()
    }
}

/// The serial-engine workload.
pub struct EngineSerial {
    seed: u64,
    cases: Vec<Case>,
    instrs: u64,
    cycles: u64,
    init_bytes: u64,
}

impl EngineSerial {
    /// 11 classes on the H800, four of them again on the other two devices.
    pub fn new(seed: u64, shrink: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut cases: Vec<Case> = Class::ALL
            .into_iter()
            .map(|c| roster::case(c, "h800", shrink, &mut rng))
            .collect();
        for dev in ["a100", "rtx4090"] {
            for class in CROSS_DEVICE {
                cases.push(roster::case(class, dev, shrink, &mut rng));
            }
        }
        rng.shuffle(&mut cases);
        EngineSerial {
            seed,
            cases,
            instrs: 0,
            cycles: 0,
            init_bytes: 0,
        }
    }
}

impl Workload for EngineSerial {
    fn roster_digest(&self) -> u64 {
        roster::cases_digest(&self.cases)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        (self.instrs, self.cycles, self.init_bytes) = (0, 0, 0);
        for case in &self.cases {
            let op = rec.op_begin(case.class.op(), case.device);
            let (mut gpu, launch, written) = case.instantiate(serial_opts(), rec);
            let t = rec.begin_tagged(case.class.launch_span(), case.device);
            let result = gpu.launch(&case.kernel, &launch);
            rec.end(t);
            rec.op_end(op, result.is_ok());
            self.init_bytes += written;
            if let Ok(stats) = result {
                digest_debug(rec, &stats);
                rec.digest_u64(case.image_digest(&gpu, &launch));
                rec.work(stats.metrics.instructions);
                self.instrs += stats.metrics.instructions;
                self.cycles += stats.metrics.cycles;
            }
        }
    }

    fn layers(&mut self, rec: &mut Recorder, view: &mut LayerView<'_>) {
        for (class, metric) in Class::ALL.into_iter().zip([
            "sim.launch.pchase_ms",
            "sim.launch.pchase_busy_ms",
            "sim.launch.stream_ms",
            "sim.launch.smem_conflict_ms",
            "sim.launch.atomics_ms",
            "sim.launch.alu_ms",
            "sim.launch.dpx_ms",
            "sim.launch.mma_ms",
            "sim.launch.wgmma_ms",
            "sim.launch.async_copy_ms",
            "sim.launch.cluster_dsm_ms",
        ]) {
            view.set(
                metric,
                view.median_self_ns(class.launch_span(), Some("h800")) / 1e6,
            );
        }
        view.set("sim.launch.instrs_total", self.instrs as f64);
        view.set("sim.launch.cycles_total", self.cycles as f64);
        view.set(
            "sim.gpu_new_us",
            view.median_self_ns("sim.gpu_new", None) / 1e3,
        );
        let init_s = view.sum_self_ns("sim.mem_init", None) / 1e9;
        if init_s > 0.0 {
            let mb = self.init_bytes as f64 * view.traced_passes as f64 / 1e6;
            view.set("sim.mem_init_mb_per_s", mb / init_s);
        }

        super::par2::par_phase(self.seed, rec, view);

        // An unbounded launch against the same launch under a budget it
        // never reaches: what the deadline path costs when it does not fire.
        if let Some(alu) = self.cases.iter().find(|c| c.class == Class::Alu) {
            let budget = RunBudget::cycles(u64::MAX / 2);
            let (mut plain, mut bounded) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let (mut gpu, launch, _) = alu.instantiate(serial_opts(), rec);
                let t0 = Instant::now();
                let _ = std::hint::black_box(gpu.launch(&alu.kernel, &launch));
                plain.push(t0.elapsed().as_secs_f64());
                let (mut gpu, launch, _) = alu.instantiate(serial_opts(), rec);
                let t0 = Instant::now();
                let _ = std::hint::black_box(gpu.launch_bounded(&alu.kernel, &launch, &budget));
                bounded.push(t0.elapsed().as_secs_f64());
            }
            let base = crate::stats::median(&mut plain);
            if base > 0.0 {
                view.set(
                    "sim.launch_bounded_ratio",
                    crate::stats::median(&mut bounded) / base,
                );
            }
        }

        // Soft-float encoders under the tensor-core datapath.
        let vals: Vec<f64> = (0..1024).map(|i| (i as f64 - 512.0) * 0.37).collect();
        let fp8 = view.probe(64, || {
            vals.iter()
                .fold(0u64, |acc, &v| acc ^ Fp8E4M3::from_f64(v).to_bits())
        });
        view.set("numerics.fp8_e4m3_encode_ns", fp8 / vals.len() as f64);
        let f16 = view.probe(64, || {
            vals.iter()
                .fold(0u64, |acc, &v| acc ^ F16::from_f64(v).to_bits())
        });
        view.set("numerics.f16_encode_ns", f16 / vals.len() as f64);

        // The functional tile datapath, one instruction's worth.
        let mma = MmaDesc::mma(16, 8, 16, DType::F16, DType::F32, false).expect("valid shape");
        let wgmma = MmaDesc::wgmma(
            128,
            DType::F16,
            DType::F32,
            false,
            OperandSource::SharedShared,
        )
        .expect("valid shape");
        for (desc, metric, iters) in [
            (mma, "sim.tiles.mma_16x8x16_us", 200),
            (wgmma, "sim.tiles.wgmma_64x128x16_us", 10),
        ] {
            let (m, n, k) = (desc.m as usize, desc.n as usize, desc.k as usize);
            let a = Tile::from_pattern(desc.ab, m, k, TilePattern::Random { seed: 1 });
            let b = Tile::from_pattern(desc.ab, k, n, TilePattern::Random { seed: 2 });
            let c = Tile::zeros(desc.cd, m, n);
            let ns = view.probe(iters, || execute_mma(&desc, &a, &b, &c).map(|t| t.bytes()));
            view.set(metric, ns / 1e3);
        }
    }
}
