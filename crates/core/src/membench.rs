//! Memory throughput benchmarks (Tables IV and V).

use crate::paper;
use crate::pchase::{self, MemLevel};
use crate::report::Report;
use hopper_isa::asm::assemble_named;
use hopper_sim::{DeviceConfig, Gpu, Launch};

/// Access flavour of the throughput kernels (the paper's FP32 / FP64 /
/// FP32.v4 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// 4-byte loads.
    Fp32,
    /// 8-byte loads followed by a dependent FP64 add (the paper's
    /// elimination-blocker, which exposes the FP64-unit bottleneck on the
    /// RTX 4090 and H800).
    Fp64,
    /// 16-byte vectorised loads (`float4`).
    Fp32V4,
}

impl AccessKind {
    /// Display label matching the paper's column headers.
    pub fn label(&self) -> &'static str {
        match self {
            AccessKind::Fp32 => "FP32",
            AccessKind::Fp64 => "FP64",
            AccessKind::Fp32V4 => "FP32.v4",
        }
    }
    fn bytes(&self) -> u64 {
        match self {
            AccessKind::Fp32 => 4,
            AccessKind::Fp64 => 8,
            AccessKind::Fp32V4 => 16,
        }
    }
}

const ILP: usize = 4;

/// Read-loop trips of the measured Table V L1 and L2 launches.
const L1_TRIPS: u32 = 256;
const L2_TRIPS: u32 = 192;

/// Trips of the read loop the Table V warm-ups run.  Every trip re-reads
/// the same lines (`%r6` never advances), so the one product of the
/// warm-up the measured launch can see, the L1/L2/TLB tag state, is
/// complete after one (DESIGN.md §4a).
const WARM_TRIPS: u32 = 1;

/// Body of an L1/L2 read loop with `ILP` independent, fully-coalesced loads
/// per iteration: thread `t` touches `base + t·width + j·threads·width`.
fn read_loop_kernel(kind: AccessKind, cop: &str, iters: u32, threads: u32) -> String {
    let w = match kind {
        AccessKind::Fp32 => "b32",
        AccessKind::Fp64 => "b64",
        AccessKind::Fp32V4 => "v4",
    };
    let bytes = kind.bytes();
    let mut body = String::new();
    // %r0 = per-block slice base (blocks offset via %ctaid × %r1 slice size).
    body.push_str(&format!(
        "mov %r2, %tid.x;\nmov %r3, %ctaid.x;\nmul.s32 %r4, %r3, %r1;\n\
         mad.s32 %r5, %r2, {bytes}, %r4;\nadd.s32 %r6, %r5, %r0;\nmov.s32 %r7, 0;\n"
    ));
    body.push_str("LOOP:\n");
    for i in 0..ILP {
        // Destination registers spaced by 2 so v4 pairs never overlap.
        let dst = 10 + i * 2;
        body.push_str(&format!(
            "ld.global.{cop}.{w} %r{dst}, [%r6+{}];\n",
            i as u64 * threads as u64 * bytes
        ));
    }
    if kind == AccessKind::Fp64 {
        // Dependent FP64 adds — the paper's compiler-elimination blocker.
        for i in 0..ILP {
            let dst = 10 + i * 2;
            body.push_str(&format!("add.f64 %r{dst}, %r{dst}, %r9;\n"));
        }
    }
    body.push_str(&format!(
        "add.s32 %r7, %r7, 1;\nsetp.lt.s32 %p0, %r7, {iters};\n@%p0 bra LOOP;\nexit;\n"
    ));
    body
}

/// Sustained L1 throughput in bytes/clk/SM (useful bytes, as the paper
/// counts them).
pub fn l1_throughput(gpu: &mut Gpu, kind: AccessKind) -> f64 {
    l1_run(gpu, kind, WARM_TRIPS)
}

/// [`l1_throughput`] after a warm-up of `warm_trips` loop trips.
fn l1_run(gpu: &mut Gpu, kind: AccessKind, warm_trips: u32) -> f64 {
    let iters = L1_TRIPS;
    let threads = 1024u32;
    // Footprint: threads × ILP × width — well inside every L1.
    let buf_bytes = threads as u64 * ILP as u64 * kind.bytes();
    let buf = gpu.alloc(buf_bytes.next_power_of_two()).expect("alloc");
    let launch = Launch::new(1, threads).with_params(vec![buf, 0]);
    let kernel = |trips| {
        let src = read_loop_kernel(kind, "ca", trips, threads);
        assemble_named(&src, "l1_throughput").expect("assembles")
    };
    gpu.launch(&kernel(warm_trips), &launch).expect("warm-up");
    let stats = gpu.launch(&kernel(iters), &launch).expect("run");
    let useful = threads as u64 * iters as u64 * ILP as u64 * kind.bytes();
    useful as f64 / stats.metrics.cycles as f64
}

/// Sustained shared-memory throughput in bytes/clk/SM.
pub fn shared_throughput(gpu: &mut Gpu) -> f64 {
    let iters = 256u32;
    let src = format!(
        r#"
        .shared 16384;
        mov %r2, %tid.x;
        shl.s32 %r3, %r2, 2;
        st.shared.b32 [%r3], %r2;
        bar.sync;
        mov.s32 %r7, 0;
    LOOP:
        ld.shared.b32 %r10, [%r3];
        ld.shared.b32 %r11, [%r3+4096];
        ld.shared.b32 %r12, [%r3+8192];
        ld.shared.b32 %r13, [%r3+12288];
        add.s32 %r7, %r7, 1;
        setp.lt.s32 %p0, %r7, {iters};
        @%p0 bra LOOP;
        exit;
    "#
    );
    let k = assemble_named(&src, "smem_throughput").expect("assembles");
    let stats = gpu.launch(&k, &Launch::new(1, 1024)).expect("run");
    stats.metrics.smem_bytes as f64 / stats.metrics.cycles as f64
}

/// Shared-memory access cycles per warp load at a given word stride —
/// the classic bank-conflict staircase (stride 1 → conflict-free; stride
/// 2 → 2-way; stride 32 → fully serialised 32-way).
pub fn shared_conflict_cycles(gpu: &mut Gpu, stride_words: u32) -> f64 {
    assert!(stride_words.is_power_of_two() && stride_words <= 32);
    let iters = 128u32;
    // One warp; lane l reads word l·stride (mod the 32 KiB buffer).
    let src = format!(
        r#"
        .shared 32768;
        mov %r2, %tid.x;
        mul.s32 %r3, %r2, {stride_bytes};
        and.s32 %r3, %r3, 32767;
        mov.s32 %r7, 0;
    LOOP:
        ld.shared.b32 %r10, [%r3];
        ld.shared.b32 %r11, [%r3];
        ld.shared.b32 %r12, [%r3];
        ld.shared.b32 %r13, [%r3];
        add.s32 %r7, %r7, 1;
        setp.lt.s32 %p0, %r7, {iters};
        @%p0 bra LOOP;
        exit;
    "#,
        stride_bytes = stride_words * 4,
    );
    // 32 warps keep the port saturated (a single warp would be bound by
    // its own load-to-use latency instead of the conflict serialisation).
    let warps = 32u64;
    let k = assemble_named(&src, "smem_conflicts").expect("assembles");
    let lo = gpu
        .launch(&k, &Launch::new(1, 32 * warps as u32))
        .expect("run");
    let src_hi = src.replace(&format!("%r7, {iters}"), &format!("%r7, {}", 4 * iters));
    let k_hi = assemble_named(&src_hi, "smem_conflicts_hi").expect("assembles");
    let hi = gpu
        .launch(&k_hi, &Launch::new(1, 32 * warps as u32))
        .expect("run");
    let loads = 3 * iters as u64 * 4 * warps;
    (hi.metrics.cycles - lo.metrics.cycles) as f64 / loads as f64
}

/// Sustained L2 throughput in bytes/clk (whole device).
pub fn l2_throughput(gpu: &mut Gpu, kind: AccessKind) -> f64 {
    l2_run(gpu, kind, WARM_TRIPS)
}

/// [`l2_throughput`] after a warm-up of `warm_trips` loop trips.
fn l2_run(gpu: &mut Gpu, kind: AccessKind, warm_trips: u32) -> f64 {
    let iters = L2_TRIPS;
    // 32 warps per SM: enough in-flight loads to cover the L2 latency at
    // the H800's per-SM bandwidth share.
    let threads = 512u32;
    let sms = gpu.device().num_sms;
    let blocks = sms * 2;
    // Per-block slice; total footprint stays inside L2.
    let slice = threads as u64 * ILP as u64 * kind.bytes();
    let buf = gpu.alloc(slice * blocks as u64).expect("alloc");
    let launch = Launch::new(blocks, threads).with_params(vec![buf, slice]);
    let kernel = |trips| {
        let src = read_loop_kernel(kind, "cg", trips, threads);
        assemble_named(&src, "l2_throughput").expect("assembles")
    };
    gpu.launch(&kernel(warm_trips), &launch).expect("warm-up");
    let stats = gpu.launch(&kernel(iters), &launch).expect("run");
    let useful = blocks as u64 * threads as u64 * iters as u64 * ILP as u64 * kind.bytes();
    useful as f64 / stats.metrics.cycles as f64
}

/// Sustained global-memory (DRAM) throughput in GB/s: each thread reads
/// five `float4`s and writes one, streaming far beyond L2 (paper §III-A4).
pub fn global_throughput(gpu: &mut Gpu) -> f64 {
    let iters = 24u32;
    let sms = gpu.device().num_sms;
    let blocks = sms * 4;
    let threads = 256u32;
    let total_threads = blocks as u64 * threads as u64;
    // 6 × 16 B per thread per iteration, streaming.
    let footprint = total_threads * 16 * 6 * iters as u64 + 4096;
    let buf = gpu.alloc(footprint).expect("alloc");
    let lane_stride = total_threads * 16; // fully coalesced planes
    let src = format!(
        r#"
        mov %r2, %tid.x;
        mov %r3, %ctaid.x;
        mad.s32 %r4, %r3, {threads}, %r2;
        mad.s32 %r6, %r4, 16, %r0;
        mov.s32 %r7, 0;
    LOOP:
        ld.global.cg.v4 %r10, [%r6];
        ld.global.cg.v4 %r12, [%r6+{p1}];
        ld.global.cg.v4 %r14, [%r6+{p2}];
        ld.global.cg.v4 %r16, [%r6+{p3}];
        ld.global.cg.v4 %r18, [%r6+{p4}];
        st.global.v4 [%r6+{p5}], %r10;
        add.s32 %r6, %r6, {step};
        add.s32 %r7, %r7, 1;
        setp.lt.s32 %p0, %r7, {iters};
        @%p0 bra LOOP;
        exit;
    "#,
        p1 = lane_stride,
        p2 = 2 * lane_stride,
        p3 = 3 * lane_stride,
        p4 = 4 * lane_stride,
        p5 = 5 * lane_stride,
        step = 6 * lane_stride,
    );
    let k = assemble_named(&src, "global_throughput").expect("assembles");
    let stats = gpu
        .launch(&k, &Launch::new(blocks, threads).with_params(vec![buf]))
        .expect("run");
    let useful = total_threads * iters as u64 * 6 * 16;
    useful as f64 / stats.seconds() / 1e9
}

/// Regenerate Table IV for all three devices.
pub fn table_iv() -> Report {
    let mut rep = Report::new("Table IV", "Latency clocks of different memory scopes");
    for row in &paper::TABLE_IV {
        let level = match row.level {
            "L1 Cache" => MemLevel::L1,
            "Shared" => MemLevel::Shared,
            "L2 Cache" => MemLevel::L2,
            _ => MemLevel::Global,
        };
        for (dev, paper_val) in [
            (DeviceConfig::rtx4090(), row.rtx4090),
            (DeviceConfig::a100(), row.a100),
            (DeviceConfig::h800(), row.h800),
        ] {
            let name = dev.name;
            let mut gpu = Gpu::new(dev);
            let got = pchase::latency(&mut gpu, level);
            rep.push(format!("{} / {}", row.level, name), paper_val, got, "clk");
        }
    }
    rep.note("simulated latencies are integral; the paper's fractional averages include measurement jitter");
    rep
}

/// Regenerate Table V for all three devices.
pub fn table_v() -> Report {
    let mut rep = Report::new("Table V", "Throughput at different memory levels");
    let devs = [
        DeviceConfig::rtx4090(),
        DeviceConfig::a100(),
        DeviceConfig::h800(),
    ];
    for (di, dev) in devs.iter().enumerate() {
        let mut gpu = Gpu::new(dev.clone());
        for (ki, kind) in [AccessKind::Fp32, AccessKind::Fp64, AccessKind::Fp32V4]
            .iter()
            .enumerate()
        {
            let got = l1_throughput(&mut gpu, *kind);
            rep.push(
                format!("L1 {} / {}", kind.label(), dev.name),
                paper::TABLE_V_L1[di].1[ki],
                got,
                "B/clk/SM",
            );
        }
        let got = shared_throughput(&mut gpu);
        rep.push(
            format!("Shared / {}", dev.name),
            paper::TABLE_V_SHARED[di].1,
            got,
            "B/clk/SM",
        );
        for (ki, kind) in [AccessKind::Fp32, AccessKind::Fp64, AccessKind::Fp32V4]
            .iter()
            .enumerate()
        {
            let got = l2_throughput(&mut gpu, *kind);
            rep.push(
                format!("L2 {} / {}", kind.label(), dev.name),
                paper::TABLE_V_L2[di].1[ki],
                got,
                "B/clk",
            );
        }
        let got = global_throughput(&mut gpu);
        rep.push(
            format!("Global / {}", dev.name),
            paper::TABLE_V_GLOBAL[di].1,
            got,
            "GB/s",
        );
    }
    rep.note("FP64 cells on RTX 4090 / H800 are FP64-unit-bound, as the paper observes");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-trip warm-ups leave the measured launches exactly where
    /// warm-ups of the measured length did: Table V's L1, shared and L2
    /// rows, in its order on one `Gpu`, bit for bit on all three devices.
    #[test]
    fn one_trip_warm_ups_are_exact() {
        let kinds = [AccessKind::Fp32, AccessKind::Fp64, AccessKind::Fp32V4];
        let rows = |dev: &DeviceConfig, full: bool| {
            let mut gpu = Gpu::new(dev.clone());
            let (l1, l2) = if full {
                (L1_TRIPS, L2_TRIPS)
            } else {
                (WARM_TRIPS, WARM_TRIPS)
            };
            let mut bits: Vec<u64> = kinds
                .iter()
                .map(|&k| l1_run(&mut gpu, k, l1).to_bits())
                .collect();
            bits.push(shared_throughput(&mut gpu).to_bits());
            bits.extend(kinds.iter().map(|&k| l2_run(&mut gpu, k, l2).to_bits()));
            bits
        };
        for dev in [
            DeviceConfig::rtx4090(),
            DeviceConfig::a100(),
            DeviceConfig::h800(),
        ] {
            assert_eq!(rows(&dev, false), rows(&dev, true), "{}", dev.name);
        }
    }

    #[test]
    fn h800_l1_near_paper() {
        let mut gpu = Gpu::new(DeviceConfig::h800());
        let got = l1_throughput(&mut gpu, AccessKind::Fp32);
        assert!((got - 125.8).abs() / 125.8 < 0.15, "L1 FP32 {got} vs 125.8");
        let v4 = l1_throughput(&mut gpu, AccessKind::Fp32V4);
        assert!((v4 - 124.1).abs() / 124.1 < 0.15, "L1 v4 {v4} vs 124.1");
    }

    #[test]
    fn fp64_unit_bottleneck_on_h800_and_4090() {
        for (dev, want) in [
            (DeviceConfig::h800(), 16.0),
            (DeviceConfig::rtx4090(), 13.3),
        ] {
            let name = dev.name;
            let mut gpu = Gpu::new(dev);
            let got = l1_throughput(&mut gpu, AccessKind::Fp64);
            assert!(
                (got - 16.0).abs() < 4.0,
                "{name}: FP64 L1 path should be unit-bound near 16 B/clk (paper {want}), got {got}"
            );
        }
        // A100 is NOT unit-bound: it sustains ~120 B/clk.
        let mut gpu = Gpu::new(DeviceConfig::a100());
        let got = l1_throughput(&mut gpu, AccessKind::Fp64);
        assert!(got > 60.0, "A100 FP64 L1 should be fast, got {got}");
    }

    #[test]
    fn shared_saturates_128() {
        let mut gpu = Gpu::new(DeviceConfig::h800());
        let got = shared_throughput(&mut gpu);
        assert!((got - 128.0).abs() / 128.0 < 0.1, "shared {got}");
    }

    #[test]
    fn bank_conflict_staircase() {
        // Serialisation grows linearly with the conflict degree and tops
        // out at 32-way.
        let mut gpu = Gpu::new(DeviceConfig::h800());
        let c1 = shared_conflict_cycles(&mut gpu, 1);
        let c2 = shared_conflict_cycles(&mut gpu, 2);
        let c8 = shared_conflict_cycles(&mut gpu, 8);
        let c32 = shared_conflict_cycles(&mut gpu, 32);
        assert!((c1 - 1.0).abs() < 0.3, "stride 1 conflict-free: {c1:.2}");
        assert!(
            (c2 / c1 - 2.0).abs() < 0.4,
            "stride 2 ≈ 2-way: {:.2}",
            c2 / c1
        );
        assert!(
            (c8 / c1 - 8.0).abs() < 1.5,
            "stride 8 ≈ 8-way: {:.2}",
            c8 / c1
        );
        assert!(
            (c32 / c1 - 32.0).abs() < 5.0,
            "stride 32 ≈ 32-way: {:.2}",
            c32 / c1
        );
    }

    #[test]
    fn l2_ranking_h800_dominates() {
        let mut h = Gpu::new(DeviceConfig::h800());
        let mut a = Gpu::new(DeviceConfig::a100());
        let mut r = Gpu::new(DeviceConfig::rtx4090());
        let th = l2_throughput(&mut h, AccessKind::Fp32);
        let ta = l2_throughput(&mut a, AccessKind::Fp32);
        let tr = l2_throughput(&mut r, AccessKind::Fp32);
        // Paper: H800 L2 ≈ 2.2–2.6× the others.
        assert!(th > 1.8 * ta, "H800 {th} vs A100 {ta}");
        assert!(th > 2.0 * tr, "H800 {th} vs 4090 {tr}");
    }

    #[test]
    fn global_bandwidth_matches_measured() {
        for (dev, want) in [
            (DeviceConfig::rtx4090(), 929.8),
            (DeviceConfig::a100(), 1407.2),
            (DeviceConfig::h800(), 1861.5),
        ] {
            let name = dev.name;
            let mut gpu = Gpu::new(dev);
            let got = global_throughput(&mut gpu);
            assert!(
                (got - want).abs() / want < 0.15,
                "{name}: {got} vs {want} GB/s"
            );
        }
    }
}
