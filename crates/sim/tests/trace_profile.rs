//! Tracing and profiling end-to-end: conservation of the stall accounting
//! on representative workloads, deterministic replay, and Chrome-trace
//! well-formedness.

use hopper_isa::asm::assemble_named;
use hopper_isa::mma::OperandSource;
use hopper_isa::{
    CmpOp, DType, IAluOp, KernelBuilder, MmaDesc, Operand::Imm, Operand::Reg as R, Pred, Reg,
    TileId, TilePattern,
};
use hopper_sim::trace::TeeSink;
use hopper_sim::{
    CaptureSink, ChromeTrace, DeviceConfig, Gpu, Launch, NullSink, PcSampleSink, StallProfile,
    StallReason, TraceSink, Wants,
};

/// An L1-resident pointer chase (single warp, dependent loads).
fn pchase_setup(gpu: &mut Gpu) -> (hopper_isa::Kernel, Launch) {
    let (ring_bytes, stride) = (16 * 1024u64, 128u64);
    let n = ring_bytes / stride;
    let buf = gpu.alloc(ring_bytes).expect("alloc");
    for i in 0..n {
        let next = buf + ((i + 1) % n) * stride;
        gpu.mem_mut().write_scalar(buf + i * stride, 8, next);
    }
    let k = assemble_named(
        r#"
        mov.s64 %r3, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.ca.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, 512;
        @%p0 bra LOOP;
        exit;
    "#,
        "pchase_l1",
    )
    .expect("assembles");
    (k, Launch::new(1, 1).with_params(vec![buf]))
}

/// A dependent `wgmma` accumulate chain on one warp group per SM.
fn wgmma_setup() -> (hopper_isa::Kernel, Launch) {
    let desc = MmaDesc::wgmma(
        128,
        DType::F16,
        DType::F32,
        false,
        OperandSource::SharedShared,
    )
    .expect("valid shape");
    let (m, n, k) = (desc.m as u16, desc.n as u16, desc.k as u16);
    let mut b = KernelBuilder::new("wgmma_chain");
    b.fill_tile(TileId(0), desc.ab, m, k, TilePattern::Zero);
    b.fill_tile(TileId(1), desc.ab, k, n, TilePattern::Zero);
    b.fill_tile(TileId(2), desc.cd, m, n, TilePattern::Zero);
    b.mov(Reg(1), Imm(0));
    b.wgmma_fence();
    let top = b.label_here();
    b.wgmma(desc, TileId(2), TileId(0), TileId(1));
    b.wgmma_commit();
    b.wgmma_wait(0);
    b.ialu(IAluOp::Add, Reg(1), R(Reg(1)), Imm(1));
    b.setp(Pred(0), CmpOp::Lt, R(Reg(1)), Imm(64));
    b.bra_if(top, Pred(0), true);
    b.exit();
    (b.build(), Launch::new(4, 128))
}

/// A two-block cluster where rank 0 chases a pointer ring in rank 1's
/// shared memory over the SM-to-SM network.
fn dsm_setup() -> (hopper_isa::Kernel, Launch) {
    let k = assemble_named(
        r#"
        .shared 4096;
        mov %r1, %cluster_ctarank;
        setp.ne.s32 %p0, %r1, 1;
        @%p0 bra SYNC;
        mov.s32 %r3, 0;
    FILL:
        add.s32 %r4, %r3, 16;
        and.s32 %r4, %r4, 4095;
        mapa %r5, %r4, 1;
        st.shared.b64 [%r3], %r5;
        add.s32 %r3, %r3, 16;
        setp.lt.s32 %p1, %r3, 4096;
        @%p1 bra FILL;
    SYNC:
        barrier.cluster;
        setp.ne.s32 %p2, %r1, 0;
        @%p2 bra DONE;
        mapa %r6, 0, 1;
        mov.s32 %r7, 0;
    CHASE:
        ld.shared::cluster.b64 %r6, [%r6];
        add.s32 %r7, %r7, 1;
        setp.lt.s32 %p3, %r7, 256;
        @%p3 bra CHASE;
    DONE:
        barrier.cluster;
        exit;
    "#,
        "dsm_chase",
    )
    .expect("assembles");
    (k, Launch::new(2, 1).with_cluster(2))
}

#[test]
fn conservation_pchase() {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = pchase_setup(&mut gpu);
    let (stats, prof) = gpu.profile(&k, &launch).expect("launch");
    assert!(
        prof.conservation_ok(),
        "pchase profile must conserve cycles"
    );
    let s = stats.stalls.expect("profile fills stalls");
    // A dependent-load chain stalls on the scoreboard above all else.
    assert_eq!(s.top_stall().map(|(r, _)| r), Some(StallReason::Scoreboard));
    assert!(s.issued > 0);
}

#[test]
fn conservation_wgmma() {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = wgmma_setup();
    let (stats, prof) = gpu.profile(&k, &launch).expect("launch");
    assert!(prof.conservation_ok(), "wgmma profile must conserve cycles");
    let s = stats.stalls.expect("profile fills stalls");
    // The serialised wgmma chain keeps the warp group behind the tensor
    // pipe (committed groups in flight).
    assert_eq!(
        s.top_stall().map(|(r, _)| r),
        Some(StallReason::TensorPipeBusy)
    );
}

#[test]
fn conservation_cluster_dsm() {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = dsm_setup();
    let (stats, prof) = gpu.profile(&k, &launch).expect("launch");
    assert!(prof.conservation_ok(), "DSM profile must conserve cycles");
    let s = stats.stalls.expect("profile fills stalls");
    // Both the cluster barrier and the remote chase show up.
    assert!(
        s.stalled[StallReason::Barrier.bucket()] > 0,
        "cluster barrier stalls recorded"
    );
    assert!(
        s.stalled[StallReason::Scoreboard.bucket()] > 0,
        "remote-load stalls recorded"
    );
}

#[test]
fn conservation_multiwave() {
    // More blocks than one wave holds: per-slot totals must still add up
    // when the profile accumulates across waves.
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        mul.s32 %r2, %r1, 3;
        exit;
    "#,
        "tiny",
    )
    .expect("assembles");
    let sms = gpu.device().num_sms;
    // occupancy = 2 blocks/SM at 1024 threads; +1 block forces a 2nd wave.
    let launch = Launch::new(2 * sms + 1, 1024);
    let (_, prof) = gpu.profile(&k, &launch).expect("launch");
    assert!(
        prof.waves >= 2,
        "expected a multi-wave launch, got {}",
        prof.waves
    );
    assert!(
        prof.conservation_ok(),
        "multi-wave profile must conserve cycles"
    );
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut gpu = Gpu::new(DeviceConfig::h800());
        let (k, launch) = pchase_setup(&mut gpu);
        let mut prof = StallProfile::default();
        let mut chrome = ChromeTrace::new();
        let mut tee = TeeSink::new(&mut prof, &mut chrome);
        gpu.launch_traced(&k, &launch, &mut tee).expect("launch");
        (prof, chrome.to_json())
    };
    let (prof_a, json_a) = run();
    let (prof_b, json_b) = run();
    assert_eq!(prof_a, prof_b, "stall profiles must replay identically");
    assert_eq!(json_a, json_b, "chrome traces must be byte-identical");
}

#[test]
fn chrome_trace_valid_json_and_monotonic() {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = pchase_setup(&mut gpu);
    let mut chrome = ChromeTrace::new();
    gpu.launch_traced(&k, &launch, &mut chrome).expect("launch");
    assert!(!chrome.is_empty());

    let v = serde_json::from_str(&chrome.to_json()).expect("trace parses as JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last_ts = 0.0f64;
    let mut complete = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        match ph {
            "M" => {
                // Metadata names a process or thread.
                assert!(ev.get("name").is_some() && ev.get("args").is_some());
            }
            "X" => {
                complete += 1;
                let ts = ev.get("ts").and_then(|t| t.as_f64()).expect("ts field");
                let dur = ev.get("dur").and_then(|d| d.as_f64()).expect("dur field");
                assert!(ts >= last_ts, "timestamps must be sorted: {ts} < {last_ts}");
                assert!(dur >= 1.0, "complete events span at least one cycle");
                last_ts = ts;
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "trace contains complete events");
}

#[test]
fn null_sink_matches_untraced_run() {
    // A NullSink launch must take the exact untraced code path: identical
    // cycle counts and no profile side effects.
    let mut gpu_a = Gpu::new(DeviceConfig::h800());
    let (k, launch) = pchase_setup(&mut gpu_a);
    let plain = gpu_a.launch(&k, &launch).expect("launch");

    let mut gpu_b = Gpu::new(DeviceConfig::h800());
    let (k2, launch2) = pchase_setup(&mut gpu_b);
    let mut null = NullSink;
    let traced = gpu_b
        .launch_traced(&k2, &launch2, &mut null)
        .expect("launch");

    assert_eq!(plain.metrics.cycles, traced.metrics.cycles);
    assert_eq!(plain.metrics.instructions, traced.metrics.instructions);
    assert!(
        traced.stalls.is_none(),
        "NullSink must not fabricate a summary"
    );
}

/// A sink that wants every category and counts what arrives.
#[derive(Default)]
struct Everything {
    /// issue, stall, unit, instr, pc_totals, summary callbacks.
    calls: [u64; 6],
}

impl TraceSink for Everything {
    fn wants(&self) -> Wants {
        Wants {
            issue: true,
            stall: true,
            unit: true,
            instr: true,
            pc_totals: true,
            summary: true,
        }
    }
    fn issue(&mut self, _: &hopper_sim::trace::IssueEvent) {
        self.calls[0] += 1;
    }
    fn stall(&mut self, _: &hopper_sim::trace::StallSpan) {
        self.calls[1] += 1;
    }
    fn unit(&mut self, _: &hopper_sim::trace::UnitSpan) {
        self.calls[2] += 1;
    }
    fn instr(&mut self, _: &hopper_sim::InstrEvent) {
        self.calls[3] += 1;
    }
    fn pc_totals(&mut self, _: &hopper_sim::trace::PcTotals) {
        self.calls[4] += 1;
    }
    fn slot_totals(&mut self, _: &hopper_sim::trace::SlotTotals) {
        self.calls[5] += 1;
    }
}

type Setup = fn(&mut Gpu) -> (hopper_isa::Kernel, Launch);

/// Run `setup`'s kernel under a fresh `S` alone and under a fresh `S` tee'd
/// to an [`Everything`]: both runs must equal the untraced launch, and what
/// `read` extracts from the two `S`s must be equal.
fn alone_vs_teed<S: TraceSink + Default, T: PartialEq + std::fmt::Debug>(
    what: &str,
    setup: Setup,
    read: fn(S) -> T,
) {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = setup(&mut gpu);
    let plain = format!("{:?}", gpu.launch(&k, &launch).expect("launch"));

    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = setup(&mut gpu);
    let mut alone = S::default();
    let stats = gpu.launch_traced(&k, &launch, &mut alone).expect("launch");
    assert_eq!(format!("{stats:?}"), plain, "{what}: traced run diverged");

    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = setup(&mut gpu);
    let (mut teed, mut every) = (S::default(), Everything::default());
    let mut tee = TeeSink::new(&mut teed, &mut every);
    let stats = gpu.launch_traced(&k, &launch, &mut tee).expect("launch");
    assert_eq!(format!("{stats:?}"), plain, "{what}: tee'd run diverged");
    assert!(
        every.calls.iter().all(|&n| n > 0),
        "{what}: the partner must see every category, got {:?}",
        every.calls
    );
    assert_eq!(
        read(alone),
        read(teed),
        "{what}: depends on the tee partner"
    );
}

/// The sink contract (DESIGN §4c): a sink is handed the categories it wants
/// whatever else is attached, and no attachment perturbs the run — on a
/// global-memory kernel and a `wgmma` kernel, for every stock sink.
#[test]
fn what_a_sink_receives_does_not_depend_on_its_tee_partner() {
    let kernels: [(&str, Setup); 2] = [("pchase", pchase_setup), ("wgmma", |_| wgmma_setup())];
    for (name, setup) in kernels {
        alone_vs_teed::<ChromeTrace, _>(&format!("{name}/chrome"), setup, |c| {
            assert!(!c.is_empty());
            c.to_json()
        });
        alone_vs_teed::<StallProfile, _>(&format!("{name}/stall profile"), setup, |p| {
            assert!(p.conservation_ok());
            p
        });
        alone_vs_teed::<PcSampleSink, _>(&format!("{name}/pc samples"), setup, |p| {
            assert!(p.total_issues() > 0);
            p
        });
        alone_vs_teed::<CaptureSink, _>(&format!("{name}/capture"), setup, |c| {
            let source = c.into_source();
            assert!(source.total_records() > 0);
            source
        });
    }
}

#[test]
fn fast_forward_conservation_with_idle_schedulers() {
    // A single resident warp leaves 3 of the 4 schedulers per SM
    // permanently idle, so the ready-set scheduler's hierarchical
    // fast-forward skips most cycles outright.  The skipped cycles must
    // still be accounted: issued + stalled + idle == slot_cycles exactly,
    // on every device.
    for dev in [
        DeviceConfig::a100(),
        DeviceConfig::rtx4090(),
        DeviceConfig::h800(),
    ] {
        let name = dev.name;
        let mut gpu = Gpu::new(dev);
        let (k, launch) = pchase_setup(&mut gpu);
        let (stats, prof) = gpu.profile(&k, &launch).expect("launch");
        assert!(prof.conservation_ok(), "{name}: per-slot conservation");
        let s = stats.stalls.expect("profiled run fills stalls");
        assert_eq!(
            s.issued + s.idle + s.stalled.iter().sum::<u64>(),
            s.slot_cycles,
            "{name}: summary conservation under fast-forward"
        );
        assert_eq!(
            s.slot_cycles,
            stats.metrics.cycles * 4,
            "{name}: every fast-forwarded cycle accounted on all 4 slots"
        );
        // The 3 warp-less schedulers are idle for the whole run.
        assert!(
            s.idle >= stats.metrics.cycles * 3,
            "{name}: idle schedulers under-counted ({} < {})",
            s.idle,
            stats.metrics.cycles * 3
        );
    }
}

#[test]
fn pc_sampling_sums_match_stall_summary() {
    // Per-PC binding-stall cycles ride the same advance-weighted slot
    // outcomes as the launch-wide summary, so their per-bucket sums must
    // reproduce `StallSummary::stalled` exactly — and total issues must
    // equal issued slot-cycles.
    for dev in [
        DeviceConfig::a100(),
        DeviceConfig::rtx4090(),
        DeviceConfig::h800(),
    ] {
        let name = dev.name;
        let mut gpu = Gpu::new(dev);
        let (k, launch) = pchase_setup(&mut gpu);
        let mut prof = StallProfile::default();
        let mut pcs = PcSampleSink::default();
        let mut tee = TeeSink::new(&mut prof, &mut pcs);
        gpu.launch_traced(&k, &launch, &mut tee).expect("launch");
        let s = prof.summary();
        assert_eq!(
            pcs.stalled_by_reason(),
            s.stalled,
            "{name}: per-PC stall buckets don't sum to the summary"
        );
        assert_eq!(
            pcs.total_issues(),
            s.issued,
            "{name}: per-PC issues don't sum to issued slot-cycles"
        );
        // The dependent load is the hotspot, and its stalls are
        // scoreboard stalls.
        let hot = pcs.hotspots(1)[0];
        assert_eq!(hot.pc, 2, "{name}: hotspot should be the chased load");
        assert!(
            hot.stalled[StallReason::Scoreboard.bucket()] > 0,
            "{name}: load hotspot must attribute to the scoreboard"
        );
    }
}

/// The engine's `Unit` table names nothing new: every row's trace name is
/// one the hand-written reservation sites emitted before it (the names
/// `hopper-prof`'s occupancy lookups and recorded Chrome traces key on),
/// and a profiled launch still reports the same occupancy records in the
/// same order — eight pipes and ports, then one `tensor` per quadrant
/// (merged by the profile), then the two memory-side queues.
#[test]
fn unit_table_names_are_the_established_ones() {
    use hopper_sim::engine::Unit;
    const ESTABLISHED: [&str; 9] = [
        "int",
        "fp32",
        "fp64",
        "dpx",
        "tensor.wg",
        "l1_port",
        "smem_port",
        "dsm_port",
        "tensor",
    ];
    for unit in Unit::ALL {
        assert!(ESTABLISHED.contains(&unit.name), "new unit name {unit:?}");
    }
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = pchase_setup(&mut gpu);
    let (_, prof) = gpu.profile(&k, &launch).expect("launch");
    let reported: Vec<(u32, &str)> = prof.units.iter().map(|u| (u.sm, u.unit)).collect();
    let mut want: Vec<(u32, &str)> = ESTABLISHED.iter().map(|&n| (0, n)).collect();
    want.extend([(u32::MAX, "l2_port"), (u32::MAX, "dram")]);
    assert_eq!(reported, want);
}
