//! Capture→replay round trips at the engine level: a replayed launch must
//! reproduce the functional run's statistics bitwise — cycles, counters,
//! energy, DVFS resolution and stall attribution — because the timing
//! model consumes exactly the same addresses and activity factors either
//! way.

use hopper_isa::asm::assemble_named;
use hopper_isa::mma::OperandSource;
use hopper_isa::{
    CmpOp, DType, IAluOp, KernelBuilder, MmaDesc, Operand::Imm, Operand::Reg as R, Pred, Reg,
    TileId, TilePattern,
};
use hopper_sim::{DeviceConfig, Gpu, Launch, LaunchError, Replay, Run, StallProfile};

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
    b.fill_tile(TileId(0), desc.ab, m, k, TilePattern::Random { seed: 7 });
    b.fill_tile(TileId(1), desc.ab, k, n, TilePattern::Random { seed: 9 });
    b.fill_tile(TileId(2), desc.cd, m, n, TilePattern::Zero);
    b.mov(Reg(1), Imm(0));
    b.wgmma_fence();
    let top = b.label_here();
    b.wgmma(desc, TileId(2), TileId(0), TileId(1));
    b.wgmma_commit();
    b.wgmma_wait(0);
    b.ialu(IAluOp::Add, Reg(1), R(Reg(1)), Imm(1));
    b.setp(Pred(0), CmpOp::Lt, R(Reg(1)), Imm(16));
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

/// `{:?}` of `RunStats` round-trips every float exactly, so string
/// equality is bitwise equality over the whole stats structure.
fn roundtrip_on(dev: DeviceConfig, setup: fn(&mut Gpu) -> (hopper_isa::Kernel, Launch)) {
    let name = dev.name;

    // Plain functional run.
    let mut gpu = Gpu::new(dev.clone());
    let (k, launch) = setup(&mut gpu);
    let plain = gpu.launch(&k, &launch).expect("functional launch");

    // Captured run: stats must match the uncaptured run exactly.
    let mut gpu = Gpu::new(dev.clone());
    let (k, launch) = setup(&mut gpu);
    let (captured, source) = gpu.launch_captured(&k, &launch).expect("capture");
    assert_eq!(
        format!("{plain:?}"),
        format!("{captured:?}"),
        "{name}: capture must not perturb the run"
    );
    assert!(source.total_records() > 0, "{name}: capture recorded");
    source.validate(&k).expect("captured trace validates");

    // Replayed run: bitwise-identical stats from the trace alone.
    let mut gpu = Gpu::new(dev.clone());
    let (k, launch) = setup(&mut gpu);
    let replayed = gpu.launch_replayed(&k, &launch, &source).expect("replay");
    assert_eq!(
        format!("{plain:?}"),
        format!("{replayed:?}"),
        "{name}: replay must reproduce the functional run bitwise"
    );

    // Profiled replay: identical stall attribution.
    let mut gpu = Gpu::new(dev.clone());
    let (k, launch) = setup(&mut gpu);
    let (_, prof_fun) = gpu.profile(&k, &launch).expect("functional profile");
    let mut gpu = Gpu::new(dev);
    let (k, launch) = setup(&mut gpu);
    let mut prof_rep = StallProfile::default();
    let run = Run {
        sink: Some(&mut prof_rep),
        replay: Some(Replay {
            source: &source,
            prevalidated: false,
        }),
        ..Run::default()
    };
    gpu.run(&k, &launch, run).expect("replayed profile");
    assert_eq!(
        prof_fun, prof_rep,
        "{name}: replayed stall profile must match the functional one"
    );
}

fn nop_setup(gpu: &mut Gpu) -> (hopper_isa::Kernel, Launch) {
    let _ = gpu;
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        mul.s32 %r2, %r1, 3;
        exit;
    "#,
        "tiny",
    )
    .expect("assembles");
    let sms = DeviceConfig::h800().num_sms;
    // Occupancy is 2 blocks/SM at 1024 threads; +1 block forces a second
    // wave through the representative-SM path.
    (k, Launch::new(2 * sms + 1, 1024))
}

#[test]
fn roundtrip_pchase_all_devices() {
    for dev in [
        DeviceConfig::a100(),
        DeviceConfig::rtx4090(),
        DeviceConfig::h800(),
    ] {
        roundtrip_on(dev, pchase_setup);
    }
}

#[test]
fn roundtrip_wgmma() {
    roundtrip_on(DeviceConfig::h800(), |_| wgmma_setup());
}

#[test]
fn roundtrip_cluster_dsm() {
    roundtrip_on(DeviceConfig::h800(), |_| dsm_setup());
}

#[test]
fn roundtrip_multiwave_representative() {
    roundtrip_on(DeviceConfig::h800(), nop_setup);
}

#[test]
fn replay_rejects_missing_stream() {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = pchase_setup(&mut gpu);
    let (_, source) = gpu.launch_captured(&k, &launch).expect("capture");

    // A bigger grid instantiates warps the trace never saw.
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, mut launch) = pchase_setup(&mut gpu);
    launch.grid = 2;
    let err = gpu.launch_replayed(&k, &launch, &source).unwrap_err();
    assert!(
        matches!(err, LaunchError::Replay(_)),
        "expected Replay error, got {err:?}"
    );
}

#[test]
fn validate_rejects_truncated_stream() {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let (k, launch) = pchase_setup(&mut gpu);
    let (_, mut source) = gpu.launch_captured(&k, &launch).expect("capture");
    let stream = source.streams.values_mut().next().expect("one stream");
    stream.pop(); // drop the trailing `exit`
    let err = source.validate(&k).unwrap_err();
    assert!(
        err.contains("exit"),
        "error should name the missing exit: {err}"
    );
}
