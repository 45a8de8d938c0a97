//! Golden equivalence between the legacy full-roster scan scheduler and
//! the ready-set scheduler: for every workload class the paper exercises
//! (pointer chase, wgmma Zero/Rand, cluster DSM, barrier-heavy blocks,
//! multi-wave grids) both schedulers must produce identical `Metrics`,
//! identical `RunStats::stalls`, and byte-identical Chrome traces.

use hopper_isa::asm::assemble_named;
use hopper_isa::mma::OperandSource;
use hopper_isa::{
    CmpOp, DType, IAluOp, Kernel, KernelBuilder, MmaDesc, Operand::Imm, Operand::Reg as R, Pred,
    Reg, TileId, TilePattern,
};
use hopper_sim::engine::CacheState;
use hopper_sim::{
    BlockSpec, ChromeTrace, DeviceConfig, Engine, EngineConfig, GlobalMem, Gpu, Launch,
    LaunchError, Metrics, NullSink, PcSampleSink, Run, RunBudget, RunLimit, Scheduler, SimOptions,
    StallProfile, TraceSink,
};

fn gpu_with(dev: DeviceConfig, sched: Scheduler) -> Gpu {
    gpu_with_threads(dev, sched, 1)
}

fn gpu_with_threads(dev: DeviceConfig, sched: Scheduler, sim_threads: u32) -> Gpu {
    let opts = SimOptions {
        scheduler: sched,
        sim_threads,
        ..Default::default()
    };
    Gpu::with_options(dev, opts)
}

/// Run `setup` under both schedulers three ways (untraced, profiled,
/// Chrome-traced) and assert every observable output matches exactly.
/// The untraced ready-set run additionally re-executes with the SM loop
/// sharded across 2 and 4 workers; the parallel engine must stay
/// bitwise-identical to the serial one.
fn assert_equivalent(name: &str, dev: DeviceConfig, setup: impl Fn(&mut Gpu) -> (Kernel, Launch)) {
    // Untraced: Metrics must be bitwise identical (including the f64
    // energy accumulator — same issue order implies same summation order).
    let plain = |sched| {
        let mut gpu = gpu_with(dev.clone(), sched);
        let (k, l) = setup(&mut gpu);
        gpu.launch(&k, &l).expect("launch")
    };
    let a = plain(Scheduler::LegacyScan);
    let b = plain(Scheduler::ReadySet);
    assert_eq!(a.metrics, b.metrics, "{name}: untraced Metrics differ");
    assert_eq!(
        a.achieved_clock_hz, b.achieved_clock_hz,
        "{name}: DVFS outcome differs"
    );

    // Parallel engine: same untraced run sharded over a worker pool.
    for threads in [2u32, 4] {
        let mut gpu = gpu_with_threads(dev.clone(), Scheduler::ReadySet, threads);
        let (k, l) = setup(&mut gpu);
        let p = gpu.launch(&k, &l).expect("launch");
        assert_eq!(
            b.metrics, p.metrics,
            "{name}: sim_threads={threads} Metrics differ from serial"
        );
        assert_eq!(
            b.achieved_clock_hz, p.achieved_clock_hz,
            "{name}: sim_threads={threads} DVFS outcome differs"
        );
    }

    // Profiled: stall attribution and per-slot aggregates must match.
    let prof = |sched| {
        let mut gpu = gpu_with(dev.clone(), sched);
        let (k, l) = setup(&mut gpu);
        gpu.profile(&k, &l).expect("launch")
    };
    let (sa, pa) = prof(Scheduler::LegacyScan);
    let (sb, pb) = prof(Scheduler::ReadySet);
    assert_eq!(sa.metrics, sb.metrics, "{name}: profiled Metrics differ");
    assert_eq!(sa.stalls, sb.stalls, "{name}: RunStats::stalls differ");
    assert_eq!(pa, pb, "{name}: StallProfile aggregates differ");
    assert!(
        pb.conservation_ok(),
        "{name}: ready-set breaks conservation"
    );

    // PC-sampled: per-instruction issue counts, binding-stall buckets and
    // wait histograms must match (the cached binding-PC argument extends
    // the cached-outcome one, so this guards it directly).
    let pcsample = |sched| {
        let mut gpu = gpu_with(dev.clone(), sched);
        let (k, l) = setup(&mut gpu);
        let mut pcs = PcSampleSink::default();
        gpu.launch_traced(&k, &l, &mut pcs).expect("launch");
        pcs
    };
    assert_eq!(
        pcsample(Scheduler::LegacyScan),
        pcsample(Scheduler::ReadySet),
        "{name}: per-PC samples differ"
    );

    // Chrome-traced: the serialized timeline must be byte-identical.
    let chrome = |sched| {
        let mut gpu = gpu_with(dev.clone(), sched);
        let (k, l) = setup(&mut gpu);
        let mut trace = ChromeTrace::new();
        gpu.launch_traced(&k, &l, &mut trace).expect("launch");
        trace.to_json()
    };
    let ja = chrome(Scheduler::LegacyScan);
    let jb = chrome(Scheduler::ReadySet);
    assert_eq!(
        ja.as_bytes(),
        jb.as_bytes(),
        "{name}: Chrome traces not byte-identical"
    );
}

/// One budget-cut launch into a fresh sink of type `S` (`NullSink` takes
/// the untraced path); returns the outcome and what the sink saw.
fn cut_run<S: TraceSink + Default>(
    dev: &DeviceConfig,
    setup: &impl Fn(&mut Gpu) -> (Kernel, Launch),
    sched: Scheduler,
    budget: u64,
) -> (Result<Metrics, LaunchError>, S) {
    let mut gpu = gpu_with(dev.clone(), sched);
    let (k, l) = setup(&mut gpu);
    let mut sink = S::default();
    let run = Run {
        sink: Some(&mut sink),
        budget: RunBudget::cycles(budget),
        ..Run::default()
    };
    let r = gpu.run(&k, &l, run);
    (r.map(|s| s.metrics), sink)
}

/// Bounded runs: cut the launch at a budget inside a fast-forward (the run
/// overshoots it), at one landing on a visited cycle, and at one past
/// completion; both schedulers must stop at the same cycle with the same
/// partial metrics, stall accounting, per-PC samples and Chrome timeline.
fn assert_bounded_equivalent(
    name: &str,
    dev: DeviceConfig,
    setup: impl Fn(&mut Gpu) -> (Kernel, Launch),
) {
    let legacy = |b| cut_run::<NullSink>(&dev, &setup, Scheduler::LegacyScan, b).0;
    let full = legacy(u64::MAX).expect("unbounded run").cycles;
    let mut cuts = vec![full + 1];
    let (mut inside, mut exact) = (false, false);
    for b in full / 2..full {
        let Err(LaunchError::DeadlineExceeded { cycles_run, .. }) = legacy(b) else {
            panic!("{name}: budget {b} < {full} must trip");
        };
        if cycles_run > b && !inside {
            inside = true;
            cuts.push(b);
        } else if cycles_run == b && !exact {
            exact = true;
            cuts.push(b);
        }
        if inside && exact {
            break;
        }
    }
    assert!(inside && exact, "{name}: no fast-forward/visited cut found");
    assert_cuts_equivalent(name, dev, setup, cuts);
}

/// Both schedulers cut at each of `cuts` into every sink: same outcome,
/// same partial metrics, stall accounting, per-PC samples and timeline.
fn assert_cuts_equivalent(
    name: &str,
    dev: DeviceConfig,
    setup: impl Fn(&mut Gpu) -> (Kernel, Launch),
    cuts: Vec<u64>,
) {
    fn same<S: TraceSink + Default + PartialEq + std::fmt::Debug>(
        name: &str,
        dev: &DeviceConfig,
        setup: &impl Fn(&mut Gpu) -> (Kernel, Launch),
        b: u64,
    ) -> S {
        let a = cut_run::<S>(dev, setup, Scheduler::LegacyScan, b);
        let r = cut_run::<S>(dev, setup, Scheduler::ReadySet, b);
        let sink = std::any::type_name::<S>();
        assert_eq!(a, r, "{name}@{b}: run into {sink} differs");
        r.1
    }
    for b in cuts {
        same::<NullSink>(name, &dev, &setup, b);
        let prof = same::<StallProfile>(name, &dev, &setup, b);
        assert!(prof.conservation_ok(), "{name}@{b}: conservation broken");
        same::<PcSampleSink>(name, &dev, &setup, b);
        same::<ChromeTrace>(name, &dev, &setup, b);
    }
}

/// L1-resident pointer chase: one warp sleeping on load latency — the
/// workload the ready-set fast-forward is built for.
fn pchase_setup(gpu: &mut Gpu) -> (Kernel, Launch) {
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

/// A 4096-entry pointer ring with a large stride, so consecutive warps
/// (thread `t` starts at entry `t`) land on distinct lines.
fn dram_ring(gpu: &mut Gpu) -> u64 {
    let n = 4096u64;
    let buf = gpu.alloc(n * 8).expect("alloc");
    for i in 0..n {
        let next = buf + ((i + 67) % n) * 8;
        gpu.mem_mut().write_scalar(buf + i * 8, 8, next);
    }
    buf
}

/// Many-warp DRAM pointer chase: 32 warps per SM all asleep on `cg`
/// (L1-bypassing) loads, several blocks — exercises wake-ordering across
/// scheduler slots.
fn pchase_many_setup(gpu: &mut Gpu) -> (Kernel, Launch) {
    let buf = dram_ring(gpu);
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        shl.s32 %r2, %r1, 3;
        add.s32 %r3, %r2, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.cg.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, 64;
        @%p0 bra LOOP;
        exit;
    "#,
        "pchase_dram_32w",
    )
    .expect("assembles");
    (k, Launch::new(4, 1024).with_params(vec![buf]))
}

/// Dependent `wgmma` chain with a chosen operand-tile pattern (the
/// paper's Zero-vs-Rand initialisation experiment).
fn wgmma_setup(pat: TilePattern) -> (Kernel, Launch) {
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
    b.fill_tile(TileId(0), desc.ab, m, k, pat);
    b.fill_tile(TileId(1), desc.ab, k, n, pat);
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

/// Two-block cluster: rank 0 chases a pointer ring through rank 1's
/// shared memory (DSM), with cluster barriers on both sides.
fn dsm_setup(_gpu: &mut Gpu) -> (Kernel, Launch) {
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

/// Uneven retirement: block 0 chases DRAM for tens of thousands of cycles,
/// block 1 for a few thousand, the other two exit at once — retired SMs'
/// slots must be booked idle to the end of the wave.
fn uneven_setup(gpu: &mut Gpu) -> (Kernel, Launch) {
    let buf = dram_ring(gpu);
    let k = assemble_named(
        r#"
        mov %r1, %ctaid.x;
        setp.gt.s32 %p1, %r1, 1;
        @%p1 bra DONE;
        mov.s32 %r5, 64;
        setp.eq.s32 %p2, %r1, 0;
        @%p2 bra START;
        mov.s32 %r5, 4;
    START:
        mov %r2, %tid.x;
        shl.s32 %r2, %r2, 3;
        add.s32 %r3, %r2, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.cg.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, %r5;
        @%p0 bra LOOP;
    DONE:
        exit;
    "#,
        "uneven_retire",
    )
    .expect("assembles");
    (k, Launch::new(4, 64).with_params(vec![buf]))
}

/// Cluster barrier with a long-running peer: rank 0 parks at
/// `barrier.cluster` while rank 1 runs a DRAM chase before arriving.
fn cluster_wait_setup(gpu: &mut Gpu) -> (Kernel, Launch) {
    let buf = dram_ring(gpu);
    let k = assemble_named(
        r#"
        mov %r1, %cluster_ctarank;
        setp.eq.s32 %p1, %r1, 0;
        @%p1 bra SYNC;
        mov %r2, %tid.x;
        shl.s32 %r2, %r2, 3;
        add.s32 %r3, %r2, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.cg.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, 24;
        @%p0 bra LOOP;
    SYNC:
        barrier.cluster;
        add.s32 %r6, %r1, 1;
        barrier.cluster;
        exit;
    "#,
        "cluster_wait",
    )
    .expect("assembles");
    let launch = Launch::new(2, 64).with_cluster(2).with_params(vec![buf]);
    (k, launch)
}

/// Barrier-heavy block: 8 warps ping-ponging through shared memory with
/// a `bar.sync` each round — exercises the `u64::MAX` (barrier) stall
/// path, where warps must stay in the ready set rather than sleep.
fn barrier_setup(_gpu: &mut Gpu) -> (Kernel, Launch) {
    let k = assemble_named(
        r#"
        .shared 2048;
        mov %r1, %tid.x;
        shl.s32 %r2, %r1, 3;
        add.s32 %r3, %r2, 8;
        and.s32 %r3, %r3, 2047;
        st.shared.b64 [%r2], %r3;
        bar.sync;
        mov.s64 %r4, 0;
        mov.s32 %r5, 0;
    LOOP:
        ld.shared.b64 %r4, [%r4];
        bar.sync;
        add.s32 %r5, %r5, 1;
        setp.lt.s32 %p0, %r5, 64;
        @%p0 bra LOOP;
        exit;
    "#,
        "barrier_pingpong",
    )
    .expect("assembles");
    (k, Launch::new(2, 256))
}

/// Multi-wave grid with mixed compute and global traffic: more blocks
/// than one wave holds, so begin_wave/end_wave state (and the ready-set
/// rebuild between waves) is exercised.
fn multiwave_setup(gpu: &mut Gpu) -> (Kernel, Launch) {
    let sms = gpu.device().num_sms;
    let buf = gpu.alloc(1 << 20).expect("alloc");
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        mov %r2, %ctaid.x;
        mad.s32 %r3, %r2, 1024, %r1;
        shl.s32 %r4, %r3, 2;
        and.s32 %r4, %r4, 1048575;
        add.s32 %r4, %r4, %r0;
        mov.s32 %r5, 0;
    LOOP:
        ld.global.cg.b32 %r6, [%r4];
        add.s32 %r6, %r6, 1;
        st.global.b32 [%r4], %r6;
        add.s32 %r5, %r5, 1;
        setp.lt.s32 %p0, %r5, 8;
        @%p0 bra LOOP;
        exit;
    "#,
        "multiwave_rmw",
    )
    .expect("assembles");
    // 2 blocks/SM of 1024 threads fill a wave; +1 forces a second wave.
    (k, Launch::new(2 * sms + 1, 1024).with_params(vec![buf]))
}

#[test]
fn equivalent_pchase_single_warp() {
    assert_equivalent("pchase_l1", DeviceConfig::h800(), pchase_setup);
}

#[test]
fn equivalent_pchase_many_warps_dram() {
    assert_equivalent("pchase_dram_32w", DeviceConfig::h800(), pchase_many_setup);
}

#[test]
fn equivalent_wgmma_zero_and_rand() {
    // The paper's Zero vs Rand matrix initialisation: both data patterns
    // must be scheduler-invariant (timing may legitimately differ
    // *between* patterns; each pattern must agree *across* schedulers).
    assert_equivalent("wgmma_zero", DeviceConfig::h800(), |_| {
        wgmma_setup(TilePattern::Zero)
    });
    assert_equivalent("wgmma_rand", DeviceConfig::h800(), |_| {
        wgmma_setup(TilePattern::Random { seed: 7 })
    });
}

#[test]
fn equivalent_cluster_dsm() {
    assert_equivalent("dsm_chase", DeviceConfig::h800(), dsm_setup);
}

#[test]
fn equivalent_barrier_pingpong() {
    assert_equivalent("barrier_pingpong", DeviceConfig::h800(), barrier_setup);
}

#[test]
fn equivalent_under_budget() {
    let dev = DeviceConfig::h800;
    assert_bounded_equivalent("pchase_dram_32w", dev(), pchase_many_setup);
    assert_bounded_equivalent("dsm_chase", dev(), dsm_setup);
    assert_bounded_equivalent("barrier_pingpong", dev(), barrier_setup);
    assert_bounded_equivalent("cluster_wait", dev(), cluster_wait_setup);
}

/// A barrier nobody can complete (the block's other warp has exited):
/// every SM parks with no wakeup, and the budget must still trip at the
/// same cycle, with the wait booked as barrier stall, under both
/// schedulers.
#[test]
fn equivalent_deadlock_under_budget() {
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        setp.lt.s32 %p0, %r1, 32;
        @%p0 bra OUT;
        bar.sync;
    OUT:
        exit;
    "#,
        "half_barrier",
    )
    .expect("assembles");
    let setup = |_: &mut Gpu| (k.clone(), Launch::new(2, 64));
    let run = |sched| cut_run::<StallProfile>(&DeviceConfig::h800(), &setup, sched, 5000);
    let (a, b) = (run(Scheduler::LegacyScan), run(Scheduler::ReadySet));
    assert!(matches!(
        b.0,
        Err(LaunchError::DeadlineExceeded {
            cycles_run: 5000,
            ..
        })
    ));
    assert_eq!(a, b, "deadlocked kernel cut differently");
    assert!(b.1.conservation_ok());
}

/// The same barrier without a budget: every driver jumps to the engine's
/// cycle cap in one round and reports it as a tripped deadline, on every
/// device, in well under a second.
#[test]
fn unbudgeted_deadlock_trips_the_cap_at_once() {
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        setp.lt.s32 %p0, %r1, 32;
        @%p0 bra OUT;
        bar.sync;
    OUT:
        exit;
    "#,
        "half_barrier",
    )
    .expect("assembles");
    for dev in [
        DeviceConfig::h800(),
        DeviceConfig::a100(),
        DeviceConfig::rtx4090(),
    ] {
        let drivers = [
            (Scheduler::LegacyScan, 1),
            (Scheduler::ReadySet, 1),
            (Scheduler::ReadySet, 2),
        ];
        for (sched, threads) in drivers {
            let mut gpu = gpu_with_threads(dev.clone(), sched, threads);
            let t = std::time::Instant::now();
            let err = gpu.launch(&k, &Launch::new(2, 64)).unwrap_err();
            let took = t.elapsed();
            let what = format!("{} {sched:?} sim_threads={threads}", dev.name);
            let LaunchError::DeadlineExceeded {
                budget_cycles,
                cycles_run,
            } = err
            else {
                panic!("{what}: {err:?}");
            };
            assert_eq!(budget_cycles, cycles_run, "{what}");
            assert_eq!(cycles_run, 2_000_000_000, "{what}: not the engine's cap");
            assert!(took.as_secs_f64() < 1.0, "{what}: took {took:?}");
        }
    }
}

#[test]
fn equivalent_uneven_retirement() {
    assert_equivalent("uneven_retire", DeviceConfig::h800(), uneven_setup);
}

#[test]
fn equivalent_cluster_wait_on_long_peer() {
    assert_equivalent("cluster_wait", DeviceConfig::h800(), cluster_wait_setup);
}

/// Two clusters sharing two SMs (only reachable through `Engine`, the
/// `Gpu` places one cluster per wave): cluster 0's release frees a waiter
/// on an SM whose other block sleeps on DRAM, so that SM's clock has run
/// ahead of the release and must come back to the cycle after it.
#[test]
fn equivalent_cluster_release_pulls_back_a_sleeping_sm() {
    let dev = DeviceConfig::h800();
    let k = assemble_named(
        r#"
        mov %r1, %ctaid.x;
        mov.s32 %r5, 48;
        setp.gt.s32 %p1, %r1, 1;
        @%p1 bra CHASE;
        setp.eq.s32 %p2, %r1, 0;
        @%p2 bra SYNC;
        mov.s32 %r5, 6;
    CHASE:
        mov %r2, %tid.x;
        shl.s32 %r2, %r2, 3;
        add.s32 %r3, %r2, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.cg.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, %r5;
        @%p0 bra LOOP;
        @%p1 bra DONE;
    SYNC:
        barrier.cluster;
        add.s32 %r6, %r1, 1;
    DONE:
        exit;
    "#,
        "two_clusters",
    )
    .expect("assembles");
    let run = |sched| {
        let mut mem = GlobalMem::new();
        let n = 4096u64;
        let buf = mem.alloc(n * 8);
        for i in 0..n {
            mem.write_scalar(buf + i * 8, 8, buf + ((i + 67) % n) * 8);
        }
        let cfg = EngineConfig {
            blocks: (0..4)
                .map(|i| BlockSpec {
                    ctaid: i,
                    sm: (i % 2) as usize,
                    cluster_id: i / 2,
                    cluster_rank: i % 2,
                    smid: i % 2,
                })
                .collect(),
            threads_per_block: 32,
            grid_dim: 4,
            cluster_size: 2,
            params: vec![buf],
            l2_bw_scale: 1.0,
            dram_bw_scale: 1.0,
            opts: SimOptions {
                scheduler: sched,
                ..Default::default()
            },
            limit: RunLimit::none(),
        };
        let mut caches = CacheState::new(&dev);
        let plain = Engine::new(&dev, &k, cfg.clone(), &mut mem, &mut caches).run();
        let mut caches = CacheState::new(&dev);
        let mut trace = ChromeTrace::new();
        let traced = Engine::new(&dev, &k, cfg, &mut mem, &mut caches)
            .with_sink(&mut trace, 0)
            .run();
        (plain, traced, trace.to_json())
    };
    let (a, b) = (run(Scheduler::LegacyScan), run(Scheduler::ReadySet));
    assert_eq!(a.0, b.0, "untraced Metrics differ");
    assert_eq!(a.1, b.1, "traced Metrics differ");
    assert_eq!(a.2.as_bytes(), b.2.as_bytes(), "Chrome traces differ");
}

/// RTX 4090's narrow FP64 pipe under 32 warps per SM: most attempts are
/// refused at the `fp64` row.
fn fp64_loop_setup(_gpu: &mut Gpu) -> (Kernel, Launch) {
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        mov.s32 %r2, 1;
        mov.s32 %r3, 3;
        mov.s32 %r4, 0;
    LOOP:
        fma.f64 %r2, %r2, %r3, %r1;
        fma.f64 %r5, %r3, %r3, %r1;
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, 16;
        @%p0 bra LOOP;
        exit;
    "#,
        "fp64_loop",
    )
    .expect("assembles");
    (k, Launch::new(2, 1024))
}

/// A100 has no DPX units: independent DPX ops become integer-pipe
/// sequences and are refused at the `INT_SEQ` row.
fn dpx_emulated_setup(_gpu: &mut Gpu) -> (Kernel, Launch) {
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        mov.s32 %r4, 0;
    LOOP:
        dpx.viaddmax_s32 %r5, %r1, %r4, 7;
        dpx.viaddmax_s32 %r6, %r4, %r1, 9;
        dpx.viaddmax_s32 %r7, %r1, %r1, 3;
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, 12;
        @%p0 bra LOOP;
        exit;
    "#,
        "dpx_emulated",
    )
    .expect("assembles");
    (k, Launch::new(2, 1024))
}

/// `.cg.v4` loads flooding L2 from four SMs, with global atomics on the
/// same lines: refusals at the global-admission pair (L1 port, then L2/DRAM
/// backpressure) and at the atomics' L1 port, on shared-class instructions.
fn l2_flood_setup(gpu: &mut Gpu) -> (Kernel, Launch) {
    let buf = gpu.alloc((1 << 18) + 64).expect("alloc");
    let words: Vec<u32> = (0..1u32 << 16)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    gpu.write_u32s(buf, &words);
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        mov %r2, %ctaid.x;
        mad.s32 %r3, %r2, 1024, %r1;
        shl.s32 %r3, %r3, 4;
        and.s32 %r3, %r3, 262143;
        add.s32 %r3, %r3, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.cg.v4 %r6, [%r3];
        ld.global.cg.v4 %r8, [%r3+32];
        atom.global.add.b32 [%r3+12], 1;
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, 8;
        @%p0 bra LOOP;
        st.global.v4 [%r3], %r8;
        exit;
    "#,
        "l2_flood_v4",
    )
    .expect("assembles");
    (k, Launch::new(4, 1024).with_params(vec![buf]))
}

/// Table XIII's 8×8 tile: 64-thread blocks staging through `cp.async`,
/// sixteen per SM (the representative-SM path), contending for the L1
/// port and the shared-memory port.
fn cp_async_8x8_setup(gpu: &mut Gpu) -> (Kernel, Launch) {
    let buf = gpu.alloc(1 << 16).expect("alloc");
    let words: Vec<u32> = (0..1u32 << 14).collect();
    gpu.write_u32s(buf, &words);
    let k = assemble_named(
        r#"
        .shared 512;
        mov %r1, %tid.x;
        mov %r2, %ctaid.x;
        shl.s32 %r3, %r1, 2;
        mad.s32 %r4, %r2, 64, %r1;
        shl.s32 %r4, %r4, 2;
        and.s32 %r4, %r4, 65535;
        add.s32 %r4, %r4, %r0;
        mov.s32 %r5, 0;
        mov.s32 %r7, 0;
    LOOP:
        cp.async.cg.shared.global [%r3], [%r4], 4;
        cp.async.commit_group;
        cp.async.wait_group 0;
        bar.sync;
        ld.shared.b32 %r6, [%r3];
        add.s32 %r7, %r7, %r6;
        bar.sync;
        add.s32 %r5, %r5, 1;
        setp.lt.s32 %p0, %r5, 8;
        @%p0 bra LOOP;
        exit;
    "#,
        "cp_async_8x8",
    )
    .expect("assembles");
    let sms = gpu.device().num_sms;
    (k, Launch::new(sms * 16, 64).with_params(vec![buf]))
}

/// `l1_throughput`'s kernel (Table V's L1 rows): 1024 threads of `.ca`
/// loads, four per iteration, so whole herds are refused at the L1 port's
/// `Queue` gate, whose `until` depends on the cycle it is asked at.
fn l1_herd_setup(gpu: &mut Gpu, width: &str, bytes: u64) -> (Kernel, Launch) {
    let buf = gpu.alloc(1024 * 4 * bytes).expect("alloc");
    let ld = |i: u64| {
        format!(
            "ld.global.ca.{width} %r{}, [%r6+{}];",
            10 + 2 * i,
            i * 1024 * bytes
        )
    };
    let k = assemble_named(
        &format!(
            r#"
        mov %r2, %tid.x;
        mad.s32 %r5, %r2, {bytes}, 0;
        add.s32 %r6, %r5, %r0;
        mov.s32 %r7, 0;
    LOOP:
        {}
        {}
        {}
        {}
        add.s32 %r7, %r7, 1;
        setp.lt.s32 %p0, %r7, 24;
        @%p0 bra LOOP;
        exit;
    "#,
            ld(0),
            ld(1),
            ld(2),
            ld(3)
        ),
        "l1_throughput",
    )
    .expect("assembles");
    (k, Launch::new(1, 1024).with_params(vec![buf, 0]))
}

/// Fig. 7's DPX stream: 1024 threads of independent DPX ops, refused in
/// herds at the `Backlog(4)` gate of H800's DPX unit, and at `INT_SEQ`
/// where the 16x2 function is a ten-op emulation.  A backlog gate's
/// `until` is its admission bound, so unlike the L1 port's it does not
/// depend on when it is asked: this shape checks herd bookkeeping, not the
/// reach rule.
fn dpx_herd_setup(_gpu: &mut Gpu) -> (Kernel, Launch) {
    let k = assemble_named(
        r#"
        mov.s32 %r1, 5;
        mov.s32 %r2, -3;
        mov.s32 %r3, 1000;
        mov.s32 %r4, 0;
    LOOP:
        dpx.vimax3_s16x2 %r10, %r1, %r2, %r3;
        dpx.vimax3_s16x2 %r11, %r1, %r2, %r3;
        dpx.vimax3_s16x2 %r12, %r1, %r2, %r3;
        dpx.vimax3_s16x2 %r13, %r1, %r2, %r3;
        dpx.vimax3_s16x2 %r14, %r1, %r2, %r3;
        dpx.vimax3_s16x2 %r15, %r1, %r2, %r3;
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, 12;
        @%p0 bra LOOP;
        exit;
    "#,
        "dpx_herd",
    )
    .expect("assembles");
    (k, Launch::new(1, 1024))
}

/// Herds — many warps refused at one gate in one scan (DESIGN.md §4d
/// point 8): on every device, untraced and traced, and cut at budgets
/// inside a herd's sleep, every driver must agree bit for bit.
#[test]
fn equivalent_herds() {
    type Setup = fn(&mut Gpu) -> (Kernel, Launch);
    let cases: [(&str, Setup); 3] = [
        ("l1_fp32", |gpu| l1_herd_setup(gpu, "b32", 4)),
        ("l1_fp32_v4", |gpu| l1_herd_setup(gpu, "v4", 16)),
        ("dpx", dpx_herd_setup),
    ];
    for dev in [
        DeviceConfig::h800(),
        DeviceConfig::a100(),
        DeviceConfig::rtx4090(),
    ] {
        for (name, setup) in cases {
            let name = format!("{name}_herd on {}", dev.name);
            assert_equivalent(&name, dev.clone(), setup);
            let full = cut_run::<NullSink>(&dev, &setup, Scheduler::LegacyScan, u64::MAX);
            let full = full.0.expect("unbounded run").cycles;
            let cuts = vec![full / 3, full / 2 + 1, 2 * full / 3 + 7];
            assert_cuts_equivalent(&name, dev.clone(), setup, cuts);
        }
    }
}

/// Oversubscribed units, where most issue attempts are refusals that a
/// warp's remembered gate answers (DESIGN.md §4d point 7): every driver,
/// sink and budget cut must agree bit for bit.
#[test]
fn equivalent_contended_units() {
    type Setup = fn(&mut Gpu) -> (Kernel, Launch);
    let cases: [(&str, DeviceConfig, Setup); 4] = [
        ("fp64_loop", DeviceConfig::rtx4090(), fp64_loop_setup),
        ("dpx_emulated", DeviceConfig::a100(), dpx_emulated_setup),
        ("l2_flood_v4", DeviceConfig::h800(), l2_flood_setup),
        ("cp_async_8x8", DeviceConfig::h800(), cp_async_8x8_setup),
    ];
    for (name, dev, setup) in cases {
        assert_equivalent(name, dev.clone(), setup);
        assert_bounded_equivalent(name, dev, setup);
    }
}

#[test]
fn equivalent_multiwave() {
    assert_equivalent("multiwave_rmw", DeviceConfig::h800(), multiwave_setup);
}

#[test]
fn equivalent_across_devices() {
    // Small config grid: the equivalence must hold on every modelled GPU,
    // not just the Hopper part (different SM counts, latencies, clocks).
    for dev in [
        DeviceConfig::h800(),
        DeviceConfig::a100(),
        DeviceConfig::rtx4090(),
    ] {
        assert_equivalent("pchase_l1_grid", dev.clone(), pchase_setup);
        assert_equivalent("barrier_grid", dev, barrier_setup);
    }
}
