//! End-to-end engine behaviour: functional correctness and first-order
//! timing sanity on small kernels.

use hopper_isa::asm::assemble;
use hopper_isa::{
    CmpOp, DType, IAluOp, KernelBuilder, MemSpace, MmaDesc, Operand::Imm, Operand::Reg as R, Pred,
    Reg, TileId, TilePattern,
};
use hopper_sim::{DeviceConfig, Gpu, Launch};

fn h800() -> Gpu {
    Gpu::new(DeviceConfig::h800())
}

#[test]
fn scalar_arithmetic_and_stores() {
    let mut gpu = h800();
    let buf = gpu.alloc(4096).unwrap();
    let k = assemble(
        r#"
        mov %r1, %tid.x;
        mul.s32 %r2, %r1, 3;
        add.s32 %r2, %r2, 7;
        shl.s32 %r3, %r1, 2;
        add.s32 %r3, %r3, %r0;
        st.global.b32 [%r3], %r2;
        exit;
    "#,
    )
    .unwrap();
    gpu.launch(&k, &Launch::new(1, 32).with_params(vec![buf]))
        .unwrap();
    let vals = gpu.read_u32s(buf, 32);
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, (i * 3 + 7) as u32);
    }
}

#[test]
fn pchase_latency_matches_l1_config() {
    // Classic P-chase: a[i] holds the address of the next element; a single
    // dependent-load chain measures load-to-use latency.
    let mut gpu = h800();
    let n = 256u64;
    let buf = gpu.alloc(n * 8).unwrap();
    // Stride-1 ring of 8-byte pointers.
    for i in 0..n {
        let next = buf + ((i + 1) % n) * 8;
        gpu.mem_mut().write_scalar(buf + i * 8, 8, next);
    }
    let iters = 2048;
    let k = assemble(&format!(
        r#"
        mov.s64 %r1, 0;
        add.s32 %r2, %r1, 0;
        mov.s64 %r3, %r0;     // pointer
        mov.s32 %r4, 0;       // counter
    LOOP:
        ld.global.ca.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, {iters};
        @%p0 bra LOOP;
        exit;
    "#
    ))
    .unwrap();
    // Warm-up pass fills the L1, then measure.
    gpu.launch(&k, &Launch::new(1, 1).with_params(vec![buf]))
        .unwrap();
    let stats = gpu
        .launch(&k, &Launch::new(1, 1).with_params(vec![buf]))
        .unwrap();
    let per_iter = stats.metrics.cycles as f64 / iters as f64;
    let want = DeviceConfig::h800().l1_latency as f64;
    assert!(
        (per_iter - want).abs() <= 3.0,
        "P-chase measured {per_iter} cycles/load; configured L1 latency is {want}"
    );
}

#[test]
fn l2_latency_visible_with_cg_loads() {
    let mut gpu = h800();
    let n = 256u64;
    let buf = gpu.alloc(n * 8).unwrap();
    for i in 0..n {
        gpu.mem_mut()
            .write_scalar(buf + i * 8, 8, buf + ((i + 1) % n) * 8);
    }
    let iters = 512;
    let k = assemble(&format!(
        r#"
        mov.s64 %r3, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.cg.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, {iters};
        @%p0 bra LOOP;
        exit;
    "#
    ))
    .unwrap();
    gpu.launch(&k, &Launch::new(1, 1).with_params(vec![buf]))
        .unwrap();
    let stats = gpu
        .launch(&k, &Launch::new(1, 1).with_params(vec![buf]))
        .unwrap();
    let per_iter = stats.metrics.cycles as f64 / iters as f64;
    let want = DeviceConfig::h800().l2_latency as f64;
    assert!(
        (per_iter - want).abs() <= 6.0,
        "cg P-chase measured {per_iter}; configured L2 latency {want}"
    );
}

#[test]
fn shared_memory_roundtrip_and_latency() {
    let mut gpu = h800();
    let iters = 512;
    // Shared-memory pointer chase within one block.
    let k = assemble(&format!(
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
        add.s32 %r5, %r5, 1;
        setp.lt.s32 %p0, %r5, {iters};
        @%p0 bra LOOP;
        exit;
    "#
    ))
    .unwrap();
    let stats = gpu.launch(&k, &Launch::new(1, 32)).unwrap();
    let per_iter = stats.metrics.cycles as f64 / iters as f64;
    let want = DeviceConfig::h800().smem_latency as f64;
    assert!(
        (per_iter - want).abs() <= 3.0,
        "shared P-chase {per_iter} vs configured {want}"
    );
}

#[test]
fn block_barrier_orders_shared_writes() {
    let mut gpu = h800();
    let out = gpu.alloc(4096).unwrap();
    // Thread i writes smem[i]; after the barrier, thread i reads smem[i+1]
    // and stores it to global — every slot must observe the writer.
    let k = assemble(
        r#"
        .shared 4096;
        mov %r1, %tid.x;
        shl.s32 %r2, %r1, 2;
        mul.s32 %r3, %r1, 10;
        st.shared.b32 [%r2], %r3;
        bar.sync;
        add.s32 %r4, %r1, 1;
        and.s32 %r4, %r4, 255;
        shl.s32 %r4, %r4, 2;
        ld.shared.b32 %r5, [%r4];
        add.s32 %r6, %r2, %r0;
        st.global.b32 [%r6], %r5;
        exit;
    "#,
    )
    .unwrap();
    gpu.launch(&k, &Launch::new(1, 256).with_params(vec![out]))
        .unwrap();
    let vals = gpu.read_u32s(out, 256);
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, (((i + 1) % 256) * 10) as u32, "slot {i}");
    }
}

#[test]
fn shared_atomics_accumulate_across_warps() {
    let mut gpu = h800();
    let out = gpu.alloc(8).unwrap();
    // Branches must be warp-uniform: gate the readback on the warp id
    // (all 32 lanes agree), and let every lane of warp 0 store the same
    // value to the same address.
    let k = assemble(
        r#"
        .shared 64;
        mov.s32 %r1, 0;
        atom.shared.add.b32 [%r1], 1;
        bar.sync;
        mov %r2, %warpid;
        setp.ne.s32 %p0, %r2, 0;
        @%p0 bra DONE;
        ld.shared.b32 %r3, [%r1];
        st.global.b32 [%r0], %r3;
    DONE:
        exit;
    "#,
    )
    .unwrap();
    gpu.launch(&k, &Launch::new(1, 256).with_params(vec![out]))
        .unwrap();
    assert_eq!(gpu.read_u32s(out, 1)[0], 256);
}

#[test]
fn dpx_functional_and_faster_on_hopper() {
    let src = r#"
        mov.s32 %r1, 5;
        mov.s32 %r2, -3;
        mov.s32 %r3, 100;
        mov.s32 %r4, 0;
        mov.s32 %r5, 0;
    LOOP:
        dpx.viaddmax_s16x2_relu %r6, %r1, %r2, %r3;
        dpx.viaddmax_s16x2_relu %r6, %r6, %r2, %r3;
        add.s32 %r5, %r5, 1;
        setp.lt.s32 %p0, %r5, 256;
        @%p0 bra LOOP;
        st.global.b32 [%r0], %r6;
        exit;
    "#;
    let k = assemble(src).unwrap();
    let mut h = h800();
    let out_h = h.alloc(4).unwrap();
    let sh = h
        .launch(&k, &Launch::new(1, 1).with_params(vec![out_h]))
        .unwrap();
    let mut a = Gpu::new(DeviceConfig::a100());
    let out_a = a.alloc(4).unwrap();
    let sa = a
        .launch(&k, &Launch::new(1, 1).with_params(vec![out_a]))
        .unwrap();
    // Same functional result.
    assert_eq!(h.read_u32s(out_h, 1), a.read_u32s(out_a, 1));
    // The dependent 16x2 ReLU chain is much faster on DPX hardware
    // (paper: "up to 13 times").
    let ratio = sa.metrics.cycles as f64 / sh.metrics.cycles as f64;
    assert!(
        ratio > 5.0,
        "expected large Hopper DPX speedup, got {ratio:.1}×"
    );
}

#[test]
fn mma_pipeline_computes_gemm() {
    let mut gpu = h800();
    let out = gpu.alloc(16 * 8 * 4).unwrap();
    let desc = MmaDesc::mma(16, 8, 16, DType::F16, DType::F32, false).unwrap();
    let mut b = KernelBuilder::new("mma_gemm");
    b.fill_tile(TileId(0), DType::F16, 16, 16, TilePattern::Identity);
    b.fill_tile(
        TileId(1),
        DType::F16,
        16,
        8,
        TilePattern::Random { seed: 9 },
    );
    b.fill_tile(TileId(2), DType::F32, 16, 8, TilePattern::Zero);
    b.mma(desc, TileId(3), TileId(0), TileId(1), TileId(2));
    b.mov(Reg(1), R(Reg(0)));
    b.st_tile(TileId(3), MemSpace::Global, Reg(1), 0);
    b.exit();
    let k = b.build();
    gpu.launch(&k, &Launch::new(1, 32).with_params(vec![out]))
        .unwrap();
    // I·B = B: the stored D must equal tile 1's data (rounded f16→f32).
    let expect = hopper_sim::Tile::from_pattern(DType::F16, 16, 8, TilePattern::Random { seed: 9 });
    let bytes = gpu.read(out, 16 * 8 * 4);
    for i in 0..16 * 8 {
        let got = f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
        assert!(
            (got as f64 - expect.data[i]).abs() < 1e-6,
            "element {i}: {got} vs {}",
            expect.data[i]
        );
    }
}

#[test]
fn mma_latency_chain_vs_throughput_warps() {
    // One warp issuing a dependent mma chain pays full latency per op; many
    // warps overlap and approach the initiation interval.
    let desc = MmaDesc::mma(16, 8, 16, DType::F16, DType::F16, false).unwrap();
    let build = |iters: i64| {
        let mut b = KernelBuilder::new("mma_chain");
        b.fill_tile(TileId(0), DType::F16, 16, 16, TilePattern::Zero);
        b.fill_tile(TileId(1), DType::F16, 16, 8, TilePattern::Zero);
        b.fill_tile(TileId(2), DType::F16, 16, 8, TilePattern::Zero);
        b.mov(Reg(1), Imm(0));
        let top = b.label_here();
        b.mma(desc, TileId(2), TileId(0), TileId(1), TileId(2));
        b.ialu(IAluOp::Add, Reg(1), R(Reg(1)), Imm(1));
        b.setp(Pred(0), CmpOp::Lt, R(Reg(1)), Imm(iters));
        b.bra_if(top, Pred(0), true);
        b.exit();
        b.build()
    };
    let mut gpu = h800();
    let k = build(512);
    let one = gpu.launch(&k, &Launch::new(1, 32)).unwrap();
    let per_op_1 = one.metrics.cycles as f64 / 512.0;
    let lat = hopper_sim::tc_timing::mma_latency(gpu.device(), &desc);
    assert!(
        (per_op_1 - lat).abs() <= 4.0,
        "single-warp chain: {per_op_1} cycles/op vs latency {lat}"
    );
    // 32 warps (8 per quadrant): throughput-bound.
    let many = gpu.launch(&k, &Launch::new(1, 1024)).unwrap();
    let per_op_32 = many.metrics.cycles as f64 / (512.0 * 8.0); // per quadrant stream
    let ii = hopper_sim::tc_timing::mma_interval(gpu.device(), &desc);
    assert!(
        (per_op_32 - ii).abs() / ii < 0.35,
        "many-warp stream: {per_op_32} cycles/op vs interval {ii}"
    );
}

#[test]
fn wgmma_wait_group_enforces_completion() {
    let desc = MmaDesc::wgmma(
        64,
        DType::F16,
        DType::F32,
        false,
        hopper_isa::OperandSource::SharedShared,
    )
    .unwrap();
    let mut b = KernelBuilder::new("wgmma_once");
    b.fill_tile(TileId(0), DType::F16, 64, 16, TilePattern::Identity);
    b.fill_tile(
        TileId(1),
        DType::F16,
        16,
        64,
        TilePattern::Random { seed: 4 },
    );
    b.fill_tile(TileId(2), DType::F32, 64, 64, TilePattern::Zero);
    b.wgmma_fence();
    b.wgmma(desc, TileId(2), TileId(0), TileId(1));
    b.wgmma_commit();
    b.wgmma_wait(0);
    b.exit();
    let k = b.build();
    let mut gpu = h800();
    let stats = gpu.launch(&k, &Launch::new(1, 128)).unwrap();
    // The wait must cover at least the wgmma completion latency.
    let lat = hopper_sim::tc_timing::wgmma_latency(gpu.device(), &desc);
    assert!(
        stats.metrics.cycles as f64 >= lat,
        "cycles {} < wgmma latency {lat}",
        stats.metrics.cycles
    );
    assert_eq!(stats.metrics.tc_ops, desc.flops());
}

#[test]
fn wgmma_rejected_on_ampere() {
    let desc = MmaDesc::wgmma(
        64,
        DType::F16,
        DType::F32,
        false,
        hopper_isa::OperandSource::SharedShared,
    )
    .unwrap();
    let mut b = KernelBuilder::new("wgmma_bad");
    b.fill_tile(TileId(0), DType::F16, 64, 16, TilePattern::Zero);
    b.fill_tile(TileId(1), DType::F16, 16, 64, TilePattern::Zero);
    b.wgmma(desc, TileId(2), TileId(0), TileId(1));
    b.exit();
    let k = b.build();
    let mut gpu = Gpu::new(DeviceConfig::a100());
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        gpu.launch(&k, &Launch::new(1, 128)).unwrap()
    }));
    assert!(res.is_err(), "wgmma must trap on Ampere");
}

#[test]
fn cluster_dsm_store_and_load() {
    let mut gpu = h800();
    let out = gpu.alloc(64).unwrap();
    // Block rank 0 writes into rank 1's shared memory via mapa; rank 1
    // reads it back after a cluster barrier.
    let k = assemble(
        r#"
        .shared 256;
        mov %r1, %cluster_ctarank;
        mov %r2, %tid.x;
        setp.ne.s32 %p0, %r1, 0;
        @%p0 bra WAIT;
        mapa %r3, 0, 1;
        shl.s32 %r4, %r2, 2;
        add.s32 %r3, %r3, %r4;
        mul.s32 %r5, %r2, 7;
        st.shared::cluster.b32 [%r3], %r5;
    WAIT:
        barrier.cluster;
        setp.eq.s32 %p1, %r1, 1;
        @!%p1 bra DONE;
        shl.s32 %r6, %r2, 2;
        ld.shared.b32 %r7, [%r6];
        add.s32 %r8, %r6, %r0;
        st.global.b32 [%r8], %r7;
    DONE:
        exit;
    "#,
    )
    .unwrap();
    let stats = gpu
        .launch(
            &k,
            &Launch::new(2, 8).with_cluster(2).with_params(vec![out]),
        )
        .unwrap();
    let vals = gpu.read_u32s(out, 8);
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, (i * 7) as u32, "lane {i}");
    }
    assert!(
        stats.metrics.dsm_bytes > 0,
        "traffic must cross the SM-to-SM network"
    );
}

#[test]
fn cluster_launch_rejected_off_hopper() {
    let k = assemble("exit;").unwrap();
    let mut gpu = Gpu::new(DeviceConfig::rtx4090());
    let err = gpu
        .launch(&k, &Launch::new(2, 32).with_cluster(2))
        .unwrap_err();
    assert!(matches!(err, hopper_sim::LaunchError::Unsupported(_)));
}

/// The page-at-a-time host copies leave exactly the bytes one scalar write
/// per word leaves, across page boundaries, and read them back the same.
#[test]
fn bulk_u32_copies_match_scalar_words() {
    let vals: Vec<u32> = (0..3000u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let (mut bulk, mut scalar) = (h800(), h800());
    let buf = bulk.alloc(4 << 12).unwrap();
    scalar.alloc(4 << 12).unwrap();
    // Start 2 bytes short of a page end so words straddle the boundaries.
    let at = buf + 4094;
    bulk.write_u32s(at, &vals);
    for (i, &v) in vals.iter().enumerate() {
        scalar
            .mem_mut()
            .write_scalar(at + 4 * i as u64, 4, v as u64);
    }
    assert_eq!(bulk.read(buf, 4 << 12), scalar.read(buf, 4 << 12));
    assert_eq!(bulk.read_u32s(at, vals.len()), vals);
    assert_eq!(bulk.read_u32s(at + 8, 0), Vec::<u32>::new());
}

/// The launch path is a front door too: a `Kernel` literal whose declared
/// footprint lies (or that has no closing `exit`, or too many parameters
/// for the register file) is a typed error, not an engine index panic —
/// and the 16-byte pair register the assembler used to miss now simply
/// executes.
#[test]
fn unindexable_kernels_are_launch_errors() {
    use hopper_sim::LaunchError;
    let mut gpu = h800();
    let buf = gpu.alloc(4096).unwrap();
    gpu.write_u32s(buf, &[1, 2, 3, 4]);
    let v4 = "ld.global.v4 %r15, [%r0];\nst.global.v4 [%r0+16], %r15;\nexit;";
    let ok = assemble(v4).unwrap();
    let launch = Launch::new(1, 1).with_params(vec![buf]);
    gpu.launch(&ok, &launch).unwrap();
    assert_eq!(gpu.read_u32s(buf + 16, 4), [1, 2, 3, 4]);

    let mut lying = ok.clone();
    lying.regs_per_thread = 16;
    let err = gpu.launch(&lying, &launch).unwrap_err();
    assert!(
        matches!(&err, LaunchError::ResourceExceeded(m) if m.contains("%r16")),
        "{err}"
    );
    let mut open_ended = ok.clone();
    open_ended.instrs.pop();
    let err = gpu.launch(&open_ended, &launch).unwrap_err();
    assert!(matches!(err, LaunchError::ResourceExceeded(_)), "{err}");
    let err = gpu
        .launch(&ok, &Launch::new(1, 1).with_params(vec![0; 256]))
        .unwrap_err();
    assert!(matches!(err, LaunchError::ResourceExceeded(_)), "{err}");
}

#[test]
fn occupancy_limits_respected() {
    let gpu = h800();
    let mut b = KernelBuilder::new("smem_hog");
    b.shared_mem(100 * 1024);
    b.exit();
    let k = b.build();
    // 228 KB per SM / 100 KB per block = 2 resident blocks.
    assert_eq!(gpu.occupancy(&k, 128).unwrap(), 2);
    let plain = assemble("exit;").unwrap();
    assert_eq!(gpu.occupancy(&plain, 1024).unwrap(), 2); // thread-limited
    assert_eq!(gpu.occupancy(&plain, 64).unwrap(), 32); // block-limited
}

#[test]
fn oom_allocation_fails() {
    let mut gpu = Gpu::new(DeviceConfig::rtx4090()); // 24 GB
    assert!(gpu.alloc(20 << 30).is_ok());
    let err = gpu.alloc(8 << 30).unwrap_err();
    assert!(matches!(err, hopper_sim::LaunchError::OutOfMemory { .. }));
}

#[test]
fn wave_quantisation_sawtooth() {
    // grid = SMs blocks → 1 wave; grid = SMs+1 → 2 waves (≈2× cycles).
    let mut gpu = h800();
    let sms = gpu.device().num_sms;
    let k = assemble(
        r#"
        mov.s32 %r1, 0;
    LOOP:
        add.s32 %r1, %r1, 1;
        setp.lt.s32 %p0, %r1, 2000;
        @%p0 bra LOOP;
        exit;
    "#,
    )
    .unwrap();
    let full = gpu.launch(&k, &Launch::new(sms, 1024)).unwrap();
    let spill = gpu.launch(&k, &Launch::new(sms + 1, 1024)).unwrap();
    let ratio = spill.metrics.cycles as f64 / full.metrics.cycles as f64;
    assert!(
        ratio > 1.8,
        "one extra block must cost a whole wave, got {ratio:.2}×"
    );
}

#[test]
fn partial_warps_mask_inactive_lanes() {
    // 48 threads = one full warp + one half warp; only active lanes store.
    let mut gpu = h800();
    let out = gpu.alloc(4096).unwrap();
    let k = assemble(
        r#"
        mov %r1, %tid.x;
        mad.s32 %r2, %r1, 4, %r0;
        add.s32 %r3, %r1, 100;
        st.global.b32 [%r2], %r3;
        exit;
    "#,
    )
    .unwrap();
    gpu.launch(&k, &Launch::new(1, 48).with_params(vec![out]))
        .unwrap();
    let vals = gpu.read_u32s(out, 64);
    for (i, v) in vals.iter().enumerate() {
        if i < 48 {
            assert_eq!(*v, (i + 100) as u32, "active lane {i}");
        } else {
            assert_eq!(*v, 0, "inactive lane {i} must not store");
        }
    }
}

#[test]
fn atomics_return_old_values() {
    // Each lane fetches the running total before its own add: with a
    // single warp adding 1 to one counter, the fetched values are a
    // permutation of 0..32 in lane order (engine serialises lanes in
    // order, so exactly 0,1,2,…).
    let mut gpu = h800();
    let out = gpu.alloc(256).unwrap();
    let k = assemble(
        r#"
        .shared 64;
        mov %r1, %tid.x;
        mov.s32 %r2, 0;
        atom.shared.add.b32 %r3, [%r2], 1;
        mad.s32 %r4, %r1, 4, %r0;
        st.global.b32 [%r4], %r3;
        exit;
    "#,
    )
    .unwrap();
    gpu.launch(&k, &Launch::new(1, 32).with_params(vec![out]))
        .unwrap();
    let vals = gpu.read_u32s(out, 32);
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, i as u32, "lane {i} fetched");
    }
}

#[test]
fn b16_vector_loads_roundtrip() {
    let mut gpu = h800();
    let src_buf = gpu.alloc(1024).unwrap();
    let dst_buf = gpu.alloc(1024).unwrap();
    let data: Vec<u32> = (0..128).map(|i| 0xA000_0000 | i).collect();
    gpu.write_u32s(src_buf, &data);
    // Each thread copies one float4 (16 bytes).
    let k = assemble(
        r#"
        mov %r1, %tid.x;
        shl.s32 %r2, %r1, 4;
        add.s32 %r3, %r2, %r0;
        add.s32 %r4, %r2, %r9;
        ld.global.ca.v4 %r10, [%r3];
        st.global.v4 [%r4], %r10;
        exit;
    "#,
    )
    .unwrap();
    let mut params = vec![0u64; 10];
    params[0] = src_buf;
    params[9] = dst_buf;
    gpu.launch(&k, &Launch::new(1, 32).with_params(params))
        .unwrap();
    assert_eq!(gpu.read_u32s(dst_buf, 128), data);
}

#[test]
fn mapa_to_unresident_rank_traps() {
    let mut gpu = h800();
    let k = assemble(
        r#"
        .shared 256;
        mapa %r1, 0, 7;
        ld.shared::cluster.b32 %r2, [%r1];
        exit;
    "#,
    )
    .unwrap();
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        gpu.launch(&k, &Launch::new(2, 32).with_cluster(2)).unwrap()
    }));
    assert!(res.is_err(), "rank 7 does not exist in a 2-block cluster");
}

#[test]
fn occupancy_register_bound() {
    let gpu = h800();
    // 128 registers per thread → 65536/(128·512) = 1 block of 512 threads.
    let mut b = KernelBuilder::new("reg_hog");
    b.mov(Reg(127), hopper_isa::Operand::Imm(1));
    b.exit();
    let k = b.build();
    assert_eq!(k.regs_per_thread, 128);
    assert_eq!(gpu.occupancy(&k, 512).unwrap(), 1);
    assert_eq!(gpu.occupancy(&k, 128).unwrap(), 4);
}

#[test]
fn cluster_of_sixteen_runs() {
    let mut gpu = h800();
    let out = gpu.alloc(64 * 4).unwrap();
    // Every block writes its rank; rank 0 gathers via DSM loads.
    let k = assemble(
        r#"
        .shared 64;
        mov %r1, %cluster_ctarank;
        mov %r2, %tid.x;
        mov.s32 %r3, 0;
        st.shared.b32 [%r3], %r1;
        barrier.cluster;
        setp.ne.s32 %p0, %r1, 0;
        @%p0 bra DONE;
        mov.s32 %r4, 0;
    LOOP:
        mapa %r5, 0, %r4;
        ld.shared::cluster.b32 %r6, [%r5];
        mad.s32 %r7, %r4, 4, %r0;
        st.global.b32 [%r7], %r6;
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p1, %r4, 16;
        @%p1 bra LOOP;
    DONE:
        exit;
    "#,
    )
    .unwrap();
    gpu.launch(
        &k,
        &Launch::new(16, 32).with_cluster(16).with_params(vec![out]),
    )
    .unwrap();
    let vals = gpu.read_u32s(out, 16);
    assert_eq!(vals, (0..16).collect::<Vec<u32>>());
}

#[test]
fn tma_copy_is_functional_and_bulk() {
    use hopper_isa::{KernelBuilder as KB, MemSpace, Reg as R, TilePattern, Width};
    let mut gpu = h800();
    let src = gpu.alloc(64 * 1024).unwrap();
    let dst = gpu.alloc(4096).unwrap();
    // 8 rows × 64 bytes with a 1 KiB global stride → packed into shared,
    // then copied back out to a flat global buffer.
    let rows = 8u16;
    let row_bytes = 64u16;
    let gstride = 1024u32;
    for r in 0..rows as u64 {
        for i in 0..row_bytes as u64 / 4 {
            gpu.write_u32s(src + r * gstride as u64 + i * 4, &[(r * 100 + i) as u32]);
        }
    }
    let mut b = KB::new("tma_box");
    b.mov(R(2), hopper_isa::Operand::Imm(0));
    b.tma_copy(rows, row_bytes, gstride, (R(2), 0), (R(0), 0));
    b.cp_async_commit();
    b.cp_async_wait(0);
    b.bar_sync();
    // Copy shared → global, one u32 per thread.
    b.special(R(3), hopper_isa::Special::TidX);
    b.ialu(
        hopper_isa::IAluOp::Shl,
        R(4),
        hopper_isa::Operand::Reg(R(3)),
        hopper_isa::Operand::Imm(2),
    );
    b.ld(
        MemSpace::Shared,
        hopper_isa::CacheOp::Ca,
        Width::B4,
        R(5),
        R(4),
        0,
    );
    b.imad(
        R(6),
        hopper_isa::Operand::Reg(R(3)),
        hopper_isa::Operand::Imm(4),
        hopper_isa::Operand::Reg(R(1)),
    );
    b.st(MemSpace::Global, Width::B4, R(5), R(6), 0);
    b.exit();
    b.shared_mem(1024);
    let k = b.build();
    gpu.launch(&k, &Launch::new(1, 128).with_params(vec![src, dst]))
        .unwrap();
    let out = gpu.read_u32s(dst, 128);
    for r in 0..8u32 {
        for i in 0..16u32 {
            assert_eq!(out[(r * 16 + i) as usize], r * 100 + i, "row {r} word {i}");
        }
    }
    let _ = TilePattern::Zero;
}

#[test]
fn representative_sm_path_matches_cosimulation() {
    // DESIGN.md §4b: for compute-only homogeneous grids, the
    // representative-SM fast path (grid > 32 blocks) must report the same
    // cycle count as full co-simulation (grid ≤ 32), since no shared
    // resource is involved.
    let k = assemble(
        r#"
        mov %r1, %tid.x;
        mov.s32 %r2, 0;
    LOOP:
        mad.s32 %r1, %r1, 3, 1;
        add.s32 %r2, %r2, 1;
        setp.lt.s32 %p0, %r2, 400;
        @%p0 bra LOOP;
        exit;
    "#,
    )
    .unwrap();
    let mut gpu = h800();
    let sms = gpu.device().num_sms;
    let cosim = gpu.launch(&k, &Launch::new(8, 256)).unwrap().metrics.cycles;
    let rep = gpu
        .launch(&k, &Launch::new(sms, 256))
        .unwrap()
        .metrics
        .cycles;
    assert_eq!(
        cosim, rep,
        "representative path must agree with co-simulation"
    );
}

#[test]
fn tlb_cold_misses_inflate_global_latency() {
    // A pointer chase across 256 distinct 2 MiB pages: cold TLB pays a
    // page walk per access; a warmed TLB does not (the paper's §III-A4
    // init "warms up the TLB to avoid the occurrence of cold misses").
    let mut gpu = h800();
    let pages = 256u64;
    let buf = gpu.alloc(pages * (2 << 20)).unwrap();
    for i in 0..pages {
        let next = buf + ((i + 1) % pages) * (2 << 20);
        gpu.mem_mut().write_scalar(buf + i * (2 << 20), 8, next);
    }
    let k = assemble(&format!(
        r#"
        mov.s64 %r3, %r0;
        mov.s32 %r4, 0;
    LOOP:
        ld.global.cg.b64 %r3, [%r3];
        add.s32 %r4, %r4, 1;
        setp.lt.s32 %p0, %r4, {pages};
        @%p0 bra LOOP;
        exit;
    "#
    ))
    .unwrap();
    let launch = Launch::new(1, 1).with_params(vec![buf]);
    gpu.flush_caches();
    let cold = gpu.launch(&k, &launch).unwrap();
    assert_eq!(cold.metrics.tlb_misses, pages, "every page walks cold");
    // Second pass: TLB (and L2) warm. Use fresh L2-cold state but warm TLB
    // by re-walking: the ring now fits the TLB (256 < 768 entries).
    let warm = gpu.launch(&k, &launch).unwrap();
    assert_eq!(warm.metrics.tlb_misses, 0, "warm TLB has no walks");
    let dev = DeviceConfig::h800();
    let delta = (cold.metrics.cycles - warm.metrics.cycles) as f64 / pages as f64;
    // Warm pass hits L2 (lines cached), so the latency gap is the page
    // walk plus the L2→DRAM difference.
    let expected = dev.tlb_miss_latency as f64 + (dev.dram_latency - dev.l2_latency) as f64;
    assert!(
        (delta - expected).abs() < 30.0,
        "cold-vs-warm delta {delta:.0} vs expected ≈{expected:.0}"
    );
}

/// Kernel faults — an out-of-bounds shared-memory access through every
/// instruction that reads or writes shared memory, a divergent branch, a
/// tensor-core instruction on missing or ill-fitting tiles or one the
/// device cannot execute — are typed launch errors naming the faulting PC,
/// and leave the `Gpu` usable.
#[test]
fn shared_memory_faults_are_launch_errors() {
    use hopper_isa::{CacheOp, KernelBuilder as KB, Operand, Special, Width};
    use hopper_sim::{LaunchError, SimFaultKind};

    const SMEM: u32 = 1024;
    const OOB: Option<SimFaultKind> = None; // any `SharedOutOfBounds` of `SMEM`
    type Emit = fn(&mut KB);
    fn mma() -> MmaDesc {
        MmaDesc::mma(16, 8, 16, DType::F16, DType::F32, false).expect("valid shape")
    }
    let diverged = SimFaultKind::DivergentBranch {
        mask: 0x7f,
        active: u32::MAX,
    };
    // Each case emits its instruction(s) right after the two-`mov`
    // prologue with the shared address in `%r2`; the last one faults.
    let cases: [(&str, i64, Option<SimFaultKind>, Emit); 14] = [
        ("ld.shared", 4096, OOB, |b| {
            b.ld(MemSpace::Shared, CacheOp::Ca, Width::B4, Reg(4), Reg(2), 0);
        }),
        ("st.shared", 4096, OOB, |b| {
            b.st(MemSpace::Shared, Width::B4, Reg(3), Reg(2), 0);
        }),
        ("atom.shared", 4096, OOB, |b| {
            b.atom_add(MemSpace::Shared, Some(Reg(4)), Reg(2), 0, Imm(1));
        }),
        // 16-byte accesses: the low half straddles the end / only the
        // high half lies beyond it.
        ("ld.shared.b128 low", 1020, OOB, |b| {
            b.ld(MemSpace::Shared, CacheOp::Ca, Width::B16, Reg(4), Reg(2), 0);
        }),
        ("ld.shared.b128 high", 1016, OOB, |b| {
            b.ld(MemSpace::Shared, CacheOp::Ca, Width::B16, Reg(4), Reg(2), 0);
        }),
        ("st.shared.b128 high", 1016, OOB, |b| {
            b.st(MemSpace::Shared, Width::B16, Reg(4), Reg(2), 0);
        }),
        ("cp.async", 1020, OOB, |b| {
            b.cp_async(Width::B8, (Reg(2), 0), (Reg(0), 0));
        }),
        ("tma", 512, OOB, |b| {
            b.tma_copy(4, 256, 256, (Reg(2), 0), (Reg(0), 0));
        }),
        ("ldmatrix", 1000, OOB, |b| {
            b.ld_tile(TileId(0), DType::F16, 8, 8, MemSpace::Shared, Reg(2), 0);
        }),
        ("stmatrix", 1000, OOB, |b| {
            b.fill_tile(TileId(1), DType::F16, 8, 8, TilePattern::Zero);
            b.st_tile(TileId(1), MemSpace::Shared, Reg(2), 0);
        }),
        ("divergent bra", 0, Some(diverged), |b| {
            b.special(Reg(4), Special::TidX);
            b.setp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(4)), Imm(7));
            let end = b.forward_label();
            b.bra_if(end, Pred(0), true);
            b.place(end);
        }),
        (
            "mma, A never filled",
            0,
            Some(SimFaultKind::TileNotInitialised { tile: 1 }),
            |b| {
                b.fill_tile(TileId(0), DType::F32, 16, 8, TilePattern::Zero);
                b.mma(mma(), TileId(0), TileId(1), TileId(2), TileId(0));
            },
        ),
        (
            "stmatrix, never filled",
            0,
            Some(SimFaultKind::TileNotInitialised { tile: 5 }),
            |b| {
                b.st_tile(TileId(5), MemSpace::Shared, Reg(2), 0);
            },
        ),
        (
            "mma, B of the wrong shape",
            0,
            Some(SimFaultKind::TileMismatch),
            |b| {
                b.fill_tile(TileId(0), DType::F32, 16, 8, TilePattern::Zero);
                b.fill_tile(TileId(1), DType::F16, 16, 16, TilePattern::Zero);
                b.fill_tile(TileId(2), DType::F16, 8, 8, TilePattern::Zero);
                b.mma(mma(), TileId(0), TileId(1), TileId(2), TileId(0));
            },
        ),
    ];
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let buf = gpu.alloc(4096).unwrap();
    for (what, addr, want, emit) in cases {
        let mut b = KB::new(what);
        b.shared_mem(SMEM);
        b.mov(Reg(2), Imm(addr));
        b.mov(Reg(3), Imm(7));
        emit(&mut b);
        b.cp_async_commit();
        b.cp_async_wait(0);
        b.exit();
        let k = b.build();
        let want_pc = k.instrs.len() as u32 - 4;
        let launch = Launch::new(2, 32).with_params(vec![buf]);
        match gpu.launch(&k, &launch) {
            Err(LaunchError::Fault(f)) => {
                assert_eq!(f.pc, want_pc, "{what}: {f}");
                let oob = matches!(f.kind, SimFaultKind::SharedOutOfBounds { size, .. } if size == SMEM as u64);
                assert!(want.map_or(oob, |k| k == f.kind), "{what}: {f}");
            }
            other => {
                panic!("{what}: expected a fault, got {other:?}")
            }
        }
        // The device survives: an in-range kernel runs to completion.
        let mut ok = KB::new("ok");
        ok.shared_mem(SMEM);
        ok.special(Reg(1), Special::TidX);
        ok.ialu(IAluOp::Shl, Reg(2), Operand::Reg(Reg(1)), Imm(2));
        ok.st(MemSpace::Shared, Width::B4, Reg(1), Reg(2), 0);
        ok.exit();
        gpu.launch(&ok.build(), &Launch::new(2, 32)).unwrap();
    }

    // So is an instruction the device has no hardware for.
    let desc = MmaDesc::wgmma(
        64,
        DType::F16,
        DType::F32,
        false,
        hopper_isa::OperandSource::SharedShared,
    );
    let mut b = KB::new("wgmma off Hopper");
    b.wgmma(desc.expect("valid shape"), TileId(0), TileId(1), TileId(2));
    b.exit();
    let mut gpu = Gpu::new(DeviceConfig::a100());
    match gpu.launch(&b.build(), &Launch::new(1, 128)) {
        Err(LaunchError::Fault(f)) => {
            assert_eq!(
                (f.pc, f.kind),
                (0, SimFaultKind::UnsupportedOnDevice),
                "{f}"
            )
        }
        other => panic!("wgmma on an A100: expected a fault, got {other:?}"),
    }
}

/// A `mapa` address naming a rank the cluster does not have is a typed
/// fault too, not a panic.
#[test]
fn unmapped_cluster_rank_is_a_launch_error() {
    use hopper_isa::{CacheOp, KernelBuilder as KB, Width};
    use hopper_sim::{LaunchError, SimFaultKind};
    let mut b = KB::new("bad_rank");
    b.shared_mem(256);
    b.mapa(Reg(2), Imm(0), Imm(5));
    b.ld(
        MemSpace::SharedCluster,
        CacheOp::Ca,
        Width::B4,
        Reg(3),
        Reg(2),
        0,
    );
    b.exit();
    let err = h800()
        .launch(&b.build(), &Launch::new(2, 32).with_cluster(2))
        .unwrap_err();
    let LaunchError::Fault(f) = err else {
        panic!("expected a fault, got {err:?}");
    };
    assert_eq!(
        (f.pc, f.kind),
        (1, SimFaultKind::RankNotResident { rank: 5 })
    );
}
