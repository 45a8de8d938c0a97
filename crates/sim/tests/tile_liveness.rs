//! Static tile liveness (`Kernel::tile_uses`): a tensor-core product whose
//! D nothing reads is skipped, and skipping it changes nothing a kernel can
//! observe.  Stored accumulators come back bit for bit equal to host-side
//! `execute_mma` chains, and a skipped instruction faults exactly where its
//! computed twin does.  Debug builds also assert, inside the engine, that
//! no `st.tile` and no operand read ever meets a tile that holds only its
//! shape.

use hopper_isa::{
    DType, IAluOp, KernelBuilder, MemSpace, MmaDesc, Operand::Imm, Operand::Reg as R,
    OperandSource, Reg, Special, TileId, TilePattern,
};
use hopper_sim::tiles::{encode_elem, execute_mma, Tile};
use hopper_sim::{DeviceConfig, Gpu, Launch, LaunchError, SimFaultKind};

fn dense() -> MmaDesc {
    MmaDesc::mma(16, 8, 16, DType::F16, DType::F32, false).expect("valid shape")
}

fn sparse() -> MmaDesc {
    MmaDesc::mma(16, 8, 32, DType::F16, DType::F32, true).expect("valid shape")
}

fn fill(b: &mut KernelBuilder, t: u8, dtype: DType, rows: usize, cols: usize, p: TilePattern) {
    b.fill_tile(TileId(t), dtype, rows as u16, cols as u16, p);
}

/// The host-side twin of a `fill.tile`.
fn tile(dtype: DType, rows: usize, cols: usize, p: TilePattern) -> Tile {
    Tile::from_pattern(dtype, rows, cols, p)
}

/// `tile`'s elements as `st.tile` lays 32-bit elements out in memory.
fn words(t: &Tile) -> Vec<u32> {
    t.data
        .iter()
        .map(|&v| encode_elem(t.dtype, v) as u32)
        .collect()
}

/// Launch `k` over one block of `block` threads and read back `words`
/// 32-bit words of the global buffer it stores to.
fn run(k: hopper_isa::Kernel, block: u32, words: usize) -> Vec<u32> {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let buf = gpu.alloc(words as u64 * 4).unwrap();
    let launch = Launch::new(1, block).with_params(vec![buf]);
    gpu.launch(&k, &launch).expect("known-answer kernel runs");
    gpu.read_u32s(buf, words)
}

#[test]
fn an_accumulated_chain_stores_the_host_answer() {
    // D = A·B + D, three deep, then stored.
    let d = dense();
    let (a, bp, cp) = (
        TilePattern::Random { seed: 1 },
        TilePattern::Random { seed: 2 },
        TilePattern::Random { seed: 3 },
    );
    let mut b = KernelBuilder::new("chain_d");
    fill(&mut b, 0, DType::F16, 16, 16, a);
    fill(&mut b, 1, DType::F16, 16, 8, bp);
    fill(&mut b, 2, DType::F32, 16, 8, cp);
    for _ in 0..3 {
        b.mma(d, TileId(2), TileId(0), TileId(1), TileId(2));
    }
    b.st_tile(TileId(2), MemSpace::Global, Reg(0), 0);
    b.exit();
    let k = b.build();
    assert!(k.tile_uses().read(TileId(2), false));

    let (ta, tb) = (tile(DType::F16, 16, 16, a), tile(DType::F16, 16, 8, bp));
    let mut want = tile(DType::F32, 16, 8, cp);
    for _ in 0..3 {
        want = execute_mma(&d, &ta, &tb, &want).unwrap();
    }
    assert_eq!(run(k, 32, 128), words(&want));
}

#[test]
fn a_chain_through_other_tiles_stores_the_host_answer() {
    // Sparse T3 = A·B + T2, T4 = A·B + T3, T5 = A·B + T4, stored; beside
    // it a product nothing reads (T6), which is skipped.
    let d = sparse();
    let (a, bp, cp) = (
        TilePattern::Sparse24Random { seed: 4 },
        TilePattern::Random { seed: 5 },
        TilePattern::Random { seed: 6 },
    );
    let mut b = KernelBuilder::new("chain_c");
    fill(&mut b, 0, DType::F16, 16, 32, a);
    fill(&mut b, 1, DType::F16, 32, 8, bp);
    fill(&mut b, 2, DType::F32, 16, 8, cp);
    b.mma(d, TileId(3), TileId(0), TileId(1), TileId(2));
    b.mma(d, TileId(6), TileId(0), TileId(1), TileId(3));
    b.mma(d, TileId(4), TileId(0), TileId(1), TileId(3));
    b.mma(d, TileId(5), TileId(0), TileId(1), TileId(4));
    b.st_tile(TileId(5), MemSpace::Global, Reg(0), 0);
    b.exit();
    let k = b.build();
    let uses = k.tile_uses();
    let read: Vec<u8> = (0..8).filter(|&t| uses.read(TileId(t), false)).collect();
    assert_eq!(read, [0, 1, 2, 3, 4, 5]);

    let (ta, tb) = (tile(DType::F16, 16, 32, a), tile(DType::F16, 32, 8, bp));
    let mut want = tile(DType::F32, 16, 8, cp);
    for _ in 0..3 {
        want = execute_mma(&d, &ta, &tb, &want).unwrap();
    }
    assert_eq!(run(k, 32, 128), words(&want));
}

#[test]
fn a_stored_wgmma_accumulator_is_the_host_answer_on_the_leader() {
    // One warp group; every warp stores its own accumulator tile at
    // `warp · 2 KiB`.  Only the leader runs the wgmma chain, so the other
    // three store the tile they filled.
    let d = MmaDesc::wgmma(
        8,
        DType::F16,
        DType::F32,
        false,
        OperandSource::SharedShared,
    )
    .expect("valid shape");
    let (a, bp, cp) = (
        TilePattern::Random { seed: 7 },
        TilePattern::Random { seed: 8 },
        TilePattern::Random { seed: 9 },
    );
    let mut b = KernelBuilder::new("chain_wgmma");
    fill(&mut b, 0, DType::F16, 64, 16, a);
    fill(&mut b, 1, DType::F16, 16, 8, bp);
    fill(&mut b, 2, DType::F32, 64, 8, cp);
    b.wgmma_fence();
    for _ in 0..3 {
        b.wgmma(d, TileId(2), TileId(0), TileId(1));
    }
    b.wgmma_commit();
    b.wgmma_wait(0);
    b.special(Reg(1), Special::WarpId);
    b.imad(Reg(1), R(Reg(1)), Imm(64 * 8 * 4), R(Reg(0)));
    b.st_tile(TileId(2), MemSpace::Global, Reg(1), 0);
    b.exit();

    let (ta, tb) = (tile(DType::F16, 64, 16, a), tile(DType::F16, 16, 8, bp));
    let filled = tile(DType::F32, 64, 8, cp);
    let mut lead = filled.clone();
    for _ in 0..3 {
        lead = execute_mma(&d, &ta, &tb, &lead).unwrap();
    }
    let want = [words(&lead), words(&filled), words(&filled), words(&filled)].concat();
    assert_eq!(run(b.build(), 128, 4 * 512), want);
}

/// The fault `k` stops at, as `(pc, kind)`.
fn fault_of(k: &hopper_isa::Kernel, block: u32) -> (u32, SimFaultKind) {
    let mut gpu = Gpu::new(DeviceConfig::h800());
    let buf = gpu.alloc(1 << 16).unwrap();
    match gpu.launch(k, &Launch::new(1, block).with_params(vec![buf])) {
        Err(LaunchError::Fault(f)) => (f.pc, f.kind),
        other => panic!("{}: expected a fault, got {other:?}", k.name),
    }
}

#[test]
fn a_skipped_product_faults_where_its_computed_twin_does() {
    type Emit = fn(&mut KernelBuilder) -> TileId;
    let missing = |t| SimFaultKind::TileNotInitialised { tile: t };
    let cases: [(&str, SimFaultKind, u32, Emit); 5] = [
        ("missing A", missing(0), 32, |b| {
            fill(b, 1, DType::F16, 16, 8, TilePattern::Zero);
            fill(b, 2, DType::F32, 16, 8, TilePattern::Zero);
            b.mma(dense(), TileId(3), TileId(0), TileId(1), TileId(2));
            TileId(3)
        }),
        ("missing C", missing(2), 32, |b| {
            fill(b, 0, DType::F16, 16, 16, TilePattern::Random { seed: 1 });
            fill(b, 1, DType::F16, 16, 8, TilePattern::Random { seed: 2 });
            b.mma(dense(), TileId(3), TileId(0), TileId(1), TileId(2));
            TileId(3)
        }),
        (
            "C of the wrong shape",
            SimFaultKind::TileMismatch,
            32,
            |b| {
                fill(b, 0, DType::F16, 16, 16, TilePattern::Random { seed: 1 });
                fill(b, 1, DType::F16, 16, 8, TilePattern::Random { seed: 2 });
                fill(b, 2, DType::F32, 8, 16, TilePattern::Zero);
                b.mma(dense(), TileId(3), TileId(0), TileId(1), TileId(2));
                TileId(3)
            },
        ),
        ("sparse A not 2:4", SimFaultKind::TileMismatch, 32, |b| {
            // A dense random fill has three or four non-zeros per group.
            fill(b, 0, DType::F16, 16, 32, TilePattern::Random { seed: 3 });
            fill(b, 1, DType::F16, 32, 8, TilePattern::Random { seed: 4 });
            fill(b, 2, DType::F32, 16, 8, TilePattern::Zero);
            b.mma(sparse(), TileId(3), TileId(0), TileId(1), TileId(2));
            TileId(3)
        }),
        (
            "wgmma accumulator of the wrong shape",
            SimFaultKind::TileMismatch,
            128,
            |b| {
                let d = MmaDesc::wgmma(
                    8,
                    DType::F16,
                    DType::F32,
                    false,
                    OperandSource::SharedShared,
                );
                fill(b, 0, DType::F16, 64, 16, TilePattern::Random { seed: 5 });
                fill(b, 1, DType::F16, 16, 8, TilePattern::Random { seed: 6 });
                fill(b, 2, DType::F32, 64, 16, TilePattern::Zero);
                b.wgmma(d.expect("valid shape"), TileId(2), TileId(0), TileId(1));
                TileId(2)
            },
        ),
    ];
    for (what, kind, block, emit) in cases {
        let build = |store: bool| {
            let mut b = KernelBuilder::new(what);
            b.mov(Reg(1), Imm(0));
            let d = emit(&mut b);
            if store {
                b.ialu(IAluOp::Add, Reg(1), R(Reg(0)), Imm(0));
                b.st_tile(d, MemSpace::Global, Reg(1), 0);
            }
            b.exit();
            (b.build(), d)
        };
        let (skipped, d) = build(false);
        let (computed, _) = build(true);
        assert!(!skipped.tile_uses().read(d, true), "{what}: D is read");
        assert!(computed.tile_uses().read(d, true), "{what}: D is unread");
        let got = fault_of(&skipped, block);
        assert_eq!(got.1, kind, "{what}");
        assert_eq!(got, fault_of(&computed, block), "{what}");
    }
}
