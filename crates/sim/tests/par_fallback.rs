//! Over-wide scheduler slots (> 64 warps, wider than the ready-set bit
//! masks) are rejected at construction.  `Gpu::launch` can never build one
//! (device occupancy caps a slot at 16 warps), so the engine refuses the
//! geometry outright — under either scheduler, with or without
//! `sim_threads` — instead of silently degrading to the legacy serial scan.

use hopper_isa::asm::assemble_named;
use hopper_sim::engine::CacheState;
use hopper_sim::{
    BlockSpec, DeviceConfig, Engine, EngineConfig, GlobalMem, Metrics, RunLimit, Scheduler,
    SimOptions,
};

/// `blocks` blocks of 1024 threads on one SM: 8 warps per block per
/// scheduler slot, so 8 blocks fill the 64-warp ready mask exactly and 9
/// overflow it.
fn one_sm_config(blocks: u32, scheduler: Scheduler, sim_threads: u32) -> EngineConfig {
    EngineConfig {
        blocks: (0..blocks)
            .map(|i| BlockSpec {
                ctaid: i,
                sm: 0,
                cluster_id: i,
                cluster_rank: 0,
                smid: 0,
            })
            .collect(),
        threads_per_block: 1024,
        grid_dim: blocks,
        cluster_size: 1,
        params: vec![],
        l2_bw_scale: 1.0,
        dram_bw_scale: 1.0,
        opts: SimOptions {
            scheduler,
            sim_threads,
            ..Default::default()
        },
        limit: RunLimit::none(),
    }
}

fn run_one_sm(blocks: u32, scheduler: Scheduler, sim_threads: u32) -> Metrics {
    let dev = DeviceConfig::h800();
    let k = assemble_named(
        r#"
        mov %r1, %tid.x;
        add.s32 %r2, %r1, 1;
        exit;
    "#,
        "overwide",
    )
    .expect("assembles");
    let mut mem = GlobalMem::new();
    let mut caches = CacheState::new(&dev);
    let cfg = one_sm_config(blocks, scheduler, sim_threads);
    Engine::new(&dev, &k, cfg, &mut mem, &mut caches).run()
}

#[test]
fn full_width_slots_run_on_the_ready_set_scan() {
    let ready = run_one_sm(8, Scheduler::ReadySet, 4);
    assert_eq!(ready.instructions, 8 * 32 * 3);
    assert_eq!(ready, run_one_sm(8, Scheduler::LegacyScan, 0));
}

#[test]
#[should_panic(expected = "72 warps on one scheduler slot")]
fn overwide_slots_are_rejected() {
    run_one_sm(9, Scheduler::ReadySet, 4);
}

#[test]
#[should_panic(expected = "72 warps on one scheduler slot")]
fn overwide_slots_are_rejected_under_the_legacy_scan_too() {
    run_one_sm(9, Scheduler::LegacyScan, 0);
}
