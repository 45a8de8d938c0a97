//! Deterministic fuzz smoke: a small, fixed slice of the hfuzz battery
//! that runs in the tier-1 suite. The full 200-kernel sweep lives in
//! `scripts/check.sh`; this keeps `cargo test` fast while still
//! exercising generator, oracles and shrinker end to end (with
//! debug-assertions on, so the engine invariant hooks fire too).

use hopper_audit::gen::KernelPlan;
use hopper_audit::oracle::{check_plan, ServeOracle};
use hopper_audit::rng::kernel_seed;
use hopper_audit::shrink::minimize;
use hopper_isa::Arch;
use hopper_sim::DeviceConfig;

const BASE: u64 = 0x5eed_f00d;

#[test]
fn oracle_battery_h800() {
    let dev = DeviceConfig::h800();
    for i in 0..10u64 {
        let seed = kernel_seed(BASE, i);
        let plan = KernelPlan::generate(seed, dev.arch == Arch::Hopper);
        check_plan(&plan, &dev, None).unwrap_or_else(|e| panic!("seed {seed:#018x} on h800: {e}"));
    }
}

#[test]
fn oracle_battery_other_devices() {
    for dev in [DeviceConfig::a100(), DeviceConfig::rtx4090()] {
        for i in 0..3u64 {
            let seed = kernel_seed(BASE ^ 0xA17, i);
            let plan = KernelPlan::generate(seed, dev.arch == Arch::Hopper);
            check_plan(&plan, &dev, None)
                .unwrap_or_else(|e| panic!("seed {seed:#018x} on {}: {e}", dev.name));
        }
    }
}

#[test]
fn herd_draws() {
    // A tenth of the plans are contended-unit herds; 200 draws must hold
    // some, and the first must pass the battery on every device.
    let plans: Vec<KernelPlan> = (0..200u64)
        .map(|i| KernelPlan::generate(kernel_seed(BASE ^ 0x4E2D, i), i % 2 == 0))
        .collect();
    let herd = plans
        .iter()
        .find(|p| p.is_herd())
        .expect("no herd draw in 200");
    for dev in [
        DeviceConfig::h800(),
        DeviceConfig::a100(),
        DeviceConfig::rtx4090(),
    ] {
        let seed = herd.seed;
        let plan = KernelPlan::generate(seed, dev.arch == Arch::Hopper);
        assert!(plan.is_herd(), "herd draws must not depend on the device");
        check_plan(&plan, &dev, None)
            .unwrap_or_else(|e| panic!("herd seed {seed:#018x} on {}: {e}", dev.name));
    }
}

#[test]
fn infer_oracle_battery() {
    // Scenario-level determinism through the daemon: a handful of
    // seed-derived serving scenarios on both architectures.  The full
    // cadence rides hfuzz's --serve-every in `scripts/check.sh`.
    let srv = ServeOracle::start().expect("bind ephemeral port");
    let mut preempting = 0;
    for (dev, n) in [(DeviceConfig::h800(), 3u64), (DeviceConfig::a100(), 1u64)] {
        for i in 0..n {
            let seed = kernel_seed(BASE ^ 0x1F3, i);
            let preempted = srv
                .check_infer(seed, &dev)
                .unwrap_or_else(|e| panic!("infer seed {seed:#018x} on {}: {e}", dev.name));
            preempting += (preempted > 0) as u32;
        }
    }
    srv.stop();
    assert!(preempting > 0, "no draw reached the KV-pressure path");
}

#[test]
fn injected_regression_is_caught_and_shrunk() {
    // Simulate an engine bug the fuzzer must catch: a predicate that
    // "fails" whenever the kernel issues a global atomic. The shrinker
    // must reduce the plan while preserving the failure, and the repro
    // must name its seed — the contract hfuzz relies on.
    let dev = DeviceConfig::h800();
    let fails = |p: &KernelPlan| {
        p.kernel().instrs.iter().any(|i| {
            matches!(
                i,
                hopper_isa::Instr::AtomAdd {
                    space: hopper_isa::MemSpace::Global,
                    ..
                }
            )
        })
    };
    let plan = (0..400u64)
        .map(|i| KernelPlan::generate(kernel_seed(BASE ^ 0xB06, i), true))
        .find(|p| p.segs.len() >= 5 && fails(p))
        .expect("generator produces global atomics");
    let small = minimize(&plan, fails);
    assert!(fails(&small), "shrink lost the injected failure");
    assert!(small.seg_count() <= plan.seg_count());
    // The shrunk plan must still pass the real oracles (the injected
    // "bug" is synthetic) and still replay from its seed.
    let replay = KernelPlan::generate(plan.seed, true);
    assert_eq!(replay.kernel().digest(), plan.kernel().digest());
    check_plan(&small.with_segments(small.segs.clone()), &dev, None)
        .unwrap_or_else(|e| panic!("shrunk plan fails real oracles: {e}"));
}
