//! A `NullSink` launch must be free: the engine drops a sink that wants
//! nothing, so the traced entry point compiles down to the untraced hot
//! path plus one virtual `wants` call per wave.

use hopper_isa::asm::assemble;
use hopper_sim::{DeviceConfig, Gpu, Launch, NullSink};
use std::time::Instant;

fn workload() -> hopper_isa::Kernel {
    assemble(
        "mov.s32 %r1, 0;\nLOOP:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p0, %r1, 256;\n@%p0 bra LOOP;\nexit;",
    )
    .unwrap()
}

#[test]
fn null_sink_overhead_under_1p5_percent() {
    let k = workload();
    let launch = Launch::new(1, 1024);
    let reps = 10;

    let run_plain = || {
        let mut acc = 0u64;
        for _ in 0..reps {
            let mut gpu = Gpu::new(DeviceConfig::h800());
            acc += gpu.launch(&k, &launch).unwrap().metrics.cycles;
        }
        acc
    };
    let run_null = || {
        let mut acc = 0u64;
        for _ in 0..reps {
            let mut gpu = Gpu::new(DeviceConfig::h800());
            let mut sink = NullSink;
            acc += gpu
                .launch_traced(&k, &launch, &mut sink)
                .unwrap()
                .metrics
                .cycles;
        }
        acc
    };

    // Warm up both paths, then take alternating samples so slow drift
    // (background load, frequency scaling) hits both sides equally; the
    // per-side minimum discards scheduler noise the way criterion's
    // minimum estimator does. Many short windows beat few long ones:
    // the minimum only needs ONE interference-free window per side.
    // A burst of background load can still poison one whole sampling
    // round, so an over-threshold round is re-measured (up to 3 rounds)
    // before the test fails.
    std::hint::black_box(run_plain());
    std::hint::black_box(run_null());
    let samples = 31;
    let mut overhead = f64::INFINITY;
    let mut t_plain = f64::INFINITY;
    let mut t_null = f64::INFINITY;
    for _round in 0..3 {
        t_plain = f64::INFINITY;
        t_null = f64::INFINITY;
        for _ in 0..samples {
            let t = Instant::now();
            std::hint::black_box(run_plain());
            t_plain = t_plain.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(run_null());
            t_null = t_null.min(t.elapsed().as_secs_f64());
        }
        overhead = t_null / t_plain - 1.0;
        if overhead < 0.015 {
            break;
        }
    }
    assert!(
        overhead < 0.015,
        "NullSink overhead {:.2}% exceeds 1.5% (plain {:.3} ms, null {:.3} ms)",
        overhead * 100.0,
        t_plain * 1e3,
        t_null * 1e3
    );
}
