//! Execution-driven GPU timing simulator for the Hopper-dissection
//! reproduction.
//!
//! Models the three GPUs of the paper (A100 PCIe, RTX 4090, H800 PCIe):
//! SMs with four warp schedulers and per-warp scoreboards, a banked shared
//! memory, L1/L2/DRAM with latency *and* bandwidth, tensor-core pipelines
//! for `mma`/`wgmma` (dense + 2:4 sparse, RS/SS operand sourcing), DPX
//! units (hardware on Hopper, ALU emulation elsewhere), `cp.async`/TMA
//! asynchronous copies, thread-block clusters with an SM-to-SM network
//! (distributed shared memory), and an activity-based power model with
//! DVFS throttling.
//!
//! Execution is *functional* — registers, shared memory and global memory
//! hold real values, so pointer-chase benchmarks, histograms and tensor
//! GEMMs compute real results — while timing comes from calibrated unit
//! latencies and throughput limiters (see `DESIGN.md` §4 for every
//! calibration anchor).
//!
//! ```
//! use hopper_sim::{DeviceConfig, Gpu, Launch};
//! use hopper_isa::asm::assemble;
//!
//! let mut gpu = Gpu::new(DeviceConfig::h800());
//! let buf = gpu.alloc(4096).unwrap();
//! // Each thread writes its global index to the buffer.
//! let k = assemble(r#"
//!     mov %r1, %tid.x;
//!     mov %r2, %ctaid.x;
//!     mad.s32 %r3, %r2, 256, %r1;   // global thread id
//!     shl.s32 %r4, %r3, 2;
//!     add.s32 %r5, %r4, 0;
//!     mad.s32 %r6, %r5, 1, %r0;     // addr = base + 4*gid
//!     st.global.b32 [%r6], %r3;
//!     exit;
//! "#).unwrap();
//! let stats = gpu
//!     .launch(&k, &Launch::new(4, 256).with_params(vec![buf]))
//!     .unwrap();
//! assert!(stats.metrics.cycles > 0);
//! assert_eq!(gpu.read_u32s(buf, 4), vec![0, 1, 2, 3]);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod engine;
pub mod gpu;
pub mod mem;
pub mod metrics;
pub mod power;
pub mod replay;
pub mod tc_timing;
pub mod threads;
pub mod tiles;

pub use device::{DeviceConfig, LevelBw, Scheduler, SimOptions, TcRate};
pub use engine::{BlockSpec, Engine, EngineConfig, RunLimit, SimFault, SimFaultKind};
pub use gpu::{Gpu, Launch, LaunchError, PhaseSink, Run, RunBudget, RunPhase};
pub use mem::GlobalMem;
pub use metrics::{Metrics, RunStats};
pub use replay::{CaptureSink, Replay, ReplayRec, ReplaySource};
pub use tiles::Tile;

/// Re-export of the `hopper-trace` event/profiling crate.
pub use hopper_trace as trace;
pub use hopper_trace::{
    ChromeTrace, InstrEvent, NullSink, PcSampleSink, PcStat, StallProfile, StallReason,
    StallSummary, TeeSink, TraceSink, Wants,
};
