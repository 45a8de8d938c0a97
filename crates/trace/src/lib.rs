//! Cycle-level event tracing and stall attribution for the Hopper
//! simulator.
//!
//! The simulation engine in `hopper-sim` issues one instruction per warp
//! scheduler per cycle when it can; when it cannot, the reason is one of a
//! small set of micro-architectural conditions (scoreboard dependency,
//! barrier wait, memory-queue backpressure, busy tensor pipe, ...). This
//! crate defines the [`TraceSink`] interface the engine feeds with typed
//! events — each sink declares what it consumes ([`TraceSink::wants`]) and
//! the engine builds nothing else — plus ready-made sinks:
//!
//! * [`StallProfile`] — aggregates per-warp-scheduler stall-reason
//!   histograms, a per-functional-unit occupancy table, and cache totals.
//!   Its accounting satisfies the conservation invariant
//!   `issued + stalled + idle == total cycles` for every scheduler slot.
//! * [`ChromeTrace`] — records per-SM / per-warp timelines and serialises
//!   them to the Chrome `chrome://tracing` / Perfetto JSON event format.
//! * [`NullSink`] — wants nothing; a run with it attached is an untraced
//!   run.
//!
//! The only dependency is vendored `serde`, for its JSON string escaper.

#![warn(missing_docs)]

mod chrome;
mod pc;
mod profile;

pub use chrome::ChromeTrace;
pub use pc::{wait_bucket, wait_bucket_label, PcSampleSink, PcStat, PcTotals, N_WAIT_BUCKETS};
pub use profile::{SlotProfile, StallProfile, StallSummary, UnitOccupancy};

/// Why a warp-scheduler slot could not issue an instruction this cycle.
///
/// Reasons mirror the dissection in the Hopper benchmarking paper: latency
/// chains show up as [`StallReason::Scoreboard`], `bar.sync`/cluster
/// arrival as [`StallReason::Barrier`], LSU queue saturation as
/// [`StallReason::MioQueueFull`], busy tensor-core quadrants (or a
/// warpgroup-wide `wgmma` in flight) as [`StallReason::TensorPipeBusy`],
/// and asynchronous copies (`cp.async` / TMA) being drained as
/// [`StallReason::TmaInFlight`]. [`StallReason::DvfsThrottle`] is a
/// device-level accounting entry (cycles lost to clock throttling); it is
/// reported separately and never appears in per-slot histograms so that
/// the per-slot conservation invariant stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallReason {
    /// Register or predicate operand not yet written back (data dependency).
    Scoreboard,
    /// Warp parked at a block barrier or cluster barrier.
    Barrier,
    /// Load/store (MIO) queue at capacity, or memory-pipe backpressure.
    MioQueueFull,
    /// Tensor-core quadrant/warpgroup pipe busy, or waiting on `wgmma` groups.
    TensorPipeBusy,
    /// Scalar math pipe (INT / FP32 / FP64 / DPX) busy.
    MathPipeBusy,
    /// Outstanding asynchronous copy (`cp.async` / TMA) not yet landed.
    TmaInFlight,
    /// Issue-port hold: fixed issue gap after the previous instruction.
    Dispatch,
    /// Device-level: cycles lost to DVFS clock throttling (reported
    /// separately; never a per-slot stall bucket).
    DvfsThrottle,
}

/// Number of [`StallReason`] variants that can appear in per-slot
/// histograms (everything except [`StallReason::DvfsThrottle`]).
pub const N_SLOT_REASONS: usize = 7;

impl StallReason {
    /// The per-slot reasons, in histogram-bucket order.
    pub const SLOT_REASONS: [StallReason; N_SLOT_REASONS] = [
        StallReason::Scoreboard,
        StallReason::Barrier,
        StallReason::MioQueueFull,
        StallReason::TensorPipeBusy,
        StallReason::MathPipeBusy,
        StallReason::TmaInFlight,
        StallReason::Dispatch,
    ];

    /// Histogram bucket index (only valid for the per-slot reasons).
    pub fn bucket(self) -> usize {
        self as usize
    }

    /// Short stable name used in reports and Chrome traces.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Scoreboard => "scoreboard",
            StallReason::Barrier => "barrier",
            StallReason::MioQueueFull => "mio_queue_full",
            StallReason::TensorPipeBusy => "tensor_pipe_busy",
            StallReason::MathPipeBusy => "math_pipe_busy",
            StallReason::TmaInFlight => "tma_in_flight",
            StallReason::Dispatch => "dispatch",
            StallReason::DvfsThrottle => "dvfs_throttle",
        }
    }
}

/// What a [`TraceSink`] consumes.  The engine asks once per wave
/// ([`TraceSink::wants`]) and constructs only these categories, so a run
/// pays for what its sink measures and nothing else; there is no separate
/// configuration to keep in step with the sink.
///
/// Wave framing ([`TraceSink::begin_wave`] / [`TraceSink::end_wave`]) and
/// [`TraceSink::dvfs_throttle`] reach every sink that wants anything.  A
/// sink that wants nothing is not attached at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wants {
    /// [`TraceSink::issue`]: one event per issued instruction.
    pub issue: bool,
    /// [`TraceSink::stall`]: one span per closed warp stall interval.
    pub stall: bool,
    /// [`TraceSink::unit`]: one span per functional-unit reservation.
    pub unit: bool,
    /// [`TraceSink::instr`]: one record per issued instruction carrying
    /// its resolved operand payload (the engine gathers lane addresses and
    /// tensor activity for it) — what trace *capture* records.
    pub instr: bool,
    /// [`TraceSink::pc_totals`]: the engine keeps one accumulator per
    /// kernel instruction and reports each once per wave.
    pub pc_totals: bool,
    /// The end-of-wave summary: [`TraceSink::slot_totals`],
    /// [`TraceSink::unit_busy`] and [`TraceSink::cache_totals`].
    pub summary: bool,
}

impl Wants {
    /// Nothing ([`NullSink`]).
    pub const NONE: Wants = Wants {
        issue: false,
        stall: false,
        unit: false,
        instr: false,
        pc_totals: false,
        summary: false,
    };

    /// Everything either side wants ([`TeeSink`]).
    pub fn union(self, o: Wants) -> Wants {
        Wants {
            issue: self.issue || o.issue,
            stall: self.stall || o.stall,
            unit: self.unit || o.unit,
            instr: self.instr || o.instr,
            pc_totals: self.pc_totals || o.pc_totals,
            summary: self.summary || o.summary,
        }
    }
}

/// One issued instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueEvent {
    /// Wave-local cycle of issue.
    pub cycle: u64,
    /// SM index.
    pub sm: u32,
    /// Warp-scheduler slot within the SM (0..4 on Hopper).
    pub sched: u32,
    /// Engine warp index (unique across the wave).
    pub warp: u32,
    /// Instruction mnemonic.
    pub op: &'static str,
}

/// One issued instruction with its resolved operand payload — the
/// capture-side record of the replay trace format.
///
/// The payload is instruction-dependent (defined by the engine, stable
/// per mnemonic): active-lane memory addresses for loads/stores/atomics
/// (lane-ascending, any DSM tag bits preserved), the global-side lane
/// addresses for `cp.async`, the lane-0 base address for TMA and tile
/// loads/stores, the tensor activity factor bits for `mma`/`wgmma`, and
/// empty for everything else. Only built for sinks with [`Wants::instr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrEvent<'a> {
    /// Wave-local cycle of issue.
    pub cycle: u64,
    /// SM index.
    pub sm: u32,
    /// Block id (`%ctaid.x`) of the issuing warp's block.
    pub ctaid: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Program counter (index into the kernel's instruction list).
    pub pc: u32,
    /// Instruction mnemonic.
    pub op: &'static str,
    /// Active-lane mask of the warp.
    pub active: u32,
    /// Resolved operand payload (see type docs).
    pub payload: &'a [u64],
}

/// A contiguous interval during which one warp was stalled for one reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpan {
    /// SM index.
    pub sm: u32,
    /// Warp-scheduler slot within the SM.
    pub sched: u32,
    /// Engine warp index.
    pub warp: u32,
    /// First stalled cycle (wave-local).
    pub start: u64,
    /// One past the last stalled cycle (wave-local).
    pub end: u64,
    /// Binding stall reason over the interval.
    pub reason: StallReason,
}

/// A functional unit busy interval attributed to one warp's instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSpan {
    /// SM index (`u32::MAX` for device-wide units such as L2/DRAM ports).
    pub sm: u32,
    /// Unit name (`"int"`, `"fp32"`, `"tensor"`, `"l1_port"`, ...).
    pub unit: &'static str,
    /// Engine warp index occupying the unit.
    pub warp: u32,
    /// Busy-interval start (wave-local cycle).
    pub start: u64,
    /// Busy-interval end (wave-local cycle, exclusive).
    pub end: u64,
}

/// End-of-wave per-scheduler-slot cycle accounting.
///
/// By construction `issued + idle + stalled.iter().sum() == total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTotals {
    /// SM index.
    pub sm: u32,
    /// Warp-scheduler slot within the SM.
    pub sched: u32,
    /// Cycles in which this slot issued an instruction.
    pub issued: u64,
    /// Cycles with no runnable (non-retired) warp on this slot.
    pub idle: u64,
    /// Stalled cycles, bucketed by [`StallReason::SLOT_REASONS`].
    pub stalled: [u64; N_SLOT_REASONS],
    /// Total simulated cycles in the wave.
    pub total: u64,
}

/// End-of-wave cumulative busy time for one functional unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitBusy {
    /// SM index (`u32::MAX` for device-wide units).
    pub sm: u32,
    /// Unit name.
    pub unit: &'static str,
    /// Cycles (fractional) the unit spent busy.
    pub busy: f64,
    /// Total simulated cycles in the wave.
    pub total: u64,
}

/// End-of-wave cache hit/miss totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheTotals {
    /// L1 line hits.
    pub l1_hits: u64,
    /// L1 line misses.
    pub l1_misses: u64,
    /// L2 line hits.
    pub l2_hits: u64,
    /// L2 line misses.
    pub l2_misses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
}

/// Receiver for engine trace events.
///
/// Every event method defaults to a no-op, so a sink implements what it
/// needs and names the same set in [`TraceSink::wants`] — the one required
/// method, which is what keeps the engine from building events nobody
/// reads.
pub trait TraceSink {
    /// The categories this sink consumes (see [`Wants`]).
    fn wants(&self) -> Wants;

    /// A wave of blocks starts simulating. `base_cycle` is the device
    /// cycle at which this wave begins (waves run back-to-back);
    /// subsequent event timestamps are wave-local and should be offset by
    /// it when building a device timeline.
    fn begin_wave(&mut self, base_cycle: u64, sms: u32, slots_per_sm: u32) {
        let _ = (base_cycle, sms, slots_per_sm);
    }

    /// The wave finished after `cycles` simulated cycles.
    fn end_wave(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// An instruction issued.
    fn issue(&mut self, ev: &IssueEvent) {
        let _ = ev;
    }

    /// An instruction issued, with its resolved operand payload
    /// ([`Wants::instr`] — see [`InstrEvent`]).
    fn instr(&mut self, ev: &InstrEvent) {
        let _ = ev;
    }

    /// A warp stall interval closed.
    fn stall(&mut self, span: &StallSpan) {
        let _ = span;
    }

    /// A functional unit busy interval was reserved.
    fn unit(&mut self, span: &UnitSpan) {
        let _ = span;
    }

    /// End-of-wave scheduler-slot accounting.
    fn slot_totals(&mut self, totals: &SlotTotals) {
        let _ = totals;
    }

    /// End-of-wave functional-unit busy accounting.
    fn unit_busy(&mut self, busy: &UnitBusy) {
        let _ = busy;
    }

    /// End-of-wave cache totals.
    fn cache_totals(&mut self, totals: &CacheTotals) {
        let _ = totals;
    }

    /// End-of-wave per-PC sampling totals ([`Wants::pc_totals`]; one call
    /// per kernel instruction that issued or bound a stall during the
    /// wave).
    fn pc_totals(&mut self, totals: &PcTotals) {
        let _ = totals;
    }

    /// Device-level cycles lost to DVFS throttling (emitted once per
    /// launch, after all waves).
    fn dvfs_throttle(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// A sink that wants nothing: attaching it leaves the run untraced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn wants(&self) -> Wants {
        Wants::NONE
    }
}

/// Forwards every event to two sinks (e.g. a [`StallProfile`] and a
/// [`ChromeTrace`] in the same run) and wants what either wants.  Each side
/// may therefore be handed categories only its partner asked for; the
/// default no-op methods drop them.
pub struct TeeSink<'a> {
    a: &'a mut dyn TraceSink,
    b: &'a mut dyn TraceSink,
}

impl<'a> TeeSink<'a> {
    /// Combine two sinks.
    pub fn new(a: &'a mut dyn TraceSink, b: &'a mut dyn TraceSink) -> Self {
        TeeSink { a, b }
    }
}

impl TraceSink for TeeSink<'_> {
    fn wants(&self) -> Wants {
        self.a.wants().union(self.b.wants())
    }
    fn begin_wave(&mut self, base_cycle: u64, sms: u32, slots_per_sm: u32) {
        self.a.begin_wave(base_cycle, sms, slots_per_sm);
        self.b.begin_wave(base_cycle, sms, slots_per_sm);
    }
    fn end_wave(&mut self, cycles: u64) {
        self.a.end_wave(cycles);
        self.b.end_wave(cycles);
    }
    fn issue(&mut self, ev: &IssueEvent) {
        self.a.issue(ev);
        self.b.issue(ev);
    }
    fn instr(&mut self, ev: &InstrEvent) {
        self.a.instr(ev);
        self.b.instr(ev);
    }
    fn stall(&mut self, span: &StallSpan) {
        self.a.stall(span);
        self.b.stall(span);
    }
    fn unit(&mut self, span: &UnitSpan) {
        self.a.unit(span);
        self.b.unit(span);
    }
    fn slot_totals(&mut self, totals: &SlotTotals) {
        self.a.slot_totals(totals);
        self.b.slot_totals(totals);
    }
    fn unit_busy(&mut self, busy: &UnitBusy) {
        self.a.unit_busy(busy);
        self.b.unit_busy(busy);
    }
    fn cache_totals(&mut self, totals: &CacheTotals) {
        self.a.cache_totals(totals);
        self.b.cache_totals(totals);
    }
    fn pc_totals(&mut self, totals: &PcTotals) {
        self.a.pc_totals(totals);
        self.b.pc_totals(totals);
    }
    fn dvfs_throttle(&mut self, cycles: u64) {
        self.a.dvfs_throttle(cycles);
        self.b.dvfs_throttle(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_reason_buckets_are_dense_and_ordered() {
        for (i, r) in StallReason::SLOT_REASONS.iter().enumerate() {
            assert_eq!(r.bucket(), i);
        }
        assert_eq!(StallReason::DvfsThrottle.bucket(), N_SLOT_REASONS);
    }

    #[test]
    fn null_sink_reports_null() {
        assert_eq!(NullSink.wants(), Wants::NONE);
        let (mut a, mut b) = (NullSink, NullSink);
        assert_eq!(TeeSink::new(&mut a, &mut b).wants(), Wants::NONE);
        let (mut p, mut c) = (StallProfile::default(), ChromeTrace::new());
        let want = Wants {
            issue: true,
            stall: true,
            unit: true,
            summary: true,
            ..Wants::NONE
        };
        assert_eq!(TeeSink::new(&mut p, &mut c).wants(), want);
    }
}
