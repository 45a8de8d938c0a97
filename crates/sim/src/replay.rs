//! Replay-mode plumbing: captured per-warp instruction streams and the
//! sink that records them.
//!
//! A replayed launch re-runs the full timing model — schedulers, caches,
//! DRAM, banks, DVFS — but sources every operand the timing model needs
//! (memory addresses, tensor-core activity factors) from a previously
//! captured stream instead of functional execution.  The engine follows
//! the recorded PC sequence, so divergent control flow replays without
//! evaluating predicates.
//!
//! The wire/file format lives in the `hopper-replay` crate; this module
//! only defines the in-memory representation the engine consumes, plus
//! [`CaptureSink`], a [`TraceSink`](hopper_trace::TraceSink) that records
//! a functional run into that representation.

use hopper_isa::{Instr, Kernel};
use hopper_trace::{InstrEvent, TraceSink, Wants};
use std::collections::BTreeMap;

/// One issued instruction in a captured warp stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRec {
    /// Program counter (index into `Kernel::instrs`).
    pub pc: u32,
    /// Active-lane mask at issue.
    pub active: u32,
    /// Operand payload; arity is fixed by
    /// [`Instr::trace_payload`](hopper_isa::Instr::trace_payload):
    /// resolved lane addresses for memory ops (one per active lane,
    /// lane-ascending), a single base address for tile/TMA ops, or an
    /// `f64::to_bits` activity factor for `mma`/`wgmma`.
    pub payload: Vec<u64>,
}

/// A full captured launch: per-warp instruction streams keyed by
/// `(ctaid, warp_in_block)`.
///
/// The launch decomposition is deterministic, so capture and replay visit
/// the same set of blocks even under representative-SM scaling; a stream
/// must exist for every warp the replayed launch instantiates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplaySource {
    /// Captured streams, keyed by `(ctaid, warp_in_block)`.
    pub streams: BTreeMap<(u32, u32), Vec<ReplayRec>>,
}

impl ReplaySource {
    /// Total records across all warp streams.
    pub fn total_records(&self) -> u64 {
        self.streams.values().map(|s| s.len() as u64).sum()
    }

    /// Structural validation of the streams against `kernel`: every PC in
    /// bounds, payload arity matching the instruction's
    /// [`TracePayload`](hopper_isa::TracePayload) class, streams starting
    /// at PC 0, PC successors consistent with fall-through or the branch
    /// target, and `exit` terminating (and only terminating) each stream.
    ///
    /// This rejects traces the engine cannot follow; it does not prove
    /// semantic well-formedness (e.g. a tile consumed before any
    /// instruction defines it still faults at replay time, exactly as the
    /// equivalent authored kernel would).
    pub fn validate(&self, kernel: &Kernel) -> Result<(), String> {
        let n = kernel.instrs.len();
        for (&(ctaid, wib), stream) in &self.streams {
            let at = |i: usize| format!("ctaid {ctaid} warp {wib} record {i}");
            if stream.is_empty() {
                return Err(format!("ctaid {ctaid} warp {wib}: empty stream"));
            }
            if stream[0].pc != 0 {
                return Err(format!(
                    "{}: stream starts at pc {}, not 0",
                    at(0),
                    stream[0].pc
                ));
            }
            for (i, rec) in stream.iter().enumerate() {
                let pc = rec.pc as usize;
                if pc >= n {
                    return Err(format!(
                        "{}: pc {} out of range (kernel has {} instrs)",
                        at(i),
                        pc,
                        n
                    ));
                }
                let instr = &kernel.instrs[pc];
                let class = instr.trace_payload();
                if !class.len_ok(rec.payload.len(), rec.active) {
                    return Err(format!(
                        "{}: payload arity {} invalid for `{}` ({:?}, active mask {:#010x})",
                        at(i),
                        rec.payload.len(),
                        instr.mnemonic(),
                        class,
                        rec.active
                    ));
                }
                let last = i + 1 == stream.len();
                match instr {
                    Instr::Exit => {
                        if !last {
                            return Err(format!("{}: exit is not the last record", at(i)));
                        }
                    }
                    _ if last => {
                        return Err(format!(
                            "{}: stream ends on `{}`, expected `exit`",
                            at(i),
                            instr.mnemonic()
                        ));
                    }
                    Instr::Bra { target, .. } => {
                        let next = stream[i + 1].pc as usize;
                        if next != pc + 1 && next != *target {
                            return Err(format!(
                                "{}: branch successor pc {} is neither fall-through {} nor target {}",
                                at(i),
                                next,
                                pc + 1,
                                target
                            ));
                        }
                    }
                    _ => {
                        let next = stream[i + 1].pc as usize;
                        if next != pc + 1 {
                            return Err(format!(
                                "{}: successor pc {} does not follow `{}` at pc {}",
                                at(i),
                                next,
                                instr.mnemonic(),
                                pc
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The replay half of a [`Run`](crate::Run): where operands come from
/// instead of functional execution.
#[derive(Debug, Clone, Copy)]
pub struct Replay<'a> {
    /// The captured streams.
    pub source: &'a ReplaySource,
    /// The caller already ran [`ReplaySource::validate`] against the
    /// kernel being launched (a front door that checks traces at request
    /// time), so the launch skips its own pass.  Leave `false` otherwise:
    /// the engine trusts a validated stream's PCs and arities.
    pub prevalidated: bool,
}

/// Trace sink that records every issued instruction into a
/// [`ReplaySource`].  It wants [`Wants::instr`] and nothing else, so a
/// captured run builds no profiling events and its metrics equal an
/// untraced run's.
#[derive(Debug, Default)]
pub struct CaptureSink {
    streams: BTreeMap<(u32, u32), Vec<ReplayRec>>,
}

impl CaptureSink {
    /// Finish capturing and hand the streams over for replay.
    pub fn into_source(self) -> ReplaySource {
        ReplaySource {
            streams: self.streams,
        }
    }
}

impl TraceSink for CaptureSink {
    fn wants(&self) -> Wants {
        Wants {
            instr: true,
            ..Wants::NONE
        }
    }

    fn instr(&mut self, ev: &InstrEvent) {
        self.streams
            .entry((ev.ctaid, ev.warp_in_block))
            .or_default()
            .push(ReplayRec {
                pc: ev.pc,
                active: ev.active,
                payload: ev.payload.to_vec(),
            });
    }
}
