//! Chrome-trace (`chrome://tracing` / Perfetto) JSON exporter.

use crate::{IssueEvent, StallSpan, TraceSink, UnitSpan, Wants};
use serde::escape_into;
use std::fmt::Write as _;

/// `pid` used for device-wide units (L2/DRAM ports) in the exported trace.
const DEVICE_PID: u32 = 1_000_000;
/// `tid` base for functional-unit tracks (warp tracks use the engine warp
/// index directly, which is always far below this).
const UNIT_TID_BASE: u32 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    ts: u64,
    dur: u64,
    pid: u32,
    tid: u32,
    name: &'static str,
    cat: &'static str,
}

/// Records per-SM, per-warp timelines and serialises them to the Chrome
/// trace-event JSON format (an object with a `traceEvents` array of
/// `ph:"X"` complete events plus `ph:"M"` metadata naming the tracks).
///
/// Mapping: one *process* per SM (`pid` = SM index; device-wide L2/DRAM
/// ports use a synthetic `device` process), one *thread* per warp
/// (`tid` = engine warp index) plus one thread per functional unit.
/// Timestamps are simulated cycles written into the `ts`/`dur`
/// microsecond fields verbatim, so 1 µs on the tracing UI = 1 GPU cycle.
/// Cache events are aggregate-only and do not appear on the timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    base: u64,
    events: Vec<Ev>,
    /// (pid, unit-name) pairs in first-seen order; index = unit track id.
    unit_tracks: Vec<(u32, &'static str)>,
    /// (pid, warp) pairs in first-seen order, for thread metadata.
    warp_tracks: Vec<(u32, u32)>,
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Number of recorded timeline events (excludes metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no timeline events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn note_warp(&mut self, pid: u32, warp: u32) {
        if !self.warp_tracks.iter().any(|&(p, w)| p == pid && w == warp) {
            self.warp_tracks.push((pid, warp));
        }
    }

    fn unit_tid(&mut self, pid: u32, unit: &'static str) -> u32 {
        if let Some(i) = self
            .unit_tracks
            .iter()
            .position(|&(p, u)| p == pid && u == unit)
        {
            return UNIT_TID_BASE + i as u32;
        }
        self.unit_tracks.push((pid, unit));
        UNIT_TID_BASE + (self.unit_tracks.len() - 1) as u32
    }

    /// Serialise to Chrome trace JSON. Events are sorted by timestamp
    /// (then by pid/tid/name) so the output is byte-deterministic for a
    /// deterministic simulation and timestamps are monotonically
    /// non-decreasing in file order.
    pub fn to_json(&self) -> String {
        let mut evs = self.events.clone();
        evs.sort_by(|a, b| {
            (a.ts, a.pid, a.tid, a.dur, a.name, a.cat)
                .cmp(&(b.ts, b.pid, b.tid, b.dur, b.name, b.cat))
        });
        let mut out = String::with_capacity(64 + evs.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut pids: Vec<u32> = Vec::new();
        let track_pids = self
            .warp_tracks
            .iter()
            .map(|&(p, _)| p)
            .chain(self.unit_tracks.iter().map(|&(p, _)| p));
        for pid in track_pids {
            if !pids.contains(&pid) {
                pids.push(pid);
            }
        }
        pids.sort_unstable();
        for pid in pids {
            push_meta(
                &mut out,
                &mut first,
                "process_name",
                pid,
                None,
                &pid_name(pid),
            );
        }
        let mut warps = self.warp_tracks.clone();
        warps.sort_unstable();
        for (pid, warp) in warps {
            push_meta(
                &mut out,
                &mut first,
                "thread_name",
                pid,
                Some(warp),
                &format!("warp {warp}"),
            );
        }
        for (i, &(pid, unit)) in self.unit_tracks.iter().enumerate() {
            push_meta(
                &mut out,
                &mut first,
                "thread_name",
                pid,
                Some(UNIT_TID_BASE + i as u32),
                &format!("unit {unit}"),
            );
        }
        for e in &evs {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape_into(&mut out, e.name);
            out.push_str("\",\"cat\":\"");
            escape_into(&mut out, e.cat);
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                e.ts, e.dur, e.pid, e.tid
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Write [`ChromeTrace::to_json`] to a file.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn pid_name(pid: u32) -> String {
    if pid == DEVICE_PID {
        "device".to_string()
    } else {
        format!("SM {pid}")
    }
}

fn push_meta(
    out: &mut String,
    first: &mut bool,
    kind: &str,
    pid: u32,
    tid: Option<u32>,
    name: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(out, "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    out.push_str(",\"args\":{\"name\":\"");
    escape_into(out, name);
    out.push_str("\"}}");
}

fn span_pid(sm: u32) -> u32 {
    if sm == u32::MAX {
        DEVICE_PID
    } else {
        sm
    }
}

impl TraceSink for ChromeTrace {
    fn wants(&self) -> Wants {
        Wants {
            issue: true,
            stall: true,
            unit: true,
            ..Wants::NONE
        }
    }

    fn begin_wave(&mut self, base_cycle: u64, _sms: u32, _slots_per_sm: u32) {
        self.base = base_cycle;
    }

    fn issue(&mut self, ev: &IssueEvent) {
        self.note_warp(ev.sm, ev.warp);
        self.events.push(Ev {
            ts: self.base + ev.cycle,
            dur: 1,
            pid: ev.sm,
            tid: ev.warp,
            name: ev.op,
            cat: "issue",
        });
    }

    fn stall(&mut self, span: &StallSpan) {
        debug_assert!(span.end > span.start);
        self.note_warp(span.sm, span.warp);
        self.events.push(Ev {
            ts: self.base + span.start,
            dur: span.end - span.start,
            pid: span.sm,
            tid: span.warp,
            name: span.reason.name(),
            cat: "stall",
        });
    }

    fn unit(&mut self, span: &UnitSpan) {
        debug_assert!(span.end > span.start);
        let pid = span_pid(span.sm);
        let tid = self.unit_tid(pid, span.unit);
        self.events.push(Ev {
            ts: self.base + span.start,
            dur: span.end - span.start,
            pid,
            tid,
            name: span.unit,
            cat: "unit",
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StallReason;

    #[test]
    fn export_sorts_and_names_tracks() {
        let mut t = ChromeTrace::new();
        t.begin_wave(0, 1, 4);
        t.stall(&StallSpan {
            sm: 0,
            sched: 0,
            warp: 1,
            start: 5,
            end: 9,
            reason: StallReason::Scoreboard,
        });
        t.issue(&IssueEvent {
            cycle: 2,
            sm: 0,
            sched: 0,
            warp: 0,
            op: "ffma",
        });
        t.unit(&UnitSpan {
            sm: u32::MAX,
            unit: "dram",
            warp: 0,
            start: 3,
            end: 7,
        });
        t.end_wave(10);
        // Second wave offsets timestamps.
        t.begin_wave(10, 1, 4);
        t.issue(&IssueEvent {
            cycle: 0,
            sm: 0,
            sched: 0,
            warp: 0,
            op: "exit",
        });
        let json = t.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"SM 0\""));
        assert!(json.contains("\"name\":\"device\""));
        assert!(json.contains("\"name\":\"warp 1\""));
        assert!(json.contains("\"name\":\"unit dram\""));
        // ffma at ts 2 sorts before the stall at ts 5; second-wave issue
        // lands at ts 10.
        let i_ffma = json.find("\"ffma\"").unwrap();
        let i_stall = json.find("\"scoreboard\"").unwrap();
        let i_exit = json.find("\"exit\"").unwrap();
        assert!(i_ffma < i_stall && i_stall < i_exit, "{json}");
    }
}
