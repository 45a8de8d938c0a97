//! What a workload reports while it runs: timed ops, spans, work done,
//! simulated-result digest and output checks.
//!
//! An *op* is one thing a caller waits on (a launch, a harness, a request,
//! a scenario): it is always timed, counts into `attempted`/`failed` and
//! yields one latency sample.  A *span* is a layer boundary inside an op;
//! spans are recorded only while tracing is on, so the untraced run pays
//! one clock read per boundary and nothing else.

use crate::stats::Fnv;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`sim.launch.alu`, `replay.parse_text`, …).
    pub name: &'static str,
    /// Free-form discriminator (device, request kind, serial/par2).
    pub tag: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Op the span belongs to (spans of one op share it).
    pub op_id: u32,
}

/// One op latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// Op name.
    pub name: &'static str,
    /// Discriminator, as on [`Span`].
    pub tag: &'static str,
    /// Wall time of the op, ns.
    pub dur_ns: u64,
}

/// Handle returned by [`Recorder::begin`] / [`Recorder::op_begin`].
#[derive(Debug)]
pub struct Token {
    span: Option<u32>,
    start: Instant,
    name: &'static str,
    tag: &'static str,
}

/// Failure messages kept verbatim (the count is never capped).
const MAX_FAILURE_MESSAGES: usize = 20;

/// Per-process measurement state.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Record spans (the traced run, on its traced passes).
    pub tracing: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u32,
    /// Op samples since the last [`Recorder::take_pass`].
    ops: Vec<OpSample>,
    work: u64,
    digest: Fnv,
    /// Ops and checks attempted so far.
    pub attempted: u64,
    /// Ops and checks that failed so far.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassData {
    /// Latency samples, in execution order.
    pub ops: Vec<OpSample>,
    /// Units of work completed (see the workload's `WORK_UNIT`).
    pub work: u64,
    /// Digest of every simulated result of the pass.
    pub digest: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            tracing: false,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
            ops: Vec::new(),
            work: 0,
            digest: Fnv::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }
}

impl Recorder {
    /// ns since the epoch for an instant taken by the caller.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str, tag: &'static str, start: Instant) -> Option<u32> {
        if !self.tracing {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            tag,
            start_ns: self.ns_of(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.next_op,
        });
        self.open.push(idx);
        Some(idx)
    }

    fn close_span(&mut self, span: Option<u32>, end: Instant) {
        if let Some(idx) = span {
            self.spans[idx as usize].end_ns = self.ns_of(end);
            // Tokens are closed innermost-first; tolerate a forgotten one.
            while let Some(top) = self.open.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }

    /// Open a layer span.
    pub fn begin(&mut self, name: &'static str) -> Token {
        self.begin_tagged(name, "")
    }

    /// Open a layer span with a discriminator.
    pub fn begin_tagged(&mut self, name: &'static str, tag: &'static str) -> Token {
        let start = Instant::now();
        Token {
            span: self.open_span(name, tag, start),
            start,
            name,
            tag,
        }
    }

    /// Close a layer span; returns its duration.
    pub fn end(&mut self, t: Token) -> Duration {
        let end = Instant::now();
        self.close_span(t.span, end);
        end.duration_since(t.start)
    }

    /// Open an op.
    pub fn op_begin(&mut self, name: &'static str, tag: &'static str) -> Token {
        self.next_op += 1;
        self.begin_tagged(name, tag)
    }

    /// Close an op: one latency sample, one attempt, a failure unless `ok`.
    pub fn op_end(&mut self, t: Token, ok: bool) -> Duration {
        let (name, tag) = (t.name, t.tag);
        let dur = self.end(t);
        self.push_op(name, tag, dur.as_nanos() as u64, ok);
        dur
    }

    /// Record an op timed elsewhere (client threads of `serve_mixed`).
    pub fn push_op(&mut self, name: &'static str, tag: &'static str, dur_ns: u64, ok: bool) {
        self.ops.push(OpSample { name, tag, dur_ns });
        self.attempted += 1;
        if !ok {
            self.fail(format!("op {name}[{tag}] failed or missed its limit"));
        }
    }

    /// Record a span timed elsewhere; returns its index for use as a parent.
    pub fn add_span(
        &mut self,
        name: &'static str,
        tag: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op_id: u32,
    ) -> Option<u32> {
        if !self.tracing {
            return None;
        }
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns,
            parent: parent.or(self.open.last().copied()),
            op_id,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// A fresh op id for externally timed ops.
    pub fn new_op_id(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    /// Count completed work.
    pub fn work(&mut self, n: u64) {
        self.work += n;
    }

    /// Fold simulated output into the pass digest.
    pub fn digest_bytes(&mut self, bytes: &[u8]) {
        self.digest.write(bytes);
    }

    /// Fold one integer into the pass digest.
    pub fn digest_u64(&mut self, v: u64) {
        self.digest.write_u64(v);
    }

    /// An output check: counted as attempted, and as failed unless `ok`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(msg);
        }
    }

    /// Close the current pass and hand back what it produced.
    pub fn take_pass(&mut self) -> PassData {
        let data = PassData {
            ops: std::mem::take(&mut self.ops),
            work: self.work,
            digest: self.digest.0,
        };
        self.work = 0;
        self.digest = Fnv::default();
        data
    }

    /// Drop everything recorded so far except failures (after warm-up).
    pub fn discard(&mut self) {
        self.take_pass();
        self.spans.clear();
        self.open.clear();
    }

    /// Hand the recorded spans over (closing any still open).
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.open.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may overlap each other and are clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one complete
/// (`X`) event per span, `ts`/`dur` in µs, the span's own fields in `args`.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    use serde_json::Value;
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(i, (s, &self_ns))| {
            let args = Value::Object(vec![
                ("end_ns".into(), Value::UInt(s.end_ns)),
                ("id".into(), Value::UInt(i as u64)),
                ("op_id".into(), Value::UInt(s.op_id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("self_ns".into(), Value::UInt(self_ns)),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("tag".into(), Value::Str(s.tag.into())),
                ("workload".into(), Value::Str(workload.into())),
            ]);
            Value::Object(vec![
                ("args".into(), args),
                ("cat".into(), Value::Str(workload.into())),
                (
                    "dur".into(),
                    Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("name".into(), Value::Str(s.name.into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(1)),
                ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
            ])
        })
        .collect();
    Value::Object(vec![("traceEvents".into(), Value::Array(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            tag: "",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 40, Some(0)),  // child a
            span(30, 60, Some(0)),  // child b overlaps a: union 10..60
            span(15, 20, Some(1)),  // grandchild inside a
            span(90, 130, Some(0)), // child c sticks out: clipped to 90..100
            span(200, 250, None),   // second root, no children
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40, 50]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let spans = vec![
            span(0, 1000, None),
            span(0, 400, Some(0)),
            span(400, 900, Some(0)),
            span(450, 600, Some(2)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn untraced_recorder_keeps_samples_but_no_spans() {
        let mut rec = Recorder::default();
        let op = rec.op_begin("op", "t");
        let inner = rec.begin("layer");
        rec.end(inner);
        rec.op_end(op, true);
        assert!(rec.take_spans().is_empty());
        let pass = rec.take_pass();
        assert_eq!(pass.ops.len(), 1);
        assert_eq!((rec.attempted, rec.failed), (1, 0));
    }

    #[test]
    fn traced_recorder_links_parents_and_ops() {
        let mut rec = Recorder {
            tracing: true,
            ..Recorder::default()
        };
        let op = rec.op_begin("op", "t");
        let inner = rec.begin("layer");
        rec.end(inner);
        rec.op_end(op, false);
        let spans = rec.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op_id, spans[1].op_id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!((rec.attempted, rec.failed), (1, 1));
        let json = chrome_trace_json("w", &spans);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }
}
