//! Wire protocol of the simulation service: newline-delimited JSON.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line.  Responses are *deterministic*: object keys
//! are sorted at every level and the cached `result` payload of a `run`
//! never contains timestamps or other environment-dependent fields, so
//! two identical submissions produce byte-identical payloads regardless
//! of whether the second was served from the result cache.  Two envelope
//! fields are intentionally per-request — `corr_id`, the server-minted
//! correlation id that also stamps every log line about the request, and
//! the opt-in `timings` span timeline — so whole-line comparisons go
//! through [`canonical_response`], which strips exactly those two.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op":"run","kernel":"mov %r1, 0;\nexit;","device":"h800",
//!  "grid":4,"block":128,"report":"stats"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses carry a `status` of `"ok"` or `"error"`:
//!
//! ```text
//! {"corr_id":"<pid>-<seq>","digest":"<16-hex kernel digest>","id":null,
//!  "result":{...},"status":"ok"}
//! {"corr_id":"<pid>-<seq>","error":{"kind":"queue_full","message":"..."},
//!  "id":null,"status":"error"}
//! ```

use hopper_sim::RunStats;
use serde_json::Value;

/// Known error kinds returned in `error.kind` (stable API surface,
/// asserted by the integration tests).
pub const ERROR_KINDS: &[&str] = &[
    "bad_request",
    "asm_error",
    "trace_error",
    "unknown_device",
    "queue_full",
    "deadline_exceeded",
    "launch_error",
    "shutting_down",
    "internal",
];

/// Which result payload a `run` request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportKind {
    /// Aggregate [`RunStats`] counters (fast path, untraced launch).
    Stats,
    /// Full sectioned `hopper-prof` report (traced launch).
    Profile,
    /// LLM serving simulation (`hopper-infer`): the request carries an
    /// `infer` scenario object instead of a kernel.
    Infer,
}

impl ReportKind {
    /// Wire name (also the cache-key component).
    pub fn name(self) -> &'static str {
        match self {
            ReportKind::Stats => "stats",
            ReportKind::Profile => "profile",
            ReportKind::Infer => "infer",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "stats" => Some(ReportKind::Stats),
            "profile" => Some(ReportKind::Profile),
            "infer" => Some(ReportKind::Infer),
            _ => None,
        }
    }
}

/// A fully-validated `run` request.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// PTX-flavoured kernel text (assembled by the daemon).
    pub kernel: String,
    /// Kernel name for reports (default `"kernel"`).
    pub name: Option<String>,
    /// Device name: `h800`, `a100` or `rtx4090`.
    pub device: String,
    /// Blocks in the grid.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Cluster size (1 = no clusters).
    pub cluster: u32,
    /// Kernel parameters (`%r0..`).
    pub params: Vec<u64>,
    /// Result payload kind.
    pub report: ReportKind,
    /// Captured `htrace` trace text: when present, the daemon replays the
    /// trace (operands from the capture, full timing model) instead of
    /// running `kernel` functionally.  The `kernel` field is ignored —
    /// the trace embeds its own kernel text.
    pub trace: Option<String>,
    /// Serving scenario for `report=infer` (validated at parse time; the
    /// daemon digests its canonical form for the result cache).  Only
    /// legal with the `infer` report kind, which in turn ignores
    /// `kernel`/`grid`/`block` and forbids `trace`.
    pub infer: Option<Value>,
    /// Simulated-cycle budget for the launch.
    pub max_cycles: Option<u64>,
    /// Wall-clock deadline for the simulation, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Bypass the result cache (read *and* write) for this request.
    pub no_cache: bool,
    /// Attach the per-request span timeline to the response envelope.
    /// Envelope-only: never part of the cache key or the cached payload.
    pub timings: bool,
}

impl RunSpec {
    /// A minimal spec; customise the public fields as needed.
    pub fn new(
        kernel: impl Into<String>,
        device: impl Into<String>,
        grid: u32,
        block: u32,
    ) -> Self {
        RunSpec {
            id: None,
            kernel: kernel.into(),
            name: None,
            device: device.into(),
            grid,
            block,
            cluster: 1,
            params: Vec::new(),
            report: ReportKind::Stats,
            trace: None,
            infer: None,
            max_cycles: None,
            deadline_ms: None,
            no_cache: false,
            timings: false,
        }
    }

    /// Serialise as a single request line (no trailing newline).
    pub fn to_request_line(&self) -> String {
        let mut fields = vec![
            ("block", Value::UInt(self.block as u64)),
            ("cluster", Value::UInt(self.cluster as u64)),
            ("device", Value::Str(self.device.clone())),
            ("grid", Value::UInt(self.grid as u64)),
            ("kernel", Value::Str(self.kernel.clone())),
            ("op", Value::Str("run".into())),
            (
                "params",
                Value::Array(self.params.iter().map(|&p| Value::UInt(p)).collect()),
            ),
            ("report", Value::Str(self.report.name().into())),
        ];
        if let Some(id) = &self.id {
            fields.push(("id", Value::Str(id.clone())));
        }
        if let Some(name) = &self.name {
            fields.push(("name", Value::Str(name.clone())));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace", Value::Str(trace.clone())));
        }
        if let Some(infer) = &self.infer {
            fields.push(("infer", infer.clone()));
        }
        if let Some(mc) = self.max_cycles {
            fields.push(("max_cycles", Value::UInt(mc)));
        }
        if let Some(dl) = self.deadline_ms {
            fields.push(("deadline_ms", Value::UInt(dl)));
        }
        if self.no_cache {
            fields.push(("no_cache", Value::Bool(true)));
        }
        if self.timings {
            fields.push(("timings", Value::Bool(true)));
        }
        obj(fields).to_string()
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Assemble + simulate a kernel.
    Run(Box<RunSpec>),
    /// Daemon statistics snapshot.
    Stats {
        /// Correlation id.
        id: Option<String>,
    },
    /// Prometheus text exposition of the metric registry.
    Metrics {
        /// Correlation id.
        id: Option<String>,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: Option<String>,
    },
    /// Graceful shutdown: stop accepting, drain the queue, exit.
    Shutdown {
        /// Correlation id.
        id: Option<String>,
    },
}

impl Request {
    /// Stable wire name of the operation (the `op` metric label).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Run(_) => "run",
            Request::Stats { .. } => "stats",
            Request::Metrics { .. } => "metrics",
            Request::Ping { .. } => "ping",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// A protocol-level error: `kind` is one of [`ERROR_KINDS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable kind.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Construct (kind must be a member of [`ERROR_KINDS`]).
    pub fn new(kind: &'static str, message: impl Into<String>) -> Self {
        debug_assert!(ERROR_KINDS.contains(&kind), "unknown error kind {kind}");
        ProtoError {
            kind,
            message: message.into(),
        }
    }
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}
impl std::error::Error for ProtoError {}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError::new("bad_request", message)
}

fn get_str(o: &Value, key: &str) -> Result<Option<String>, ProtoError> {
    match o.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(format!("field `{key}` must be a string"))),
    }
}

fn get_u64(o: &Value, key: &str) -> Result<Option<u64>, ProtoError> {
    match o.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field `{key}` must be a non-negative integer"))),
    }
}

fn get_u32(o: &Value, key: &str) -> Result<Option<u32>, ProtoError> {
    match get_u64(o, key)? {
        None => Ok(None),
        Some(v) => u32::try_from(v)
            .map(Some)
            .map_err(|_| bad(format!("field `{key}` out of range (max {})", u32::MAX))),
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = serde_json::from_str(line.trim()).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(bad("request must be a JSON object"));
    }
    let id = get_str(&v, "id")?;
    let op = get_str(&v, "op")?.ok_or_else(|| bad("missing field `op`"))?;
    match op.as_str() {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "run" => {
            // `report` first: the infer kind replaces the kernel-shaped
            // required fields with a scenario object.
            let report = match get_str(&v, "report")? {
                None => ReportKind::Stats,
                Some(s) => ReportKind::parse(&s).ok_or_else(|| {
                    bad(format!("unknown report kind `{s}` (stats|profile|infer)"))
                })?,
            };
            let infer = v.get("infer").cloned();
            let (kernel, grid, block) = if report == ReportKind::Infer {
                if v.get("trace").is_some() {
                    return Err(bad("`trace` cannot be combined with report `infer`"));
                }
                // Kernel-shaped fields are meaningless here; defaults keep
                // the spec uniform without inventing required boilerplate.
                let scenario = infer.as_ref().cloned().unwrap_or(Value::Object(vec![]));
                hopper_infer::InferScenario::parse(&scenario)
                    .map_err(|e| bad(format!("invalid `infer` scenario: {e}")))?;
                (
                    get_str(&v, "kernel")?.unwrap_or_default(),
                    get_u32(&v, "grid")?.unwrap_or(1),
                    get_u32(&v, "block")?.unwrap_or(1),
                )
            } else {
                if infer.is_some() {
                    return Err(bad("field `infer` requires report `infer`"));
                }
                (
                    get_str(&v, "kernel")?.ok_or_else(|| bad("missing field `kernel`"))?,
                    get_u32(&v, "grid")?.ok_or_else(|| bad("missing field `grid`"))?,
                    get_u32(&v, "block")?.ok_or_else(|| bad("missing field `block`"))?,
                )
            };
            let device = get_str(&v, "device")?.ok_or_else(|| bad("missing field `device`"))?;
            let cluster = get_u32(&v, "cluster")?.unwrap_or(1);
            let params = match v.get("params") {
                None => Vec::new(),
                Some(p) => p
                    .as_array()
                    .ok_or_else(|| bad("field `params` must be an array"))?
                    .iter()
                    .map(|e| {
                        e.as_u64()
                            .ok_or_else(|| bad("`params` entries must be non-negative integers"))
                    })
                    .collect::<Result<Vec<u64>, ProtoError>>()?,
            };
            let no_cache = match v.get("no_cache") {
                None => false,
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| bad("field `no_cache` must be a boolean"))?,
            };
            let timings = match v.get("timings") {
                None => false,
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| bad("field `timings` must be a boolean"))?,
            };
            Ok(Request::Run(Box::new(RunSpec {
                id,
                kernel,
                name: get_str(&v, "name")?,
                device,
                grid,
                block,
                cluster,
                params,
                report,
                trace: get_str(&v, "trace")?,
                infer,
                max_cycles: get_u64(&v, "max_cycles")?,
                deadline_ms: get_u64(&v, "deadline_ms")?,
                no_cache,
                timings,
            })))
        }
        other => Err(bad(format!(
            "unknown op `{other}` (run|stats|metrics|ping|shutdown)"
        ))),
    }
}

/// The workspace's one sorted-key object builder.
pub use hopper_prof::json::obj;

fn id_value(id: &Option<String>) -> Value {
    match id {
        Some(s) => Value::Str(s.clone()),
        None => Value::Null,
    }
}

/// Success envelope, one line: `corr_id` (server-minted), `digest`
/// (present for `run` responses), `id` (echoed), `result`, `status`,
/// plus `timings` when the request opted in.
pub fn ok_response(
    id: &Option<String>,
    corr_id: &str,
    digest: Option<&str>,
    result: Value,
    timings: Option<Value>,
) -> String {
    let mut fields = vec![
        ("corr_id", Value::Str(corr_id.to_string())),
        ("id", id_value(id)),
        ("result", result),
        ("status", Value::Str("ok".into())),
    ];
    if let Some(d) = digest {
        fields.push(("digest", Value::Str(d.to_string())));
    }
    if let Some(t) = timings {
        fields.push(("timings", t));
    }
    obj(fields).to_string()
}

/// Error envelope, one line: `corr_id`, `error{kind,message}`, `id`,
/// `status`, plus `timings` when the request opted in.
pub fn error_response(
    id: &Option<String>,
    corr_id: &str,
    err: &ProtoError,
    timings: Option<Value>,
) -> String {
    let mut fields = vec![
        ("corr_id", Value::Str(corr_id.to_string())),
        (
            "error",
            obj(vec![
                ("kind", Value::Str(err.kind.to_string())),
                ("message", Value::Str(err.message.clone())),
            ]),
        ),
        ("id", id_value(id)),
        ("status", Value::Str("error".into())),
    ];
    if let Some(t) = timings {
        fields.push(("timings", t));
    }
    obj(fields).to_string()
}

/// Render a span timeline as the envelope's `timings` value: stages in
/// recording order, each `{dur_us,name,start_us}` (sorted keys).
pub fn timings_to_json(stages: &[hopper_obs::Stage]) -> Value {
    Value::Array(
        stages
            .iter()
            .map(|s| {
                obj(vec![
                    ("dur_us", Value::UInt(s.dur_us)),
                    ("name", Value::Str(s.name.to_string())),
                    ("start_us", Value::UInt(s.start_us)),
                ])
            })
            .collect(),
    )
}

/// The canonical form of a response line: the envelope with the two
/// per-request fields (`corr_id`, `timings`) removed.  Cold, cached and
/// `no_cache` responses to identical submissions are byte-identical in
/// this form — the comparison every differential test and oracle uses.
/// Non-JSON input is returned unchanged.
pub fn canonical_response(line: &str) -> String {
    match serde_json::from_str(line) {
        Ok(Value::Object(fields)) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "corr_id" && k != "timings")
                .collect(),
        )
        .to_string(),
        _ => line.to_string(),
    }
}

/// Deterministic JSON for a [`RunStats`] payload.  Delegates to
/// [`hopper_prof::run_stats_to_json`] — the one shared rendering, so the
/// daemon's `report=stats` payloads and `htrace`'s summaries agree
/// byte-for-byte.
pub fn run_stats_to_json(stats: &RunStats) -> Value {
    hopper_prof::run_stats_to_json(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_roundtrips() {
        let mut spec = RunSpec::new("exit;", "h800", 4, 128);
        spec.id = Some("req-1".into());
        spec.params = vec![0x1000, 7];
        spec.report = ReportKind::Profile;
        spec.max_cycles = Some(500_000);
        spec.deadline_ms = Some(2_000);
        spec.no_cache = true;
        spec.timings = true;
        let line = spec.to_request_line();
        match parse_request(&line).unwrap() {
            Request::Run(back) => {
                assert_eq!(back.id.as_deref(), Some("req-1"));
                assert_eq!(back.kernel, "exit;");
                assert_eq!(back.device, "h800");
                assert_eq!((back.grid, back.block, back.cluster), (4, 128, 1));
                assert_eq!(back.params, vec![0x1000, 7]);
                assert_eq!(back.report, ReportKind::Profile);
                assert_eq!(back.max_cycles, Some(500_000));
                assert_eq!(back.deadline_ms, Some(2_000));
                assert!(back.no_cache);
                assert!(back.timings);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn megabyte_string_field_parses_in_linear_time() {
        // The vendored parser used to re-validate the whole remaining
        // input per character: ~12 s for this line, quadratic in length.
        let half = "add.s32 %r1, %r1, 1; ".repeat(25_000);
        let kernel = format!("{half}\n// \"µ → é\" \\ \t{half}\u{1}");
        assert!(kernel.len() > 1 << 20);
        let line = RunSpec::new(kernel.clone(), "h800", 1, 32).to_request_line();
        let t0 = std::time::Instant::now();
        let parsed = parse_request(&line).unwrap();
        let took = t0.elapsed();
        match parsed {
            Request::Run(back) => assert!(back.kernel == kernel, "1 MB kernel must round-trip"),
            other => panic!("expected Run, got {other:?}"),
        }
        assert!(took.as_millis() < 1000, "1 MB request took {took:?}");
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping { id: None }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats","id":"s1"}"#).unwrap(),
            Request::Stats { id: Some(_) }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics { id: None }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown { id: None }
        ));
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap().op(),
            "metrics"
        );
    }

    #[test]
    fn malformed_requests_are_bad_request() {
        for line in [
            "",
            "not json",
            "[1,2]",
            r#"{"op":"run"}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"run","kernel":"exit;","device":"h800","grid":0.5,"block":128}"#,
            r#"{"op":"run","kernel":"exit;","device":"h800","grid":4,"block":128,"params":[-1]}"#,
            r#"{"op":"run","kernel":"exit;","device":"h800","grid":4,"block":128,"report":"x"}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, "bad_request", "line: {line}");
        }
    }

    #[test]
    fn infer_run_roundtrips_without_kernel() {
        let mut spec = RunSpec::new(String::new(), "h800", 1, 1);
        spec.report = ReportKind::Infer;
        spec.infer = Some(
            serde_json::from_str(r#"{"model":"llama2-7b","qps":25.0,"requests":16}"#).unwrap(),
        );
        let line = spec.to_request_line();
        match parse_request(&line).unwrap() {
            Request::Run(back) => {
                assert_eq!(back.report, ReportKind::Infer);
                assert!(back.kernel.is_empty());
                let scn = hopper_infer::InferScenario::parse(back.infer.as_ref().unwrap()).unwrap();
                assert_eq!(scn.qps, 25.0);
                assert_eq!(scn.requests, 16);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn infer_request_validation() {
        // Scenario field errors surface as bad_request at parse time.
        for line in [
            // invalid scenario contents
            r#"{"op":"run","report":"infer","infer":{"model":"gpt-5"}}"#,
            r#"{"op":"run","report":"infer","infer":{"tp":0}}"#,
            r#"{"op":"run","report":"infer","infer":[1]}"#,
            // infer payload without the infer report
            r#"{"op":"run","kernel":"exit;","device":"h800","grid":1,"block":32,"infer":{}}"#,
            // trace cannot combine with infer
            r#"{"op":"run","report":"infer","trace":"HTRACE v1\n"}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, "bad_request", "line: {line}");
        }
        // Omitted scenario means all defaults; kernel/geometry not needed.
        let ok = parse_request(r#"{"op":"run","report":"infer","device":"h800"}"#).unwrap();
        match ok {
            Request::Run(spec) => {
                assert_eq!(spec.report, ReportKind::Infer);
                assert!(spec.infer.is_none());
                assert_eq!(spec.device, "h800");
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn envelopes_are_single_sorted_lines() {
        let ok = ok_response(
            &Some("a".into()),
            "1f-2",
            Some("00d1gest000000ff"),
            obj(vec![("cycles", Value::UInt(9))]),
            None,
        );
        assert_eq!(
            ok,
            r#"{"corr_id":"1f-2","digest":"00d1gest000000ff","id":"a","result":{"cycles":9},"status":"ok"}"#
        );
        assert!(!ok.contains('\n'));
        let err = error_response(
            &None,
            "1f-3",
            &ProtoError::new("queue_full", "depth 8 = cap"),
            None,
        );
        assert_eq!(
            err,
            r#"{"corr_id":"1f-3","error":{"kind":"queue_full","message":"depth 8 = cap"},"id":null,"status":"error"}"#
        );
    }

    #[test]
    fn canonical_response_strips_only_per_request_fields() {
        let stages = [
            hopper_obs::Stage {
                name: "parse",
                start_us: 0,
                dur_us: 12,
            },
            hopper_obs::Stage {
                name: "simulate",
                start_us: 40,
                dur_us: 900,
            },
        ];
        let a = ok_response(
            &Some("x".into()),
            "1f-10",
            Some("00d1gest000000ff"),
            obj(vec![("cycles", Value::UInt(9))]),
            Some(timings_to_json(&stages)),
        );
        let b = ok_response(
            &Some("x".into()),
            "1f-11",
            Some("00d1gest000000ff"),
            obj(vec![("cycles", Value::UInt(9))]),
            None,
        );
        assert_ne!(a, b, "corr_id and timings vary per request");
        assert_eq!(canonical_response(&a), canonical_response(&b));
        assert_eq!(
            canonical_response(&b),
            r#"{"digest":"00d1gest000000ff","id":"x","result":{"cycles":9},"status":"ok"}"#
        );
        // Timings render sorted stage objects in recording order.
        assert!(a.contains(r#"{"dur_us":12,"name":"parse","start_us":0}"#));
        // Non-JSON passes through untouched.
        assert_eq!(canonical_response("garbage"), "garbage");
    }

    #[test]
    fn run_stats_json_has_sorted_keys() {
        let v = run_stats_to_json(&RunStats {
            nominal_clock_hz: 1e9,
            achieved_clock_hz: 1e9,
            ..Default::default()
        });
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
