//! The daemon: TCP accept loop, connection handlers, worker pool,
//! deadline reaper and graceful shutdown.
//!
//! Life of a `run` request:
//!
//! 1. A connection thread reads the line, mints a correlation id, and
//!    starts the request's stage [`Timeline`].  It parses the line,
//!    resolves the device, and assembles the kernel — cheap work done
//!    inline so malformed requests never occupy a queue slot.
//! 2. The result cache is probed.  A hit is answered immediately
//!    (byte-identical to the cold response; see [`crate::cache`]).
//! 3. Otherwise the job is pushed onto the bounded queue.  A full queue
//!    is an immediate structured `queue_full` rejection — backpressure
//!    is explicit, never a silent hang.
//! 4. A worker pops the job, builds a *fresh* [`Gpu`] (device state
//!    never leaks between jobs, which is what keeps responses
//!    deterministic), runs under a [`RunBudget`] assembled from the
//!    request's cycle budget and wall deadline, and sends the payload
//!    back over the job's reply channel together with the worker-side
//!    stages (queue wait, simulate, render) of the request timeline.
//! 5. The reaper thread trips cancel tokens of jobs whose wall deadline
//!    passed; the engine polls the token and aborts mid-grid.
//!
//! Observability: every request
//! is tagged with a correlation id that appears in the response
//! envelope and in every structured log line the request produces, the
//! [`ServeStats`] counters double as registry series, stage durations
//! feed `hsimd_stage_duration_us`, and the registry is exported both
//! through the NDJSON `metrics` op and a minimal `GET /metrics` HTTP
//! shim on the same listener (a scrape target needs no second port).
//! Log verbosity is governed by `HOPPER_LOG`.
//!
//! Shutdown (the `shutdown` op or [`Server::shutdown`]) closes the
//! queue — queued jobs still drain to their waiting clients — stops the
//! accept loop, and joins every thread.

use crate::cache::{CacheKey, ResultCache};
use crate::protocol::{
    error_response, ok_response, parse_request, run_stats_to_json, timings_to_json, ProtoError,
    ReportKind, Request, RunSpec,
};
use crate::queue::{JobQueue, PushError};
use crate::stats::{ServeStats, STAGE_HELP};
use hopper_isa::{asm, Kernel};
use hopper_obs::log::{event, Level};
use hopper_obs::{corr, Histogram, Registry, Stage, Timeline};
use hopper_replay::Trace;
use hopper_sim::{
    DeviceConfig, Gpu, Launch, LaunchError, PhaseSink, Replay, ReplaySource, Run, RunBudget,
    RunPhase,
};
use serde_json::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle connection reads wake up to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Log target of daemon-lifecycle and per-request events.
const LOG: &str = "hsimd";

const CACHE_OPS_HELP: &str = "Result-cache operations by outcome.";
const ERRORS_HELP: &str = "Error responses by protocol error kind.";
const REQUESTS_HELP: &str = "Requests received by protocol op.";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Simulation worker threads (minimum 1).
    pub workers: usize,
    /// Bounded job-queue capacity; pushes beyond it are rejected.
    pub queue_cap: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_cap: usize,
    /// Default simulated-cycle budget applied when a request sets none.
    pub default_max_cycles: Option<u64>,
    /// Default wall-clock deadline applied when a request sets none.
    pub default_deadline_ms: Option<u64>,
    /// Metric registry to publish into; `None` uses the process-global
    /// [`Registry::global`].  Tests that assert exact counter values
    /// pass a private registry so concurrent servers in one process
    /// don't share atomics.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 16,
            cache_cap: 64,
            default_max_cycles: None,
            default_deadline_ms: None,
            registry: None,
        }
    }
}

/// Resolve a wire device name to its calibrated configuration.
pub fn device_config(name: &str) -> Option<DeviceConfig> {
    DeviceConfig::by_name(name)
}

/// What a worker actually executes for a job.
enum Work {
    /// Assemble-and-simulate (or trace replay) through the cycle engine.
    Kernel {
        kernel: Kernel,
        /// Pre-validated warp streams for a trace request; `None` runs
        /// the kernel functionally.
        replay: Option<ReplaySource>,
    },
    /// A serving-level simulation through `hopper-infer`.
    Infer(hopper_infer::InferScenario),
}

/// A validated, assembled job waiting for a worker.
struct Job {
    spec: RunSpec,
    device: DeviceConfig,
    work: Work,
    /// `None` when the request opted out of caching.
    cache_key: Option<CacheKey>,
    /// Correlation id of the originating request (log lines the worker
    /// emits join the connection thread's under one id).
    corr_id: String,
    /// The request timeline's anchor: when the request line was read.
    accepted_at: Instant,
    enqueued_at: Instant,
    reply: mpsc::Sender<(Result<Value, ProtoError>, Vec<Stage>)>,
}

/// A wall-clock deadline ordered soonest-first in the reaper's heap.
struct Deadline {
    at: Instant,
    token: Arc<AtomicBool>,
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for Deadline {}
impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at)
    }
}

struct ReaperState {
    heap: BinaryHeap<Reverse<Deadline>>,
    stop: bool,
}

/// One thread watching a min-heap of deadlines; when a deadline passes
/// it sets the job's cancel token, which the engine polls.  Tokens of
/// jobs that finished in time are set harmlessly (nothing polls them
/// any more).
struct Reaper {
    state: Arc<(Mutex<ReaperState>, Condvar)>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Reaper {
    fn spawn() -> Self {
        let state = Arc::new((
            Mutex::new(ReaperState {
                heap: BinaryHeap::new(),
                stop: false,
            }),
            Condvar::new(),
        ));
        let state2 = state.clone();
        let handle = std::thread::spawn(move || {
            let (lock, cond) = &*state2;
            let mut st = lock.lock().unwrap();
            loop {
                if st.stop {
                    break;
                }
                let now = Instant::now();
                while st.heap.peek().is_some_and(|r| r.0.at <= now) {
                    let Reverse(d) = st.heap.pop().unwrap();
                    d.token.store(true, Ordering::Relaxed);
                }
                st = match st.heap.peek() {
                    None => cond.wait(st).unwrap(),
                    Some(r) => {
                        let dur = r.0.at.saturating_duration_since(now);
                        cond.wait_timeout(st, dur).unwrap().0
                    }
                };
            }
        });
        Reaper {
            state,
            handle: Mutex::new(Some(handle)),
        }
    }

    fn register(&self, at: Instant, token: Arc<AtomicBool>) {
        let (lock, cond) = &*self.state;
        lock.lock()
            .unwrap()
            .heap
            .push(Reverse(Deadline { at, token }));
        cond.notify_one();
    }

    fn stop(&self) {
        let (lock, cond) = &*self.state;
        lock.lock().unwrap().stop = true;
        cond.notify_all();
        if let Some(h) = self.handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

fn registry_of(cfg: &ServerConfig) -> &Registry {
    match &cfg.registry {
        Some(r) => r,
        None => Registry::global(),
    }
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    cfg: ServerConfig,
    queue: JobQueue<Job>,
    cache: Mutex<ResultCache>,
    stats: ServeStats,
    shutdown: AtomicBool,
    reaper: Reaper,
    local_addr: SocketAddr,
}

impl Shared {
    /// Where this daemon publishes metrics: the configured private
    /// registry, else the process-global one.
    fn registry(&self) -> &Registry {
        registry_of(&self.cfg)
    }

    /// Record a request stage duration into the registry histogram
    /// family (the `assemble`/`queue`/`simulate` stages go through the
    /// [`ServeStats`] handles instead; see [`crate::stats`]).
    fn record_stage(&self, stage: &Stage) {
        self.registry()
            .histogram(
                "hsimd_stage_duration_us",
                STAGE_HELP,
                &[("stage", stage.name)],
            )
            .record(stage.dur_us);
    }

    /// Count an error envelope by kind and log it.
    fn note_error(&self, corr_id: &str, err: &ProtoError) {
        self.registry()
            .counter("hsimd_errors_total", ERRORS_HELP, &[("kind", err.kind)])
            .inc();
        event(Level::Warn, LOG, "request failed")
            .str("corr_id", corr_id)
            .str("kind", err.kind)
            .str("detail", &err.message)
            .emit();
    }

    /// Count a cache operation and log it at debug level.
    fn note_cache(&self, corr_id: &str, result: &'static str) {
        self.registry()
            .counter(
                "hsimd_cache_ops_total",
                CACHE_OPS_HELP,
                &[("result", result)],
            )
            .inc();
        event(Level::Debug, "hsimd::cache", result)
            .str("corr_id", corr_id)
            .emit();
    }
}

/// A running daemon.  Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send the `shutdown` op) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept loop, and return.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let cfg = ServerConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        // The worker pool is this process's job fan-out: per-request
        // `sim_threads` asks are budgeted against it so concurrent runs
        // never oversubscribe the host.
        hopper_sim::threads::set_sweep_jobs(cfg.workers);
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let stats = ServeStats::registered(registry_of(&cfg));
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_cap),
            cache: Mutex::new(ResultCache::new(cfg.cache_cap)),
            stats,
            shutdown: AtomicBool::new(false),
            reaper: Reaper::spawn(),
            local_addr,
            cfg,
        });
        event(Level::Info, LOG, "listening")
            .str("addr", &local_addr.to_string())
            .u64("workers", shared.cfg.workers as u64)
            .u64("queue_cap", shared.cfg.queue_cap as u64)
            .u64("cache_cap", shared.cfg.cache_cap as u64)
            .emit();
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let sh = shared.clone();
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        let sh = shared.clone();
        let accept = std::thread::spawn(move || accept_loop(&sh, listener));
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (the actual port when configured with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Initiate graceful shutdown: stop accepting work, drain the
    /// queue.  Idempotent; returns without waiting (use [`Server::join`]).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Wait until every thread has exited (accept loop, connection
    /// handlers, workers, reaper).  Only returns after a shutdown was
    /// initiated by [`Server::shutdown`] or a client's `shutdown` op.
    pub fn join(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.reaper.stop();
    }
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    event(Level::Info, LOG, "draining").emit();
    shared.queue.close();
    // Wake the blocked accept() so the loop observes the flag.
    let _ = TcpStream::connect(shared.local_addr);
}

/// Hand `stream` to a handler thread, then drop the handles of handlers
/// that have already returned: a long-lived daemon keeps one handle per
/// live connection, not one per connection ever accepted.  The reap
/// comes second so the waiting client's handler starts first.
fn spawn_conn(conns: &mut Vec<JoinHandle<()>>, shared: &Arc<Shared>, stream: TcpStream) {
    let sh = shared.clone();
    conns.push(std::thread::spawn(move || handle_conn(&sh, stream)));
    conns.retain(|h| !h.is_finished());
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => spawn_conn(&mut conns, shared, s),
            Err(_) => {
                // Transient accept errors (e.g. aborted handshake).
                continue;
            }
        }
    }
    drop(listener);
    for c in conns {
        let _ = c.join();
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    // The line buffer persists across timed-out reads: a partial line
    // accumulated before a timeout is completed by later reads.
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => break, // EOF
            Ok(_) => {
                let at_eof = !buf.ends_with('\n');
                let line = buf.trim();
                if line.starts_with("GET ") {
                    // The HTTP scrape shim: one request, then close.
                    handle_http(shared, &mut reader, &mut out, line);
                    break;
                }
                if !line.is_empty() {
                    // Accept time anchors the request timeline; the
                    // correlation id ties the envelope to the logs.
                    let accepted = Instant::now();
                    let corr_id = corr::mint();
                    let (resp, shutdown) = handle_line(shared, line, &corr_id, accepted);
                    if writeln!(out, "{resp}").and_then(|_| out.flush()).is_err() {
                        break;
                    }
                    if shutdown {
                        initiate_shutdown(shared);
                        break;
                    }
                }
                buf.clear();
                if at_eof {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Serve one HTTP request on the NDJSON listener: `GET /metrics`
/// answers with the Prometheus text exposition so a scraper needs no
/// second port; everything else is a 404.  Always `Connection: close`.
fn handle_http(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    request_line: &str,
) {
    // Drain the request headers up to the blank line (tolerating the
    // poll-timeout reads the listener uses everywhere).
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim().is_empty() => break,
            Ok(_) => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = match path {
        "/metrics" => ("200 OK", render_metrics(shared)),
        _ => ("404 Not Found", "not found (try /metrics)\n".to_string()),
    };
    event(Level::Debug, LOG, "http scrape")
        .str("path", path)
        .str("status", status)
        .emit();
    let _ = write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = out.flush();
}

/// Render the Prometheus exposition, refreshing the scrape-time gauges
/// first.  Gauges are *set* (not
/// incremented) on every scrape, so two scrapes of an idle daemon are
/// byte-identical.
fn render_metrics(shared: &Shared) -> String {
    let reg = shared.registry();
    reg.gauge("hsimd_queue_depth", "Jobs currently queued.", &[])
        .set(shared.queue.depth() as i64);
    reg.gauge("hsimd_queue_capacity", "Job-queue capacity.", &[])
        .set(shared.queue.capacity() as i64);
    let cache = shared.cache.lock().unwrap().counters();
    reg.gauge("hsimd_cache_entries", "Result-cache entries.", &[])
        .set(cache.entries as i64);
    reg.gauge(
        "hsimd_cache_capacity",
        "Result-cache capacity in entries.",
        &[],
    )
    .set(cache.capacity as i64);
    reg.gauge("hsimd_workers", "Simulation worker threads.", &[])
        .set(shared.cfg.workers as i64);
    reg.render()
}

/// Handle one request line; returns the response line and whether the
/// caller should initiate shutdown after writing it.
fn handle_line(
    shared: &Arc<Shared>,
    line: &str,
    corr_id: &str,
    accepted: Instant,
) -> (String, bool) {
    let mut tl = Timeline::anchored(accepted);
    let parse_start = Instant::now();
    let parsed = parse_request(line);
    let parse_stage = tl.record("parse", parse_start);
    // The observer doesn't perturb the observed: a `metrics` request
    // records no stage sample and is not self-counted, so repeated
    // idle scrapes stay byte-identical.
    let op = parsed.as_ref().map(|r| r.op()).unwrap_or("invalid");
    if op != "metrics" {
        shared.record_stage(&parse_stage);
        shared
            .registry()
            .counter("hsimd_requests_total", REQUESTS_HELP, &[("op", op)])
            .inc();
    }
    match parsed {
        Err(e) => {
            shared.note_error(corr_id, &e);
            (error_response(&None, corr_id, &e, None), false)
        }
        Ok(Request::Ping { id }) => (
            ok_response(&id, corr_id, None, Value::Str("pong".into()), None),
            false,
        ),
        Ok(Request::Stats { id }) => {
            let cache = shared.cache.lock().unwrap().counters();
            let snap = shared.stats.snapshot(
                cache,
                shared.queue.depth(),
                shared.queue.capacity(),
                shared.cfg.workers,
            );
            (ok_response(&id, corr_id, None, snap, None), false)
        }
        Ok(Request::Metrics { id }) => (
            ok_response(&id, corr_id, None, Value::Str(render_metrics(shared)), None),
            false,
        ),
        Ok(Request::Shutdown { id }) => (
            ok_response(&id, corr_id, None, Value::Str("draining".into()), None),
            true,
        ),
        Ok(Request::Run(spec)) => (handle_run(shared, *spec, corr_id, &mut tl), false),
    }
}

fn handle_run(shared: &Arc<Shared>, spec: RunSpec, corr_id: &str, tl: &mut Timeline) -> String {
    let id = spec.id.clone();
    let want_timings = spec.timings;
    let device = spec.device.clone();
    shared.stats.requests_total.inc();
    let t0 = Instant::now();
    let line = match process_run(shared, spec, t0, corr_id, tl) {
        Ok((digest, payload)) => {
            shared.stats.requests_ok.inc();
            event(Level::Info, LOG, "run ok")
                .str("corr_id", corr_id)
                .str("device", &device)
                .str("digest", &digest)
                .u64("dur_us", t0.elapsed().as_micros() as u64)
                .emit();
            let timings = want_timings.then(|| timings_to_json(tl.stages()));
            ok_response(&id, corr_id, Some(&digest), payload, timings)
        }
        Err(e) => {
            shared.stats.requests_error.inc();
            shared.note_error(corr_id, &e);
            let timings = want_timings.then(|| timings_to_json(tl.stages()));
            error_response(&id, corr_id, &e, timings)
        }
    };
    shared
        .stats
        .lat_total
        .record(t0.elapsed().as_micros() as u64);
    line
}

/// Validate, assemble, probe the cache, queue, and wait for the result.
fn process_run(
    shared: &Arc<Shared>,
    spec: RunSpec,
    t0: Instant,
    corr_id: &str,
    tl: &mut Timeline,
) -> Result<(String, Value), ProtoError> {
    let device = device_config(&spec.device).ok_or_else(|| {
        ProtoError::new(
            "unknown_device",
            format!("unknown device `{}` (h800|a100|rtx4090)", spec.device),
        )
    })?;
    let asm_start = Instant::now();
    if spec.report == ReportKind::Infer {
        // Serving jobs carry a scenario, not a kernel: the "assemble"
        // stage is scenario validation, and the cache digest covers the
        // canonical scenario bytes (defaults resolved, keys sorted) so
        // spelling variants share an entry.
        let scenario = spec.infer.clone().unwrap_or(Value::Object(Vec::new()));
        let scn = hopper_infer::InferScenario::parse(&scenario).map_err(|e| {
            ProtoError::new("bad_request", format!("invalid `infer` scenario: {e}"))
        })?;
        let digest = hopper_replay::bytes_digest(scn.canonical_json().as_bytes());
        tl.record("assemble", asm_start);
        shared
            .stats
            .lat_assemble
            .record(asm_start.elapsed().as_micros() as u64);
        // Kernel-shaped key fields are zeroed: the scenario digest alone
        // identifies the experiment on a device.
        let key = CacheKey {
            digest,
            device: spec.device.clone(),
            grid: 0,
            block: 0,
            cluster: 0,
            params: Vec::new(),
            report: spec.report.name(),
            trace_digest: 0,
        };
        return finish_run(
            shared,
            spec,
            device,
            Work::Infer(scn),
            format!("{digest:016x}"),
            key,
            t0,
            corr_id,
            tl,
        );
    }
    let name = spec.name.clone().unwrap_or_else(|| "kernel".to_string());
    let (kernel, replay, trace_digest) = match &spec.trace {
        None => {
            let kernel = asm::assemble_named(&spec.kernel, &name)
                .map_err(|e| ProtoError::new("asm_error", e.to_string()))?;
            (kernel, None, 0)
        }
        Some(text) => {
            // A trace embeds its own kernel (digest-pinned) and launch
            // geometry; the request's `kernel` field is ignored, and its
            // geometry must agree with the header so the cache key and
            // the reply describe the run that actually happens.
            let trace = Trace::parse(text.as_bytes())
                .map_err(|e| ProtoError::new("trace_error", e.to_string()))?;
            let kernel = trace
                .validate()
                .map_err(|e| ProtoError::new("trace_error", e.to_string()))?;
            let h = &trace.header;
            if h.device != spec.device
                || h.grid != spec.grid
                || h.block != spec.block
                || h.cluster != spec.cluster
                || h.params != spec.params
            {
                return Err(ProtoError::new(
                    "trace_error",
                    format!(
                        "request disagrees with the trace header: request is \
                         {} grid {} block {} cluster {} params {:?}, trace is \
                         {} grid {} block {} cluster {} params {:?}",
                        spec.device,
                        spec.grid,
                        spec.block,
                        spec.cluster,
                        spec.params,
                        h.device,
                        h.grid,
                        h.block,
                        h.cluster,
                        h.params
                    ),
                ));
            }
            let digest = hopper_replay::bytes_digest(text.as_bytes());
            (kernel, Some(trace.source), digest)
        }
    };
    tl.record("assemble", asm_start);
    shared
        .stats
        .lat_assemble
        .record(asm_start.elapsed().as_micros() as u64);
    let digest_hex = kernel.digest_hex();
    let key = CacheKey {
        digest: kernel.digest(),
        device: spec.device.clone(),
        grid: spec.grid,
        block: spec.block,
        cluster: spec.cluster,
        params: spec.params.clone(),
        report: spec.report.name(),
        trace_digest,
    };
    finish_run(
        shared,
        spec,
        device,
        Work::Kernel { kernel, replay },
        digest_hex,
        key,
        t0,
        corr_id,
        tl,
    )
}

/// Shared tail of [`process_run`]: probe the cache, queue the job, wait.
#[allow(clippy::too_many_arguments)]
fn finish_run(
    shared: &Arc<Shared>,
    spec: RunSpec,
    device: DeviceConfig,
    work: Work,
    digest_hex: String,
    key: CacheKey,
    t0: Instant,
    corr_id: &str,
    tl: &mut Timeline,
) -> Result<(String, Value), ProtoError> {
    let cache_start = Instant::now();
    if spec.no_cache {
        shared.note_cache(corr_id, "bypass");
    } else {
        let hit = shared.cache.lock().unwrap().get(&key);
        let cache_stage = tl.record("cache", cache_start);
        shared.record_stage(&cache_stage);
        match hit {
            Some(payload) => {
                shared.note_cache(corr_id, "hit");
                shared
                    .stats
                    .lat_cache_hit
                    .record(t0.elapsed().as_micros() as u64);
                return Ok((digest_hex, payload));
            }
            None => shared.note_cache(corr_id, "miss"),
        }
    }
    let cache_key = if spec.no_cache { None } else { Some(key) };
    let (reply, result) = mpsc::channel();
    let pushed = shared.queue.push(Job {
        spec,
        device,
        work,
        cache_key,
        corr_id: corr_id.to_string(),
        accepted_at: tl.anchor(),
        enqueued_at: Instant::now(),
        reply,
    });
    match pushed {
        Ok(_) => {}
        Err(PushError::Full(f)) => {
            shared.stats.queue_rejected.inc();
            return Err(ProtoError::new(
                "queue_full",
                format!(
                    "job queue full ({}/{} jobs); retry later",
                    f.depth, f.capacity
                ),
            ));
        }
        Err(PushError::Closed(_)) => {
            return Err(ProtoError::new(
                "shutting_down",
                "daemon is draining; no new jobs accepted",
            ));
        }
    }
    let (payload, worker_stages) = result
        .recv()
        .map_err(|_| ProtoError::new("internal", "worker dropped the job reply channel"))?;
    for stage in worker_stages {
        tl.push(stage);
    }
    Ok((digest_hex, payload?))
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        // Worker-side stages share the request's accept-time anchor, so
        // the assembled timeline reads as one contiguous story.
        let mut tl = Timeline::anchored(job.accepted_at);
        tl.record("queue", job.enqueued_at);
        shared
            .stats
            .lat_queue_wait
            .record(job.enqueued_at.elapsed().as_micros() as u64);
        let busy = Instant::now();
        let reply = job.reply.clone();
        let cache_key = job.cache_key.clone();
        let corr_id = job.corr_id.clone();
        let outcome = run_job(shared, job, &mut tl);
        shared
            .stats
            .worker_busy_us
            .add(busy.elapsed().as_micros() as u64);
        if let (Ok(payload), Some(key)) = (&outcome, cache_key) {
            shared.cache.lock().unwrap().put(key, payload.clone());
            shared.note_cache(&corr_id, "store");
        }
        // A send error just means the client hung up; drop the result.
        let _ = reply.send((outcome, tl.stages().to_vec()));
    }
}

/// Feeds the engine's host-side run phases into the registry.
struct RegistryPhaseSink {
    setup: Arc<Histogram>,
    waves: Arc<Histogram>,
    finalize: Arc<Histogram>,
}

impl RegistryPhaseSink {
    fn new(reg: &Registry) -> Self {
        let h = |phase: &str| {
            reg.histogram(
                "hsim_phase_duration_us",
                "Engine run-phase duration, microseconds.",
                &[("phase", phase)],
            )
        };
        RegistryPhaseSink {
            setup: h(RunPhase::Setup.name()),
            waves: h(RunPhase::Waves.name()),
            finalize: h(RunPhase::Finalize.name()),
        }
    }
}

impl PhaseSink for RegistryPhaseSink {
    fn phase(&mut self, phase: RunPhase, dur: Duration) {
        let h = match phase {
            RunPhase::Setup => &self.setup,
            RunPhase::Waves => &self.waves,
            RunPhase::Finalize => &self.finalize,
        };
        h.record(dur.as_micros() as u64);
    }
}

/// Raw engine output, kept unrendered so the render stage can be timed
/// separately from the simulation itself.
enum Rendered {
    Stats(Box<hopper_sim::RunStats>),
    Profile(Box<hopper_prof::KernelReport>),
}

/// Simulate one job on a fresh [`Gpu`] (or through the serving
/// simulator) under its [`RunBudget`].
fn run_job(shared: &Arc<Shared>, job: Job, tl: &mut Timeline) -> Result<Value, ProtoError> {
    let spec = &job.spec;
    let max_cycles = spec.max_cycles.or(shared.cfg.default_max_cycles);
    let deadline_ms = spec.deadline_ms.or(shared.cfg.default_deadline_ms);
    let mut budget = RunBudget {
        max_cycles,
        cancel: None,
    };
    if let Some(ms) = deadline_ms {
        let token = Arc::new(AtomicBool::new(false));
        shared
            .reaper
            .register(Instant::now() + Duration::from_millis(ms), token.clone());
        budget.cancel = Some(token);
    }
    let (kernel, replay) = match &job.work {
        Work::Infer(scn) => return run_infer_job(shared, &job, scn, &budget, deadline_ms, tl),
        Work::Kernel { kernel, replay } => (kernel, replay),
    };
    let launch = Launch {
        grid: spec.grid,
        block: spec.block,
        cluster: spec.cluster,
        params: spec.params.clone(),
    };
    // Per-request `sim_threads` overrides the daemon default; both go
    // through the process thread budget (the daemon counts its worker
    // pool as the job fan-out), and neither touches the cache key —
    // results are bitwise identical at any worker count.
    let mut gpu = match spec.sim_threads {
        Some(t) => Gpu::with_options(
            job.device.clone(),
            hopper_sim::SimOptions {
                sim_threads: hopper_sim::threads::resolve_sim_threads(t),
                ..hopper_sim::SimOptions::default()
            },
        ),
        None => Gpu::new(job.device.clone()),
    };
    let reg = shared.registry();
    reg.counter(
        "hsimd_runs_total",
        "Simulation runs started, by device.",
        &[("device", &spec.device)],
    )
    .inc();
    gpu.set_phase_sink(Some(Box::new(RegistryPhaseSink::new(reg))));
    let sim_start = Instant::now();
    // Trace streams were validated against the kernel at request time, so
    // the engine can skip its prevalidation pass.
    let run = Run {
        sink: None,
        budget,
        replay: replay.as_ref().map(|source| Replay {
            source,
            prevalidated: true,
        }),
    };
    let raw = match spec.report {
        ReportKind::Stats => gpu
            .run(kernel, &launch, run)
            .map(|s| Rendered::Stats(Box::new(s))),
        ReportKind::Profile => hopper_prof::profile_run(&mut gpu, kernel, &launch, run)
            .map(|r| Rendered::Profile(Box::new(r))),
        // Infer jobs returned early above.
        ReportKind::Infer => unreachable!("infer dispatched before kernel launch"),
    };
    tl.record("simulate", sim_start);
    shared
        .stats
        .lat_sim
        .record(sim_start.elapsed().as_micros() as u64);
    let out = raw.map(|r| {
        let render_start = Instant::now();
        let payload = match r {
            Rendered::Stats(s) => run_stats_to_json(&s),
            Rendered::Profile(p) => p.to_json(),
        };
        let render_stage = tl.record("render", render_start);
        shared.record_stage(&render_stage);
        payload
    });
    event(Level::Debug, "hsimd::worker", "job done")
        .str("corr_id", &job.corr_id)
        .str("device", &spec.device)
        .str("report", spec.report.name())
        .bool("ok", out.is_ok())
        .u64("sim_us", sim_start.elapsed().as_micros() as u64)
        .emit();
    out.map_err(|e| match e {
        LaunchError::DeadlineExceeded {
            budget_cycles,
            cycles_run,
        } => {
            shared.stats.deadline_exceeded.inc();
            ProtoError::new(
                "deadline_exceeded",
                format!(
                    "cycle budget {budget_cycles} exhausted after {cycles_run} simulated cycles"
                ),
            )
        }
        LaunchError::Cancelled { cycles_run } => {
            shared.stats.deadline_exceeded.inc();
            ProtoError::new(
                "deadline_exceeded",
                format!(
                    "wall deadline of {} ms exceeded after {cycles_run} simulated cycles",
                    deadline_ms.unwrap_or(0)
                ),
            )
        }
        LaunchError::Replay(s) => {
            ProtoError::new("trace_error", format!("replay trace mismatch: {s}"))
        }
        other => ProtoError::new("launch_error", other.to_string()),
    })
}

/// Run a serving scenario through [`hopper_infer`].  Reuses the kernel
/// path's [`RunBudget`]: `max_cycles` bounds scheduler *iterations* and
/// `deadline_ms` cancels through the same reaper token, so both abort
/// paths surface as `deadline_exceeded` exactly like kernel jobs.
fn run_infer_job(
    shared: &Arc<Shared>,
    job: &Job,
    scn: &hopper_infer::InferScenario,
    budget: &RunBudget,
    deadline_ms: Option<u64>,
    tl: &mut Timeline,
) -> Result<Value, ProtoError> {
    let spec = &job.spec;
    let infer_budget = hopper_infer::InferBudget {
        max_iterations: budget.max_cycles,
        cancel: budget.cancel.clone(),
    };
    let reg = shared.registry();
    reg.counter(
        "hsimd_runs_total",
        "Simulation runs started, by device.",
        &[("device", &spec.device)],
    )
    .inc();
    let metrics = hopper_infer::InferMetrics::register(reg);
    let sim_start = Instant::now();
    let raw = hopper_infer::run(scn, &job.device, &infer_budget, Some(&metrics));
    tl.record("simulate", sim_start);
    shared
        .stats
        .lat_sim
        .record(sim_start.elapsed().as_micros() as u64);
    let out = raw.map(|report| {
        let render_start = Instant::now();
        let payload = report.to_json();
        let render_stage = tl.record("render", render_start);
        shared.record_stage(&render_stage);
        payload
    });
    event(Level::Debug, "hsimd::worker", "job done")
        .str("corr_id", &job.corr_id)
        .str("device", &spec.device)
        .str("report", spec.report.name())
        .bool("ok", out.is_ok())
        .u64("sim_us", sim_start.elapsed().as_micros() as u64)
        .emit();
    out.map_err(|e| match e {
        hopper_infer::InferError::IterationsExceeded { budget } => {
            shared.stats.deadline_exceeded.inc();
            ProtoError::new(
                "deadline_exceeded",
                format!("iteration budget {budget} exhausted before the workload drained"),
            )
        }
        hopper_infer::InferError::Cancelled { iterations } => {
            shared.stats.deadline_exceeded.inc();
            ProtoError::new(
                "deadline_exceeded",
                format!(
                    "wall deadline of {} ms exceeded after {iterations} scheduler iterations",
                    deadline_ms.unwrap_or(0)
                ),
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_connection_handles_are_dropped_on_accept() {
        // A real daemon supplies the shared state; the test owns the
        // listener so it can watch the handle list `accept_loop` keeps.
        let server = Server::start(ServerConfig::default()).expect("bind ephemeral port");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap();
        let mut conns = Vec::new();
        let mut high_water = 0;
        for _ in 0..2000 {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let (stream, _) = listener.accept().unwrap();
            spawn_conn(&mut conns, &server.shared, stream);
            let mut resp = String::new();
            BufReader::new(&client).read_line(&mut resp).unwrap();
            assert!(resp.contains("\"pong\""), "{resp}");
            drop(client);
            high_water = high_water.max(conns.len());
        }
        // A handler may still be returning when the next connection
        // lands, so a few handles overlap; 2 000 would mean none is reaped.
        assert!(high_water < 64, "{high_water} handles retained");
        for c in conns {
            c.join().unwrap();
        }
        server.shutdown();
        server.join();
    }
}
