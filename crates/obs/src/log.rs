//! Leveled structured logging: one JSON object per line on stderr.
//!
//! Schema (keys always sorted): every line carries `level`, `msg`,
//! `target` and `ts_us` (wall-clock microseconds since the Unix epoch),
//! plus any event-specific fields — request-scoped lines carry
//! `corr_id`, the correlation id echoed in the matching response
//! envelope.  The line is a [`obj`] rendered by `Value`'s compact
//! `Display`, the same writer as every other JSON document.
//!
//! Filtering follows the `HOPPER_LOG` environment variable (read once by
//! [`init_from_env`], typically from `main`): a default level and
//! optional per-target overrides, e.g. `info`, `debug`,
//! `warn,hsimd=debug`, or `off`.  The library default is `info`.
//!
//! ```
//! use hopper_obs::log::{self, Level};
//!
//! let cap = log::Capture::start();
//! log::event(Level::Warn, "doctest-target", "queue full")
//!     .u64("depth", 16)
//!     .str("corr_id", "1a2b-3")
//!     .emit();
//! let lines = cap.lines();
//! assert!(lines.iter().any(|l| l.contains(r#""depth":16"#)));
//! ```

use crate::json::obj;
use serde::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained tracing.
    Trace = 0,
    /// Per-request diagnostics.
    Debug = 1,
    /// Lifecycle events.
    Info = 2,
    /// Degraded but functioning.
    Warn = 3,
    /// Failures.
    Error = 4,
}

/// Sentinel "filter everything" level (`HOPPER_LOG=off`).
const OFF: usize = 5;

impl Level {
    /// Lower-case name used in log lines and filter specs.
    pub fn name(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn parse(s: &str) -> Option<usize> {
        Some(match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Level::Trace as usize,
            "debug" => Level::Debug as usize,
            "info" => Level::Info as usize,
            "warn" | "warning" => Level::Warn as usize,
            "error" => Level::Error as usize,
            "off" | "none" => OFF,
            _ => return None,
        })
    }
}

static DEFAULT_LEVEL: AtomicUsize = AtomicUsize::new(Level::Info as usize);

fn overrides() -> &'static Mutex<Vec<(String, usize)>> {
    static OVERRIDES: Mutex<Vec<(String, usize)>> = Mutex::new(Vec::new());
    &OVERRIDES
}

/// Apply a filter spec: a comma-separated list of `level` or
/// `target=level` tokens (`warn,hsimd=debug`).  Returns an error naming
/// the first malformed token; valid tokens before it are applied.
pub fn set_filter(spec: &str) -> Result<(), String> {
    let mut ovr = Vec::new();
    let mut default = None;
    for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
        match token.split_once('=') {
            None => {
                default =
                    Some(Level::parse(token).ok_or_else(|| format!("unknown level `{token}`"))?);
            }
            Some((target, level)) => {
                let l = Level::parse(level).ok_or_else(|| format!("unknown level `{level}`"))?;
                ovr.push((target.trim().to_string(), l));
            }
        }
    }
    if let Some(d) = default {
        DEFAULT_LEVEL.store(d, Ordering::Relaxed);
    }
    *overrides().lock().unwrap() = ovr;
    Ok(())
}

/// Read `HOPPER_LOG` and apply it (malformed specs are reported on
/// stderr and otherwise ignored).  Call once from `main`.
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("HOPPER_LOG") {
        if let Err(e) = set_filter(&spec) {
            eprintln!("HOPPER_LOG: {e}");
        }
    }
}

/// Would an event at `level` for `target` currently be emitted?
pub fn enabled(level: Level, target: &str) -> bool {
    let threshold = overrides()
        .lock()
        .unwrap()
        .iter()
        .find(|(t, _)| t == target)
        .map(|&(_, l)| l)
        .unwrap_or_else(|| DEFAULT_LEVEL.load(Ordering::Relaxed));
    (level as usize) >= threshold
}

fn captures() -> &'static Mutex<Vec<Weak<Mutex<Vec<String>>>>> {
    static CAPTURES: Mutex<Vec<Weak<Mutex<Vec<String>>>>> = Mutex::new(Vec::new());
    &CAPTURES
}

/// A test sink: while at least one `Capture` is alive, emitted lines are
/// appended to every live capture buffer instead of stderr.  Captures
/// see *all* enabled events process-wide, so concurrent tests should
/// filter by their own correlation ids.
#[derive(Debug)]
pub struct Capture(Arc<Mutex<Vec<String>>>);

impl Capture {
    /// Start capturing.
    pub fn start() -> Capture {
        let buf = Arc::new(Mutex::new(Vec::new()));
        captures().lock().unwrap().push(Arc::downgrade(&buf));
        Capture(buf)
    }

    /// Lines captured so far.
    pub fn lines(&self) -> Vec<String> {
        self.0.lock().unwrap().clone()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        captures().lock().unwrap().retain(|w| w.strong_count() > 0);
    }
}

/// A structured event under construction.  Build with [`event`], attach
/// fields, then [`Event::emit`].  Disabled events skip all work.
#[derive(Debug)]
pub struct Event {
    on: bool,
    level: Level,
    target: String,
    msg: String,
    fields: Vec<(String, Value)>,
}

/// Start building an event.
pub fn event(level: Level, target: &str, msg: &str) -> Event {
    let on = enabled(level, target);
    Event {
        on,
        level,
        target: if on {
            target.to_string()
        } else {
            String::new()
        },
        msg: if on { msg.to_string() } else { String::new() },
        fields: Vec::new(),
    }
}

impl Event {
    fn push(mut self, key: &str, value: impl FnOnce() -> Value) -> Event {
        if self.on {
            self.fields.push((key.to_string(), value()));
        }
        self
    }

    /// Attach a string field.
    pub fn str(self, key: &str, value: &str) -> Event {
        self.push(key, || Value::Str(value.to_string()))
    }

    /// Attach an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Event {
        self.push(key, || Value::UInt(value))
    }

    /// Attach a signed integer field.
    pub fn i64(self, key: &str, value: i64) -> Event {
        self.push(key, || Value::Int(value))
    }

    /// Attach a float field (non-finite renders as `null`, integral as
    /// `1.0`).
    pub fn f64(self, key: &str, value: f64) -> Event {
        self.push(key, || Value::Float(value))
    }

    /// Attach a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Event {
        self.push(key, || Value::Bool(value))
    }

    /// Render and write the line (stderr, or live capture buffers).
    pub fn emit(mut self) {
        if !self.on {
            return;
        }
        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        self.fields.extend([
            ("level".into(), Value::Str(self.level.name().into())),
            ("msg".into(), Value::Str(self.msg)),
            ("target".into(), Value::Str(self.target)),
            ("ts_us".into(), Value::UInt(ts_us)),
        ]);
        let line = obj(self.fields).to_string();
        let sinks = captures().lock().unwrap();
        let mut live = false;
        for w in sinks.iter() {
            if let Some(buf) = w.upgrade() {
                buf.lock().unwrap().push(line.clone());
                live = true;
            }
        }
        drop(sinks);
        if !live {
            eprintln!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Filter state is process-global; exercise it in one test to avoid
    // cross-test interference.
    #[test]
    fn filter_and_capture() {
        set_filter("warn,noisy=trace").unwrap();
        assert!(!enabled(Level::Info, "hsimd"));
        assert!(enabled(Level::Warn, "hsimd"));
        assert!(enabled(Level::Trace, "noisy"));
        assert!(set_filter("nope").is_err());
        assert!(set_filter("t=nope").is_err());
        set_filter("off").unwrap();
        assert!(!enabled(Level::Error, "hsimd"));

        set_filter("debug").unwrap();
        let cap = Capture::start();
        event(Level::Debug, "test", "hello \"world\"")
            .str("corr_id", "abc-1")
            .u64("n", 3)
            .f64("ratio", 0.5)
            .bool("cached", true)
            .emit();
        event(Level::Trace, "test", "filtered out").emit();
        let lines = cap.lines();
        assert_eq!(lines.len(), 1);
        let l = &lines[0];
        assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        assert!(l.contains(r#""corr_id":"abc-1""#), "{l}");
        assert!(l.contains(r#""msg":"hello \"world\"""#), "{l}");
        assert!(l.contains(r#""level":"debug""#));
        assert!(l.contains(r#""n":3"#));
        assert!(l.contains(r#""cached":true"#));
        assert!(l.contains(r#""ts_us":"#));
        // Keys are sorted.
        let keys: Vec<&str> = l
            .trim_matches(['{', '}'])
            .split(',')
            .filter_map(|f| f.split(':').next())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        set_filter("info").unwrap();
    }
}
