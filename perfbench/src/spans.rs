//! In-memory span recorder for traced runs.
//!
//! A span is one call into a layer: its name, the layer it belongs to
//! (empty for structural spans such as "one experiment", which only
//! group their children), start and end, the span that caused it and
//! the run it serves. Spans are kept in memory and written once, at
//! exit, as JSON lines that `run.py` merges with its own spans into a
//! Chrome trace-event file and a per-layer self-time summary.
//!
//! Timestamps are wall-clock microseconds since the Unix epoch, taken
//! as one wall-clock reading at start-up plus a monotonic offset, so
//! spans from this process and from the orchestrating script line up
//! on one time axis.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

struct Span {
    id: u64,
    parent: String,
    name: String,
    layer: &'static str,
    run: String,
    start_us: f64,
    end_us: f64,
    tid: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    enabled: bool,
    pid: u32,
    epoch_us: f64,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64() * 1e6)
            .unwrap_or(0.0);
        Tracer {
            enabled,
            pid: std::process::id(),
            epoch_us,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the Unix epoch, on the spans' clock.
    pub fn now_us(&self) -> f64 {
        self.epoch_us + self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span and returns its result. `f` receives the
    /// new span's id, to pass as the parent of nested spans.
    pub fn span<R>(
        &self,
        parent: &str,
        name: &str,
        layer: &'static str,
        run: &str,
        f: impl FnOnce(&str) -> R,
    ) -> R {
        if !self.enabled {
            return f("");
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let sid = format!("{}.{id}", self.pid);
        let start_us = self.now_us();
        let r = f(&sid);
        let end_us = self.now_us();
        let span = Span {
            id,
            parent: parent.to_owned(),
            name: name.to_owned(),
            layer,
            run: run.to_owned(),
            start_us,
            end_us,
            tid: TID.with(|t| *t),
        };
        self.spans.lock().expect("a span holder panicked").push(span);
        r
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("a span holder panicked");
        let mut out = String::new();
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":\"{pid}.{}\",\"parent\":\"{}\",\"name\":\"{}\",\"layer\":\"{}\",\
                 \"run\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"pid\":{pid},\"tid\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.layer,
                s.run,
                s.start_us,
                s.end_us,
                s.tid,
                pid = self.pid,
            );
        }
        std::fs::write(path, out)
    }
}
