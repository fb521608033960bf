//! The benchmark's own span recorder.
//!
//! A traced run (`--trace 1`) wraps each call into a layer's public
//! functions in a span — name, start, end, the span that caused it, and
//! the shot it served — recorded from this crate's files, never from
//! inside the program under test. Spans stay in memory and are written
//! once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Id of a recorded span; [`ROOT`] for "no parent".
pub type SpanId = u32;

/// The parent of top-level spans.
pub const ROOT: SpanId = u32::MAX;

/// `shot` of a span that serves no single shot.
pub const NO_SHOT: u64 = u64::MAX;

/// Spans kept per run. Per-shot spans of a long slice stop being
/// recorded past this (the count of dropped spans is written out), so a
/// span file stays a few MB.
const CAPACITY: usize = 100_000;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    shot: u64,
}

/// In-memory span store of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty store; span times are relative to this call.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id ([`ROOT`] once the
    /// store is full, so children of a dropped span stay well-formed).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        shot: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            shot,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span that ends at [`Tracer::close`]: for phases whose
    /// children are recorded while they run.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, NO_SHOT, now, now)
    }

    /// Ends a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, NO_SHOT, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as JSON lines: a header object, then one object
    /// per span (`id` is the line's position; `parent`/`shot` are `null`
    /// when absent).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\"dropped\":{},\"time_unit\":\"ns\"}}",
            self.spans.len(),
            self.dropped
        )?;
        let opt = |absent: bool, v: u64| {
            if absent {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"shot\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent == ROOT, s.parent as u64),
                opt(s.shot == NO_SHOT, s.shot),
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_round_trip_through_the_file() {
        let mut t = Tracer::new();
        let phase = t.open("phase", ROOT);
        let a = Instant::now();
        let child = t.record("realtime.decode", phase, 42, a, Instant::now());
        let ((), secs) = t.time("probe", phase, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(phase);
        assert!(secs >= 0.002);
        assert_eq!((phase, child, t.len()), (0, 1, 3));
        let path = std::env::temp_dir().join(format!("pb-trace-{}.jsonl", std::process::id()));
        t.write(&path, "w", 9).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<json::Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("spans").unwrap().as_f64(), Some(3.0));
        assert_eq!(lines[1].get("parent"), Some(&json::Value::Null));
        assert_eq!(lines[2].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[2].get("shot").unwrap().as_f64(), Some(42.0));
        let (start, end) = (
            lines[1].get("start").unwrap().as_f64().unwrap(),
            lines[1].get("end").unwrap().as_f64().unwrap(),
        );
        // The phase span covers its children.
        assert!(start <= lines[2].get("start").unwrap().as_f64().unwrap());
        assert!(end >= lines[3].get("end").unwrap().as_f64().unwrap());
    }

    #[test]
    fn a_full_store_drops_instead_of_growing() {
        let mut t = Tracer::new();
        let now = Instant::now();
        for i in 0..CAPACITY + 5 {
            t.record("s", ROOT, i as u64, now, now);
        }
        assert_eq!(t.len(), CAPACITY);
        assert_eq!(t.dropped, 5);
        assert_eq!(t.record("s", ROOT, 0, now, now), ROOT);
    }
}
