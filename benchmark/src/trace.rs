//! The benchmark's span recorder.
//!
//! Spans are recorded only from the benchmark's own files, around the
//! calls it makes into each layer (choosing-metrics §4); no file outside
//! `benchmark/` gains a span. Every span carries a name, start, end, the
//! span that caused it and the query it belongs to. They are kept in
//! memory and written out as a Chrome trace when the run ends.
//!
//! The traced passes run one query at a time, so "the query in flight" is
//! one process-wide value: a wrapper deep inside the program (the model
//! on the scheduler's dispatcher thread, a tool on a hole thread) finds
//! its parent without anything being threaded through the program.

use lmql_obs::{ArgValue, EventKind, TraceEvent};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id (1-based; 0 means "no span").
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// The query this span belongs to (index in the pass).
    pub query: u32,
    /// Layer-qualified name, e.g. `lm.score`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Work items covered (contexts in a batch, events in a frame, …).
    pub items: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    recording: AtomicBool,
    next_id: AtomicU32,
    /// Root span id and query index of the query in flight.
    current_root: AtomicU32,
    current_query: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A cheap clonable handle to the recorder. Not recording by default:
/// [`record`](Spans::record) then costs one atomic load.
#[derive(Debug, Clone)]
pub struct Spans {
    inner: Arc<Inner>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// A recorder that is switched off.
    pub fn new() -> Self {
        Spans {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                recording: AtomicBool::new(false),
                next_id: AtomicU32::new(1),
                current_root: AtomicU32::new(0),
                current_query: AtomicU32::new(0),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Whether spans are being kept.
    pub fn is_recording(&self) -> bool {
        self.inner.recording.load(Ordering::Acquire)
    }

    /// Switches recording on or off (between passes, never mid-query).
    pub fn set_recording(&self, on: bool) {
        self.inner.recording.store(on, Ordering::Release);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.inner.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.inner
            .spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
    }

    /// Records a child of the query in flight that started at `start` and
    /// ends now. A no-op while recording is off.
    pub fn record(&self, name: &'static str, start: Instant, items: u64) {
        self.record_until(name, start, Instant::now(), items);
    }

    /// Like [`record`](Self::record) with an explicit end.
    pub fn record_until(&self, name: &'static str, start: Instant, end: Instant, items: u64) {
        if !self.is_recording() {
            return;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: self.inner.current_root.load(Ordering::Acquire),
            query: self.inner.current_query.load(Ordering::Acquire),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items,
        });
    }

    /// Opens the root span of query `query`: until the guard is finished,
    /// every [`record`](Self::record) is its child.
    pub fn begin_query(&self, name: &'static str, query: u32) -> QueryGuard<'_> {
        let id = if self.is_recording() {
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            self.inner.current_root.store(id, Ordering::Release);
            self.inner.current_query.store(query, Ordering::Release);
            id
        } else {
            0
        };
        QueryGuard {
            spans: self,
            id,
            query,
            name,
            start: Instant::now(),
        }
    }

    /// Everything recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.inner.spans.lock().expect("span recorder poisoned"))
    }
}

/// The open root span of one query (see [`Spans::begin_query`]).
#[derive(Debug)]
pub struct QueryGuard<'a> {
    spans: &'a Spans,
    id: u32,
    query: u32,
    name: &'static str,
    start: Instant,
}

impl QueryGuard<'_> {
    /// When the query was sent.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Closes the root span now and returns the query's duration in
    /// seconds (measured whether or not spans are recorded).
    pub fn finish(self) -> f64 {
        let end = Instant::now();
        if self.id != 0 {
            self.spans.inner.current_root.store(0, Ordering::Release);
            self.spans.push(Span {
                id: self.id,
                parent: 0,
                query: self.query,
                name: self.name,
                start_ns: self.spans.ns(self.start),
                end_ns: self.spans.ns(end),
                items: 1,
            });
        }
        end.duration_since(self.start).as_secs_f64()
    }
}

/// Renders spans as a Chrome `trace_event` document through `lmql-obs`.
/// Each level of the trace (L0, L1, L2, the direct timings) gets its own
/// track; `parent` and `query` ride along as arguments.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let track = |name: &str| -> u64 {
        match name.split('.').next().unwrap_or("") {
            "L0" => 1,
            "L1" => 2,
            "L2" => 3,
            "lm" | "tool" => 4,
            _ => 5,
        }
    };
    let events: Vec<TraceEvent> = spans
        .iter()
        .map(|s| TraceEvent {
            name: s.name.to_owned(),
            cat: s.name.split('.').next().unwrap_or("bench").to_owned(),
            kind: EventKind::Complete,
            ts_us: s.start_ns / 1000,
            dur_us: (s.end_ns - s.start_ns) / 1000,
            tid: track(s.name),
            args: vec![
                ("id".to_owned(), ArgValue::U64(u64::from(s.id))),
                ("parent".to_owned(), ArgValue::U64(u64::from(s.parent))),
                ("query".to_owned(), ArgValue::U64(u64::from(s.query))),
                ("items".to_owned(), ArgValue::U64(s.items)),
            ],
        })
        .collect();
    lmql_obs::chrome::to_chrome_json(&events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_and_records_nothing() {
        let spans = Spans::new();
        let g = spans.begin_query("L0.query", 3);
        spans.record("lm.score", Instant::now(), 1);
        assert!(g.finish() >= 0.0);
        assert!(spans.take().is_empty());
    }

    #[test]
    fn children_point_at_the_query_in_flight() {
        let spans = Spans::new();
        spans.set_recording(true);
        let g = spans.begin_query("L0.query", 7);
        spans.record("lm.score", Instant::now(), 4);
        g.finish();
        spans.record("direct.parse", Instant::now(), 1);
        let all = spans.take();
        assert_eq!(all.len(), 3);
        let root = all.iter().find(|s| s.name == "L0.query").unwrap();
        let child = all.iter().find(|s| s.name == "lm.score").unwrap();
        let orphan = all.iter().find(|s| s.name == "direct.parse").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!((child.query, child.items), (7, 4));
        assert_eq!(orphan.parent, 0);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        let json = to_chrome_json(&all);
        assert!(lmql_obs::chrome::parse_chrome_json(&json).is_ok());
    }
}
