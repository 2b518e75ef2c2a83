//! In-memory spans for the traced pass.
//!
//! A span is a name, a start, an end and the span open around it (its
//! parent). Self time is a span's duration minus the time its children
//! cover. Spans nest on one thread, so an open-span stack gives each
//! closing span its parent and lets it charge its duration to that parent.
//!
//! Per-name totals cover every span; the spans themselves are kept only up
//! to a cap, enough for a timeline, and exported at the end as
//! Chrome/Perfetto trace-event JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Map, Value as Json};

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the log, in opening order from 1.
    pub id: u64,
    /// The span open around this one, if any.
    pub parent: Option<u64>,
    /// The layer call this span covers.
    pub name: &'static str,
    /// Nanoseconds from the log's epoch to the start.
    pub start_ns: u64,
    /// Nanoseconds from the log's epoch to the end.
    pub end_ns: u64,
    /// Duration minus the time covered by children.
    pub self_ns: u64,
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// A span log: the open-span stack, per-name totals and kept spans.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
    kept: Vec<Span>,
    cap: usize,
}

impl SpanLog {
    /// An empty log keeping at most `cap` spans for export.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
            cap,
        }
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            parent: self.stack.last().map(|o| o.id),
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span, returning its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an unbalanced enter/exit in the caller).
    pub fn exit(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += self_ns;
        if self.kept.len() < self.cap {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.kept.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
                self_ns,
            });
        }
        dur
    }

    /// Totals for `name` (zero if no such span closed).
    #[must_use]
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The kept spans, in closing order.
    #[must_use]
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// The kept spans as Chrome/Perfetto trace-event JSON: one complete
    /// (`"X"`) event per span on a single thread track, with the span's
    /// id, parent and self time as arguments, and `other` attached as
    /// the trace's metadata.
    #[must_use]
    pub fn to_chrome_json(&self, other: Json) -> Json {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut events: Vec<Json> = vec![
            json!({"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "perfbench traced pass"}}),
            json!({"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "lockstep"}}),
        ];
        let mut spans: Vec<&Span> = self.kept.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        events.extend(spans.into_iter().map(|s| {
            let mut args = Map::new();
            args.insert("id".to_string(), Json::from(s.id));
            args.insert(
                "parent".to_string(),
                s.parent.map_or(Json::Null, Json::from),
            );
            args.insert("self_us".to_string(), Json::from(us(s.self_ns)));
            json!({
                "name": (s.name),
                "cat": (s.name.split('.').next().unwrap_or(s.name)),
                "ph": "X",
                "ts": (us(s.start_ns)),
                "dur": (us(s.end_ns - s.start_ns)),
                "pid": 1,
                "tid": 1,
                "args": (Json::Object(args)),
            })
        }));
        json!({
            "traceEvents": (Json::Array(events)),
            "displayTimeUnit": "ns",
            "otherData": other,
        })
    }
}

thread_local! {
    static LOG: RefCell<Option<SpanLog>> = const { RefCell::new(None) };
}

/// Installs `log` as this thread's span log; [`enter`] and [`exit`] record
/// into it until [`uninstall`]. Spans recorded with no log installed are
/// dropped, so code under test can run untraced.
pub fn install(log: SpanLog) {
    LOG.with(|l| *l.borrow_mut() = Some(log));
}

/// Removes and returns this thread's span log.
#[must_use]
pub fn uninstall() -> Option<SpanLog> {
    LOG.with(|l| l.borrow_mut().take())
}

/// Opens a span in this thread's log (see [`SpanLog::enter`]).
pub fn enter(name: &'static str) {
    LOG.with(|l| {
        if let Some(log) = l.borrow_mut().as_mut() {
            log.enter(name);
        }
    });
}

/// Closes the innermost span in this thread's log (see [`SpanLog::exit`]).
pub fn exit() {
    LOG.with(|l| {
        if let Some(log) = l.borrow_mut().as_mut() {
            log.exit();
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    enter(name);
    let r = f();
    exit();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut log = SpanLog::new(16);
        log.enter("outer");
        busy(Duration::from_millis(2));
        log.enter("inner");
        busy(Duration::from_millis(3));
        let inner = log.exit();
        log.enter("inner");
        let inner2 = log.exit();
        let outer = log.exit();
        let o = log.totals("outer");
        let i = log.totals("inner");
        assert_eq!(i.count, 2);
        assert_eq!(i.total_ns, inner + inner2);
        assert_eq!(i.self_ns, i.total_ns, "leaves own all their time");
        assert_eq!(o.total_ns, outer);
        assert_eq!(o.self_ns, outer - inner - inner2);
        assert!(o.self_ns >= 2_000_000 && inner >= 3_000_000);
        let kept = log.kept();
        assert_eq!(kept.len(), 3);
        let outer_span = kept.iter().find(|s| s.name == "outer").expect("kept");
        assert_eq!(outer_span.parent, None);
        assert!(kept
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer_span.id)
                && s.start_ns >= outer_span.start_ns
                && s.end_ns <= outer_span.end_ns));
    }

    #[test]
    fn cap_bounds_kept_spans_not_totals() {
        let mut log = SpanLog::new(2);
        for _ in 0..5 {
            log.enter("x");
            log.exit();
        }
        assert_eq!(log.kept().len(), 2);
        assert_eq!(log.totals("x").count, 5);
        assert_eq!(log.totals("absent"), Totals::default());
    }

    #[test]
    fn chrome_export_has_one_complete_event_per_kept_span() {
        let mut log = SpanLog::new(8);
        log.enter("engine.client_handle");
        log.enter("durable.apply");
        log.exit();
        log.exit();
        let doc = log.to_chrome_json(json!({"seed": 1}));
        let text = serde_json::to_string(&doc).expect("serializable");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"cat\":\"durable\""));
        assert!(text.contains("\"otherData\":{\"seed\":1}"));
    }

    #[test]
    fn thread_log_records_only_when_installed() {
        span("dropped", || ());
        install(SpanLog::new(4));
        span("kept", || ());
        let log = uninstall().expect("installed");
        assert_eq!(log.totals("kept").count, 1);
        assert_eq!(log.totals("dropped").count, 0);
    }
}
