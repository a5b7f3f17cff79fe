//! Sim-time span tracing with Chrome-trace-format and JSONL exporters.
//!
//! Spans carry explicit sequential ids and optional parent links, so the
//! hierarchy survives export regardless of how flows interleave (the
//! Chrome format's implicit begin/end nesting cannot represent dozens of
//! concurrent transfers on one logical thread). Timestamps are
//! [`SimTime`] — integer microseconds, which is exactly the Chrome `ts`
//! unit — so a same-seed simulation exports a byte-identical file.

use crate::json::JsonValue;
use pwm_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Identifies one span within a [`Tracer`]. Ids are assigned sequentially
/// in creation order (deterministic for a deterministic caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One finished trace event: a span (with a duration) or an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Human-readable event name (e.g. `transfer mProjectPP_1`).
    pub name: String,
    /// Category — one flame-chart row per category in the export
    /// (`workflow`, `policy`, `net`, ...).
    pub cat: String,
    /// This event's id.
    pub id: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Start time (sim time).
    pub start: SimTime,
    /// Span length; `None` marks an instant event.
    pub dur: Option<SimDuration>,
    /// Extra key/value annotations.
    pub args: Vec<(String, String)>,
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    cat: String,
    parent: Option<u64>,
    start: SimTime,
    args: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    open: BTreeMap<u64, OpenSpan>,
    done: Vec<TraceEvent>,
}

/// A shared buffer of spans and instants. Cloning is cheap and clones share
/// the buffer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<Inner>>,
}

impl Tracer {
    /// Fresh, empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Open a span at `at`; close it later with [`Tracer::end_span`].
    pub fn start_span(
        &self,
        name: impl Into<String>,
        cat: impl Into<String>,
        parent: Option<SpanId>,
        at: SimTime,
    ) -> SpanId {
        let mut inner = self.inner.lock().expect("tracer lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.open.insert(
            id,
            OpenSpan {
                name: name.into(),
                cat: cat.into(),
                parent: parent.map(|p| p.0),
                start: at,
                args: Vec::new(),
            },
        );
        SpanId(id)
    }

    /// Attach a key/value annotation to an open span. Ignored if the span
    /// is unknown or already closed.
    pub fn span_arg(&self, id: SpanId, key: impl Into<String>, value: impl Into<String>) {
        let mut inner = self.inner.lock().expect("tracer lock");
        if let Some(span) = inner.open.get_mut(&id.0) {
            span.args.push((key.into(), value.into()));
        }
    }

    /// Close a span at `at`. Ignored if the span is unknown or already
    /// closed. Ends before the start are clamped to zero duration.
    pub fn end_span(&self, id: SpanId, at: SimTime) {
        let mut inner = self.inner.lock().expect("tracer lock");
        if let Some(span) = inner.open.remove(&id.0) {
            let dur = if at > span.start {
                at.since(span.start)
            } else {
                SimDuration::ZERO
            };
            inner.done.push(TraceEvent {
                name: span.name,
                cat: span.cat,
                id: id.0,
                parent: span.parent,
                start: span.start,
                dur: Some(dur),
                args: span.args,
            });
        }
    }

    /// Record a fully-specified span in one call.
    pub fn complete_span(
        &self,
        name: impl Into<String>,
        cat: impl Into<String>,
        parent: Option<SpanId>,
        start: SimTime,
        end: SimTime,
        args: &[(&str, String)],
    ) -> SpanId {
        let id = self.start_span(name, cat, parent, start);
        for (k, v) in args {
            self.span_arg(id, *k, v.clone());
        }
        self.end_span(id, end);
        id
    }

    /// Record an instant event (a point in time, e.g. a fault boundary).
    pub fn instant(
        &self,
        name: impl Into<String>,
        cat: impl Into<String>,
        at: SimTime,
        args: &[(&str, String)],
    ) {
        let mut inner = self.inner.lock().expect("tracer lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.done.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            id,
            parent: None,
            start: at,
            dur: None,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Number of events recorded so far (finished + still open).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("tracer lock");
        inner.done.len() + inner.open.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All events, sorted by `(start, id)`. Spans still open are closed at
    /// the latest timestamp seen anywhere in the buffer, so an export never
    /// drops them.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("tracer lock");
        let mut last = SimTime::ZERO;
        for e in &inner.done {
            let end = e.dur.map(|d| e.start + d).unwrap_or(e.start);
            last = last.max(end);
        }
        for s in inner.open.values() {
            last = last.max(s.start);
        }
        let mut events = inner.done.clone();
        for (&id, s) in &inner.open {
            events.push(TraceEvent {
                name: s.name.clone(),
                cat: s.cat.clone(),
                id,
                parent: s.parent,
                start: s.start,
                dur: Some(last.since(s.start)),
                args: s.args.clone(),
            });
        }
        events.sort_by_key(|e| (e.start, e.id));
        events
    }

    /// Export as a Chrome-trace-format JSON document (open in Perfetto or
    /// `chrome://tracing`). Spans become `"X"` complete events carrying
    /// `span_id`/`parent` args; instants become `"i"` events; categories
    /// become named threads (one flame row each).
    pub fn chrome_trace_json(&self) -> String {
        let events = self.events();
        let mut tids: BTreeMap<&str, i64> = BTreeMap::new();
        for e in &events {
            let next = tids.len() as i64 + 1;
            tids.entry(e.cat.as_str()).or_insert(next);
        }
        let mut out: Vec<JsonValue> = Vec::with_capacity(events.len() + tids.len());
        for (cat, tid) in &tids {
            out.push(JsonValue::Obj(vec![
                ("ph".into(), JsonValue::Str("M".into())),
                ("name".into(), JsonValue::Str("thread_name".into())),
                ("pid".into(), JsonValue::Int(1)),
                ("tid".into(), JsonValue::Int(*tid)),
                (
                    "args".into(),
                    JsonValue::Obj(vec![("name".into(), JsonValue::Str(cat.to_string()))]),
                ),
            ]));
        }
        for e in &events {
            let tid = tids[e.cat.as_str()];
            let mut args = vec![("span_id".to_string(), JsonValue::Int(e.id as i64))];
            if let Some(parent) = e.parent {
                args.push(("parent".into(), JsonValue::Int(parent as i64)));
            }
            for (k, v) in &e.args {
                args.push((k.clone(), JsonValue::Str(v.clone())));
            }
            let mut members = vec![
                ("name".to_string(), JsonValue::Str(e.name.clone())),
                ("cat".into(), JsonValue::Str(e.cat.clone())),
                ("pid".into(), JsonValue::Int(1)),
                ("tid".into(), JsonValue::Int(tid)),
                ("ts".into(), JsonValue::Int(e.start.as_micros() as i64)),
            ];
            match e.dur {
                Some(dur) => {
                    members.push(("ph".into(), JsonValue::Str("X".into())));
                    members.push(("dur".into(), JsonValue::Int(dur.as_micros() as i64)));
                }
                None => {
                    members.push(("ph".into(), JsonValue::Str("i".into())));
                    members.push(("s".into(), JsonValue::Str("t".into())));
                }
            }
            members.push(("args".into(), JsonValue::Obj(args)));
            out.push(JsonValue::Obj(members));
        }
        JsonValue::Obj(vec![
            ("traceEvents".into(), JsonValue::Arr(out)),
            ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
        ])
        .render()
    }
}

/// Validate a Chrome-trace JSON document produced by
/// [`Tracer::chrome_trace_json`] (or a compatible tool): well-formed JSON,
/// a non-empty `traceEvents` array, and every span with a `parent` arg
/// contained within its parent's `[ts, ts+dur]` interval. Returns the
/// number of non-metadata events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut spans: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    let mut real = 0usize;
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or("event without ph")?;
        if ph == "M" {
            continue;
        }
        real += 1;
        let ts = e
            .get("ts")
            .and_then(|v| v.as_int())
            .ok_or("event without integer ts")?;
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(|v| v.as_int())
                .ok_or("X event without integer dur")?;
            if let Some(id) = e
                .get("args")
                .and_then(|a| a.get("span_id"))
                .and_then(|v| v.as_int())
            {
                spans.insert(id, (ts, ts + dur));
            }
        }
    }
    for e in events {
        let (Some(args), Some(ts)) = (e.get("args"), e.get("ts").and_then(|v| v.as_int())) else {
            continue;
        };
        let Some(parent) = args.get("parent").and_then(|v| v.as_int()) else {
            continue;
        };
        let (pstart, pend) = *spans
            .get(&parent)
            .ok_or_else(|| format!("parent {parent} not found"))?;
        let end = ts + e.get("dur").and_then(|v| v.as_int()).unwrap_or(0);
        if ts < pstart || end > pend {
            return Err(format!(
                "span at ts {ts}..{end} escapes parent {parent} ({pstart}..{pend})"
            ));
        }
    }
    if real == 0 {
        return Err("trace has no events".into());
    }
    Ok(real)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn spans_nest_and_export() {
        let tr = Tracer::new();
        let job = tr.start_span("job", "workflow", None, t(1));
        let rpc = tr.start_span("advice", "policy", Some(job), t(2));
        tr.end_span(rpc, t(3));
        tr.instant("fault", "net", t(4), &[("link", "wan".into())]);
        tr.end_span(job, t(5));
        assert_eq!(tr.len(), 3);

        let events = tr.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "job");
        assert_eq!(events[0].dur, Some(SimDuration::from_secs(4)));
        assert_eq!(events[1].parent, Some(job.0));

        let json = tr.chrome_trace_json();
        assert_eq!(validate_chrome_trace(&json).unwrap(), 3);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"link\":\"wan\""));
    }

    #[test]
    fn open_spans_are_closed_at_last_seen_time() {
        let tr = Tracer::new();
        let a = tr.start_span("open", "x", None, t(1));
        tr.instant("late", "x", t(9), &[]);
        let events = tr.events();
        let open = events.iter().find(|e| e.id == a.0).unwrap();
        assert_eq!(open.dur, Some(SimDuration::from_secs(8)));
    }

    #[test]
    fn export_is_deterministic_and_sorted() {
        let build = || {
            let tr = Tracer::new();
            let a = tr.start_span("a", "c1", None, t(5));
            let b = tr.start_span("b", "c0", Some(a), t(6));
            tr.end_span(b, t(7));
            tr.end_span(a, t(8));
            tr.instant("i", "c1", t(2), &[]);
            tr
        };
        let x = build();
        let y = build();
        assert_eq!(x.chrome_trace_json(), y.chrome_trace_json());
        let events = x.events();
        assert!(events
            .windows(2)
            .all(|w| (w[0].start, w[0].id) <= (w[1].start, w[1].id)));
        assert_eq!(events[0].name, "i", "earliest first");
    }

    #[test]
    fn validator_rejects_bad_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // A child escaping its parent's interval.
        let bad = r#"{"traceEvents":[
            {"name":"p","cat":"c","pid":1,"tid":1,"ts":0,"ph":"X","dur":10,"args":{"span_id":0}},
            {"name":"c","cat":"c","pid":1,"tid":1,"ts":5,"ph":"X","dur":10,"args":{"span_id":1,"parent":0}}
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("escapes parent"));
    }

    #[test]
    fn end_of_unknown_span_is_ignored() {
        let tr = Tracer::new();
        tr.end_span(SpanId(99), t(1));
        assert!(tr.is_empty());
        let a = tr.start_span("a", "c", None, t(2));
        tr.end_span(a, t(3));
        tr.end_span(a, t(9)); // double end: ignored
        assert_eq!(tr.events()[0].dur, Some(SimDuration::from_secs(1)));
    }
}
