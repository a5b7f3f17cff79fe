//! The benchmark's own span recorder. Spans are recorded around calls into
//! the program's public functions (the program itself is not instrumented),
//! kept in memory, and written out once at exit as Chrome-trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by all spans of one request (a policy call, an advice cycle,
    /// a sampled simulator event); 0 for spans that belong to no request.
    pub request_id: u64,
    /// Client thread the span was recorded on (the Chrome-trace `tid`).
    pub track: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals derived from a recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

/// In-memory span store. One per client thread; thread recorders share the
/// run's epoch and are [`Recorder::absorb`]ed into the main one afterwards.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    track: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, track: u32) -> Recorder {
        Recorder {
            epoch,
            track,
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another client thread.
    pub fn fork(&self, track: u32) -> Recorder {
        Recorder::new(self.epoch, track)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; it ends at [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request_id: u64) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, request_id)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span whose interval was measured by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
            track: self.track,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Append another recorder's spans under `parent` (their own roots hang
    /// off it), keeping their tracks.
    pub fn absorb(&mut self, other: Recorder, parent: Option<SpanId>) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span must end no earlier than it starts, name an existing
    /// earlier span as parent, and lie within that parent's interval.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let Some(parent) = self.spans.get(p as usize) else {
                    return Err(format!("span {i} ({}) names a missing parent {p}", s.name));
                };
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) [{}..{}] leaves its parent {} [{}..{}]",
                        s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                    ));
                }
            }
        }
        Ok(())
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        // Child intervals per parent; the covered part is their union, so
        // children recorded on two client threads are not counted twice.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Chrome-trace JSON (`chrome://tracing`, ui.perfetto.dev): complete
    /// events with microsecond timestamps, one `tid` per client thread.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request_id\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.track,
                i,
                s.parent.map_or(-1, i64::from),
                s.request_id,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwm_obs::JsonValue;

    fn rec() -> Recorder {
        Recorder::new(Instant::now(), 0)
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut r = rec();
        let rep = r.push("rep", 0, 1000, None, 0);
        let run = r.push("executor.run", 100, 900, Some(rep), 0);
        r.push("transport.evaluate_transfers", 200, 300, Some(run), 1);
        r.push("transport.report_transfers", 400, 650, Some(run), 2);
        r.validate().unwrap();
        let t = r.totals();
        assert_eq!(t["rep"].self_ns, 200);
        assert_eq!(t["executor.run"].total_ns, 800);
        assert_eq!(t["executor.run"].self_ns, 800 - 100 - 250);
        assert_eq!(t["transport.evaluate_transfers"].self_ns, 100);
        assert_eq!(t["transport.report_transfers"].count, 1);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two client threads' spans under one repetition overlap in time.
        let mut r = rec();
        let rep = r.push("rep", 0, 1000, None, 0);
        r.push("cycle", 0, 600, Some(rep), 1);
        r.push("cycle", 400, 900, Some(rep), 2);
        assert_eq!(r.totals()["rep"].self_ns, 100);
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let mut r = rec();
        let rep = r.push("rep", 100, 200, None, 0);
        r.push("plan", 150, 250, Some(rep), 0);
        assert!(r.validate().unwrap_err().contains("leaves its parent"));

        let mut r = rec();
        r.push("plan", 10, 20, Some(7), 0);
        assert!(r.validate().unwrap_err().contains("missing parent"));

        let mut r = rec();
        r.push("plan", 20, 10, None, 0);
        assert!(r.validate().unwrap_err().contains("ends before"));
    }

    #[test]
    fn absorbed_spans_keep_their_tree_and_track() {
        let mut main = rec();
        let rep = main.push("rep", 0, 1000, None, 0);
        let mut worker = main.fork(1);
        let cycle = worker.push("cycle", 10, 500, None, 9);
        worker.push("rtt.window", 20, 400, Some(cycle), 9);
        main.absorb(worker, Some(rep));
        main.validate().unwrap();
        let s = main.spans();
        assert_eq!(s[1].parent, Some(rep));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[1].track, s[2].track), (1, 1));
    }

    #[test]
    fn open_and_close_measure_real_time_and_export_parses() {
        let mut r = rec();
        let id = r.open("plan", None, 3);
        std::hint::black_box((0..1000).sum::<u64>());
        r.close(id);
        assert!(r.spans()[0].end_ns >= r.spans()[0].start_ns);
        let doc = JsonValue::parse(&r.chrome_trace_json()).expect("trace JSON parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").and_then(|n| n.as_str()), Some("plan"));
    }
}
