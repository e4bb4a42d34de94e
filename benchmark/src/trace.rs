//! The benchmark's own span recorder.
//!
//! Spans are opened around the benchmark's calls into each crate (the
//! layer boundaries), kept in memory, and written to
//! `benchmark/results/<workload>.trace.json` when the traced pass ends.
//! Nothing in the reconstruction crates knows about this recorder: the
//! end-to-end pass runs without it, and the difference between the two
//! passes is the tracing overhead the benchmark reports.

use ct_obs::jsonw::{arr, Obj};
use std::time::Instant;

/// One recorded span. `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Counts taken at the same boundary (rows filtered, voxel updates,
    /// messages sent, ...).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store for one workload's traced pass.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of whichever span is
    /// open on this tracer. Returns `f`'s result and the span's seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        (out, self.spans[idx].secs())
    }

    /// Record a span that was timed elsewhere (on another thread) as a
    /// child of the open span. Such children may overlap their siblings.
    pub fn record_at(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].counts.push((key, value));
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of every completed span named `name`, in recording order.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The count `key` of the most recent span named `name`.
    pub fn last_count(&self, name: &str, key: &str) -> Option<f64> {
        let span = self.spans.iter().rev().find(|s| s.name == name)?;
        span.counts.iter().find(|(k, _)| *k == key).map(|c| c.1)
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover (children may nest no deeper here —
    /// grandchildren are already inside their parent — and may overlap
    /// each other, so the covered part is the union, clipped to the span).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (s, e) in kids {
            if e > reach {
                covered += e - s.max(reach);
                reach = e;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// The trace document: a provenance header plus one object per span
    /// (`id`, `name`, `workload`, `parent`, `start_ns`, `end_ns`,
    /// `self_ns`, `counts`).
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut doc = Obj::new();
        doc.field_str("schema", "ifdk-benchmark/trace/v1")
            .field_str("workload", self.workload);
        for (k, v) in header {
            doc.field_str(k, v);
        }
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            let mut o = Obj::new();
            o.field_u64("id", id as u64)
                .field_str("name", s.name)
                .field_str("workload", self.workload);
            match s.parent {
                Some(p) => o.field_u64("parent", p as u64),
                None => o.field_raw("parent", "null"),
            };
            o.field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_u64("self_ns", self.self_ns(id));
            let mut counts = Obj::new();
            for (k, v) in &s.counts {
                counts.field_f64(k, *v);
            }
            o.field_raw("counts", &counts.finish());
            o.finish()
        });
        doc.field_raw("spans", &arr(spans));
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer holding `spans` given as (start, end, parent).
    fn tracer_of(spans: &[(u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new("test");
        t.spans = spans
            .iter()
            .map(|&(start_ns, end_ns, parent)| Span {
                name: "s",
                start_ns,
                end_ns,
                parent,
                counts: Vec::new(),
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with its own child 20..30; child 70..90.
        let t = tracer_of(&[
            (0, 100, None),
            (10, 60, Some(0)),
            (20, 30, Some(1)),
            (70, 90, Some(0)),
        ]);
        assert_eq!(t.self_ns(0), 100 - 50 - 20);
        assert_eq!(t.self_ns(1), 50 - 10);
        assert_eq!(t.self_ns(2), 10);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 overlap; 65..68 is inside the second;
        // 90..130 sticks out past the parent and is clipped to 90..100.
        let t = tracer_of(&[
            (0, 100, None),
            (10, 50, Some(0)),
            (30, 70, Some(0)),
            (65, 68, Some(0)),
            (90, 130, Some(0)),
        ]);
        assert_eq!(t.self_ns(0), 100 - 60 - 10);
    }

    #[test]
    fn spans_nest_by_call_structure() {
        let mut t = Tracer::new("test");
        let (v, secs) = t.span("outer", |t| {
            t.count("items", 3.0);
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            let start = Instant::now();
            t.record_at("elsewhere", start, start + Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.002);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| (s.name, s.parent)).collect::<Vec<_>>(),
            [("outer", None), ("inner", Some(0)), ("elsewhere", Some(0))]
        );
        assert_eq!(s[0].counts, [("items", 3.0)]);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.secs_of("inner").len(), 1);
    }

    #[test]
    fn trace_document_parses_and_lists_every_span() {
        let mut t = Tracer::new("w");
        t.span("a", |t| {
            t.count("n", 2.0);
            t.span("b", |_| ());
        });
        let doc = ct_obs::chrome::json::parse(&t.to_json(&[("seed", "1".into())]))
            .expect("trace document is valid JSON");
        assert_eq!(doc.get("workload").and_then(|v| v.as_str()), Some("w"));
        assert_eq!(doc.get("seed").and_then(|v| v.as_str()), Some("1"));
        let spans = doc.get("spans").and_then(|v| v.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(
            spans[0]
                .get("counts")
                .and_then(|c| c.get("n"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
    }
}
