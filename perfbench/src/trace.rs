//! In-memory spans recorded around the benchmark's calls into routelab.
//!
//! A span has a name, a tag (the gadget or instance it served), a start, an
//! end and the span that was open when it began. Spans stay in memory and
//! are written out once the run ends. With tracing off every call is a
//! no-op, so the untraced run pays nothing for the tracer.

use std::io::{self, Write};
use std::time::Instant;

use crate::stats::median;

/// One closed (or still open) interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `explore.build`.
    pub name: &'static str,
    /// What the call worked on (gadget, instance or model); may be empty.
    pub tag: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an opened span, passed back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an opened span must be closed"]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// The instant that span timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        ns_since(self.origin)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, tag: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.now_ns();
        let id = self.push(name, tag, now, now);
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an interval measured elsewhere (on a worker's clock against
    /// [`Tracer::origin`]) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, tag: &str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.push(name, tag, start_ns, end_ns);
        }
    }

    fn push(&mut self, name: &'static str, tag: &str, start_ns: u64, end_ns: u64) -> usize {
        let parent = self.open.last().copied();
        self.spans.push(Span { name, tag: tag.to_string(), start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: `name`, `tag`, `start_ns`,
    /// `end_ns`, `parent` (index into the file's own line order).
    pub fn write_ndjson(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, parent
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds from `origin` to now.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a run lasts far less than 584 years")
}

/// Self time of every span in seconds: its length minus the part of its
/// interval its direct children cover. Children of one parent never
/// overlap (spans nest on one thread), so the covered part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Per-iteration span totals of one traced iteration: `spans[first..]`
/// with `spans[first]` the iteration's root.
#[derive(Debug, Clone, Default)]
pub struct IterationSpans {
    /// Seconds per span name (direct and nested children of the root).
    pub by_name: Vec<(&'static str, f64)>,
    /// Seconds per (name, tag).
    pub by_tag: Vec<((&'static str, String), f64)>,
    /// The root's self time: wall time no layer span covers.
    pub unattributed: f64,
}

impl IterationSpans {
    /// Totals over the spans from `first` on.
    pub fn collect(spans: &[Span], first: usize) -> Self {
        let own = self_times(&rebased(spans, first));
        let mut out = IterationSpans { unattributed: own[0], ..IterationSpans::default() };
        for s in &spans[first + 1..] {
            add(&mut out.by_name, s.name, s.secs());
            add(&mut out.by_tag, (s.name, s.tag.clone()), s.secs());
        }
        out
    }

    /// Seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.iter().filter(|(n, _)| *n == name).map(|p| p.1).sum()
    }

    /// Seconds spent in spans called `name` tagged `tag`.
    pub fn tagged(&self, name: &str, tag: &str) -> f64 {
        self.by_tag.iter().filter(|((n, t), _)| *n == name && t == tag).map(|p| p.1).sum()
    }
}

fn add<K: PartialEq>(v: &mut Vec<(K, f64)>, k: K, x: f64) {
    match v.iter_mut().find(|(key, _)| *key == k) {
        Some(e) => e.1 += x,
        None => v.push((k, x)),
    }
}

/// Median over traced iterations of `f`.
pub fn median_of(iters: &[IterationSpans], f: impl Fn(&IterationSpans) -> f64) -> f64 {
    median(&iters.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Median length of the top-level spans called `name`: the per-repetition
/// share of a layer in the repeated set-up.
pub fn root_median(spans: &[Span], name: &str) -> f64 {
    let xs: Vec<f64> =
        spans.iter().filter(|s| s.parent.is_none() && s.name == name).map(Span::secs).collect();
    median(&xs).unwrap_or(0.0)
}

/// `spans[first..]` with parent indices shifted to count from `first`.
fn rebased(spans: &[Span], first: usize) -> Vec<Span> {
    spans[first..]
        .iter()
        .cloned()
        .map(|mut s| {
            s.parent = s.parent.map(|p| p - first);
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, tag: String::new(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) ⊃ a [10, 50) ⊃ b [20, 30); root ⊃ c [60, 90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 60, 90, Some(0)),
        ];
        let own: Vec<u64> = self_times(&spans).iter().map(|s| (s * 1e9).round() as u64).collect();
        assert_eq!(own, vec![30, 30, 10, 30]);
        // Self times partition the root's interval.
        let total: f64 = self_times(&spans).iter().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_open_spans_and_records_measured_ones() {
        let mut t = Tracer::new(true);
        let root = t.open("root", "");
        let inner = t.open("inner", "FIG6");
        t.close(inner);
        t.record("worker", "x", 5, 9);
        t.close(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].name, s[1].tag.as_str(), s[1].parent), ("inner", "FIG6", Some(0)));
        assert_eq!((s[2].start_ns, s[2].end_ns, s[2].parent), (5, 9, Some(0)));
        assert!(s[0].end_ns >= s[1].end_ns);
        let mut out = Vec::new();
        t.write_ndjson(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .ends_with("\"start_ns\":5,\"end_ns\":9,\"parent\":0}"));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("root", "");
        t.record("worker", "", 0, 1);
        t.close(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn iteration_spans_sum_by_name_and_tag_and_keep_the_root_remainder() {
        let s = |name, tag: &str, a, b, parent| Span {
            name,
            tag: tag.to_string(),
            start_ns: a,
            end_ns: b,
            parent,
        };
        // An earlier iteration's spans come first and must be ignored.
        let spans = vec![
            s("verdicts.table", "", 0, 5, None),
            s("verdicts.table", "", 10, 110, None),
            s("explore.build", "FIG6", 10, 50, Some(1)),
            s("explore.analyze", "FIG6", 50, 60, Some(1)),
            s("explore.build", "LINE2", 60, 100, Some(1)),
        ];
        let it = IterationSpans::collect(&spans, 1);
        assert!((it.unattributed - 10e-9).abs() < 1e-15);
        assert!((it.total("explore.build") - 80e-9).abs() < 1e-15);
        assert!((it.tagged("explore.build", "LINE2") - 40e-9).abs() < 1e-15);
        assert_eq!(it.total("explore.search"), 0.0);
    }
}
