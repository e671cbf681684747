//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::timed`], which always returns the call's duration (the
//! end-to-end latency metrics need it with tracing off too) and, when
//! tracing is on, keeps one [`Span`] for it. Container spans (the
//! workload, a repetition, the replay) are opened and closed
//! explicitly and become the parents of what runs inside them. Spans
//! stay in memory until the run ends; [`Tracer::write_json`] dumps
//! them and [`Tracer::summary`] derives each name's self time — its
//! spans' durations minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Its id is its index in [`Tracer::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call or container name (`node.reactor.step.choke`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Id of the span that was open when this one began.
    pub parent: u32,
    /// Repetition the span belongs to (0 = outside any repetition).
    pub rep: u32,
}

/// Count, total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameSummary {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, milliseconds.
    pub total_ms: f64,
    /// Sum of their durations minus their children's, milliseconds.
    pub self_ms: f64,
}

/// Self time per span name from a span list (ids are indices).
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ms += dur as f64 / 1e6;
        e.self_ms += dur.saturating_sub(child) as f64 / 1e6;
    }
    out
}

/// The recorder. With `on == false` it only times.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Switch recording: the traced run times every other repetition
    /// with it off to measure the overhead. A container opened in one
    /// state must be closed in the same state.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being kept right now.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a container span; everything until the matching
    /// [`Tracer::close`] becomes its child.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
        });
    }

    /// Close the innermost open container span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("close without open");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Run `f`, returning its result and its duration in seconds; with
    /// tracing on the call is also kept as a leaf span named `name`.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                rep: self.rep,
            });
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Keep a leaf span for work that ran with recording off (the
    /// untraced repetitions of a traced run), so the root span's self
    /// time does not count it as the benchmark's own bookkeeping.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            rep: self.rep,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, NameSummary> {
        summarise(&self.spans)
    }

    /// The trace document: fingerprint, per-name summary, and one row
    /// per span (`[name index, start_ns, end_ns, parent id, rep]`; a
    /// span's id is its row index, `parent` -1 marks a root, and the
    /// workload + `rep` pair is the identifier spans of one
    /// repetition share).
    pub fn to_json(&self, workload: &str, fingerprint_json: &str) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        let _ = write!(
            out,
            "{{\n\"workload\": \"{workload}\",\n\"fingerprint\": {fingerprint_json},\n\"summary\": ["
        );
        for (i, (name, s)) in self.summary().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"{name}\", \"count\": {}, \"total_ms\": {:.6}, \"self_ms\": {:.6}}}",
                s.count, s.total_ms, s.self_ms
            );
        }
        out.push_str("\n],\n\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"rep\"],\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let name = *index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.rep
            );
        }
        out.push_str("\n],\n\"names\": [");
        for (i, name) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\"");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // rep [0, 10 ms] holds two steps of 3 ms and 4 ms; one step
        // holds a 1 ms grandchild
        let spans = [
            span("rep", 0, 10_000_000, NO_PARENT),
            span("step", 1_000_000, 4_000_000, 0),
            span("step", 5_000_000, 9_000_000, 0),
            span("inner", 5_500_000, 6_500_000, 2),
        ];
        let s = summarise(&spans);
        assert_eq!(s["rep"].count, 1);
        assert!((s["rep"].self_ms - 3.0).abs() < 1e-9);
        assert_eq!(s["step"].count, 2);
        assert!((s["step"].total_ms - 7.0).abs() < 1e-9);
        assert!((s["step"].self_ms - 6.0).abs() < 1e-9);
        assert!((s["inner"].self_ms - 1.0).abs() < 1e-9);
        // self times of a tree add up to its root's duration
        let total: f64 = s.values().map(|n| n.self_ms).sum();
        assert!((total - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_times_when_off() {
        let mut t = Tracer::new(true);
        t.open("rep");
        let (v, secs) = t.timed("step", || 7);
        t.close();
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let doc = t.to_json("w", "{}");
        assert!(doc.contains("\"names\": [\"rep\", \"step\"]"));

        let mut off = Tracer::new(false);
        off.open("rep");
        let (_, secs) = off.timed("step", || std::hint::black_box(1 + 1));
        off.close();
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
