//! Benchmark-side spans around calls into the repository's layers.
//!
//! Spans are recorded from outside the program: each wraps one call made
//! through `entry.rs`. They stay in memory until the run ends and are then
//! written as NDJSON. A span's self time is its duration minus the time its
//! direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.session`.
    pub name: &'static str,
    /// Trial the span belongs to (0 = outside any trial).
    pub trial: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::open`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Records spans while `recording` is on; costs one branch otherwise.
pub struct Tracer {
    origin: Instant,
    /// Spans are recorded only while this is set.
    pub recording: bool,
    /// Stamped on every span opened from now on.
    pub trial: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

const NOT_RECORDED: u32 = u32::MAX;

impl Tracer {
    /// A tracer that records nothing until `recording` is switched on.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            trial: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.recording {
            return SpanId(NOT_RECORDED);
        }
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            trial: self.trial,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        SpanId(index)
    }

    /// Closes `id` (which must be the innermost open span) and returns its
    /// duration in ns; 0 for a span that was not recorded.
    pub fn close(&mut self, id: SpanId) -> u64 {
        if id.0 == NOT_RECORDED {
            return 0;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        let now = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes one JSON object per span: name, trial, start, end, parent,
    /// self time.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trial\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.name, s.trial, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: duration minus the durations of its direct
/// children (children of one parent never overlap — spans nest strictly).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            trial: 1,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("trial", 0, 100, None),
            span("batch", 10, 90, Some(0)),
            span("session", 20, 40, Some(1)),
            span("session", 50, 85, Some(1)),
            span("check", 92, 99, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![13, 25, 20, 35, 7]);
        let t = totals(&spans);
        assert_eq!(
            t["session"],
            Total {
                count: 2,
                total_ns: 55,
                self_ns: 55
            }
        );
        assert_eq!(t["batch"].self_ns, 25);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_ignores_spans_while_not_recording() {
        let mut t = Tracer::new();
        let ignored = t.open("ignored");
        assert_eq!(t.close(ignored), 0);
        assert!(t.spans().is_empty());

        t.recording = true;
        t.trial = 3;
        let outer = t.open("outer");
        let inner = t.open("inner");
        let inner_ns = t.close(inner);
        assert!(t.close(outer) >= inner_ns);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].trial, 3);
        assert!(t.spans()[0].duration_ns() >= t.spans()[1].duration_ns());
        assert_eq!(t.durations_ns("inner").len(), 1);
    }
}
