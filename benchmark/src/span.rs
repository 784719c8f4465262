//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{id, parent, op, name = <layer>.<call>, start_ns, end_ns,
//! count}`: spans of one rep / request / batch share `op`, and `count`
//! is the number of layer operations inside (1 for a single call, N for
//! a block of N codec calls timed as one, because a 30 ns call cannot be
//! timed by two clock reads of 25 ns each). Spans stay in memory and are
//! written out when the workload ends. A layer's **self time** is its
//! span's duration minus the part of it that its child spans cover.
//!
//! With tracing off every method is one branch, so the untraced run
//! measures the system and not the tracer.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// Token of an open span; hand it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open(Option<u32>);

/// Self-time samples and operation count of every span of one name.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Self time of each span, in nanoseconds.
    pub self_ns: Vec<u64>,
    /// Sum of the spans' `count` fields.
    pub count: u64,
}

impl NameStats {
    /// Median self time of one span, in seconds.
    pub fn median_s(&self) -> f64 {
        crate::stats::median_ns(&self.self_ns) / 1e9
    }

    /// Total self time divided by total count, in nanoseconds — the
    /// per-operation cost of block spans.
    pub fn ns_per_op(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns.iter().sum::<u64>() as f64 / self.count as f64
    }
}

/// A single-threaded span recorder. Each client thread owns one and the
/// main thread [`absorb`](Tracer::absorb)s them when the window closes.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`; `on == false`
    /// records nothing.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A disabled recorder.
    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    /// A recorder for another thread: same switch, same clock origin,
    /// operation ids in their own range.
    pub fn for_thread(&self, thread: u64) -> Self {
        Self {
            op: thread << 48,
            ..Self::new(self.on, self.origin)
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start the next operation (rep / request / batch): spans recorded
    /// from now on share a fresh `op` id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: now,
            end_ns: now,
            count: 1,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span that covered `count` layer operations.
    pub fn exit_counted(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let now = self.ns(Instant::now());
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Close a span around a single call.
    pub fn exit(&mut self, open: Open) {
        self.exit_counted(open, 1);
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Run `f`, which performs `count` layer operations, inside one
    /// block span.
    pub fn time_block<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit_counted(open, count);
        out
    }

    /// Record a finished span from two clock reads the caller already
    /// took (the request loop times every request anyway).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count: 1,
        });
    }

    /// Take over another thread's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + shift,
            parent: s.parent.map(|p| p + shift),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                (s.end_ns - s.start_ns) - cover(kids, s.start_ns, s.end_ns)
            })
            .collect()
    }

    /// Self-time samples and counts grouped by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.self_ns.push(self_ns);
            e.count += s.count;
        }
        out
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}{comma}",
                s.id, s.op, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Length of the union of the sorted intervals `kids`, clipped to
/// `[lo, hi]`.
fn cover(kids: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in kids {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::new(true, Instant::now())
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t = tracer_with(vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 40, 70),
            span(3, Some(2), "c", 45, 50),
        ]);
        assert_eq!(t.self_times(), vec![50, 20, 25, 5]);
    }

    /// Children recorded from another thread's clock reads may overlap
    /// each other or stick out of the parent; the cover is their union
    /// clipped to the parent.
    #[test]
    fn overlapping_and_protruding_children_are_not_double_counted() {
        let t = tracer_with(vec![
            span(0, None, "rep", 100, 200),
            span(1, Some(0), "a", 90, 130),
            span(2, Some(0), "b", 120, 150),
            span(3, Some(0), "c", 190, 260),
        ]);
        // Cover = [100,150] ∪ [190,200] = 60.
        assert_eq!(t.self_times()[0], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let open = t.enter("x");
        t.exit(open);
        assert_eq!(t.time("y", || 7), 7);
        t.record("z", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_block_counts_and_absorb() {
        let mut t = Tracer::new(true, Instant::now());
        t.next_op();
        let rep = t.enter("rep");
        t.time_block("codec", 1000, || std::hint::black_box(3));
        t.exit(rep);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].count, 1000);
        assert_eq!(t.spans()[0].op, 1);

        let mut other = t.for_thread(1);
        other.next_op();
        let outer = other.enter("request");
        other.time("inner", || ());
        other.exit(outer);
        t.absorb(other);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].id, 3);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[2].op, (1 << 48) + 1);
        let names = t.by_name();
        assert_eq!(names["codec"].count, 1000);
        assert_eq!(names["rep"].self_ns.len(), 1);
    }

    #[test]
    fn per_op_cost_of_block_spans() {
        let t = tracer_with(vec![
            Span {
                count: 100,
                ..span(0, None, "codec", 0, 3_000)
            },
            Span {
                count: 300,
                ..span(1, None, "codec", 5_000, 10_000)
            },
        ]);
        assert_eq!(t.by_name()["codec"].ns_per_op(), 20.0);
    }
}
