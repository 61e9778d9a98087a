//! In-memory spans for the traced run, recorded by the benchmark around
//! its own calls into each crate, and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call (or batch of calls) into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.bank_observe`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Span recorder for one traced run. Spans on worker threads are
/// recorded with [`Tracer::origin`] timestamps and added afterwards with
/// [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// ns since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.record(name, self.now(), 0, self.open.last().copied());
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end = self.now();
        out
    }

    /// Adds a finished span and returns its index.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// The innermost open span, parent for spans recorded elsewhere.
    pub fn current(&self) -> Option<u32> {
        self.open.last().copied()
    }

    /// Per span name: `(count, total ns, self ns)`. Self time is a
    /// span's duration minus the part of it its children cover (the
    /// union of their intervals, so overlapping children on parallel
    /// threads are not subtracted twice).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end.saturating_sub(s.start);
            let covered = covered(kids, s.start, s.end);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total - covered.min(total);
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                self.run_id,
                s.name,
                s.start,
                s.end,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            );
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(1);
        let root = t.record("root", 0, 100, None);
        t.record("a", 10, 40, Some(root));
        t.record("b", 30, 60, Some(root)); // overlaps a on another thread
        t.record("c", 90, 120, Some(root)); // clipped at the parent's end
        let times = t.self_times();
        assert_eq!(times["root"], (1, 100, 100 - 50 - 10));
        assert_eq!(times["a"], (1, 30, 30));
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(7);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.to_json_lines().contains("\"run\":7"));
    }
}
