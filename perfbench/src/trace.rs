//! Spans recorded around the benchmark's calls into each layer.
//!
//! The tracer lives in the benchmark, not in the program: every span wraps
//! one call from benchmark code into a layer's public function. Spans are
//! kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The plan this span belongs to.
    pub plan: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder plus named counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    plan: u64,
    last_ns: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            plan: 0,
            last_ns: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to `plan`.
    pub fn set_plan(&mut self, plan: u64) {
        self.plan = plan;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            plan: self.plan,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        self.last_ns = self.spans[index].duration_ns();
        out
    }

    /// Duration of the most recently closed span.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Moves `other`'s spans and counters into `self` (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total self time and call count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_insert((0, 0));
        entry.0 += self_ns;
        entry.1 += 1;
    }
    out
}

/// Largest |Σ self time − root duration| over every root span, in ns.
/// Zero when the spans nest properly.
pub fn max_root_residual_ns(spans: &[Span]) -> u64 {
    let selfs = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        // Parents precede children, so the parent's root is already known.
        root_of[i] = span.parent.map_or(i, |p| root_of[p]);
        *sums.entry(root_of[i]).or_insert(0) += selfs[i];
    }
    sums.iter()
        .map(|(&root, &sum)| sum.abs_diff(spans[root].duration_ns()))
        .max()
        .unwrap_or(0)
}

/// The spans as a JSON array, one object per line, with self times.
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"plan\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.plan, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            plan: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("plan", 0, 100, None),
            span("replay", 10, 60, Some(0)),
            span("scan", 20, 50, Some(1)),
            span("run", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        assert_eq!(max_root_residual_ns(&spans), 0);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorded_spans_nest_and_sum_to_the_root() {
        let mut tr = Tracer::new(Instant::now());
        tr.set_plan(7);
        tr.span("plan", |tr| {
            tr.span("engine.run_plan", |_| {
                std::hint::black_box((0..1000).sum::<u64>())
            });
            tr.span("replay", |tr| {
                tr.span("storage.covering", |_| ());
                tr.span("storage.scan", |_| ());
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert!(spans.iter().all(|s| s.plan == 7));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(max_root_residual_ns(spans), 0);
        let by_name = self_time_by_name(spans);
        let total: u64 = by_name.values().map(|&(ns, _)| ns).sum();
        assert_eq!(total, spans[0].duration_ns());
        assert_eq!(tr.last_ns(), spans[0].duration_ns());
    }

    #[test]
    fn last_ns_skips_open_spans() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            let inner = tr.spans()[1].duration_ns();
            assert_eq!(tr.last_ns(), inner);
        });
    }

    #[test]
    fn absorb_reindexes_parents_and_sums_counters() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", |_| ());
        a.count("rows", 2.0);
        let mut b = Tracer::new(epoch);
        b.span("y", |tr| tr.span("z", |_| ()));
        b.count("rows", 3.0);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counter("rows"), 5.0);
        assert_eq!(max_root_residual_ns(a.spans()), 0);
    }

    #[test]
    fn json_lists_every_span() {
        let spans = vec![span("plan", 0, 10, None), span("scan", 2, 5, Some(0))];
        let json = spans_json(&spans);
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\":\"scan\",\"plan\":0,\"parent\":0"));
        assert!(json.contains("\"self_ns\":7"));
    }
}
