//! An in-memory span recorder: name, start, end, parent and query id per
//! span, kept per driver thread and written as JSON lines at exit.
//!
//! Spans are recorded around the benchmark's own calls into each layer.
//! Where a layer runs inside the program (a site scan, a sync merge), its
//! span is derived from the durations the program already returns
//! (`ExecMetrics`, the reply summary) and laid out inside its parent.
//!
//! A span's *self time* is its duration minus its children's durations.
//! Summed over every span of a query this telescopes to the root's
//! duration exactly, so per-layer self times add up to the query wall;
//! whatever no layer claims stays on the root (and on `warehouse.exec`)
//! and is reported as `unattributed`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One driver thread's spans. Ids are unique across recorders that share
/// an origin but were created with different `thread` numbers.
pub struct Recorder {
    origin: Instant,
    base: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: u64) -> Recorder {
        Recorder {
            origin,
            base: thread << 40,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        query: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.base + self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Record consecutive children of `parent` from `start_ns`, one per
    /// `(name, duration)`, and return their ids.
    pub fn lay_out(
        &mut self,
        parent: u64,
        query: u64,
        start_ns: u64,
        parts: &[(&'static str, u64)],
    ) -> Vec<u64> {
        let mut at = start_ns;
        parts
            .iter()
            .map(|&(name, dur)| {
                let id = self.record(name, Some(parent), query, at, at + dur);
                at += dur;
                id
            })
            .collect()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span (same order as `spans`): its duration minus
/// the durations of its direct children. Negative when derived children
/// claim more than their parent measured.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Mean per-query self time by layer over the queries whose root span is
/// named `root`, with the mean root duration (the query wall).
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    pub queries: usize,
    pub wall_ms: f64,
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    pub fn get(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0)
    }
}

pub fn breakdown(spans: &[Span], root: &str) -> Breakdown {
    let queries: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| (s.query, s.dur_ns()))
        .collect();
    let n = queries.len().max(1) as f64;
    let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if queries.contains_key(&s.query) {
            *self_ms.entry(s.name).or_default() += t as f64 / 1e6 / n;
        }
    }
    Breakdown {
        queries: queries.len(),
        wall_ms: queries.values().sum::<u64>() as f64 / 1e6 / n,
        self_ms,
    }
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{},"parent":{},"query":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, parent, s.query, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, query: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            query,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 1, "query", 0, 100),
            span(1, Some(0), 1, "exec", 10, 90),
            span(2, Some(1), 1, "site", 10, 40),
            span(3, Some(1), 1, "sync", 40, 60),
            span(4, Some(3), 1, "merge", 40, 55),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 5, 15]);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span(0, None, 1, "query", 0, 100),
            span(1, Some(0), 1, "serve", 0, 30),
            span(2, Some(1), 1, "plan", 0, 45),
            span(3, Some(0), 1, "exec", 30, 100),
        ];
        let t = self_times(&spans);
        // Over-claiming children leave a negative self time, and the sum
        // still telescopes to the root's duration.
        assert_eq!(t[1], -15);
        assert_eq!(t.iter().sum::<i64>(), 100);
    }

    #[test]
    fn breakdown_averages_per_query_and_sums_to_wall() {
        let spans = vec![
            span(0, None, 1, "query", 0, 2_000_000),
            span(1, Some(0), 1, "exec", 0, 1_500_000),
            span(2, None, 2, "query", 0, 4_000_000),
            span(3, Some(2), 2, "exec", 0, 3_500_000),
            span(4, None, 3, "refresh", 0, 9_000_000),
        ];
        let b = breakdown(&spans, "query");
        assert_eq!(b.queries, 2);
        assert!((b.wall_ms - 3.0).abs() < 1e-12);
        assert!((b.get("exec") - 2.5).abs() < 1e-12);
        assert!((b.get("query") - 0.5).abs() < 1e-12);
        assert_eq!(b.get("refresh"), 0.0);
        let total: f64 = b.self_ms.values().sum();
        assert!((total - b.wall_ms).abs() < 1e-9);
    }

    #[test]
    fn recorder_lays_out_children_in_sequence() {
        let mut r = Recorder::new(Instant::now(), 1);
        let root = r.record("query", None, 7, 100, 200);
        let ids = r.lay_out(root, 7, 100, &[("a", 30), ("b", 50)]);
        let spans = r.into_spans();
        assert_eq!(root, 1 << 40);
        assert_eq!(ids, vec![(1 << 40) + 1, (1 << 40) + 2]);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (100, 130));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (130, 180));
        assert_eq!(self_times(&spans)[0], 20);
    }
}
