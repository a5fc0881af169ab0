//! Wall-clock spans recorded by the benchmark around each call it makes
//! into a layer's public functions. Spans stay in memory and are written
//! once, at the end of a run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: name, start and end (ns since the log's origin) and
/// the enclosing span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the log.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified call name, e.g. `workload.run`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// Per-name totals over a log.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus the part child spans cover), seconds.
    pub self_s: f64,
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the currently
    /// open span; returns its result and the span's duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, Duration::from_nanos(end_ns - start_ns))
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name, in first-seen order.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut out: Vec<SpanTotals> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let i = match out.iter().position(|t| t.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(SpanTotals {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.len() - 1
                }
            };
            out[i].count += 1;
            out[i].total_s += s.duration_ns() as f64 / 1e9;
            out[i].self_s += self_ns as f64 / 1e9;
        }
        out
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    fn log(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            spans,
            ..SpanLog::default()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a.inner [15,35); root > b [50,90)
        let l = log(vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a.inner", 15, 35),
            span(3, Some(0), "b", 50, 90),
        ]);
        assert_eq!(l.self_ns(), vec![100 - 30 - 40, 30 - 20, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let l = log(vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "x", 10, 60),
            span(2, Some(0), "y", 40, 80),
        ]);
        assert_eq!(l.self_ns()[0], 100 - 70);
    }

    #[test]
    fn totals_sum_per_name() {
        let l = log(vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "run", 0, 60),
            span(2, None, "rep", 100, 200),
            span(3, Some(2), "run", 100, 180),
        ]);
        let t = l.totals();
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].name, t[0].count), ("rep", 2));
        assert!((t[0].total_s - 200e-9).abs() < 1e-15);
        assert!((t[0].self_s - 60e-9).abs() < 1e-15);
        assert!((t[1].self_s - 140e-9).abs() < 1e-15);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut l = SpanLog::default();
        let (v, outer) = l.span("outer", |l| l.span("inner", |_| 7).0);
        assert_eq!(v, 7);
        let s = l.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(outer.as_nanos() as u64, s[0].end_ns - s[0].start_ns);
        let jsonl = l.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\":0,\"name\":\"inner\""));
    }
}
