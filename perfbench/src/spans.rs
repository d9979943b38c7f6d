//! Bench-side spans: each call the benchmark makes into a layer's
//! public API is wrapped in a span (name, start, end, parent, solve
//! id). Spans stay in memory and are written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.epoch`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Solve the span belongs to (0 = set-up).
    pub solve: u64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder for one thread of calls. Spans nest like
/// the calls they wrap: a span opened while another is open becomes
/// its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    solve: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            solve: 0,
        }
    }

    /// Tag the spans opened from now on with solve id `solve`.
    pub fn set_solve(&mut self, solve: u64) {
        self.solve = solve;
    }

    /// Open a span; it is the child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            solve: self.solve,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Close every open span now (after a caught panic unwound
    /// through spans that never closed).
    pub fn close_open(&mut self) {
        let now = self.origin.elapsed().as_secs_f64();
        for id in self.open.drain(..) {
            self.spans[id].end = now;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"solve\":{}}}",
                s.name, s.start, s.end, s.solve
            )?;
        }
        Ok(())
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once; a
/// child's time outside the parent is ignored).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let p = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(p.start), s.end.min(p.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    p.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            solve: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            // Grandchild: already inside `b`, not subtracted from root.
            span("b.inner", 5.0, 6.0, Some(2)),
        ];
        assert_eq!(self_time(&spans, 0), 4.0);
        assert_eq!(self_time(&spans, 2), 3.0);
        assert_eq!(self_time(&spans, 3), 1.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 5.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // Covered: [1, 5] and [9, 10] → 5 s.
        assert_eq!(self_time(&spans, 0), 5.0);
    }

    #[test]
    fn tracer_nests_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new();
        t.set_solve(7);
        let root = t.begin("root");
        t.span("a", || std::hint::black_box(0));
        let it = t.begin("iteration");
        t.span("b", || std::hint::black_box(0));
        t.end(it);
        t.end(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[3].parent, Some(it));
        assert!(s.iter().all(|x| x.solve == 7 && x.end >= x.start));
        let total: f64 = (0..s.len()).map(|i| self_time(s, i)).sum();
        assert!((total - s[root].duration()).abs() < 1e-12);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
