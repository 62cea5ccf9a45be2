//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer's public API. Spans of one request (a dialogue turn, a SQL
//! statement, a set-up) share the request id; a span's parent is the
//! span that was open when it began. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to.
    pub id: u64,
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans; every call is a no-op while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of spans begun and not yet ended, innermost last.
    open: Vec<usize>,
    next_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a request's root span under a fresh id.
    pub fn begin_request(&mut self, name: &'static str) {
        self.next_id += 1;
        self.begin(name);
    }

    /// Open a span inside the current request.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            id: self.next_id,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Close the innermost open span, naming it only now (for spans
    /// whose kind is known once the call returns).
    pub fn end_as(&mut self, name: &'static str) {
        if let Some(&i) = self.open.last() {
            self.spans[i].name = name;
        }
        self.end();
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of the spans called `name`, optionally
    /// only those whose parent is called `parent`.
    pub fn durations_us(&self, name: &str, parent: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| match parent {
                Some(p) => s.parent.is_some_and(|i| self.spans[i].name == p),
                None => true,
            })
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// The tracer's cost relative to the work it traces: over every
    /// request whose root span is named in `roots`, the roots' self time
    /// divided by the time their child spans cover, in percent. A root's
    /// self time is everything a traced request does outside the calls
    /// into the layers: the tracer's bookkeeping and a few instructions
    /// of glue between the calls. NaN when no such request has children.
    pub fn overhead_pct(&self, roots: &[&str]) -> f64 {
        let self_ns = self_times_ns(&self.spans);
        let (mut own, mut traced) = (0u64, 0u64);
        for (s, &own_ns) in self.spans.iter().zip(&self_ns) {
            if s.parent.is_none() && roots.contains(&s.name) && s.duration_ns() > own_ns {
                own += own_ns;
                traced += s.duration_ns() - own_ns;
            }
        }
        if traced == 0 {
            return f64::NAN;
        }
        own as f64 / traced as f64 * 100.0
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times_ns(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 1,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps a by 10
            span("leaf", Some(1), 15, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", None, 10, 20), span("kid", Some(0), 0, 15)];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_and_shares_request_ids() {
        let mut t = Tracer::new(true);
        t.begin_request("turn");
        t.span("nlu.parse", || ());
        t.begin("agent.respond");
        t.end_as("agent.other");
        t.end();
        t.begin_request("turn");
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!(s[2].name, "agent.other");
        assert_eq!((s[0].id, s[2].id, s[3].id), (1, 1, 2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(t.durations_us("agent.other", Some("turn")).len(), 1);
        assert!(t.durations_us("agent.other", Some("nlu.parse")).is_empty());
    }

    #[test]
    fn overhead_is_root_self_time_over_child_time() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("turn", None, 0, 110),
            span("agent.other", Some(0), 5, 105),
            span("turn", None, 200, 230),
            span("agent.execute", Some(2), 210, 230),
            span("setup", None, 300, 400), // not a listed root
            span("setup.load", Some(4), 300, 310),
            span("turn", None, 500, 510), // no children: not counted
        ];
        assert!((t.overhead_pct(&["turn"]) - 20.0 / 120.0 * 100.0).abs() < 1e-9);
        assert!(t.overhead_pct(&["nlu.parse"]).is_nan());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_request("turn");
        assert_eq!(t.span("x", || 7), 7);
        t.end();
        assert!(t.spans().is_empty());
    }
}
