//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time arithmetic over them.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, interval (ns since the recorder started), the
/// span it ran inside, and the request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `trace.interp_plain`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the request in the stream.
    pub request: usize,
}

impl Span {
    /// The span's wall time in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer a span name belongs to: the text before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory; nothing is written until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: usize) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        let spans = vec![
            span("serve.request", 0, 100, None),
            // Back-to-back children: [10, 30) then [30, 45).
            span("core.prepare", 10, 30, Some(0)),
            span("core.align", 30, 45, Some(0)),
            // A child with its own nested child.
            span("vmsim.report", 50, 90, Some(0)),
            span("vmsim.sim_per_ref", 55, 70, Some(3)),
            // Overlapping siblings count their union once.
            span("serve.encode", 60, 80, Some(3)),
            // A grandchild never counts against its grandparent.
            span("lang.parse", 62, 64, Some(5)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 20 - 15 - 40, 20, 15, 40 - 25, 15, 18, 2]
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("a.x", 10, 20, None), span("b.y", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_names_layers() {
        let mut r = Recorder::new();
        let root = r.begin("serve.request", 3);
        let v = r.time("lang.parse", 3, || 7);
        r.end(root);
        assert_eq!(v, 7);
        let s = r.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].layer(), "lang");
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(r.to_jsonl().lines().count(), 2);
    }
}
