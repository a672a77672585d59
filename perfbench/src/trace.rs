//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name of the form `<layer>.<call>`, a start and end on
//! one monotonic clock, the span that was open when it began (its
//! parent), and the id of the job it served, if any. Spans stay in
//! memory while the traced run measures and are written out once at the
//! end. A layer's self time is the total duration of its spans minus the
//! part of each span that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The job this span served.
    pub job: Option<u64>,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Single-threaded: spans nest strictly.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before it is
    /// closed.
    pub fn enter(&mut self, name: &'static str, job: Option<u64>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, job);
        let r = f();
        self.exit(id);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded from index `from` on.
    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Total duration of spans named `name` among `spans`, in seconds.
    pub fn total_secs(spans: &[Span], name: &str) -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Self time per layer, in seconds. Children of one span never
    /// overlap (spans nest on one thread), so a span's self time is its
    /// duration minus the sum of its children's durations.
    pub fn self_secs_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) +=
                s.duration_ns().saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// The first `limit` spans as JSON lines: one object per span with
    /// `id`, `name`, `start_ns`, `end_ns`, `parent` and `job`.
    pub fn to_json_lines(&self, limit: usize) -> String {
        let mut out = String::with_capacity(self.spans.len().min(limit) * 96);
        for (id, s) in self.spans.iter().take(limit).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.job)
            );
        }
        out
    }
}

/// Run `f` inside a span when tracing, or bare when not.
pub fn maybe_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    job: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, job, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.enter("bench.round", None);
        t.span("cluster.offer", Some(7), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, Some(7));
        let selfs = t.self_secs_by_layer();
        let total = spans[0].duration_ns() as f64 / 1e9;
        assert!((selfs["bench"] + selfs["cluster"] - total).abs() < 1e-9);
        assert!(selfs["cluster"] >= 0.002);
        assert!(t.to_json_lines(2).contains("\"parent\":0,\"job\":7"));
    }
}
