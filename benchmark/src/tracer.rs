//! Spans recorded from outside the crates: every span is opened and
//! closed by benchmark code around a call into one layer's public
//! function. Spans stay in memory and are written out once, when the
//! traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `sim.run_until`.
    pub name: &'static str,
    /// The crate whose code the span covers.
    pub layer: &'static str,
    /// The cell (or probe) the call served; empty when not tied to one.
    pub cell: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// For an aggregate span: how many calls its duration sums. Zero for
    /// a plain span. An aggregate stands for calls too frequent to
    /// record one by one (endpoint polls); only its duration and count
    /// are meaningful, it starts where its parent starts.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with an explicit parent stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, cell: &str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            cell: cell.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 0,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span. Returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns()
    }

    /// Run `f` inside a span; returns `f`'s value and the span's
    /// duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        cell: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let id = self.enter(name, layer, cell);
        let value = f(self);
        let ns = self.exit(id);
        (value, ns)
    }

    /// Record `calls` calls that took `busy_ns` in total as one
    /// aggregate child of `parent`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        busy_ns: u64,
        calls: u64,
    ) {
        let start_ns = self.spans[parent].start_ns;
        let cell = self.spans[parent].cell.clone();
        self.spans.push(Span {
            name,
            layer,
            cell,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            calls,
        });
    }

    /// A span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Total duration of every span of `layer` that has no ancestor in
    /// the same layer (so nested spans of one layer count once).
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && !self.has_ancestor_in_layer(s, layer))
            .map(Span::duration_ns)
            .sum()
    }

    fn has_ancestor_in_layer(&self, span: &Span, layer: &str) -> bool {
        let mut parent = span.parent;
        while let Some(id) = parent {
            if self.spans[id].layer == layer {
                return true;
            }
            parent = self.spans[id].parent;
        }
        false
    }

    /// One JSON object per line, in recording order; `id` is the line's
    /// index so `parent` can refer to it.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":{},\"layer\":{},\"workload\":{},\"cell\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
                crate::json::quote(s.name),
                crate::json::quote(s.layer),
                crate::json::quote(workload),
                crate::json::quote(&s.cell),
                s.start_ns,
                s.end_ns,
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            if s.calls > 0 {
                let _ = write!(out, ",\"aggregate_of_calls\":{}", s.calls);
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::default();
        let root = t.enter("rep", "bench", "c");
        let child = t.enter("sim.run_until", "sim", "c");
        t.exit(child);
        t.exit(root);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 1_000;
        t.spans[child].start_ns = 100;
        t.spans[child].end_ns = 700;
        t.aggregate("endpoint.poll", "core", child, 250, 40);
        t.aggregate("endpoint.on_packet", "core", child, 50, 10);

        assert_eq!(
            t.self_ns(root),
            400,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(t.self_ns(child), 300, "600 − (250 + 50)");
        assert_eq!(t.spans[child].parent, Some(root));
        assert_eq!(t.layer_ns("core"), 300);
        assert_eq!(t.layer_ns("sim"), 600);
        assert_eq!(t.layer_ns("tunnel"), 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_parent_links() {
        let mut t = Tracer::default();
        let (_, _) = t.span("outer", "bench", "cell \"x\"", |t| {
            t.span("inner", "cache", "", |_| ());
        });
        let text = t.to_jsonl("resume-warm");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[0].contains("\"cell\":\"cell \\\"x\\\"\""));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"workload\":\"resume-warm\""));
        for line in lines {
            crate::json::parse(line).expect("every line parses");
        }
    }
}
