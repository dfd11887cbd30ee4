//! In-memory spans for the traced replay: each call into a layer is timed as
//! a named span with a start, an end, the span that caused it and the sweep
//! cell it served. Spans stay in memory until the replay ends, then travel to
//! the parent process as JSON, which writes the trace file and derives self
//! time per layer.

use std::collections::BTreeMap;
use std::time::Instant;

use dscs_simcore::json::JsonValue;

/// One timed call. Times are seconds since the replay started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span; `None` for the root.
    pub parent: Option<usize>,
    /// The sweep cell (grid-order index) the span worked for, if any.
    pub cell: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.push("name", self.name.as_str());
        obj.push("start_s", self.start_s);
        obj.push("end_s", self.end_s);
        obj.push(
            "parent",
            self.parent.map_or(JsonValue::Null, JsonValue::from),
        );
        obj.push("cell", self.cell.map_or(JsonValue::Null, JsonValue::from));
        obj
    }

    pub fn from_json(value: &JsonValue) -> Option<Span> {
        let index = |key: &str| match value.get(key)? {
            JsonValue::Null => Some(None),
            other => other.as_u64().map(|i| Some(i as usize)),
        };
        Some(Span {
            name: value.get("name")?.as_str()?.to_string(),
            start_s: value.get("start_s")?.as_f64()?,
            end_s: value.get("end_s")?.as_f64()?,
            parent: index("parent")?,
            cell: index("cell")?,
        })
    }
}

/// Records nested spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span inside the innermost open one and returns its index.
    pub fn enter(&mut self, name: &str, cell: Option<usize>) -> usize {
        let start_s = self.now_s();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_s = self.now_s();
    }

    /// Times `call` as one span with no children.
    pub fn span<T>(&mut self, name: &str, cell: Option<usize>, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name, cell);
        let out = call();
        self.exit(id);
        out
    }

    /// Renames span `id`, for a layer that is known only once its call
    /// returns (which engine ran a cell).
    pub fn rename(&mut self, id: usize, name: &str) {
        self.spans[id].name = name.to_string();
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time per span name: each span's duration minus the time its direct
/// children cover, summed over all spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.duration_s();
        }
    }
    let mut totals = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_time) {
        *totals.entry(span.name.clone()).or_insert(0.0) += span.duration_s() - children;
    }
    totals
}

/// Seconds covered by the children of root spans: the time the trace names.
pub fn attributed_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].parent.is_none()))
        .map(Span::duration_s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_s,
            end_s,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("replay", 0.0, 10.0, None),
            span("cell", 1.0, 5.0, Some(0)),
            span("build", 1.0, 1.5, Some(1)),
            span("engine", 1.5, 4.5, Some(1)),
            span("cell", 5.0, 9.0, Some(0)),
            span("engine", 5.5, 8.5, Some(4)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["replay"], 2.0);
        assert_eq!(times["cell"], 0.5 + 1.0);
        assert_eq!(times["build"], 0.5);
        assert_eq!(times["engine"], 6.0);
        assert_eq!(attributed_s(&spans), 8.0);
    }

    #[test]
    fn tracer_nests_spans_and_round_trips_through_json() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("replay", None);
        let cell = tracer.enter("cell", Some(3));
        let value = tracer.span("engine", Some(3), || 7);
        tracer.rename(2, "sim.lanes");
        tracer.exit(cell);
        tracer.exit(root);
        assert_eq!(value, 7);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].name, "sim.lanes");
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(1)));
        assert!(spans.iter().all(|s| s.end_s >= s.start_s));
        for span in &spans {
            let text = span.to_json().render();
            let parsed = JsonValue::parse(&text).expect("span JSON parses");
            assert_eq!(Span::from_json(&parsed).as_ref(), Some(span));
        }
    }
}
