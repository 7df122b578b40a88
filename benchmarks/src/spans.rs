//! Benchmark-side spans: recorded around the calls the benchmark makes into
//! each layer, kept in memory, written out at exit. Nothing here reaches
//! into the program — spans inside the program are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `gnn.kernel`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled tracer records nothing and its
/// calls cost one branch, so the same workload code serves the untraced
/// runs that produce the end-to-end metrics.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; tracers of different threads share
    /// one epoch so their spans merge onto one timeline.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; the innermost open span becomes its parent.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Records an already-timed span (a client round trip measured on its
    /// own clock reads) under the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (a client thread's), re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name totals of a trace: `(count, total ns, self ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
    }
    totals
}

/// Renders a trace as JSON: a `summary` (per name: count, total and self
/// milliseconds) followed by the raw `spans`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"summary\":{{"
    );
    for (i, (name, (count, total, own))) in totals_by_name(spans).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"count\":{count},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out.push_str("},\"spans\":[\n");
    for (i, (span, own)) in spans.iter().zip(own).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start\":{},\"end\":{},\"self\":{own}}}",
            span.name, span.op, span.start_ns, span.end_ns
        );
    }
    out.push_str("\n]}\n");
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
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; root ⊃ b [50,90].
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"], (1, 100, 30));
        assert_eq!(totals["a"], (1, 30, 20));
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true, Instant::now());
        let value = tracer.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1 + 1);
            t.span("inner", 7, |_| ());
            41 + 1
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns && spans[1].start_ns >= spans[0].start_ns);
        let own = self_times(spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("outer", 1, |t| t.span("inner", 1, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_json_lists_every_span() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        main.span("main", 0, |_| ());
        let mut client = Tracer::new(true, epoch);
        client.span("request", 3, |t| t.span("child", 3, |_| ()));
        main.absorb(client);
        assert_eq!(main.spans()[2].parent, Some(1));
        let json = to_json("w", 9, main.spans());
        assert_eq!(json.matches("\"id\":").count(), 3);
        assert!(json.contains("\"summary\"") && json.contains("\"child\""));
    }
}
