//! In-memory spans recorded from outside each layer: one span around every
//! call into a layer's public functions, written out when the run ends.
//!
//! The tracer is switched off for every end-to-end measurement; `open` then
//! neither reads the clock nor allocates, which is what the traced half of a
//! `--trace 1` run is compared against for `trace.overhead_pct`.

use std::time::Instant;

use crate::json::Value;
use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request, call or iteration number, shared by a span and its children.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` while the tracer is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now. Children pass the returned handle as `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: SpanId) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `call` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = call();
        self.close(span);
        out
    }

    /// Records a span whose ends were measured elsewhere (a serving request's
    /// stages are rebuilt from its `Response` after it resolved).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration of the spans called `name`, in milliseconds.
    pub fn p50_ms(&self, name: &str) -> f64 {
        stats::percentile_of(&self.durations_ms(name), 50.0)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let self_ns = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, own)| {
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("id", Value::Num(s.id as f64)),
                    ("self_ns", Value::Num(*own as f64)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::str(workload)),
            ("seed", Value::Num(seed as f64)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Checks that spans nest: a child lies inside its parent's interval, was
/// recorded after it, and carries its request id.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (index, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!(
                "span {index} `{}` ends before it starts",
                span.name
            ));
        }
        let Some(parent) = span.parent else { continue };
        if parent >= index {
            return Err(format!("span {index} `{}` precedes its parent", span.name));
        }
        let p = &spans[parent];
        if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
            return Err(format!(
                "span {index} `{}` [{}, {}] lies outside its parent `{}` [{}, {}]",
                span.name, span.start_ns, span.end_ns, p.name, p.start_ns, p.end_ns
            ));
        }
        if span.id != p.id {
            return Err(format!(
                "span {index} `{}` has id {} but its parent `{}` has id {}",
                span.name, span.id, p.name, p.id
            ));
        }
    }
    Ok(())
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
            id: 3,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("queue", 10, 40, Some(0)),
            // Overlaps `queue` for 10 ns: the union covers 10..70.
            span("service", 30, 70, Some(0)),
            span("route", 35, 45, Some(2)),
            // A child poking past its parent only counts inside it.
            span("late", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10, 30]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = vec![span("only", 5, 25, None)];
        assert_eq!(self_times_ns(&spans), vec![20]);
    }

    #[test]
    fn nesting_check_accepts_well_formed_and_names_the_defect() {
        let good = vec![
            span("request", 0, 100, None),
            span("queue", 0, 40, Some(0)),
            span("service", 40, 100, Some(0)),
        ];
        assert_eq!(check_nesting(&good), Ok(()));

        let mut outside = good.clone();
        outside[2].end_ns = 101;
        assert!(check_nesting(&outside).unwrap_err().contains("outside"));

        let mut other_id = good.clone();
        other_id[1].id = 4;
        assert!(check_nesting(&other_id).unwrap_err().contains("id"));

        let mut forward = good;
        forward[1].parent = Some(2);
        assert!(check_nesting(&forward).unwrap_err().contains("precedes"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tracer = Tracer::new(false);
        let root = tracer.open("a", None, 0);
        assert_eq!(root, None);
        tracer.close(root);
        assert_eq!(tracer.within("b", root, 0, || 7), 7);
        let now = Instant::now();
        assert_eq!(tracer.record("c", None, 0, now, now), None);
        assert!(tracer.spans().is_empty());

        tracer.set_on(true);
        let root = tracer.open("a", None, 9);
        tracer.within("b", root, 9, || ());
        tracer.close(root);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(check_nesting(tracer.spans()), Ok(()));
        assert_eq!(tracer.durations_ms("b").len(), 1);
    }
}
