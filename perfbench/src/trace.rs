//! The benchmark's own spans: one per call into a layer's public entry
//! point, kept in memory and written out when the run ends.

use serde_json::{Number, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run (ids start at 1).
    pub id: u64,
    /// The span that made this call, if any.
    pub parent: Option<u64>,
    /// The operation the span belongs to: one technology study,
    /// scenario or request.
    pub op: u64,
    /// Layer call, e.g. `context.layout`.
    pub name: String,
    /// Free-form tag (a technology, a request class).
    pub tag: String,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

/// Span recorder. A disabled tracer still times each call (so traced
/// and untraced passes run the same code) but keeps nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds. `f` receives the span id, to pass as
    /// the parent of nested calls.
    pub fn span<T>(
        &self,
        name: &str,
        tag: &str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        let ms = end.duration_since(start).as_secs_f64() * 1000.0;
        if self.enabled {
            let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
            let span = Span {
                id,
                parent,
                op,
                name: name.to_string(),
                tag: tag.to_string(),
                start_us: us(start),
                end_us: us(end),
            };
            self.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(span);
        }
        (out, ms)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Self time of every span, ms: its duration minus the part of its
/// interval that its children cover. Overlapping children (calls made
/// in parallel) are merged before subtracting, so a span's self time is
/// never negative.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let lo = s.start_us.max(parent.start_us);
            let hi = s.end_us.min(parent.end_us);
            if hi > lo {
                children.entry(parent.id).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut intervals = children.remove(&s.id).unwrap_or_default();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for (lo, hi) in intervals {
                current = match current {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((lo, hi)) = current {
                covered += hi - lo;
            }
            (s.id, (s.end_us - s.start_us - covered) / 1000.0)
        })
        .collect()
}

/// The spans as a JSON array, each with its self time.
pub fn to_json(spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    let num = |x: f64| Value::Number(Number::F64(x));
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), s.id.into()),
                    ("parent".into(), s.parent.map_or(Value::Null, Value::from)),
                    ("op".into(), s.op.into()),
                    ("name".into(), s.name.as_str().into()),
                    ("tag".into(), s.tag.as_str().into()),
                    ("start_us".into(), num(s.start_us)),
                    ("end_us".into(), num(s.end_us)),
                    (
                        "self_ms".into(),
                        num(selfs.get(&s.id).copied().unwrap_or(0.0)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: format!("s{id}"),
            tag: String::new(),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0, 100] → a [10, 40] → grandchild [20, 30]; b [50, 90].
        let spans = vec![
            span(1, None, 0.0, 100_000.0),
            span(2, Some(1), 10_000.0, 40_000.0),
            span(3, Some(2), 20_000.0, 30_000.0),
            span(4, Some(1), 50_000.0, 90_000.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30.0);
        assert_eq!(selfs[&2], 20.0);
        assert_eq!(selfs[&3], 10.0);
        assert_eq!(selfs[&4], 40.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two parallel children overlap on [30, 40]; a third overhangs
        // the parent's end and only its inside part is covered.
        let spans = vec![
            span(1, None, 0.0, 100_000.0),
            span(2, Some(1), 20_000.0, 40_000.0),
            span(3, Some(1), 30_000.0, 50_000.0),
            span(4, Some(1), 90_000.0, 120_000.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100.0 - 30.0 - 10.0);
        assert!(selfs.values().all(|&v| v >= 0.0));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let off = Tracer::new(false);
        let (v, ms) = off.span("x", "", 0, None, |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        on.span("outer", "t", 3, None, |id| {
            on.span("inner", "t", 3, id, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(to_json(&spans).as_array().unwrap().len() == 2);
    }
}
