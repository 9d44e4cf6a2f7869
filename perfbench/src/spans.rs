//! In-memory span recorder for the traced run.
//!
//! Every span has a name (`layer.operation`), start and end on one
//! monotonic clock, the span that caused it, an id and a call count.
//! Spans at call boundaries the benchmark drives are recorded as they
//! happen; per-call leaf layers (selector, traffic, energy push) are
//! aggregated per chunk into one span with the number of calls it stands
//! for. Aggregated spans are laid end to end from their parent's start:
//! their durations are exact, their placement inside the parent is not.
//! At exit the spans are written as Perfetto trace-event JSON and folded
//! into a self-time table per layer.

use crate::arith::self_time;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (> 0).
    pub id: u64,
    /// The causing span's id, `0` for the root.
    pub parent: u64,
    /// `layer.operation`.
    pub name: String,
    /// Worker lane (0 = the benchmark's main thread).
    pub lane: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Calls the span stands for (1 unless aggregated).
    pub count: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves an id, so children can name a parent recorded after them.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved `id`.
    pub fn record(&self, id: u64, parent: u64, name: &str, lane: u64, start: u64, end: u64) {
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            lane,
            start,
            end: end.max(start),
            count: 1,
        });
    }

    /// Records aggregated leaf spans `(name, total ns, calls)` end to end
    /// from `start` under `parent`; returns where the last one ends.
    pub fn record_aggregate(
        &self,
        parent: u64,
        lane: u64,
        start: u64,
        leaves: &[(&str, u64, u64)],
    ) -> u64 {
        let mut at = start;
        for &(name, ns, count) in leaves {
            if count == 0 {
                continue;
            }
            self.push(Span {
                id: self.id(),
                parent,
                name: name.to_string(),
                lane,
                start: at,
                end: at + ns,
                count,
            });
            at += ns;
        }
        at
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// A copy of every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Perfetto (Chrome trace-event) JSON: one complete (`X`) event per span,
/// plus `meta` as the trace's metadata.
#[must_use]
pub fn perfetto_json(spans: &[Span], meta: Value) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.clone())),
                ("cat".into(), Value::String(layer_of(&s.name).into())),
                ("ph".into(), Value::String("X".into())),
                ("ts".into(), Value::Float(s.start as f64 / 1e3)),
                ("dur".into(), Value::Float((s.end - s.start) as f64 / 1e3)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(s.lane)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::UInt(s.id)),
                        ("parent".into(), Value::UInt(s.parent)),
                        ("count".into(), Value::UInt(s.count)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::String("ns".into())),
        ("metadata".into(), meta),
    ]);
    serde_json::to_string(&doc).expect("JSON encoding is infallible")
}

/// The layer a span belongs to: its name up to the last `.`.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time and call count per span name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut table: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let entry = table.entry(s.name.clone()).or_default();
        entry.0 += self_time(s.start, s.end, kids);
        entry.1 += s.count;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_are_laid_end_to_end_and_self_times_nest() {
        let r = Recorder::new();
        let root = r.id();
        let chunk = r.id();
        let end = r.record_aggregate(
            chunk,
            0,
            100,
            &[("a.x", 30, 5), ("b.y", 0, 0), ("c.z", 20, 2)],
        );
        assert_eq!(end, 150);
        r.record(chunk, root, "sim.chunk", 0, 100, 200);
        r.record(root, 0, "bench.run", 0, 0, 300);
        let table = self_times(&r.spans());
        assert_eq!(table["bench.run"], (200, 1));
        assert_eq!(table["sim.chunk"], (50, 1));
        assert_eq!(table["a.x"], (30, 5));
        assert_eq!(table["c.z"], (20, 2));
        assert!(
            !table.contains_key("b.y"),
            "empty aggregates are not recorded"
        );
        let json = perfetto_json(&r.spans(), Value::Null);
        let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(matches!(parsed, Value::Object(_)));
        assert_eq!(layer_of("adele.select.AdEle"), "adele.select");
        assert_eq!(layer_of("bench"), "bench");
    }
}
