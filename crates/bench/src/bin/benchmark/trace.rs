//! Spans recorded from outside the program.
//!
//! A traced run wraps every call into a `dbsa` layer in one span — name,
//! start, end, the span that caused it, the operation it belongs to and the
//! number of items it processed. Spans stay in memory and are written to
//! `trace.<workload>.json` when the run ends; the per-layer metrics are reductions
//! over them. An untraced run never constructs a [`Tracer`], so it records
//! nothing.

use crate::json::Json;
use crate::stats;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one operation (one request, one build) share this.
    pub op_id: u64,
    /// Work done inside the span, as a count (probes, cells, rows…).
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by the load-generating threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op_id,
            items: 0,
        });
        let id = (spans.len() - 1) as SpanId;
        // Stamped last so the store's own bookkeeping stays outside.
        spans[id as usize].start_ns = self.now_ns();
        id
    }

    pub fn end(&self, id: SpanId, items: u64) {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Runs `work` inside a span; `work` returns its result and the number
    /// of items it processed.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        work: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let (out, items) = work();
        self.end(id, items);
        out
    }

    /// Records a span whose interval was measured by someone else (the
    /// serving tier reports queue and execute time per completed query).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
            items: 1,
        });
        (spans.len() - 1) as SpanId
    }

    pub fn span_count(&self) -> usize {
        self.lock().len()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations, in seconds, of every span with this name.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    pub fn sum_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    pub fn median_s(&self, name: &str) -> f64 {
        stats::percentile(&self.durations_s(name), 50.0)
    }

    pub fn items(&self, name: &str) -> u64 {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.items)
            .sum()
    }

    /// Total duration ÷ total items of every span with this name, in ns.
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let items = self.items(name);
        if items == 0 {
            0.0
        } else {
            self.sum_s(name) * 1e9 / items as f64
        }
    }

    /// Writes every span plus the per-name totals (`calls`, `items`,
    /// `total_ns`, `self_ns`) to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let num = |v: u64| Json::Num(v as f64);
        let rows = spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", num(s.start_ns)),
                    ("end_ns", num(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(u64::from(p)))),
                    ("op_id", num(s.op_id)),
                    ("items", num(s.items)),
                ])
            })
            .collect();
        let layers = summarize(&spans)
            .into_iter()
            .map(|l| {
                Json::obj([
                    ("name", Json::str(l.name)),
                    ("calls", num(l.calls)),
                    ("items", num(l.items)),
                    ("total_ns", num(l.total_ns)),
                    ("self_ns", num(l.self_ns)),
                ])
            })
            .collect();
        let doc = Json::obj([("layers", Json::Arr(layers)), ("spans", Json::Arr(rows))]);
        std::fs::write(path, doc.render_pretty())
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTotals {
    pub name: &'static str,
    pub calls: u64,
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of one span: its duration minus the part of its interval that
/// its child spans cover. Children may overlap each other (parallel
/// workers) and may stick out of the parent (clock skew between threads);
/// only the union of their intervals inside the parent is subtracted.
pub fn self_time_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(child_start, child_end) in children.iter() {
        let from = child_start.max(cursor);
        let to = child_end.min(end);
        if to > from {
            covered += to - from;
            cursor = to;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Groups spans by name, in first-appearance order, with self times.
pub fn summarize(spans: &[Span]) -> Vec<LayerTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut layers: Vec<LayerTotals> = Vec::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let self_ns = self_time_ns((span.start_ns, span.end_ns), kids);
        let layer = match layers.iter_mut().find(|l| l.name == span.name) {
            Some(layer) => layer,
            None => {
                layers.push(LayerTotals {
                    name: span.name,
                    calls: 0,
                    items: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                layers.last_mut().expect("just pushed")
            }
        };
        layer.calls += 1;
        layer.items += span.items;
        layer.total_ns += span.duration_ns();
        layer.self_ns += self_ns;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        // No children: all of it.
        assert_eq!(self_time_ns((100, 200), &mut []), 100);
        // Two disjoint children.
        assert_eq!(self_time_ns((100, 200), &mut [(110, 120), (150, 180)]), 60);
        // Overlapping children (parallel workers) count once.
        assert_eq!(self_time_ns((100, 200), &mut [(110, 160), (140, 180)]), 30);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 90), (20, 30)]), 20);
        // Children sticking out are clipped; unsorted input is fine.
        assert_eq!(self_time_ns((100, 200), &mut [(190, 250), (50, 110)]), 80);
        // Fully covered, and degenerate parents, give zero.
        assert_eq!(self_time_ns((100, 200), &mut [(0, 300)]), 0);
        assert_eq!(self_time_ns((200, 100), &mut [(0, 300)]), 0);
    }

    #[test]
    fn summary_links_parents_and_adds_up() {
        let tracer = Tracer::new();
        let build = tracer.record("build", None, 1, 0, 1_000);
        tracer.record("rasterize", Some(build), 1, 100, 400);
        tracer.record("rasterize", Some(build), 1, 400, 600);
        let freeze = tracer.record("freeze", Some(build), 1, 700, 900);
        tracer.record("pack", Some(freeze), 1, 750, 800);
        let layers = summarize(&tracer.snapshot());
        let get = |name: &str| layers.iter().find(|l| l.name == name).unwrap().clone();
        assert_eq!(get("build").self_ns, 1_000 - 500 - 200);
        assert_eq!(get("rasterize").calls, 2);
        assert_eq!(get("rasterize").total_ns, 500);
        assert_eq!(get("rasterize").self_ns, 500);
        assert_eq!(get("freeze").self_ns, 150);
        assert_eq!(get("pack").self_ns, 50);
        // Self times partition the root's wall time.
        assert_eq!(layers.iter().map(|l| l.self_ns).sum::<u64>(), 1_000);
        assert_eq!(
            layers.iter().map(|l| l.name).collect::<Vec<_>>(),
            ["build", "rasterize", "freeze", "pack"]
        );
    }

    #[test]
    fn live_spans_nest_and_count_items() {
        let tracer = Tracer::new();
        let outer = tracer.begin("outer", None, 7);
        let got = tracer.span("inner", Some(outer), 7, || (21 * 2, 3));
        tracer.end(outer, 1);
        assert_eq!(got, 42);
        let spans = tracer.snapshot();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].op_id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.items("inner"), 3);
        assert_eq!(tracer.durations_s("outer").len(), 1);
        assert_eq!(tracer.ns_per_item("missing"), 0.0);
    }
}
