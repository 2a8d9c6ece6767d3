//! Driving the engine: set-up, the closed-loop callers of the timed
//! phases, and the ingest schedule. Everything goes through the public API
//! a library caller or a `QueryService` client would use.

use crate::inputs::{distance_spec, query_spec, Dataset, Request, Traffic};
use crate::spec::{self, MenuItem};
use crate::stats::percentile;
use crate::trace::Tracer;
use dbsa::prelude::*;
use dbsa::query::ResultRange;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// `ShardedEngine::builder()…build()` over copies of the dataset; the
/// copies are made before the clock starts. Returns the engine and the
/// build's wall time in seconds.
pub fn build_engine(dataset: &Dataset) -> (ShardedEngine, f64) {
    let (points, values, regions) = (
        dataset.points.clone(),
        dataset.values.clone(),
        dataset.regions.clone(),
    );
    let start = Instant::now();
    let engine = ShardedEngine::builder()
        .distance_bound(DistanceBound::meters(spec::BUILD_BOUND_M))
        .extent(city_extent())
        .points(points, values)
        .regions(regions)
        .shards(spec::SHARDS)
        .build();
    (engine, start.elapsed().as_secs_f64())
}

/// What a direct call returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Join(QueryPlan, JoinResult),
    Ranges(QueryPlan, Vec<ResultRange>),
    /// Ad-hoc polygon aggregate and the raster cells it used.
    Region(RegionAggregate, usize),
    Neighbors(Result<Vec<KnnNeighbor>, QueryError>),
}

/// One direct `EngineSnapshot` call, `threads = 1`.
pub fn execute(snapshot: &EngineSnapshot, request: &Request) -> Answer {
    match request {
        Request::Aggregate { tolerance_m } => {
            let (plan, result) = snapshot.aggregate_by_region_spec(&query_spec(*tolerance_m), 1);
            Answer::Join(plan, result)
        }
        Request::CountRanges { tolerance_m } => {
            let (plan, ranges) = snapshot.count_ranges_spec(&query_spec(Some(*tolerance_m)), 1);
            Answer::Ranges(plan, ranges)
        }
        Request::InPolygon { polygon } => {
            let (aggregate, cells) =
                snapshot.aggregate_in_polygon(polygon, spec::POLYGON_CELL_BUDGET);
            Answer::Region(aggregate, cells)
        }
        Request::Within { d, tolerance_m } => {
            let (plan, result) = snapshot.within_distance(&distance_spec(*d, *tolerance_m), 1);
            Answer::Join(plan, result)
        }
        Request::Knn {
            probe,
            exact: false,
        } => Answer::Neighbors(snapshot.knn(probe, spec::KNN_K)),
        Request::Knn { probe, exact: true } => {
            Answer::Neighbors(snapshot.knn_exact(probe, spec::KNN_K))
        }
    }
}

/// Latencies of one timed phase.
#[derive(Debug, Default)]
pub struct Samples {
    /// Caller-observed latency per operation, in ms.
    pub latency_ms: Vec<f64>,
    /// Menu class of each operation.
    pub class: Vec<usize>,
    /// Wall time of the whole phase, in seconds.
    pub wall_s: f64,
    /// Operations that returned a typed error.
    pub errors: Vec<String>,
}

/// One caller issuing `requests` back to back against a snapshot. With a
/// tracer, every operation also records one span named after its class.
pub fn run_direct(
    snapshot: &EngineSnapshot,
    requests: &[Request],
    menu: &[MenuItem],
    tracer: Option<&Tracer>,
) -> Samples {
    let mut samples = Samples::default();
    let phase = Instant::now();
    for (op, request) in requests.iter().enumerate() {
        let class = request.class(menu);
        let span = tracer.map(|t| t.begin(menu[class].label, None, op as u64));
        let start = Instant::now();
        let answer = black_box(execute(snapshot, black_box(request)));
        samples.latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id, 1);
        }
        samples.class.push(class);
        if let Answer::Neighbors(Err(error)) = answer {
            samples.errors.push(format!("operation {op}: {error}"));
        }
    }
    samples.wall_s = phase.elapsed().as_secs_f64();
    samples
}

/// What thread B did: every append and compaction, timed from outside.
#[derive(Debug, Default)]
pub struct IngestLog {
    pub append_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    /// `(start, end)` of every compaction, in ns since the phase began.
    pub compact_spans_ns: Vec<(u64, u64)>,
    pub rows_appended: u64,
    /// Rows visible at each generation B published, from the schedule.
    pub rows_at_generation: Vec<(u64, u64)>,
    pub delta_rows_max: u64,
    /// Publishes whose generation or row count was not the scheduled one.
    pub errors: Vec<String>,
}

impl IngestLog {
    /// Seconds inside `append_points` and `compact`, each call counted at
    /// its kind's median. The whole schedule is ≈ 0.1 s of work at the
    /// default scale, so in a plain sum one descheduling of the ingest
    /// thread beside a busy scheduler moves the rate by 15 %.
    pub fn busy_s(&self) -> f64 {
        let at_median = |ms: &[f64]| ms.len() as f64 * percentile(ms, 50.0);
        (at_median(&self.append_ms) + at_median(&self.compact_ms)) / 1e3
    }

    pub fn rows_per_s(&self) -> f64 {
        self.rows_appended as f64 / self.busy_s()
    }
}

/// Performs append number `k` of the schedule (and the compaction that
/// follows every [`spec::APPENDS_PER_COMPACT`]-th), checking that the
/// engine publishes exactly the generation and row count the schedule
/// predicts — this thread is the only writer.
fn ingest_step(
    engine: &ShardedEngine,
    traffic: &Traffic,
    batch_rows: usize,
    k: usize,
    epoch: Instant,
    tracer: Option<&Tracer>,
    log: &mut IngestLog,
) {
    let rows = k * batch_rows..(k + 1) * batch_rows;
    let points = traffic.ingest_points[rows.clone()].to_vec();
    let values = traffic.ingest_values[rows].to_vec();
    let before = engine.snapshot();
    let (mut generation, mut visible) = (before.generation(), before.point_count() as u64);
    drop(before);

    let span = tracer.map(|t| t.begin("core.sharded.append", None, k as u64));
    let start = Instant::now();
    engine.append_points(points, values);
    log.append_ms.push(start.elapsed().as_secs_f64() * 1e3);
    if let (Some(t), Some(id)) = (tracer, span) {
        t.end(id, batch_rows as u64);
    }
    generation += 1;
    visible += batch_rows as u64;
    log.rows_appended += batch_rows as u64;
    log.rows_at_generation.push((generation, visible));
    log.delta_rows_max = log.delta_rows_max.max(engine.pending_points() as u64);

    if (k + 1).is_multiple_of(spec::APPENDS_PER_COMPACT) {
        let span = tracer.map(|t| t.begin("core.sharded.compact", None, k as u64));
        let from = epoch.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let ran = engine.compact();
        log.compact_ms.push(start.elapsed().as_secs_f64() * 1e3);
        log.compact_spans_ns
            .push((from, epoch.elapsed().as_nanos() as u64));
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id, visible);
        }
        if !ran {
            log.errors
                .push(format!("compaction after append {k} was skipped"));
        }
        generation += 1;
        log.rows_at_generation.push((generation, visible));
    }
    let after = engine.snapshot();
    if (after.generation(), after.point_count() as u64) != (generation, visible) {
        log.errors.push(format!(
            "after append {k}: generation {} with {} rows, scheduled {generation} with {visible}",
            after.generation(),
            after.point_count()
        ));
    }
}

/// The ingest schedule run on its own (direct-call workloads, after their
/// checks): every append of `traffic`, compactions interleaved.
pub fn run_ingest(engine: &ShardedEngine, traffic: &Traffic, batch_rows: usize) -> IngestLog {
    let mut log = IngestLog::default();
    let epoch = Instant::now();
    for k in 0..traffic.ingest_points.len() / batch_rows {
        ingest_step(engine, traffic, batch_rows, k, epoch, None, &mut log);
    }
    log
}

/// One request as its `QueryService` client saw it complete.
#[derive(Debug, Clone)]
pub struct Completion {
    pub class: usize,
    /// Submission → fulfilment, as the service reports it to the ticket's
    /// owner ([`CompletedQuery::total`]); what each of the in-flight
    /// callers waits for.
    pub total_ms: f64,
    /// Of which in the admission queue ([`CompletedQuery::queued`]).
    pub queued_ms: f64,
    pub batch_size: usize,
    pub generation: u64,
    /// `total_matched + unmatched` of an aggregate answer.
    pub rows_seen: Option<u64>,
    /// Submission and completion, in ns since the phase began.
    pub submitted_ns: u64,
    pub completed_ns: u64,
}

#[derive(Debug, Default)]
pub struct ServeOutcome {
    pub completions: Vec<Completion>,
    /// Rejections, typed failures and degraded answers, one line each.
    pub errors: Vec<String>,
    pub wall_s: f64,
    /// Mean time inside `QueryService::submit`, in µs.
    pub submit_us: f64,
    pub ingest: IngestLog,
}

impl ServeOutcome {
    /// Completions whose submit → complete interval overlaps a compaction.
    pub fn during_compaction(&self) -> impl Iterator<Item = &Completion> {
        self.completions.iter().filter(|c| {
            self.ingest
                .compact_spans_ns
                .iter()
                .any(|(from, to)| c.submitted_ns < *to && *from < c.completed_ns)
        })
    }
}

/// The `serve_mixed_ingest` timed phase. Thread A (the caller's thread)
/// keeps [`spec::IN_FLIGHT`] tickets in flight — submit, then wait for the
/// oldest — over `requests`. Thread B is driven by A's completion count,
/// not by a clock: after every [`spec::COMPLETIONS_PER_APPEND`] completions
/// it appends the next batch of `traffic`'s rows, after every
/// [`spec::APPENDS_PER_COMPACT`] appends it compacts, so the rows visible to
/// request *n* are the same on every run and on every commit.
pub fn run_serve(
    service: &QueryService,
    requests: &[Request],
    menu: &[MenuItem],
    traffic: &Traffic,
    batch_rows: usize,
    tracer: Option<&Tracer>,
) -> ServeOutcome {
    let engine: &ShardedEngine = service.engine();
    let appends = (requests.len() / spec::COMPLETIONS_PER_APPEND)
        .min(traffic.ingest_points.len() / batch_rows);
    let completed = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let bell = (Mutex::new(()), Condvar::new());
    let epoch = Instant::now();
    let mut outcome = ServeOutcome::default();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut log = IngestLog::default();
            for k in 0..appends {
                let due = (k + 1) * spec::COMPLETIONS_PER_APPEND;
                let mut guard = bell.0.lock().expect("bell mutex poisoned");
                while completed.load(Ordering::SeqCst) < due && !finished.load(Ordering::SeqCst) {
                    guard = bell.1.wait(guard).expect("bell mutex poisoned");
                }
                drop(guard);
                ingest_step(engine, traffic, batch_rows, k, epoch, tracer, &mut log);
            }
            log
        });

        let mut in_flight: VecDeque<(usize, u64, Ticket)> = VecDeque::new();
        let mut submit_ns = 0u64;
        let mut submitted = 0u64;
        let finish = |(op, submitted_ns, ticket): (usize, u64, Ticket),
                      outcome: &mut ServeOutcome| {
            let done = ticket.wait();
            let completed_ns = epoch.elapsed().as_nanos() as u64;
            let class = requests[op].class(menu);
            if let Some(t) = tracer {
                // The service reports how long the query queued and how
                // long it took in total; lay both out ending now.
                let total = done.total.as_nanos() as u64;
                let end = t.now_ns();
                let begin = end.saturating_sub(total);
                let root = t.record(menu[class].label, None, op as u64, begin, end);
                let split = (begin + done.queued.as_nanos() as u64).min(end);
                t.record(
                    "core.serving.queue_wait",
                    Some(root),
                    op as u64,
                    begin,
                    split,
                );
                t.record("core.serving.execute", Some(root), op as u64, split, end);
            }
            let rows_seen = match &done.outcome {
                Ok(QueryResponse::Aggregate { result, .. }) => {
                    Some(result.total_matched() + result.unmatched)
                }
                Ok(_) => None,
                Err(error) => {
                    outcome.errors.push(format!("request {op}: {error}"));
                    None
                }
            };
            if let Some(bound) = done.degraded {
                outcome
                    .errors
                    .push(format!("request {op}: degraded to {bound}"));
            }
            outcome.completions.push(Completion {
                class,
                total_ms: done.total.as_secs_f64() * 1e3,
                queued_ms: done.queued.as_secs_f64() * 1e3,
                batch_size: done.batch_size,
                generation: done.generation,
                rows_seen,
                submitted_ns,
                completed_ns,
            });
            // SeqCst pairs with the writer's loads; the lock makes the
            // notification impossible to miss between its check and wait.
            let n = completed.fetch_add(1, Ordering::SeqCst) + 1;
            if n.is_multiple_of(spec::COMPLETIONS_PER_APPEND) {
                let _guard = bell.0.lock().expect("bell mutex poisoned");
                bell.1.notify_one();
            }
        };

        for (op, request) in requests.iter().enumerate() {
            if in_flight.len() == spec::IN_FLIGHT {
                let oldest = in_flight.pop_front().expect("queue is full");
                finish(oldest, &mut outcome);
            }
            let query = request
                .to_query()
                .expect("the serving menu holds only servable requests");
            let submitted_ns = epoch.elapsed().as_nanos() as u64;
            let start = Instant::now();
            let ticket = service.submit(query);
            submit_ns += start.elapsed().as_nanos() as u64;
            submitted += 1;
            match ticket {
                Ok(ticket) => in_flight.push_back((op, submitted_ns, ticket)),
                Err(error) => outcome
                    .errors
                    .push(format!("request {op} rejected: {error}")),
            }
        }
        while let Some(oldest) = in_flight.pop_front() {
            finish(oldest, &mut outcome);
        }
        finished.store(true, Ordering::SeqCst);
        {
            let _guard = bell.0.lock().expect("bell mutex poisoned");
            bell.1.notify_one();
        }
        outcome.ingest = writer.join().expect("the ingest thread panicked");
        outcome.submit_us = submit_ns as f64 / 1e3 / submitted.max(1) as f64;
    });
    outcome.wall_s = epoch.elapsed().as_secs_f64();
    outcome
}

/// What the fault-tolerance ledger counted between two readings, under the
/// names of the `core.serving.*` layer metrics. All zero on a healthy run:
/// the benchmark sets no deadlines and injects no faults.
pub fn ledger_delta(before: &ServingStats, after: &ServingStats) -> [(&'static str, u64); 5] {
    [
        ("core.serving.rejected", after.rejected - before.rejected),
        ("core.serving.degraded", after.degraded - before.degraded),
        (
            "core.serving.deadline_missed",
            after.deadline_missed - before.deadline_missed,
        ),
        (
            "core.serving.isolated_panics",
            after.isolated_panics - before.isolated_panics,
        ),
        (
            "core.serving.scheduler_restarts",
            after.scheduler_restarts - before.scheduler_restarts,
        ),
    ]
}

/// `VmHWM` of this process, in bytes (`None` off Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}
