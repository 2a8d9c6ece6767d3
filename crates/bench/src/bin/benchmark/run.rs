//! One untraced run of one workload: build → save → load → serve, the
//! end-to-end metrics, and the correctness checks.

use crate::drive::{self, Answer, IngestLog, ServeOutcome};
use crate::inputs::{Inputs, Request};
use crate::json::Json;
use crate::oracle::{self, Oracle};
use crate::spec::{self, Driver, Scale, Template, Workload};
use crate::stats::percentile;
use dbsa::prelude::*;
use dbsa::query::median;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What the command line asked of a run.
#[derive(Debug, Clone)]
pub struct Options {
    pub scale: &'static Scale,
    pub seed: u64,
    pub seconds: u64,
    /// Directory for snapshot files and `trace.json`, inside the checkout.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static Workload,
    /// The metrics `BENCHMARK.json` declares for this kind of run — all of
    /// them, and nothing else: this is what the driver reads.
    pub metrics: Vec<Measured>,
    /// Printed and written to the result file beside them (`query_ms_p99`
    /// where the workload has the samples for it).
    pub extra: Vec<Measured>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Counts and settings for the result file's environment block.
    pub details: Json,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Median wall time of `repeats` calls, in seconds.
pub fn median_seconds(repeats: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            call();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A snapshot file under the run's output directory, removed on drop.
pub struct ScratchFile(pub PathBuf);

impl ScratchFile {
    pub fn new(dir: &Path, name: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(ScratchFile(
            dir.join(format!("{name}.{}.snapshot", std::process::id())),
        ))
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One request per query family, for the built-vs-loaded comparison.
fn family_probes(inputs: &Inputs) -> Vec<Request> {
    let center = inputs.dataset.area.center();
    let side = inputs.dataset.area.width();
    let polygon = Polygon::from_coords(&[
        (center.x - 0.2 * side, center.y - 0.15 * side),
        (center.x + 0.25 * side, center.y - 0.1 * side),
        (center.x + 0.1 * side, center.y + 0.2 * side),
        (center.x - 0.15 * side, center.y + 0.1 * side),
    ]);
    vec![
        Request::Aggregate {
            tolerance_m: Some(spec::BUILD_BOUND_M),
        },
        Request::Aggregate { tolerance_m: None },
        Request::CountRanges { tolerance_m: 16.0 },
        Request::InPolygon { polygon },
        Request::Within {
            d: 250.0,
            tolerance_m: Some(64.0),
        },
        Request::Knn {
            probe: center,
            exact: false,
        },
        Request::Knn {
            probe: center,
            exact: true,
        },
    ]
}

/// The requests the oracle re-runs: every parameter-free class of the menu
/// once, and the first few of each parameterised class.
fn requests_to_check(workload: &Workload, timed: &[Request]) -> Vec<Request> {
    const PER_PARAMETERISED_CLASS: usize = 48;
    let mut picked = Vec::new();
    for (class, item) in workload.menu.iter().enumerate() {
        let take = match item.template {
            Template::InPolygon | Template::Knn { .. } => PER_PARAMETERISED_CLASS,
            _ => 1,
        };
        let of_class = timed.iter().filter(|r| r.class(workload.menu) == class);
        picked.extend(of_class.take(take).cloned());
    }
    picked
}

/// The serving-side invariants of a `run_serve` phase: every aggregate saw
/// exactly the rows of the generation it reports, and nothing was refused,
/// degraded or failed. Returns the number of checks made.
fn check_serve(outcome: &ServeOutcome, base: (u64, u64), failures: &mut Vec<String>) -> u64 {
    failures.extend(outcome.errors.iter().cloned());
    failures.extend(outcome.ingest.errors.iter().cloned());
    let rows_at = |generation: u64| {
        std::iter::once(&base)
            .chain(&outcome.ingest.rows_at_generation)
            .find(|(g, _)| *g == generation)
            .map(|(_, rows)| *rows)
    };
    let mut checked = 0;
    for (op, done) in outcome.completions.iter().enumerate() {
        let Some(seen) = done.rows_seen else { continue };
        checked += 1;
        match rows_at(done.generation) {
            Some(rows) if rows == seen => {}
            Some(rows) => failures.push(format!(
                "request {op}: answered over {seen} rows, generation {} holds {rows}",
                done.generation
            )),
            None => failures.push(format!(
                "request {op}: served by unscheduled generation {}",
                done.generation
            )),
        }
    }
    checked
}

/// Runs `workload` once, untraced.
pub fn run(workload: &'static Workload, options: &Options) -> Result<Report, String> {
    let scale = options.scale;
    let operations = spec::operations(workload, scale, options.seconds);
    let generated = Instant::now();
    let inputs = Inputs::generate(workload, scale, options.seed, operations);
    let datagen_s = generated.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    failures.extend(inputs.fingerprint_mismatches(
        workload,
        scale,
        options.seed,
        options.seconds == spec::RUN_SECONDS,
    ));

    // Set-up, several times: the median is the metric, the last engine is
    // the one the run continues with.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..scale.setup_repeats {
        drop(built.take());
        let (engine, build_s) = drive::build_engine(&inputs.dataset);
        let engine = Arc::new(engine);
        let started = Instant::now();
        let service =
            (workload.driver == Driver::Serve).then(|| engine.serve(ServingConfig::default()));
        setup_s.push(build_s + started.elapsed().as_secs_f64());
        built = Some((engine, service));
    }
    let (engine, service) = built.expect("at least one set-up");
    let peak_rss = drive::peak_rss_bytes().unwrap_or(0);
    let stats = engine.stats();
    let index_bytes = stats.region_index_bytes + stats.point_index_bytes;

    // Save and load; the file stays for the oracle's copy of the join.
    let file = ScratchFile::new(&options.out_dir, workload.name).map_err(|e| e.to_string())?;
    let mut io_error = None;
    let save_s = median_seconds(scale.save_repeats, || {
        if let Err(e) = engine.save_snapshot(&file.0) {
            io_error = Some(e.to_string());
        }
    });
    let snapshot_bytes = std::fs::metadata(&file.0).map(|m| m.len()).unwrap_or(0);
    let mut loaded = None;
    let load_s = median_seconds(scale.load_repeats, || {
        drop(loaded.take());
        match ShardedEngine::load_snapshot(&file.0) {
            Ok(engine) => loaded = Some(engine),
            Err(e) => io_error = Some(e.to_string()),
        }
    });
    if let Some(error) = io_error {
        return Err(format!("snapshot I/O failed: {error}"));
    }
    let loaded = loaded.expect("loads succeeded");

    // The loaded engine answers like the built one, bit for bit.
    let mut attempted = 0u64;
    let (built_snapshot, loaded_snapshot) = (engine.snapshot(), loaded.snapshot());
    for probe in family_probes(&inputs) {
        attempted += 1;
        if drive::execute(&built_snapshot, &probe) != drive::execute(&loaded_snapshot, &probe) {
            failures.push(format!("{probe:?}: loaded engine answers differently"));
        }
    }

    // Warm-up (5 %, untimed), then the timed phase.
    let traffic = &inputs.traffic;
    let (warmup, timed) = traffic.requests.split_at(traffic.warmup);
    let base = (
        built_snapshot.generation(),
        built_snapshot.point_count() as u64,
    );
    let mut served: Option<ServeOutcome> = None;
    let (latency_ms, classes, wall_s) = match (&service, workload.driver) {
        (Some(service), _) => {
            for request in warmup {
                attempted += 1;
                let query = request.to_query().expect("servable request");
                if let Err(error) = service.query(query).and_then(|done| done.outcome) {
                    failures.push(format!("warm-up request failed: {error}"));
                }
            }
            let before = engine.stats().serving;
            let outcome = drive::run_serve(
                service,
                timed,
                workload.menu,
                traffic,
                scale.append_rows,
                None,
            );
            attempted += check_serve(&outcome, base, &mut failures);
            let after = engine.stats().serving;
            for (what, count) in drive::ledger_delta(&before, &after) {
                if count != 0 {
                    failures.push(format!("{what} = {count}, expected 0"));
                }
            }
            let latency = outcome.completions.iter().map(|c| c.total_ms).collect();
            let classes = outcome.completions.iter().map(|c| c.class).collect();
            let wall_s = outcome.wall_s;
            served = Some(outcome);
            (latency, classes, wall_s)
        }
        (None, driver) => {
            let target = if driver == Driver::DirectOnLoaded {
                &loaded_snapshot
            } else {
                &built_snapshot
            };
            let warm = drive::run_direct(target, warmup, workload.menu, None);
            let samples = drive::run_direct(target, timed, workload.menu, None);
            failures.extend(warm.errors);
            failures.extend(samples.errors);
            (samples.latency_ms, samples.class, samples.wall_s)
        }
    };
    attempted += (warmup.len() + timed.len()) as u64;
    if latency_ms.len() != timed.len() {
        failures.push(format!(
            "{} of {} timed operations completed",
            latency_ms.len(),
            timed.len()
        ));
    }

    // Correctness against the exact baselines, on the final state.
    let join = oracle::load_join(&file.0).map_err(|e| format!("reading the join back: {e}"))?;
    let final_snapshot = engine.snapshot();
    let mut oracle = Oracle::new(&final_snapshot, &join);
    let to_check = requests_to_check(workload, timed);
    for request in &to_check {
        oracle.check(&final_snapshot, request);
    }
    if let Some(service) = &service {
        // After the last compaction, the service answers each kind exactly
        // as the direct call on the same snapshot does.
        for request in &to_check {
            attempted += 1;
            let direct = drive::execute(&final_snapshot, request);
            let query = request.to_query().expect("servable request");
            let through = service.query(query).and_then(|done| done.outcome);
            let same = match (through, direct) {
                (Ok(QueryResponse::Aggregate { plan, result }), Answer::Join(p, r)) => {
                    plan == p && result == r
                }
                (Ok(QueryResponse::Knn { neighbors }), Answer::Neighbors(Ok(n))) => neighbors == n,
                _ => false,
            };
            if !same {
                failures.push(format!("{request:?}: service and direct call disagree"));
            }
        }
    }
    attempted += oracle.checked;
    failures.extend(oracle.failures.iter().cloned());
    let error_m_max = oracle.error_m_max;
    drop(oracle);

    // Ingest: beside the service where there is one, on its own otherwise.
    let ingest: IngestLog = match served.as_mut() {
        Some(outcome) => std::mem::take(&mut outcome.ingest),
        None => {
            let log = drive::run_ingest(&engine, traffic, scale.append_rows);
            failures.extend(log.errors.iter().cloned());
            log
        }
    };
    attempted += (ingest.append_ms.len() + ingest.compact_ms.len()) as u64;
    if let Some(service) = &service {
        if service.shutdown().is_err() {
            failures.push("the scheduler thread died".to_string());
        }
    }

    let measured = |metric: &spec::EndToEnd, value: f64| Measured {
        name: metric.name,
        value,
        unit: metric.unit,
    };
    let metrics: Vec<Measured> = [
        ("setup_s", median(&setup_s)),
        ("query_ms_p50", percentile(&latency_ms, 50.0)),
        ("query_ms_p90", percentile(&latency_ms, 90.0)),
        ("throughput_qps", latency_ms.len() as f64 / wall_s),
        ("error_m_max", error_m_max),
        ("index_bytes", index_bytes as f64),
        ("peak_rss_bytes", peak_rss as f64),
        ("save_s", save_s),
        ("load_s", load_s),
        ("snapshot_bytes", snapshot_bytes as f64),
        ("ingest_rows_per_s", ingest.rows_per_s()),
    ]
    .into_iter()
    .map(|(name, value)| measured(spec::end_to_end(name), value))
    .collect();
    let extra = workload
        .reports_p99
        .then(|| measured(&spec::QUERY_MS_P99, percentile(&latency_ms, 99.0)))
        .into_iter()
        .collect();

    let per_class = workload
        .menu
        .iter()
        .enumerate()
        .map(|(class, item)| {
            let of_class: Vec<f64> = latency_ms
                .iter()
                .zip(&classes)
                .filter(|(_, c)| **c == class)
                .map(|(ms, _)| *ms)
                .collect();
            (
                item.label,
                Json::obj([
                    ("samples", Json::Num(of_class.len() as f64)),
                    ("ms_p50", Json::Num(percentile(&of_class, 50.0))),
                    ("ms_p90", Json::Num(percentile(&of_class, 90.0))),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let details = Json::obj([
        ("scale", Json::str(scale.name)),
        ("points", Json::Num(inputs.dataset.points.len() as f64)),
        ("regions", Json::Num(inputs.dataset.regions.len() as f64)),
        ("shards", Json::Num(spec::SHARDS as f64)),
        ("build_bound_m", Json::Num(spec::BUILD_BOUND_M)),
        ("timed_operations", Json::Num(timed.len() as f64)),
        ("warmup_operations", Json::Num(warmup.len() as f64)),
        ("timed_wall_s", Json::Num(wall_s)),
        (
            "latency_ms_deciles",
            Json::Arr(
                (1..=9)
                    .map(|d| Json::Num(percentile(&latency_ms, f64::from(d) * 10.0)))
                    .collect(),
            ),
        ),
        (
            "callers",
            Json::str(match workload.driver {
                Driver::Serve => format!(
                    "2 load threads: A keeps {} tickets in flight, B ingests",
                    spec::IN_FLIGHT
                ),
                _ => "1 caller, closed loop, threads = 1".to_string(),
            }),
        ),
        (
            "setup_samples_s",
            Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("save_repeats", Json::Num(scale.save_repeats as f64)),
        ("load_repeats", Json::Num(scale.load_repeats as f64)),
        ("appends", Json::Num(ingest.append_ms.len() as f64)),
        ("compactions", Json::Num(ingest.compact_ms.len() as f64)),
        ("rows_appended", Json::Num(ingest.rows_appended as f64)),
        ("datagen_s", Json::Num(datagen_s)),
        ("classes", Json::obj(per_class)),
        (
            "fingerprints",
            Json::obj([
                (
                    "points",
                    Json::str(format!("{:#018x}", inputs.fingerprints.points)),
                ),
                (
                    "values",
                    Json::str(format!("{:#018x}", inputs.fingerprints.values)),
                ),
                (
                    "regions",
                    Json::str(format!("{:#018x}", inputs.fingerprints.regions)),
                ),
                (
                    "requests",
                    Json::str(format!("{:#018x}", inputs.fingerprints.requests)),
                ),
            ]),
        ),
    ]);
    Ok(Report {
        workload,
        metrics,
        extra,
        attempted,
        failures,
        details,
    })
}
