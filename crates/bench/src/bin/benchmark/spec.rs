//! What the benchmark measures: metric names, workloads, scales.
//!
//! This file is the single source of the names later issues cite.
//! `BENCHMARK.json` at the repo root is `benchmark --manifest` written to a
//! file; a unit test fails when the two drift apart.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`); operation
/// counts below are per this many seconds and scale with `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Build-time distance bound and shard count of every workload.
pub const BUILD_BOUND_M: f64 = 4.0;
pub const SHARDS: usize = 8;
/// Tickets thread A keeps in flight against the `QueryService`. With 8 the
/// median request sits on the edge between "ran in a short batch" and
/// "queued behind an exact refinement" and flips between 3.7 and 10 ms from
/// run to run; with 4 that edge is at the 65th percentile, clear of both the
/// p50 and the p90.
pub const IN_FLIGHT: usize = 4;
/// Thread B appends one batch per this many completions…
pub const COMPLETIONS_PER_APPEND: usize = 20;
/// …and compacts after this many appends.
pub const APPENDS_PER_COMPACT: usize = 30;
/// Cell budget of the ad-hoc polygon query (Figure 4's finest setting).
pub const POLYGON_CELL_BUDGET: usize = 512;
/// Neighbours asked of every kNN request.
pub const KNN_K: usize = 3;
/// Region seed: the map is fixed (as the paper's NYC polygon sets are);
/// `--seed` moves the points, the requests and the ingested rows. 2022 is
/// the `seed + 1` of the committed `BENCH_*.json` rows (seed 2021).
pub const REGION_SEED: u64 = 2022;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Reported by every workload on every untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "query_ms_p90",
        unit: "ms",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "error_m_max",
        unit: "m",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes",
        unit: "B",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "save_s",
        unit: "s",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "load_s",
        unit: "s",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "snapshot_bytes",
        unit: "B",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "ingest_rows_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.15,
    },
];

/// The end-to-end metric of this name.
///
/// # Panics
/// Panics when no such metric is declared: the run would report a number
/// `BENCHMARK.json` does not know.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

/// Reported next to the end-to-end metrics, in the printed table and the
/// result file, by the one workload that has the ≥ 1 000 timed samples a
/// p99 needs; `--compare` gates it like the others. It cannot sit in
/// `END_TO_END`, whose metrics every workload must report.
pub const QUERY_MS_P99: EndToEnd = EndToEnd {
    name: "query_ms_p99",
    unit: "ms",
    better: Lower,
    bound: 0.20,
};

/// A metric of a single layer, from a traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by every workload on every traced run, over that workload's
/// own dataset. README.md says which end-to-end metric each should move.
pub const PER_LAYER: &[PerLayer] = &[
    layer("datagen.generate_s", "s", Lower),
    // Region-side build: rasterize → pointer trie → freeze.
    layer("raster.rasterize_s", "s", Lower),
    layer("raster.cells", "count", Lower),
    layer("raster.boundary_cells", "count", Lower),
    layer("index.act.build_s", "s", Lower),
    layer("index.act.nodes", "count", Lower),
    layer("index.act.freeze_s", "s", Lower),
    layer("query.join.build_s", "s", Lower),
    layer("index.frozen.bytes", "B", Lower),
    layer("index.snapshot.bytes_per_index_byte", "ratio", Lower),
    // Point-side build: every append and compact reruns exactly these.
    layer("grid.key_encode_s", "s", Lower),
    layer("grid.key_sort_s", "s", Lower),
    layer("grid.partition_s", "s", Lower),
    layer("query.point_table.build_s", "s", Lower),
    layer("index.radix_spline.build_s", "s", Lower),
    layer("index.radix_spline.spline_points", "count", Lower),
    layer("core.sharded.build_s", "s", Lower),
    layer("core.engine.build_s", "s", Lower),
    layer("bench.replay_gap_share", "ratio", Lower),
    // Persistence.
    layer("core.persist.save_s", "s", Lower),
    layer("core.persist.load_s", "s", Lower),
    layer("core.persist.shard_save_s", "s", Lower),
    layer("core.persist.shard_load_s", "s", Lower),
    layer("core.serving.start_from_snapshot_s", "s", Lower),
    layer("query.plan_us", "us", Lower),
    // Containment probes.
    layer("query.join.probe_sort_ms", "ms", Lower),
    layer("query.join.execute_points_ms", "ms", Lower),
    layer("query.join.execute_keys_ms", "ms", Lower),
    layer("query.join.execute_shards_ms", "ms", Lower),
    layer("query.join.execute_shards_t2_ms", "ms", Lower),
    layer("query.join.merge_us", "us", Lower),
    layer("core.engine.agg_bounded_4m_ms", "ms", Lower),
    layer("core.sharded.agg_bounded_4m_ms", "ms", Lower),
    layer("core.sharded.agg_bounded_16m_ms", "ms", Lower),
    layer("core.sharded.agg_bounded_64m_ms", "ms", Lower),
    layer("core.sharded.shards_pruned", "count", Higher),
    layer("index.frozen.probe_ns_l14", "ns", Lower),
    layer("index.frozen.probe_ns_l12", "ns", Lower),
    layer("index.frozen.probe_ns_l10", "ns", Lower),
    layer("index.frozen.lookup_leaf_ns", "ns", Lower),
    // Exact refinement.
    layer("query.refine.exact_ms", "ms", Lower),
    layer("query.refine.pip_tests", "count", Lower),
    layer("query.refine.uncertain_matches", "count", Lower),
    layer("core.sharded.agg_exact_ms", "ms", Lower),
    // Ad-hoc polygon and result ranges.
    layer("raster.query_rasterize_us", "us", Lower),
    layer("query.point_table.aggregate_cells_us", "us", Lower),
    layer("index.radix_spline.lower_bound_ns", "ns", Lower),
    layer("core.sharded.in_polygon_ms", "ms", Lower),
    layer("query.result_range.ms", "ms", Lower),
    layer("core.sharded.count_ranges_ms", "ms", Lower),
    // Distance family.
    layer("query.distance.within_250m_tol64_ms", "ms", Lower),
    layer("query.distance.within_250m_tol16_ms", "ms", Lower),
    layer("query.distance.within_50m_tol16_ms", "ms", Lower),
    layer("query.distance.within_250m_refined_ms", "ms", Lower),
    layer("query.distance.ns_per_point", "ns", Lower),
    layer("query.distance.dist_tests", "count", Lower),
    layer("query.distance.matched", "count", Higher),
    layer("query.distance.brute_force_ms", "ms", Lower),
    layer("query.distance.knn_us", "us", Lower),
    layer("query.distance.knn_exact_us", "us", Lower),
    layer("query.distance.knn_recall_at_3", "ratio", Higher),
    // Serving tier.
    layer("core.serving.submit_us", "us", Lower),
    layer("core.serving.queue_wait_ms_p50", "ms", Lower),
    layer("core.serving.queue_wait_ms_p90", "ms", Lower),
    layer("core.serving.execute_ms_p50", "ms", Lower),
    layer("core.serving.execute_ms_p90", "ms", Lower),
    layer("core.serving.total_ms_p99", "ms", Lower),
    layer("core.serving.batch_occupancy_mean", "count", Higher),
    layer("core.serving.batch_occupancy_max", "count", Higher),
    layer("core.serving.batches", "count", Lower),
    layer("core.serving.agg_bounded_ms_p50", "ms", Lower),
    layer("core.serving.agg_exact_ms_p50", "ms", Lower),
    layer("core.serving.knn_ms_p50", "ms", Lower),
    layer("core.serving.solo_overhead_ms", "ms", Lower),
    layer("core.serving.rejected", "count", Lower),
    layer("core.serving.degraded", "count", Lower),
    layer("core.serving.deadline_missed", "count", Lower),
    layer("core.serving.isolated_panics", "count", Lower),
    layer("core.serving.scheduler_restarts", "count", Lower),
    // Ingest beside serving.
    layer("core.sharded.append_ms_p50", "ms", Lower),
    layer("core.sharded.append_ms_max", "ms", Lower),
    layer("core.sharded.compact_ms_p50", "ms", Lower),
    layer("core.sharded.delta_rows_max", "count", Lower),
    layer("core.sharded.generations", "count", Lower),
    layer("core.sharded.snapshot_ns", "ns", Lower),
    layer("core.serving.during_compact_ms_p50", "ms", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
];

/// Which of the paper's polygon sets a workload joins against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionSet {
    /// Many simple polygons: the build-heavy, cache-hostile index.
    Census,
    /// Medium count, medium complexity.
    Neighborhoods,
}

/// One request shape of a workload's menu.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Template {
    /// `aggregate_by_region_spec` within this many metres; `None` = exact.
    Aggregate(Option<f64>),
    /// `count_ranges_spec` within this many metres.
    CountRanges(f64),
    /// `aggregate_in_polygon` over a seeded ad-hoc polygon.
    InPolygon,
    /// `within_distance(d)` with this tolerance; `None` = exact.
    Within(f64, Option<f64>),
    /// `knn` / `knn_exact` at a seeded probe.
    Knn { exact: bool },
}

/// One class of a workload's request mix.
#[derive(Debug, Clone, Copy)]
pub struct MenuItem {
    pub template: Template,
    /// Share of the requests, in percent.
    pub weight: u32,
    /// Span name of the class in a traced run.
    pub label: &'static str,
}

const fn item(template: Template, weight: u32, label: &'static str) -> MenuItem {
    MenuItem {
        template,
        weight,
        label,
    }
}

/// How a workload's timed phase drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One caller, direct `EngineSnapshot` calls on the built engine.
    Direct,
    /// One caller, direct calls on the engine loaded back from its snapshot.
    DirectOnLoaded,
    /// `QueryService`: thread A with tickets in flight, thread B ingesting.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (≤ 200 characters).
    pub why: &'static str,
    pub regions: RegionSet,
    /// The point set is `Scale::points / points_divisor`.
    pub points_divisor: usize,
    pub driver: Driver,
    pub menu: &'static [MenuItem],
    /// Timed operations per [`RUN_SECONDS`], indexed by [`Scale::index`].
    pub operations: [usize; 3],
    /// Whether `query_ms_p99` is reported (≥ 1 000 timed samples, a tail
    /// made of a whole request class).
    pub reports_p99: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lifecycle_census",
        why: "75k points x 484 Census regions: raster + ACT build + freeze do nearly all the work, probes almost none; 4000 bounded 4 m aggregates run on the engine loaded back from its snapshot",
        regions: RegionSet::Census,
        points_divisor: 1,
        driver: Driver::DirectOnLoaded,
        menu: &[item(Template::Aggregate(Some(4.0)), 100, "op.aggregate_4m")],
        operations: [10, 4000, 200],
        reports_p99: false,
    },
    Workload {
        name: "join_neighborhoods",
        why: "75k points x 72 Neighborhoods regions, 4500 direct calls: aggregates 4/16/64 m 65 %, exact 15 %, count ranges 10 %, ad-hoc polygon 10 %; probe-bound, the exact class is the tail",
        regions: RegionSet::Neighborhoods,
        points_divisor: 1,
        driver: Driver::Direct,
        menu: &[
            item(Template::Aggregate(Some(4.0)), 25, "op.aggregate_4m"),
            item(Template::Aggregate(Some(16.0)), 20, "op.aggregate_16m"),
            item(Template::Aggregate(Some(64.0)), 20, "op.aggregate_64m"),
            item(Template::Aggregate(None), 15, "op.aggregate_exact"),
            item(Template::CountRanges(16.0), 10, "op.count_ranges_16m"),
            item(Template::InPolygon, 10, "op.in_polygon"),
        ],
        operations: [60, 4500, 1200],
        reports_p99: true,
    },
    Workload {
        name: "within_neighborhoods",
        why: "25k points x 72 Neighborhoods regions, 250 within_distance calls (250 m +-64/+-16, 50 m +-16, exact 250 m): query::distance does all the work, query::join none; the per-point DFS cliff shows only here",
        regions: RegionSet::Neighborhoods,
        points_divisor: 3,
        driver: Driver::Direct,
        menu: &[
            item(Template::Within(250.0, Some(64.0)), 35, "op.within_250m_tol64"),
            item(Template::Within(250.0, Some(16.0)), 25, "op.within_250m_tol16"),
            item(Template::Within(50.0, Some(16.0)), 20, "op.within_50m_tol16"),
            item(Template::Within(250.0, None), 20, "op.within_250m_exact"),
        ],
        operations: [6, 250, 120],
        reports_p99: false,
    },
    Workload {
        name: "serve_mixed_ingest",
        why: "75k points x 72 Neighborhoods regions behind QueryService: 4 tickets in flight (aggregates 65 %, exact 10 %, kNN 25 %) while a 2nd thread appends 125 rows per 20 completions, compacts per 30 appends",
        regions: RegionSet::Neighborhoods,
        points_divisor: 1,
        driver: Driver::Serve,
        menu: &[
            item(Template::Aggregate(Some(4.0)), 30, "op.aggregate_4m"),
            item(Template::Aggregate(Some(16.0)), 20, "op.aggregate_16m"),
            item(Template::Aggregate(Some(64.0)), 15, "op.aggregate_64m"),
            item(Template::Aggregate(None), 10, "op.aggregate_exact"),
            item(Template::Knn { exact: false }, 20, "op.knn"),
            item(Template::Knn { exact: true }, 5, "op.knn_exact"),
        ],
        operations: [300, 5400, 6000],
        reports_p99: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. Every scale keeps the city's 40 km grid (so a 4 m bound is
/// level 14 and the 16 / 64 m plans land on levels 12 / 10, as in the
/// committed `BENCH_*.json` rows), the region geometry (≈ 2.3 km
/// neighbourhoods, ≈ 0.9 km census tracts, street gaps, 0.45 rad rotation)
/// and the point density; what changes is how much of the city is covered.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    /// Position in [`Workload::operations`].
    pub index: usize,
    /// Side of the square, anchored at the grid origin, that regions and
    /// points are generated in.
    pub area_side_m: f64,
    pub census_regions: usize,
    pub neighborhood_regions: usize,
    pub points: usize,
    /// Gaussian hot-spots of the point generator.
    pub hotspots: usize,
    /// Rows per `append_points` batch of the ingest schedule.
    pub append_rows: usize,
    /// Probes of the kNN layer metrics.
    pub knn_probes: usize,
    pub setup_repeats: usize,
    pub save_repeats: usize,
    pub load_repeats: usize,
}

/// `--smoke`: seconds per workload; what the unit tests and CI can afford.
pub const SMOKE: Scale = Scale {
    name: "smoke",
    index: 0,
    area_side_m: 8_000.0,
    census_regions: 12,
    neighborhood_regions: 12,
    points: 5_000,
    hotspots: 12,
    append_rows: 25,
    knn_probes: 100,
    setup_repeats: 1,
    save_repeats: 3,
    load_repeats: 3,
};

/// The default: a quarter of the city (a sixteenth would leave too few
/// regions to merge and prune; the whole city builds for 15–22 s, which
/// the driver's 92 runs cannot afford). 96 hot-spots rather than the
/// city's 12: with 12, where the clusters fall decides the matched share,
/// and every latency moves ≈ 7 % from seed to seed (IQR ÷ median); with 48
/// it is ≈ 4 %, with 96 under the third of the 10 % bounds.
pub const QUARTER: Scale = Scale {
    name: "quarter",
    index: 1,
    area_side_m: 20_000.0,
    census_regions: 484,
    neighborhood_regions: 72,
    points: 75_000,
    hotspots: 96,
    append_rows: 125,
    knn_probes: 500,
    setup_repeats: 3,
    save_repeats: 9,
    load_repeats: 15,
};

/// `--city`: the inputs of the committed `BENCH_*.json` rows (300 k
/// points, full profiles, 12 hot-spots) and the issue's operation counts —
/// minutes per workload; for answering questions, not for the driver.
pub const CITY: Scale = Scale {
    name: "city",
    index: 2,
    area_side_m: 40_000.0,
    census_regions: 1_936,
    neighborhood_regions: 289,
    points: 300_000,
    hotspots: 12,
    append_rows: 500,
    knn_probes: 2_000,
    setup_repeats: 1,
    save_repeats: 5,
    load_repeats: 7,
};

impl Scale {
    pub fn region_count(&self, set: RegionSet) -> usize {
        match set {
            RegionSet::Census => self.census_regions,
            RegionSet::Neighborhoods => self.neighborhood_regions,
        }
    }
}

/// Timed operations of `workload` for a run of `seconds`.
pub fn operations(workload: &Workload, scale: &Scale, seconds: u64) -> usize {
    let per_run = workload.operations[scale.index] as u64;
    ((per_run * seconds).div_ceil(RUN_SECONDS) as usize).max(1)
}

/// The document committed as `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "crates/bench/src/bin/benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["crates/bench/src/bin/benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_one_this_code_renders() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest().render_pretty(),
            "BENCHMARK.json is stale: regenerate it with `benchmark --manifest`"
        );
    }

    #[test]
    fn manifest_meets_the_driver_contract() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.push(QUERY_MS_P99.name);
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert_eq!(PER_LAYER.len(), 87);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(w.menu.iter().map(|m| m.weight).sum::<u32>(), 100);
        }
        for m in END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().render_pretty().len() <= 64 * 1024);
        // Runs: 4 + 22 per workload, each within the per-run budget.
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn operation_counts_scale_with_seconds() {
        let join = workload("join_neighborhoods").unwrap();
        assert_eq!(operations(join, &QUARTER, RUN_SECONDS), 4500);
        assert_eq!(operations(join, &QUARTER, 2 * RUN_SECONDS), 9000);
        assert_eq!(operations(join, &QUARTER, 1), 450);
        assert_eq!(operations(join, &SMOKE, RUN_SECONDS), 60);
        assert_eq!(
            operations(workload("within_neighborhoods").unwrap(), &SMOKE, 1),
            1
        );
        assert!(workload("nope").is_none());
    }
}
