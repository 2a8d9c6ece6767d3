//! The traced run: per-layer attribution, recorded from outside.
//!
//! Nothing inside `dbsa` is instrumented. Instead this run *replays* each
//! engine entry point step by step through the same public functions the
//! engine calls — `HierarchicalRaster::with_bound` →
//! `AdaptiveCellTrie::build` → `freeze`; `GridExtent::leaf_cell_id` + sort
//! → `partition_sorted_keys` → `LinearizedPointTable::from_sorted_rows`;
//! `ApproximateCellJoin::execute_keys*` over the engine's own shard columns
//! — and wraps every call in one span. The real `build()` runs beside the
//! replay, and `bench.replay_gap_share` says how far the two are apart; the
//! attribution is only as good as that number.
//!
//! Every workload's traced run measures every layer over that workload's
//! own dataset, so the same metric on Census and on Neighborhoods separates
//! what depends on index size from what does not.

use crate::drive::{self, ServeOutcome};
use crate::inputs::{distance_spec, query_spec, Dataset, Inputs, Request, Traffic};
use crate::json::Json;
use crate::oracle;
use crate::rng::SplitMix64;
use crate::run::{Measured, Options, Report, ScratchFile};
use crate::spec::{self, Template, Workload};
use crate::stats::percentile;
use crate::trace::Tracer;
use dbsa::grid::{partition_sorted_keys, split_at_ranges, MAX_LEVEL};
use dbsa::index::RadixSplineBuilder;
use dbsa::prelude::*;
use dbsa::query::ResultRange;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Operation ids of the spans that are not requests.
const OP_REPLAY: u64 = 1 << 40;
const OP_SUITE: u64 = 2 << 40;

/// Runs `work` `repeats` times, each inside its own span.
fn repeat<T>(
    tracer: &Tracer,
    name: &'static str,
    repeats: usize,
    items: u64,
    mut work: impl FnMut() -> T,
) -> T {
    let mut last = None;
    for _ in 0..repeats.max(1) {
        last = Some(tracer.span(name, None, OP_SUITE, || (black_box(work()), items)));
    }
    last.expect("at least one repeat")
}

/// Replays `ApproximateCellJoin::build` (the region side of a build) and
/// `partition_rows` + `EngineShard::from_sorted_columns` (the point side),
/// one span per step. Returns the root span and the counts the replay saw.
fn replay_build(tracer: &Tracer, dataset: &Dataset, counts: &mut BTreeMap<&'static str, f64>) {
    let extent = GridExtent::covering(&city_extent());
    let bound = DistanceBound::meters(spec::BUILD_BOUND_M);
    let root = tracer.begin("bench.replay", None, OP_REPLAY);

    let join = tracer.begin("query.join.build", Some(root), OP_REPLAY);
    let rasters: Vec<HierarchicalRaster> = dataset
        .regions
        .iter()
        .map(|region| {
            tracer.span("raster.rasterize", Some(join), OP_REPLAY, || {
                let raster = HierarchicalRaster::with_bound(
                    region,
                    &extent,
                    bound,
                    BoundaryPolicy::Conservative,
                );
                let cells = raster.cell_count() as u64;
                (raster, cells)
            })
        })
        .collect();
    counts.insert(
        "raster.cells",
        rasters.iter().map(|r| r.cell_count()).sum::<usize>() as f64,
    );
    counts.insert(
        "raster.boundary_cells",
        rasters
            .iter()
            .map(|r| r.boundary_cell_count())
            .sum::<usize>() as f64,
    );
    let pointer_trie = tracer.span("index.act.build", Some(join), OP_REPLAY, || {
        let trie = AdaptiveCellTrie::build(&rasters);
        let nodes = trie.node_count() as u64;
        (trie, nodes)
    });
    counts.insert("index.act.nodes", pointer_trie.node_count() as f64);
    let frozen = tracer.span("index.act.freeze", Some(join), OP_REPLAY, || {
        let frozen = pointer_trie.freeze();
        let bytes = frozen.memory_bytes() as u64;
        (frozen, bytes)
    });
    counts.insert("index.frozen.bytes", frozen.memory_bytes() as f64);
    // `build` also finds the regions leaving the grid and, on return,
    // frees the rasters and the pointer trie: the join span's self time.
    let grid = extent.bbox();
    black_box(
        dataset
            .regions
            .iter()
            .filter(|r| !grid.contains_box(&r.bbox()))
            .count(),
    );
    drop(rasters);
    drop(pointer_trie);
    tracer.end(join, dataset.regions.len() as u64);

    let n = dataset.points.len() as u64;
    let mut order: Vec<(u64, u32)> = tracer.span("grid.key_encode", Some(root), OP_REPLAY, || {
        let order = dataset
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (extent.leaf_cell_id(p).raw(), i as u32))
            .collect();
        (order, n)
    });
    tracer.span("grid.key_sort", Some(root), OP_REPLAY, || {
        order.sort_unstable();
        ((), n)
    });
    let columns = tracer.span("grid.partition", Some(root), OP_REPLAY, || {
        let sorted_keys: Vec<u64> = order.iter().map(|(k, _)| *k).collect();
        let ranges = partition_sorted_keys(&sorted_keys, spec::SHARDS);
        let bounds = split_at_ranges(&sorted_keys, &ranges);
        let columns: Vec<(Vec<u64>, Vec<Point>, Vec<f64>)> = bounds
            .into_iter()
            .map(|(from, to)| {
                let rows = &order[from..to];
                (
                    sorted_keys[from..to].to_vec(),
                    rows.iter()
                        .map(|&(_, i)| dataset.points[i as usize])
                        .collect(),
                    rows.iter()
                        .map(|&(_, i)| dataset.values[i as usize])
                        .collect(),
                )
            })
            .collect();
        (columns, n)
    });
    let shard_keys: Vec<Vec<u64>> = columns.iter().map(|(keys, _, _)| keys.clone()).collect();
    let tables: Vec<LinearizedPointTable> = columns
        .into_iter()
        .map(|(keys, _points, values)| {
            tracer.span("query.point_table.build", Some(root), OP_REPLAY, || {
                let rows = keys.len() as u64;
                (
                    LinearizedPointTable::from_sorted_rows(keys, values, &extent, 25, 32),
                    rows,
                )
            })
        })
        .collect();
    tracer.end(root, 1);
    drop(tables);
    drop(frozen);

    // `from_sorted_rows` fits the spline inside itself; fitted again here,
    // outside the replay's root, so that its share of the table build shows.
    let mut spline_points = 0;
    for keys in &shard_keys {
        let spline = tracer.span("index.radix_spline.build", None, OP_REPLAY, || {
            let spline = RadixSplineBuilder::new()
                .radix_bits(25)
                .spline_error(32)
                .build(keys);
            (spline, keys.len() as u64)
        });
        spline_points += spline.spline_points();
    }
    counts.insert("index.radix_spline.spline_points", spline_points as f64);
}

/// Seeded probe points and ad-hoc polygons of the layer suite.
fn suite_traffic(dataset: &Dataset, scale: &spec::Scale, seed: u64) -> (Vec<Point>, Vec<Polygon>) {
    let menu = [
        spec::MenuItem {
            template: Template::Knn { exact: false },
            weight: 50,
            label: "op.knn",
        },
        spec::MenuItem {
            template: Template::InPolygon,
            weight: 50,
            label: "op.in_polygon",
        },
    ];
    let traffic = Traffic::generate(
        &menu,
        &dataset.area,
        scale,
        seed,
        "layers.probes",
        2 * scale.knn_probes,
        0,
    );
    let mut probes = Vec::new();
    let mut polygons = Vec::new();
    for request in traffic.requests {
        match request {
            Request::Knn { probe, .. } if probes.len() < scale.knn_probes => probes.push(probe),
            Request::InPolygon { polygon } if polygons.len() < 32 => polygons.push(polygon),
            _ => {}
        }
    }
    (probes, polygons)
}

/// Reductions over a traced serving phase.
fn serving_metrics(
    outcome: &ServeOutcome,
    menu: &[spec::MenuItem],
    values: &mut BTreeMap<&'static str, f64>,
) {
    let done = &outcome.completions;
    let column = |f: fn(&drive::Completion) -> f64| done.iter().map(f).collect::<Vec<f64>>();
    let queued = column(|c| c.queued_ms);
    let execute = column(|c| c.total_ms - c.queued_ms);
    let total = column(|c| c.total_ms);
    values.insert("core.serving.submit_us", outcome.submit_us);
    values.insert("core.serving.queue_wait_ms_p50", percentile(&queued, 50.0));
    values.insert("core.serving.queue_wait_ms_p90", percentile(&queued, 90.0));
    values.insert("core.serving.execute_ms_p50", percentile(&execute, 50.0));
    values.insert("core.serving.execute_ms_p90", percentile(&execute, 90.0));
    values.insert("core.serving.total_ms_p99", percentile(&total, 99.0));
    let of_kind = |wanted: fn(&Template) -> bool| {
        let ms: Vec<f64> = done
            .iter()
            .filter(|c| wanted(&menu[c.class].template))
            .map(|c| c.total_ms)
            .collect();
        percentile(&ms, 50.0)
    };
    values.insert(
        "core.serving.agg_bounded_ms_p50",
        of_kind(|t| matches!(t, Template::Aggregate(Some(_)))),
    );
    values.insert(
        "core.serving.agg_exact_ms_p50",
        of_kind(|t| matches!(t, Template::Aggregate(None))),
    );
    values.insert(
        "core.serving.knn_ms_p50",
        of_kind(|t| matches!(t, Template::Knn { exact: false })),
    );
    let during: Vec<f64> = outcome.during_compaction().map(|c| c.total_ms).collect();
    values.insert(
        "core.serving.during_compact_ms_p50",
        percentile(&during, 50.0),
    );

    let ingest = &outcome.ingest;
    values.insert(
        "core.sharded.append_ms_p50",
        percentile(&ingest.append_ms, 50.0),
    );
    values.insert(
        "core.sharded.append_ms_max",
        percentile(&ingest.append_ms, 100.0),
    );
    values.insert(
        "core.sharded.compact_ms_p50",
        percentile(&ingest.compact_ms, 50.0),
    );
    values.insert("core.sharded.delta_rows_max", ingest.delta_rows_max as f64);
    values.insert(
        "core.sharded.generations",
        ingest.rows_at_generation.len() as f64,
    );
}

/// Runs `workload` once, traced: every per-layer metric, and
/// `trace.<workload>.json`.
pub fn run(workload: &'static Workload, options: &Options) -> Result<Report, String> {
    let scale = options.scale;
    let tracer = Tracer::new();
    // Repeats of the millisecond-scale probes, scaled like operation counts.
    let repeats = ((15 * options.seconds).div_ceil(spec::RUN_SECONDS) as usize).max(3);
    let slow_repeats = (repeats / 5).max(2);
    let operations = spec::operations(workload, scale, options.seconds);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;

    let inputs = tracer.span("datagen.generate", None, OP_SUITE, || {
        let inputs = Inputs::generate(workload, scale, options.seed, operations);
        let rows = inputs.dataset.points.len() as u64;
        (inputs, rows)
    });
    let dataset = &inputs.dataset;
    let n = dataset.points.len() as u64;

    // --- Builds. The monolithic engine goes first and takes the process's
    // first-touch page faults with it (a fifth of a city-scale build), so
    // that the replay and the real sharded build beside it are both warm,
    // as the median of an untraced run's three set-ups is. ----------------
    let monolithic = {
        let (points, regions) = (dataset.points.clone(), dataset.regions.clone());
        let point_values = dataset.values.clone();
        tracer.span("core.engine.build", None, OP_SUITE, || {
            let engine = ApproximateEngine::builder()
                .distance_bound(DistanceBound::meters(spec::BUILD_BOUND_M))
                .extent(city_extent())
                .points(points, point_values)
                .regions(regions)
                .build();
            (engine, 1)
        })
    };
    replay_build(&tracer, dataset, &mut values);
    let engine = tracer.span("core.sharded.build", None, OP_SUITE, || {
        (Arc::new(drive::build_engine(dataset).0), 1)
    });
    let replayed = tracer.sum_s("bench.replay");
    let real = tracer.sum_s("core.sharded.build");
    values.insert("bench.replay_gap_share", (replayed - real).abs() / real);

    // --- Persistence. ---------------------------------------------------
    let file = ScratchFile::new(&options.out_dir, workload.name).map_err(|e| e.to_string())?;
    let shard_file = ScratchFile::new(&options.out_dir, "shard").map_err(|e| e.to_string())?;
    let io = |e: SnapshotError| format!("snapshot I/O failed: {e}");
    for _ in 0..slow_repeats {
        tracer
            .span("core.persist.save", None, OP_SUITE, || {
                (engine.save_snapshot(&file.0), 1)
            })
            .map_err(io)?;
        tracer
            .span("core.persist.load", None, OP_SUITE, || {
                (ShardedEngine::load_snapshot(&file.0).map(drop), 1)
            })
            .map_err(io)?;
    }
    let snapshot = engine.snapshot();
    let generation = snapshot.generation();
    let first_shard = &snapshot.shards()[0];
    for _ in 0..repeats {
        tracer
            .span("core.persist.shard_save", None, OP_SUITE, || {
                (
                    first_shard.save(&shard_file.0, generation),
                    first_shard.len() as u64,
                )
            })
            .map_err(io)?;
        tracer
            .span("core.persist.shard_load", None, OP_SUITE, || {
                let loaded = EngineShard::load(&shard_file.0, Some(generation)).map(drop);
                (loaded, first_shard.len() as u64)
            })
            .map_err(io)?;
    }
    let bounded_4m = Request::Aggregate {
        tolerance_m: Some(spec::BUILD_BOUND_M),
    };
    let cold = tracer.span("core.serving.start_from_snapshot", None, OP_SUITE, || {
        // File → first answer.
        let outcome = QueryService::start_from_snapshot(&file.0, ServingConfig::default())
            .map_err(|e| e.to_string())
            .and_then(|service| {
                let query = bounded_4m.to_query().expect("aggregates are servable");
                let answer = service.query(query).and_then(|done| done.outcome);
                let stopped = service.shutdown();
                answer.and(stopped).map_err(|e| e.to_string())
            });
        (outcome, 1)
    });
    attempted += 1;
    if let Err(error) = cold {
        failures.push(format!("serving from the snapshot file failed: {error}"));
    }
    let stats = engine.stats();
    let index_bytes = stats.region_index_bytes + stats.point_index_bytes;
    let snapshot_bytes = std::fs::metadata(&file.0).map(|m| m.len()).unwrap_or(0);
    values.insert(
        "index.snapshot.bytes_per_index_byte",
        snapshot_bytes as f64 / index_bytes as f64,
    );

    // --- Containment probes, over the engine's own shard columns. -------
    let join = oracle::load_join(&file.0).map_err(|e| format!("reading the join back: {e}"))?;
    let regions = snapshot.regions();
    let probes: Vec<ShardProbe<'_>> = snapshot
        .shards()
        .iter()
        .map(|s| ShardProbe::with_points(s.table().keys(), s.points(), s.values()))
        .collect();
    let all_keys: Vec<u64> = probes.iter().flat_map(|p| p.keys.iter().copied()).collect();
    let all_values: Vec<f64> = probes
        .iter()
        .flat_map(|p| p.values.iter().copied())
        .collect();
    let extent = *snapshot.extent();

    let plans = 1_000u64;
    repeat(&tracer, "query.plan", repeats, plans, || {
        for tolerance in [4.0, 16.0, 64.0, 4.0] {
            for _ in 0..plans / 4 {
                black_box(join.plan(black_box(&query_spec(Some(tolerance)))));
            }
        }
    });
    repeat(&tracer, "query.join.probe_sort", repeats, n, || {
        let mut order: Vec<(CellId, u32)> = dataset
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (extent.leaf_cell_id(p), i as u32))
            .collect();
        order.sort_unstable();
        order
    });
    repeat(&tracer, "query.join.execute_points", repeats, n, || {
        join.execute(&dataset.points, &dataset.values)
    });
    repeat(&tracer, "query.join.execute_keys", repeats, n, || {
        join.execute_keys(&all_keys, &all_values)
    });
    repeat(&tracer, "query.join.execute_shards", repeats, n, || {
        join.execute_shards(&probes, 1)
    });
    repeat(&tracer, "query.join.execute_shards_t2", repeats, n, || {
        join.execute_shards(&probes, 2)
    });
    // The same sharded join taken apart: one probe walk per shard, then the
    // merge every parallel path shares.
    for _ in 0..repeats {
        let parent = tracer.begin("query.join.execute_shards_replay", None, OP_SUITE);
        let partials: Vec<JoinResult> = probes
            .iter()
            .map(|shard| {
                tracer.span("query.join.shard_probe", Some(parent), OP_SUITE, || {
                    (
                        join.execute_keys(shard.keys, shard.values),
                        shard.len() as u64,
                    )
                })
            })
            .collect();
        tracer.span("query.join.merge", Some(parent), OP_SUITE, || {
            let mut merged = partials[0].clone();
            for partial in &partials[1..] {
                merged.merge(partial);
            }
            (black_box(merged), partials.len() as u64)
        });
        tracer.end(parent, n);
    }
    repeat(&tracer, "core.engine.agg_bounded_4m", repeats, n, || {
        monolithic.aggregate_by_region()
    });
    for (name, tolerance) in [
        ("core.sharded.agg_bounded_4m", 4.0),
        ("core.sharded.agg_bounded_16m", 16.0),
        ("core.sharded.agg_bounded_64m", 64.0),
    ] {
        repeat(&tracer, name, repeats, n, || {
            snapshot.aggregate_by_region_spec(&query_spec(Some(tolerance)), 1)
        });
    }
    let covered = join.trie().covered_key_range_at(MAX_LEVEL);
    let pruned = probes
        .iter()
        .filter(|p| match (covered, p.key_span()) {
            (Some((lo, hi)), Some((from, to))) => to < lo || hi < from,
            _ => true,
        })
        .count();
    values.insert("core.sharded.shards_pruned", pruned as f64);

    for (name, level) in [
        ("index.frozen.probe_l14", 14),
        ("index.frozen.probe_l12", 12),
        ("index.frozen.probe_l10", 10),
    ] {
        repeat(&tracer, name, repeats, n, || {
            let mut cursor = join.trie().cursor_at(level);
            let mut hits = 0u64;
            for key in &all_keys {
                hits += u64::from(cursor.first_posting(CellId::from_raw(*key)).is_some());
            }
            hits
        });
    }
    let leaves: Vec<CellId> = dataset
        .points
        .iter()
        .map(|p| extent.leaf_cell_id(p))
        .collect();
    repeat(&tracer, "index.frozen.lookup_leaf", repeats, n, || {
        let mut hits = 0u64;
        for leaf in &leaves {
            hits += u64::from(join.trie().first_posting(*leaf).is_some());
        }
        hits
    });

    // --- Exact refinement. ----------------------------------------------
    let refined = repeat(&tracer, "query.refine.exact", slow_repeats, n, || {
        join.execute_shards_refined(&probes, regions, 1)
    });
    values.insert("query.refine.pip_tests", refined.pip_tests as f64);
    let (_, bounded) = snapshot.aggregate_by_region_spec(&query_spec(Some(4.0)), 1);
    let uncertain: u64 = bounded.regions.iter().map(|r| r.boundary_count).sum();
    values.insert("query.refine.uncertain_matches", uncertain as f64);
    repeat(&tracer, "core.sharded.agg_exact", slow_repeats, n, || {
        snapshot.aggregate_by_region_spec(&QuerySpec::exact(), 1)
    });

    // --- Ad-hoc polygons and result ranges. -----------------------------
    let (knn_probes, polygons) = suite_traffic(dataset, scale, options.seed);
    for polygon in &polygons {
        let raster = tracer.span("raster.query_rasterize", None, OP_SUITE, || {
            let raster = HierarchicalRaster::with_cell_budget(
                polygon,
                &extent,
                spec::POLYGON_CELL_BUDGET,
                BoundaryPolicy::Conservative,
            );
            let cells = raster.cell_count() as u64;
            (raster, cells)
        });
        tracer.span("query.point_table.aggregate_cells", None, OP_SUITE, || {
            let mut aggregate = RegionAggregate::default();
            for shard in snapshot.shards() {
                aggregate.merge(
                    &shard
                        .table()
                        .aggregate_cells(raster.cells(), PointIndexVariant::RadixSpline),
                );
            }
            (black_box(aggregate), raster.cell_count() as u64)
        });
        tracer.span("core.sharded.in_polygon", None, OP_SUITE, || {
            (
                snapshot.aggregate_in_polygon(polygon, spec::POLYGON_CELL_BUDGET),
                1,
            )
        });
    }
    let spline = RadixSplineBuilder::new()
        .radix_bits(25)
        .spline_error(32)
        .build(&all_keys);
    let mut rng = SplitMix64::new(options.seed);
    let lookups: Vec<u64> = (0..100_000)
        .map(|_| all_keys[(rng.next_u64() % n.max(1)) as usize])
        .collect();
    repeat(
        &tracer,
        "index.radix_spline.lower_bound",
        repeats,
        lookups.len() as u64,
        || {
            let mut sum = 0usize;
            for key in &lookups {
                sum += spline.lower_bound(&all_keys, *key);
            }
            sum
        },
    );
    let range_calls = 1_000u64;
    repeat(&tracer, "query.result_range", repeats, range_calls, || {
        for _ in 0..range_calls {
            let ranges: Vec<ResultRange> = black_box(&bounded)
                .regions
                .iter()
                .map(ResultRange::count_range)
                .collect();
            black_box(ranges);
        }
    });
    repeat(&tracer, "core.sharded.count_ranges", repeats, n, || {
        snapshot.count_ranges_spec(&query_spec(Some(16.0)), 1)
    });

    // --- The distance family. -------------------------------------------
    let within = |name: &'static str, d: f64, tolerance_m: Option<f64>| {
        repeat(&tracer, name, slow_repeats, n, || {
            snapshot
                .within_distance(&distance_spec(d, tolerance_m), 1)
                .1
        })
    };
    let loose = within("query.distance.within_250m_tol64", 250.0, Some(64.0));
    within("query.distance.within_250m_tol16", 250.0, Some(16.0));
    within("query.distance.within_50m_tol16", 50.0, Some(16.0));
    let exact = within("query.distance.within_250m_refined", 250.0, None);
    values.insert("query.distance.matched", loose.total_matched() as f64);
    values.insert("query.distance.dist_tests", exact.dist_tests as f64);
    let (rows, row_values) = snapshot.all_rows();
    let brute = tracer.span("query.distance.brute_force", None, OP_SUITE, || {
        (
            BruteForceDistanceJoin::new(regions).within(250.0, &rows, &row_values),
            n,
        )
    });
    attempted += 1;
    if (brute.unmatched, brute.total_matched()) != (exact.unmatched, exact.total_matched()) {
        failures.push("refined within(250 m) disagrees with brute force".to_string());
    }
    repeat(
        &tracer,
        "query.distance.knn",
        slow_repeats,
        knn_probes.len() as u64,
        || {
            for probe in &knn_probes {
                black_box(snapshot.knn(probe, spec::KNN_K)).ok();
            }
        },
    );
    repeat(
        &tracer,
        "query.distance.knn_exact",
        slow_repeats,
        knn_probes.len() as u64,
        || {
            for probe in &knn_probes {
                black_box(snapshot.knn_exact(probe, spec::KNN_K)).ok();
            }
        },
    );
    values.insert(
        "query.distance.knn_recall_at_3",
        oracle::knn_recall(&snapshot, &knn_probes),
    );

    // --- Tracing overhead, on the workload's own request sequence run as
    // direct calls: the same requests untraced, then traced. ---------------
    let sample = &inputs.traffic.timed()[..(operations / 8).max(1)];
    let plain = drive::run_direct(&snapshot, sample, workload.menu, None);
    let traced = drive::run_direct(&snapshot, sample, workload.menu, Some(&tracer));
    attempted += 2 * sample.len() as u64;
    failures.extend(plain.errors);
    failures.extend(traced.errors);
    values.insert(
        "bench.trace_overhead_share",
        traced.wall_s / plain.wall_s - 1.0,
    );

    // --- The serving tier, last: it ingests, so the engine changes. -----
    repeat(&tracer, "core.sharded.snapshot", repeats, 10_000, || {
        for _ in 0..10_000 {
            black_box(engine.snapshot());
        }
    });
    let serving = spec::workload("serve_mixed_ingest").expect("the serving workload exists");
    let requests = (spec::operations(serving, scale, options.seconds) / 4).max(40);
    let service = engine.serve(ServingConfig::default());
    let solo: Vec<f64> = (0..repeats)
        .filter_map(|_| service.query(bounded_4m.to_query()?).ok())
        .map(|done| done.total.as_secs_f64() * 1e3)
        .collect();
    values.insert(
        "core.serving.solo_overhead_ms",
        percentile(&solo, 50.0) - tracer.median_s("core.sharded.agg_bounded_4m") * 1e3,
    );
    let traffic = Traffic::generate(
        serving.menu,
        &dataset.area,
        scale,
        options.seed,
        "layers.serving",
        requests,
        requests / spec::COMPLETIONS_PER_APPEND,
    );
    let before = engine.stats().serving;
    let outcome = drive::run_serve(
        &service,
        traffic.timed(),
        serving.menu,
        &traffic,
        scale.append_rows,
        Some(&tracer),
    );
    let after = engine.stats().serving;
    attempted += outcome.completions.len() as u64;
    failures.extend(outcome.errors.iter().cloned());
    failures.extend(outcome.ingest.errors.iter().cloned());
    if service.shutdown().is_err() {
        failures.push("the scheduler thread died".to_string());
    }
    serving_metrics(&outcome, serving.menu, &mut values);
    let batches = after.batches - before.batches;
    values.insert("core.serving.batches", batches as f64);
    values.insert(
        "core.serving.batch_occupancy_mean",
        (after.batched_queries - before.batched_queries) as f64 / batches.max(1) as f64,
    );
    let sizes: Vec<f64> = outcome
        .completions
        .iter()
        .map(|c| c.batch_size as f64)
        .collect();
    values.insert(
        "core.serving.batch_occupancy_max",
        percentile(&sizes, 100.0),
    );
    for (metric, count) in drive::ledger_delta(&before, &after) {
        values.insert(metric, count as f64);
    }

    // --- Reductions over the spans. --------------------------------------
    for (metric, span) in [
        ("datagen.generate_s", "datagen.generate"),
        ("raster.rasterize_s", "raster.rasterize"),
        ("index.act.build_s", "index.act.build"),
        ("index.act.freeze_s", "index.act.freeze"),
        ("query.join.build_s", "query.join.build"),
        ("grid.key_encode_s", "grid.key_encode"),
        ("grid.key_sort_s", "grid.key_sort"),
        ("grid.partition_s", "grid.partition"),
        ("query.point_table.build_s", "query.point_table.build"),
        ("index.radix_spline.build_s", "index.radix_spline.build"),
        ("core.sharded.build_s", "core.sharded.build"),
        ("core.engine.build_s", "core.engine.build"),
        (
            "core.serving.start_from_snapshot_s",
            "core.serving.start_from_snapshot",
        ),
    ] {
        values.insert(metric, tracer.sum_s(span));
    }
    for (metric, span) in [
        ("core.persist.save_s", "core.persist.save"),
        ("core.persist.load_s", "core.persist.load"),
        ("core.persist.shard_save_s", "core.persist.shard_save"),
        ("core.persist.shard_load_s", "core.persist.shard_load"),
    ] {
        values.insert(metric, tracer.median_s(span));
    }
    for (metric, span) in [
        ("query.join.probe_sort_ms", "query.join.probe_sort"),
        ("query.join.execute_points_ms", "query.join.execute_points"),
        ("query.join.execute_keys_ms", "query.join.execute_keys"),
        ("query.join.execute_shards_ms", "query.join.execute_shards"),
        (
            "query.join.execute_shards_t2_ms",
            "query.join.execute_shards_t2",
        ),
        (
            "core.engine.agg_bounded_4m_ms",
            "core.engine.agg_bounded_4m",
        ),
        (
            "core.sharded.agg_bounded_4m_ms",
            "core.sharded.agg_bounded_4m",
        ),
        (
            "core.sharded.agg_bounded_16m_ms",
            "core.sharded.agg_bounded_16m",
        ),
        (
            "core.sharded.agg_bounded_64m_ms",
            "core.sharded.agg_bounded_64m",
        ),
        ("query.refine.exact_ms", "query.refine.exact"),
        ("core.sharded.agg_exact_ms", "core.sharded.agg_exact"),
        ("core.sharded.in_polygon_ms", "core.sharded.in_polygon"),
        ("core.sharded.count_ranges_ms", "core.sharded.count_ranges"),
        (
            "query.distance.within_250m_tol64_ms",
            "query.distance.within_250m_tol64",
        ),
        (
            "query.distance.within_250m_tol16_ms",
            "query.distance.within_250m_tol16",
        ),
        (
            "query.distance.within_50m_tol16_ms",
            "query.distance.within_50m_tol16",
        ),
        (
            "query.distance.within_250m_refined_ms",
            "query.distance.within_250m_refined",
        ),
        (
            "query.distance.brute_force_ms",
            "query.distance.brute_force",
        ),
    ] {
        values.insert(metric, tracer.median_s(span) * 1e3);
    }
    for (metric, span) in [
        ("query.join.merge_us", "query.join.merge"),
        ("raster.query_rasterize_us", "raster.query_rasterize"),
        (
            "query.point_table.aggregate_cells_us",
            "query.point_table.aggregate_cells",
        ),
    ] {
        values.insert(metric, tracer.median_s(span) * 1e6);
    }
    for (metric, span, per_unit) in [
        ("query.plan_us", "query.plan", 1e-3),
        ("query.result_range.ms", "query.result_range", 1e-6),
        ("index.frozen.probe_ns_l14", "index.frozen.probe_l14", 1.0),
        ("index.frozen.probe_ns_l12", "index.frozen.probe_l12", 1.0),
        ("index.frozen.probe_ns_l10", "index.frozen.probe_l10", 1.0),
        (
            "index.frozen.lookup_leaf_ns",
            "index.frozen.lookup_leaf",
            1.0,
        ),
        (
            "index.radix_spline.lower_bound_ns",
            "index.radix_spline.lower_bound",
            1.0,
        ),
        (
            "query.distance.ns_per_point",
            "query.distance.within_250m_tol64",
            1.0,
        ),
        ("query.distance.knn_us", "query.distance.knn", 1e-3),
        (
            "query.distance.knn_exact_us",
            "query.distance.knn_exact",
            1e-3,
        ),
        ("core.sharded.snapshot_ns", "core.sharded.snapshot", 1.0),
    ] {
        values.insert(metric, tracer.ns_per_item(span) * per_unit);
    }

    let trace_path = options
        .out_dir
        .join(format!("trace.{}.json", workload.name));
    tracer
        .write_json(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let mut metrics = Vec::with_capacity(spec::PER_LAYER.len());
    for layer in spec::PER_LAYER {
        match values.get(layer.name) {
            Some(value) => metrics.push(Measured {
                name: layer.name,
                value: *value,
                unit: layer.unit,
            }),
            None => return Err(format!("the traced run produced no {}", layer.name)),
        }
    }
    let gap = values["bench.replay_gap_share"];
    let details = Json::obj([
        ("scale", Json::str(scale.name)),
        ("points", Json::Num(n as f64)),
        ("regions", Json::Num(dataset.regions.len() as f64)),
        ("probe_repeats", Json::Num(repeats as f64)),
        ("slow_probe_repeats", Json::Num(slow_repeats as f64)),
        ("serving_requests", Json::Num(requests as f64)),
        ("trace_file", Json::str(trace_path.display().to_string())),
        ("spans", Json::Num(tracer.span_count() as f64)),
        (
            "attribution",
            Json::str(if gap <= 0.10 {
                "resolved: replayed build within 10 % of the real build"
            } else {
                "unresolved: replayed build more than 10 % off the real build"
            }),
        ),
    ]);
    Ok(Report {
        workload,
        metrics,
        extra: Vec::new(),
        attempted: attempted.max(1),
        failures,
        details,
    })
}

/// Parent links are what make a trace more than a list: checked here
/// against the replay, whose shape is known.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{summarize, SpanId};

    #[test]
    fn replayed_build_nests_its_steps_and_counts_what_it_built() {
        let dataset = Dataset::generate(spec::RegionSet::Neighborhoods, 2_000, &spec::SMOKE, 3);
        let tracer = Tracer::new();
        let mut counts = BTreeMap::new();
        replay_build(&tracer, &dataset, &mut counts);
        let spans = tracer.snapshot();
        let id_of = |name: &str| spans.iter().position(|s| s.name == name).unwrap() as SpanId;
        let (root, join) = (id_of("bench.replay"), id_of("query.join.build"));
        assert_eq!(spans[join as usize].parent, Some(root));
        let children = |parent: SpanId, name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name && s.parent == Some(parent))
                .count()
        };
        assert_eq!(children(join, "raster.rasterize"), dataset.regions.len());
        assert_eq!(children(join, "index.act.build"), 1);
        assert_eq!(children(join, "index.act.freeze"), 1);
        assert_eq!(children(root, "grid.key_sort"), 1);
        assert_eq!(children(root, "query.point_table.build"), spec::SHARDS);
        assert!(spans
            .iter()
            .filter(|s| s.name == "index.radix_spline.build")
            .all(|s| s.parent.is_none()));
        assert!(spans
            .iter()
            .all(|s| s.op_id == OP_REPLAY && s.end_ns >= s.start_ns));
        assert!(counts["raster.boundary_cells"] > 0.0);
        assert!(counts["raster.cells"] > counts["raster.boundary_cells"]);
        assert!(counts["index.act.nodes"] >= counts["raster.cells"]);
        // Self times partition the replay's wall time.
        let layers = summarize(&spans);
        let replay_self: u64 = layers
            .iter()
            .filter(|l| l.name != "index.radix_spline.build")
            .map(|l| l.self_ns)
            .sum();
        assert_eq!(replay_self, spans[root as usize].duration_ns());
    }
}
