//! Cold-start report: build-from-points vs. load-from-snapshot.
//!
//! Builds the sharded serving engine on the Figure-6 Census workload
//! (300 k points, 4 m bound, 8 shards) the expensive way — rasterize the
//! regions, freeze the trie, sort and index every shard — then saves one
//! snapshot file and times reconstituting the engine from it. The loaded
//! engine must answer a bounded aggregate, a within-distance semi-join,
//! and a kNN probe **bit-for-bit** identically to the built one.
//!
//! What the report protects is the *loader*, so its bar is stated against
//! something the loader cannot avoid and the builder cannot move: reading
//! the file's bytes and checksumming them (`read_crc_ms`, measured in the
//! same run). Loading must stay within 1.5× of that floor. The build-to-load
//! ratio is still printed — it is the user-visible saving — but it falls
//! whenever the build gets faster, so nothing is gated on it.

use dbsa::prelude::*;
use dbsa_bench::{
    fmt_bytes, fmt_ms, json_output_path, print_header, timed, JsonReport, JsonValue, Workload,
};
use std::time::Duration;

fn main() {
    let json_path = json_output_path();
    let n_points = 300_000;
    let shards = 8;
    let bound = DistanceBound::meters(4.0);
    let config = dbsa::ExperimentConfig {
        experiment: "coldstart".into(),
        points: n_points,
        regions: 0, // Census profile below
        vertices_per_region: 0,
        distance_bounds: vec![4.0],
        precision_levels: vec![],
        seed: 2021,
    };
    print_header(
        "Cold start",
        "serving engine build-from-points vs. load-from-snapshot (Census, 8 shards)",
        &config,
    );

    let workload = Workload::from_profile(n_points, DatasetProfile::Census, config.seed);

    // The expensive path: everything from raw points and polygons.
    let (engine, build_time) = timed(|| {
        ShardedEngine::builder()
            .distance_bound(bound)
            .extent(city_extent())
            .points(workload.points.clone(), workload.values.clone())
            .regions(workload.regions.clone())
            .shards(shards)
            .build()
    });

    let path = std::env::temp_dir().join("dbsa-coldstart.snapshot");
    let (_, save_time) = timed(|| engine.save_snapshot(&path).expect("save snapshot"));
    let file_bytes = std::fs::metadata(&path).expect("stat snapshot").len();

    // The cold-start path: one checksummed file, one contiguous pass per
    // column, no re-rasterize / re-freeze / re-sort. Median of five, as for
    // the floor below.
    let median = |mut times: Vec<Duration>| {
        times.sort();
        times[times.len() / 2]
    };
    let mut load_times = Vec::new();
    let mut loaded = None;
    for _ in 0..5 {
        let (engine, t) = timed(|| ShardedEngine::load_snapshot(&path).expect("load snapshot"));
        load_times.push(t);
        loaded = Some(engine);
    }
    let loaded = loaded.expect("five loads");
    let load_time = median(load_times);

    // The floor of any loader of a checksummed file: read every byte, CRC
    // every byte. Same file, same page cache, same run.
    let read_crc_time = median(
        (0..5)
            .map(|_| {
                timed(|| {
                    let bytes = std::fs::read(&path).expect("read snapshot");
                    std::hint::black_box(dbsa::index::snapshot::crc32(&bytes))
                })
                .1
            })
            .collect(),
    );
    std::fs::remove_file(&path).ok();

    // Equivalence: the loaded engine is the built engine, bit for bit.
    let agg_spec = QuerySpec::within(bound);
    let dist_spec = DistanceSpec::within(500.0).expect("distance spec");
    let probe = Point::new(12_000.0, 14_000.0);
    let agg_equal = loaded.aggregate_by_region_spec(&agg_spec, 2)
        == engine.aggregate_by_region_spec(&agg_spec, 2);
    let dist_equal = loaded.within_distance(&dist_spec, 2) == engine.within_distance(&dist_spec, 2);
    let knn_equal = loaded.knn(&probe, 5).expect("knn") == engine.knn(&probe, 5).expect("knn");
    let pass = agg_equal && dist_equal && knn_equal;

    let ratio = build_time.as_secs_f64() / load_time.as_secs_f64();
    let load_over_read_crc = load_time.as_secs_f64() / read_crc_time.as_secs_f64();
    println!(
        "{:<22} | {:>12} | {:>12} | {:>12} | {:>12} | {:>10} | {:>8} | {:>6}",
        "path", "build", "save", "load", "read+crc", "load/floor", "ratio", "equal"
    );
    println!(
        "{:-<22}-+-{:-<12}-+-{:-<12}-+-{:-<12}-+-{:-<12}-+-{:-<10}-+-{:-<8}-+-{:-<6}",
        "", "", "", "", "", "", "", ""
    );
    println!(
        "{:<22} | {:>12} | {:>12} | {:>12} | {:>12} | {:>9.2}x | {:>7.0}x | {:>6}",
        "snapshot vs. rebuild",
        fmt_ms(build_time),
        fmt_ms(save_time),
        fmt_ms(load_time),
        fmt_ms(read_crc_time),
        load_over_read_crc,
        ratio,
        pass,
    );
    println!(
        "snapshot file: {} for {} points, {} regions, {shards} shards",
        fmt_bytes(file_bytes as usize),
        engine.snapshot().point_count(),
        engine.regions().len()
    );
    println!();
    println!(
        "bar: answers bit-for-bit equal, and load-from-snapshot within 1.5× of reading and \
         checksumming the file (load/floor); the build-to-load ratio is reported, not gated."
    );
    assert!(
        pass,
        "loaded snapshot diverged from the built engine (agg {agg_equal}, dist {dist_equal}, knn {knn_equal})"
    );

    let mut report = JsonReport::new("coldstart", &config);
    report.push_row(&[
        ("dataset", JsonValue::Str("census".to_string())),
        ("points", JsonValue::Int(n_points as u64)),
        ("regions", JsonValue::Int(workload.regions.len() as u64)),
        ("shards", JsonValue::Int(shards as u64)),
        ("build_ms", JsonValue::Num(build_time.as_secs_f64() * 1e3)),
        ("save_ms", JsonValue::Num(save_time.as_secs_f64() * 1e3)),
        ("load_ms", JsonValue::Num(load_time.as_secs_f64() * 1e3)),
        (
            "read_crc_ms",
            JsonValue::Num(read_crc_time.as_secs_f64() * 1e3),
        ),
        ("load_over_read_crc", JsonValue::Num(load_over_read_crc)),
        ("ratio", JsonValue::Num(ratio)),
        ("file_bytes", JsonValue::Int(file_bytes)),
        ("bitwise_equal", JsonValue::Bool(pass)),
    ]);
    report.write_if_requested(json_path.as_deref());
}
