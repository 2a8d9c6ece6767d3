//! Seeded inputs: the program under test only ever sees these vectors.
//!
//! Regions come from `PolygonSetGenerator` and points from
//! `TaxiPointGenerator`, configured as `PolygonSetGenerator::from_profile`
//! configures them for the committed `BENCH_*.json` rows (at `--city` the
//! two are the same call). The request sequence, the kNN probes, the ad-hoc
//! polygons and the ingested rows come from the benchmark's own sampler.

use crate::rng::{Fnv1a, SplitMix64};
use crate::spec::{self, MenuItem, RegionSet, Scale, Template, Workload};
use dbsa::prelude::*;

/// One operation of a workload's request sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Aggregate { tolerance_m: Option<f64> },
    CountRanges { tolerance_m: f64 },
    InPolygon { polygon: Polygon },
    Within { d: f64, tolerance_m: Option<f64> },
    Knn { probe: Point, exact: bool },
}

impl Request {
    /// Position of the request's class in its workload's menu.
    pub fn class(&self, menu: &[MenuItem]) -> usize {
        let template = match self {
            Request::Aggregate { tolerance_m } => Template::Aggregate(*tolerance_m),
            Request::CountRanges { tolerance_m } => Template::CountRanges(*tolerance_m),
            Request::InPolygon { .. } => Template::InPolygon,
            Request::Within { d, tolerance_m } => Template::Within(*d, *tolerance_m),
            Request::Knn { exact, .. } => Template::Knn { exact: *exact },
        };
        menu.iter()
            .position(|item| item.template == template)
            .expect("every request was drawn from its workload's menu")
    }

    /// The serving tier's form of the request (direct-only shapes have
    /// none).
    pub fn to_query(&self) -> Option<QueryRequest> {
        match self {
            Request::Aggregate { tolerance_m } => {
                Some(QueryRequest::aggregate(query_spec(*tolerance_m)))
            }
            Request::Knn {
                probe,
                exact: false,
            } => Some(QueryRequest::knn(*probe, spec::KNN_K)),
            Request::Knn { probe, exact: true } => {
                Some(QueryRequest::knn_exact(*probe, spec::KNN_K))
            }
            _ => None,
        }
    }

    fn fingerprint(&self, h: &mut Fnv1a) {
        let tolerance = |h: &mut Fnv1a, t: &Option<f64>| h.f64(t.unwrap_or(0.0));
        match self {
            Request::Aggregate { tolerance_m } => {
                h.u64(1);
                tolerance(h, tolerance_m);
            }
            Request::CountRanges { tolerance_m } => {
                h.u64(2);
                h.f64(*tolerance_m);
            }
            Request::InPolygon { polygon } => {
                h.u64(3);
                fingerprint_ring(h, polygon.exterior());
            }
            Request::Within { d, tolerance_m } => {
                h.u64(4);
                h.f64(*d);
                tolerance(h, tolerance_m);
            }
            Request::Knn { probe, exact } => {
                h.u64(5 + u64::from(*exact));
                h.f64(probe.x);
                h.f64(probe.y);
            }
        }
    }
}

pub fn query_spec(tolerance_m: Option<f64>) -> QuerySpec {
    tolerance_m.map_or_else(QuerySpec::exact, QuerySpec::within_meters)
}

pub fn distance_spec(d: f64, tolerance_m: Option<f64>) -> DistanceSpec {
    match tolerance_m {
        Some(t) => DistanceSpec::within_bounded(d, t),
        None => DistanceSpec::within(d),
    }
    .expect("menu distances and tolerances are positive and finite")
}

/// FNV-1a fingerprints of everything generated for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprints {
    pub points: u64,
    pub values: u64,
    pub regions: u64,
    /// Request sequence followed by the ingested rows.
    pub requests: u64,
}

/// Fingerprints of the default scale at `--seed 2021`. A change in
/// `dbsa-datagen` (or in the sampler here) that moves any of them changes
/// what is measured: the run fails until these are re-recorded on purpose.
/// `regions` does not depend on the seed and is checked on every run.
const EXPECTED_AT_2021: &[(&str, Fingerprints)] = &[
    (
        "lifecycle_census",
        Fingerprints {
            points: 0xF992_42D3_E7F4_54E8,
            values: 0xD615_2B4C_21D1_BD8D,
            regions: 0x0A09_A46A_9673_ED4C,
            requests: 0x2664_AA18_E1A5_EABB,
        },
    ),
    (
        "join_neighborhoods",
        Fingerprints {
            points: 0xF992_42D3_E7F4_54E8,
            values: 0xD615_2B4C_21D1_BD8D,
            regions: 0x67A4_FCE2_28F0_FA9B,
            requests: 0x37C9_888D_7CC4_44FC,
        },
    ),
    (
        "within_neighborhoods",
        Fingerprints {
            points: 0x9837_E7E4_3684_8037,
            values: 0x0D4F_0595_8E4D_4E25,
            regions: 0x67A4_FCE2_28F0_FA9B,
            requests: 0x5F5D_D2E1_474A_930C,
        },
    ),
    (
        "serve_mixed_ingest",
        Fingerprints {
            points: 0xF992_42D3_E7F4_54E8,
            values: 0xD615_2B4C_21D1_BD8D,
            regions: 0x67A4_FCE2_28F0_FA9B,
            requests: 0x69DE_63EC_AE22_B44B,
        },
    ),
];

/// The seed the recorded fingerprints belong to (the default `--seed`).
pub const RECORDED_SEED: u64 = 2021;

/// The static side of a run: what the engine is built from.
pub struct Dataset {
    pub points: Vec<Point>,
    pub values: Vec<f64>,
    pub regions: Vec<MultiPolygon>,
    /// Square the data was generated in (a corner of the city grid).
    pub area: BoundingBox,
}

impl Dataset {
    pub fn generate(set: RegionSet, points: usize, scale: &Scale, seed: u64) -> Dataset {
        let side = scale.area_side_m;
        let area = BoundingBox::from_bounds(0.0, 0.0, side, side);
        let profile = match set {
            RegionSet::Census => DatasetProfile::Census,
            RegionSet::Neighborhoods => DatasetProfile::Neighborhoods,
        };
        // `from_profile` with an explicit region count: same complexity,
        // island share and rotation, over `area` instead of the whole city.
        let regions = PolygonSetGenerator::new(
            area,
            scale.region_count(set),
            profile.vertices_per_polygon(),
            spec::REGION_SEED,
        )
        .multipolygon_fraction(profile.multipolygon_fraction())
        .rotation(0.45)
        .generate();
        let (points, values) = rows(&area, scale, points, seed);
        Dataset {
            points,
            values,
            regions,
            area,
        }
    }
}

fn rows(area: &BoundingBox, scale: &Scale, n: usize, seed: u64) -> (Vec<Point>, Vec<f64>) {
    let taxi = TaxiPointGenerator::new(*area, seed)
        .hotspots(scale.hotspots)
        .generate(n);
    (
        taxi.iter().map(|t| t.location).collect(),
        taxi.iter().map(|t| t.fare).collect(),
    )
}

/// The moving side of a run: requests and the rows ingested beside them.
pub struct Traffic {
    /// Warm-up requests (5 % of the timed count) first, then the timed ones.
    pub requests: Vec<Request>,
    pub warmup: usize,
    /// Rows appended during the run, `Scale::append_rows` per batch.
    pub ingest_points: Vec<Point>,
    pub ingest_values: Vec<f64>,
}

impl Traffic {
    /// Draws `operations` timed requests (plus warm-up) from `menu` and the
    /// rows of `appends` ingest batches. `salt` separates the streams of
    /// two workloads run at one seed.
    ///
    /// The timed requests hold every class in exactly its menu share (see
    /// [`deck`]); the seed decides their order and their parameters.
    pub fn generate(
        menu: &[MenuItem],
        area: &BoundingBox,
        scale: &Scale,
        seed: u64,
        salt: &str,
        operations: usize,
        appends: usize,
    ) -> Traffic {
        let mut salt_hash = Fnv1a::default();
        salt_hash.bytes(salt.as_bytes());
        let mut rng = SplitMix64::new(seed ^ salt_hash.finish());
        let warmup = operations.div_ceil(20);
        let mut requests = Vec::with_capacity(warmup + operations);
        for count in [warmup, operations] {
            for class in deck(menu, count, &mut rng) {
                requests.push(instantiate(menu[class].template, area, &mut rng));
            }
        }
        let (ingest_points, ingest_values) =
            rows(area, scale, appends * scale.append_rows, rng.next_u64());
        Traffic {
            requests,
            warmup,
            ingest_points,
            ingest_values,
        }
    }

    /// The timed requests (everything after the warm-up).
    pub fn timed(&self) -> &[Request] {
        &self.requests[self.warmup..]
    }
}

/// Appends of a workload's ingest schedule: one per
/// [`spec::COMPLETIONS_PER_APPEND`] completions beside a service, a fixed
/// five compaction cycles after the timed phase of a direct-call workload.
pub fn ingest_appends(workload: &Workload, operations: usize) -> usize {
    match workload.driver {
        spec::Driver::Serve => operations / spec::COMPLETIONS_PER_APPEND,
        _ => 5 * spec::APPENDS_PER_COMPACT,
    }
}

pub struct Inputs {
    pub dataset: Dataset,
    pub traffic: Traffic,
    pub fingerprints: Fingerprints,
}

impl Inputs {
    /// Generates everything `workload` needs for `operations` timed
    /// requests at `scale`, from `seed` alone.
    pub fn generate(workload: &Workload, scale: &Scale, seed: u64, operations: usize) -> Inputs {
        let dataset = Dataset::generate(
            workload.regions,
            scale.points / workload.points_divisor,
            scale,
            seed,
        );
        let traffic = Traffic::generate(
            workload.menu,
            &dataset.area,
            scale,
            seed,
            workload.name,
            operations,
            ingest_appends(workload, operations),
        );
        let fingerprints = Fingerprints {
            points: fingerprint_points(&dataset.points),
            values: fingerprint_values(&dataset.values),
            regions: fingerprint_regions(&dataset.regions),
            requests: {
                let mut h = Fnv1a::default();
                for request in &traffic.requests {
                    request.fingerprint(&mut h);
                }
                h.u64(fingerprint_points(&traffic.ingest_points));
                h.u64(fingerprint_values(&traffic.ingest_values));
                h.finish()
            },
        };
        Inputs {
            dataset,
            traffic,
            fingerprints,
        }
    }

    /// Compares against the fingerprints recorded for the default scale
    /// (other scales have none and pass): the regions on every seed, points and values at the recorded seed,
    /// and the request sequence when it also has the recorded length
    /// (`--seconds` left at `run_seconds`). Returns one line per mismatch.
    pub fn fingerprint_mismatches(
        &self,
        workload: &Workload,
        scale: &Scale,
        seed: u64,
        recorded_length: bool,
    ) -> Vec<String> {
        if scale.index != spec::QUARTER.index {
            return Vec::new();
        }
        let Some((_, expected)) = EXPECTED_AT_2021.iter().find(|(n, _)| *n == workload.name) else {
            return vec![format!("no recorded fingerprints for {}", workload.name)];
        };
        let mut pairs = vec![("regions", expected.regions, self.fingerprints.regions)];
        if seed == RECORDED_SEED {
            pairs.push(("points", expected.points, self.fingerprints.points));
            pairs.push(("values", expected.values, self.fingerprints.values));
            if recorded_length {
                pairs.push(("requests", expected.requests, self.fingerprints.requests));
            }
        }
        pairs
            .into_iter()
            .filter(|(_, want, got)| want != got)
            .map(|(what, want, got)| {
                format!("input fingerprint of {what} is {got:#018x}, recorded {want:#018x}")
            })
            .collect()
    }
}

/// `count` class indices holding every class of `menu` in exactly its share
/// (largest remainders first), in seeded order. A weighted draw per request
/// would let the share of the expensive classes — and with it throughput
/// and the tail — wander by a few percent from seed to seed.
fn deck(menu: &[MenuItem], count: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let total: usize = menu.iter().map(|item| item.weight as usize).sum();
    let mut shares: Vec<(usize, usize, usize)> = menu
        .iter()
        .enumerate()
        .map(|(class, item)| {
            let scaled = count * item.weight as usize;
            (class, scaled / total, scaled % total)
        })
        .collect();
    let dealt: usize = shares.iter().map(|(_, whole, _)| whole).sum();
    shares.sort_by_key(|&(class, _, remainder)| (std::cmp::Reverse(remainder), class));
    for share in shares.iter_mut().take(count - dealt) {
        share.1 += 1;
    }
    shares.sort_unstable();
    let mut deck: Vec<usize> = shares
        .iter()
        .flat_map(|&(class, cards, _)| std::iter::repeat_n(class, cards))
        .collect();
    // Fisher–Yates.
    for i in (1..deck.len()).rev() {
        deck.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    deck
}

fn instantiate(template: Template, area: &BoundingBox, rng: &mut SplitMix64) -> Request {
    let point = |rng: &mut SplitMix64| {
        Point::new(
            rng.range(area.min.x, area.max.x),
            rng.range(area.min.y, area.max.y),
        )
    };
    match template {
        Template::Aggregate(tolerance_m) => Request::Aggregate { tolerance_m },
        Template::CountRanges(tolerance_m) => Request::CountRanges { tolerance_m },
        Template::Within(d, tolerance_m) => Request::Within { d, tolerance_m },
        Template::Knn { exact } => Request::Knn {
            probe: point(rng),
            exact,
        },
        Template::InPolygon => {
            // A star-shaped polygon (angles ascending, radii jittered) of
            // 5–9 vertices and 0.5–3 km radius: simple by construction.
            let center = point(rng);
            let radius = rng.range(500.0, 3_000.0);
            let vertices = 5 + (rng.next_u64() % 5) as usize;
            let coords: Vec<(f64, f64)> = (0..vertices)
                .map(|i| {
                    let angle =
                        std::f64::consts::TAU * (i as f64 + rng.range(0.1, 0.9)) / vertices as f64;
                    let r = radius * rng.range(0.6, 1.0);
                    (center.x + r * angle.cos(), center.y + r * angle.sin())
                })
                .collect();
            Request::InPolygon {
                polygon: Polygon::from_coords(&coords),
            }
        }
    }
}

fn fingerprint_points(points: &[Point]) -> u64 {
    let mut h = Fnv1a::default();
    for p in points {
        h.f64(p.x);
        h.f64(p.y);
    }
    h.finish()
}

fn fingerprint_values(values: &[f64]) -> u64 {
    let mut h = Fnv1a::default();
    for v in values {
        h.f64(*v);
    }
    h.finish()
}

fn fingerprint_ring(h: &mut Fnv1a, ring: &Ring) {
    h.u64(ring.len() as u64);
    for p in ring.vertices() {
        h.f64(p.x);
        h.f64(p.y);
    }
}

fn fingerprint_regions(regions: &[MultiPolygon]) -> u64 {
    let mut h = Fnv1a::default();
    for region in regions {
        h.u64(region.len() as u64);
        for polygon in region.polygons() {
            fingerprint_ring(&mut h, polygon.exterior());
            h.u64(polygon.holes().len() as u64);
            for hole in polygon.holes() {
                fingerprint_ring(&mut h, hole);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, SMOKE};

    #[test]
    fn same_seed_same_inputs_and_the_map_is_fixed() {
        let join = workload("join_neighborhoods").unwrap();
        let a = Inputs::generate(join, &SMOKE, 7, 60);
        let b = Inputs::generate(join, &SMOKE, 7, 60);
        let c = Inputs::generate(join, &SMOKE, 8, 60);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_eq!(a.traffic.requests, b.traffic.requests);
        assert_ne!(a.fingerprints.points, c.fingerprints.points);
        assert_ne!(a.fingerprints.requests, c.fingerprints.requests);
        assert_eq!(a.fingerprints.regions, c.fingerprints.regions);
        assert_eq!(a.dataset.points.len(), SMOKE.points);
        assert_eq!(a.dataset.regions.len(), SMOKE.neighborhood_regions);
        assert_eq!((a.traffic.warmup, a.traffic.requests.len()), (3, 63));
        assert_eq!(a.traffic.timed().len(), 60);
        assert_eq!(a.traffic.ingest_points.len(), 150 * SMOKE.append_rows);
        // Another workload at the same seed draws another sequence.
        let serve = workload("serve_mixed_ingest").unwrap();
        let d = Inputs::generate(serve, &SMOKE, 7, 60);
        assert_ne!(a.fingerprints.requests, d.fingerprints.requests);
        assert!(d.traffic.requests.iter().all(|r| r.to_query().is_some()));
        assert_eq!(d.traffic.ingest_points.len(), 3 * SMOKE.append_rows);
    }

    #[test]
    fn requests_follow_the_menu_and_polygons_are_valid() {
        let join = workload("join_neighborhoods").unwrap();
        let inputs = Inputs::generate(join, &SMOKE, 2021, 2_000);
        let mut hits = vec![0usize; join.menu.len()];
        for request in inputs.traffic.timed() {
            hits[request.class(join.menu)] += 1;
            if let Request::InPolygon { polygon } = request {
                assert!(polygon.is_valid());
                assert!((5..=9).contains(&polygon.exterior().len()));
            }
        }
        // Exactly the menu's shares, in an order the seed decides.
        assert_eq!(hits, [500, 400, 400, 300, 200, 200]);
        let other = Inputs::generate(join, &SMOKE, 2022, 2_000);
        assert_ne!(inputs.traffic.requests, other.traffic.requests);
        // Shares that do not divide evenly: largest remainders first.
        let mut rng = SplitMix64::new(1);
        let mut odd = deck(join.menu, 7, &mut rng);
        odd.sort_unstable();
        assert_eq!(odd, [0, 0, 1, 2, 3, 4, 5]);
        assert!(deck(join.menu, 0, &mut rng).is_empty());
        let within = workload("within_neighborhoods").unwrap();
        let w = Inputs::generate(within, &SMOKE, 2021, 6);
        assert_eq!(w.dataset.points.len(), SMOKE.points / 3);
        assert!(w.traffic.requests.iter().all(|r| r.to_query().is_none()));
    }
}
