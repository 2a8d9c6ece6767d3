//! Correctness, checked in every run after the timed phase (untimed).
//!
//! The paper's contract: an answer is exact, or wrong by at most a stated
//! distance. So exact answers must equal the R-tree / brute-force baselines
//! on counts, every guaranteed interval must contain the exact value, and
//! every point an approximate answer misplaces must lie within the plan's
//! `guaranteed_bound` of the boundary it was misplaced across. Each check
//! is one attempted operation; each violation is one failed operation.

use crate::drive::{execute, Answer};
use crate::inputs::Request;
use crate::spec;
use dbsa::index::{RTree, RTreeEntry};
use dbsa::persist::SECTION_JOIN;
use dbsa::prelude::*;
use dbsa::query::ResultRange;
use dbsa::{SnapshotError, SnapshotFile};
use std::path::Path;

/// Slack for comparing distances computed along different code paths.
const EPS_M: f64 = 1e-6;

/// The region join of a saved engine, read back from its snapshot file —
/// the only public route to the index an engine serves from, and bit for
/// bit that index.
pub fn load_join(snapshot_file: &Path) -> Result<ApproximateCellJoin, SnapshotError> {
    let file = SnapshotFile::open(snapshot_file)?;
    let mut cursor = file.section(SECTION_JOIN)?;
    let join = ApproximateCellJoin::read_snapshot(&mut cursor)?;
    cursor.finish()?;
    Ok(join)
}

/// Exact answers over one snapshot's rows, and the tally of checks made
/// against them.
pub struct Oracle<'a> {
    regions: &'a [MultiPolygon],
    join: &'a ApproximateCellJoin,
    points: Vec<Point>,
    /// Region containing each point, exactly.
    truth: Vec<Option<u32>>,
    /// `RTreeExactJoin` over the same rows.
    exact: JoinResult,
    /// Regions reaching outside the grid: the engine documents that the
    /// accept-side slack of an approximate within-distance does not apply
    /// to them.
    exits_grid: Vec<bool>,
    pub checked: u64,
    pub failures: Vec<String>,
    /// Largest distance from a misplaced point to the boundary (or to the
    /// `d` iso-line) it was misplaced across.
    pub error_m_max: f64,
}

impl<'a> Oracle<'a> {
    pub fn new(snapshot: &'a EngineSnapshot, join: &'a ApproximateCellJoin) -> Self {
        let regions = snapshot.regions();
        let (points, values) = snapshot.all_rows();
        let entries = regions
            .iter()
            .enumerate()
            .map(|(i, r)| RTreeEntry::new(r.bbox(), i as u64))
            .collect();
        let tree = RTree::bulk_load_str(entries, RTree::DEFAULT_CAPACITY);
        let truth = points
            .iter()
            .map(|p| {
                tree.query_point(p)
                    .into_iter()
                    .find(|&r| regions[r as usize].contains_point(p))
                    .map(|r| r as u32)
            })
            .collect();
        let grid = snapshot.extent().bbox();
        Oracle {
            regions,
            join,
            exact: RTreeExactJoin::build(regions).execute(&points, &values),
            points,
            truth,
            exits_grid: regions
                .iter()
                .map(|r| !grid.contains_box(&r.bbox()))
                .collect(),
            checked: 0,
            failures: Vec::new(),
            error_m_max: 0.0,
        }
    }

    /// Runs `request` directly against `snapshot` and checks the answer.
    pub fn check(&mut self, snapshot: &EngineSnapshot, request: &Request) {
        self.checked += 1;
        let answer = execute(snapshot, request);
        let verdict = match (request, &answer) {
            (
                Request::Aggregate {
                    tolerance_m: Some(t),
                },
                Answer::Join(plan, result),
            ) => self.bounded_aggregate(*t, plan, result),
            (Request::Aggregate { tolerance_m: None }, Answer::Join(plan, result)) => {
                self.exact_aggregate(plan, result)
            }
            (Request::CountRanges { tolerance_m }, Answer::Ranges(plan, ranges)) => {
                self.count_ranges(*tolerance_m, plan, ranges)
            }
            (Request::InPolygon { polygon }, Answer::Region(aggregate, cells)) => {
                self.in_polygon(polygon, aggregate, *cells)
            }
            (
                Request::Within {
                    d,
                    tolerance_m: Some(t),
                },
                Answer::Join(plan, result),
            ) => self.bounded_within(*d, *t, plan, result),
            (
                Request::Within {
                    d,
                    tolerance_m: None,
                },
                Answer::Join(plan, result),
            ) => self.exact_within(snapshot, *d, plan, result),
            (Request::Knn { probe, exact }, Answer::Neighbors(Ok(neighbors))) => {
                self.knn(probe, *exact, neighbors)
            }
            (_, Answer::Neighbors(Err(error))) => Err(format!("typed error: {error}")),
            _ => Err("answer of the wrong shape".to_string()),
        };
        if let Err(why) = verdict {
            self.failures.push(format!("{request:?}: {why}"));
        }
    }

    /// A misplaced point's error: how far it lies from the boundary of the
    /// region it was wrongly given to, or withheld from.
    fn misplacement_m(&self, p: &Point, given: Option<u32>, truth: Option<u32>) -> f64 {
        [given, truth]
            .into_iter()
            .flatten()
            .map(|r| self.regions[r as usize].boundary_distance(p))
            .fold(0.0, f64::max)
    }

    fn bounded_aggregate(
        &mut self,
        tolerance_m: f64,
        plan: &QueryPlan,
        result: &JoinResult,
    ) -> Result<(), String> {
        if !plan.satisfies_request || plan.guaranteed_bound > tolerance_m {
            return Err(format!("plan {plan} does not honour {tolerance_m} m"));
        }
        // The per-point view of the same answer.
        let given = self.join.lookup_batch_at(&self.points, plan.level);
        let mut counts = vec![0u64; self.regions.len()];
        let mut worst = 0.0f64;
        for ((p, posting), truth) in self.points.iter().zip(&given).zip(&self.truth) {
            let given = posting.map(|c| c.polygon);
            if let Some(r) = given {
                counts[r as usize] += 1;
            }
            if given != *truth {
                worst = worst.max(self.misplacement_m(p, given, *truth));
            }
        }
        if counts
            .iter()
            .zip(&result.regions)
            .any(|(c, r)| *c != r.count)
        {
            return Err("per-point lookups disagree with the served aggregate".to_string());
        }
        self.error_m_max = self.error_m_max.max(worst);
        if worst > plan.guaranteed_bound + EPS_M {
            return Err(format!(
                "a point is misplaced by {worst} m, beyond the guaranteed {} m",
                plan.guaranteed_bound
            ));
        }
        Ok(())
    }

    fn exact_aggregate(&self, plan: &QueryPlan, result: &JoinResult) -> Result<(), String> {
        if !plan.exact_refinement {
            return Err("exact request planned without refinement".to_string());
        }
        if result.unmatched != self.exact.unmatched {
            return Err(format!(
                "{} unmatched, R-tree join has {}",
                result.unmatched, self.exact.unmatched
            ));
        }
        for (i, (got, want)) in result.regions.iter().zip(&self.exact.regions).enumerate() {
            // Counts, min and max bit for bit; sums re-associate across
            // shard merges.
            let sums_agree = (got.sum - want.sum).abs() <= 1e-9 * want.sum.abs().max(1.0);
            if (got.count, got.min, got.max) != (want.count, want.min, want.max) || !sums_agree {
                return Err(format!("region {i}: {got:?}, R-tree join has {want:?}"));
            }
        }
        Ok(())
    }

    fn count_ranges(
        &self,
        tolerance_m: f64,
        plan: &QueryPlan,
        ranges: &[ResultRange],
    ) -> Result<(), String> {
        if !plan.satisfies_request || plan.guaranteed_bound > tolerance_m {
            return Err(format!("plan {plan} does not honour {tolerance_m} m"));
        }
        for (i, (range, exact)) in ranges.iter().zip(&self.exact.regions).enumerate() {
            if !range.contains(exact.count as f64) {
                return Err(format!(
                    "region {i}: exact count {} outside [{}, {}]",
                    exact.count, range.lower, range.upper
                ));
            }
        }
        Ok(())
    }

    fn in_polygon(
        &self,
        polygon: &Polygon,
        aggregate: &RegionAggregate,
        cells: usize,
    ) -> Result<(), String> {
        if cells > spec::POLYGON_CELL_BUDGET {
            return Err(format!("{cells} cells exceed the budget"));
        }
        let exact = self
            .points
            .iter()
            .filter(|p| polygon.contains_point(p))
            .count();
        let range = ResultRange::count_range(aggregate);
        if !range.contains(exact as f64) {
            return Err(format!(
                "exact count {exact} outside [{}, {}]",
                range.lower, range.upper
            ));
        }
        Ok(())
    }

    /// Distance from `p` to region `r` (0 inside).
    fn distance_m(&self, p: &Point, r: usize) -> f64 {
        self.regions[r].signed_distance(p).max(0.0)
    }

    fn bounded_within(
        &mut self,
        d: f64,
        tolerance_m: f64,
        plan: &QueryPlan,
        result: &JoinResult,
    ) -> Result<(), String> {
        if !plan.satisfies_request || plan.guaranteed_bound > tolerance_m {
            return Err(format!("plan {plan} does not honour {tolerance_m} m"));
        }
        // One single-point join per row gives the per-point view.
        let distance = self.join.distance();
        let mut counts = vec![0u64; self.regions.len()];
        let mut unmatched = 0u64;
        let mut worst = 0.0f64;
        for p in &self.points {
            let one = distance.within_at(d, std::slice::from_ref(p), &[0.0], plan.level);
            match one.regions.iter().position(|r| r.count == 1) {
                Some(r) => {
                    counts[r] += 1;
                    // Matched: within d + bound of the region it was given
                    // to (regions leaving the grid are exempt).
                    let beyond = self.distance_m(p, r) - d;
                    if beyond > 0.0 && !self.exits_grid[r] {
                        worst = worst.max(beyond);
                    }
                }
                None => {
                    // Unmatched: the covering is conservative, so no
                    // region may be within d.
                    unmatched += 1;
                    if let Some(r) = (0..self.regions.len()).find(|&r| self.distance_m(p, r) <= d) {
                        return Err(format!(
                            "{p:?} is within {d} m of region {r} but was not matched"
                        ));
                    }
                }
            }
        }
        if unmatched != result.unmatched
            || counts
                .iter()
                .zip(&result.regions)
                .any(|(c, r)| *c != r.count)
        {
            return Err("per-point joins disagree with the served answer".to_string());
        }
        self.error_m_max = self.error_m_max.max(worst);
        if worst > plan.guaranteed_bound + EPS_M {
            return Err(format!(
                "a matched point lies {worst} m beyond the {d} m line, guaranteed {} m",
                plan.guaranteed_bound
            ));
        }
        Ok(())
    }

    fn exact_within(
        &self,
        snapshot: &EngineSnapshot,
        d: f64,
        plan: &QueryPlan,
        result: &JoinResult,
    ) -> Result<(), String> {
        if !plan.exact_refinement {
            return Err("exact request planned without refinement".to_string());
        }
        let (points, values) = snapshot.all_rows();
        let brute = BruteForceDistanceJoin::new(self.regions).within(d, &points, &values);
        if result.unmatched != brute.unmatched {
            return Err(format!(
                "{} unmatched, brute force has {}",
                result.unmatched, brute.unmatched
            ));
        }
        for (i, (got, want)) in result.regions.iter().zip(&brute.regions).enumerate() {
            if (got.count, got.min, got.max) != (want.count, want.min, want.max) {
                return Err(format!("region {i}: {got:?}, brute force has {want:?}"));
            }
        }
        Ok(())
    }

    fn knn(&self, probe: &Point, exact: bool, neighbors: &[KnnNeighbor]) -> Result<(), String> {
        let want = spec::KNN_K.min(self.regions.len());
        if neighbors.len() != want {
            return Err(format!("{} neighbours, asked for {want}", neighbors.len()));
        }
        if exact {
            let mut tests = 0;
            let brute =
                BruteForceDistanceJoin::new(self.regions).knn(probe, spec::KNN_K, &mut tests);
            if neighbors != brute.as_slice() {
                return Err(format!("{neighbors:?}, brute force has {brute:?}"));
            }
            return Ok(());
        }
        for n in neighbors {
            let exact = self.distance_m(probe, n.region as usize);
            if !(n.lo - EPS_M <= exact && exact <= n.hi + EPS_M) {
                return Err(format!(
                    "region {}: exact distance {exact} outside [{}, {}]",
                    n.region, n.lo, n.hi
                ));
            }
        }
        Ok(())
    }
}

/// Share of the exact top-k that the approximate kNN reports, over
/// `probes` — the layer metric `query.distance.knn_recall_at_3`.
pub fn knn_recall(snapshot: &EngineSnapshot, probes: &[Point]) -> f64 {
    let brute = BruteForceDistanceJoin::new(snapshot.regions());
    let (mut hits, mut total, mut tests) = (0usize, 0usize, 0u64);
    for p in probes {
        let Ok(approx) = snapshot.knn(p, spec::KNN_K) else {
            continue;
        };
        for e in brute.knn(p, spec::KNN_K, &mut tests) {
            total += 1;
            hits += usize::from(approx.iter().any(|a| a.region == e.region));
        }
    }
    hits as f64 / total.max(1) as f64
}
