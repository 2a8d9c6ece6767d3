//! Hierarchical Raster (HR) approximation — variable-sized cells
//! (Figure 1(c)).
//!
//! Interior cells are kept as coarse as possible (they do not contribute to
//! the approximation error), while boundary cells are refined down to the
//! level implied by the distance bound. The resulting cell set is exactly
//! what the Adaptive Cell Trie indexes and what the approximate joins
//! evaluate against.

use crate::bound::DistanceBound;
use crate::cell::{estimate_overlap_fraction, BoundaryPolicy, CellClass, RasterCell, Rasterizable};
use crate::classify::{Candidates, CellClassifier};
use dbsa_geom::polygon::BoxRelation;
use dbsa_geom::{BoundingBox, Point};
use dbsa_grid::{CellId, GridExtent, MAX_LEVEL};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Queue entry of the budget-driven construction; the `Ord` impl makes the
/// max-heap pop the coarsest cell first, breaking level ties towards the
/// cell with the most estimated area outside the geometry (the cell whose
/// refinement removes the most conservative overcount), then by id so the
/// construction is deterministic.
#[derive(Debug, Clone, Copy)]
struct BudgetQueueEntry {
    id: CellId,
    level: u8,
    /// Out-of-geometry samples on a 4×4 grid, 0..=16.
    outside_samples: u8,
    /// The cell's candidate lists, for its children and its annotation; no
    /// part of the order.
    candidates: Candidates,
}

impl BudgetQueueEntry {
    /// Sampling grid side for the outside-area estimate.
    const SAMPLE_SIDE: usize = 4;

    /// Samples a boundary cell with the given candidates.
    fn sample(
        classifier: &CellClassifier<'_>,
        id: CellId,
        bbox: &BoundingBox,
        candidates: Candidates,
    ) -> Self {
        let samples = Self::SAMPLE_SIDE * Self::SAMPLE_SIDE;
        let inside = estimate_overlap_fraction(
            |p| classifier.contains(candidates.crossing, p),
            bbox,
            Self::SAMPLE_SIDE,
        );
        BudgetQueueEntry {
            id,
            level: id.level(),
            outside_samples: (samples as f64 * (1.0 - inside)).round() as u8,
            candidates,
        }
    }

    /// The overlap fraction already sampled by [`sample`](Self::sample)
    /// (lossless: `outside_samples` is an exact count of grid samples).
    fn inside_fraction(&self) -> f64 {
        1.0 - self.outside_samples as f64 / (Self::SAMPLE_SIDE * Self::SAMPLE_SIDE) as f64
    }
}

impl Ord for BudgetQueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .level
            .cmp(&self.level)
            .then(self.outside_samples.cmp(&other.outside_samples))
            .then(other.id.raw().cmp(&self.id.raw()))
    }
}

impl PartialOrd for BudgetQueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for BudgetQueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for BudgetQueueEntry {}

/// A hierarchical (variable cell size) raster approximation.
///
/// Cells are mutually disjoint and stored sorted by their leaf-descendant
/// range, so point lookups are a binary search over ranges.
#[derive(Debug, Clone)]
pub struct HierarchicalRaster {
    extent: GridExtent,
    boundary_level: u8,
    cells: Vec<RasterCell>,
    policy: BoundaryPolicy,
}

impl HierarchicalRaster {
    /// Builds the hierarchical raster satisfying `bound` on `extent`.
    ///
    /// Boundary cells are refined to the coarsest level whose diagonal is at
    /// most ε; interior cells stop refining as soon as they are fully
    /// covered.
    ///
    /// # Panics
    /// Panics if the bound cannot be met on the extent.
    pub fn with_bound<G: Rasterizable>(
        geometry: &G,
        extent: &GridExtent,
        bound: DistanceBound,
        policy: BoundaryPolicy,
    ) -> Self {
        let boundary_level = bound
            .level_on(extent)
            .expect("distance bound too small for this extent");
        Self::with_boundary_level(geometry, extent, boundary_level, policy)
    }

    /// Builds the hierarchical raster refining boundary cells to an explicit
    /// grid level.
    pub fn with_boundary_level<G: Rasterizable>(
        geometry: &G,
        extent: &GridExtent,
        boundary_level: u8,
        policy: BoundaryPolicy,
    ) -> Self {
        assert!(boundary_level <= MAX_LEVEL);
        let mut cells = Vec::new();
        if let Some((mut classifier, root)) = CellClassifier::new(geometry, extent) {
            descend(
                &mut classifier,
                CellId::ROOT,
                root,
                boundary_level,
                policy,
                &mut cells,
            );
        }
        // The descent visits children in Morton order and emits disjoint
        // cells, so they arrive sorted by leaf range.
        debug_assert!(cells
            .windows(2)
            .all(|w| w[0].id.range_min() < w[1].id.range_min()));
        HierarchicalRaster {
            extent: *extent,
            boundary_level,
            cells,
            policy,
        }
    }

    /// Builds a hierarchical raster with at most `cell_budget` cells, by
    /// refining boundary cells until the budget or the maximum level is
    /// reached. Refinement proceeds coarsest level first (which is what
    /// keeps the distance guarantee uniform across the boundary) and,
    /// within a level, spends the remaining budget on the boundary cells
    /// with the largest estimated area *outside* the geometry — those are
    /// the cells that contribute the most conservative overcount, so they
    /// buy the most accuracy per cell.
    ///
    /// This is the knob used in the paper's Figure 4 experiment, where query
    /// polygons are approximated with 32, 128 or 512 cells each.
    pub fn with_cell_budget<G: Rasterizable>(
        geometry: &G,
        extent: &GridExtent,
        cell_budget: usize,
        policy: BoundaryPolicy,
    ) -> Self {
        assert!(cell_budget >= 4, "cell budget must be at least 4");
        let Some((mut classifier, root)) = CellClassifier::new(geometry, extent) else {
            return HierarchicalRaster {
                extent: *extent,
                boundary_level: 0,
                cells: Vec::new(),
                policy,
            };
        };
        let mut finished: Vec<RasterCell> = Vec::new();
        // Boundary cells pending refinement, highest refinement priority
        // first (see `BudgetQueueEntry`). Their candidate lists stay in the
        // classifier's store until the construction ends.
        let mut queue: BinaryHeap<BudgetQueueEntry> = BinaryHeap::new();
        let mut achieved_level = 0u8;
        queue.push(BudgetQueueEntry::sample(
            &classifier,
            CellId::ROOT,
            &extent.cell_id_bbox(CellId::ROOT),
            root,
        ));

        while let Some(entry) = queue.peek().copied() {
            // Refining the top queued cell replaces 1 cell by up to 4:
            // stop when that could overflow the budget.
            if finished.len() + queue.len() + 3 > cell_budget || entry.level >= MAX_LEVEL {
                break;
            }
            queue.pop();
            for child in entry.id.children() {
                let bbox = extent.cell_id_bbox(child);
                let mark = classifier.mark();
                let crossing = classifier.crossing(entry.candidates.crossing, &bbox);
                match classifier.classify(crossing, &bbox) {
                    BoxRelation::Disjoint => classifier.release(mark),
                    BoxRelation::Inside => {
                        finished.push(RasterCell::interior(child).with_distance(
                            classifier.annotate(entry.candidates.nearest, &bbox, child.level()),
                        ));
                        classifier.release(mark);
                    }
                    BoxRelation::Boundary => {
                        achieved_level = achieved_level.max(child.level());
                        let nearest =
                            classifier.nearest(entry.candidates.nearest, &bbox, child.level());
                        queue.push(BudgetQueueEntry::sample(
                            &classifier,
                            child,
                            &bbox,
                            Candidates { crossing, nearest },
                        ));
                    }
                }
            }
        }

        // Remaining queued boundary cells are emitted as-is (subject to
        // policy). The distance guarantee is set by the *coarsest* of them
        // — not by the deepest level the refinement reached, which would
        // overstate the bound whenever the budget runs out mid-level.
        let mut coarsest_boundary: Option<u8> = None;
        for entry in queue {
            coarsest_boundary = Some(match coarsest_boundary {
                Some(level) => level.min(entry.level),
                None => entry.level,
            });
            // The queue entry already sampled this cell's overlap; reuse it
            // instead of re-estimating through the policy.
            let keep = match policy {
                BoundaryPolicy::Conservative => true,
                BoundaryPolicy::NonConservative { min_overlap } => {
                    entry.inside_fraction() >= min_overlap
                }
            };
            if keep {
                finished.push(
                    RasterCell::boundary(entry.id).with_distance(classifier.annotate(
                        entry.candidates.nearest,
                        &extent.cell_id_bbox(entry.id),
                        entry.level,
                    )),
                );
            }
        }
        finished.sort_by_key(|c| c.id.range_min());
        HierarchicalRaster {
            extent: *extent,
            boundary_level: coarsest_boundary.unwrap_or(achieved_level),
            cells: finished,
            policy,
        }
    }

    /// The level boundary cells were refined to.
    pub fn boundary_level(&self) -> u8 {
        self.boundary_level
    }

    /// The grid extent.
    pub fn extent(&self) -> &GridExtent {
        &self.extent
    }

    /// The boundary policy.
    pub fn policy(&self) -> BoundaryPolicy {
        self.policy
    }

    /// All cells, sorted by leaf range.
    pub fn cells(&self) -> &[RasterCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of boundary cells.
    pub fn boundary_cell_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_boundary()).count()
    }

    /// The Hausdorff bound actually guaranteed by this raster: the diagonal
    /// of a boundary-level cell.
    pub fn guaranteed_bound(&self) -> f64 {
        self.extent.cell_diagonal(self.boundary_level)
    }

    /// Approximate memory footprint in bytes: cell id + class byte + the
    /// quantized distance annotation.
    pub fn memory_bytes(&self) -> usize {
        self.cells.len()
            * (std::mem::size_of::<u64>() + 1 + std::mem::size_of::<crate::cell::DistanceBins>())
    }

    /// Total area covered by the cells.
    pub fn covered_area(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| {
                let side = self.extent.cell_size(c.id.level());
                side * side
            })
            .sum()
    }

    /// Approximate containment: whether the point's leaf cell falls inside
    /// one of the raster's (disjoint) cells.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.classify_point(p).is_some()
    }

    /// Class of the cell containing the point, if any.
    pub fn classify_point(&self, p: &Point) -> Option<CellClass> {
        if !self.extent.contains(p) {
            return None;
        }
        let leaf = self.extent.leaf_cell_id(p);
        self.find_containing(leaf).map(|c| c.class)
    }

    /// Finds the raster cell containing the given leaf cell, if any.
    pub fn find_containing(&self, leaf: CellId) -> Option<&RasterCell> {
        // Cells are disjoint and sorted by range_min: find the last cell
        // whose range_min <= leaf, then check its range_max.
        let idx = self.cells.partition_point(|c| c.id.range_min() <= leaf);
        if idx == 0 {
            return None;
        }
        let cand = &self.cells[idx - 1];
        if cand.id.range_max() >= leaf {
            Some(cand)
        } else {
            None
        }
    }

    /// Iterates over the world-space boxes of all cells with their class.
    pub fn cell_boxes(&self) -> impl Iterator<Item = (BoundingBox, CellClass)> + '_ {
        self.cells
            .iter()
            .map(move |c| (self.extent.cell_id_bbox(c.id), c.class))
    }

    /// Histogram of cell counts per level, coarsest to finest. Useful for
    /// reports and for verifying that interior cells stay coarse.
    pub fn level_histogram(&self) -> Vec<(u8, usize)> {
        let mut hist = std::collections::BTreeMap::new();
        for c in &self.cells {
            *hist.entry(c.id.level()).or_insert(0usize) += 1;
        }
        hist.into_iter().collect()
    }
}

/// Recursive quadtree descent of the bound-driven construction: a cell
/// narrows its parent's candidate lists to its own box, is classified
/// against what is left, and hands the narrowed lists to its children.
fn descend(
    classifier: &mut CellClassifier<'_>,
    cell: CellId,
    parent: Candidates,
    boundary_level: u8,
    policy: BoundaryPolicy,
    out: &mut Vec<RasterCell>,
) {
    let bbox = classifier.extent().cell_id_bbox(cell);
    let level = cell.level();
    let mark = classifier.mark();
    let crossing = classifier.crossing(parent.crossing, &bbox);
    let class = match classifier.classify(crossing, &bbox) {
        BoxRelation::Disjoint => None,
        BoxRelation::Inside => Some(CellClass::Interior),
        BoxRelation::Boundary if level < boundary_level => {
            let candidates = Candidates {
                crossing,
                nearest: classifier.nearest(parent.nearest, &bbox, level),
            };
            for child in cell.children() {
                descend(classifier, child, candidates, boundary_level, policy, out);
            }
            None
        }
        BoxRelation::Boundary => classifier
            .keeps(policy, crossing, &bbox)
            .then_some(CellClass::Boundary),
    };
    if let Some(class) = class {
        out.push(RasterCell {
            id: cell,
            class,
            dist: classifier.annotate(parent.nearest, &bbox, level),
        });
    }
    classifier.release(mark);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsa_geom::{MultiPolygon, Polygon};
    use proptest::prelude::*;

    fn extent() -> GridExtent {
        GridExtent::new(Point::new(0.0, 0.0), 64.0)
    }

    fn square(side: f64) -> Polygon {
        Polygon::from_coords(&[
            (8.0, 8.0),
            (8.0 + side, 8.0),
            (8.0 + side, 8.0 + side),
            (8.0, 8.0 + side),
        ])
    }

    fn triangle() -> Polygon {
        Polygon::from_coords(&[(4.0, 4.0), (60.0, 8.0), (30.0, 56.0)])
    }

    #[test]
    fn hierarchical_uses_fewer_cells_than_uniform() {
        let poly = triangle();
        let hr = HierarchicalRaster::with_boundary_level(
            &poly,
            &extent(),
            7,
            BoundaryPolicy::Conservative,
        );
        let ur = crate::uniform::UniformRaster::at_level(
            &poly,
            &extent(),
            7,
            BoundaryPolicy::Conservative,
        );
        assert!(
            hr.cell_count() < ur.cell_count(),
            "HR {} cells should be fewer than UR {}",
            hr.cell_count(),
            ur.cell_count()
        );
        // Interior cells appear at multiple levels.
        let hist = hr.level_histogram();
        assert!(hist.len() > 1, "expected multiple levels, got {hist:?}");
    }

    #[test]
    fn cells_are_disjoint_and_sorted() {
        let hr = HierarchicalRaster::with_boundary_level(
            &triangle(),
            &extent(),
            6,
            BoundaryPolicy::Conservative,
        );
        let cells = hr.cells();
        for w in cells.windows(2) {
            assert!(
                w[0].id.range_max() < w[1].id.range_min(),
                "cells must be disjoint and sorted: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn conservative_hr_contains_all_polygon_points() {
        let poly = triangle();
        let hr = HierarchicalRaster::with_boundary_level(
            &poly,
            &extent(),
            7,
            BoundaryPolicy::Conservative,
        );
        for &(x, y) in &[(10.0, 8.0), (30.0, 30.0), (45.0, 15.0), (29.0, 50.0)] {
            let p = Point::new(x, y);
            if poly.contains_point(&p) {
                assert!(hr.contains_point(&p), "HR must contain {p:?}");
            }
        }
        assert!(!hr.contains_point(&Point::new(2.0, 60.0)));
        assert!(!hr.contains_point(&Point::new(-5.0, -5.0)));
    }

    #[test]
    fn classify_point_identifies_interior_and_boundary_cells() {
        let poly = square(32.0);
        let hr = HierarchicalRaster::with_boundary_level(
            &poly,
            &extent(),
            6,
            BoundaryPolicy::Conservative,
        );
        assert_eq!(
            hr.classify_point(&Point::new(24.0, 24.0)),
            Some(CellClass::Interior)
        );
        assert_eq!(
            hr.classify_point(&Point::new(8.1, 20.0)),
            Some(CellClass::Boundary)
        );
        assert_eq!(hr.classify_point(&Point::new(60.0, 60.0)), None);
    }

    #[test]
    fn with_bound_meets_the_requested_bound() {
        let poly = triangle();
        for eps in [8.0, 4.0, 2.0, 1.0] {
            let hr = HierarchicalRaster::with_bound(
                &poly,
                &extent(),
                DistanceBound::meters(eps),
                BoundaryPolicy::Conservative,
            );
            assert!(hr.guaranteed_bound() <= eps);
        }
        // Tighter bounds need more cells.
        let coarse = HierarchicalRaster::with_bound(
            &poly,
            &extent(),
            DistanceBound::meters(8.0),
            BoundaryPolicy::Conservative,
        );
        let fine = HierarchicalRaster::with_bound(
            &poly,
            &extent(),
            DistanceBound::meters(1.0),
            BoundaryPolicy::Conservative,
        );
        assert!(fine.cell_count() > coarse.cell_count());
    }

    #[test]
    fn cell_budget_controls_cell_count() {
        let poly = triangle();
        for budget in [32usize, 128, 512] {
            let hr = HierarchicalRaster::with_cell_budget(
                &poly,
                &extent(),
                budget,
                BoundaryPolicy::Conservative,
            );
            assert!(
                hr.cell_count() <= budget,
                "budget {budget} exceeded: {}",
                hr.cell_count()
            );
            assert!(hr.cell_count() > 0);
        }
        // Larger budgets refine further.
        let small = HierarchicalRaster::with_cell_budget(
            &poly,
            &extent(),
            32,
            BoundaryPolicy::Conservative,
        );
        let large = HierarchicalRaster::with_cell_budget(
            &poly,
            &extent(),
            512,
            BoundaryPolicy::Conservative,
        );
        assert!(large.cell_count() >= small.cell_count());
        assert!(large.boundary_level() >= small.boundary_level());
        // Finer rasters cover less spurious area.
        assert!(large.covered_area() <= small.covered_area() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn cell_budget_must_be_reasonable() {
        let _ = HierarchicalRaster::with_cell_budget(
            &square(8.0),
            &extent(),
            2,
            BoundaryPolicy::Conservative,
        );
    }

    #[test]
    fn covered_area_at_least_polygon_area_when_conservative() {
        let poly = triangle();
        let hr = HierarchicalRaster::with_boundary_level(
            &poly,
            &extent(),
            7,
            BoundaryPolicy::Conservative,
        );
        assert!(hr.covered_area() >= poly.area() - 1e-9);
    }

    #[test]
    fn works_for_multipolygons() {
        let mp = MultiPolygon::new(vec![
            square(8.0),
            Polygon::from_coords(&[(40.0, 40.0), (56.0, 40.0), (56.0, 56.0), (40.0, 56.0)]),
        ]);
        let hr = HierarchicalRaster::with_boundary_level(
            &mp,
            &extent(),
            6,
            BoundaryPolicy::Conservative,
        );
        assert!(hr.contains_point(&Point::new(12.0, 12.0)));
        assert!(hr.contains_point(&Point::new(48.0, 48.0)));
        assert!(!hr.contains_point(&Point::new(30.0, 30.0)));
    }

    #[test]
    fn memory_and_find_containing() {
        let poly = square(16.0);
        let hr = HierarchicalRaster::with_boundary_level(
            &poly,
            &extent(),
            6,
            BoundaryPolicy::Conservative,
        );
        assert_eq!(hr.memory_bytes(), hr.cell_count() * 13);
        let leaf_inside = hr.extent().leaf_cell_id(&Point::new(16.0, 16.0));
        assert!(hr.find_containing(leaf_inside).is_some());
        let leaf_outside = hr.extent().leaf_cell_id(&Point::new(60.0, 60.0));
        assert!(hr.find_containing(leaf_outside).is_none());
        assert_eq!(hr.cell_boxes().count(), hr.cell_count());
        assert_eq!(hr.policy(), BoundaryPolicy::Conservative);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_hr_distance_bound_holds_for_random_query_points(
            qx in 0f64..64.0, qy in 0f64..64.0,
            level in 5u8..8,
        ) {
            let poly = triangle();
            let hr = HierarchicalRaster::with_boundary_level(&poly, &extent(), level, BoundaryPolicy::Conservative);
            let p = Point::new(qx, qy);
            let approx = hr.contains_point(&p);
            let exact = poly.contains_point(&p);
            if approx != exact {
                // Disagreements only happen within the guaranteed bound of
                // the polygon boundary.
                prop_assert!(poly.boundary_distance(&p) <= hr.guaranteed_bound() + 1e-9,
                    "point {:?} disagreement beyond bound {}", p, hr.guaranteed_bound());
            }
            // Conservative rasters never produce false negatives.
            if exact {
                prop_assert!(approx);
            }
        }

        /// The distance-annotated cell model: every cell's signed interval
        /// conservatively contains the exact signed distance of sampled
        /// in-cell points, and the 3-state classification is exactly the
        /// interval's derived view.
        #[test]
        fn prop_cell_distance_annotations_are_conservative(
            level in 4u8..8,
            fx in 0.05f64..0.95, fy in 0.05f64..0.95,
        ) {
            let poly = triangle();
            let ext = extent();
            let hr = HierarchicalRaster::with_boundary_level(
                &poly, &ext, level, BoundaryPolicy::Conservative);
            for cell in hr.cells() {
                let side = ext.cell_size(cell.id.level());
                let si = cell.signed_distance(side);
                prop_assert_eq!(si.derived_class(), cell.class);
                let bbox = ext.cell_id_bbox(cell.id);
                let p = Point::new(
                    bbox.min.x + fx * bbox.width(),
                    bbox.min.y + fy * bbox.height(),
                );
                let exact = poly.signed_distance(&p);
                prop_assert!(
                    si.lo - 1e-9 <= exact && exact <= si.hi + 1e-9,
                    "cell {:?}: exact {} outside [{}, {}]",
                    cell.id, exact, si.lo, si.hi
                );
            }
        }

        #[test]
        fn prop_hr_and_ur_agree_on_containment_semantics(
            qx in 0f64..64.0, qy in 0f64..64.0,
        ) {
            // At the same level, HR and UR represent the same region:
            // any point accepted by one and rejected by the other must be
            // within one cell diagonal of the boundary (edge effects of the
            // interior coarsening are not possible — interior cells cover
            // exactly the same area).
            let poly = triangle();
            let level = 6;
            let hr = HierarchicalRaster::with_boundary_level(&poly, &extent(), level, BoundaryPolicy::Conservative);
            let ur = crate::uniform::UniformRaster::at_level(&poly, &extent(), level, BoundaryPolicy::Conservative);
            let p = Point::new(qx, qy);
            prop_assert_eq!(hr.contains_point(&p), ur.contains_point(&p));
        }
    }
}
