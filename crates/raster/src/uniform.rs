//! Uniform Raster (UR) approximation — equal-sized cells (Figure 1(b)).

use crate::bound::DistanceBound;
use crate::cell::{BoundaryPolicy, CellClass, RasterCell, Rasterizable};
use crate::classify::{Candidates, CellClassifier};
use dbsa_geom::polygon::BoxRelation;
use dbsa_geom::{BoundingBox, Point, Segment};
use dbsa_grid::{CellId, GridExtent};

/// A uniform raster approximation: the geometry is represented by the set
/// of grid cells (all at the same level) that it touches, each tagged as
/// interior or boundary.
#[derive(Debug, Clone)]
pub struct UniformRaster {
    extent: GridExtent,
    level: u8,
    /// Cells sorted by id for binary-search lookups.
    cells: Vec<RasterCell>,
    policy: BoundaryPolicy,
}

impl UniformRaster {
    /// Builds the uniform raster of `geometry` that satisfies `bound` on the
    /// given extent.
    ///
    /// # Panics
    /// Panics if the bound cannot be satisfied on the extent (would require
    /// a level beyond the maximum supported).
    pub fn with_bound<G: Rasterizable>(
        geometry: &G,
        extent: &GridExtent,
        bound: DistanceBound,
        policy: BoundaryPolicy,
    ) -> Self {
        let level = bound
            .level_on(extent)
            .expect("distance bound too small for this extent");
        Self::at_level(geometry, extent, level, policy)
    }

    /// Builds the uniform raster at an explicit grid level.
    pub fn at_level<G: Rasterizable>(
        geometry: &G,
        extent: &GridExtent,
        level: u8,
        policy: BoundaryPolicy,
    ) -> Self {
        let cells = rasterize_uniform(geometry, extent, level, policy);
        UniformRaster {
            extent: *extent,
            level,
            cells,
            policy,
        }
    }

    /// The grid level of all cells.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The grid extent the raster lives on.
    pub fn extent(&self) -> &GridExtent {
        &self.extent
    }

    /// The boundary policy the raster was built with.
    pub fn policy(&self) -> BoundaryPolicy {
        self.policy
    }

    /// All cells, sorted by cell id.
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

    /// Side length of each cell in world units.
    pub fn cell_side(&self) -> f64 {
        self.extent.cell_size(self.level)
    }

    /// The Hausdorff error this raster guarantees: the diagonal of one cell.
    pub fn guaranteed_bound(&self) -> f64 {
        self.extent.cell_diagonal(self.level)
    }

    /// Approximate memory footprint in bytes (one 64-bit id + class tag per cell).
    pub fn memory_bytes(&self) -> usize {
        self.cells.len() * (std::mem::size_of::<u64>() + 1)
    }

    /// Total area covered by the raster cells.
    pub fn covered_area(&self) -> f64 {
        let cell_area = self.cell_side() * self.cell_side();
        self.cells.len() as f64 * cell_area
    }

    /// Approximate containment test: whether the point falls in one of the
    /// raster's cells. No exact geometry is consulted — this is the
    /// operation the paper proposes to answer queries with.
    pub fn contains_point(&self, p: &Point) -> bool {
        if !self.extent.contains(p) {
            return false;
        }
        let id = self.extent.cell_id(p, self.level);
        self.find(id).is_some()
    }

    /// Class of the cell containing the point, if any.
    pub fn classify_point(&self, p: &Point) -> Option<CellClass> {
        let id = self.extent.cell_id(p, self.level);
        self.find(id).map(|c| c.class)
    }

    fn find(&self, id: CellId) -> Option<&RasterCell> {
        self.cells
            .binary_search_by_key(&id, |c| c.id)
            .ok()
            .map(|i| &self.cells[i])
    }

    /// Iterates over the world-space boxes of the boundary cells.
    pub fn boundary_cell_boxes(&self) -> impl Iterator<Item = BoundingBox> + '_ {
        self.cells
            .iter()
            .filter(|c| c.is_boundary())
            .map(move |c| self.extent.cell_id_bbox(c.id))
    }

    /// Iterates over the world-space boxes of all cells.
    pub fn cell_boxes(&self) -> impl Iterator<Item = (BoundingBox, CellClass)> + '_ {
        self.cells
            .iter()
            .map(move |c| (self.extent.cell_id_bbox(c.id), c.class))
    }
}

/// Uniform rasterization by per-cell classification.
///
/// Every cell of the geometry's bounding box at the target level is
/// classified against the geometry: cells crossed by the boundary become
/// boundary cells (subject to the policy), cells whose interior is fully
/// covered become interior cells, the rest are dropped. This mirrors what
/// the GPU rasterizer does with conservative rasterization enabled; the
/// canvas crate provides the faster scanline variant used for bulk point
/// aggregation.
///
/// The cells are reached by a quadtree descent that only narrows the
/// candidate lists on the way down — every level-`level` cell is classified
/// on its own box, coarse cells never decide for their descendants.
fn rasterize_uniform<G: Rasterizable>(
    geometry: &G,
    extent: &GridExtent,
    level: u8,
    policy: BoundaryPolicy,
) -> Vec<RasterCell> {
    let bbox = geometry.bounding_box();
    if bbox.is_empty() {
        return Vec::new();
    }
    let mut cells = Vec::new();
    if let Some((classifier, root)) = CellClassifier::new(geometry, extent) {
        let mut descent = UniformDescent {
            classifier,
            level,
            policy,
            min: extent.cell_coords(&bbox.min, level),
            max: extent.cell_coords(&bbox.max, level),
            cells: &mut cells,
        };
        descent.visit(CellId::ROOT, root);
    }
    // Same-level cells in Morton order are in id order.
    debug_assert!(cells.windows(2).all(|w| w[0].id < w[1].id));
    cells
}

/// State of the descent behind [`rasterize_uniform`].
struct UniformDescent<'a> {
    classifier: CellClassifier<'a>,
    level: u8,
    policy: BoundaryPolicy,
    /// Cell coordinates at `level` of the geometry's bounding box; only
    /// cells inside are emitted.
    min: (u32, u32),
    max: (u32, u32),
    cells: &'a mut Vec<RasterCell>,
}

impl UniformDescent<'_> {
    fn visit(&mut self, cell: CellId, parent: Candidates) {
        let (cx, cy, level) = cell.to_cell_xy();
        // The block of target-level cells below `cell`.
        let shift = self.level - level;
        let outside = |c: u32, min: u32, max: u32| ((c + 1) << shift) <= min || (c << shift) > max;
        if outside(cx, self.min.0, self.max.0) || outside(cy, self.min.1, self.max.1) {
            return;
        }
        let bbox = self.classifier.extent().cell_bbox(cx, cy, level);
        let mark = self.classifier.mark();
        let crossing = self.classifier.crossing(parent.crossing, &bbox);
        if level < self.level {
            let candidates = Candidates {
                crossing,
                nearest: self.classifier.nearest(parent.nearest, &bbox, level),
            };
            for child in cell.children() {
                self.visit(child, candidates);
            }
        } else {
            let class = match self.classifier.classify(crossing, &bbox) {
                BoxRelation::Disjoint => None,
                BoxRelation::Inside => Some(CellClass::Interior),
                BoxRelation::Boundary => self
                    .classifier
                    .keeps(self.policy, crossing, &bbox)
                    .then_some(CellClass::Boundary),
            };
            if let Some(class) = class {
                self.cells.push(RasterCell {
                    id: cell,
                    class,
                    dist: self.classifier.annotate(parent.nearest, &bbox, level),
                });
            }
        }
        self.classifier.release(mark);
    }
}

/// Rasterizes a bare segment set (e.g. a linestring boundary) at a level,
/// returning the boundary cells it touches. Used by the canvas layer and by
/// tests that need edge-only coverage.
pub fn rasterize_segments(segments: &[Segment], extent: &GridExtent, level: u8) -> Vec<CellId> {
    let mut out = Vec::new();
    for seg in segments {
        let bbox = seg.bbox();
        let (min_cx, min_cy) = extent.cell_coords(&bbox.min, level);
        let (max_cx, max_cy) = extent.cell_coords(&bbox.max, level);
        for cy in min_cy..=max_cy {
            for cx in min_cx..=max_cx {
                if seg.intersects_box(&extent.cell_bbox(cx, cy, level)) {
                    out.push(CellId::from_cell_xy(cx, cy, level));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsa_geom::Polygon;
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

    #[test]
    fn rasterizes_square_at_unit_cells() {
        // 16x16 square on 1-unit cells at level 6 (64/2^6 = 1).
        let raster =
            UniformRaster::at_level(&square(16.0), &extent(), 6, BoundaryPolicy::Conservative);
        assert_eq!(raster.cell_side(), 1.0);
        // The square spans cells 8..24 in each axis; edges fall exactly on
        // cell borders so boundary cells ring the outside as well: expect
        // at least the 16x16 interior block.
        assert!(raster.cell_count() >= 16 * 16);
        assert!(raster.cell_count() <= 18 * 18);
        assert!(raster.boundary_cell_count() > 0);
        assert!(raster.covered_area() >= 256.0 - 1e-9);
    }

    #[test]
    fn contains_point_is_superset_for_conservative_policy() {
        let poly = square(10.0);
        let raster = UniformRaster::at_level(&poly, &extent(), 6, BoundaryPolicy::Conservative);
        // Every point inside the polygon is inside the raster.
        for &(x, y) in &[(9.0, 9.0), (12.5, 13.5), (17.9, 17.9), (8.1, 17.0)] {
            let p = Point::new(x, y);
            assert!(poly.contains_point(&p));
            assert!(raster.contains_point(&p), "raster must contain {p:?}");
        }
        // A point far outside is rejected.
        assert!(!raster.contains_point(&Point::new(40.0, 40.0)));
        assert!(!raster.contains_point(&Point::new(-10.0, 9.0)));
    }

    #[test]
    fn classify_point_distinguishes_interior_and_boundary() {
        let poly = square(16.0);
        let raster = UniformRaster::at_level(&poly, &extent(), 6, BoundaryPolicy::Conservative);
        assert_eq!(
            raster.classify_point(&Point::new(16.0, 16.0)),
            Some(CellClass::Interior)
        );
        assert_eq!(
            raster.classify_point(&Point::new(8.05, 8.05)),
            Some(CellClass::Boundary)
        );
        assert_eq!(raster.classify_point(&Point::new(40.0, 40.0)), None);
    }

    #[test]
    fn with_bound_respects_distance_bound() {
        let poly = square(16.0);
        let bound = DistanceBound::meters(2.0);
        let raster =
            UniformRaster::with_bound(&poly, &extent(), bound, BoundaryPolicy::Conservative);
        assert!(raster.guaranteed_bound() <= 2.0);
        // Finer bound => more, smaller cells.
        let fine = UniformRaster::with_bound(
            &poly,
            &extent(),
            DistanceBound::meters(0.5),
            BoundaryPolicy::Conservative,
        );
        assert!(fine.cell_count() > raster.cell_count());
        assert!(fine.cell_side() < raster.cell_side());
    }

    #[test]
    fn non_conservative_policy_produces_fewer_or_equal_cells() {
        // A diagonal triangle has many partially-covered boundary cells.
        let tri = Polygon::from_coords(&[(8.0, 8.0), (40.0, 8.0), (8.0, 40.0)]);
        let cons = UniformRaster::at_level(&tri, &extent(), 5, BoundaryPolicy::Conservative);
        let non = UniformRaster::at_level(
            &tri,
            &extent(),
            5,
            BoundaryPolicy::NonConservative { min_overlap: 0.5 },
        );
        assert!(non.cell_count() <= cons.cell_count());
        assert!(non.cell_count() > 0);
    }

    #[test]
    fn memory_scales_with_cell_count() {
        let poly = square(16.0);
        let raster = UniformRaster::at_level(&poly, &extent(), 6, BoundaryPolicy::Conservative);
        assert_eq!(raster.memory_bytes(), raster.cell_count() * 9);
    }

    #[test]
    fn empty_geometry_produces_no_cells() {
        let degenerate = Polygon::default();
        let raster =
            UniformRaster::at_level(&degenerate, &extent(), 4, BoundaryPolicy::Conservative);
        assert_eq!(raster.cell_count(), 0);
        assert!(!raster.contains_point(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn segment_rasterization_covers_endpoints() {
        let segs = [Segment::new(Point::new(1.5, 1.5), Point::new(20.5, 7.5))];
        let cells = rasterize_segments(&segs, &extent(), 6);
        assert!(!cells.is_empty());
        let e = extent();
        let covers = |p: &Point| cells.iter().any(|id| e.cell_id_bbox(*id).contains_point(p));
        assert!(covers(&Point::new(1.5, 1.5)));
        assert!(covers(&Point::new(20.5, 7.5)));
        assert!(covers(&Point::new(11.0, 4.5)));
    }

    #[test]
    fn boundary_boxes_touch_polygon_boundary() {
        let poly = square(16.0);
        let raster = UniformRaster::at_level(&poly, &extent(), 5, BoundaryPolicy::Conservative);
        for bbox in raster.boundary_cell_boxes() {
            assert!(poly.boundary_intersects_box(&bbox));
        }
        // cell_boxes yields every cell exactly once.
        assert_eq!(raster.cell_boxes().count(), raster.cell_count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_conservative_raster_contains_polygon_points(
            w in 4f64..30.0, h in 4f64..30.0,
            px in 0.05f64..0.95, py in 0.05f64..0.95,
            level in 4u8..7,
        ) {
            let poly = Polygon::from_coords(&[(10.0, 10.0), (10.0 + w, 10.0), (10.0 + w, 10.0 + h), (10.0, 10.0 + h)]);
            let raster = UniformRaster::at_level(&poly, &extent(), level, BoundaryPolicy::Conservative);
            let p = Point::new(10.0 + px * w, 10.0 + py * h);
            prop_assert!(poly.contains_point(&p));
            prop_assert!(raster.contains_point(&p));
        }

        #[test]
        fn prop_false_positives_stay_within_cell_diagonal(
            w in 4f64..30.0, h in 4f64..30.0,
            qx in 0f64..64.0, qy in 0f64..64.0,
            level in 4u8..7,
        ) {
            // Any point accepted by the raster but outside the polygon is
            // within one cell diagonal of the polygon boundary — the
            // distance-bound guarantee.
            let poly = Polygon::from_coords(&[(10.0, 10.0), (10.0 + w, 10.0), (10.0 + w, 10.0 + h), (10.0, 10.0 + h)]);
            let raster = UniformRaster::at_level(&poly, &extent(), level, BoundaryPolicy::Conservative);
            let p = Point::new(qx, qy);
            if raster.contains_point(&p) && !poly.contains_point(&p) {
                prop_assert!(poly.boundary_distance(&p) <= raster.guaranteed_bound() + 1e-9);
            }
        }
    }
}
