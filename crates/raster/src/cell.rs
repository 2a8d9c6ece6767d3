//! Raster cells, boundary policies and the [`Rasterizable`] abstraction.

use dbsa_geom::{BoundingBox, MultiPolygon, Point, Polygon};
use dbsa_grid::CellId;

/// Classification of a raster cell with respect to the approximated geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// The cell lies entirely in the geometry's interior. Interior cells do
    /// not contribute to the approximation error.
    Interior,
    /// The cell intersects the geometry's boundary. Only boundary cells can
    /// produce false positives / negatives, and only their size is
    /// constrained by the distance bound.
    Boundary,
}

/// A conservative, quantized bound on the **unsigned** distance from a
/// cell's points to the geometry boundary, in units of a per-level bin
/// (one bin = the cell side at the cell's own level).
///
/// Every point `q` of the annotated cell satisfies
/// `lo * bin <= dist(q, boundary) <= hi * bin`, where `hi == UNBOUNDED`
/// claims no upper bound. Together with the cell's [`CellClass`] — which
/// carries the exact sign information — this encodes a conservative
/// *signed*-distance interval (see [`SignedDistance`]): the
/// Interior/Boundary/Exterior trichotomy the rest of the stack consumes is
/// a derived view of that interval, not a separate piece of state.
///
/// The annotation is derived during rasterization from the exact distance
/// of the cell center to the boundary (evaluated over the cell's nearest
/// candidate edges, see [`dbsa_geom::EdgeTable`]) plus the Lipschitz bound:
/// `dist(·, boundary)` is 1-Lipschitz, so all cell points lie within the
/// center distance ± the half-diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DistanceBins {
    /// Conservative lower bound in bins (floor-quantized, saturating).
    pub lo: u16,
    /// Conservative upper bound in bins (ceil-quantized), or
    /// [`DistanceBins::UNBOUNDED`].
    pub hi: u16,
}

impl DistanceBins {
    /// Sentinel `hi` value: no finite upper bound is claimed.
    pub const UNBOUNDED: u16 = u16::MAX;

    /// The vacuous annotation: distance in `[0, ∞)`. Conservative for any
    /// cell; used where no exact geometry was consulted (manual insertion,
    /// truncated-probe summaries).
    pub const UNKNOWN: DistanceBins = DistanceBins {
        lo: 0,
        hi: Self::UNBOUNDED,
    };

    /// Quantizes the exact center distance of a cell into a conservative
    /// bin interval. `center_distance` is the exact distance from the cell
    /// center to the geometry boundary, `half_diagonal` the cell's
    /// half-diagonal and `bin_width` the bin size (the cell side).
    ///
    /// Conservativeness: `lo` rounds down and saturates downwards, `hi`
    /// rounds up and saturates to [`UNBOUNDED`](Self::UNBOUNDED), so the
    /// represented interval always contains the true `[d_c - r, d_c + r]`
    /// Lipschitz interval (clamped at zero).
    pub fn quantize(center_distance: f64, half_diagonal: f64, bin_width: f64) -> Self {
        debug_assert!(bin_width > 0.0 && half_diagonal >= 0.0);
        let lo_f = ((center_distance - half_diagonal).max(0.0) / bin_width).floor();
        // NaN (and any non-finite garbage) degrades to the vacuous bound.
        let lo = if lo_f.is_finite() && lo_f > 0.0 {
            lo_f.min((Self::UNBOUNDED - 1) as f64) as u16
        } else {
            0
        };
        let hi_f = ((center_distance + half_diagonal) / bin_width).ceil();
        let hi = if hi_f.is_finite() && hi_f >= 0.0 && hi_f < Self::UNBOUNDED as f64 {
            hi_f as u16
        } else {
            Self::UNBOUNDED
        };
        DistanceBins { lo, hi }
    }

    /// Lower bound in world units, given the bin width of the cell's level.
    pub fn lo_world(&self, bin_width: f64) -> f64 {
        self.lo as f64 * bin_width
    }

    /// Upper bound in world units (`+∞` when unbounded).
    pub fn hi_world(&self, bin_width: f64) -> f64 {
        if self.hi == Self::UNBOUNDED {
            f64::INFINITY
        } else {
            self.hi as f64 * bin_width
        }
    }

    /// Whether a finite upper bound is claimed.
    pub fn is_bounded(&self) -> bool {
        self.hi != Self::UNBOUNDED
    }
}

/// A conservative **signed**-distance interval of a cell to the geometry
/// boundary in world units: negative inside, positive outside. This is the
/// cell model the distance-query family consumes; the classic 3-state
/// classification is a derived view ([`SignedDistance::derived_class`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignedDistance {
    /// Conservative lower bound of the signed distance over the cell.
    pub lo: f64,
    /// Conservative upper bound of the signed distance over the cell.
    pub hi: f64,
    /// Whether the supremum of the signed distance over the cell is known
    /// (exactly, from box classification) to be strictly negative — i.e.
    /// the cell lies entirely in the interior even when quantization pushes
    /// `hi` up to 0.
    pub all_inside: bool,
}

impl SignedDistance {
    /// The 3-state classification derived from the interval: strictly
    /// negative → `Interior`, an interval admitting 0 → `Boundary`.
    /// (Strictly positive intervals belong to cells *absent* from the
    /// raster — the Exterior view.)
    pub fn derived_class(&self) -> CellClass {
        if self.all_inside || self.hi < 0.0 {
            CellClass::Interior
        } else {
            CellClass::Boundary
        }
    }

    /// Whether the interval admits points within `d` of the geometry
    /// (signed distance ≤ `d` is possible for some cell point).
    pub fn may_be_within(&self, d: f64) -> bool {
        self.lo <= d
    }

    /// Whether every cell point is guaranteed within `d` of the geometry.
    pub fn all_within(&self, d: f64) -> bool {
        self.hi <= d
    }
}

/// One cell of a raster approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RasterCell {
    /// Hierarchical cell identifier.
    pub id: CellId,
    /// Interior or boundary.
    pub class: CellClass,
    /// Conservative quantized distance-to-boundary annotation (bins of the
    /// cell side at the cell's own level).
    pub dist: DistanceBins,
}

impl RasterCell {
    /// Creates an interior cell with the vacuous distance annotation.
    pub fn interior(id: CellId) -> Self {
        RasterCell {
            id,
            class: CellClass::Interior,
            dist: DistanceBins::UNKNOWN,
        }
    }

    /// Creates a boundary cell with the vacuous distance annotation.
    pub fn boundary(id: CellId) -> Self {
        RasterCell {
            id,
            class: CellClass::Boundary,
            dist: DistanceBins::UNKNOWN,
        }
    }

    /// Attaches a distance annotation.
    pub fn with_distance(mut self, dist: DistanceBins) -> Self {
        self.dist = dist;
        self
    }

    /// Whether this is a boundary cell.
    pub fn is_boundary(&self) -> bool {
        self.class == CellClass::Boundary
    }

    /// The conservative signed-distance interval of the cell in world
    /// units, given the bin width of the cell's level (its cell side).
    ///
    /// Interior cells map their unsigned annotation to `[-hi, -lo]` (the
    /// whole cell is inside, known exactly from box classification);
    /// boundary cells contain a boundary point, so their interval is
    /// `[-hi, +hi]` around zero.
    pub fn signed_distance(&self, bin_width: f64) -> SignedDistance {
        let lo = self.dist.lo_world(bin_width);
        let hi = self.dist.hi_world(bin_width);
        match self.class {
            CellClass::Interior => SignedDistance {
                lo: -hi,
                hi: -lo,
                all_inside: true,
            },
            CellClass::Boundary => SignedDistance {
                lo: -hi,
                hi,
                all_inside: false,
            },
        }
    }
}

/// How boundary cells are handled (paper Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BoundaryPolicy {
    /// Keep every cell that intersects the boundary, however slightly.
    /// The approximation is a superset of the geometry: only false
    /// positives are possible. Required for result-range estimation.
    #[default]
    Conservative,
    /// Drop boundary cells whose overlap fraction with the geometry is
    /// below the threshold (estimated by point sampling). Both false
    /// positives and false negatives are possible, but all remain within
    /// the distance bound.
    NonConservative {
        /// Minimum overlap fraction (0..1) for a boundary cell to be kept.
        min_overlap: f64,
    },
}

impl BoundaryPolicy {
    /// Sampling grid resolution used to estimate a cell's overlap fraction.
    const OVERLAP_SAMPLES: usize = 4;

    /// Whether the policy admits false negatives.
    pub fn allows_false_negatives(&self) -> bool {
        matches!(self, BoundaryPolicy::NonConservative { .. })
    }

    /// Decides whether a boundary cell with the given bbox should be kept;
    /// `contains` is the geometry's exact containment test.
    pub fn keep_boundary_cell(
        &self,
        contains: impl FnMut(&Point) -> bool,
        cell_bbox: &BoundingBox,
    ) -> bool {
        match *self {
            BoundaryPolicy::Conservative => true,
            BoundaryPolicy::NonConservative { min_overlap } => {
                estimate_overlap_fraction(contains, cell_bbox, Self::OVERLAP_SAMPLES) >= min_overlap
            }
        }
    }
}

/// One **counted** exact point-in-polygon refinement: the single place the
/// whole stack pays for an exact geometric test at query time.
///
/// Every exact evaluation path — the R-tree join's candidate verification,
/// the shape-index baseline's boundary-cell refinement, the spatial
/// baselines' MBR-filter refinement and the planner's exact-refinement
/// stage — routes its PIP tests through here so the "refinements performed"
/// accounting (the cost the paper attributes exactness to) is defined once.
#[inline]
pub fn refine_contains<G: Rasterizable + ?Sized>(
    geometry: &G,
    p: &Point,
    pip_tests: &mut u64,
) -> bool {
    *pip_tests += 1;
    geometry.contains_point(p)
}

/// One **counted** exact signed-distance refinement — the distance-query
/// twin of [`refine_contains`]. Every exact distance evaluation at query
/// time (the within-distance join's straddling-cell tests, the kNN
/// frontier refinement, the brute-force distance baseline) routes through
/// here so the "exact distance tests performed" accounting is defined
/// once.
///
/// Returns the signed distance: negative inside the geometry, positive
/// outside, zero on the boundary — an exact all-segments scan.
#[inline]
pub fn refine_distance<G: Rasterizable + ?Sized>(
    geometry: &G,
    p: &Point,
    dist_tests: &mut u64,
) -> f64 {
    *dist_tests += 1;
    geometry.signed_distance_to(p)
}

/// Estimates the fraction of `cell_bbox` covered by a geometry by testing an
/// `n x n` grid of sample points with its containment test `contains`.
pub fn estimate_overlap_fraction(
    mut contains: impl FnMut(&Point) -> bool,
    cell_bbox: &BoundingBox,
    n: usize,
) -> f64 {
    let n = n.max(1);
    let mut inside = 0usize;
    for i in 0..n {
        for j in 0..n {
            let p = Point::new(
                cell_bbox.min.x + (i as f64 + 0.5) / n as f64 * cell_bbox.width(),
                cell_bbox.min.y + (j as f64 + 0.5) / n as f64 * cell_bbox.height(),
            );
            if contains(&p) {
                inside += 1;
            }
        }
    }
    inside as f64 / (n * n) as f64
}

/// Geometries that can be rasterized: anything that is a union of polygon
/// parts and answers exact containment and distance.
///
/// Implemented for [`Polygon`] and [`MultiPolygon`]; the canvas layer also
/// rasterizes point sets but those do not need box classification.
pub trait Rasterizable {
    /// Bounding box of the geometry.
    fn bounding_box(&self) -> BoundingBox;
    /// The polygon parts whose union is the geometry. The rasterizers
    /// prepare their rings into a [`dbsa_geom::EdgeTable`] and classify
    /// every cell against that.
    fn parts(&self) -> &[Polygon];
    /// Exact containment test (used for verification and refinement).
    fn contains_point(&self, p: &Point) -> bool;
    /// Exact unsigned distance from a point to the geometry boundary (the
    /// all-segments scan). Drives the exact refinement of distance queries.
    fn boundary_distance(&self, p: &Point) -> f64;
    /// Total number of boundary vertices (used in cost models / reports).
    fn vertex_count(&self) -> usize;

    /// Exact **signed** distance: negative inside, positive outside, with
    /// magnitude [`boundary_distance`](Self::boundary_distance). Signed by
    /// containment, which is how the distance family keeps "inside" points
    /// trivially within every non-negative bound.
    fn signed_distance_to(&self, p: &Point) -> f64 {
        let d = self.boundary_distance(p);
        if self.contains_point(p) {
            -d
        } else {
            d
        }
    }
}

impl Rasterizable for Polygon {
    fn bounding_box(&self) -> BoundingBox {
        self.bbox()
    }
    fn parts(&self) -> &[Polygon] {
        std::slice::from_ref(self)
    }
    fn contains_point(&self, p: &Point) -> bool {
        Polygon::contains_point(self, p)
    }
    fn boundary_distance(&self, p: &Point) -> f64 {
        Polygon::boundary_distance(self, p)
    }
    fn vertex_count(&self) -> usize {
        Polygon::vertex_count(self)
    }
    fn signed_distance_to(&self, p: &Point) -> f64 {
        Polygon::signed_distance(self, p)
    }
}

impl Rasterizable for MultiPolygon {
    fn bounding_box(&self) -> BoundingBox {
        self.bbox()
    }
    fn parts(&self) -> &[Polygon] {
        self.polygons()
    }
    fn contains_point(&self, p: &Point) -> bool {
        MultiPolygon::contains_point(self, p)
    }
    fn boundary_distance(&self, p: &Point) -> f64 {
        MultiPolygon::boundary_distance(self, p)
    }
    fn vertex_count(&self) -> usize {
        MultiPolygon::vertex_count(self)
    }
    fn signed_distance_to(&self, p: &Point) -> f64 {
        MultiPolygon::signed_distance(self, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsa_grid::CellId;

    fn square() -> Polygon {
        Polygon::from_coords(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    }

    #[test]
    fn raster_cell_constructors() {
        let id = CellId::from_cell_xy(1, 2, 3);
        assert!(RasterCell::boundary(id).is_boundary());
        assert!(!RasterCell::interior(id).is_boundary());
        assert_eq!(RasterCell::interior(id).id, id);
    }

    #[test]
    fn conservative_policy_keeps_everything() {
        let policy = BoundaryPolicy::Conservative;
        assert!(!policy.allows_false_negatives());
        // Even a cell barely touching the polygon is kept.
        let sliver = BoundingBox::from_bounds(9.99, 9.99, 11.0, 11.0);
        assert!(policy.keep_boundary_cell(|p| square().contains_point(p), &sliver));
    }

    #[test]
    fn non_conservative_policy_drops_low_overlap_cells() {
        let policy = BoundaryPolicy::NonConservative { min_overlap: 0.5 };
        assert!(policy.allows_false_negatives());
        let poly = square();
        // Cell mostly inside: kept.
        let mostly_in = BoundingBox::from_bounds(1.0, 1.0, 3.0, 3.0);
        assert!(policy.keep_boundary_cell(|p| poly.contains_point(p), &mostly_in));
        // Cell mostly outside: dropped.
        let mostly_out = BoundingBox::from_bounds(9.5, 9.5, 15.0, 15.0);
        assert!(!policy.keep_boundary_cell(|p| poly.contains_point(p), &mostly_out));
    }

    #[test]
    fn overlap_fraction_estimation() {
        let poly = square();
        let all_in = BoundingBox::from_bounds(2.0, 2.0, 4.0, 4.0);
        let contains = |p: &Point| poly.contains_point(p);
        assert_eq!(estimate_overlap_fraction(contains, &all_in, 4), 1.0);
        let all_out = BoundingBox::from_bounds(20.0, 20.0, 24.0, 24.0);
        assert_eq!(estimate_overlap_fraction(contains, &all_out, 4), 0.0);
        let half = BoundingBox::from_bounds(5.0, -5.0, 15.0, 5.0);
        let frac = estimate_overlap_fraction(contains, &half, 8);
        assert!((frac - 0.25).abs() < 0.1, "frac = {frac}");
    }

    #[test]
    fn rasterizable_dispatch_for_polygon_and_multipolygon() {
        let poly = square();
        let mp = MultiPolygon::from(poly.clone());
        assert_eq!(
            Rasterizable::bounding_box(&poly),
            Rasterizable::bounding_box(&mp)
        );
        assert_eq!(poly.vertex_count(), 4);
        assert_eq!(Rasterizable::vertex_count(&mp), 4);
        assert_eq!(Rasterizable::parts(&poly), Rasterizable::parts(&mp));
        assert!(Rasterizable::contains_point(&mp, &Point::new(5.0, 5.0)));
    }

    #[test]
    fn default_policy_is_conservative() {
        assert_eq!(BoundaryPolicy::default(), BoundaryPolicy::Conservative);
    }

    #[test]
    fn distance_bins_quantization_is_conservative() {
        // Center distance 5.3, half-diagonal 0.71, bin width 1.0:
        // true interval [4.59, 6.01] → bins [4, 7].
        let bins = DistanceBins::quantize(5.3, 0.71, 1.0);
        assert_eq!(bins, DistanceBins { lo: 4, hi: 7 });
        assert!(bins.lo_world(1.0) <= 5.3 - 0.71);
        assert!(bins.hi_world(1.0) >= 5.3 + 0.71);
        assert!(bins.is_bounded());

        // Center inside the half-diagonal of the boundary: lo clamps at 0.
        let near = DistanceBins::quantize(0.2, 0.71, 1.0);
        assert_eq!(near.lo, 0);
        assert!(near.hi >= 1);

        // Infinite distance (empty geometry) degrades gracefully.
        let inf = DistanceBins::quantize(f64::INFINITY, 0.71, 1.0);
        assert_eq!(inf.hi, DistanceBins::UNBOUNDED);
        assert!(!inf.is_bounded());
        assert_eq!(inf.hi_world(1.0), f64::INFINITY);
        let nan = DistanceBins::quantize(f64::NAN, 0.71, 1.0);
        assert_eq!(nan, DistanceBins::UNKNOWN);
    }

    #[test]
    fn signed_interval_derives_the_classification() {
        let id = CellId::from_cell_xy(1, 2, 3);
        let interior = RasterCell::interior(id).with_distance(DistanceBins { lo: 2, hi: 5 });
        let si = interior.signed_distance(1.0);
        assert_eq!(si.lo, -5.0);
        assert_eq!(si.hi, -2.0);
        assert_eq!(si.derived_class(), CellClass::Interior);
        assert!(si.all_within(0.0) && si.all_within(10.0));
        assert!(si.may_be_within(-3.0));
        assert!(!si.may_be_within(-6.0));

        let boundary = RasterCell::boundary(id).with_distance(DistanceBins { lo: 0, hi: 2 });
        let sb = boundary.signed_distance(1.0);
        assert_eq!((sb.lo, sb.hi), (-2.0, 2.0));
        assert_eq!(sb.derived_class(), CellClass::Boundary);
        assert!(sb.all_within(2.0));
        assert!(!sb.all_within(1.0));

        // Even an interior cell whose quantized upper bound touches 0 stays
        // Interior: the sign is exact, the magnitude quantized.
        let tight = RasterCell::interior(id).with_distance(DistanceBins { lo: 0, hi: 1 });
        assert_eq!(
            tight.signed_distance(1.0).derived_class(),
            CellClass::Interior
        );
    }

    #[test]
    fn refine_distance_counts_and_signs() {
        let poly = square();
        let mut tests = 0u64;
        let inside = refine_distance(&poly, &Point::new(5.0, 5.0), &mut tests);
        let outside = refine_distance(&poly, &Point::new(12.0, 5.0), &mut tests);
        assert_eq!(tests, 2);
        assert_eq!(inside, -5.0);
        assert_eq!(outside, 2.0);
        let mp = MultiPolygon::from(poly);
        assert_eq!(mp.signed_distance_to(&Point::new(5.0, 5.0)), -5.0);
        assert_eq!(
            Rasterizable::boundary_distance(&mp, &Point::new(12.0, 5.0)),
            2.0
        );
    }
}
