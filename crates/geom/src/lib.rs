//! # dbsa-geom — geometry substrate
//!
//! Planar geometry primitives and predicates used throughout the
//! distance-bounded spatial approximation (DBSA) stack:
//!
//! * [`Point`], [`Segment`], [`LineString`], [`Ring`], [`Polygon`] and
//!   [`MultiPolygon`] value types,
//! * robust-enough orientation / intersection predicates for query
//!   processing ([`predicates`]),
//! * exact point-in-polygon tests (the expensive "refinement" operation the
//!   paper wants to eliminate),
//! * the [`edge_table`] module: a region's edges prepared once, so that a
//!   quadtree descent answers the box, containment and distance tests from
//!   candidate lists that shrink with the cell,
//! * the [`hausdorff`] module implementing the Hausdorff distance that
//!   defines the paper's ε distance bound (Section 2.2),
//! * classic geometric approximations from Section 2.1 of the paper
//!   ([`approx`]): MBR, rotated MBR, minimum bounding circle, convex hull,
//!   minimum bounding n-corner and clipped bounding rectangles.
//!
//! All coordinates are `f64` in an arbitrary planar coordinate system. The
//! workloads in the benchmark harness use meters in a local projection so
//! that distance bounds such as "4 m" are directly meaningful.

pub mod approx;
pub mod bbox;
pub mod clip;
pub mod convex_hull;
pub mod edge_table;
pub mod hausdorff;
pub mod linestring;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod segment;
pub mod simplify;

pub use approx::{
    clipped_bbox::ClippedBoundingBox, mbr::Mbr, min_circle::MinBoundingCircle,
    n_corner::MinBoundingNCorner, rotated_mbr::RotatedMbr, Approximation, ApproximationKind,
};
pub use bbox::BoundingBox;
pub use clip::{clip_ring_to_box, polygon_box_overlap_area, polygon_box_overlap_fraction};
pub use convex_hull::convex_hull;
pub use edge_table::{EdgeList, EdgeLists, EdgeTable};
pub use hausdorff::{directed_hausdorff, hausdorff_distance};
pub use linestring::LineString;
pub use point::Point;
pub use polygon::{MultiPolygon, Polygon, Ring};
pub use predicates::Orientation;
pub use segment::Segment;
pub use simplify::{simplify_polygon, simplify_polyline, simplify_ring};

/// Relation of a point to a region: strictly inside, on the boundary, or
/// strictly outside.
///
/// Exact geometric tests in the refinement step distinguish all three;
/// approximate raster evaluation collapses boundary handling into the
/// conservative / non-conservative policy of the raster approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLocation {
    /// The point is in the interior of the region.
    Inside,
    /// The point lies on the boundary of the region.
    OnBoundary,
    /// The point is outside the region.
    Outside,
}

impl PointLocation {
    /// Whether the location counts as contained when boundaries are included.
    pub fn is_inside_or_boundary(self) -> bool {
        !matches!(self, PointLocation::Outside)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_location_boundary_counts_as_contained() {
        assert!(PointLocation::Inside.is_inside_or_boundary());
        assert!(PointLocation::OnBoundary.is_inside_or_boundary());
        assert!(!PointLocation::Outside.is_inside_or_boundary());
    }
}
