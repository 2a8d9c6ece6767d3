//! Polygons, rings and multi-polygons.
//!
//! The exact point-in-polygon test implemented here is the CPU-intensive
//! "refinement" operation whose elimination motivates the paper: it is
//! linear in the number of polygon vertices, and the evaluation's Boroughs
//! dataset averages 663 vertices per polygon.

use crate::bbox::BoundingBox;
use crate::point::Point;
use crate::predicates::{orientation, point_on_segment, ray_crosses_edge, Orientation};
use crate::segment::Segment;
use crate::PointLocation;

/// A closed ring of vertices (the last vertex connects back to the first).
///
/// The vertex list does **not** repeat the first vertex at the end; the
/// closing segment is implicit. Rings must have at least three vertices to
/// be valid.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ring {
    vertices: Vec<Point>,
}

impl Ring {
    /// Creates a ring from its vertices (implicitly closed).
    ///
    /// A trailing duplicate of the first vertex, as produced by GeoJSON-style
    /// sources, is removed automatically.
    pub fn new(mut vertices: Vec<Point>) -> Self {
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        Ring { vertices }
    }

    /// The ring's vertices (without the closing duplicate).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the ring has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Whether the ring has at least 3 finite vertices and non-zero area.
    pub fn is_valid(&self) -> bool {
        self.vertices.len() >= 3
            && self.vertices.iter().all(Point::is_finite)
            && self.signed_area().abs() > 0.0
    }

    /// Iterates over the ring's edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area via the shoelace formula (positive for counter-clockwise).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..n {
            let a = &self.vertices[i];
            let b = &self.vertices[(i + 1) % n];
            sum += a.x * b.y - b.x * a.y;
        }
        sum * 0.5
    }

    /// Absolute enclosed area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Perimeter (sum of edge lengths, closing edge included).
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Whether the vertices are ordered counter-clockwise.
    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Returns a copy with counter-clockwise orientation.
    pub fn oriented_ccw(&self) -> Ring {
        if self.is_ccw() {
            self.clone()
        } else {
            let mut v = self.vertices.clone();
            v.reverse();
            Ring { vertices: v }
        }
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::from_points(self.vertices.iter())
    }

    /// Centroid of the ring (area-weighted).
    ///
    /// Falls back to the vertex average for degenerate (zero-area) rings.
    pub fn centroid(&self) -> Point {
        let a = self.signed_area();
        if a.abs() < 1e-12 {
            let n = self.vertices.len().max(1) as f64;
            return self.vertices.iter().fold(Point::ORIGIN, |acc, p| acc + *p) / n;
        }
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = &self.vertices[i];
            let q = &self.vertices[(i + 1) % n];
            let cross = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * cross;
            cy += (p.y + q.y) * cross;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Classifies a point against the ring using the crossing-number
    /// (ray-casting) algorithm, with an explicit boundary check.
    pub fn locate_point(&self, p: &Point) -> PointLocation {
        let n = self.vertices.len();
        if n < 3 {
            return PointLocation::Outside;
        }
        // Boundary check first: ray casting is unreliable exactly on edges.
        for edge in self.edges() {
            if point_on_segment(&edge.start, &edge.end, p) {
                return PointLocation::OnBoundary;
            }
        }
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            if ray_crosses_edge(&self.vertices[j], &self.vertices[i], p) {
                inside = !inside;
            }
            j = i;
        }
        if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }

    /// Whether the point is inside the ring or on its boundary.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.locate_point(p).is_inside_or_boundary()
    }

    /// Minimum distance from the point to the ring's boundary.
    pub fn boundary_distance(&self, p: &Point) -> f64 {
        self.edges()
            .map(|e| e.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether the ring's boundary intersects the given box.
    pub fn boundary_intersects_box(&self, bbox: &BoundingBox) -> bool {
        self.edges().any(|e| e.intersects_box(bbox))
    }

    /// Whether the ring is convex (all turns in the same direction).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        let mut sign: Option<Orientation> = None;
        for i in 0..n {
            let o = orientation(
                &self.vertices[i],
                &self.vertices[(i + 1) % n],
                &self.vertices[(i + 2) % n],
            );
            if o == Orientation::Collinear {
                continue;
            }
            match sign {
                None => sign = Some(o),
                Some(s) if s != o => return false,
                _ => {}
            }
        }
        true
    }
}

impl From<Vec<Point>> for Ring {
    fn from(v: Vec<Point>) -> Self {
        Ring::new(v)
    }
}

/// A polygon: one exterior ring plus zero or more interior rings (holes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polygon {
    exterior: Ring,
    holes: Vec<Ring>,
    /// Box of the exterior ring, computed once at construction (the rings
    /// are immutable). A function of `exterior`, so the derived equality
    /// and default (the empty box) are those of the rings alone.
    bbox: BoundingBox,
}

impl Polygon {
    /// Creates a polygon without holes.
    pub fn new(exterior: Ring) -> Self {
        Polygon::with_holes(exterior, Vec::new())
    }

    /// Creates a polygon with holes.
    pub fn with_holes(exterior: Ring, holes: Vec<Ring>) -> Self {
        let bbox = exterior.bbox();
        Polygon {
            exterior,
            holes,
            bbox,
        }
    }

    /// Convenience constructor from exterior vertex coordinates.
    pub fn from_coords(coords: &[(f64, f64)]) -> Self {
        Polygon::new(Ring::new(
            coords.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        ))
    }

    /// Axis-aligned rectangle as a polygon.
    pub fn rectangle(bbox: &BoundingBox) -> Self {
        Polygon::new(Ring::new(bbox.corners().to_vec()))
    }

    /// The exterior ring.
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The interior rings (holes).
    pub fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// Total number of vertices over all rings.
    pub fn vertex_count(&self) -> usize {
        self.exterior.len() + self.holes.iter().map(Ring::len).sum::<usize>()
    }

    /// Whether the exterior is valid and all holes are valid.
    pub fn is_valid(&self) -> bool {
        self.exterior.is_valid() && self.holes.iter().all(Ring::is_valid)
    }

    /// Enclosed area (exterior minus holes).
    pub fn area(&self) -> f64 {
        let hole_area: f64 = self.holes.iter().map(Ring::area).sum();
        (self.exterior.area() - hole_area).max(0.0)
    }

    /// Total boundary length (exterior plus holes).
    pub fn perimeter(&self) -> f64 {
        self.exterior.perimeter() + self.holes.iter().map(Ring::perimeter).sum::<f64>()
    }

    /// Axis-aligned bounding box (of the exterior ring), stored at
    /// construction.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Centroid of the exterior ring.
    pub fn centroid(&self) -> Point {
        self.exterior.centroid()
    }

    /// All edges of the polygon boundary (exterior and holes).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.exterior
            .edges()
            .chain(self.holes.iter().flat_map(|h| h.edges()))
    }

    /// Exact point-location test taking holes into account.
    ///
    /// Runs in `O(vertex_count)` — this is the cost the distance-bounded
    /// raster approximation removes from the query path.
    pub fn locate_point(&self, p: &Point) -> PointLocation {
        match self.exterior.locate_point(p) {
            PointLocation::Outside => PointLocation::Outside,
            PointLocation::OnBoundary => PointLocation::OnBoundary,
            PointLocation::Inside => {
                for hole in &self.holes {
                    match hole.locate_point(p) {
                        PointLocation::Inside => return PointLocation::Outside,
                        PointLocation::OnBoundary => return PointLocation::OnBoundary,
                        PointLocation::Outside => {}
                    }
                }
                PointLocation::Inside
            }
        }
    }

    /// Exact point-in-polygon test (boundary inclusive).
    pub fn contains_point(&self, p: &Point) -> bool {
        self.locate_point(p).is_inside_or_boundary()
    }

    /// Minimum distance from the point to the polygon boundary (exterior or
    /// hole boundaries).
    pub fn boundary_distance(&self, p: &Point) -> f64 {
        let mut d = self.exterior.boundary_distance(p);
        for h in &self.holes {
            d = d.min(h.boundary_distance(p));
        }
        d
    }

    /// Signed distance to the polygon: negative inside, positive outside,
    /// zero on the boundary.
    pub fn signed_distance(&self, p: &Point) -> f64 {
        let d = self.boundary_distance(p);
        match self.locate_point(p) {
            PointLocation::Inside => -d,
            PointLocation::OnBoundary => 0.0,
            PointLocation::Outside => d,
        }
    }

    /// Whether the polygon boundary intersects the box.
    pub fn boundary_intersects_box(&self, bbox: &BoundingBox) -> bool {
        self.exterior.boundary_intersects_box(bbox)
            || self.holes.iter().any(|h| h.boundary_intersects_box(bbox))
    }

    /// Relation of an axis-aligned box to the polygon, used by the
    /// rasterizer and the hierarchical coverer.
    pub fn classify_box(&self, bbox: &BoundingBox) -> BoxRelation {
        if bbox.is_empty() || !self.bbox().intersects(bbox) {
            return BoxRelation::Disjoint;
        }
        if self.boundary_intersects_box(bbox) {
            return BoxRelation::Boundary;
        }
        // No boundary crossing: the box is entirely inside or entirely
        // outside; its center decides which.
        if self.contains_point(&bbox.center()) {
            BoxRelation::Inside
        } else {
            BoxRelation::Disjoint
        }
    }
}

/// Relation between an axis-aligned box and a polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxRelation {
    /// The box lies entirely in the polygon interior.
    Inside,
    /// The box intersects the polygon boundary.
    Boundary,
    /// The box is entirely outside the polygon.
    Disjoint,
}

/// A collection of polygons treated as a single region (e.g. a borough made
/// of islands). The BRJ experiment's neighbourhood regions are
/// multi-polygons.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiPolygon {
    polygons: Vec<Polygon>,
    /// Union of the parts' boxes, computed once at construction; a function
    /// of `polygons`, like [`Polygon`]'s.
    bbox: BoundingBox,
}

impl MultiPolygon {
    /// Creates a multi-polygon from its parts.
    pub fn new(polygons: Vec<Polygon>) -> Self {
        let bbox = polygons
            .iter()
            .fold(BoundingBox::EMPTY, |acc, p| acc.union(&p.bbox()));
        MultiPolygon { polygons, bbox }
    }

    /// The constituent polygons.
    pub fn polygons(&self) -> &[Polygon] {
        &self.polygons
    }

    /// Number of constituent polygons.
    pub fn len(&self) -> usize {
        self.polygons.len()
    }

    /// Whether there are no constituent polygons.
    pub fn is_empty(&self) -> bool {
        self.polygons.is_empty()
    }

    /// Total enclosed area.
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(Polygon::area).sum()
    }

    /// Total vertex count across all parts.
    pub fn vertex_count(&self) -> usize {
        self.polygons.iter().map(Polygon::vertex_count).sum()
    }

    /// Bounding box of all parts, stored at construction.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Whether any part contains the point.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.polygons.iter().any(|poly| poly.contains_point(p))
    }

    /// Minimum distance from the point to any part's boundary.
    pub fn boundary_distance(&self, p: &Point) -> f64 {
        self.polygons
            .iter()
            .map(|poly| poly.boundary_distance(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Signed distance to the union of the parts: negative inside any part,
    /// positive outside all of them, zero on a boundary. The magnitude is
    /// always [`boundary_distance`](Self::boundary_distance) to the nearest
    /// part boundary.
    pub fn signed_distance(&self, p: &Point) -> f64 {
        let d = self.boundary_distance(p);
        if self.contains_point(p) {
            -d
        } else {
            d
        }
    }

    /// Relation of a box to the union of the parts.
    pub fn classify_box(&self, bbox: &BoundingBox) -> BoxRelation {
        let mut relation = BoxRelation::Disjoint;
        for poly in &self.polygons {
            match poly.classify_box(bbox) {
                BoxRelation::Boundary => return BoxRelation::Boundary,
                BoxRelation::Inside => relation = BoxRelation::Inside,
                BoxRelation::Disjoint => {}
            }
        }
        relation
    }
}

impl From<Polygon> for MultiPolygon {
    fn from(p: Polygon) -> Self {
        MultiPolygon::new(vec![p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_square() -> Polygon {
        Polygon::from_coords(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    }

    fn square_with_hole() -> Polygon {
        let exterior = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        let hole = Ring::new(vec![
            Point::new(1.0, 1.0),
            Point::new(3.0, 1.0),
            Point::new(3.0, 3.0),
            Point::new(1.0, 3.0),
        ]);
        Polygon::with_holes(exterior, vec![hole])
    }

    fn l_polygon() -> Polygon {
        Polygon::from_coords(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 2.0),
            (2.0, 2.0),
            (2.0, 4.0),
            (0.0, 4.0),
        ])
    }

    #[test]
    fn ring_closing_duplicate_is_removed() {
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn shoelace_area_and_orientation() {
        let ccw = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ]);
        assert_eq!(ccw.signed_area(), 4.0);
        assert!(ccw.is_ccw());
        let cw = {
            let mut v = ccw.vertices().to_vec();
            v.reverse();
            Ring::new(v)
        };
        assert_eq!(cw.signed_area(), -4.0);
        assert!(!cw.is_ccw());
        assert!(cw.oriented_ccw().is_ccw());
        assert_eq!(cw.area(), 4.0);
    }

    #[test]
    fn ring_validity() {
        assert!(unit_square().exterior().is_valid());
        assert!(!Ring::new(vec![Point::ORIGIN, Point::new(1.0, 1.0)]).is_valid());
        // Degenerate collinear ring has zero area and is invalid.
        let degenerate = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ]);
        assert!(!degenerate.is_valid());
    }

    #[test]
    fn perimeter_and_centroid() {
        let sq = unit_square();
        assert_eq!(sq.perimeter(), 4.0);
        let c = sq.centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn point_in_convex_polygon() {
        let sq = unit_square();
        assert_eq!(
            sq.locate_point(&Point::new(0.5, 0.5)),
            PointLocation::Inside
        );
        assert_eq!(
            sq.locate_point(&Point::new(1.5, 0.5)),
            PointLocation::Outside
        );
        assert_eq!(
            sq.locate_point(&Point::new(1.0, 0.5)),
            PointLocation::OnBoundary
        );
        assert_eq!(
            sq.locate_point(&Point::new(0.0, 0.0)),
            PointLocation::OnBoundary
        );
    }

    #[test]
    fn point_in_concave_polygon() {
        let l = l_polygon();
        assert!(l.contains_point(&Point::new(1.0, 3.0)));
        assert!(l.contains_point(&Point::new(3.0, 1.0)));
        // The notch of the L is outside.
        assert!(!l.contains_point(&Point::new(3.0, 3.0)));
        assert_eq!(l.area(), 12.0);
        assert!(!l.exterior().is_convex());
        assert!(unit_square().exterior().is_convex());
    }

    #[test]
    fn point_in_polygon_with_hole() {
        let p = square_with_hole();
        assert!(p.contains_point(&Point::new(0.5, 0.5)));
        // Inside the hole => outside the polygon.
        assert!(!p.contains_point(&Point::new(2.0, 2.0)));
        // On the hole boundary counts as boundary.
        assert_eq!(
            p.locate_point(&Point::new(1.0, 2.0)),
            PointLocation::OnBoundary
        );
        assert_eq!(p.area(), 16.0 - 4.0);
        assert_eq!(p.vertex_count(), 8);
    }

    #[test]
    fn signed_distance_sign_convention() {
        let sq = unit_square();
        assert!(sq.signed_distance(&Point::new(0.5, 0.5)) < 0.0);
        assert!(sq.signed_distance(&Point::new(2.0, 0.5)) > 0.0);
        assert_eq!(sq.signed_distance(&Point::new(1.0, 0.5)), 0.0);
        assert_eq!(sq.signed_distance(&Point::new(2.0, 0.5)), 1.0);
    }

    #[test]
    fn classify_box_cases() {
        let p = square_with_hole();
        // Fully inside the solid part.
        assert_eq!(
            p.classify_box(&BoundingBox::from_bounds(0.2, 0.2, 0.8, 0.8)),
            BoxRelation::Inside
        );
        // Straddling the exterior boundary.
        assert_eq!(
            p.classify_box(&BoundingBox::from_bounds(-0.5, 0.2, 0.5, 0.8)),
            BoxRelation::Boundary
        );
        // Entirely outside.
        assert_eq!(
            p.classify_box(&BoundingBox::from_bounds(5.0, 5.0, 6.0, 6.0)),
            BoxRelation::Disjoint
        );
        // Entirely within the hole: no boundary crossing and center not contained.
        assert_eq!(
            p.classify_box(&BoundingBox::from_bounds(1.5, 1.5, 2.5, 2.5)),
            BoxRelation::Disjoint
        );
        // Straddling the hole boundary.
        assert_eq!(
            p.classify_box(&BoundingBox::from_bounds(0.5, 1.5, 1.5, 2.5)),
            BoxRelation::Boundary
        );
    }

    #[test]
    fn rectangle_polygon_matches_bbox() {
        let bbox = BoundingBox::from_bounds(1.0, 2.0, 5.0, 4.0);
        let rect = Polygon::rectangle(&bbox);
        assert_eq!(rect.area(), bbox.area());
        assert_eq!(rect.bbox(), bbox);
    }

    #[test]
    fn multipolygon_union_semantics() {
        let mp = MultiPolygon::new(vec![
            unit_square(),
            Polygon::from_coords(&[(2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)]),
        ]);
        assert_eq!(mp.len(), 2);
        assert_eq!(mp.area(), 2.0);
        assert!(mp.contains_point(&Point::new(0.5, 0.5)));
        assert!(mp.contains_point(&Point::new(2.5, 0.5)));
        assert!(!mp.contains_point(&Point::new(1.5, 0.5)));
        assert_eq!(mp.bbox(), BoundingBox::from_bounds(0.0, 0.0, 3.0, 1.0));
        assert_eq!(
            mp.classify_box(&BoundingBox::from_bounds(0.2, 0.2, 0.4, 0.4)),
            BoxRelation::Inside
        );
        assert_eq!(
            mp.classify_box(&BoundingBox::from_bounds(1.2, 0.2, 1.4, 0.4)),
            BoxRelation::Disjoint
        );
        assert_eq!(
            mp.classify_box(&BoundingBox::from_bounds(0.5, 0.5, 2.5, 0.6)),
            BoxRelation::Boundary
        );
    }

    #[test]
    fn boundary_distance_of_multipolygon() {
        let mp = MultiPolygon::from(unit_square());
        assert_eq!(mp.boundary_distance(&Point::new(2.0, 0.5)), 1.0);
        assert!(MultiPolygon::default().is_empty());
        assert_eq!(
            MultiPolygon::default().boundary_distance(&Point::ORIGIN),
            f64::INFINITY
        );
    }

    proptest! {
        #[test]
        fn prop_centroid_of_convex_quad_is_inside(
            w in 1f64..100.0, h in 1f64..100.0, ox in -50f64..50.0, oy in -50f64..50.0,
        ) {
            let poly = Polygon::from_coords(&[
                (ox, oy), (ox + w, oy), (ox + w, oy + h), (ox, oy + h),
            ]);
            prop_assert!(poly.contains_point(&poly.centroid()));
        }

        #[test]
        fn prop_points_inside_bbox_of_square_agree_with_exact(
            px in -2f64..3.0, py in -2f64..3.0,
        ) {
            // For an axis-aligned square, exact containment equals bbox containment.
            let sq = unit_square();
            let p = Point::new(px, py);
            prop_assert_eq!(sq.contains_point(&p), sq.bbox().contains_point(&p));
        }

        #[test]
        fn prop_signed_distance_magnitude_is_boundary_distance(
            px in -3f64..4.0, py in -3f64..4.0,
        ) {
            let p = Point::new(px, py);
            let poly = l_polygon();
            let sd = poly.signed_distance(&p);
            prop_assert!((sd.abs() - poly.boundary_distance(&p)).abs() < 1e-9);
        }

        #[test]
        fn prop_area_is_translation_invariant(
            dx in -1000f64..1000.0, dy in -1000f64..1000.0,
        ) {
            let base = l_polygon();
            let shifted = Polygon::new(Ring::new(
                base.exterior().vertices().iter().map(|p| *p + Point::new(dx, dy)).collect(),
            ));
            prop_assert!((base.area() - shifted.area()).abs() < 1e-6);
        }
    }
}
