//! A prepared per-region edge table for quadtree descents.
//!
//! The whole-polygon tests of [`crate::polygon`] — does the boundary cross
//! this box, is this point inside, how far is the nearest edge — each scan
//! every edge, although deep in a quadtree a cell is decided by one or two
//! of them. [`EdgeTable`] flattens a region's rings once and answers the
//! same three questions from **candidate lists** that shrink from a parent
//! cell to its children:
//!
//! * **crossing candidates** ([`EdgeTable::crossing_candidates`]) — edges
//!   whose bounding box, grown by a margin, reaches the cell's box;
//! * **nearest candidates** ([`EdgeTable::nearest_candidates`]) — edges
//!   that can be the nearest one for some point of the cell;
//! * a **point-in-polygon** test ([`EdgeTable::contains_point`]) that looks
//!   only at the edges of a ring spanning the point's `y` (per-ring `y`
//!   buckets) and at the crossing candidates for the on-edge check.
//!
//! # Why the answers are those of the whole-polygon scans, bit for bit
//!
//! Every list is a **superset filter**; the decision is always made by the
//! functions the whole-polygon scans call — [`Segment::intersects_box`],
//! [`point_on_segment`], [`ray_crosses_edge`],
//! [`Segment::distance_to_point`] — over that superset:
//!
//! * `intersects_box` and `point_on_segment` can only be true when the box
//!   (resp. point) lies within the segment's bounding box grown by the
//!   predicates' tolerance: an endpoint inside the box, a collinear-case
//!   hit (endpoint within [`EPSILON`](crate::predicates::EPSILON) of the other segment's box), or a
//!   proper crossing, whose crossing point rounding can displace by a few
//!   ulps of the coordinates. The filter grows the box by
//!   `1e-9 × max(1, largest coordinate)`, orders of magnitude more than
//!   either, and more than the ulp by which a child cell's computed box may
//!   stick out of its parent's — so an edge dropped for a cell cannot pass
//!   the predicate for that cell or any cell below it.
//! * A ray crossing needs `min(a.y, b.y) <= p.y < max(a.y, b.y)`; an edge
//!   is filed under every bucket between those of its two `y`s with the
//!   same monotone index function the lookup uses, and parity does not
//!   depend on the order of the toggles.
//! * The distance to a segment is 1-Lipschitz in the point: if `d_min` is
//!   the smallest distance from the cell's centre to a listed edge and `r`
//!   the cell's half-diagonal, the nearest edge of any point of the cell is
//!   at most `d_min + 2r` from the centre. Edges farther than that (plus
//!   the same slack) are dropped; the minimum over the rest is the minimum
//!   over all.
//!
//! Part gating is kept exactly: [`Polygon::classify_box`] ignores a part
//! whose exterior box does not meet the query box, and so does
//! [`EdgeTable::classify_box`].

use crate::bbox::BoundingBox;
use crate::point::Point;
use crate::polygon::{BoxRelation, Polygon};
use crate::predicates::{point_on_segment, ray_crosses_edge};
use crate::segment::Segment;
use crate::PointLocation;
use std::ops::Range;

/// Relative size of the margin by which the superset filters grow a box.
const MARGIN: f64 = 1e-9;

/// Upper bound on bucket entries per ring edge: a ring whose edges would be
/// filed under more buckets than this on average (long edges all spanning
/// the ring's height) gets fewer, taller buckets, down to a single one —
/// the linear scan.
const BUCKET_ENTRIES_PER_EDGE: usize = 4;

/// A candidate list: a range of [`EdgeLists`]. `Copy`, so a quadtree node
/// hands its lists to all four children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeList {
    start: u32,
    end: u32,
}

impl EdgeList {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Backing store of the candidate lists of one descent: lists are appended,
/// and a depth-first descent truncates back to a [`mark`](Self::mark) when
/// it leaves a node, so the buffers are reused and no node allocates.
#[derive(Debug, Default)]
pub struct EdgeLists {
    ids: Vec<u32>,
    /// Scratch of [`EdgeTable::nearest_candidates`].
    distances: Vec<f64>,
}

impl EdgeLists {
    /// The edge indices of a list.
    pub fn get(&self, list: EdgeList) -> &[u32] {
        &self.ids[list.range()]
    }

    /// The current end of the store, to [`truncate`](Self::truncate) to.
    pub fn mark(&self) -> usize {
        self.ids.len()
    }

    /// Drops every list appended since `mark` was taken.
    pub fn truncate(&mut self, mark: usize) {
        self.ids.truncate(mark);
    }

    fn list_since(&self, start: usize) -> EdgeList {
        EdgeList {
            start: start as u32,
            end: u32::try_from(self.ids.len()).expect("candidate lists exceed u32 indices"),
        }
    }
}

#[derive(Debug, Clone)]
struct Part {
    /// Box of the exterior ring — the gate of [`Polygon::classify_box`].
    bbox: BoundingBox,
    /// Rings of the part; the first is the exterior.
    rings: Range<usize>,
}

#[derive(Debug, Clone)]
struct RingIndex {
    edges: Range<u32>,
    /// `y` range of the vertices; a point outside `[y_min, y_max)` has no
    /// ray crossing with the ring.
    y_min: f64,
    y_max: f64,
    /// Buckets of the ring in `bucket_starts`, and buckets per unit of `y`.
    buckets: Range<usize>,
    buckets_per_y: f64,
}

impl RingIndex {
    /// Bucket of `y` within the ring; monotone in `y`, which is all the
    /// superset argument needs (`NaN` and negatives cast to 0, large values
    /// saturate).
    fn bucket_of(&self, y: f64) -> usize {
        let bucket = ((y - self.y_min) * self.buckets_per_y) as usize;
        bucket.min(self.buckets.len() - 1)
    }
}

/// The flattened edges of a region with the indexes the three candidate
/// primitives need. Built once per rasterization, `O(V)` space.
#[derive(Debug, Clone)]
pub struct EdgeTable {
    /// Every ring edge in the order the whole-polygon scans visit them:
    /// part by part, exterior first, then the holes.
    edges: Vec<Segment>,
    /// Part of each edge.
    edge_part: Vec<u32>,
    parts: Vec<Part>,
    rings: Vec<RingIndex>,
    /// CSR of the per-ring `y` buckets: the edges of bucket `b` are
    /// `bucket_edges[bucket_starts[b]..bucket_starts[b + 1]]`.
    bucket_starts: Vec<u32>,
    bucket_edges: Vec<u32>,
    /// Largest absolute vertex coordinate.
    magnitude: f64,
}

impl EdgeTable {
    /// Prepares the parts of a region. `None` when a vertex is not finite:
    /// no distance or crossing is meaningful then, and callers rasterize
    /// such a region to nothing.
    pub fn new(parts: &[Polygon]) -> Option<Self> {
        let mut table = EdgeTable {
            edges: Vec::with_capacity(parts.iter().map(Polygon::vertex_count).sum()),
            edge_part: Vec::new(),
            parts: Vec::with_capacity(parts.len()),
            rings: Vec::new(),
            bucket_starts: vec![0],
            bucket_edges: Vec::new(),
            magnitude: 0.0,
        };
        for (part, polygon) in parts.iter().enumerate() {
            let first_ring = table.rings.len();
            for ring in std::iter::once(polygon.exterior()).chain(polygon.holes()) {
                if !ring.vertices().iter().all(Point::is_finite) {
                    return None;
                }
                let first_edge = table.edges.len();
                table.edges.extend(ring.edges());
                assert!(
                    u32::try_from(table.edges.len()).is_ok(),
                    "a region cannot have more than u32::MAX edges"
                );
                table.edge_part.resize(table.edges.len(), part as u32);
                table.index_ring(first_edge, ring.len() >= 3);
            }
            table.parts.push(Part {
                bbox: polygon.bbox(),
                rings: first_ring..table.rings.len(),
            });
        }
        Some(table)
    }

    /// Files the edges `first_edge..` — one ring — under `y` buckets.
    /// Rings of fewer than three vertices locate every point outside
    /// ([`Ring::locate_point`](crate::Ring::locate_point)) and get no
    /// buckets; their edges still count for crossings and distances.
    fn index_ring(&mut self, first_edge: usize, locatable: bool) {
        let edges = &self.edges[first_edge..];
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for edge in edges {
            // Every vertex is the start of one edge.
            y_min = y_min.min(edge.start.y);
            y_max = y_max.max(edge.start.y);
            self.magnitude = self
                .magnitude
                .max(edge.start.x.abs().max(edge.start.y.abs()));
        }
        let mut ring = RingIndex {
            edges: first_edge as u32..self.edges.len() as u32,
            y_min,
            y_max,
            buckets: self.bucket_starts.len() - 1..self.bucket_starts.len() - 1,
            buckets_per_y: 0.0,
        };
        // A flat ring (`y_min == y_max`) has no ray crossings at all.
        if locatable && y_min < y_max {
            let spanned = |ring: &RingIndex, edge: &Segment| {
                let (lo, hi) = (edge.start.y.min(edge.end.y), edge.start.y.max(edge.end.y));
                // Horizontal edges never cross a ray.
                (lo < hi).then(|| ring.bucket_of(lo)..=ring.bucket_of(hi))
            };
            let mut count = edges.len();
            loop {
                ring.buckets.end = ring.buckets.start + count;
                ring.buckets_per_y = count as f64 / (y_max - y_min);
                let entries: usize = edges
                    .iter()
                    .filter_map(|edge| spanned(&ring, edge))
                    .map(|buckets| buckets.count())
                    .sum();
                if count == 1 || entries <= BUCKET_ENTRIES_PER_EDGE * edges.len() {
                    break;
                }
                count /= 2;
            }
            // Counting sort into the CSR: sizes, starts, then fill.
            let base = ring.buckets.start;
            self.bucket_starts.resize(base + count + 1, 0);
            for edge in edges {
                for bucket in spanned(&ring, edge).into_iter().flatten() {
                    self.bucket_starts[base + bucket + 1] += 1;
                }
            }
            for bucket in base..base + count {
                self.bucket_starts[bucket + 1] += self.bucket_starts[bucket];
            }
            self.bucket_edges
                .resize(self.bucket_starts[base + count] as usize, 0);
            let mut next = self.bucket_starts[base..base + count].to_vec();
            for (i, edge) in edges.iter().enumerate() {
                for bucket in spanned(&ring, edge).into_iter().flatten() {
                    self.bucket_edges[next[bucket] as usize] = (first_edge + i) as u32;
                    next[bucket] += 1;
                }
            }
        }
        self.rings.push(ring);
    }

    /// Appends the list of all edges — the candidates of the quadtree root.
    pub fn all_edges(&self, lists: &mut EdgeLists) -> EdgeList {
        let start = lists.mark();
        lists.ids.extend(0..self.edges.len() as u32);
        lists.list_since(start)
    }

    /// The margin of the superset filters for tests against the given
    /// points: [`MARGIN`] of the largest coordinate involved, at least of 1.
    fn margin(&self, points: &[Point]) -> f64 {
        let largest = points
            .iter()
            .fold(self.magnitude, |m, p| m.max(p.x.abs()).max(p.y.abs()));
        MARGIN * largest.max(1.0)
    }

    /// Appends the edges of `parent` that can still intersect `bbox` or
    /// pass through a point of it — the crossing candidates of `bbox` and
    /// of every box inside it.
    pub fn crossing_candidates(
        &self,
        lists: &mut EdgeLists,
        parent: EdgeList,
        bbox: &BoundingBox,
    ) -> EdgeList {
        let reach = bbox.inflated(self.margin(&[bbox.min, bbox.max]));
        let start = lists.mark();
        for i in parent.range() {
            let id = lists.ids[i];
            let edge = &self.edges[id as usize];
            if edge.start.x.min(edge.end.x) <= reach.max.x
                && edge.start.x.max(edge.end.x) >= reach.min.x
                && edge.start.y.min(edge.end.y) <= reach.max.y
                && edge.start.y.max(edge.end.y) >= reach.min.y
            {
                lists.ids.push(id);
            }
        }
        lists.list_since(start)
    }

    /// Appends the edges of `parent` that can be nearest to some point
    /// within `radius` of `center` — the nearest candidates of a cell with
    /// that centre and half-diagonal, and of every cell inside it.
    pub fn nearest_candidates(
        &self,
        lists: &mut EdgeLists,
        parent: EdgeList,
        center: &Point,
        radius: f64,
    ) -> EdgeList {
        lists.distances.clear();
        let mut nearest = f64::INFINITY;
        for i in parent.range() {
            let d = self.edges[lists.ids[i] as usize].distance_to_point(center);
            lists.distances.push(d);
            nearest = nearest.min(d);
        }
        let reach = (nearest + 2.0 * radius) * (1.0 + MARGIN) + self.margin(&[*center]);
        let start = lists.mark();
        for (k, i) in parent.range().enumerate() {
            // Dropped only when too far: a distance that overflowed to NaN
            // here stays listed.
            if lists.distances[k] > reach {
                continue;
            }
            let id = lists.ids[i];
            lists.ids.push(id);
        }
        lists.list_since(start)
    }

    /// Distance from `p` to the nearest listed edge; with the nearest
    /// candidates of a cell holding `p`, the region's
    /// [`boundary_distance`](crate::MultiPolygon::boundary_distance).
    pub fn boundary_distance(&self, nearest: &[u32], p: &Point) -> f64 {
        nearest
            .iter()
            .map(|&id| self.edges[id as usize].distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// [`MultiPolygon::classify_box`](crate::MultiPolygon::classify_box)
    /// from the crossing candidates of `bbox`.
    pub fn classify_box(&self, crossing: &[u32], bbox: &BoundingBox) -> BoxRelation {
        let reaches = |part: &Part| part.bbox.intersects(bbox);
        if crossing.iter().any(|&id| {
            reaches(&self.parts[self.edge_part[id as usize] as usize])
                && self.edges[id as usize].intersects_box(bbox)
        }) {
            return BoxRelation::Boundary;
        }
        // No boundary crossing: the centre decides for the whole box. (An
        // empty box reaches no part.)
        let center = bbox.center();
        let inside = self
            .parts
            .iter()
            .any(|part| reaches(part) && self.part_contains(part, crossing, &center));
        if inside {
            BoxRelation::Inside
        } else {
            BoxRelation::Disjoint
        }
    }

    /// [`MultiPolygon::contains_point`](crate::MultiPolygon::contains_point)
    /// for a point of a box with the given crossing candidates.
    pub fn contains_point(&self, crossing: &[u32], p: &Point) -> bool {
        self.parts
            .iter()
            .any(|part| self.part_contains(part, crossing, p))
    }

    /// [`Polygon::contains_point`] of one part.
    fn part_contains(&self, part: &Part, crossing: &[u32], p: &Point) -> bool {
        let mut rings = self.rings[part.rings.clone()].iter();
        let exterior = rings.next().expect("a part has an exterior ring");
        match self.locate_in_ring(exterior, crossing, p) {
            PointLocation::Outside => false,
            PointLocation::OnBoundary => true,
            PointLocation::Inside => {
                for hole in rings {
                    match self.locate_in_ring(hole, crossing, p) {
                        PointLocation::Inside => return false,
                        PointLocation::OnBoundary => return true,
                        PointLocation::Outside => {}
                    }
                }
                true
            }
        }
    }

    /// [`Ring::locate_point`](crate::Ring::locate_point): the on-edge check
    /// over the crossing candidates that belong to the ring, the crossing
    /// number over the bucket of `p.y`.
    fn locate_in_ring(&self, ring: &RingIndex, crossing: &[u32], p: &Point) -> PointLocation {
        if ring.edges.len() < 3 {
            return PointLocation::Outside;
        }
        let on_edge = crossing.iter().any(|id| {
            let edge = &self.edges[*id as usize];
            ring.edges.contains(id) && point_on_segment(&edge.start, &edge.end, p)
        });
        if on_edge {
            return PointLocation::OnBoundary;
        }
        if ring.buckets.is_empty() || !(ring.y_min <= p.y && p.y < ring.y_max) {
            return PointLocation::Outside;
        }
        let bucket = ring.buckets.start + ring.bucket_of(p.y);
        let range = self.bucket_starts[bucket] as usize..self.bucket_starts[bucket + 1] as usize;
        let crossings = self.bucket_edges[range]
            .iter()
            .filter(|&&id| {
                let edge = &self.edges[id as usize];
                ray_crosses_edge(&edge.start, &edge.end, p)
            })
            .count();
        if crossings % 2 == 1 {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::{MultiPolygon, Ring};
    use proptest::prelude::*;

    fn star(cx: f64, cy: f64, r: f64, spikes: usize) -> Ring {
        Ring::new(
            (0..2 * spikes)
                .map(|i| {
                    let a = i as f64 * std::f64::consts::PI / spikes as f64;
                    let r = if i % 2 == 0 { r } else { r * 0.4 };
                    Point::new(cx + r * a.cos(), cy + r * a.sin())
                })
                .collect(),
        )
    }

    /// A star with a star-shaped hole, a triangle island, a two-vertex
    /// "ring" and an empty part.
    fn region() -> MultiPolygon {
        MultiPolygon::new(vec![
            Polygon::with_holes(star(40.0, 40.0, 30.0, 7), vec![star(40.0, 40.0, 8.0, 3)]),
            Polygon::from_coords(&[(80.0, 10.0), (95.0, 12.0), (88.0, 30.0)]),
            Polygon::new(Ring::new(vec![
                Point::new(5.0, 90.0),
                Point::new(9.0, 94.0),
            ])),
            Polygon::default(),
        ])
    }

    #[test]
    fn non_finite_vertices_are_rejected() {
        let bad = Polygon::from_coords(&[(0.0, 0.0), (1.0, f64::NAN), (1.0, 1.0)]);
        assert!(EdgeTable::new(&[bad]).is_none());
        let inf = Polygon::with_holes(
            star(0.0, 0.0, 5.0, 4),
            vec![Ring::new(vec![Point::new(f64::INFINITY, 0.0)])],
        );
        assert!(EdgeTable::new(&[inf]).is_none());
        assert!(EdgeTable::new(&[]).is_some());
    }

    #[test]
    fn tall_edges_fall_back_to_fewer_buckets() {
        // A comb: every tooth edge spans the whole height, so one bucket per
        // edge would file every edge under every bucket.
        let teeth = 200;
        let mut v = Vec::new();
        for i in 0..teeth {
            v.push(Point::new(i as f64, 0.0));
            v.push(Point::new(i as f64 + 0.5, 100.0));
        }
        v.push(Point::new(teeth as f64, -1.0));
        let comb = Polygon::new(Ring::new(v));
        let table = EdgeTable::new(std::slice::from_ref(&comb)).unwrap();
        assert!(table.bucket_edges.len() <= BUCKET_ENTRIES_PER_EDGE * table.edges.len());
        let mut lists = EdgeLists::default();
        let all = table.all_edges(&mut lists);
        for (x, y) in [(10.25, 50.0), (10.75, 99.0), (3.1, 0.5), (-1.0, 5.0)] {
            let p = Point::new(x, y);
            assert_eq!(
                table.contains_point(lists.get(all), &p),
                comb.contains_point(&p)
            );
        }
    }

    proptest! {
        /// Descending a random chain of nested boxes, the candidate lists
        /// answer exactly as the whole-polygon scans at every step.
        #[test]
        fn prop_candidate_lists_reproduce_the_whole_polygon_scans(
            x0 in 0f64..100.0, y0 in 0f64..100.0, side in 0.5f64..60.0,
            path in proptest::collection::vec(0u8..4, 0..8),
            fx in 0f64..1.0, fy in 0f64..1.0,
        ) {
            let region = region();
            let table = EdgeTable::new(region.polygons()).unwrap();
            prop_assert_eq!(table.edges.len(), region.vertex_count());
            let mut lists = EdgeLists::default();
            let all = table.all_edges(&mut lists);
            let (mut crossing, mut nearest) = (all, all);
            let mut bbox = BoundingBox::from_bounds(x0, y0, x0 + side, y0 + side);
            for quadrant in std::iter::once(None).chain(path.into_iter().map(Some)) {
                if let Some(q) = quadrant {
                    let (c, h) = (bbox.center(), bbox.width() * 0.5);
                    let min = Point::new(
                        if q & 1 == 0 { bbox.min.x } else { c.x },
                        if q & 2 == 0 { bbox.min.y } else { c.y },
                    );
                    bbox = BoundingBox::new(min, Point::new(min.x + h, min.y + h));
                }
                crossing = table.crossing_candidates(&mut lists, crossing, &bbox);
                let center = bbox.center();
                let radius = bbox.width() * std::f64::consts::SQRT_2 * 0.5;
                prop_assert_eq!(
                    table.boundary_distance(lists.get(nearest), &center),
                    region.boundary_distance(&center)
                );
                nearest = table.nearest_candidates(&mut lists, nearest, &center, radius);
                prop_assert_eq!(
                    table.classify_box(lists.get(crossing), &bbox),
                    region.classify_box(&bbox)
                );
                let p = Point::new(
                    bbox.min.x + fx * bbox.width(),
                    bbox.min.y + fy * bbox.height(),
                );
                prop_assert_eq!(
                    table.contains_point(lists.get(crossing), &p),
                    region.contains_point(&p)
                );
                prop_assert_eq!(
                    table.boundary_distance(lists.get(nearest), &p),
                    region.boundary_distance(&p)
                );
            }
        }
    }
}
