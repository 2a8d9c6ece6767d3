//! Low-level geometric predicates.
//!
//! These are the building blocks for point-in-polygon tests, segment
//! intersection and convex hulls. They use a small epsilon tolerance rather
//! than exact arithmetic; the distance-bounded approximation framework is by
//! construction tolerant to errors far larger than `f64` rounding, so exact
//! predicates would add cost without changing any result the paper reports.

use crate::point::Point;

/// Tolerance used when classifying near-collinear configurations.
pub const EPSILON: f64 = 1e-12;

/// Orientation of an ordered point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The triple turns left (counter-clockwise).
    CounterClockwise,
    /// The triple turns right (clockwise).
    Clockwise,
    /// The three points are (numerically) collinear.
    Collinear,
}

/// Twice the signed area of triangle `(a, b, c)`.
///
/// Positive when the triangle is counter-clockwise.
#[inline]
pub fn signed_area2(a: &Point, b: &Point, c: &Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Classifies the turn made by the ordered triple `(a, b, c)`.
#[inline]
pub fn orientation(a: &Point, b: &Point, c: &Point) -> Orientation {
    let area2 = signed_area2(a, b, c);
    // Scale tolerance with coordinate magnitude so that city-sized
    // coordinates (1e5-scale meters) behave the same as unit-scale tests.
    let scale = (b.x - a.x).abs() + (b.y - a.y).abs() + (c.x - a.x).abs() + (c.y - a.y).abs();
    let tol = EPSILON * scale.max(1.0);
    if area2 > tol {
        Orientation::CounterClockwise
    } else if area2 < -tol {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Whether point `p` lies on the closed segment `[a, b]`, assuming the three
/// points are collinear.
#[inline]
pub fn collinear_point_on_segment(a: &Point, b: &Point, p: &Point) -> bool {
    p.x >= a.x.min(b.x) - EPSILON
        && p.x <= a.x.max(b.x) + EPSILON
        && p.y >= a.y.min(b.y) - EPSILON
        && p.y <= a.y.max(b.y) + EPSILON
}

/// Whether point `p` lies on the closed segment `[a, b]` (within tolerance).
pub fn point_on_segment(a: &Point, b: &Point, p: &Point) -> bool {
    orientation(a, b, p) == Orientation::Collinear && collinear_point_on_segment(a, b, p)
}

/// Whether the rightward horizontal ray from `p` crosses the edge `a → b`
/// under the half-open rule of the crossing-number test: the edge counts
/// when exactly one endpoint lies strictly above `p.y`, so a ray through a
/// shared vertex is counted once. This is the one definition of a ray
/// crossing — the ring scan and the prepared edge table both call it.
#[inline]
pub fn ray_crosses_edge(a: &Point, b: &Point, p: &Point) -> bool {
    (b.y > p.y) != (a.y > p.y) && p.x < a.x + (b.x - a.x) * (p.y - a.y) / (b.y - a.y)
}

/// Whether the closed segments `[p1, p2]` and `[q1, q2]` share at least one point.
pub fn segments_intersect(p1: &Point, p2: &Point, q1: &Point, q2: &Point) -> bool {
    let o1 = orientation(p1, p2, q1);
    let o2 = orientation(p1, p2, q2);
    let o3 = orientation(q1, q2, p1);
    let o4 = orientation(q1, q2, p2);

    if o1 != o2
        && o3 != o4
        && o1 != Orientation::Collinear
        && o2 != Orientation::Collinear
        && o3 != Orientation::Collinear
        && o4 != Orientation::Collinear
    {
        return true;
    }

    (o1 == Orientation::Collinear && collinear_point_on_segment(p1, p2, q1))
        || (o2 == Orientation::Collinear && collinear_point_on_segment(p1, p2, q2))
        || (o3 == Orientation::Collinear && collinear_point_on_segment(q1, q2, p1))
        || (o4 == Orientation::Collinear && collinear_point_on_segment(q1, q2, p2))
}

/// Intersection point of the two segments when they cross at a single
/// (proper or improper) point, `None` when disjoint or overlapping collinear.
pub fn segment_intersection_point(p1: &Point, p2: &Point, q1: &Point, q2: &Point) -> Option<Point> {
    let r = *p2 - *p1;
    let s = *q2 - *q1;
    let denom = r.cross(&s);
    let qp = *q1 - *p1;
    if denom.abs() < EPSILON {
        // Parallel (possibly overlapping): no unique intersection point.
        return None;
    }
    let t = qp.cross(&s) / denom;
    let u = qp.cross(&r) / denom;
    if (-EPSILON..=1.0 + EPSILON).contains(&t) && (-EPSILON..=1.0 + EPSILON).contains(&u) {
        Some(*p1 + r * t)
    } else {
        None
    }
}

/// Minimum distance from point `p` to the closed segment `[a, b]`.
pub fn point_segment_distance(a: &Point, b: &Point, p: &Point) -> f64 {
    let ab = *b - *a;
    let len2 = ab.dot(&ab);
    if len2 == 0.0 {
        return p.distance(a);
    }
    let t = ((*p - *a).dot(&ab) / len2).clamp(0.0, 1.0);
    let proj = *a + ab * t;
    p.distance(&proj)
}

/// Minimum distance between two closed segments.
pub fn segment_segment_distance(p1: &Point, p2: &Point, q1: &Point, q2: &Point) -> f64 {
    if segments_intersect(p1, p2, q1, q2) {
        return 0.0;
    }
    point_segment_distance(p1, p2, q1)
        .min(point_segment_distance(p1, p2, q2))
        .min(point_segment_distance(q1, q2, p1))
        .min(point_segment_distance(q1, q2, p2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orientation_basic() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(
            orientation(&a, &b, &Point::new(0.5, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orientation(&a, &b, &Point::new(0.5, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orientation(&a, &b, &Point::new(2.0, 0.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn signed_area_of_unit_right_triangle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        assert_eq!(signed_area2(&a, &b, &c), 1.0);
        assert_eq!(signed_area2(&a, &c, &b), -1.0);
    }

    #[test]
    fn point_on_segment_endpoints_and_interior() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 4.0);
        assert!(point_on_segment(&a, &b, &a));
        assert!(point_on_segment(&a, &b, &b));
        assert!(point_on_segment(&a, &b, &Point::new(2.0, 2.0)));
        assert!(!point_on_segment(&a, &b, &Point::new(5.0, 5.0)));
        assert!(!point_on_segment(&a, &b, &Point::new(2.0, 2.5)));
    }

    #[test]
    fn crossing_segments_intersect() {
        let p1 = Point::new(0.0, 0.0);
        let p2 = Point::new(2.0, 2.0);
        let q1 = Point::new(0.0, 2.0);
        let q2 = Point::new(2.0, 0.0);
        assert!(segments_intersect(&p1, &p2, &q1, &q2));
        let ip = segment_intersection_point(&p1, &p2, &q1, &q2).unwrap();
        assert!((ip.x - 1.0).abs() < 1e-12 && (ip.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let p1 = Point::new(0.0, 0.0);
        let p2 = Point::new(1.0, 0.0);
        let q1 = Point::new(0.0, 1.0);
        let q2 = Point::new(1.0, 1.0);
        assert!(!segments_intersect(&p1, &p2, &q1, &q2));
        assert!(segment_intersection_point(&p1, &p2, &q1, &q2).is_none());
    }

    #[test]
    fn touching_at_endpoint_intersects() {
        let p1 = Point::new(0.0, 0.0);
        let p2 = Point::new(1.0, 1.0);
        let q1 = Point::new(1.0, 1.0);
        let q2 = Point::new(2.0, 0.0);
        assert!(segments_intersect(&p1, &p2, &q1, &q2));
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        let p1 = Point::new(0.0, 0.0);
        let p2 = Point::new(2.0, 0.0);
        let q1 = Point::new(1.0, 0.0);
        let q2 = Point::new(3.0, 0.0);
        assert!(segments_intersect(&p1, &p2, &q1, &q2));
        // No unique intersection point for overlapping collinear segments.
        assert!(segment_intersection_point(&p1, &p2, &q1, &q2).is_none());
    }

    #[test]
    fn point_segment_distance_cases() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(point_segment_distance(&a, &b, &Point::new(5.0, 3.0)), 3.0);
        assert_eq!(point_segment_distance(&a, &b, &Point::new(-3.0, 4.0)), 5.0);
        assert_eq!(point_segment_distance(&a, &b, &Point::new(13.0, 4.0)), 5.0);
        // Degenerate segment behaves like a point.
        assert_eq!(point_segment_distance(&a, &a, &Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn segment_segment_distance_cases() {
        let d = segment_segment_distance(
            &Point::new(0.0, 0.0),
            &Point::new(1.0, 0.0),
            &Point::new(0.0, 2.0),
            &Point::new(1.0, 2.0),
        );
        assert_eq!(d, 2.0);
        let crossing = segment_segment_distance(
            &Point::new(0.0, 0.0),
            &Point::new(2.0, 2.0),
            &Point::new(0.0, 2.0),
            &Point::new(2.0, 0.0),
        );
        assert_eq!(crossing, 0.0);
    }

    proptest! {
        #[test]
        fn prop_orientation_antisymmetric(
            ax in -100f64..100.0, ay in -100f64..100.0,
            bx in -100f64..100.0, by in -100f64..100.0,
            cx in -100f64..100.0, cy in -100f64..100.0,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            let o1 = orientation(&a, &b, &c);
            let o2 = orientation(&a, &c, &b);
            match o1 {
                Orientation::CounterClockwise => prop_assert_eq!(o2, Orientation::Clockwise),
                Orientation::Clockwise => prop_assert_eq!(o2, Orientation::CounterClockwise),
                Orientation::Collinear => prop_assert_eq!(o2, Orientation::Collinear),
            }
        }

        #[test]
        fn prop_segment_intersection_symmetric(
            ax in -50f64..50.0, ay in -50f64..50.0, bx in -50f64..50.0, by in -50f64..50.0,
            cx in -50f64..50.0, cy in -50f64..50.0, dx in -50f64..50.0, dy in -50f64..50.0,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            let d = Point::new(dx, dy);
            prop_assert_eq!(
                segments_intersect(&a, &b, &c, &d),
                segments_intersect(&c, &d, &a, &b)
            );
        }

        #[test]
        fn prop_point_segment_distance_zero_for_on_segment_points(
            ax in -50f64..50.0, ay in -50f64..50.0, bx in -50f64..50.0, by in -50f64..50.0,
            t in 0f64..1.0,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let p = a.lerp(&b, t);
            prop_assert!(point_segment_distance(&a, &b, &p) < 1e-7);
        }
    }
}
