//! The executable spec of the rasterizers: every cell classified, sampled
//! and annotated by the whole-polygon scans of `dbsa_geom::polygon` — an
//! `intersects_box` against every edge, the two-pass point-in-polygon, the
//! all-segments distance — exactly as the constructors did before they
//! descended with candidate lists. Test-only; the lockstep properties below
//! hold the production constructors to it cell for cell.

use crate::cell::{estimate_overlap_fraction, BoundaryPolicy, CellClass, DistanceBins, RasterCell};
use crate::{HierarchicalRaster, UniformRaster};
use dbsa_geom::polygon::BoxRelation;
use dbsa_geom::{MultiPolygon, Point, Polygon, Ring};
use dbsa_grid::{CellId, GridExtent, MAX_LEVEL};
use proptest::prelude::*;
use std::collections::BinaryHeap;

fn annotate(geometry: &MultiPolygon, extent: &GridExtent, id: CellId) -> DistanceBins {
    let level = id.level();
    let d_center = geometry.boundary_distance(&extent.cell_id_center(id));
    DistanceBins::quantize(
        d_center,
        extent.cell_diagonal(level) * 0.5,
        extent.cell_size(level),
    )
}

fn keeps(policy: BoundaryPolicy, geometry: &MultiPolygon, bbox: &dbsa_geom::BoundingBox) -> bool {
    policy.keep_boundary_cell(|p| geometry.contains_point(p), bbox)
}

/// `HierarchicalRaster::with_boundary_level`.
fn hierarchical(
    geometry: &MultiPolygon,
    extent: &GridExtent,
    boundary_level: u8,
    policy: BoundaryPolicy,
) -> Vec<RasterCell> {
    fn descend(
        geometry: &MultiPolygon,
        extent: &GridExtent,
        cell: CellId,
        boundary_level: u8,
        policy: BoundaryPolicy,
        out: &mut Vec<RasterCell>,
    ) {
        let bbox = extent.cell_id_bbox(cell);
        match geometry.classify_box(&bbox) {
            BoxRelation::Disjoint => {}
            BoxRelation::Inside => {
                out.push(RasterCell::interior(cell).with_distance(annotate(geometry, extent, cell)))
            }
            BoxRelation::Boundary if cell.level() >= boundary_level => {
                if keeps(policy, geometry, &bbox) {
                    out.push(
                        RasterCell::boundary(cell).with_distance(annotate(geometry, extent, cell)),
                    );
                }
            }
            BoxRelation::Boundary => {
                for child in cell.children() {
                    descend(geometry, extent, child, boundary_level, policy, out);
                }
            }
        }
    }
    let mut cells = Vec::new();
    descend(
        geometry,
        extent,
        CellId::ROOT,
        boundary_level,
        policy,
        &mut cells,
    );
    cells.sort_by_key(|c| c.id.range_min());
    cells
}

/// `HierarchicalRaster::with_cell_budget`: the cells and the boundary level.
fn budgeted(
    geometry: &MultiPolygon,
    extent: &GridExtent,
    cell_budget: usize,
    policy: BoundaryPolicy,
) -> (Vec<RasterCell>, u8) {
    // (coarsest level first, then most outside samples, then smallest id)
    type Entry = (std::cmp::Reverse<u8>, u8, std::cmp::Reverse<u64>);
    let entry = |id: CellId| -> Entry {
        let inside =
            estimate_overlap_fraction(|p| geometry.contains_point(p), &extent.cell_id_bbox(id), 4);
        (
            std::cmp::Reverse(id.level()),
            (16.0 * (1.0 - inside)).round() as u8,
            std::cmp::Reverse(id.raw()),
        )
    };
    let mut finished = Vec::new();
    let mut queue: BinaryHeap<Entry> = BinaryHeap::new();
    queue.push(entry(CellId::ROOT));
    let mut achieved_level = 0u8;
    while let Some(&(std::cmp::Reverse(level), _, std::cmp::Reverse(raw))) = queue.peek() {
        if finished.len() + queue.len() + 3 > cell_budget || level >= MAX_LEVEL {
            break;
        }
        queue.pop();
        for child in CellId::from_raw(raw).children() {
            match geometry.classify_box(&extent.cell_id_bbox(child)) {
                BoxRelation::Disjoint => {}
                BoxRelation::Inside => finished.push(
                    RasterCell::interior(child).with_distance(annotate(geometry, extent, child)),
                ),
                BoxRelation::Boundary => {
                    achieved_level = achieved_level.max(child.level());
                    queue.push(entry(child));
                }
            }
        }
    }
    let mut coarsest_boundary: Option<u8> = None;
    for (std::cmp::Reverse(level), outside_samples, std::cmp::Reverse(raw)) in queue {
        coarsest_boundary = Some(coarsest_boundary.map_or(level, |c| c.min(level)));
        let keep = match policy {
            BoundaryPolicy::Conservative => true,
            BoundaryPolicy::NonConservative { min_overlap } => {
                1.0 - outside_samples as f64 / 16.0 >= min_overlap
            }
        };
        if keep {
            let id = CellId::from_raw(raw);
            finished.push(RasterCell::boundary(id).with_distance(annotate(geometry, extent, id)));
        }
    }
    finished.sort_by_key(|c| c.id.range_min());
    (finished, coarsest_boundary.unwrap_or(achieved_level))
}

/// `UniformRaster::at_level`.
fn uniform(
    geometry: &MultiPolygon,
    extent: &GridExtent,
    level: u8,
    policy: BoundaryPolicy,
) -> Vec<RasterCell> {
    let bbox = geometry.bbox();
    if bbox.is_empty() {
        return Vec::new();
    }
    let (min_cx, min_cy) = extent.cell_coords(&bbox.min, level);
    let (max_cx, max_cy) = extent.cell_coords(&bbox.max, level);
    let mut cells = Vec::new();
    for cy in min_cy..=max_cy {
        for cx in min_cx..=max_cx {
            let cell_bbox = extent.cell_bbox(cx, cy, level);
            let class = match geometry.classify_box(&cell_bbox) {
                BoxRelation::Disjoint => continue,
                BoxRelation::Inside => CellClass::Interior,
                BoxRelation::Boundary if keeps(policy, geometry, &cell_bbox) => CellClass::Boundary,
                BoxRelation::Boundary => continue,
            };
            let id = CellId::from_cell_xy(cx, cy, level);
            cells.push(RasterCell {
                id,
                class,
                dist: annotate(geometry, extent, id),
            });
        }
    }
    cells.sort_by_key(|c| c.id);
    cells
}

/// The extent of the lockstep cases: cells of `64 / 2^level`, so integer and
/// dyadic vertex coordinates fall exactly on cell corners and borders.
fn extent() -> GridExtent {
    GridExtent::new(Point::new(0.0, 0.0), 64.0)
}

/// Holds all three constructors to the spec on one geometry.
fn assert_lockstep(geometry: &MultiPolygon, level: u8, budget: usize, policy: BoundaryPolicy) {
    let extent = extent();
    let finite = geometry
        .polygons()
        .iter()
        .flat_map(|p| std::iter::once(p.exterior()).chain(p.holes()))
        .all(|ring| ring.vertices().iter().all(Point::is_finite));

    let hr = HierarchicalRaster::with_boundary_level(geometry, &extent, level, policy);
    let hb = HierarchicalRaster::with_cell_budget(geometry, &extent, budget, policy);
    let ur = UniformRaster::at_level(geometry, &extent, level, policy);
    if !finite {
        // Non-finite regions rasterize to nothing (the spec's scans are not
        // meaningful on them); the point is that nothing above panicked.
        assert!(hr.cells().is_empty() && hb.cells().is_empty() && ur.cells().is_empty());
        return;
    }
    assert_eq!(
        hr.cells(),
        hierarchical(geometry, &extent, level, policy),
        "with_boundary_level({level}, {policy:?}) on {geometry:?}"
    );
    let (cells, boundary_level) = budgeted(geometry, &extent, budget, policy);
    assert_eq!(
        (hb.cells(), hb.boundary_level()),
        (&cells[..], boundary_level),
        "with_cell_budget({budget}, {policy:?}) on {geometry:?}"
    );
    assert_eq!(
        ur.cells(),
        uniform(geometry, &extent, level, policy),
        "at_level({level}, {policy:?}) on {geometry:?}"
    );
    // A single part rasterizes as the polygon it is.
    if let [polygon] = geometry.polygons() {
        let as_polygon = HierarchicalRaster::with_boundary_level(polygon, &extent, level, policy);
        assert_eq!(as_polygon.cells(), hr.cells());
    }
}

fn policies() -> [BoundaryPolicy; 2] {
    [
        BoundaryPolicy::Conservative,
        BoundaryPolicy::NonConservative { min_overlap: 0.4 },
    ]
}

fn ring(coords: &[(f64, f64)]) -> Ring {
    Ring::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
}

/// Hand-picked degenerate regions: every one must rasterize as the spec
/// does, at several levels, budgets and both policies.
#[test]
fn lockstep_on_degenerate_regions() {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    let regions: Vec<MultiPolygon> = vec![
        // Vertices exactly on cell corners and borders.
        Polygon::from_coords(&[(8.0, 8.0), (40.0, 8.0), (40.0, 24.0), (8.0, 24.0)]).into(),
        Polygon::from_coords(&[(16.0, 4.0), (48.0, 36.0), (16.0, 36.0)]).into(),
        Polygon::from_coords(&[(10.5, 10.25), (30.75, 10.25), (30.75, 30.5), (10.5, 30.5)]).into(),
        // A hole touching nothing, a hole sharing a vertex with the
        // exterior, and overlapping holes.
        Polygon::with_holes(
            ring(&[(4.0, 4.0), (60.0, 4.0), (60.0, 60.0), (4.0, 60.0)]),
            vec![
                ring(&[(20.0, 20.0), (30.0, 20.0), (30.0, 30.0), (20.0, 30.0)]),
                ring(&[(4.0, 4.0), (12.0, 6.0), (6.0, 12.0)]),
                ring(&[(25.0, 25.0), (44.0, 27.0), (27.0, 44.0)]),
            ],
        )
        .into(),
        // Multi-part islands, one inside the other's hole, one duplicated.
        MultiPolygon::new(vec![
            Polygon::with_holes(
                ring(&[(2.0, 2.0), (40.0, 3.0), (38.0, 41.0), (3.0, 39.0)]),
                vec![ring(&[
                    (10.0, 10.0),
                    (30.0, 10.0),
                    (30.0, 30.0),
                    (10.0, 30.0),
                ])],
            ),
            Polygon::from_coords(&[(15.0, 15.0), (25.0, 16.0), (20.0, 25.0)]),
            Polygon::from_coords(&[(50.0, 50.0), (62.0, 50.0), (56.0, 63.0)]),
            Polygon::from_coords(&[(50.0, 50.0), (62.0, 50.0), (56.0, 63.0)]),
        ]),
        // Slivers: near-zero and exactly zero area.
        Polygon::from_coords(&[(5.0, 5.0), (55.0, 20.0), (55.0, 20.0 + 1e-9)]).into(),
        Polygon::from_coords(&[(5.0, 33.0), (50.0, 33.0), (20.0, 33.0)]).into(),
        Polygon::from_coords(&[(7.0, 7.0), (7.0, 50.0), (7.0, 20.0), (7.0 + 1e-13, 30.0)]).into(),
        // Collinear and duplicate vertices (zero-length edges).
        Polygon::from_coords(&[
            (8.0, 8.0),
            (16.0, 8.0),
            (16.0, 8.0),
            (24.0, 8.0),
            (24.0, 24.0),
            (24.0, 24.0),
            (24.0, 24.0),
            (8.0, 24.0),
            (8.0, 16.0),
        ])
        .into(),
        // Rings of one and two vertices, alone and as holes; empty parts.
        Polygon::new(ring(&[(9.0, 9.0)])).into(),
        Polygon::new(ring(&[(9.0, 9.0), (33.0, 41.0)])).into(),
        Polygon::with_holes(
            ring(&[(4.0, 4.0), (44.0, 4.0), (24.0, 44.0)]),
            vec![ring(&[(20.0, 10.0), (28.0, 18.0)]), ring(&[(24.0, 24.0)])],
        )
        .into(),
        MultiPolygon::new(vec![
            Polygon::default(),
            Polygon::from_coords(&[(1.0, 1.0), (9.0, 2.0), (4.0, 8.0)]),
        ]),
        MultiPolygon::default(),
        // An exterior with no vertices but a hole with edges: the part's
        // empty box gates the hole's edges out.
        Polygon::with_holes(
            Ring::default(),
            vec![ring(&[(10.0, 10.0), (20.0, 10.0), (15.0, 20.0)])],
        )
        .into(),
        // Leaving the extent, covering it, entirely outside it.
        Polygon::from_coords(&[(-20.0, 10.0), (30.0, -15.0), (80.0, 40.0), (20.0, 90.0)]).into(),
        Polygon::from_coords(&[(-1.0, -1.0), (65.0, -1.0), (65.0, 65.0), (-1.0, 65.0)]).into(),
        Polygon::from_coords(&[(0.0, 0.0), (64.0, 0.0), (64.0, 64.0), (0.0, 64.0)]).into(),
        Polygon::from_coords(&[(70.0, 70.0), (90.0, 70.0), (80.0, 95.0)]).into(),
        Polygon::from_coords(&[(64.0, 10.0), (90.0, 10.0), (90.0, 30.0), (64.0, 30.0)]).into(),
        // Huge but finite coordinates: squared distances overflow.
        Polygon::from_coords(&[(-1e200, -1e200), (1e200, -1e200), (0.0, 1e200)]).into(),
        // Non-finite coordinates.
        Polygon::from_coords(&[(8.0, 8.0), (nan, 8.0), (24.0, 24.0)]).into(),
        Polygon::from_coords(&[(8.0, 8.0), (40.0, inf), (24.0, 24.0)]).into(),
        Polygon::with_holes(
            ring(&[(4.0, 4.0), (44.0, 4.0), (24.0, 44.0)]),
            vec![ring(&[(20.0, 10.0), (28.0, -inf), (nan, nan)])],
        )
        .into(),
    ];
    for region in &regions {
        for policy in policies() {
            for (level, budget) in [(0, 4), (3, 17), (6, 96), (8, 512)] {
                assert_lockstep(region, level, budget, policy);
            }
        }
    }
}

/// A random ring around `(cx, cy)`: radii and angles are independent, so it
/// may self-intersect; a third of the vertices snap to the unit lattice
/// (cell corners and borders of the 64-unit extent) and some repeat.
fn random_ring(cx: f64, cy: f64, spokes: &[(f64, f64, u8)]) -> Ring {
    let mut vertices = Vec::new();
    for (i, &(radius, wobble, kind)) in spokes.iter().enumerate() {
        let angle = (i as f64 + wobble) / spokes.len() as f64 * std::f64::consts::TAU;
        let mut p = Point::new(cx + radius * angle.cos(), cy + radius * angle.sin());
        if kind % 3 == 0 {
            p = Point::new(p.x.round(), p.y.round());
        }
        vertices.push(p);
        if kind % 5 == 0 {
            vertices.push(p);
        }
    }
    Ring::new(vertices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random regions — a polygon with up to two holes plus an optional
    /// island, centred anywhere from inside the extent to outside it.
    #[test]
    fn prop_lockstep_on_random_regions(
        cx in -10f64..74.0, cy in -10f64..74.0,
        exterior in proptest::collection::vec((1f64..40.0, -0.4f64..0.4, 0u8..15), 1..14),
        holes in proptest::collection::vec(
            (-12f64..12.0, -12f64..12.0,
             proptest::collection::vec((0.5f64..9.0, -0.4f64..0.4, 0u8..15), 1..7)),
            0..3,
        ),
        island in proptest::collection::vec((0.5f64..12.0, -0.4f64..0.4, 0u8..15), 0..6),
        level in 0u8..8,
        budget in 4usize..200,
        conservative in proptest::bool::ANY,
    ) {
        let mut parts = vec![Polygon::with_holes(
            random_ring(cx, cy, &exterior),
            holes
                .iter()
                .map(|(dx, dy, spokes)| random_ring(cx + dx, cy + dy, spokes))
                .collect(),
        )];
        if !island.is_empty() {
            parts.push(Polygon::new(random_ring(64.0 - cx, cy, &island)));
        }
        let policy = if conservative {
            BoundaryPolicy::Conservative
        } else {
            BoundaryPolicy::NonConservative { min_overlap: 0.3 }
        };
        assert_lockstep(&MultiPolygon::new(parts), level, budget, policy);
    }
}
