//! Cross-index consistency on a shared workload: every index structure in
//! the crate answers the same questions; exact ones must agree bit-for-bit,
//! approximate ones must stay within their guarantee.

use dbsa::index::{
    AdaptiveCellTrie, BPlusTree, KdTree, MemoryFootprint, PointQuadtree, RTree, RTreeEntry,
    RadixSpline, ShapeIndex, SortedKeyArray,
};
use dbsa::prelude::*;
use dbsa::raster::{BoundaryPolicy, HierarchicalRaster};

fn workload() -> (Vec<Point>, Vec<MultiPolygon>, GridExtent) {
    let taxi = TaxiPointGenerator::new(city_extent(), 55).generate(25_000);
    let points: Vec<Point> = taxi.iter().map(|t| t.location).collect();
    let regions = PolygonSetGenerator::new(city_extent(), 25, 24, 2).generate();
    let extent = GridExtent::covering(&city_extent());
    (points, regions, extent)
}

#[test]
fn one_dimensional_indexes_agree_on_every_range() {
    let (points, regions, extent) = workload();
    let keys: Vec<u64> = points
        .iter()
        .map(|p| extent.leaf_cell_id(p).raw())
        .collect();
    let sorted = SortedKeyArray::from_unsorted(keys.clone());
    let btree = BPlusTree::new(keys.clone());
    let spline = RadixSpline::new(sorted.keys());

    // Ranges derived from real query-polygon rasters.
    for region in regions.iter().take(8) {
        let raster = HierarchicalRaster::with_cell_budget(
            region,
            &extent,
            128,
            BoundaryPolicy::Conservative,
        );
        for cell in raster.cells() {
            let lo = cell.id.range_min().raw();
            let hi = cell.id.range_max().raw();
            let expected = sorted.count_range(lo, hi);
            assert_eq!(btree.count_range(lo, hi), expected);
            assert_eq!(spline.count_range(sorted.keys(), lo, hi), expected);
        }
    }
}

#[test]
fn spatial_indexes_agree_on_mbr_filtering() {
    let (points, regions, _) = workload();
    let quadtree = PointQuadtree::build(city_extent().inflated(1.0), &points);
    let kdtree = KdTree::build(&points);
    let rtree = RTree::bulk_load_str(
        points
            .iter()
            .enumerate()
            .map(|(i, p)| RTreeEntry::point(*p, i as u64))
            .collect(),
        16,
    );
    for region in regions.iter().take(10) {
        let mbr = region.bbox();
        let mut q = quadtree.query_bbox(&mbr);
        let mut k = kdtree.query_bbox(&mbr);
        let mut r = rtree.query_bbox(&mbr);
        q.sort_unstable();
        k.sort_unstable();
        r.sort_unstable();
        assert_eq!(q, k, "quadtree vs kd-tree");
        assert_eq!(q, r, "quadtree vs r-tree");
    }
}

#[test]
fn act_and_shape_index_are_consistent_up_to_the_bound() {
    let (points, regions, extent) = workload();
    let bound = DistanceBound::meters(10.0);
    let rasters: Vec<HierarchicalRaster> = regions
        .iter()
        .map(|r| HierarchicalRaster::with_bound(r, &extent, bound, BoundaryPolicy::Conservative))
        .collect();
    let act = AdaptiveCellTrie::build(&rasters);
    let shape = ShapeIndex::build(&regions, &extent);

    let mut disagreements = 0usize;
    for p in points.iter().take(5_000) {
        let act_hit = act.lookup_first(extent.leaf_cell_id(p));
        let shape_hit = shape.lookup_first(p); // exact
        if act_hit != shape_hit {
            disagreements += 1;
            // Every disagreement is within the bound of some region boundary.
            let nearest = regions
                .iter()
                .map(|r| r.boundary_distance(p))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest <= bound.epsilon(),
                "ACT vs ShapeIndex disagree at {p:?} which is {nearest:.1} m from any boundary"
            );
        }
    }
    // Disagreements exist but are rare.
    assert!(
        disagreements < 500,
        "too many disagreements: {disagreements}"
    );
}

#[test]
fn memory_footprints_follow_the_papers_ordering() {
    let (_, regions, extent) = workload();
    let bound = DistanceBound::meters(4.0);
    let rasters: Vec<HierarchicalRaster> = regions
        .iter()
        .map(|r| HierarchicalRaster::with_bound(r, &extent, bound, BoundaryPolicy::Conservative))
        .collect();
    let act = AdaptiveCellTrie::build(&rasters);
    let shape = ShapeIndex::build(&regions, &extent);
    let rtree = RTree::bulk_load_str(
        regions
            .iter()
            .enumerate()
            .map(|(i, r)| RTreeEntry::new(r.bbox(), i as u64))
            .collect(),
        16,
    );
    // ACT >> SI >> R-tree, as in the paper's 143 MB / 1.2 MB / 27.9 KB text.
    assert!(act.memory_bytes() > 10 * shape.memory_bytes());
    assert!(shape.memory_bytes() > rtree.memory_bytes());
}

/// FNV-1a over every cell — id, class, distance bins — of the 4 m rasters of
/// a region set laid out as the repo benchmark's smoke scale lays it out
/// (12 regions over 8 km × 8 km of the city grid, rotated, seed 2022).
fn raster_fingerprint(profile: DatasetProfile) -> u64 {
    let area = BoundingBox::from_bounds(0.0, 0.0, 8_000.0, 8_000.0);
    let regions = PolygonSetGenerator::new(area, 12, profile.vertices_per_polygon(), 2022)
        .multipolygon_fraction(profile.multipolygon_fraction())
        .rotation(0.45)
        .generate();
    let extent = GridExtent::covering(&city_extent());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for region in &regions {
        let raster = HierarchicalRaster::with_bound(
            region,
            &extent,
            DistanceBound::meters(4.0),
            BoundaryPolicy::Conservative,
        );
        for cell in raster.cells() {
            let words = [
                cell.id.raw(),
                cell.is_boundary() as u64,
                cell.dist.lo as u64,
                cell.dist.hi as u64,
            ];
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// The raster cells are what the trie, and with it the snapshot byte image,
/// is built from. These values were recorded with the all-edges classifier
/// (before the candidate-list descent); a classifier change that moves one
/// cell, class or distance bin fails here by name rather than as a
/// byte-count drift in the benchmark.
#[test]
fn golden_raster_fingerprints() {
    assert_eq!(
        raster_fingerprint(DatasetProfile::Census),
        0xe6c4_edf9_b418_7699,
        "Census cells moved"
    );
    assert_eq!(
        raster_fingerprint(DatasetProfile::Neighborhoods),
        0xad1a_0a4a_650a_8c98,
        "Neighborhoods cells moved"
    );
}
