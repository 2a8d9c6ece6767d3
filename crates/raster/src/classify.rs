//! The one cell classifier behind every raster constructor.
//!
//! A quadtree cell is classified, sampled and annotated against the
//! region's prepared [`EdgeTable`] from two candidate lists it inherits from
//! its parent ([`Candidates`]): the edges that can still cross its box and
//! the edges that can still be nearest to one of its points. The lists only
//! ever filter with a margin; every decision is made by the whole-polygon
//! predicates over what is left, so the cells are those of the all-edges
//! scans bit for bit (see [`dbsa_geom::edge_table`] for the argument, and
//! the `naive` test module for the executable spec).

use crate::cell::{BoundaryPolicy, DistanceBins, Rasterizable};
use dbsa_geom::polygon::BoxRelation;
use dbsa_geom::{BoundingBox, EdgeList, EdgeLists, EdgeTable, Point};
use dbsa_grid::GridExtent;

/// The candidate lists a cell hands to its children.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidates {
    /// Edges that can intersect the cell's box.
    pub(crate) crossing: EdgeList,
    /// Edges that can be the nearest one to a point of the cell.
    pub(crate) nearest: EdgeList,
}

/// Classifies the cells of one extent against one geometry.
pub(crate) struct CellClassifier<'a> {
    extent: &'a GridExtent,
    table: EdgeTable,
    /// Store of every candidate list; callers that descend depth-first
    /// release a node's lists with [`mark`](Self::mark) /
    /// [`release`](Self::release).
    lists: EdgeLists,
}

impl<'a> CellClassifier<'a> {
    /// Prepares `geometry`; also returns the root's candidates — every
    /// edge. `None` when the geometry has a non-finite vertex: such a
    /// region rasterizes to no cells.
    pub(crate) fn new<G: Rasterizable>(
        geometry: &G,
        extent: &'a GridExtent,
    ) -> Option<(Self, Candidates)> {
        let table = EdgeTable::new(geometry.parts())?;
        let mut lists = EdgeLists::default();
        let all = table.all_edges(&mut lists);
        let root = Candidates {
            crossing: all,
            nearest: all,
        };
        Some((
            CellClassifier {
                extent,
                table,
                lists,
            },
            root,
        ))
    }

    /// The extent whose cells are classified.
    pub(crate) fn extent(&self) -> &'a GridExtent {
        self.extent
    }

    /// Current end of the list store.
    pub(crate) fn mark(&self) -> usize {
        self.lists.mark()
    }

    /// Drops the lists made since `mark`.
    pub(crate) fn release(&mut self, mark: usize) {
        self.lists.truncate(mark);
    }

    /// The crossing candidates of a cell, from its parent's.
    pub(crate) fn crossing(&mut self, parent: EdgeList, bbox: &BoundingBox) -> EdgeList {
        self.table
            .crossing_candidates(&mut self.lists, parent, bbox)
    }

    /// The nearest candidates of a cell of `level`, from its parent's.
    pub(crate) fn nearest(&mut self, parent: EdgeList, bbox: &BoundingBox, level: u8) -> EdgeList {
        self.table.nearest_candidates(
            &mut self.lists,
            parent,
            &bbox.center(),
            self.extent.cell_diagonal(level) * 0.5,
        )
    }

    /// Relation of a cell's box to the geometry.
    pub(crate) fn classify(&self, crossing: EdgeList, bbox: &BoundingBox) -> BoxRelation {
        self.table.classify_box(self.lists.get(crossing), bbox)
    }

    /// Exact containment of a point of a cell with the given candidates.
    pub(crate) fn contains(&self, crossing: EdgeList, p: &Point) -> bool {
        self.table.contains_point(self.lists.get(crossing), p)
    }

    /// Whether `policy` keeps a boundary cell.
    pub(crate) fn keeps(
        &self,
        policy: BoundaryPolicy,
        crossing: EdgeList,
        bbox: &BoundingBox,
    ) -> bool {
        policy.keep_boundary_cell(|p| self.contains(crossing, p), bbox)
    }

    /// A cell's conservative distance annotation from one exact distance
    /// evaluation — the cell center against `nearest`, the nearest
    /// candidates of the cell or of any cell above it: `dist(·, ∂G)` is
    /// 1-Lipschitz, so every cell point lies within the center distance ±
    /// the half-diagonal. Bins are the cell side at the cell's own level.
    pub(crate) fn annotate(
        &self,
        nearest: EdgeList,
        bbox: &BoundingBox,
        level: u8,
    ) -> DistanceBins {
        let d_center = self
            .table
            .boundary_distance(self.lists.get(nearest), &bbox.center());
        DistanceBins::quantize(
            d_center,
            self.extent.cell_diagonal(level) * 0.5,
            self.extent.cell_size(level),
        )
    }
}
