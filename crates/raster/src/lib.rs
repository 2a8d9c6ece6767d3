//! # dbsa-raster — distance-bounded raster approximations
//!
//! This crate implements the paper's core contribution: raster
//! approximations of geometries whose error is bounded by a user-supplied
//! **distance bound** ε on the Hausdorff distance between the geometry and
//! its approximation (Section 2.2 of the paper).
//!
//! Two families of approximations are provided:
//!
//! * [`UniformRaster`] — all cells have the same size (Figure 1(b)); the
//!   cell side is `ε / √2` so that the cell diagonal is ε.
//! * [`HierarchicalRaster`] — interior cells may be arbitrarily coarse,
//!   only *boundary* cells are refined down to the ε-derived level
//!   (Figure 1(c)). This is the representation indexed by the Adaptive
//!   Cell Trie and used by the approximate joins.
//!
//! Both support a **conservative** policy (every cell touching the boundary
//! is kept, so only false positives are possible) and a
//! **non-conservative** policy (boundary cells with small overlap are
//! dropped, admitting false negatives as well) — exactly the two error
//! regimes the paper describes.
//!
//! The [`verify`] module empirically checks the Hausdorff guarantee and is
//! exercised heavily by the property-based test suite.

pub mod bound;
pub mod cell;
mod classify;
pub mod hierarchical;
pub mod uniform;
pub mod verify;

#[cfg(test)]
mod naive;

pub use bound::DistanceBound;
pub use cell::{
    refine_contains, refine_distance, BoundaryPolicy, CellClass, DistanceBins, RasterCell,
    Rasterizable, SignedDistance,
};
pub use hierarchical::HierarchicalRaster;
pub use uniform::UniformRaster;
pub use verify::{verify_distance_bound, BoundViolation};
