//! Vectorized distance kernels for the kNN hot path.
//!
//! Chunked four-lane accumulation behind
//! [`crate::distance::Distance::eval`], `squared_norm`, and
//! `cosine_with_sq_norms`: one set of primitives, three callers, sharing
//! the lane-order contract of [`pv_stats::kernel`] so that every route to
//! a given distance value is bit-identical (see DESIGN.md "Kernel
//! contracts").

use pv_stats::kernel::{dot4, sq_norm4};

/// Shared cosine finalization: both cosine paths (naive and cached-norm)
/// funnel through this one expression, which is what makes them
/// mutually bit-identical.
#[inline]
pub(crate) fn cosine_finish(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        // A zero vector has no direction: maximally distant.
        return 1.0;
    }
    (1.0 - (dot / (na.sqrt() * nb.sqrt()))).clamp(0.0, 2.0)
}

/// Cosine distance from scratch: chunked dot and both chunked norms.
#[inline]
pub(crate) fn cosine(a: &[f64], b: &[f64]) -> f64 {
    cosine_finish(dot4(a, b), sq_norm4(a), sq_norm4(b))
}

/// Cosine distance with both squared norms precomputed (by [`sq_norm4`],
/// or this is no longer the same chain).
#[inline]
pub(crate) fn cosine_cached(a: &[f64], b: &[f64], na: f64, nb: f64) -> f64 {
    cosine_finish(dot4(a, b), na, nb)
}
