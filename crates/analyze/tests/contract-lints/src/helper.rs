//! Seeded violation in a cold callee: this file is not a hot one, but
//! `risky` is called from `hot.rs`, so it carries the lint set as an
//! outer attribute — the shape `hot-path-transitive` became.

#[deny(clippy::unwrap_used, clippy::indexing_slicing)]
pub fn risky(v: &[u32]) -> u32 {
    *v.first().unwrap() // finding: unwrap_used one call from the hot path
}
