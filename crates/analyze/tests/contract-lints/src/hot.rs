//! Seeded panic-family violations: this file carries the hot-path lint
//! set as an inner attribute, the way the nine hot files do.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub fn panicky(v: &[u32], m: Option<u32>) -> u32 {
    let a = m.unwrap(); // finding: unwrap_used
    let b = m.expect("present"); // finding: expect_used
    if v.is_empty() {
        panic!("empty"); // finding: panic
    }
    a + b + v[0] + v[1..].len() as u32 // findings: indexing_slicing, twice
}

pub fn delegates(v: &[u32]) -> u32 {
    // No finding here: `helper::risky` carries the lint set itself.
    crate::helper::risky(v)
}

pub fn tolerated(v: &[u32]) -> u32 {
    #[allow(clippy::indexing_slicing, reason = "v.len() checked by the caller.")]
    let head = v[0];
    head + v.get(1).copied().unwrap_or(0)
}
