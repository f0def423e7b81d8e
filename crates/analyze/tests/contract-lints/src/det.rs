//! Seeded determinism violations: this file denies the hash-iteration
//! lints by attribute, the way the deterministic-output files do.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::collections::HashMap;

pub fn stamped() -> bool {
    let now = std::time::SystemTime::now(); // finding: disallowed_types
    now.elapsed().is_ok()
}

pub fn unordered(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, v) in m {
        // ^ finding: iter_over_hash_type — hash order reaches the output
        out.push(*k ^ *v);
    }
    out.extend(m.keys()); // finding: disallowed_methods
    out
}

pub fn ordered(m: &HashMap<u32, u32>) -> Vec<u32> {
    #[allow(clippy::disallowed_methods, reason = "keys are collected and sorted before use.")]
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}
