//! Shared test fixtures: the `"a.b.c.d/len".parse().unwrap()` boilerplate
//! that every module's tests repeated, in one place.

use std::net::Ipv4Addr;

use netclust_prefix::Ipv4Net;

/// Parses one prefix spec.
pub(crate) fn net(spec: &str) -> Ipv4Net {
    spec.parse().expect("test prefix spec")
}

/// Parses one dotted-quad address.
pub(crate) fn addr(spec: &str) -> Ipv4Addr {
    spec.parse().expect("test address spec")
}

/// Parses a list of prefix specs.
pub(crate) fn nets(specs: &[&str]) -> Vec<Ipv4Net> {
    specs.iter().map(|s| net(s)).collect()
}
