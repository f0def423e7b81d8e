//! IPv4 prefix/netmask toolkit for network-aware client clustering.
//!
//! This crate provides the address-level substrate of the SIGCOMM 2000 paper
//! *On Network-Aware Clustering of Web Clients* (Krishnamurthy & Wang):
//!
//! * [`Ipv4Net`] — a CIDR prefix (`12.65.128.0/19`) with canonical
//!   representation and address containment,
//! * parsing of the **three textual formats** the paper's routing-table
//!   sources use (§3.1.2): dotted netmask, `/len` suffix, and the
//!   classful abbreviation, plus format unification,
//! * the historical **classful** (Class A/B/C) address taxonomy used by the
//!   paper's alternate baseline (§2),
//! * [`derive_seed`] / [`unit_f64`] — the one stateless seed mixer, shared
//!   by the fault injector and the synthetic Internet.
//!
//! Everything is plain data with no I/O; the routing-table machinery that
//! consumes these types lives in `netclust-rtable`.
//!
//! # Example
//!
//! ```
//! use netclust_prefix::{Ipv4Net, parse_table_entry};
//!
//! // The on-disk formats unify to the same prefix.
//! let a = parse_table_entry("12.65.128.0/255.255.224.0").unwrap();
//! let b = parse_table_entry("12.65.128.0/19").unwrap();
//! assert_eq!(a, b);
//! assert_eq!(a.to_string(), "12.65.128.0/19");
//!
//! let net: Ipv4Net = "12.65.128.0/19".parse().unwrap();
//! assert!(net.contains("12.65.147.94".parse().unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod error;
mod net;
mod parse;
mod seed;

pub use class::{classful_network, AddressClass};
pub use error::PrefixError;
pub use net::Ipv4Net;
pub use parse::parse_table_entry;
pub use seed::{derive_seed, unit_f64};

use std::net::Ipv4Addr;

/// Converts an [`Ipv4Addr`] to its `u32` big-endian integer value.
///
/// The entire crate family manipulates addresses as `u32` host-order
/// integers (the numeric value of the dotted quad), which makes prefix
/// arithmetic (`addr >> (32 - len)`) direct.
#[inline]
pub fn addr_to_u32(addr: Ipv4Addr) -> u32 {
    u32::from(addr)
}

/// Converts a `u32` integer value back to an [`Ipv4Addr`].
#[inline]
pub fn u32_to_addr(value: u32) -> Ipv4Addr {
    Ipv4Addr::from(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_u32_roundtrip() {
        let addr: Ipv4Addr = "151.198.194.17".parse().unwrap();
        assert_eq!(u32_to_addr(addr_to_u32(addr)), addr);
        assert_eq!(addr_to_u32("0.0.0.1".parse().unwrap()), 1);
        assert_eq!(addr_to_u32("1.0.0.0".parse().unwrap()), 1 << 24);
    }
}
