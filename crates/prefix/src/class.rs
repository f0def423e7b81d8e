//! Historical classful (Class A/B/C/D/E) address taxonomy.
//!
//! The paper's §2 discusses an alternate baseline that clusters clients by
//! classful network boundaries: 128 Class A networks (`/8`), 16,384 Class B
//! networks (`/16`), and 2,097,152 Class C networks (`/24`). This module
//! implements that taxonomy so the baseline can be reproduced exactly.

use std::net::Ipv4Addr;

use crate::addr_to_u32;
use crate::net::Ipv4Net;

/// The historical class of an IPv4 address, determined by its leading bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressClass {
    /// Leading bit `0` — networks `0.0.0.0`–`127.255.255.255`, `/8` networks.
    A,
    /// Leading bits `10` — `128.0.0.0`–`191.255.255.255`, `/16` networks.
    B,
    /// Leading bits `110` — `192.0.0.0`–`223.255.255.255`, `/24` networks.
    C,
    /// Leading bits `1110` — multicast, `224.0.0.0`–`239.255.255.255`.
    D,
    /// Leading bits `1111` — reserved, `240.0.0.0`–`255.255.255.255`.
    E,
}

impl AddressClass {
    /// Classifies an address by its leading bits.
    pub fn of(addr: Ipv4Addr) -> AddressClass {
        let v = addr_to_u32(addr);
        if v >> 31 == 0 {
            AddressClass::A
        } else if v >> 30 == 0b10 {
            AddressClass::B
        } else if v >> 29 == 0b110 {
            AddressClass::C
        } else if v >> 28 == 0b1110 {
            AddressClass::D
        } else {
            AddressClass::E
        }
    }

    /// The default network prefix length for unicast classes
    /// (A → 8, B → 16, C → 24); `None` for multicast/reserved space.
    pub fn default_prefix_len(&self) -> Option<u8> {
        match self {
            AddressClass::A => Some(8),
            AddressClass::B => Some(16),
            AddressClass::C => Some(24),
            AddressClass::D | AddressClass::E => None,
        }
    }
}

/// The classful network containing `addr`, or `None` for Class D/E space.
///
/// This is the clustering function of the paper's classful baseline: the
/// cluster of `151.198.194.17` (Class B) is `151.198.0.0/16`.
pub fn classful_network(addr: Ipv4Addr) -> Option<Ipv4Net> {
    let len = AddressClass::of(addr).default_prefix_len()?;
    // len <= 24, always valid.
    Some(Ipv4Net::from_addr(addr, len).expect("classful lengths are valid"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn class_boundaries() {
        assert_eq!(AddressClass::of(a("0.0.0.0")), AddressClass::A);
        assert_eq!(AddressClass::of(a("127.255.255.255")), AddressClass::A);
        assert_eq!(AddressClass::of(a("128.0.0.0")), AddressClass::B);
        assert_eq!(AddressClass::of(a("191.255.255.255")), AddressClass::B);
        assert_eq!(AddressClass::of(a("192.0.0.0")), AddressClass::C);
        assert_eq!(AddressClass::of(a("223.255.255.255")), AddressClass::C);
        assert_eq!(AddressClass::of(a("224.0.0.0")), AddressClass::D);
        assert_eq!(AddressClass::of(a("239.255.255.255")), AddressClass::D);
        assert_eq!(AddressClass::of(a("240.0.0.0")), AddressClass::E);
        assert_eq!(AddressClass::of(a("255.255.255.255")), AddressClass::E);
    }

    #[test]
    fn classful_network_examples() {
        assert_eq!(
            classful_network(a("18.26.0.1")).unwrap().to_string(),
            "18.0.0.0/8"
        );
        assert_eq!(
            classful_network(a("151.198.194.17")).unwrap().to_string(),
            "151.198.0.0/16"
        );
        assert_eq!(
            classful_network(a("199.1.2.3")).unwrap().to_string(),
            "199.1.2.0/24"
        );
        assert!(classful_network(a("230.0.0.1")).is_none());
        assert!(classful_network(a("250.0.0.1")).is_none());
    }

    #[test]
    fn default_lengths_match_class() {
        assert_eq!(AddressClass::D.default_prefix_len(), None);
        assert_eq!(AddressClass::E.default_prefix_len(), None);
        assert_eq!(AddressClass::B.default_prefix_len(), Some(16));
    }
}
