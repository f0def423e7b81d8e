//! The [`Ipv4Net`] CIDR prefix type.

use std::cmp::Ordering;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::error::PrefixError;
use crate::{addr_to_u32, u32_to_addr};

/// An IPv4 network prefix in CIDR notation, e.g. `12.65.128.0/19`.
///
/// The stored address is always **canonical**: host bits below the prefix
/// length are zeroed at construction, so two `Ipv4Net`s compare equal exactly
/// when they denote the same network. This is the unit the paper's clustering
/// operates on — a cluster is *identified by* the longest matched
/// prefix/netmask of its members (§3.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Net {
    /// Network address as a host-order integer, canonicalized.
    addr: u32,
    /// Prefix length in bits, `0..=32`.
    len: u8,
}

#[allow(
    clippy::len_without_is_empty,
    reason = "`len` is the prefix length in bits, not a container size; an `is_empty` would be meaningless."
)]
impl Ipv4Net {
    /// The default route `0.0.0.0/0`, which contains every address.
    pub const DEFAULT: Ipv4Net = Ipv4Net { addr: 0, len: 0 };

    /// Creates a prefix from a raw `u32` network address and length,
    /// zeroing any host bits.
    ///
    /// Returns [`PrefixError::InvalidLength`] when `len > 32`.
    pub fn new(addr: u32, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::InvalidLength(u32::from(len)));
        }
        Ok(Ipv4Net {
            addr: addr & mask_of(len),
            len,
        })
    }

    /// Creates a prefix from an [`Ipv4Addr`] and length, zeroing host bits.
    pub fn from_addr(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        Self::new(addr_to_u32(addr), len)
    }

    /// The `/32` host route for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Net {
            addr: addr_to_u32(addr),
            len: 32,
        }
    }

    /// Network address as a host-order integer.
    #[inline]
    pub fn addr_u32(&self) -> u32 {
        self.addr
    }

    /// Network address as an [`Ipv4Addr`].
    #[inline]
    pub fn addr(&self) -> Ipv4Addr {
        u32_to_addr(self.addr)
    }

    /// Prefix length in bits.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The netmask as a host-order integer (`/19` → `0xFFFF_E000`).
    #[inline]
    pub fn netmask_u32(&self) -> u32 {
        mask_of(self.len)
    }

    /// The netmask in dotted-quad form (`/19` → `255.255.224.0`).
    #[inline]
    pub fn netmask(&self) -> Ipv4Addr {
        u32_to_addr(self.netmask_u32())
    }

    /// Number of addresses covered by this prefix (`2^(32-len)`).
    ///
    /// Returned as `u64` so that `/0` does not overflow.
    #[inline]
    pub fn num_addresses(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }

    /// First address of the block (the network address itself).
    #[inline]
    pub fn first(&self) -> Ipv4Addr {
        u32_to_addr(self.addr)
    }

    /// Last address of the block (the broadcast address for subnets).
    #[inline]
    pub fn last(&self) -> Ipv4Addr {
        u32_to_addr(self.addr | !self.netmask_u32())
    }

    /// Tests whether `addr` falls inside this prefix.
    #[inline]
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        self.contains_u32(addr_to_u32(addr))
    }

    /// [`contains`](Self::contains) on a raw `u32` address.
    #[inline]
    pub fn contains_u32(&self, addr: u32) -> bool {
        (addr & self.netmask_u32()) == self.addr
    }

    /// Tests whether `other` is fully contained in (or equal to) `self`.
    #[inline]
    pub fn covers(&self, other: &Ipv4Net) -> bool {
        self.len <= other.len && (other.addr & self.netmask_u32()) == self.addr
    }

    /// The immediate supernet (one bit shorter), or `None` at `/0`.
    pub fn supernet(&self) -> Option<Ipv4Net> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv4Net {
                addr: self.addr & mask_of(len),
                len,
            })
        }
    }

    /// The two immediate subnets (one bit longer), or `None` at `/32`.
    pub fn subnets(&self) -> Option<(Ipv4Net, Ipv4Net)> {
        if self.len == 32 {
            None
        } else {
            let len = self.len + 1;
            let low = Ipv4Net {
                addr: self.addr,
                len,
            };
            let high = Ipv4Net {
                addr: self.addr | (1u32 << (32 - u32::from(len))),
                len,
            };
            Some((low, high))
        }
    }

    /// Splits this prefix into all its subnets of length `len`.
    ///
    /// Returns an empty vector when `len` is shorter than `self.len()` or
    /// greater than 32. The result is ordered by address.
    pub fn subnets_of_len(&self, len: u8) -> Vec<Ipv4Net> {
        if len < self.len || len > 32 {
            return Vec::new();
        }
        let count = 1u64 << u32::from(len - self.len);
        let step = 1u64 << (32 - u32::from(len));
        (0..count)
            .map(|i| Ipv4Net {
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "i * step < 2^(32 - self.len) stays inside the block."
                )]
                addr: self.addr + (i * step) as u32,
                len,
            })
            .collect()
    }

    /// The sibling prefix sharing this prefix's immediate supernet, or
    /// `None` at `/0`. Two siblings can be aggregated into their supernet.
    pub fn sibling(&self) -> Option<Ipv4Net> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Net {
                addr: self.addr ^ (1u32 << (32 - u32::from(self.len))),
                len: self.len,
            })
        }
    }

    /// The `n`-th host address inside the block, or `None` past the end.
    ///
    /// `nth_host(0)` is the network address itself; callers that want
    /// "usable" host addresses typically start at 1.
    #[allow(clippy::cast_possible_truncation, reason = "n < num_addresses() <= 2^32.")]
    pub fn nth_host(&self, n: u64) -> Option<Ipv4Addr> {
        if n >= self.num_addresses() {
            None
        } else {
            Some(u32_to_addr(self.addr + n as u32))
        }
    }

    /// The smallest prefix covering both `self` and `other` (their lowest
    /// common ancestor in the prefix tree). Used when self-correction
    /// merges clusters and must "recompute the network prefix and netmask
    /// accordingly" (§3.5).
    pub fn common_supernet(self, other: Ipv4Net) -> Ipv4Net {
        let mut net = if self.len() <= other.len() {
            self
        } else {
            other
        };
        while !(net.covers(&self) && net.covers(&other)) {
            net = net.supernet().expect("the default route covers everything");
        }
        net
    }
}

/// Netmask for a prefix length: `mask_of(19) == 0xFFFF_E000`.
#[inline]
pub(crate) fn mask_of(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl fmt::Debug for Ipv4Net {
    /// Defers to `Display`; prefixes read better as `12.0.0.0/8` than as a
    /// struct dump in test failures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv4Net {
    type Err = PrefixError;

    /// Parses strict CIDR notation `a.b.c.d/len`.
    ///
    /// Use [`crate::parse_table_entry`] for the looser routing-table file
    /// formats (dotted netmask, classful abbreviation).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::MalformedEntry(s.to_string()))?;
        let addr: Ipv4Addr = addr_part
            .parse()
            .map_err(|_| PrefixError::InvalidAddress(addr_part.to_string()))?;
        let len: u32 = len_part
            .parse()
            .map_err(|_| PrefixError::MalformedEntry(s.to_string()))?;
        // `from_addr` refuses what fits a `u8` but exceeds 32.
        let len = u8::try_from(len).map_err(|_| PrefixError::InvalidLength(len))?;
        Ipv4Net::from_addr(addr, len)
    }
}

impl Ord for Ipv4Net {
    /// Orders by network address, then by prefix length (shorter first), so
    /// a supernet sorts immediately before its subnets.
    fn cmp(&self, other: &Self) -> Ordering {
        self.addr.cmp(&other.addr).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Ipv4Net {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        let n = net("12.65.147.94/19");
        assert_eq!(n.to_string(), "12.65.128.0/19");
        assert_eq!(n, net("12.65.128.0/19"));
    }

    #[test]
    fn rejects_bad_lengths() {
        assert_eq!(
            "1.2.3.4/33".parse::<Ipv4Net>(),
            Err(PrefixError::InvalidLength(33))
        );
        assert!(Ipv4Net::new(0, 33).is_err());
    }

    #[test]
    fn rejects_malformed_strings() {
        assert!("1.2.3.4".parse::<Ipv4Net>().is_err());
        assert!("1.2.3/8".parse::<Ipv4Net>().is_err());
        assert!("1.2.3.4/x".parse::<Ipv4Net>().is_err());
        assert!("300.2.3.4/8".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn netmask_matches_length() {
        assert_eq!(net("10.0.0.0/8").netmask().to_string(), "255.0.0.0");
        assert_eq!(net("12.65.128.0/19").netmask().to_string(), "255.255.224.0");
        assert_eq!(net("1.2.3.4/32").netmask().to_string(), "255.255.255.255");
        assert_eq!(Ipv4Net::DEFAULT.netmask().to_string(), "0.0.0.0");
    }

    #[test]
    fn contains_and_covers() {
        let n = net("24.48.2.0/23");
        assert!(n.contains("24.48.2.166".parse().unwrap()));
        assert!(n.contains("24.48.3.87".parse().unwrap()));
        assert!(!n.contains("24.48.4.1".parse().unwrap()));
        assert!(n.covers(&net("24.48.2.0/24")));
        assert!(n.covers(&net("24.48.3.0/24")));
        assert!(!n.covers(&net("24.48.2.0/22")));
        assert!(Ipv4Net::DEFAULT.covers(&n));
    }

    #[test]
    fn paper_example_28s_are_distinct() {
        // §2: 151.198.194.{17,34,50} live in three different /28s.
        let a = Ipv4Net::from_addr("151.198.194.17".parse().unwrap(), 28).unwrap();
        let b = Ipv4Net::from_addr("151.198.194.34".parse().unwrap(), 28).unwrap();
        let c = Ipv4Net::from_addr("151.198.194.50".parse().unwrap(), 28).unwrap();
        assert_eq!(a.to_string(), "151.198.194.16/28");
        assert_eq!(b.to_string(), "151.198.194.32/28");
        assert_eq!(c.to_string(), "151.198.194.48/28");
        assert_ne!(a, b);
        assert_ne!(b, c);
        // ... but the simple /24 approach lumps them together.
        let s24 = |s: &str| Ipv4Net::from_addr(s.parse().unwrap(), 24).unwrap();
        assert_eq!(s24("151.198.194.17"), s24("151.198.194.34"));
        assert_eq!(s24("151.198.194.17"), s24("151.198.194.50"));
    }

    #[test]
    fn supernet_subnet_roundtrip() {
        let n = net("12.65.128.0/19");
        let (lo, hi) = n.subnets().unwrap();
        assert_eq!(lo.to_string(), "12.65.128.0/20");
        assert_eq!(hi.to_string(), "12.65.144.0/20");
        assert_eq!(lo.supernet().unwrap(), n);
        assert_eq!(hi.supernet().unwrap(), n);
        assert!(net("0.0.0.0/0").supernet().is_none());
        assert!(net("1.2.3.4/32").subnets().is_none());
    }

    #[test]
    fn sibling_pairs() {
        let lo = net("24.48.2.0/24");
        let hi = net("24.48.3.0/24");
        assert_eq!(lo.sibling().unwrap(), hi);
        assert_eq!(hi.sibling().unwrap(), lo);
        assert_eq!(lo.supernet(), hi.supernet());
        assert!(Ipv4Net::DEFAULT.sibling().is_none());
    }

    #[test]
    fn subnets_of_len_enumerates_in_order() {
        let n = net("192.168.0.0/22");
        let subs = n.subnets_of_len(24);
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].to_string(), "192.168.0.0/24");
        assert_eq!(subs[3].to_string(), "192.168.3.0/24");
        assert_eq!(n.subnets_of_len(22), vec![n]);
        assert!(n.subnets_of_len(21).is_empty());
        assert!(n.subnets_of_len(33).is_empty());
    }

    #[test]
    fn address_counts_and_bounds() {
        let n = net("10.1.2.0/23");
        assert_eq!(n.num_addresses(), 512);
        assert_eq!(n.first().to_string(), "10.1.2.0");
        assert_eq!(n.last().to_string(), "10.1.3.255");
        assert_eq!(Ipv4Net::DEFAULT.num_addresses(), 1u64 << 32);
        assert_eq!(n.nth_host(0).unwrap().to_string(), "10.1.2.0");
        assert_eq!(n.nth_host(511).unwrap().to_string(), "10.1.3.255");
        assert!(n.nth_host(512).is_none());
    }

    #[test]
    fn ordering_puts_supernets_first() {
        let mut v = [net("10.0.0.0/16"), net("10.0.0.0/8"), net("9.0.0.0/8")];
        v.sort();
        assert_eq!(
            v.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
            ["9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"]
        );
    }

    #[test]
    fn common_supernet_examples() {
        let a = net("24.48.2.0/24");
        let b = net("24.48.3.0/24");
        assert_eq!(a.common_supernet(b), net("24.48.2.0/23"));
        assert_eq!(b.common_supernet(a), net("24.48.2.0/23"));
        // Containment: the covering prefix wins.
        assert_eq!(
            net("10.0.0.0/8").common_supernet(net("10.1.0.0/16")),
            net("10.0.0.0/8")
        );
        // Identical prefixes are their own supernet.
        assert_eq!(a.common_supernet(a), a);
        // Totally disjoint halves meet at the default route.
        assert_eq!(
            net("1.0.0.0/8").common_supernet(net("200.0.0.0/8")),
            Ipv4Net::DEFAULT
        );
    }

    #[test]
    fn host_route() {
        let h = Ipv4Net::host("1.2.3.4".parse().unwrap());
        assert_eq!(h.len(), 32);
        assert_eq!(h.num_addresses(), 1);
        assert!(h.contains("1.2.3.4".parse().unwrap()));
    }
}
