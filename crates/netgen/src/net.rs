//! Prefix arithmetic the synthetic Internet and the self-correction
//! studies need beyond what clustering does: block sizes, containment
//! between prefixes, one-bit splits and joins, and common ancestors.

use std::net::Ipv4Addr;

use netclust_prefix::Ipv4Net;

/// Number of addresses `net` covers (`2^(32-len)`), as `u64` so that `/0`
/// does not overflow.
pub(crate) fn num_addresses(net: Ipv4Net) -> u64 {
    1u64 << (32 - u32::from(net.len()))
}

/// Whether `inner` is fully contained in (or equal to) `outer`.
pub(crate) fn covers(outer: Ipv4Net, inner: Ipv4Net) -> bool {
    outer.len() <= inner.len() && outer.contains_u32(inner.addr_u32())
}

/// The immediate supernet (one bit shorter), or `None` at `/0`.
fn supernet(net: Ipv4Net) -> Option<Ipv4Net> {
    let len = net.len().checked_sub(1)?;
    Ipv4Net::new(net.addr_u32(), len).ok()
}

/// The two immediate subnets (one bit longer), or `None` at `/32`.
pub(crate) fn subnets(net: Ipv4Net) -> Option<(Ipv4Net, Ipv4Net)> {
    let len = net.len().checked_add(1).filter(|&len| len <= 32)?;
    let high = net.addr_u32() | (1u32 << (32 - u32::from(len)));
    Some((
        Ipv4Net::new(net.addr_u32(), len).ok()?,
        Ipv4Net::new(high, len).ok()?,
    ))
}

/// The `n`-th host address inside `net`, or `None` past the end.
///
/// `nth_host(net, 0)` is the network address itself; callers that want
/// "usable" host addresses typically start at 1.
#[allow(clippy::cast_possible_truncation, reason = "n < num_addresses() <= 2^32.")]
pub(crate) fn nth_host(net: Ipv4Net, n: u64) -> Option<Ipv4Addr> {
    (n < num_addresses(net)).then(|| Ipv4Addr::from(net.addr_u32() + n as u32))
}

/// The `/32` host route for a single address: what self-correction
/// clusters an address by when no table prefix holds it (§3.5).
pub fn host_route(addr: Ipv4Addr) -> Ipv4Net {
    Ipv4Net::new(u32::from(addr), 32).expect("a /32 is a valid prefix")
}

/// The smallest prefix covering both `a` and `b` (their lowest common
/// ancestor in the prefix tree). Used when self-correction merges clusters
/// and must "recompute the network prefix and netmask accordingly" (§3.5).
pub fn common_supernet(a: Ipv4Net, b: Ipv4Net) -> Ipv4Net {
    let mut net = if a.len() <= b.len() { a } else { b };
    while !(covers(net, a) && covers(net, b)) {
        net = supernet(net).expect("the default route covers everything");
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_testkit::net;
    use proptest::prelude::*;

    fn arb_net() -> impl Strategy<Value = Ipv4Net> {
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Net::new(addr, len).unwrap())
    }

    #[test]
    fn covers_examples() {
        let n = net("24.48.2.0/23");
        assert!(covers(n, net("24.48.2.0/24")));
        assert!(covers(n, net("24.48.3.0/24")));
        assert!(!covers(n, net("24.48.2.0/22")));
        assert!(covers(Ipv4Net::DEFAULT, n));
    }

    #[test]
    fn supernet_subnet_roundtrip() {
        let n = net("12.65.128.0/19");
        let (lo, hi) = subnets(n).unwrap();
        assert_eq!(lo.to_string(), "12.65.128.0/20");
        assert_eq!(hi.to_string(), "12.65.144.0/20");
        assert_eq!(supernet(lo).unwrap(), n);
        assert_eq!(supernet(hi).unwrap(), n);
        assert!(supernet(net("0.0.0.0/0")).is_none());
        assert!(subnets(net("1.2.3.4/32")).is_none());
    }

    #[test]
    fn address_counts_and_hosts() {
        let n = net("10.1.2.0/23");
        assert_eq!(num_addresses(n), 512);
        assert_eq!(num_addresses(Ipv4Net::DEFAULT), 1u64 << 32);
        assert_eq!(nth_host(n, 0).unwrap().to_string(), "10.1.2.0");
        assert_eq!(nth_host(n, 511).unwrap().to_string(), "10.1.3.255");
        assert!(nth_host(n, 512).is_none());
        assert_eq!(num_addresses(host_route("1.2.3.4".parse().unwrap())), 1);
    }

    #[test]
    fn a_host_route_is_its_address_as_a_slash_32() {
        let h = host_route("1.2.3.4".parse().unwrap());
        assert_eq!(h.len(), 32);
        assert!(h.contains("1.2.3.4".parse().unwrap()));
        assert!(!h.contains("1.2.3.5".parse().unwrap()));
    }

    #[test]
    fn common_supernet_examples() {
        let a = net("24.48.2.0/24");
        let b = net("24.48.3.0/24");
        assert_eq!(common_supernet(a, b), net("24.48.2.0/23"));
        assert_eq!(common_supernet(b, a), net("24.48.2.0/23"));
        // Containment: the covering prefix wins.
        assert_eq!(
            common_supernet(net("10.0.0.0/8"), net("10.1.0.0/16")),
            net("10.0.0.0/8")
        );
        // Identical prefixes are their own supernet.
        assert_eq!(common_supernet(a, a), a);
        // Totally disjoint halves meet at the default route.
        assert_eq!(
            common_supernet(net("1.0.0.0/8"), net("200.0.0.0/8")),
            Ipv4Net::DEFAULT
        );
    }

    proptest! {
        /// covers() is consistent with supernet chains.
        #[test]
        fn supernet_covers(net in arb_net()) {
            if let Some(sup) = supernet(net) {
                prop_assert!(covers(sup, net));
                prop_assert!(!covers(net, sup) || net == sup);
                prop_assert_eq!(num_addresses(sup), num_addresses(net) * 2);
            }
        }

        /// Splitting into one-bit-longer subnets partitions the address space.
        #[test]
        fn subnets_partition(net in arb_net()) {
            if let Some((lo, hi)) = subnets(net) {
                prop_assert!(covers(net, lo) && covers(net, hi));
                prop_assert_eq!(supernet(lo), supernet(hi));
                prop_assert_eq!(u32::from(lo.last()).wrapping_add(1), u32::from(hi.first()));
                prop_assert_eq!(lo.first(), net.first());
                prop_assert_eq!(hi.last(), net.last());
            }
        }
    }
}
