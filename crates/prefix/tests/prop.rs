//! Property-based tests for prefix parsing and arithmetic.

use netclust_prefix::{parse_table_entry, u32_to_addr, Ipv4Net};
use proptest::prelude::*;

fn arb_net() -> impl Strategy<Value = Ipv4Net> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Net::new(addr, len).unwrap())
}

proptest! {
    /// Display → FromStr is the identity on canonical prefixes.
    #[test]
    fn display_parse_roundtrip(net in arb_net()) {
        let parsed: Ipv4Net = net.to_string().parse().unwrap();
        prop_assert_eq!(parsed, net);
    }

    /// The dotted-netmask form parses back to the same prefix.
    #[test]
    fn dotted_mask_roundtrip(net in arb_net()) {
        let entry = format!("{}/{}", net.addr(), u32_to_addr(net.netmask_u32()));
        prop_assert_eq!(parse_table_entry(&entry).unwrap(), net);
    }

    /// Construction canonicalizes: the network address has no host bits.
    #[test]
    fn canonical_network_address(addr in any::<u32>(), len in 0u8..=32) {
        let net = Ipv4Net::new(addr, len).unwrap();
        prop_assert_eq!(net.addr_u32() & !net.netmask_u32(), 0);
        // And contains the address it was built from.
        prop_assert!(net.contains_u32(addr));
    }

    /// first()..=last() exactly delimits containment.
    #[test]
    fn bounds_match_containment(net in arb_net(), probe in any::<u32>()) {
        let lo = u32::from(net.first());
        let hi = u32::from(net.last());
        prop_assert_eq!(net.contains(u32_to_addr(probe)), (lo..=hi).contains(&probe));
    }

    /// Ordering is total and agrees with (addr, len) lexicographic order.
    #[test]
    fn ordering_is_lexicographic(a in arb_net(), b in arb_net()) {
        let expected = (a.addr_u32(), a.len()).cmp(&(b.addr_u32(), b.len()));
        prop_assert_eq!(a.cmp(&b), expected);
    }
}
