//! Probe addresses shared by the lookup and patch property suites.

use netclust_prefix::Ipv4Net;

/// The addresses where a compiled lookup can go wrong around `net`: its
/// first and last address ± 1, and the edges of the /16 chunks and /24
/// blocks those fall in (`x.y.255.255` / `x.(y+1).0.0`, `x.y.z.255` /
/// `x.y.(z+1).0`) — every boundary between root entries, node positions
/// and runs that `net` can create or move.
pub fn edge_probes(net: Ipv4Net) -> impl Iterator<Item = u32> {
    let first = net.addr_u32();
    let last = first | !net.netmask_u32();
    [first, last].into_iter().flat_map(|a| {
        [
            a.wrapping_sub(1),
            a,
            a.wrapping_add(1),
            (a & 0xFFFF_0000).wrapping_sub(1),
            a & 0xFFFF_0000,
            a | 0xFFFF,
            (a | 0xFFFF).wrapping_add(1),
            (a & 0xFFFF_FF00).wrapping_sub(1),
            a & 0xFFFF_FF00,
            a | 0xFF,
            (a | 0xFF).wrapping_add(1),
        ]
    })
}
