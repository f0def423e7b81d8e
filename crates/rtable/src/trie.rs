//! A binary radix trie over IPv4 prefixes with longest-prefix match.
//!
//! The paper's clustering step (§3.2.1) matches every client address
//! against the unified prefix/netmask table "similar to what IP routers
//! do". The serving table is compiled from sorted lists and patched through
//! an ordered map, and never walks a trie; this one is the obvious
//! reference beside it: what the tests and the benchmark harness's oracle
//! hold the compiled layout to, and `netgen`'s ground truth of who owns an
//! address.
//!
//! The trie is arena-allocated (nodes live in a `Vec`, children are
//! indices), one bit per level, maximum depth 32. Interior nodes without a
//! value are created on demand during insertion; lookups walk at most 32
//! nodes, tracking the deepest node that carried a value.

use netclust_prefix::Ipv4Net;

/// Index of a node in the arena. `u32::MAX` is the null sentinel.
type NodeIdx = u32;
const NIL: NodeIdx = u32::MAX;

#[derive(Clone)]
struct Node<V> {
    children: [NodeIdx; 2],
    value: Option<V>,
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            children: [NIL, NIL],
            value: None,
        }
    }
}

/// A map from [`Ipv4Net`] prefixes to values, supporting insertion,
/// removal and longest-prefix match.
///
/// ```
/// use netclust_prefix::Ipv4Net;
/// use netclust_rtable::PrefixTrie;
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("12.0.0.0/8".parse().unwrap(), "coarse");
/// trie.insert("12.65.128.0/19".parse().unwrap(), "fine");
///
/// let (net, v) = trie.longest_match_u32(u32::from_be_bytes([12, 65, 147, 94])).unwrap();
/// assert_eq!(net.to_string(), "12.65.128.0/19");
/// assert_eq!(*v, "fine");
///
/// let (net, v) = trie.longest_match_u32(u32::from_be_bytes([12, 1, 1, 1])).unwrap();
/// assert_eq!(net.to_string(), "12.0.0.0/8");
/// assert_eq!(*v, "coarse");
/// ```
#[derive(Clone)]
pub struct PrefixTrie<V> {
    nodes: Vec<Node<V>>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `depth` (0 = most significant) of `addr`.
    #[inline]
    fn bit(addr: u32, depth: u8) -> usize {
        ((addr >> (31 - u32::from(depth))) & 1) as usize
    }

    /// Inserts `net → value`, returning the previous value if the prefix
    /// was already present.
    pub fn insert(&mut self, net: Ipv4Net, value: V) -> Option<V> {
        let mut idx: NodeIdx = 0;
        for depth in 0..net.len() {
            let b = Self::bit(net.addr_u32(), depth);
            let child = self.nodes[idx as usize].children[b];
            idx = if child == NIL {
                #[allow(clippy::cast_possible_truncation, reason = "node ids are u32 by design.")]
                let new_idx = self.nodes.len() as NodeIdx;
                self.nodes.push(Node::new());
                self.nodes[idx as usize].children[b] = new_idx;
                new_idx
            } else {
                child
            };
        }
        let prev = self.nodes[idx as usize].value.replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Walks to the node for `net`, if its path exists.
    fn find_node(&self, net: Ipv4Net) -> Option<NodeIdx> {
        let mut idx: NodeIdx = 0;
        for depth in 0..net.len() {
            let b = Self::bit(net.addr_u32(), depth);
            idx = self.nodes[idx as usize].children[b];
            if idx == NIL {
                return None;
            }
        }
        Some(idx)
    }

    /// Removes a prefix, returning its value. Arena nodes are not reclaimed
    /// (tables are build-once, query-many in this workload); the value slot
    /// is simply cleared.
    pub fn remove(&mut self, net: Ipv4Net) -> Option<V> {
        let idx = self.find_node(net)?;
        let prev = self.nodes[idx as usize].value.take();
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Longest-prefix match on a raw `u32` address: the deepest stored
    /// prefix containing `addr`, with its value.
    pub fn longest_match_u32(&self, addr: u32) -> Option<(Ipv4Net, &V)> {
        let mut idx: NodeIdx = 0;
        let mut best: Option<(u8, &V)> = None;
        for depth in 0..=32u8 {
            let node = &self.nodes[idx as usize];
            if let Some(v) = node.value.as_ref() {
                best = Some((depth, v));
            }
            if depth == 32 {
                break;
            }
            idx = node.children[Self::bit(addr, depth)];
            if idx == NIL {
                break;
            }
        }
        best.map(|(len, v)| (Ipv4Net::new(addr, len).expect("len <= 32"), v))
    }
}

impl<V> FromIterator<(Ipv4Net, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Ipv4Net, V)>>(iter: T) -> Self {
        let mut trie = PrefixTrie::new();
        for (net, v) in iter {
            trie.insert(net, v);
        }
        trie
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_testkit::{addr, net};

    fn lpm<'t, V>(trie: &'t PrefixTrie<V>, ip: &str) -> Option<(Ipv4Net, &'t V)> {
        trie.longest_match_u32(u32::from(addr(ip)))
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let trie: PrefixTrie<()> = PrefixTrie::new();
        assert!(trie.is_empty());
        assert!(lpm(&trie, "1.2.3.4").is_none());
    }

    #[test]
    fn insert_get_remove() {
        let mut trie = PrefixTrie::new();
        assert_eq!(trie.insert(net("10.0.0.0/8"), 1), None);
        assert_eq!(trie.insert(net("10.0.0.0/8"), 2), Some(1));
        assert_eq!(trie.len(), 1);
        // The second insert replaced the value, and no /9 was stored on
        // the way: an address of the /8's first half matches the /8.
        assert_eq!(lpm(&trie, "10.1.1.1"), Some((net("10.0.0.0/8"), &2)));
        assert_eq!(trie.remove(net("10.0.0.0/8")), Some(2));
        assert_eq!(trie.remove(net("10.0.0.0/8")), None);
        assert!(trie.is_empty());
        assert!(lpm(&trie, "10.1.1.1").is_none());
    }

    #[test]
    fn paper_clustering_example() {
        // §3.2.1's worked example: six addresses, two clusters.
        let mut trie = PrefixTrie::new();
        trie.insert(net("12.65.128.0/19"), ());
        trie.insert(net("24.48.2.0/23"), ());
        let cluster_of = |ip: &str| lpm(&trie, ip).unwrap().0.to_string();
        for ip in [
            "12.65.147.94",
            "12.65.147.149",
            "12.65.146.207",
            "12.65.144.247",
        ] {
            assert_eq!(cluster_of(ip), "12.65.128.0/19", "{ip}");
        }
        for ip in ["24.48.3.87", "24.48.2.166"] {
            assert_eq!(cluster_of(ip), "24.48.2.0/23", "{ip}");
        }
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("0.0.0.0/0"), "default");
        trie.insert(net("12.0.0.0/8"), "eight");
        trie.insert(net("12.65.0.0/16"), "sixteen");
        trie.insert(net("12.65.128.0/19"), "nineteen");
        let m = |ip: &str| *lpm(&trie, ip).unwrap().1;
        assert_eq!(m("12.65.147.94"), "nineteen");
        assert_eq!(m("12.65.1.1"), "sixteen");
        assert_eq!(m("12.99.1.1"), "eight");
        assert_eq!(m("99.99.99.99"), "default");
    }

    #[test]
    fn host_routes_and_root() {
        let mut trie = PrefixTrie::new();
        trie.insert(
            Ipv4Net::new(u32::from(addr("1.2.3.4")), 32).unwrap(),
            "host",
        );
        trie.insert(Ipv4Net::DEFAULT, "root");
        assert_eq!(*lpm(&trie, "1.2.3.4").unwrap().1, "host");
        assert_eq!(*lpm(&trie, "1.2.3.5").unwrap().1, "root");
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn removal_leaves_other_entries_matchable() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("12.0.0.0/8"), "eight");
        trie.insert(net("12.65.128.0/19"), "nineteen");
        trie.remove(net("12.65.128.0/19"));
        assert_eq!(*lpm(&trie, "12.65.147.94").unwrap().1, "eight");
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn sibling_prefixes_do_not_interfere() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("24.48.2.0/24"), "low");
        trie.insert(net("24.48.3.0/24"), "high");
        assert_eq!(*lpm(&trie, "24.48.2.1").unwrap().1, "low");
        assert_eq!(*lpm(&trie, "24.48.3.1").unwrap().1, "high");
        assert!(lpm(&trie, "24.48.4.1").is_none());
    }
}
