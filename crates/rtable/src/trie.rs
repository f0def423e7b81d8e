//! A binary radix trie over IPv4 prefixes with longest-prefix match.
//!
//! This is the data structure at the heart of the paper's clustering step
//! (§3.2.1): every client address is matched against the unified
//! prefix/netmask table "similar to what IP routers do", and the longest
//! matching prefix identifies the client's cluster.
//!
//! The trie is arena-allocated (nodes live in a `Vec`, children are
//! indices), one bit per level, maximum depth 32. Interior nodes without a
//! value are created on demand during insertion; lookups walk at most 32
//! nodes, tracking the deepest node that carried a value.

use std::fmt;

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

/// A map from [`Ipv4Net`] prefixes to values, supporting exact lookup,
/// longest-prefix match, removal and iteration.
///
/// ```
/// use netclust_prefix::Ipv4Net;
/// use netclust_rtable::PrefixTrie;
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("12.0.0.0/8".parse().unwrap(), "coarse");
/// trie.insert("12.65.128.0/19".parse().unwrap(), "fine");
///
/// let (net, v) = trie.longest_match("12.65.147.94".parse().unwrap()).unwrap();
/// assert_eq!(net.to_string(), "12.65.128.0/19");
/// assert_eq!(*v, "fine");
///
/// let (net, v) = trie.longest_match("12.1.1.1".parse().unwrap()).unwrap();
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
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )]
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

    /// Bytes held by the node arena (removed prefixes keep their nodes).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<V>>()
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

    /// Exact-match lookup of a stored prefix.
    pub fn get(&self, net: Ipv4Net) -> Option<&V> {
        self.find_node(net)
            .and_then(|idx| self.nodes[idx as usize].value.as_ref())
    }

    /// Mutable exact-match lookup.
    pub fn get_mut(&mut self, net: Ipv4Net) -> Option<&mut V> {
        self.find_node(net)
            .and_then(move |idx| self.nodes[idx as usize].value.as_mut())
    }

    /// `true` when the exact prefix is stored.
    pub fn contains(&self, net: Ipv4Net) -> bool {
        self.get(net).is_some()
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

    /// Longest-prefix match on an [`std::net::Ipv4Addr`].
    pub fn longest_match(&self, addr: std::net::Ipv4Addr) -> Option<(Ipv4Net, &V)> {
        self.longest_match_u32(u32::from(addr))
    }

    /// Longest-prefix match considering only prefixes of length at most
    /// `max_len`. The compiled table's patch layer uses this to recompute
    /// a root entry (best match at `/16` or shorter) after a delta.
    pub fn longest_match_capped(&self, addr: u32, max_len: u8) -> Option<(Ipv4Net, &V)> {
        let mut idx: NodeIdx = 0;
        let mut best: Option<(u8, &V)> = None;
        for depth in 0..=max_len.min(32) {
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

    /// All stored prefixes that contain `addr`, shortest first (the full
    /// match chain, useful for aggregation analysis).
    pub fn match_chain_u32(&self, addr: u32) -> Vec<(Ipv4Net, &V)> {
        let mut idx: NodeIdx = 0;
        let mut chain = Vec::new();
        for depth in 0..=32u8 {
            let node = &self.nodes[idx as usize];
            if let Some(v) = node.value.as_ref() {
                chain.push((Ipv4Net::new(addr, depth).expect("len <= 32"), v));
            }
            if depth == 32 {
                break;
            }
            idx = node.children[Self::bit(addr, depth)];
            if idx == NIL {
                break;
            }
        }
        chain
    }

    /// Iterates over all stored `(prefix, value)` pairs in address order
    /// (depth-first, zero branch before one branch).
    pub fn iter(&self) -> PrefixTrieIter<'_, V> {
        self.subtree(Ipv4Net::DEFAULT)
    }

    /// Iterates over the stored prefixes `root` contains (itself included,
    /// when stored), in address order. The compiled table's patch layer
    /// rebuilds one /16 chunk from this.
    pub fn subtree(&self, root: Ipv4Net) -> PrefixTrieIter<'_, V> {
        PrefixTrieIter {
            trie: self,
            stack: self
                .find_node(root)
                .map(|idx| (idx, root.addr_u32(), root.len()))
                .into_iter()
                .collect(),
            #[cfg(debug_assertions)]
            last: None,
        }
    }

    /// Collects the stored prefixes in address order.
    pub fn prefixes(&self) -> Vec<Ipv4Net> {
        self.iter().map(|(net, _)| net).collect()
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

impl<V: fmt::Debug> fmt::Debug for PrefixTrie<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Depth-first iterator over `(prefix, &value)` pairs.
pub struct PrefixTrieIter<'a, V> {
    trie: &'a PrefixTrie<V>,
    /// Stack of (node index, accumulated address bits, depth).
    stack: Vec<(NodeIdx, u32, u8)>,
    /// Debug builds track the last yielded `(addr, len)` to assert the
    /// documented ascending address order.
    #[cfg(debug_assertions)]
    last: Option<(u32, u8)>,
}

impl<'a, V> Iterator for PrefixTrieIter<'a, V> {
    type Item = (Ipv4Net, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((idx, addr, depth)) = self.stack.pop() {
            let node = &self.trie.nodes[idx as usize];
            // Push the one-branch first so the zero-branch pops first.
            if depth < 32 {
                let one = node.children[1];
                if one != NIL {
                    self.stack
                        .push((one, addr | (1u32 << (31 - u32::from(depth))), depth + 1));
                }
                let zero = node.children[0];
                if zero != NIL {
                    self.stack.push((zero, addr, depth + 1));
                }
            }
            if let Some(v) = node.value.as_ref() {
                let net = Ipv4Net::new(addr, depth).expect("depth <= 32");
                #[cfg(debug_assertions)]
                {
                    let key = (net.addr_u32(), net.len());
                    debug_assert!(
                        self.last.is_none_or(|prev| prev < key),
                        "trie iteration must ascend in (addr, len) order"
                    );
                    self.last = Some(key);
                }
                return Some((net, v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    /// Exercises the iterator's debug-only ordering invariant over a
    /// shuffled insert set built from the shared fixtures.
    #[cfg(debug_assertions)]
    #[test]
    fn iter_order_invariant_checked_in_debug() {
        use crate::testutil;
        let specs = [
            "24.48.2.0/23",
            "12.0.0.0/8",
            "24.48.2.192/32",
            "12.65.128.0/19",
            "0.0.0.0/0",
        ];
        let trie: PrefixTrie<()> = testutil::nets(&specs)
            .into_iter()
            .map(|n| (n, ()))
            .collect();
        let ps = trie.prefixes();
        assert_eq!(ps.len(), specs.len());
        let mut sorted = ps.clone();
        sorted.sort_by_key(|n| (n.addr_u32(), n.len()));
        assert_eq!(ps, sorted);
    }

    fn addr(s: &str) -> std::net::Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let trie: PrefixTrie<()> = PrefixTrie::new();
        assert!(trie.is_empty());
        assert!(trie.longest_match(addr("1.2.3.4")).is_none());
        assert!(trie.prefixes().is_empty());
    }

    #[test]
    fn insert_get_remove() {
        let mut trie = PrefixTrie::new();
        assert_eq!(trie.insert(net("10.0.0.0/8"), 1), None);
        assert_eq!(trie.insert(net("10.0.0.0/8"), 2), Some(1));
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.get(net("10.0.0.0/8")), Some(&2));
        assert_eq!(trie.get(net("10.0.0.0/9")), None);
        assert_eq!(trie.remove(net("10.0.0.0/8")), Some(2));
        assert_eq!(trie.remove(net("10.0.0.0/8")), None);
        assert!(trie.is_empty());
        assert!(trie.longest_match(addr("10.1.1.1")).is_none());
    }

    #[test]
    fn paper_clustering_example() {
        // §3.2.1's worked example: six addresses, two clusters.
        let mut trie = PrefixTrie::new();
        trie.insert(net("12.65.128.0/19"), ());
        trie.insert(net("24.48.2.0/23"), ());
        let cluster_of = |ip: &str| trie.longest_match(addr(ip)).unwrap().0.to_string();
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
        let m = |ip: &str| *trie.longest_match(addr(ip)).unwrap().1;
        assert_eq!(m("12.65.147.94"), "nineteen");
        assert_eq!(m("12.65.1.1"), "sixteen");
        assert_eq!(m("12.99.1.1"), "eight");
        assert_eq!(m("99.99.99.99"), "default");
    }

    #[test]
    fn match_chain_lists_all_containing_prefixes() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("0.0.0.0/0"), 0u8);
        trie.insert(net("12.0.0.0/8"), 8);
        trie.insert(net("12.65.128.0/19"), 19);
        let chain = trie.match_chain_u32(u32::from(addr("12.65.147.94")));
        assert_eq!(
            chain.iter().map(|(n, _)| n.len()).collect::<Vec<_>>(),
            [0, 8, 19]
        );
        assert_eq!(*chain.last().unwrap().1, 19);
    }

    #[test]
    fn host_routes_and_root() {
        let mut trie = PrefixTrie::new();
        trie.insert(Ipv4Net::host(addr("1.2.3.4")), "host");
        trie.insert(Ipv4Net::DEFAULT, "root");
        assert_eq!(*trie.longest_match(addr("1.2.3.4")).unwrap().1, "host");
        assert_eq!(*trie.longest_match(addr("1.2.3.5")).unwrap().1, "root");
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let nets = [
            "18.0.0.0/8",
            "12.65.128.0/19",
            "12.0.0.0/8",
            "24.48.2.0/23",
            "12.65.144.0/20",
        ];
        let trie: PrefixTrie<()> = nets.iter().map(|s| (net(s), ())).collect();
        let mut expected: Vec<Ipv4Net> = nets.iter().map(|s| net(s)).collect();
        expected.sort();
        assert_eq!(trie.prefixes(), expected);
        assert_eq!(trie.iter().count(), nets.len());
    }

    #[test]
    fn subtree_lists_exactly_the_contained_prefixes() {
        let nets = [
            "12.0.0.0/8",
            "12.65.0.0/16",
            "12.65.128.0/19",
            "12.65.147.0/24",
            "12.65.147.94/32",
            "12.66.0.0/17",
        ];
        let trie: PrefixTrie<()> = nets.iter().map(|s| (net(s), ())).collect();
        let under = |root: &str| -> Vec<String> {
            trie.subtree(net(root))
                .map(|(n, _)| n.to_string())
                .collect()
        };
        assert_eq!(under("12.65.0.0/16"), nets[1..5]);
        assert_eq!(
            under("12.65.144.0/20"),
            nets[3..5],
            "root itself not stored"
        );
        assert_eq!(under("12.66.0.0/16"), nets[5..]);
        assert!(under("12.67.0.0/16").is_empty());
        assert!(under("12.65.0.0/17").is_empty());
        assert_eq!(under("0.0.0.0/0"), nets);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("10.0.0.0/8"), 0u64);
        *trie.get_mut(net("10.0.0.0/8")).unwrap() += 41;
        *trie.get_mut(net("10.0.0.0/8")).unwrap() += 1;
        assert_eq!(trie.get(net("10.0.0.0/8")), Some(&42));
        assert!(trie.get_mut(net("11.0.0.0/8")).is_none());
    }

    #[test]
    fn removal_leaves_other_entries_matchable() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("12.0.0.0/8"), "eight");
        trie.insert(net("12.65.128.0/19"), "nineteen");
        trie.remove(net("12.65.128.0/19"));
        assert_eq!(
            *trie.longest_match(addr("12.65.147.94")).unwrap().1,
            "eight"
        );
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn sibling_prefixes_do_not_interfere() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("24.48.2.0/24"), "low");
        trie.insert(net("24.48.3.0/24"), "high");
        assert_eq!(*trie.longest_match(addr("24.48.2.1")).unwrap().1, "low");
        assert_eq!(*trie.longest_match(addr("24.48.3.1")).unwrap().1, "high");
        assert!(trie.longest_match(addr("24.48.4.1")).is_none());
    }
}
