//! AS-level topology: a three-tier provider/customer/peer hierarchy.
//!
//! The statistical vantage model in `netclust-netgen` samples which routes
//! a site sees; this module replaces sampling with *structure*: a
//! Gao-Rexford-style AS graph over the universe's autonomous systems, so
//! route visibility at a vantage point follows from actual (valley-free)
//! propagation. Tier-1 ASes form a clique; tier-2 ASes buy transit from
//! several tier-1s and peer among themselves; stubs buy transit from
//! tier-2s (occasionally multihoming).

use netclust_netgen::{stream_rng, Universe};
use rand::seq::SliceRandom;
use rand::Rng;

/// Business relationship of a directed edge `a → b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a` is a customer of `b` (`a` pays `b` for transit).
    CustomerOf,
    /// `a` and `b` are settlement-free peers.
    PeerOf,
    /// `a` is a provider of `b`.
    ProviderOf,
}

/// A structural violation found by [`Topology::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A provider link without the matching customer back-link.
    AsymmetricProviderLink {
        /// The AS recording the provider.
        customer: u32,
        /// The provider missing the back-link.
        provider: u32,
    },
    /// A peer link recorded in one direction only.
    AsymmetricPeerLink {
        /// The AS recording the peer.
        a: u32,
        /// The peer missing the back-link.
        b: u32,
    },
    /// A non-tier-1 AS with no provider (partitioned upward).
    NoProvider {
        /// The orphaned AS.
        asn: u32,
        /// Its tier.
        tier: u8,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::AsymmetricProviderLink { customer, provider } => {
                write!(f, "asymmetric provider link {customer}->{provider}")
            }
            TopologyError::AsymmetricPeerLink { a, b } => {
                write!(f, "asymmetric peer link {a}<->{b}")
            }
            TopologyError::NoProvider { asn, tier } => {
                write!(f, "AS {asn} (tier {tier}) has no provider")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The AS graph: per-AS adjacency lists split by relationship.
#[derive(Debug, Clone)]
pub struct Topology {
    /// `providers[a]` — ASes `a` buys transit from.
    pub providers: Vec<Vec<u32>>,
    /// `peers[a]` — settlement-free peers of `a`.
    pub peers: Vec<Vec<u32>>,
    /// `customers[a]` — ASes buying transit from `a`.
    pub customers: Vec<Vec<u32>>,
    /// Tier of each AS (1 = clique, 2 = transit, 3 = stub).
    pub tier: Vec<u8>,
}

impl Topology {
    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.tier.len()
    }

    /// `true` when the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.tier.is_empty()
    }

    /// Builds a deterministic three-tier topology over the universe's
    /// ASes. Roughly 3 % become tier-1 (min 3), 17 % tier-2, the rest
    /// stubs; every non-tier-1 AS gets 1–3 providers one tier up, and
    /// same-tier ASes peer sparsely.
    pub fn generate(universe: &Universe, seed: u64) -> Topology {
        let n = universe.ases().len();
        assert!(n >= 4, "topology needs at least 4 ASes");
        let mut rng = stream_rng(seed, &[0x709]);
        #[allow(clippy::cast_possible_truncation, reason = "AS ids are u32 by design.")]
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);

        let t1_count = (n / 33).clamp(3, 12);
        let t2_count = (n * 17 / 100).max(4);
        let mut tier = vec![3u8; n];
        for &a in &order[..t1_count] {
            tier[a as usize] = 1;
        }
        for &a in &order[t1_count..t1_count + t2_count.min(n - t1_count)] {
            tier[a as usize] = 2;
        }
        let tier1: Vec<u32> = order[..t1_count].to_vec();
        let tier2: Vec<u32> = order[t1_count..(t1_count + t2_count).min(n)].to_vec();

        let mut providers = vec![Vec::new(); n];
        let mut peers: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut customers = vec![Vec::new(); n];
        let link = |providers: &mut Vec<Vec<u32>>,
                    customers: &mut Vec<Vec<u32>>,
                    customer: u32,
                    provider: u32| {
            if customer != provider && !providers[customer as usize].contains(&provider) {
                providers[customer as usize].push(provider);
                customers[provider as usize].push(customer);
            }
        };

        // Tier-1 clique (peering).
        for (i, &a) in tier1.iter().enumerate() {
            for &b in &tier1[i + 1..] {
                peers[a as usize].push(b);
                peers[b as usize].push(a);
            }
        }
        // Tier-2: 1–3 tier-1 providers, sparse tier-2 peering.
        for &a in &tier2 {
            for _ in 0..rng.gen_range(1..=3usize) {
                let p = tier1[rng.gen_range(0..tier1.len())];
                link(&mut providers, &mut customers, a, p);
            }
        }
        for (i, &a) in tier2.iter().enumerate() {
            for &b in &tier2[i + 1..] {
                if rng.gen_bool(0.08) {
                    peers[a as usize].push(b);
                    peers[b as usize].push(a);
                }
            }
        }
        // Stubs: 1–2 tier-2 providers (occasionally a tier-1).
        #[allow(clippy::cast_possible_truncation, reason = "AS ids are u32 by design.")]
        for a in 0..n as u32 {
            if tier[a as usize] != 3 {
                continue;
            }
            let multi = rng.gen_bool(0.25);
            for _ in 0..if multi { 2 } else { 1 } {
                let p = if rng.gen_bool(0.1) {
                    tier1[rng.gen_range(0..tier1.len())]
                } else {
                    tier2[rng.gen_range(0..tier2.len())]
                };
                link(&mut providers, &mut customers, a, p);
            }
        }

        Topology {
            providers,
            peers,
            customers,
            tier,
        }
    }

    /// Verifies structural sanity: relationship symmetry and that every
    /// non-tier-1 AS has at least one provider (no partitions upward).
    pub fn check(&self) -> Result<(), TopologyError> {
        #[allow(clippy::cast_possible_truncation, reason = "AS ids are u32 by design.")]
        for a in 0..self.len() as u32 {
            for &p in &self.providers[a as usize] {
                if !self.customers[p as usize].contains(&a) {
                    return Err(TopologyError::AsymmetricProviderLink {
                        customer: a,
                        provider: p,
                    });
                }
            }
            for &q in &self.peers[a as usize] {
                if !self.peers[q as usize].contains(&a) {
                    return Err(TopologyError::AsymmetricPeerLink { a, b: q });
                }
            }
            if self.tier[a as usize] != 1 && self.providers[a as usize].is_empty() {
                return Err(TopologyError::NoProvider {
                    asn: a,
                    tier: self.tier[a as usize],
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_netgen::UniverseConfig;

    fn topo() -> Topology {
        let u = Universe::generate(UniverseConfig::small(7));
        Topology::generate(&u, 3)
    }

    #[test]
    fn structure_is_sane() {
        let t = topo();
        t.check().expect("valid topology");
        assert_eq!(t.len(), 40);
        let t1 = t.tier.iter().filter(|&&x| x == 1).count();
        let t2 = t.tier.iter().filter(|&&x| x == 2).count();
        let t3 = t.tier.iter().filter(|&&x| x == 3).count();
        assert!(t1 >= 3);
        assert!(t2 >= 4);
        assert!(t3 > t2, "stubs dominate: {t3} vs {t2}");
    }

    #[test]
    fn tier1s_form_a_clique_and_have_no_providers() {
        let t = topo();
        let tier1: Vec<u32> = (0..t.len() as u32)
            .filter(|&a| t.tier[a as usize] == 1)
            .collect();
        for &a in &tier1 {
            assert!(
                t.providers[a as usize].is_empty(),
                "tier-1 {a} buys transit"
            );
            for &b in &tier1 {
                if a != b {
                    assert!(t.peers[a as usize].contains(&b), "{a} !~ {b}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let u = Universe::generate(UniverseConfig::small(7));
        let a = Topology::generate(&u, 3);
        let b = Topology::generate(&u, 3);
        assert_eq!(a.providers, b.providers);
        assert_eq!(a.peers, b.peers);
        let c = Topology::generate(&u, 4);
        assert_ne!(a.providers, c.providers, "different seeds differ");
    }
}
