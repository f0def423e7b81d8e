//! Organizations (administrative entities) and autonomous systems.
//!
//! The paper's *cluster* is "a grouping of clients that are close together
//! topologically and likely to be under common administrative control". In
//! the synthetic universe the ground truth for "common administrative
//! control" is the [`Org`]: every org owns one contiguous network block,
//! has one DNS domain, and sits behind one gateway router. A cluster
//! identified by any method is *correct* exactly when all its members
//! belong to a single org.

use netclust_prefix::Ipv4Net;

/// Identifier of an [`Org`] in a universe (index into the org table).
pub type OrgId = u32;

/// Identifier of an [`AutonomousSystem`] in a universe.
pub type AsId = u32;

/// Broad category of an organization — drives naming, host population and
/// announcement behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// A company (`.com`): small networks, modest host counts.
    Corporate,
    /// A university (`.edu`): mid-size networks, department host names.
    University,
    /// An Internet service provider (`.net`): large networks, many
    /// dial-up/DSL client hosts (`client-N.ispN.net` names).
    Isp,
    /// A government agency (`.gov`).
    Government,
}

/// How an org's address space shows up in BGP (§3.3's error sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnnouncePolicy {
    /// The org's exact network prefix is announced — the common case, and
    /// the one where LPM clustering is exact.
    Exact,
    /// Only a covering AS-level aggregate is announced; the org's clients
    /// land in a too-large cluster shared with other aggregated orgs
    /// (route-aggregation mis-identification).
    AggregatedOnly,
    /// The org announces its two `len+1` halves instead of the whole
    /// network — LPM yields two too-small clusters for one org, which the
    /// self-correction stage merges (§3.5 case i).
    MoreSpecifics,
    /// The org sits behind a national gateway: only the country-wide
    /// aggregate is routed (§3.3's Croatia/France/Japan cases).
    Gateway,
}

/// One administrative entity: the unit of ground truth.
#[derive(Debug, Clone)]
pub struct Org {
    /// Stable identifier (index in the universe's org table).
    pub id: OrgId,
    /// Owning autonomous system.
    pub as_id: AsId,
    /// Category.
    pub kind: OrgKind,
    /// The org's allocated network block; also its correct cluster.
    pub network: Ipv4Net,
    /// Registrable DNS domain (e.g. `acme7.com`).
    pub domain: String,
    /// BGP visibility behaviour.
    pub policy: AnnouncePolicy,
    /// Whether this org's hosts can be resolved via DNS at all (orgs behind
    /// firewalls or unregistered ISP pools resolve nothing).
    pub resolvable: bool,
    /// Whether the org's allocation appears in registry dumps (ARIN/NLANR).
    pub registered: bool,
    /// Allocated after the routing-table snapshots were taken: invisible on
    /// day 0 (the source of unclusterable clients), announced from
    /// `activation_day` on.
    pub activation_day: u32,
    /// Number of active hosts available to appear in web logs.
    pub active_hosts: u32,
    /// Whether this org's routes flap day-to-day (drives BGP dynamics).
    pub flappy: bool,
    /// ISP only: part of the address space is delegated to distinct
    /// customer organizations (provider-aggregatable space). BGP still
    /// sees one route for the whole block.
    pub hosts_customers: bool,
}

impl Org {
    /// The prefixes this org itself announces (empty for
    /// [`AnnouncePolicy::AggregatedOnly`] and [`AnnouncePolicy::Gateway`]).
    pub fn announced_prefixes(&self) -> Vec<Ipv4Net> {
        match self.policy {
            AnnouncePolicy::Exact => vec![self.network],
            AnnouncePolicy::MoreSpecifics => match crate::net::subnets(self.network) {
                Some((lo, hi)) => vec![lo, hi],
                // A /32 network cannot split; fall back to exact.
                None => vec![self.network],
            },
            AnnouncePolicy::AggregatedOnly | AnnouncePolicy::Gateway => Vec::new(),
        }
    }

    /// Number of /24-sized stripes host addresses are spread over: enough
    /// that populated subnets hold ~48 hosts each (dense local subnets,
    /// like real departments), bounded by the org's physical /24 count.
    fn stripes(&self) -> u32 {
        #[allow(clippy::cast_possible_truncation, reason = "num_addresses() / 256 <= 2^24.")]
        let physical = ((crate::net::num_addresses(self.network) / 256) as u32).max(1);
        self.active_hosts.div_ceil(48).clamp(1, physical)
    }

    /// The address of the org's `idx`-th active host (0-based).
    ///
    /// Hosts are striped round-robin across the org's /24 sub-blocks (real
    /// populations occupy a whole allocation, not its first subnet) —
    /// which is precisely what makes the paper's simple `/24` baseline
    /// shred large organizations into fragments.
    ///
    /// Returns `None` when `idx >= active_hosts`.
    pub fn host_addr(&self, idx: u32) -> Option<std::net::Ipv4Addr> {
        if idx >= self.active_hosts {
            return None;
        }
        let stripes = self.stripes();
        let offset = (idx % stripes) as u64 * 256 + (idx / stripes) as u64 + 1;
        crate::net::nth_host(self.network, offset)
    }

    /// The /24 stripe index an active host's address falls in (stripes are
    /// the unit of customer delegation for provider-aggregatable space).
    pub fn stripe_of(&self, addr: std::net::Ipv4Addr) -> Option<u32> {
        self.host_idx(addr)?;
        Some((u32::from(addr).wrapping_sub(self.network.addr_u32())) / 256)
    }

    /// Inverse of [`host_addr`](Self::host_addr): the host index of an
    /// address inside this org, if it is one of the active hosts.
    pub fn host_idx(&self, addr: std::net::Ipv4Addr) -> Option<u32> {
        if !self.network.contains(addr) {
            return None;
        }
        let offset = u32::from(addr).wrapping_sub(self.network.addr_u32());
        let stripes = self.stripes();
        let (stripe, within) = (offset / 256, offset % 256);
        if within == 0 || stripe >= stripes {
            return None;
        }
        let idx = (within - 1) * stripes + stripe;
        (idx < self.active_hosts).then_some(idx)
    }
}

/// An autonomous system: a set of orgs under one routing administration.
#[derive(Debug, Clone)]
pub struct AutonomousSystem {
    /// Stable identifier (index in the universe's AS table).
    pub id: AsId,
    /// The AS number used in synthetic AS paths.
    pub asn: u32,
    /// Covering allocation block for all the AS's orgs.
    pub aggregate: Ipv4Net,
    /// `Some(country_index)` when this AS is a national gateway.
    pub gateway_country: Option<usize>,
    /// Whether the AS announces its covering aggregate in addition to org
    /// routes (always true for gateways and ASes with aggregated-only
    /// orgs).
    pub announces_aggregate: bool,
    /// Org ids belonging to this AS.
    pub orgs: Vec<OrgId>,
}

impl AutonomousSystem {
    /// `true` when this AS is a national gateway.
    pub fn is_gateway(&self) -> bool {
        self.gateway_country.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_org(policy: AnnouncePolicy) -> Org {
        Org {
            id: 0,
            as_id: 0,
            kind: OrgKind::Corporate,
            network: "10.1.2.0/24".parse().unwrap(),
            domain: "acme1.com".into(),
            policy,
            resolvable: true,
            registered: true,
            activation_day: 0,
            active_hosts: 10,
            flappy: false,
            hosts_customers: false,
        }
    }

    #[test]
    fn exact_announces_network() {
        let org = test_org(AnnouncePolicy::Exact);
        assert_eq!(org.announced_prefixes(), vec![org.network]);
    }

    #[test]
    fn more_specifics_announce_halves() {
        let org = test_org(AnnouncePolicy::MoreSpecifics);
        let nets = org.announced_prefixes();
        assert_eq!(nets.len(), 2);
        assert_eq!(nets[0].to_string(), "10.1.2.0/25");
        assert_eq!(nets[1].to_string(), "10.1.2.128/25");
    }

    #[test]
    fn aggregated_and_gateway_announce_nothing() {
        assert!(test_org(AnnouncePolicy::AggregatedOnly)
            .announced_prefixes()
            .is_empty());
        assert!(test_org(AnnouncePolicy::Gateway)
            .announced_prefixes()
            .is_empty());
    }

    #[test]
    fn host_addr_roundtrip() {
        let org = test_org(AnnouncePolicy::Exact);
        let a0 = org.host_addr(0).unwrap();
        assert_eq!(a0.to_string(), "10.1.2.1");
        let a9 = org.host_addr(9).unwrap();
        assert_eq!(a9.to_string(), "10.1.2.10");
        assert!(org.host_addr(10).is_none());
        assert_eq!(org.host_idx(a0), Some(0));
        assert_eq!(org.host_idx(a9), Some(9));
        assert_eq!(org.host_idx("10.1.2.0".parse().unwrap()), None); // network addr
        assert_eq!(org.host_idx("10.1.2.200".parse().unwrap()), None); // beyond active
        assert_eq!(org.host_idx("10.9.9.9".parse().unwrap()), None); // outside
    }

    #[test]
    fn gateway_detection() {
        let asys = AutonomousSystem {
            id: 0,
            asn: 7018,
            aggregate: "10.0.0.0/12".parse().unwrap(),
            gateway_country: Some(2),
            announces_aggregate: true,
            orgs: vec![],
        };
        assert!(asys.is_gateway());
    }
}
