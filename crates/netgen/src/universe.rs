//! The [`Universe`]: ground truth for clustering, DNS and routing queries.

use std::net::Ipv4Addr;

use netclust_prefix::Ipv4Net;
use netclust_rtable::PrefixTrie;

use crate::alloc::{allocate, Allocation};
use crate::config::UniverseConfig;
use crate::names;
use crate::org::{AutonomousSystem, Org, OrgId};
use crate::rng::unit_f64;

/// A route as announced into the synthetic BGP system. Vantage points see a
/// sampled, partially-aggregated subset of these (see [`crate::vantage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Announcement {
    /// The announced prefix.
    pub prefix: Ipv4Net,
    /// The origin AS.
    pub as_id: u32,
    /// The org whose space this is, or `None` for AS-level aggregates.
    pub org: Option<OrgId>,
}

/// One traceroute hop: router name and the incremental latency to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// Fully-qualified router name (ICMP reverse-resolved).
    pub name: String,
    /// Round-trip time to this hop, in milliseconds.
    pub rtt_ms: f64,
}

/// Fraction of a customer-hosting ISP's stripes that are delegated to
/// distinct customer organizations.
const CUSTOMER_STRIPE_FRACTION: f64 = 0.5;

/// Probability a delegated customer's hosts answer probes / have DNS.
const CUSTOMER_RESOLVABLE_PROB: f64 = 0.6;

/// The complete synthetic Internet: ASes, orgs, ground-truth ownership,
/// DNS names and router-level paths.
///
/// Construction is deterministic in [`UniverseConfig::seed`]; all queries
/// are pure functions of the construction state.
pub struct Universe {
    config: UniverseConfig,
    ases: Vec<AutonomousSystem>,
    orgs: Vec<Org>,
    /// LPM over org networks — ground-truth administrative ownership.
    truth: PrefixTrie<OrgId>,
}

impl Universe {
    /// Builds the universe for a configuration.
    pub fn generate(config: UniverseConfig) -> Self {
        let Allocation { ases, orgs } = allocate(&config);
        let truth = orgs.iter().map(|o| (o.network, o.id)).collect();
        Universe {
            config,
            ases,
            orgs,
            truth,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// All organizations.
    pub fn orgs(&self) -> &[Org] {
        &self.orgs
    }

    /// All autonomous systems.
    pub fn ases(&self) -> &[AutonomousSystem] {
        &self.ases
    }

    /// Organization by id.
    pub fn org(&self, id: OrgId) -> &Org {
        &self.orgs[id as usize]
    }

    /// The org administratively owning `addr`, if any. This is the ground
    /// truth a clustering method is judged against: a cluster is correct
    /// exactly when all its members map to one org.
    pub fn owner(&self, addr: Ipv4Addr) -> Option<OrgId> {
        // Org networks are disjoint, so LPM here is plain containment.
        self.truth
            .longest_match_u32(u32::from(addr))
            .map(|(_, id)| *id)
    }

    /// All routes announced into BGP as of `day` (newly-allocated orgs
    /// activate at their `activation_day`). AS aggregates come first, then
    /// org routes, so more-specific routes shadow aggregates in any LPM
    /// structure regardless of insertion handling.
    pub fn announcements(&self, day: u32) -> Vec<Announcement> {
        let mut out = Vec::new();
        for asys in &self.ases {
            if asys.announces_aggregate {
                out.push(Announcement {
                    prefix: asys.aggregate,
                    as_id: asys.id,
                    org: None,
                });
            }
        }
        for org in &self.orgs {
            if org.activation_day <= day {
                for prefix in org.announced_prefixes() {
                    out.push(Announcement {
                        prefix,
                        as_id: org.as_id,
                        org: Some(org.id),
                    });
                }
            }
        }
        out
    }

    /// The customer entity occupying `addr`'s stripe, when the address sits
    /// in delegated (provider-aggregatable) ISP space: `(isp org, stripe)`.
    pub fn customer_of(&self, addr: Ipv4Addr) -> Option<(OrgId, u32)> {
        let org = self.org(self.owner(addr)?);
        if !org.hosts_customers {
            return None;
        }
        let stripe = org.stripe_of(addr)?;
        let delegated = unit_f64(self.config.seed, &[0xC0575, org.id as u64, stripe as u64])
            < CUSTOMER_STRIPE_FRACTION;
        delegated.then_some((org.id, stripe))
    }

    /// A key unique per *administrative entity* — the paper's ground truth
    /// for cluster correctness. Customers in delegated ISP space are
    /// distinct entities even though the owning (routed) org is the ISP.
    pub fn admin_key(&self, addr: Ipv4Addr) -> Option<u64> {
        let org = self.owner(addr)?;
        Some(match self.customer_of(addr) {
            Some((isp, stripe)) => ((isp as u64) << 24) | stripe as u64,
            None => ((org as u64) << 24) | 0xFF_FFFF,
        })
    }

    /// Whether the host at `addr` answers direct probes (not firewalled) —
    /// per-org for regular space, per-customer for delegated space.
    pub fn host_responds(&self, addr: Ipv4Addr) -> bool {
        let Some(org_id) = self.owner(addr) else {
            return false;
        };
        match self.customer_of(addr) {
            Some((isp, stripe)) => {
                unit_f64(self.config.seed, &[0xC2E5, isp as u64, stripe as u64])
                    < CUSTOMER_RESOLVABLE_PROB
            }
            None => self.org(org_id).resolvable,
        }
    }

    /// The DNS name of `addr`, or `None` when the host is unresolvable
    /// (org behind a firewall, DHCP pool without records, or address not in
    /// any org). Roughly half of all hosts resolve, per the paper's §3.3.
    pub fn dns_name(&self, addr: Ipv4Addr) -> Option<String> {
        let org = self.org(self.owner(addr)?);
        if !self.host_responds(addr) {
            return None;
        }
        let host_idx = org.host_idx(addr)?;
        let p = unit_f64(self.config.seed, &[0xD25, org.id as u64, host_idx as u64]);
        if p >= self.config.host_resolvable_prob {
            return None;
        }
        Some(match self.customer_of(addr) {
            Some((isp, stripe)) => {
                let domain = names::customer_domain(self.config.seed, isp as u64, stripe as u64);
                format!("host-{host_idx}.{domain}")
            }
            None => names::host_name(
                self.config.seed,
                org.id as u64,
                &org.domain,
                org.kind,
                host_idx as u64,
            ),
        })
    }

    /// The router-level path from the measurement vantage toward `addr`,
    /// ending at the org's gateway (the last hop that answers probes; hosts
    /// behind it may or may not answer — see `netclust-probe`).
    ///
    /// Returns `None` for addresses outside any org (nothing routes there).
    pub fn path_to(&self, addr: Ipv4Addr) -> Option<Vec<Hop>> {
        let org = self.org(self.owner(addr)?);
        let asys = &self.ases[org.as_id as usize];
        let mut hops = Vec::with_capacity(6);
        let mut rtt = 0.4;
        // Two backbone hops, stable per destination AS.
        let c1 = (org.as_id as u64) % 12;
        let c2 = 12 + (org.as_id as u64 / 12) % 12;
        for core in [c1, c2] {
            rtt += 2.0 + (core as f64) * 0.7;
            hops.push(Hop {
                name: names::core_router_name(core),
                rtt_ms: rtt,
            });
        }
        // AS border router.
        rtt += 5.0 + (org.as_id % 17) as f64;
        hops.push(Hop {
            name: names::border_router_name(org.as_id as u64),
            rtt_ms: rtt,
        });
        // National gateway, when the destination is behind one.
        if let Some(country) = asys.gateway_country {
            rtt += 80.0 + (country as f64) * 9.0;
            hops.push(Hop {
                name: names::national_gateway_name(country),
                rtt_ms: rtt,
            });
        }
        // Org gateway: the org-wide final hop.
        rtt += 1.5 + (org.id % 7) as f64 * 0.3;
        hops.push(Hop {
            name: names::org_gateway_name(org.id as u64, &org.domain),
            rtt_ms: rtt,
        });
        // Customers in delegated ISP space sit behind their own CPE router.
        if let Some((isp, stripe)) = self.customer_of(addr) {
            let domain = names::customer_domain(self.config.seed, isp as u64, stripe as u64);
            rtt += 0.9;
            hops.push(Hop {
                name: format!("gw-c{stripe}.{domain}"),
                rtt_ms: rtt,
            });
        }
        Some(hops)
    }

    /// Total number of active hosts across all orgs (the log generator's
    /// client population bound).
    pub fn total_active_hosts(&self) -> u64 {
        self.orgs.iter().map(|o| o.active_hosts as u64).sum()
    }
}

impl std::fmt::Debug for Universe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Universe")
            .field("ases", &self.ases.len())
            .field("orgs", &self.orgs.len())
            .field("seed", &self.config.seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::AnnouncePolicy;

    fn universe() -> Universe {
        Universe::generate(UniverseConfig::small(7))
    }

    #[test]
    fn owner_matches_org_networks() {
        let u = universe();
        for org in u.orgs().iter().take(50) {
            let host = org.host_addr(0).unwrap();
            assert_eq!(u.owner(host), Some(org.id));
        }
        // An address in no org (pool gaps) has no owner.
        assert_eq!(u.owner("9.9.9.9".parse().unwrap()), None);
    }

    #[test]
    fn dns_resolvability_is_roughly_half() {
        let u = Universe::generate(UniverseConfig::paper(13));
        let mut resolved = 0usize;
        let mut total = 0usize;
        for org in u.orgs().iter().take(3000) {
            for idx in 0..org.active_hosts.min(3) {
                let addr = org.host_addr(idx).unwrap();
                total += 1;
                if u.dns_name(addr).is_some() {
                    resolved += 1;
                }
            }
        }
        let frac = resolved as f64 / total as f64;
        assert!((0.40..0.65).contains(&frac), "resolvability {frac}");
    }

    #[test]
    fn dns_names_share_org_suffix() {
        let u = universe();
        let org = u
            .orgs()
            .iter()
            .find(|o| o.resolvable && o.active_hosts >= 8 && !o.hosts_customers)
            .expect("some resolvable org");
        let names: Vec<String> = (0..8)
            .filter_map(|i| u.dns_name(org.host_addr(i).unwrap()))
            .collect();
        assert!(names.len() >= 2, "expect at least two resolvable hosts");
        for name in &names {
            assert!(name.ends_with(&org.domain), "{name} vs {}", org.domain);
        }
    }

    #[test]
    fn paths_end_at_org_gateway_and_are_org_stable() {
        let u = universe();
        let org = u
            .orgs()
            .iter()
            .find(|o| o.active_hosts >= 2 && !o.hosts_customers)
            .unwrap();
        let p1 = u.path_to(org.host_addr(0).unwrap()).unwrap();
        let p2 = u.path_to(org.host_addr(1).unwrap()).unwrap();
        assert_eq!(p1, p2, "same org, same path");
        assert!(p1
            .last()
            .unwrap()
            .name
            .starts_with(&format!("gw{}", org.id)));
        // RTTs increase along the path.
        for w in p1.windows(2) {
            assert!(w[1].rtt_ms > w[0].rtt_ms);
        }
        assert!(u.path_to("9.9.9.9".parse().unwrap()).is_none());
    }

    #[test]
    fn paths_differ_between_orgs() {
        let u = universe();
        let mut orgs = u.orgs().iter().filter(|o| o.active_hosts >= 1);
        let a = orgs.next().unwrap();
        let b = orgs.next().unwrap();
        let pa = u.path_to(a.host_addr(0).unwrap()).unwrap();
        let pb = u.path_to(b.host_addr(0).unwrap()).unwrap();
        assert_ne!(pa.last().unwrap().name, pb.last().unwrap().name);
    }

    #[test]
    fn gateway_paths_include_national_hop() {
        let u = Universe::generate(UniverseConfig::paper(3));
        let gw_org = u
            .orgs()
            .iter()
            .find(|o| o.policy == AnnouncePolicy::Gateway)
            .expect("paper-scale universe has gateway orgs");
        let path = u.path_to(gw_org.host_addr(0).unwrap()).unwrap();
        assert!(
            path.iter().any(|h| h.name.starts_with("intl-gw.")),
            "gateway path should include national hop: {path:?}"
        );
    }

    #[test]
    fn announcements_cover_exact_orgs_and_respect_activation() {
        let u = universe();
        let anns = u.announcements(0);
        for org in u.orgs() {
            let has = anns.iter().any(|a| a.org == Some(org.id));
            match org.policy {
                AnnouncePolicy::Exact | AnnouncePolicy::MoreSpecifics => {
                    assert_eq!(has, org.activation_day == 0, "org {}", org.id)
                }
                AnnouncePolicy::AggregatedOnly | AnnouncePolicy::Gateway => {
                    assert!(!has, "org {} should not announce", org.id)
                }
            }
        }
        // Aggregates precede org routes.
        let first_org_pos = anns.iter().position(|a| a.org.is_some()).unwrap();
        assert!(anns[..first_org_pos].iter().all(|a| a.org.is_none()));
    }

    #[test]
    fn aggregated_only_orgs_are_covered_by_their_as_aggregate() {
        let u = Universe::generate(UniverseConfig::paper(5));
        let anns = u.announcements(0);
        for org in u
            .orgs()
            .iter()
            .filter(|o| o.policy == AnnouncePolicy::AggregatedOnly)
        {
            let asys = &u.ases()[org.as_id as usize];
            assert!(asys.announces_aggregate);
            assert!(anns.iter().any(|a| a.org.is_none()
                && a.as_id == org.as_id
                && crate::net::covers(a.prefix, org.network)));
        }
    }

    #[test]
    fn delegated_customers_have_distinct_identities() {
        let u = Universe::generate(UniverseConfig::paper(17));
        let isp = u
            .orgs()
            .iter()
            .find(|o| o.hosts_customers && o.active_hosts >= 200)
            .expect("paper universe has customer-hosting ISPs");
        // Scan hosts for two different delegated customers.
        let mut custs: std::collections::BTreeMap<u32, Ipv4Addr> = Default::default();
        let mut plain: Option<Ipv4Addr> = None;
        for i in 0..isp.active_hosts {
            let addr = isp.host_addr(i).unwrap();
            match u.customer_of(addr) {
                Some((_, stripe)) => {
                    custs.entry(stripe).or_insert(addr);
                }
                None => plain = plain.or(Some(addr)),
            }
        }
        assert!(
            custs.len() >= 2,
            "expected several customers, got {}",
            custs.len()
        );
        let plain = plain.expect("ISP keeps some stripes for itself");
        let addrs: Vec<Ipv4Addr> = custs.values().copied().take(2).collect();
        // Distinct admin entities, same routing owner.
        assert_ne!(u.admin_key(addrs[0]), u.admin_key(addrs[1]));
        assert_ne!(u.admin_key(addrs[0]), u.admin_key(plain));
        assert_eq!(u.owner(addrs[0]), u.owner(addrs[1]));
        assert_eq!(u.owner(addrs[0]), Some(isp.id));
        // Customer DNS names don't share the ISP suffix.
        if let Some(name) = u.dns_name(addrs[0]) {
            assert!(!name.ends_with(&isp.domain), "{name} vs {}", isp.domain);
            assert!(name.ends_with(".com"), "{name}");
        }
        // Customer paths end at the customer CPE, past the ISP gateway.
        let path = u.path_to(addrs[0]).unwrap();
        assert!(path.last().unwrap().name.starts_with("gw-c"), "{path:?}");
        let plain_path = u.path_to(plain).unwrap();
        assert!(
            plain_path.last().unwrap().name.starts_with("gw"),
            "{plain_path:?}"
        );
        assert_ne!(path.last().unwrap().name, plain_path.last().unwrap().name);
    }

    #[test]
    fn non_customer_space_has_org_level_admin_key() {
        let u = universe();
        let org = u
            .orgs()
            .iter()
            .find(|o| !o.hosts_customers && o.active_hosts >= 2)
            .unwrap();
        let k0 = u.admin_key(org.host_addr(0).unwrap());
        let k1 = u.admin_key(org.host_addr(1).unwrap());
        assert_eq!(k0, k1);
        assert!(k0.is_some());
        assert_eq!(u.admin_key("9.9.9.9".parse().unwrap()), None);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = universe();
        let b = universe();
        assert_eq!(a.orgs().len(), b.orgs().len());
        let addr = a.orgs()[0].host_addr(0).unwrap();
        assert_eq!(a.dns_name(addr), b.dns_name(addr));
        assert_eq!(a.total_active_hosts(), b.total_active_hosts());
    }
}
