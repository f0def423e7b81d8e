//! Simulated `nslookup` and the paper's domain-name suffix rule.

use std::net::Ipv4Addr;

use netclust_netgen::Universe;

use crate::faults::{ProbeFaultModel, RetryPolicy};

/// Milliseconds charged per DNS query (the paper observes one optimized
/// traceroute probe costs about the same as one nslookup).
pub const NSLOOKUP_MS: f64 = 80.0;

/// A DNS reverse-lookup client over the synthetic universe, with query
/// accounting.
///
/// Roughly half of all hosts resolve (firewalled orgs, DHCP pools and
/// unregistered ISP customers do not), matching §3.3's observation.
pub struct Nslookup<'u> {
    universe: &'u Universe,
    queries: u64,
    resolved: u64,
    time_ms: f64,
    retries: u64,
    gave_up: u64,
    faults: Option<(ProbeFaultModel, RetryPolicy)>,
}

impl<'u> Nslookup<'u> {
    /// Creates a client over `universe`.
    pub fn new(universe: &'u Universe) -> Self {
        Nslookup {
            universe,
            queries: 0,
            resolved: 0,
            time_ms: 0.0,
            retries: 0,
            gave_up: 0,
            faults: None,
        }
    }

    /// Arms a deterministic transient-failure model: each query can fail
    /// with the model's `lookup_loss` probability and is retried under
    /// `policy` with capped backoff. A name that genuinely does not
    /// resolve (NXDOMAIN) is authoritative and never retried.
    pub fn with_faults(mut self, model: ProbeFaultModel, policy: RetryPolicy) -> Self {
        self.faults = Some((model, policy));
        self
    }

    /// Reverse-resolves `addr` to a fully-qualified domain name.
    pub fn resolve(&mut self, addr: Ipv4Addr) -> Option<String> {
        let name = self.universe.dns_name(addr);
        let Some((model, policy)) = self.faults else {
            self.queries += 1;
            self.time_ms += NSLOOKUP_MS;
            if name.is_some() {
                self.resolved += 1;
            }
            return name;
        };
        // NXDOMAIN answers immediately; only positive answers can be
        // transiently lost.
        if name.is_none() {
            self.queries += 1;
            self.time_ms += NSLOOKUP_MS;
            return None;
        }
        let addr32 = u32::from(addr);
        for attempt in 0..policy.attempts() {
            self.queries += 1;
            self.time_ms += NSLOOKUP_MS;
            if !model.lookup_lost(addr32, attempt) {
                self.resolved += 1;
                return name;
            }
            if attempt + 1 < policy.attempts() {
                self.retries += 1;
                self.time_ms += policy.backoff_ms(attempt);
            }
        }
        self.gave_up += 1;
        None
    }

    /// Queries re-sent after an injected transient failure.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Lookups abandoned after exhausting the retry budget.
    pub fn gave_up(&self) -> u64 {
        self.gave_up
    }

    /// Total queries issued.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Queries that returned a name.
    pub fn resolved(&self) -> u64 {
        self.resolved
    }

    /// Total simulated wall-clock time spent, in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time_ms
    }
}

/// The paper's non-trivial suffix of a fully-qualified domain name: the
/// last `n` dot-separated components, where `n = 3` if the name has at
/// least 4 components and `n = 2` otherwise (§3.3, footnote 7).
///
/// ```
/// use netclust_probe::name_suffix;
/// assert_eq!(name_suffix("macbeth.cs.wits.ac.za"), "wits.ac.za");
/// assert_eq!(name_suffix("foo.dummy.com"), "dummy.com");
/// assert_eq!(name_suffix("h1.cs.northfield3.edu"), "cs.northfield3.edu");
/// ```
pub fn name_suffix(name: &str) -> &str {
    let m = name.split('.').count();
    let n = if m >= 4 { 3 } else { 2 };
    if m <= n {
        return name;
    }
    // Byte offset of the start of the last n components.
    let mut idx = name.len();
    for _ in 0..n {
        idx = name[..idx].rfind('.').unwrap_or(0);
    }
    &name[idx + 1..]
}

/// Whether two names share a non-trivial suffix under the paper's rule.
pub fn suffixes_match(a: &str, b: &str) -> bool {
    name_suffix(a) == name_suffix(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_netgen::UniverseConfig;

    #[test]
    fn suffix_rule_matches_paper_examples() {
        // m = 5 → last 3 components.
        assert_eq!(name_suffix("macbeth.cs.wits.ac.za"), "wits.ac.za");
        assert_eq!(name_suffix("macabre.cs.wits.ac.za"), "wits.ac.za");
        assert!(suffixes_match(
            "macbeth.cs.wits.ac.za",
            "macabre.cs.wits.ac.za"
        ));
        // m = 3 → last 2 components.
        assert_eq!(name_suffix("foo.dummy.com"), "dummy.com");
        // m = 4 → last 3.
        assert_eq!(name_suffix("client-1.isp.dummy.net"), "isp.dummy.net");
        // Degenerate short names are their own suffix.
        assert_eq!(name_suffix("localhost"), "localhost");
        assert_eq!(name_suffix("a.b"), "a.b");
    }

    #[test]
    fn different_orgs_do_not_match() {
        assert!(!suffixes_match(
            "mailsrv1.wakefern.com",
            "firewall.commonhealthusa.com"
        ));
        assert!(!suffixes_match(
            "client-151-198-194-17.bellatlantic.net",
            "mailsrv1.wakefern.com"
        ));
    }

    #[test]
    fn resolver_counts_and_ratio() {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut ns = Nslookup::new(&u);
        assert_eq!((ns.queries(), ns.resolved()), (0, 0));
        let mut hits = 0;
        let mut total = 0;
        for org in u.orgs().iter().take(200) {
            for i in 0..org.active_hosts.min(2) {
                total += 1;
                if ns.resolve(org.host_addr(i).unwrap()).is_some() {
                    hits += 1;
                }
            }
        }
        assert_eq!(ns.queries(), total);
        assert_eq!(ns.resolved(), hits);
        let ratio = hits as f64 / total as f64;
        assert!((0.3..0.75).contains(&ratio), "{ratio}");
        assert!((ns.time_ms() - total as f64 * NSLOOKUP_MS).abs() < 1e-9);
    }

    #[test]
    fn transient_dns_failures_retry_and_give_up_deterministically() {
        use crate::faults::{ProbeFaultModel, RetryPolicy};
        let u = Universe::generate(UniverseConfig::small(7));
        let model = ProbeFaultModel::new(3).lookup_loss(0.4);
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let run = || {
            let mut ns = Nslookup::new(&u).with_faults(model, policy);
            let names: Vec<Option<String>> = u
                .orgs()
                .iter()
                .take(150)
                .map(|o| ns.resolve(o.host_addr(0).unwrap()))
                .collect();
            (names, ns.queries(), ns.retries(), ns.gave_up())
        };
        let (a, qa, ra, ga) = run();
        let (b, qb, rb, gb) = run();
        assert_eq!(a, b);
        assert_eq!((qa, ra, ga), (qb, rb, gb));
        // At a 40 % loss rate with one retry, both recovery and give-up
        // must be exercised.
        assert!(ra > 0);
        assert!(ga > 0);
        // The clean run resolves a superset of the lossy one.
        let mut clean = Nslookup::new(&u);
        for (org, lossy) in u.orgs().iter().take(150).zip(&a) {
            let name = clean.resolve(org.host_addr(0).unwrap());
            if lossy.is_some() {
                assert_eq!(lossy, &name);
            }
        }
    }

    #[test]
    fn same_org_hosts_share_suffix_different_orgs_do_not() {
        let u = Universe::generate(UniverseConfig::small(9));
        let mut ns = Nslookup::new(&u);
        let mut org_names: Vec<Vec<String>> = Vec::new();
        // Customer-hosting ISPs intentionally mix suffixes (delegated
        // provider space); same-suffix only holds for regular orgs.
        for org in u
            .orgs()
            .iter()
            .filter(|o| o.resolvable && !o.hosts_customers)
            .take(30)
        {
            let names: Vec<String> = (0..org.active_hosts.min(6))
                .filter_map(|i| ns.resolve(org.host_addr(i).unwrap()))
                .collect();
            if names.len() >= 2 {
                org_names.push(names);
            }
        }
        assert!(org_names.len() >= 5);
        for names in &org_names {
            for pair in names.windows(2) {
                assert!(suffixes_match(&pair[0], &pair[1]), "{pair:?}");
            }
        }
    }
}
