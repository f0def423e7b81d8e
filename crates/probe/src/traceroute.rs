//! Simulated classic and optimized traceroute (§3.3).
//!
//! The paper validates clusters with an in-house traceroute modified in two
//! ways: (i) send one probe per TTL instead of a fixed `q`, retrying only
//! on missing information, and (ii) start at `ttl = Max_ttl` (30) so a
//! reachable destination answers the very first probe with an ICMP
//! `PORT_UNREACHABLE` carrying its address/name. They report saving ≈90 %
//! of probes and ≈80 % of waiting time versus the classic tool.
//!
//! The simulation models routers as always answering `TIME_EXCEEDED` and
//! end hosts as answering only when their organization is not firewalled
//! (≈50 % — consistent with the paper's observation that traceroute and
//! nslookup resolve about the same host population). Probe timing charges
//! each answered probe its hop RTT and each unanswered probe a timeout.

use std::net::Ipv4Addr;

use netclust_netgen::{Hop, Universe};

use crate::faults::{ProbeFaultModel, RetryPolicy, UNRESPONSIVE_HOP};

/// Timeout charged for an unanswered probe, in milliseconds.
pub const PROBE_TIMEOUT_MS: f64 = 3000.0;

/// Classic traceroute's fixed probes-per-TTL (`q`).
pub const CLASSIC_PROBES_PER_TTL: u32 = 3;

/// Default maximum TTL (the paper sets `Max_ttl = 30`).
pub const MAX_TTL: u8 = 30;

/// Outcome of tracing one destination.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOutcome {
    /// The destination answered: its name (when DNS has one), round-trip
    /// time, and the router path toward it.
    Reached {
        /// Reverse-resolved destination name, if registered in DNS.
        name: Option<String>,
        /// Round-trip time to the destination in milliseconds.
        rtt_ms: f64,
        /// Router hops toward the destination.
        hops: Vec<Hop>,
    },
    /// The destination never answered (firewall); only the router path
    /// was discovered.
    PathOnly {
        /// Router hops toward the destination (ends at the org gateway).
        hops: Vec<Hop>,
    },
    /// No route exists toward the address (outside allocated space).
    Unroutable,
}

impl TraceOutcome {
    /// The discovered router hops (empty for [`TraceOutcome::Unroutable`]).
    pub fn hops(&self) -> &[Hop] {
        match self {
            TraceOutcome::Reached { hops, .. } | TraceOutcome::PathOnly { hops } => hops,
            TraceOutcome::Unroutable => &[],
        }
    }

    /// The destination's DNS name, when it was reached and has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            TraceOutcome::Reached { name, .. } => name.as_deref(),
            _ => None,
        }
    }

    /// The last `k` router-hop names on the path (fewer when the path is
    /// short) — the paper compares the last two.
    pub fn path_suffix(&self, k: usize) -> Vec<&str> {
        let hops = self.hops();
        let start = hops.len().saturating_sub(k);
        hops[start..].iter().map(|h| h.name.as_str()).collect()
    }
}

/// Cumulative probe accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeStats {
    /// Destinations traced.
    pub traces: u64,
    /// UDP probes sent.
    pub probes: u64,
    /// Simulated wall-clock time waiting for replies, in milliseconds.
    pub time_ms: f64,
    /// Probes re-sent after an injected transient loss.
    pub retries: u64,
    /// Probes that timed out (silence or injected loss).
    pub timeouts: u64,
    /// Targets abandoned after exhausting the retry budget.
    pub gave_up: u64,
}

/// A traceroute engine over the synthetic universe.
///
/// `optimized` selects between the classic algorithm (start at `ttl = 1`,
/// `q = 3` probes per TTL, walk upward to `Max_ttl`) and the paper's
/// optimized one (one probe at `ttl = Max_ttl` first, then a minimal
/// binary search for the deepest responding hop when the destination is
/// silent).
pub struct Traceroute<'u> {
    universe: &'u Universe,
    optimized: bool,
    max_ttl: u8,
    stats: ProbeStats,
    faults: Option<(ProbeFaultModel, RetryPolicy)>,
}

impl<'u> Traceroute<'u> {
    /// Classic traceroute engine.
    pub fn classic(universe: &'u Universe) -> Self {
        Traceroute {
            universe,
            optimized: false,
            max_ttl: MAX_TTL,
            stats: ProbeStats::default(),
            faults: None,
        }
    }

    /// The paper's optimized traceroute engine.
    pub fn optimized(universe: &'u Universe) -> Self {
        Traceroute {
            universe,
            optimized: true,
            max_ttl: MAX_TTL,
            stats: ProbeStats::default(),
            faults: None,
        }
    }

    /// Arms a deterministic fault model with a retry policy. Injected
    /// losses affect the *optimized* engine (the one the clustering
    /// pipeline runs); the classic engine keeps the paper's noise-free
    /// cost model so the §3.3 probe-saving comparison stays meaningful.
    ///
    /// Under loss a trace can return a *partial* path: a hop that drops
    /// every retry is reported as [`UNRESPONSIVE_HOP`] or truncates the
    /// discovered path early, and a destination whose answers are all
    /// lost is treated as firewalled after the retry budget is spent.
    pub fn with_faults(mut self, model: ProbeFaultModel, policy: RetryPolicy) -> Self {
        self.faults = Some((model, policy));
        self
    }

    /// Cumulative probe statistics.
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// `true` when the destination host answers probes (neither its org
    /// nor, for delegated ISP space, its customer is firewalled).
    fn destination_answers(&self, addr: Ipv4Addr) -> bool {
        self.universe.host_responds(addr)
    }

    /// Traces the route toward `addr`.
    pub fn trace(&mut self, addr: Ipv4Addr) -> TraceOutcome {
        self.stats.traces += 1;
        let Some(hops) = self.universe.path_to(addr) else {
            // Probes toward unallocated space die silently; both variants
            // give up after one round of max_ttl probes.
            let wasted = if self.optimized {
                1
            } else {
                CLASSIC_PROBES_PER_TTL as u64
            };
            self.stats.probes += wasted;
            self.stats.timeouts += wasted;
            self.stats.time_ms += wasted as f64 * PROBE_TIMEOUT_MS;
            return TraceOutcome::Unroutable;
        };
        let answers = self.destination_answers(addr);
        let dest_rtt = hops.last().map(|h| h.rtt_ms).unwrap_or(0.0) + 1.0;
        if self.optimized {
            match self.faults {
                Some((model, policy)) => {
                    self.trace_optimized_faulty(hops, answers, dest_rtt, addr, model, policy)
                }
                None => self.trace_optimized(hops, answers, dest_rtt, addr),
            }
        } else {
            self.trace_classic(hops, answers, dest_rtt, addr)
        }
    }

    /// Classic: `q` probes at each TTL from 1 upward; stops at the
    /// destination's `PORT_UNREACHABLE` or at `Max_ttl`.
    fn trace_classic(
        &mut self,
        hops: Vec<Hop>,
        answers: bool,
        dest_rtt: f64,
        addr: Ipv4Addr,
    ) -> TraceOutcome {
        let q = CLASSIC_PROBES_PER_TTL as u64;
        // TTLs covering the router path: every probe is answered.
        for hop in &hops {
            self.stats.probes += q;
            self.stats.time_ms += q as f64 * hop.rtt_ms;
        }
        if answers {
            // The next TTL reaches the destination.
            self.stats.probes += q;
            self.stats.time_ms += q as f64 * dest_rtt;
            TraceOutcome::Reached {
                name: self.universe.dns_name(addr),
                rtt_ms: dest_rtt,
                hops,
            }
        } else {
            // Silence from hops.len()+1 up to max_ttl — all time out.
            let silent_ttls = (self.max_ttl as u64).saturating_sub(hops.len() as u64);
            self.stats.probes += q * silent_ttls;
            self.stats.timeouts += q * silent_ttls;
            self.stats.time_ms += (q * silent_ttls) as f64 * PROBE_TIMEOUT_MS;
            TraceOutcome::PathOnly { hops }
        }
    }

    /// Optimized: one probe at `ttl = Max_ttl` first. A reachable
    /// destination answers immediately (one probe total). Otherwise a
    /// binary search finds the deepest responding router, and one more
    /// probe confirms its predecessor — exactly the two hops the
    /// validation needs.
    fn trace_optimized(
        &mut self,
        hops: Vec<Hop>,
        answers: bool,
        dest_rtt: f64,
        addr: Ipv4Addr,
    ) -> TraceOutcome {
        // First probe at max_ttl.
        self.stats.probes += 1;
        if answers {
            self.stats.time_ms += dest_rtt;
            return TraceOutcome::Reached {
                name: self.universe.dns_name(addr),
                rtt_ms: dest_rtt,
                hops,
            };
        }
        // Timeout, then binary-search the deepest responding TTL in
        // [1, max_ttl): probing ttl t answers iff t <= hops.len().
        self.stats.timeouts += 1;
        self.stats.time_ms += PROBE_TIMEOUT_MS;
        #[allow(clippy::cast_possible_truncation, reason = "path depth is bounded by max_ttl.")]
        let depth = hops.len() as u32;
        let (mut lo, mut hi) = (1u32, u32::from(self.max_ttl) - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            self.stats.probes += 1;
            if mid <= depth {
                self.stats.time_ms += hops[mid as usize - 1].rtt_ms;
                lo = mid;
            } else {
                self.stats.timeouts += 1;
                self.stats.time_ms += PROBE_TIMEOUT_MS;
                hi = mid - 1;
            }
        }
        // One more probe at depth-1 re-confirms the penultimate hop (its
        // reply carries the name the suffix match needs).
        if depth >= 2 {
            self.stats.probes += 1;
            self.stats.time_ms += hops[depth as usize - 2].rtt_ms;
        }
        TraceOutcome::PathOnly { hops }
    }

    /// One logical probe at `ttl` under the fault model: retries with
    /// capped backoff on injected loss, single shot against true silence
    /// (silence never clears, so retrying it would only waste budget).
    /// Returns whether an answer arrived; charges probes/time/counters.
    fn probe_hop_with_retry(
        &mut self,
        hops: &[Hop],
        addr: u32,
        ttl: u32,
        model: &ProbeFaultModel,
        policy: &RetryPolicy,
    ) -> bool {
        let responds = ttl >= 1 && (ttl as usize) <= hops.len();
        for attempt in 0..policy.attempts() {
            self.stats.probes += 1;
            if responds && !model.hop_lost(addr, ttl, attempt) {
                self.stats.time_ms += hops[ttl as usize - 1].rtt_ms;
                return true;
            }
            self.stats.timeouts += 1;
            self.stats.time_ms += PROBE_TIMEOUT_MS;
            if !responds {
                return false;
            }
            if attempt + 1 < policy.attempts() {
                self.stats.retries += 1;
                self.stats.time_ms += policy.backoff_ms(attempt);
            }
        }
        self.stats.gave_up += 1;
        false
    }

    /// The optimized strategy under injected loss. Same shape as the
    /// clean run — destination probe first, then a binary search — but
    /// every probe can be lost, so the search finds the deepest
    /// *observably* responding TTL. The discovered path may therefore be
    /// truncated (naming shallower routers than the truth) and its
    /// penultimate hop may be wildcarded — the partial signatures §3.5's
    /// quorum matching is built to absorb.
    fn trace_optimized_faulty(
        &mut self,
        hops: Vec<Hop>,
        answers: bool,
        dest_rtt: f64,
        addr: Ipv4Addr,
        model: ProbeFaultModel,
        policy: RetryPolicy,
    ) -> TraceOutcome {
        let addr32 = u32::from(addr);
        if answers {
            for attempt in 0..policy.attempts() {
                self.stats.probes += 1;
                if !model.dest_lost(addr32, attempt) {
                    self.stats.time_ms += dest_rtt;
                    return TraceOutcome::Reached {
                        name: self.universe.dns_name(addr),
                        rtt_ms: dest_rtt,
                        hops,
                    };
                }
                self.stats.timeouts += 1;
                self.stats.time_ms += PROBE_TIMEOUT_MS;
                if attempt + 1 < policy.attempts() {
                    self.stats.retries += 1;
                    self.stats.time_ms += policy.backoff_ms(attempt);
                }
            }
            // All answers lost: fall back to path discovery as if the
            // destination were firewalled (the bounded-error case).
            self.stats.gave_up += 1;
        } else {
            self.stats.probes += 1;
            self.stats.timeouts += 1;
            self.stats.time_ms += PROBE_TIMEOUT_MS;
        }
        // Binary search over observable responses; a hop lost through
        // every retry is indistinguishable from silence and pushes the
        // discovered depth down.
        let (mut lo, mut hi) = (0u32, u32::from(self.max_ttl) - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.probe_hop_with_retry(&hops, addr32, mid, &model, &policy) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let found = lo as usize;
        let mut partial: Vec<Hop> = hops[..found].to_vec();
        if found >= 2 {
            // Re-confirm the penultimate hop; if it stays silent its name
            // is unknown — a wildcard in the signature, not an error.
            #[allow(clippy::cast_possible_truncation, reason = "found <= max_ttl.")]
            if !self.probe_hop_with_retry(&hops, addr32, found as u32 - 1, &model, &policy) {
                partial[found - 2].name = UNRESPONSIVE_HOP.to_string();
            }
        }
        TraceOutcome::PathOnly { hops: partial }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_netgen::UniverseConfig;

    fn universe() -> Universe {
        Universe::generate(UniverseConfig::small(7))
    }

    #[test]
    fn reachable_destination_resolves_in_one_probe() {
        let u = universe();
        let org = u.orgs().iter().find(|o| o.resolvable).unwrap();
        let addr = org.host_addr(0).unwrap();
        let mut tr = Traceroute::optimized(&u);
        let outcome = tr.trace(addr);
        assert!(matches!(outcome, TraceOutcome::Reached { .. }));
        assert_eq!(tr.stats().probes, 1);
        assert_eq!(tr.stats().traces, 1);
    }

    #[test]
    fn firewalled_destination_yields_path_only() {
        let u = universe();
        let org = u.orgs().iter().find(|o| !o.resolvable).unwrap();
        let addr = org.host_addr(0).unwrap();
        let mut tr = Traceroute::optimized(&u);
        let outcome = tr.trace(addr);
        match &outcome {
            TraceOutcome::PathOnly { hops } => {
                assert!(hops.last().unwrap().name.starts_with("gw"));
            }
            other => panic!("expected PathOnly, got {other:?}"),
        }
        // Binary search costs ~log2(30) + 2 probes, not ~90.
        assert!(tr.stats().probes <= 8, "{}", tr.stats().probes);
        // Suffix of length 2 ends with the org gateway.
        let suffix = outcome.path_suffix(2);
        assert_eq!(suffix.len(), 2);
        assert!(suffix[1].starts_with("gw"));
    }

    #[test]
    fn classic_costs_much_more() {
        let u = universe();
        let mut classic = Traceroute::classic(&u);
        let mut optimized = Traceroute::optimized(&u);
        for org in u.orgs().iter().take(60) {
            let addr = org.host_addr(0).unwrap();
            let a = classic.trace(addr);
            let b = optimized.trace(addr);
            // Same discovered path either way.
            assert_eq!(a.hops(), b.hops());
        }
        let (c, o) = (classic.stats(), optimized.stats());
        let probe_saving = 1.0 - o.probes as f64 / c.probes as f64;
        let time_saving = 1.0 - o.time_ms / c.time_ms;
        // The paper claims ≈90 % probe and ≈80 % time savings.
        assert!(probe_saving > 0.80, "probe saving {probe_saving}");
        assert!(time_saving > 0.60, "time saving {time_saving}");
    }

    #[test]
    fn resolvability_is_roughly_half() {
        let u = Universe::generate(UniverseConfig::paper(13));
        let mut tr = Traceroute::optimized(&u);
        let mut reached = 0usize;
        let mut total = 0usize;
        for org in u.orgs().iter().take(1500) {
            let addr = org.host_addr(0).unwrap();
            total += 1;
            if matches!(tr.trace(addr), TraceOutcome::Reached { .. }) {
                reached += 1;
            }
        }
        let frac = reached as f64 / total as f64;
        assert!((0.5..0.9).contains(&frac), "reached fraction {frac}");
        // Every trace resolved *something* (name or path): 100 % resolvability.
        assert_eq!(tr.stats().traces, total as u64);
    }

    #[test]
    fn unroutable_address() {
        let u = universe();
        let mut tr = Traceroute::optimized(&u);
        assert_eq!(
            tr.trace("9.9.9.9".parse().unwrap()),
            TraceOutcome::Unroutable
        );
        assert_eq!(tr.stats().probes, 1);
        let mut trc = Traceroute::classic(&u);
        assert_eq!(
            trc.trace("9.9.9.9".parse().unwrap()),
            TraceOutcome::Unroutable
        );
        assert_eq!(trc.stats().probes, CLASSIC_PROBES_PER_TTL as u64);
    }

    #[test]
    fn faulty_trace_is_deterministic_and_counts_recovery() {
        use crate::faults::{ProbeFaultModel, RetryPolicy};
        let u = universe();
        let model = ProbeFaultModel::new(11).hop_loss(0.3).dest_loss(0.3);
        let policy = RetryPolicy::default();
        let run = |_| {
            let mut tr = Traceroute::optimized(&u).with_faults(model, policy);
            let outcomes: Vec<TraceOutcome> = u
                .orgs()
                .iter()
                .take(80)
                .map(|o| tr.trace(o.host_addr(0).unwrap()))
                .collect();
            (outcomes, tr.stats())
        };
        let (a, sa) = run(0);
        let (b, sb) = run(1);
        assert_eq!(a, b, "same seed must reproduce outcomes bit-for-bit");
        assert_eq!(sa, sb);
        // Loss at these rates must actually trigger the recovery machinery.
        assert!(sa.retries > 0, "{sa:?}");
        assert!(sa.timeouts > 0, "{sa:?}");
        // A different seed shifts the injected faults.
        let other = ProbeFaultModel::new(12).hop_loss(0.3).dest_loss(0.3);
        let mut tr = Traceroute::optimized(&u).with_faults(other, policy);
        let c: Vec<TraceOutcome> = u
            .orgs()
            .iter()
            .take(80)
            .map(|o| tr.trace(o.host_addr(0).unwrap()))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn lossless_fault_model_matches_clean_run() {
        use crate::faults::{ProbeFaultModel, RetryPolicy};
        let u = universe();
        let mut clean = Traceroute::optimized(&u);
        let mut armed = Traceroute::optimized(&u)
            .with_faults(ProbeFaultModel::lossless(), RetryPolicy::default());
        for org in u.orgs().iter().take(60) {
            let addr = org.host_addr(0).unwrap();
            // Same outcome (the lossless search can spend one extra probe
            // confirming the first hop, so costs are compared loosely).
            assert_eq!(clean.trace(addr), armed.trace(addr));
        }
        assert!(armed.stats().probes >= clean.stats().probes);
        assert_eq!(armed.stats().retries, 0);
        assert_eq!(armed.stats().gave_up, 0);
    }

    #[test]
    fn path_suffix_shorter_than_k() {
        let outcome = TraceOutcome::PathOnly {
            hops: vec![Hop {
                name: "only.example.net".into(),
                rtt_ms: 1.0,
            }],
        };
        assert_eq!(outcome.path_suffix(2), vec!["only.example.net"]);
        assert!(TraceOutcome::Unroutable.path_suffix(2).is_empty());
    }

    #[test]
    fn same_org_shares_path_suffix_different_orgs_do_not() {
        let u = universe();
        let mut tr = Traceroute::optimized(&u);
        let orgs: Vec<_> = u
            .orgs()
            .iter()
            .filter(|o| o.active_hosts >= 2)
            .take(2)
            .collect();
        let s1a = tr
            .trace(orgs[0].host_addr(0).unwrap())
            .path_suffix(2)
            .join(",");
        let s1b = tr
            .trace(orgs[0].host_addr(1).unwrap())
            .path_suffix(2)
            .join(",");
        let s2 = tr
            .trace(orgs[1].host_addr(0).unwrap())
            .path_suffix(2)
            .join(",");
        assert_eq!(s1a, s1b);
        assert_ne!(s1a, s2);
    }
}
