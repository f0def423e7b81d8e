//! Self-correction and adaptation (§3.5).
//!
//! Periodic traceroute sampling repairs the three residual defects of the
//! initial clustering:
//!
//! 1. **Unidentified clients** (~0.1 %): each starts as a singleton and is
//!    merged into the cluster whose traceroute signature it shares.
//! 2. **Too-small clusters** (case i): clusters with the same signature —
//!    e.g. the two halves of an org that announces more-specifics — are
//!    merged, and the identifying prefix/netmask recomputed as the common
//!    supernet.
//! 3. **Too-large clusters** (case ii): a cluster whose sampled clients
//!    disagree is re-traced in full and partitioned by signature.
//!
//! The *signature* of a client is the last-two-hop suffix of the optimized
//! traceroute toward it, which in the synthetic universe (noise-free
//! probing) pins down the owning organization exactly. Real deployments see
//! residual error from unresponsive or load-balanced routers, so the
//! grouping is **quorum-based and loss-tolerant**: a
//! [`ProbeFaultModel`](netclust_probe::ProbeFaultModel) can be armed on the
//! tracer (retry-with-backoff included), partial signatures containing the
//! `*` unresponsive-hop wildcard match their concrete counterparts
//! ([`netclust_probe::sigs_compatible`]), a cluster counts as homogeneous
//! when a modal signature is compatible with at least a
//! [`quorum`](CorrectionConfig::quorum) fraction of the informative
//! samples, and clients whose probes yield nothing stay with their original
//! cluster instead of being scattered.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use netclust_core::Clustering;
use netclust_netgen::{common_supernet, host_route, stream_rng, Log, Universe};
use netclust_obs::Obs;
use netclust_prefix::Ipv4Net;
use netclust_probe::{sig_specificity, sigs_compatible, ProbeFaultModel, RetryPolicy, Traceroute};
use rand::seq::SliceRandom;

/// Self-correction parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorrectionConfig {
    /// Clients sampled per cluster when probing for homogeneity (`r`).
    pub samples_per_cluster: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Probe fault model; `None` probes noise-free.
    pub faults: Option<ProbeFaultModel>,
    /// Retry/backoff policy applied when `faults` is armed.
    pub retry: RetryPolicy,
    /// Fraction of a cluster's *informative* sampled signatures the modal
    /// signature must be compatible with for the cluster to count as
    /// homogeneous. 1.0 (the default) reproduces the strict noise-free
    /// rule; lower it under probe loss so one wrong loss-truncated
    /// signature doesn't force a full re-trace of a healthy cluster.
    pub quorum: f64,
}

impl Default for CorrectionConfig {
    fn default() -> Self {
        CorrectionConfig {
            samples_per_cluster: 3,
            seed: 0xC0,
            faults: None,
            retry: RetryPolicy::default(),
            quorum: 1.0,
        }
    }
}

/// What self-correction did, plus the corrected clustering.
#[derive(Debug)]
pub struct CorrectionReport {
    /// Unclustered clients absorbed into existing clusters.
    pub absorbed: usize,
    /// Unclustered clients that formed new clusters.
    pub new_from_unclustered: usize,
    /// Clusters that disappeared by merging into another.
    pub merged_away: usize,
    /// Clusters that passed the homogeneity quorum intact.
    pub homogeneous: usize,
    /// Clusters partitioned because their members disagreed.
    pub split: usize,
    /// Clusters kept intact because probing yielded no signal at all.
    pub no_signal: usize,
    /// Traces that produced no usable signature (all hops unresponsive);
    /// the affected clients stayed with their original cluster.
    pub unknown_signatures: usize,
    /// Probes spent — including `retries`, `timeouts`, and `gave_up`
    /// counters when a fault model is armed.
    pub probe_stats: netclust_probe::ProbeStats,
    /// The corrected clustering.
    pub clustering: Clustering,
}

/// Fraction of clusters all of whose members belong to one administrative
/// entity (an org, or a delegated customer inside ISP space) — the
/// ground-truth accuracy measure self-correction should improve.
pub fn org_purity(universe: &Universe, clustering: &Clustering) -> f64 {
    if clustering.clusters.is_empty() {
        return 0.0;
    }
    let pure = clustering
        .clusters
        .iter()
        .filter(|c| {
            let mut keys = (clustering.members(c).iter()).map(|cl| universe.admin_key(cl.addr));
            let first = keys.next().expect("clusters are non-empty");
            keys.all(|k| k == first)
        })
        .count();
    pure as f64 / clustering.clusters.len() as f64
}

/// Signature → (member addresses, original prefixes). A `BTreeMap` so the
/// compatibility scan and every downstream pass iterate deterministically.
type Groups = BTreeMap<String, (Vec<Ipv4Addr>, Vec<Ipv4Net>)>;

/// The existing group key `sig` belongs to: an exact hit, or (for real
/// signatures) the first key a partial signature is compatible with.
/// Synthetic `?`-keys (probe gave nothing) only ever match exactly.
fn group_key(groups: &Groups, sig: &str) -> Option<String> {
    if groups.contains_key(sig) {
        return Some(sig.to_string());
    }
    if sig.starts_with('?') {
        return None;
    }
    groups
        .keys()
        .find(|k| !k.starts_with('?') && sigs_compatible(k, sig))
        .cloned()
}

/// Adds `members` under `sig`, merging into a compatible existing group
/// when one exists (and re-keying that group to the more *specific* of the
/// two signatures, so wildcard keys sharpen as concrete probes land).
/// Returns `true` when an existing group was joined.
fn insert_group(
    groups: &mut Groups,
    sig: String,
    members: Vec<Ipv4Addr>,
    prefix: Option<Ipv4Net>,
) -> bool {
    match group_key(groups, &sig) {
        Some(key) => {
            let target = if key != sig && sig_specificity(&sig) > sig_specificity(&key) {
                let old = groups.remove(&key).expect("key came from the map");
                let entry = groups.entry(sig.clone()).or_default();
                entry.0.extend(old.0);
                entry.1.extend(old.1);
                sig
            } else {
                key
            };
            let entry = groups.get_mut(&target).expect("resolved key exists");
            entry.0.extend(members);
            entry.1.extend(prefix);
            true
        }
        None => {
            groups.insert(sig, (members, prefix.into_iter().collect()));
            false
        }
    }
}

/// The modal signature of a sample: the one compatible with the most
/// informative samples (ties: more specific, then lexicographically
/// smaller), with its compatible count.
fn modal_signature<'a>(informative: &[&'a String]) -> (&'a String, usize) {
    let mut best: Option<(&String, usize)> = None;
    for &s in informative {
        let n = informative.iter().filter(|t| sigs_compatible(s, t)).count();
        let better = match best {
            None => true,
            Some((m, bn)) => {
                n > bn
                    || (n == bn
                        && (sig_specificity(s) > sig_specificity(m)
                            || (sig_specificity(s) == sig_specificity(m) && s < m)))
            }
        };
        if better {
            best = Some((s, n));
        }
    }
    best.expect("informative sample is non-empty")
}

/// Runs self-correction over a clustering of `log`.
pub fn self_correct(
    universe: &Universe,
    log: &Log,
    clustering: &Clustering,
    config: &CorrectionConfig,
) -> CorrectionReport {
    self_correct_with(universe, log, clustering, config, &Obs::disabled())
}

/// [`self_correct`] reporting per-cluster quorum outcomes and probe costs
/// to `obs` as `selfcorrect.*` counters (the quorum verdict for each
/// sampled cluster — homogeneous, split, or no-signal — plus absorption,
/// merge, and probe/retry totals). Observation never changes the sampling
/// or probing schedule.
pub fn self_correct_with(
    universe: &Universe,
    log: &Log,
    clustering: &Clustering,
    config: &CorrectionConfig,
    obs: &Obs,
) -> CorrectionReport {
    let _run = obs.span("selfcorrect.run");
    let mut tracer = Traceroute::optimized(universe);
    if let Some(model) = config.faults {
        tracer = tracer.with_faults(model, config.retry);
    }
    let mut rng = stream_rng(config.seed, &[0x5E1F]);
    // `None` = the probe learned nothing (empty path or every suffix hop
    // unresponsive); such clients are never regrouped on noise.
    let sig_of = |tr: &mut Traceroute<'_>, addr: Ipv4Addr| -> Option<String> {
        let path = tr.trace(addr);
        let suffix = path.path_suffix(2);
        if suffix.is_empty()
            || suffix
                .iter()
                .all(|h| *h == netclust_probe::UNRESPONSIVE_HOP)
        {
            None
        } else {
            Some(suffix.join(">"))
        }
    };

    let mut groups: Groups = Groups::new();
    let mut split = 0usize;
    let mut unknown = 0usize;
    let mut homogeneous = 0usize;
    let mut no_signal = 0usize;
    for cluster in &clustering.clusters {
        let mut sample: Vec<Ipv4Addr> =
            clustering.members(cluster).iter().map(|c| c.addr).collect();
        sample.shuffle(&mut rng);
        sample.truncate(config.samples_per_cluster.max(1));
        let sigs: Vec<Option<String>> = sample.iter().map(|&a| sig_of(&mut tracer, a)).collect();
        let informative: Vec<&String> = sigs.iter().flatten().collect();
        unknown += sigs.len() - informative.len();
        let members: Vec<Ipv4Addr> = clustering.members(cluster).iter().map(|c| c.addr).collect();
        if informative.is_empty() {
            // Probing told us nothing about this cluster: keep it intact
            // under a synthetic key rather than scattering its clients.
            no_signal += 1;
            insert_group(
                &mut groups,
                format!("?cluster:{}", cluster.prefix),
                members,
                Some(cluster.prefix),
            );
            continue;
        }
        let (modal, compatible) = modal_signature(&informative);
        if compatible as f64 >= config.quorum * informative.len() as f64 {
            // Homogeneous by quorum: whole cluster keeps the modal
            // signature.
            homogeneous += 1;
            insert_group(&mut groups, modal.clone(), members, Some(cluster.prefix));
        } else {
            // Mixed: trace everyone and partition by signature. Clients
            // whose probe yields nothing stay together as the remainder
            // of the original cluster.
            split += 1;
            for client in clustering.members(cluster) {
                match sig_of(&mut tracer, client.addr) {
                    Some(sig) => {
                        insert_group(&mut groups, sig, vec![client.addr], None);
                    }
                    None => {
                        unknown += 1;
                        insert_group(
                            &mut groups,
                            format!("?cluster:{}", cluster.prefix),
                            vec![client.addr],
                            None,
                        );
                    }
                }
            }
        }
    }

    // Absorb unclustered clients.
    let mut absorbed = 0usize;
    let mut new_groups = 0usize;
    for client in clustering.unclustered() {
        match sig_of(&mut tracer, client.addr) {
            Some(sig) => {
                if insert_group(&mut groups, sig, vec![client.addr], None) {
                    absorbed += 1;
                } else {
                    new_groups += 1;
                }
            }
            None => {
                // Nothing learned: a deterministic singleton, so coverage
                // still reaches 1.0 without inventing a grouping.
                unknown += 1;
                groups.insert(
                    format!("?addr:{}", client.addr),
                    (vec![client.addr], Vec::new()),
                );
                new_groups += 1;
            }
        }
    }

    // Merge accounting: groups fed by more than one original prefix.
    let merged_away: usize = groups
        .values()
        .map(|(_, prefixes)| prefixes.len().saturating_sub(1))
        .sum();

    // Identifying prefix per group: the common supernet of the original
    // prefixes when any exist, else of the member host routes.
    let mut assign: HashMap<u32, Ipv4Net> = HashMap::new();
    for (_, (members, prefixes)) in groups {
        let prefix = if prefixes.is_empty() {
            members
                .iter()
                .map(|&a| host_route(a))
                .reduce(common_supernet)
                .expect("groups are non-empty")
        } else {
            prefixes
                .iter()
                .copied()
                .reduce(common_supernet)
                .expect("non-empty prefix list")
        };
        for addr in members {
            assign.insert(u32::from(addr), prefix);
        }
    }

    let corrected = Clustering::build(
        log.hits(),
        format!("{}+corrected", clustering.method),
        |a| assign.get(&u32::from(a)).copied(),
    );

    let probe_stats = tracer.stats();
    if obs.is_enabled() {
        // One correction pass per counter resolution: this is a cold path,
        // so going through the registry here is fine.
        obs.counter("selfcorrect.quorum.homogeneous")
            .add(homogeneous as u64);
        obs.counter("selfcorrect.quorum.split").add(split as u64);
        obs.counter("selfcorrect.quorum.no_signal")
            .add(no_signal as u64);
        obs.counter("selfcorrect.absorbed").add(absorbed as u64);
        obs.counter("selfcorrect.new_clusters")
            .add(new_groups as u64);
        obs.counter("selfcorrect.merged_away")
            .add(merged_away as u64);
        obs.counter("selfcorrect.unknown_signatures")
            .add(unknown as u64);
        obs.counter("selfcorrect.probes").add(probe_stats.probes);
        obs.counter("selfcorrect.probe_retries")
            .add(probe_stats.retries);
        obs.counter("selfcorrect.probe_timeouts")
            .add(probe_stats.timeouts);
        obs.counter("selfcorrect.probe_gave_up")
            .add(probe_stats.gave_up);
    }

    CorrectionReport {
        absorbed,
        new_from_unclustered: new_groups,
        merged_away,
        homogeneous,
        split,
        no_signal,
        unknown_signatures: unknown,
        probe_stats,
        clustering: corrected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, LogSpec, UniverseConfig};

    fn setup() -> (Universe, Log, Clustering) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("sc", 17);
        spec.target_clients = 500;
        spec.total_requests = 15_000;
        let log = generate(&u, &spec);
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        (u, log, clustering)
    }

    #[test]
    fn correction_improves_purity_and_coverage() {
        let (u, log, clustering) = setup();
        let before_purity = org_purity(&u, &clustering);
        let report = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
        let after_purity = org_purity(&u, &report.clustering);
        assert!(
            after_purity >= before_purity,
            "purity {before_purity} -> {after_purity}"
        );
        // Noise-free probing pins sampled clients to their org; only mixed
        // clusters the r-sample missed can stay impure.
        assert!(after_purity > 0.95, "after purity {after_purity}");
        // Everything is clustered afterwards.
        assert!(report.clustering.unclustered().is_empty());
        assert!((report.clustering.coverage() - 1.0).abs() < 1e-12);
        // Client conservation.
        assert_eq!(report.clustering.client_count(), clustering.client_count());
        assert_eq!(
            report.absorbed + report.new_from_unclustered,
            clustering.unclustered().len()
        );
    }

    #[test]
    fn merges_fragmented_orgs() {
        // An org announcing more-specifics yields several clusters for one
        // administrative entity; self-correction should reduce such
        // fragmentation (pure clusters of the same org share a signature).
        let (u, log, clustering) = setup();
        let fragmented = |cl: &Clustering| -> usize {
            // Administrative entities owning more than one *pure* cluster.
            let mut per_entity: std::collections::HashMap<u64, usize> =
                std::collections::HashMap::new();
            for c in &cl.clusters {
                let keys: std::collections::BTreeSet<_> = cl
                    .members(c)
                    .iter()
                    .map(|cc| u.admin_key(cc.addr))
                    .collect();
                if keys.len() == 1 {
                    if let Some(key) = keys.into_iter().next().flatten() {
                        *per_entity.entry(key).or_default() += 1;
                    }
                }
            }
            per_entity.values().filter(|&&n| n > 1).count()
        };
        let before = fragmented(&clustering);
        let report = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
        let after = fragmented(&report.clustering);
        assert!(after <= before, "fragmented orgs {before} -> {after}");
        if before > 0 {
            assert!(
                report.merged_away > 0,
                "expected merges for {before} fragmented orgs"
            );
            assert_eq!(after, 0, "all fragmentation should be repaired");
        }
    }

    #[test]
    fn splits_mixed_clusters() {
        let (u, log, clustering) = setup();
        // Count impure clusters before.
        let impure = |cl: &Clustering| {
            cl.clusters
                .iter()
                .filter(|c| {
                    let set: std::collections::BTreeSet<_> = cl
                        .members(c)
                        .iter()
                        .map(|cc| u.admin_key(cc.addr))
                        .collect();
                    set.len() > 1
                })
                .count()
        };
        let impure_before = impure(&clustering);
        let report = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
        if impure_before > 0 {
            assert!(
                report.split > 0,
                "expected splits for {impure_before} impure clusters"
            );
        }
        let impure_after = impure(&report.clustering);
        assert!(impure_after <= impure_before);
    }

    #[test]
    fn deterministic() {
        let (u, log, clustering) = setup();
        let a = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
        let b = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
        assert_eq!(a.clustering.len(), b.clustering.len());
        assert_eq!(a.merged_away, b.merged_away);
        assert_eq!(a.split, b.split);
        assert_eq!(a.unknown_signatures, 0);
    }

    #[test]
    fn quorum_outcomes_reach_the_registry() {
        let (u, log, clustering) = setup();
        let obs = Obs::enabled();
        let report = self_correct_with(&u, &log, &clustering, &CorrectionConfig::default(), &obs);
        let snap = obs.snapshot(true);
        let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        // Every sampled cluster got exactly one quorum verdict.
        assert_eq!(
            get("selfcorrect.quorum.homogeneous")
                + get("selfcorrect.quorum.split")
                + get("selfcorrect.quorum.no_signal"),
            clustering.clusters.len() as u64
        );
        assert_eq!(get("selfcorrect.quorum.split"), report.split as u64);
        assert_eq!(get("selfcorrect.absorbed"), report.absorbed as u64);
        assert_eq!(get("selfcorrect.probes"), report.probe_stats.probes);
        assert!(snap.spans.contains_key("selfcorrect.run"));
        // Observation is passive: the corrected clustering is identical to
        // an unobserved run.
        let plain = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
        assert_eq!(plain.clustering.len(), report.clustering.len());
        assert_eq!(plain.split, report.split);
    }

    #[test]
    fn converges_under_injected_probe_loss() {
        let (u, log, clustering) = setup();
        let clean = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
        let clean_purity = org_purity(&u, &clean.clustering);

        let lossy_config = CorrectionConfig {
            faults: Some(ProbeFaultModel::new(0xBAD).hop_loss(0.15).dest_loss(0.05)),
            quorum: 0.6,
            ..CorrectionConfig::default()
        };
        let lossy = self_correct(&u, &log, &clustering, &lossy_config);

        // The fault model actually bit, and the retry machinery engaged.
        let stats = lossy.probe_stats;
        assert!(
            stats.retries > 0 || stats.gave_up > 0,
            "loss model produced no recoveries: {stats:?}"
        );

        // Bounded error: correction under loss still clusters everyone and
        // conserves clients...
        assert!(lossy.clustering.unclustered().is_empty());
        assert!((lossy.clustering.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(lossy.clustering.client_count(), clustering.client_count());

        // ...and converges to the noise-free result within a documented
        // bound: purity within 0.10 of the clean run, cluster count within
        // 15%.
        let lossy_purity = org_purity(&u, &lossy.clustering);
        assert!(
            lossy_purity >= clean_purity - 0.10,
            "purity collapsed under loss: clean {clean_purity}, lossy {lossy_purity}"
        );
        let (clean_n, lossy_n) = (clean.clustering.len() as f64, lossy.clustering.len() as f64);
        assert!(
            (lossy_n - clean_n).abs() / clean_n <= 0.15,
            "cluster count diverged: clean {clean_n}, lossy {lossy_n}"
        );

        // Determinism under faults: same seed, same outcome.
        let replay = self_correct(&u, &log, &clustering, &lossy_config);
        assert_eq!(replay.clustering.len(), lossy.clustering.len());
        assert_eq!(replay.unknown_signatures, lossy.unknown_signatures);
        assert_eq!(replay.probe_stats.retries, lossy.probe_stats.retries);
    }
}
