//! The paper's stated *ongoing work*, implemented (§3.3 end, §6):
//!
//! * **Merging too-small clusters by name suffix** — "it is possible for
//!   clients with similar suffixes to be present in other clusters ... we
//!   are looking into merging such clusters as part of ongoing work".
//!   [`merge_by_name_suffix`] resolves a sample of each cluster and merges
//!   clusters sharing a non-trivial DNS suffix, optionally guarded by the
//!   origin AS of the identifying prefix ("Ongoing work includes using
//!   information on ASes to reduce the error ratio").
//! * **Selective-sampling validation** — "an alternative way to validate
//!   is to set a threshold (say 5%) ... performed in either a client-based
//!   or a request-based manner". [`selective_validate`] scores each
//!   sampled cluster by the fraction of (clients | requests) agreeing with
//!   the majority identity and passes it under a tolerance.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netclust_core::Clustering;
use netclust_netgen::{common_supernet, stream_rng, Log, Universe};
use netclust_prefix::Ipv4Net;
use netclust_probe::{name_suffix, Nslookup, TraceOutcome, Traceroute};
use rand::seq::SliceRandom;

use crate::validation::SamplePlan;

/// Result of a suffix-based merge pass.
#[derive(Debug)]
pub struct MergeReport {
    /// Merge operations applied (clusters removed by merging).
    pub merged_away: usize,
    /// Clusters with no resolvable sample (left untouched).
    pub unresolvable_clusters: usize,
    /// Merges prevented by the AS guard (same suffix, different AS).
    pub blocked_by_as_guard: usize,
    /// The merged clustering.
    pub clustering: Clustering,
}

/// Merges clusters whose sampled clients share a non-trivial DNS suffix.
///
/// For each cluster, up to `samples_per_cluster` clients are resolved; the
/// first resolvable name's suffix labels the cluster. Clusters sharing a
/// label merge (identifying prefix = common supernet). When `as_of` is
/// provided, clusters only merge if their identifying prefixes map to the
/// same origin AS — the §6 AS hint that prevents accidentally merging
/// identically-named-but-unrelated networks.
pub fn merge_by_name_suffix<F>(
    universe: &Universe,
    log: &Log,
    clustering: &Clustering,
    samples_per_cluster: usize,
    seed: u64,
    as_of: Option<F>,
) -> MergeReport
where
    F: Fn(Ipv4Net) -> Option<u32>,
{
    let mut nslookup = Nslookup::new(universe);
    let mut rng = stream_rng(seed, &[0x4E66E]);
    // Label each cluster by (suffix, AS hint).
    let mut label_of: Vec<Option<(String, Option<u32>)>> =
        Vec::with_capacity(clustering.clusters.len());
    let mut unresolvable = 0usize;
    for cluster in &clustering.clusters {
        let mut sample: Vec<Ipv4Addr> =
            clustering.members(cluster).iter().map(|c| c.addr).collect();
        sample.shuffle(&mut rng);
        sample.truncate(samples_per_cluster.max(1));
        let suffix = sample
            .iter()
            .find_map(|&a| nslookup.resolve(a))
            .map(|name| name_suffix(&name).to_string());
        match suffix {
            Some(s) => {
                let hint = as_of.as_ref().and_then(|f| f(cluster.prefix));
                label_of.push(Some((s, hint)));
            }
            None => {
                unresolvable += 1;
                label_of.push(None);
            }
        }
    }

    // Group by suffix; the AS guard splits a suffix group by hint.
    let mut groups: HashMap<(String, Option<u32>), Vec<usize>> = HashMap::new();
    let mut suffix_only: HashMap<String, std::collections::BTreeSet<Option<u32>>> = HashMap::new();
    for (idx, label) in label_of.iter().enumerate() {
        if let Some((suffix, hint)) = label {
            groups.entry((suffix.clone(), *hint)).or_default().push(idx);
            suffix_only.entry(suffix.clone()).or_default().insert(*hint);
        }
    }
    let blocked_by_as_guard = if as_of.is_some() {
        suffix_only
            .values()
            .map(|hints| hints.len().saturating_sub(1))
            .sum()
    } else {
        0
    };

    // Build the merged assignment.
    let mut assign: HashMap<u32, Ipv4Net> = HashMap::new();
    let mut merged_away = 0usize;
    let mut grouped = vec![false; clustering.clusters.len()];
    for members in groups.values() {
        let prefix = members
            .iter()
            .map(|&i| clustering.clusters[i].prefix)
            .reduce(common_supernet)
            .expect("groups are non-empty");
        merged_away += members.len() - 1;
        for &i in members {
            grouped[i] = true;
            for c in clustering.members(&clustering.clusters[i]) {
                assign.insert(u32::from(c.addr), prefix);
            }
        }
    }
    for (idx, cluster) in clustering.clusters.iter().enumerate() {
        if !grouped[idx] {
            for c in clustering.members(cluster) {
                assign.insert(u32::from(c.addr), cluster.prefix);
            }
        }
    }

    let merged = Clustering::build(
        log.hits(),
        format!("{}+suffix-merged", clustering.method),
        |a| assign.get(&u32::from(a)).copied(),
    );
    MergeReport {
        merged_away,
        unresolvable_clusters: unresolvable,
        blocked_by_as_guard,
        clustering: merged,
    }
}

/// How selective validation weighs agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectiveMode {
    /// Fraction of *clients* agreeing with the majority identity.
    ClientBased,
    /// Fraction of *requests* issued by agreeing clients.
    RequestBased,
}

/// Result of selective-sampling validation.
#[derive(Debug, Clone)]
pub struct SelectiveReport {
    /// Tolerance used (e.g. 0.05 = a cluster passes at ≥95 % agreement).
    pub tolerance: f64,
    /// Mode used.
    pub mode: SelectiveMode,
    /// Sampled clusters.
    pub sampled_clusters: usize,
    /// Clusters passing under the tolerance.
    pub passed: usize,
    /// Clusters that would fail the strict (all-must-agree) test but pass
    /// the tolerant one — the benefit of selective sampling.
    pub rescued: usize,
}

impl SelectiveReport {
    /// Pass rate among sampled clusters.
    pub fn pass_rate(&self) -> f64 {
        if self.sampled_clusters == 0 {
            0.0
        } else {
            self.passed as f64 / self.sampled_clusters as f64
        }
    }
}

/// Validates sampled clusters with a tolerance: a cluster passes when at
/// least `1 - tolerance` of its sampled clients (or their requests) share
/// the majority traceroute identity (name suffix, or path suffix when
/// unresolvable).
pub fn selective_validate(
    universe: &Universe,
    clustering: &Clustering,
    plan: &SamplePlan,
    tolerance: f64,
    mode: SelectiveMode,
) -> SelectiveReport {
    assert!((0.0..1.0).contains(&tolerance), "tolerance in [0,1)");
    let mut tracer = Traceroute::optimized(universe);
    let mut rng = stream_rng(plan.seed, &[0x5E1_EC7]);
    let mut order: Vec<usize> = (0..clustering.clusters.len()).collect();
    order.shuffle(&mut rng);
    #[allow(clippy::cast_possible_truncation, reason = "capped at the cluster count below.")]
    let n_sample = ((clustering.clusters.len() as f64 * plan.fraction).round() as usize)
        .max(plan.min_clusters)
        .min(clustering.clusters.len());
    order.truncate(n_sample);

    let mut passed = 0usize;
    let mut rescued = 0usize;
    for &idx in &order {
        let cluster = &clustering.clusters[idx];
        // Identity per sampled client, weighted by requests.
        let mut weights: HashMap<String, (u64, u64)> = HashMap::new(); // id -> (clients, requests)
        for client in clustering
            .members(cluster)
            .iter()
            .take(plan.max_clients_per_cluster)
        {
            let outcome = tracer.trace(client.addr);
            let id = match &outcome {
                TraceOutcome::Reached {
                    name: Some(name), ..
                } => {
                    format!("n:{}", name_suffix(name))
                }
                _ => format!("p:{}", outcome.path_suffix(2).join(">")),
            };
            let e = weights.entry(id).or_default();
            e.0 += 1;
            e.1 += client.requests;
        }
        let total: (u64, u64) = weights
            .values()
            .fold((0, 0), |acc, v| (acc.0 + v.0, acc.1 + v.1));
        let majority = weights
            .values()
            .map(|v| match mode {
                SelectiveMode::ClientBased => v.0,
                SelectiveMode::RequestBased => v.1,
            })
            .max()
            .unwrap_or(0);
        let denom = match mode {
            SelectiveMode::ClientBased => total.0,
            SelectiveMode::RequestBased => total.1,
        };
        let agreement = if denom == 0 {
            1.0
        } else {
            majority as f64 / denom as f64
        };
        if agreement >= 1.0 - tolerance {
            passed += 1;
            if weights.len() > 1 {
                rescued += 1; // strict test would have failed
            }
        }
    }
    SelectiveReport {
        tolerance,
        mode,
        sampled_clusters: n_sample,
        passed,
        rescued,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfcorrect::org_purity;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, LogSpec, UniverseConfig};

    fn setup() -> (Universe, Log, Clustering) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("og", 17);
        spec.target_clients = 500;
        spec.total_requests = 15_000;
        let log = generate(&u, &spec);
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        (u, log, clustering)
    }

    #[test]
    fn suffix_merge_reduces_cluster_count_and_keeps_clients() {
        // A universe where a fifth of the orgs announce more-specifics, so
        // fragmentation (the merge target) is plentiful.
        let u = Universe::generate(UniverseConfig {
            more_specific_fraction: 0.3,
            num_ases: 60,
            ..UniverseConfig::small(7)
        });
        let mut spec = LogSpec::tiny("og-frag", 17);
        spec.target_clients = 900;
        spec.total_requests = 20_000;
        let log = generate(&u, &spec);
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let report = merge_by_name_suffix(
            &u,
            &log,
            &clustering,
            6,
            1,
            None::<fn(Ipv4Net) -> Option<u32>>,
        );
        assert_eq!(report.clustering.client_count(), clustering.client_count());
        assert_eq!(
            report.clustering.len(),
            clustering.len() - report.merged_away,
            "count bookkeeping"
        );
        // There are more-specific orgs in the universe, so some merges
        // should happen.
        assert!(report.merged_away > 0, "expected suffix merges");
        // Merging same-suffix clusters cannot reduce admin purity much:
        // suffixes identify admin entities.
        let before = org_purity(&u, &clustering);
        let after = org_purity(&u, &report.clustering);
        assert!(after >= before - 0.02, "purity {before} -> {after}");
    }

    #[test]
    fn as_guard_blocks_cross_as_merges() {
        let (u, log, clustering) = setup();
        // A degenerate AS hint that maps every prefix to a distinct "AS"
        // blocks every merge.
        let mut counter = 0u32;
        let unique: HashMap<Ipv4Net, u32> = clustering
            .clusters
            .iter()
            .map(|c| {
                counter += 1;
                (c.prefix, counter)
            })
            .collect();
        let report = merge_by_name_suffix(
            &u,
            &log,
            &clustering,
            3,
            1,
            Some(|p: Ipv4Net| unique.get(&p).copied()),
        );
        assert_eq!(
            report.merged_away, 0,
            "unique AS hints must block all merges"
        );
        // And the constant hint behaves like no guard.
        let constant =
            merge_by_name_suffix(&u, &log, &clustering, 3, 1, Some(|_: Ipv4Net| Some(1u32)));
        let unguarded = merge_by_name_suffix(
            &u,
            &log,
            &clustering,
            3,
            1,
            None::<fn(Ipv4Net) -> Option<u32>>,
        );
        assert_eq!(constant.merged_away, unguarded.merged_away);
    }

    #[test]
    fn selective_validation_is_more_tolerant_than_strict() {
        let (u, _log, clustering) = setup();
        let plan = SamplePlan {
            fraction: 1.0,
            min_clusters: 10,
            ..Default::default()
        };
        let strict = selective_validate(&u, &clustering, &plan, 0.0, SelectiveMode::ClientBased);
        let tolerant = selective_validate(&u, &clustering, &plan, 0.10, SelectiveMode::ClientBased);
        assert!(tolerant.passed >= strict.passed);
        assert!(tolerant.pass_rate() >= strict.pass_rate());
        assert_eq!(strict.rescued, 0, "strict mode rescues nothing");
        // Request-based mode also works and stays in range.
        let by_req = selective_validate(&u, &clustering, &plan, 0.05, SelectiveMode::RequestBased);
        assert!((0.0..=1.0).contains(&by_req.pass_rate()));
        assert_eq!(by_req.sampled_clusters, strict.sampled_clusters);
    }
}
