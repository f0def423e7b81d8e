//! Synthetic server-log generation.
//!
//! The generator populates a [`Log`] from a [`crate::LogSpec`] against a
//! [`Universe`]: it picks organizations to act as client populations
//! (heavy-tailed sizes — §3.2.2 observes cluster sizes from 1 to 1,343
//! clients), assigns each client a heavy-tailed request budget, draws URLs
//! from a Zipf popularity law, spreads request times over a diurnal
//! profile, and embeds the two anomalies the paper detects: **spiders**
//! (bulk crawlers that sweep many URLs in a short burst, §4.1.2) and
//! **proxies** (high-volume clients that mimic the aggregate access
//! pattern and carry many different User-Agents).

#![allow(
    clippy::cast_possible_truncation,
    reason = "every narrowing cast here converts a sample already bounded by its sampling range or spec field (hour <= 23, pareto max params, u32 URL/host ids), so none can truncate; see DESIGN.md §12."
)]

use std::fmt;
use std::net::Ipv4Addr;

use netclust_weblog::ZipfSampler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::log::{Log, LogTruth, Request, UaId, UrlMeta};
use crate::rng::{pareto_u64, stream_rng};
use crate::spec::{LogSpec, ProxySpec, SpiderSpec};
use crate::universe::Universe;

/// How many regular User-Agents there are; the spider's is the id after
/// them.
const REGULAR_UAS: UaId = 12;

const USER_AGENTS: [&str; REGULAR_UAS as usize] = [
    "Mozilla/4.04 (X11; Linux)",
    "Mozilla/4.5 (Windows 95)",
    "Mozilla/4.0 (Macintosh; PPC)",
    "Mozilla/3.01 (Windows NT)",
    "Lynx/2.8",
    "Mozilla/4.06 (X11; SunOS)",
    "Mozilla/4.5 (Windows 98)",
    "Mozilla/2.02 (OS/2)",
    "Mozilla/4.0 (compatible; MSIE 4.01; Windows 95)",
    "Mozilla/4.0 (compatible; MSIE 5.0; Windows 98)",
    "Mozilla/4.51 (Macintosh; 68K)",
    "Mozilla/3.04 (WinNT; I)",
];

const SPIDER_UA: &str = "ArachnoBot/1.0 (+http://search.example.com)";

/// A client's plan before request emission.
struct ClientPlan {
    addr: u32,
    requests: u64,
    /// Index into the UA table; `None` means "random per request" (proxy).
    ua: Option<UaId>,
    kind: ClientKind,
}

#[derive(Clone, Copy, PartialEq)]
enum ClientKind {
    /// Regular client: request count assigned from the weighted budget.
    Normal,
    /// Casual one-visit client with a small fixed request count.
    Casual,
    /// Forwarding proxy: fixed volume, aggregate-like behaviour.
    Proxy,
    /// Crawler sweeping a URL range in a burst.
    Spider {
        unique_urls: u32,
        start: u32,
        span: u32,
    },
}

/// Hour-of-day weights for the diurnal arrival profile (peaks in the
/// afternoon, trough before dawn — the shape of the paper's Figure 9(a)).
fn hourly_weights(diurnal: bool) -> [f64; 24] {
    let mut w = [1.0f64; 24];
    if diurnal {
        for (h, slot) in w.iter_mut().enumerate() {
            let phase = (h as f64 - 15.0) / 24.0 * std::f64::consts::TAU;
            *slot = 1.0 + 0.75 * phase.cos();
        }
    }
    w
}

/// Samples a second within the log duration following the hourly profile.
fn sample_time(rng: &mut StdRng, cdf: &[f64; 24], duration_s: u32) -> u32 {
    let total = cdf[23];
    let u = rng.gen_range(0.0..total);
    let hour = cdf.partition_point(|&c| c <= u).min(23) as u32;
    let days = duration_s.div_ceil(86_400).max(1);
    let day = rng.gen_range(0..days);
    (day * 86_400 + hour * 3600 + rng.gen_range(0..3600)).min(duration_s.saturating_sub(1))
}

/// Generates the URL table: paths plus heavy-tailed canonical sizes.
fn make_urls(rng: &mut StdRng, n: u32) -> Vec<UrlMeta> {
    (0..n)
        .map(|i| UrlMeta {
            path: format!("/r/{:x}/{}.html", i / 251, i),
            size: pareto_u64(rng, 1.0, 500, 5_000_000) as u32,
        })
        .collect()
}

/// The universe has too few organizations to host `spec.target_clients`
/// clients plus the special (spider/proxy) clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniverseTooSmall {
    /// Clients placed when the organizations ran out.
    pub room: u64,
}

impl fmt::Display for UniverseTooSmall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let room = self.room;
        write!(
            f,
            "universe too small: its organizations ran out after {room} clients"
        )
    }
}

impl std::error::Error for UniverseTooSmall {}

/// Generates a complete synthetic log.
///
/// Deterministic in `(universe seed, spec.seed)`. Panics on
/// [`UniverseTooSmall`]: the presets fit the universes they are run on.
pub fn generate(universe: &Universe, spec: &LogSpec) -> Log {
    try_generate(universe, spec).unwrap_or_else(|e| panic!("{e}"))
}

/// [`generate`] for a spec from outside the program, whose client count
/// may not fit.
pub fn try_generate(universe: &Universe, spec: &LogSpec) -> Result<Log, UniverseTooSmall> {
    let mut rng = stream_rng(spec.seed, &[0x106_6E4]);
    let urls = make_urls(&mut rng, spec.num_urls);
    let url_sampler = ZipfSampler::new(spec.num_urls as usize, spec.url_alpha);
    let weights = hourly_weights(spec.diurnal);
    let mut cdf = [0.0f64; 24];
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        cdf[i] = acc;
    }

    // 1. Pick organizations until the client budget is covered.
    let mut org_order: Vec<u32> = universe
        .orgs()
        .iter()
        .filter(|o| o.active_hosts > 0)
        .map(|o| o.id)
        .collect();
    org_order.shuffle(&mut rng);
    let mut org_iter = org_order.into_iter();
    let mut plans: Vec<ClientPlan> = Vec::new();
    let mut truth = LogTruth::default();
    let mut clients = 0u64;
    let mut total_weight = 0.0f64;
    let mut client_weights: Vec<f64> = Vec::new();
    let mut casual_requests = 0u64;
    while clients < spec.target_clients {
        let org_id = org_iter.next().ok_or(UniverseTooSmall { room: clients })?;
        let org = universe.org(org_id);
        let cap = (org.active_hosts as u64).min(spec.max_cluster_clients);
        let n = pareto_u64(&mut rng, spec.cluster_size_alpha, 1, cap)
            .min(spec.target_clients - clients);
        for i in 0..n {
            let addr = u32::from(org.host_addr(i as u32).expect("within active hosts"));
            let ua = Some(rng.gen_range(0..REGULAR_UAS));
            if rng.gen_bool(spec.casual_fraction) {
                // Casual one-visit client: a fixed handful of requests.
                let requests = pareto_u64(&mut rng, 1.5, 1, 25);
                casual_requests += requests;
                plans.push(ClientPlan {
                    addr,
                    requests,
                    ua,
                    kind: ClientKind::Casual,
                });
            } else {
                // Regular client: weighted share of the remaining budget.
                let w = pareto_u64(&mut rng, spec.client_weight_alpha, 10, 40_000) as f64;
                total_weight += w;
                client_weights.push(w);
                plans.push(ClientPlan {
                    addr,
                    requests: 0,
                    ua,
                    kind: ClientKind::Normal,
                });
            }
        }
        clients += n;
    }

    // 2. Special clusters: spiders and proxies live in fresh orgs with
    //    optional companion (normal) clients.
    let mut special_requests = 0u64;
    let mut place_special = |plans: &mut Vec<ClientPlan>,
                             client_weights: &mut Vec<f64>,
                             total_weight: &mut f64,
                             rng: &mut StdRng,
                             companions: u32,
                             needed_hosts: u32|
     -> Result<u32, UniverseTooSmall> {
        let org_id = loop {
            let id = org_iter.next().ok_or(UniverseTooSmall { room: clients })?;
            if universe.org(id).active_hosts >= needed_hosts {
                break id;
            }
        };
        let org = universe.org(org_id);
        for i in 0..companions {
            let w = pareto_u64(rng, 1.3, 10, 40_000) as f64;
            *total_weight += w;
            client_weights.push(w);
            plans.push(ClientPlan {
                addr: u32::from(org.host_addr(i).expect("companion host")),
                requests: 0,
                ua: Some(rng.gen_range(0..REGULAR_UAS)),
                kind: ClientKind::Normal,
            });
        }
        Ok(org_id)
    };

    for SpiderSpec {
        requests,
        unique_urls,
        companions,
    } in &spec.spiders
    {
        let org_id = place_special(
            &mut plans,
            &mut client_weights,
            &mut total_weight,
            &mut rng,
            *companions,
            companions + 1,
        )?;
        let org = universe.org(org_id);
        let addr = u32::from(org.host_addr(*companions).expect("spider host"));
        let span = (6 * 3600).min(spec.duration_s);
        let start = rng.gen_range(0..spec.duration_s.saturating_sub(span).max(1));
        plans.push(ClientPlan {
            addr,
            requests: *requests,
            ua: None,
            kind: ClientKind::Spider {
                unique_urls: (*unique_urls).min(spec.num_urls),
                start,
                span,
            },
        });
        truth.spiders.push(Ipv4Addr::from(addr));
        special_requests += requests;
    }
    for ProxySpec {
        requests,
        companions,
    } in &spec.proxies
    {
        let org_id = place_special(
            &mut plans,
            &mut client_weights,
            &mut total_weight,
            &mut rng,
            *companions,
            companions + 1,
        )?;
        let org = universe.org(org_id);
        let addr = u32::from(org.host_addr(*companions).expect("proxy host"));
        plans.push(ClientPlan {
            addr,
            requests: *requests,
            ua: None,
            kind: ClientKind::Proxy,
        });
        truth.proxies.push(Ipv4Addr::from(addr));
        special_requests += requests;
    }

    // 3. Distribute the remaining request budget over regular clients
    //    proportionally to their weights (casual clients already have
    //    fixed counts).
    let normal_budget = spec
        .total_requests
        .saturating_sub(special_requests + casual_requests);
    let mut assigned = 0u64;
    {
        let mut wi = 0usize;
        for plan in plans.iter_mut() {
            if matches!(plan.kind, ClientKind::Normal) {
                let w = client_weights[wi];
                wi += 1;
                let n = ((w / total_weight) * normal_budget as f64).round() as u64;
                plan.requests = n.max(1);
                assigned += plan.requests;
            }
        }
        // Trim or top up the heaviest client so totals match exactly.
        if let Some(plan) = plans
            .iter_mut()
            .filter(|p| matches!(p.kind, ClientKind::Normal))
            .max_by_key(|p| p.requests)
        {
            if assigned > normal_budget {
                plan.requests = plan
                    .requests
                    .saturating_sub(assigned - normal_budget)
                    .max(1);
            } else {
                plan.requests += normal_budget - assigned;
            }
        }
    }

    // 4. Emit requests.
    let est: usize = plans.iter().map(|p| p.requests as usize).sum();
    let mut requests: Vec<Request> = Vec::with_capacity(est);
    for plan in &plans {
        match plan.kind {
            ClientKind::Normal | ClientKind::Casual | ClientKind::Proxy => {
                for _ in 0..plan.requests {
                    let url = url_sampler.sample(&mut rng) as u32;
                    let ua = plan.ua.unwrap_or_else(|| rng.gen_range(0..REGULAR_UAS));
                    requests.push(Request {
                        time: sample_time(&mut rng, &cdf, spec.duration_s),
                        client: plan.addr,
                        url,
                        bytes: urls[url as usize].size,
                        status: 200,
                        ua,
                    });
                }
            }
            ClientKind::Spider {
                unique_urls,
                start,
                span,
            } => {
                let offset = rng.gen_range(0..spec.num_urls);
                for j in 0..plan.requests {
                    // Sequential sweep over a contiguous slice of the URL
                    // space, cycling when the budget exceeds the slice.
                    let url = (offset + (j as u32 % unique_urls.max(1))) % spec.num_urls;
                    requests.push(Request {
                        time: start + rng.gen_range(0..span.max(1)),
                        client: plan.addr,
                        url,
                        bytes: urls[url as usize].size,
                        status: 200,
                        ua: REGULAR_UAS, // the spider UA slot
                    });
                }
            }
        }
    }
    requests.sort_by_key(|r| r.time);

    let mut user_agents: Vec<String> = USER_AGENTS.iter().map(|s| s.to_string()).collect();
    user_agents.push(SPIDER_UA.to_string());

    Ok(Log {
        name: spec.name.clone(),
        requests,
        urls,
        user_agents,
        start_time: spec.start_time,
        duration_s: spec.duration_s,
        truth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseConfig;

    fn universe() -> Universe {
        Universe::generate(UniverseConfig::small(7))
    }

    fn tiny_spec() -> LogSpec {
        LogSpec::tiny("test", 42)
    }

    #[test]
    fn generates_requested_volume() {
        let u = universe();
        let spec = tiny_spec();
        let log = generate(&u, &spec);
        assert!(log.check().is_ok());
        // Within a few percent of the requested totals (rounding and the
        // at-least-one-request floor).
        let req = log.requests.len() as f64 / spec.total_requests as f64;
        assert!((0.9..1.1).contains(&req), "request ratio {req}");
        let clients = log.client_count() as u64;
        // Specials add a handful of extra clients.
        assert!(clients >= spec.target_clients);
        assert!(clients <= spec.target_clients + 40);
    }

    #[test]
    fn deterministic() {
        let u = universe();
        let a = generate(&u, &tiny_spec());
        let b = generate(&u, &tiny_spec());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let u = universe();
        let mut spec2 = tiny_spec();
        spec2.seed = 43;
        let a = generate(&u, &tiny_spec());
        let b = generate(&u, &spec2);
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn spider_truth_and_shape() {
        let u = universe();
        let mut spec = tiny_spec();
        spec.spiders = vec![SpiderSpec {
            requests: 3000,
            unique_urls: 150,
            companions: 4,
        }];
        let log = generate(&u, &spec);
        assert_eq!(log.truth.spiders.len(), 1);
        let spider = u32::from(log.truth.spiders[0]);
        let spider_reqs: Vec<&Request> =
            log.requests.iter().filter(|r| r.client == spider).collect();
        assert_eq!(spider_reqs.len(), 3000);
        // Bursty: the spider's activity spans at most 6 hours.
        let lo = spider_reqs.iter().map(|r| r.time).min().unwrap();
        let hi = spider_reqs.iter().map(|r| r.time).max().unwrap();
        assert!(hi - lo <= 6 * 3600);
        // Sweeps exactly the configured URL count.
        let unique: std::collections::BTreeSet<u32> = spider_reqs.iter().map(|r| r.url).collect();
        assert_eq!(unique.len(), 150);
        // Distinct spider UA.
        assert!(log.user_agents[spider_reqs[0].ua as usize].contains("ArachnoBot"));
    }

    #[test]
    fn proxy_truth_and_ua_diversity() {
        let u = universe();
        let mut spec = tiny_spec();
        spec.proxies = vec![ProxySpec {
            requests: 2000,
            companions: 1,
        }];
        let log = generate(&u, &spec);
        assert_eq!(log.truth.proxies.len(), 1);
        let proxy = u32::from(log.truth.proxies[0]);
        let uas: std::collections::BTreeSet<UaId> = log
            .requests
            .iter()
            .filter(|r| r.client == proxy)
            .map(|r| r.ua)
            .collect();
        assert!(uas.len() >= 6, "proxy UA diversity {}", uas.len());
        // Normal clients use a single UA.
        let normal = log
            .requests
            .iter()
            .find(|r| r.client != proxy)
            .map(|r| r.client)
            .unwrap();
        let normal_uas: std::collections::BTreeSet<UaId> = log
            .requests
            .iter()
            .filter(|r| r.client == normal)
            .map(|r| r.ua)
            .collect();
        assert_eq!(normal_uas.len(), 1);
    }

    #[test]
    fn diurnal_profile_shapes_arrivals() {
        let u = universe();
        let mut spec = tiny_spec();
        spec.total_requests = 20_000;
        let log = generate(&u, &spec);
        let mut by_hour = [0u64; 24];
        for r in &log.requests {
            by_hour[((r.time / 3600) % 24) as usize] += 1;
        }
        let peak = by_hour[15] as f64;
        let trough = by_hour[3].max(1) as f64;
        assert!(peak / trough > 2.0, "peak {peak} trough {trough}");
    }

    #[test]
    fn request_bytes_match_url_sizes() {
        let u = universe();
        let log = generate(&u, &tiny_spec());
        for r in log.requests.iter().take(500) {
            assert_eq!(r.bytes, log.urls[r.url as usize].size);
        }
    }

    #[test]
    fn heavy_tail_in_per_client_requests() {
        let u = universe();
        let mut spec = tiny_spec();
        spec.total_requests = 30_000;
        let log = generate(&u, &spec);
        let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for r in &log.requests {
            *counts.entry(r.client).or_default() += 1;
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10 % of clients issue well over a third of requests.
        let top: u64 = v[..v.len() / 10].iter().sum();
        let all: u64 = v.iter().sum();
        assert!(
            top as f64 / all as f64 > 0.35,
            "top share {}",
            top as f64 / all as f64
        );
    }
}
