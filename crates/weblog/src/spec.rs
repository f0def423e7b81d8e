//! Log specifications and paper-calibrated presets.
//!
//! §3.2.2 evaluates on "a very wide range of Web server logs"; four are
//! named and characterized well enough to reproduce: **Nagano** (the 1998
//! Winter Olympics day extract — 11.7 M requests, 59,582 clients, 33,875
//! URLs, one day), **Apache**, **EW3** (Easy World Wide Web) and **Sun**
//! (whose spider issues 692,453 requests over 4,426 of 116,274 URLs, and
//! whose proxy cluster holds two clients issuing 2,699 and 323,867
//! requests). The presets below encode those published marginals; a
//! [`LogSpec::scale`] factor shrinks everything proportionally for
//! faster runs.

/// A spider to embed in a generated log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpiderSpec {
    /// Requests the spider issues.
    pub requests: u64,
    /// Distinct URLs it sweeps.
    pub unique_urls: u32,
    /// Normal clients sharing the spider's cluster.
    pub companions: u32,
}

/// A proxy to embed in a generated log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxySpec {
    /// Requests the proxy forwards.
    pub requests: u64,
    /// Normal clients sharing the proxy's cluster.
    pub companions: u32,
}

/// Full specification of a synthetic server log.
#[derive(Debug, Clone)]
pub struct LogSpec {
    /// Log name.
    pub name: String,
    /// Generation seed (independent of the universe seed).
    pub seed: u64,
    /// Unix epoch of the log start.
    pub start_time: u64,
    /// Covered duration in seconds.
    pub duration_s: u32,
    /// Total requests to emit (specials included).
    pub total_requests: u64,
    /// Distinct normal clients.
    pub target_clients: u64,
    /// Size of the URL space.
    pub num_urls: u32,
    /// Zipf exponent for URL popularity (≈0.7–1.0 per Breslau et al.).
    pub url_alpha: f64,
    /// Pareto exponent for clients-per-cluster sizes.
    pub cluster_size_alpha: f64,
    /// Upper bound on clients per cluster (the paper's largest: 1,343).
    pub max_cluster_clients: u64,
    /// Pareto exponent for per-client request weight.
    pub client_weight_alpha: f64,
    /// Fraction of clients that are *casual*: one-visit browsers issuing
    /// only a handful of requests (1–25). Real logs mix such clients with
    /// heavy regulars, which is why per-cluster request counts span 1 to
    /// hundreds of thousands (§3.2.2).
    pub casual_fraction: f64,
    /// Whether arrivals follow the diurnal profile.
    pub diurnal: bool,
    /// Embedded spiders.
    pub spiders: Vec<SpiderSpec>,
    /// Embedded proxies.
    pub proxies: Vec<ProxySpec>,
}

/// 13/Feb/1998 00:00:00 UTC — the Nagano extract's day.
const NAGANO_DAY: u64 = 887_328_000;

impl LogSpec {
    /// The Nagano Olympic server log preset: one day, 11.7 M requests,
    /// 59,582 clients, 33,875 URLs, no spiders (a transient event site),
    /// and one single-client proxy cluster issuing 77,311 requests.
    pub fn nagano(seed: u64) -> Self {
        LogSpec {
            name: "nagano".into(),
            seed,
            start_time: NAGANO_DAY,
            duration_s: 86_400,
            total_requests: 11_665_713,
            target_clients: 59_582,
            num_urls: 33_875,
            // The Olympics event log is extremely popularity-skewed — the
            // paper notes its unusually high cache hit ratios (60-75%).
            url_alpha: 1.05,
            cluster_size_alpha: 1.12,
            max_cluster_clients: 1_343,
            client_weight_alpha: 1.3,
            casual_fraction: 0.5,
            diurnal: true,
            spiders: vec![],
            proxies: vec![ProxySpec {
                requests: 77_311,
                companions: 0,
            }],
        }
    }

    /// The Sun server log preset: a week, ~9 M requests, 116,274 URLs, one
    /// spider (692,453 requests over 4,426 URLs in a 27-host cluster) and
    /// one proxy (323,867 requests, one 2,699-request companion).
    pub fn sun(seed: u64) -> Self {
        LogSpec {
            name: "sun".into(),
            seed,
            start_time: NAGANO_DAY + 30 * 86_400,
            duration_s: 7 * 86_400,
            total_requests: 9_000_000,
            target_clients: 160_000,
            num_urls: 116_274,
            url_alpha: 0.8,
            cluster_size_alpha: 1.18,
            max_cluster_clients: 900,
            client_weight_alpha: 1.3,
            casual_fraction: 0.5,
            diurnal: true,
            spiders: vec![SpiderSpec {
                requests: 692_453,
                unique_urls: 4_426,
                companions: 26,
            }],
            proxies: vec![ProxySpec {
                requests: 323_867,
                companions: 1,
            }],
        }
    }

    /// The Apache server log preset: a large, popular-site log.
    pub fn apache(seed: u64) -> Self {
        LogSpec {
            name: "apache".into(),
            seed,
            start_time: NAGANO_DAY + 60 * 86_400,
            duration_s: 7 * 86_400,
            total_requests: 12_000_000,
            target_clients: 180_000,
            num_urls: 60_000,
            url_alpha: 0.85,
            cluster_size_alpha: 1.18,
            max_cluster_clients: 1_100,
            client_weight_alpha: 1.3,
            casual_fraction: 0.5,
            diurnal: true,
            spiders: vec![SpiderSpec {
                requests: 250_000,
                unique_urls: 20_000,
                companions: 5,
            }],
            proxies: vec![ProxySpec {
                requests: 150_000,
                companions: 2,
            }],
        }
    }

    /// The EW3 (Easy World Wide Web) preset: a mid-size commercial log.
    pub fn ew3(seed: u64) -> Self {
        LogSpec {
            name: "ew3".into(),
            seed,
            start_time: NAGANO_DAY + 90 * 86_400,
            duration_s: 86_400,
            total_requests: 2_500_000,
            target_clients: 90_000,
            num_urls: 20_000,
            url_alpha: 0.85,
            cluster_size_alpha: 1.15,
            max_cluster_clients: 800,
            client_weight_alpha: 1.3,
            casual_fraction: 0.5,
            diurnal: true,
            spiders: vec![],
            proxies: vec![ProxySpec {
                requests: 90_000,
                companions: 1,
            }],
        }
    }

    /// A minimal spec for unit tests: seconds to generate, thousands of
    /// requests.
    pub fn tiny(name: &str, seed: u64) -> Self {
        LogSpec {
            name: name.into(),
            seed,
            start_time: NAGANO_DAY,
            duration_s: 86_400,
            total_requests: 10_000,
            target_clients: 300,
            num_urls: 500,
            url_alpha: 0.85,
            cluster_size_alpha: 1.12,
            max_cluster_clients: 100,
            client_weight_alpha: 1.3,
            casual_fraction: 0.5,
            diurnal: true,
            spiders: vec![],
            proxies: vec![],
        }
    }

    /// Scales request, client, URL and anomaly volumes by `factor`
    /// (duration unchanged). Useful for fast experiment runs; the paper's
    /// shapes are scale-free.
    pub fn scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        #[allow(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates.")]
        let s = |v: u64| ((v as f64 * factor).round() as u64).max(1);
        // Scaled u32 fields saturate rather than wrap on absurd factors.
        let s32 = |v: u32| u32::try_from(s(u64::from(v))).unwrap_or(u32::MAX);
        self.total_requests = s(self.total_requests);
        self.target_clients = s(self.target_clients);
        self.num_urls = s32(self.num_urls);
        self.max_cluster_clients = s(self.max_cluster_clients);
        for sp in &mut self.spiders {
            sp.requests = s(sp.requests);
            sp.unique_urls = s32(sp.unique_urls);
        }
        for px in &mut self.proxies {
            px.requests = s(px.requests);
        }
        self
    }

    /// The four paper presets, in the order Figure 6 plots them.
    pub fn paper_presets(seed: u64) -> Vec<LogSpec> {
        vec![
            Self::apache(seed),
            Self::ew3(seed),
            Self::nagano(seed),
            Self::sun(seed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_published_marginals() {
        let n = LogSpec::nagano(1);
        assert_eq!(n.total_requests, 11_665_713);
        assert_eq!(n.target_clients, 59_582);
        assert_eq!(n.num_urls, 33_875);
        assert_eq!(n.duration_s, 86_400);
        assert!(n.spiders.is_empty());
        let s = LogSpec::sun(1);
        assert_eq!(s.spiders[0].requests, 692_453);
        assert_eq!(s.spiders[0].unique_urls, 4_426);
        assert_eq!(s.spiders[0].companions, 26);
        assert_eq!(s.proxies[0].requests, 323_867);
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let s = LogSpec::sun(1).scale(0.1);
        assert_eq!(s.total_requests, 900_000);
        assert_eq!(s.target_clients, 16_000);
        assert_eq!(s.spiders[0].requests, 69_245);
        assert_eq!(s.duration_s, 7 * 86_400); // unchanged
    }

    #[test]
    fn paper_presets_order() {
        let names: Vec<String> = LogSpec::paper_presets(1)
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["apache", "ew3", "nagano", "sun"]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = LogSpec::tiny("t", 1).scale(0.0);
    }
}
