//! The paper's offline studies of the clustering, and the scaffolding of
//! the experiment binaries, one per table/figure of the paper.
//!
//! The product (`netclust-core`) computes one function: the longest-prefix
//! match of each client against a merged BGP/registry table. Everything
//! the paper measures *about* that function lives here, run against the
//! synthetic Internet of `netclust-netgen` and probed through
//! `netclust-probe`:
//!
//! * [`Distributions`], [`cdf`] — the per-cluster client/request/URL
//!   metrics of Figures 3–7,
//! * [`validate`] — sampled nslookup/traceroute validation (§3.3, Table 3),
//! * [`dynamics_analysis`] — the effect of BGP churn (§3.4, Table 4),
//! * [`self_correct`] — merge/split/absorb repair via traceroute sampling
//!   (§3.5),
//! * [`network_clusters`] — second-level clustering, [`session_report`] /
//!   [`split_sessions`] — time-partitioned stability, and [`selective_validate`] /
//!   [`merge_by_name_suffix`] — the ongoing-work extensions (§3.6),
//! * [`PrefixLengthHistogram`] — the prefix-length distribution of
//!   Figure 1,
//! * [`detect`] — spider and proxy identification (§4.1.2, Figures 9–10);
//!   its volume and share thresholds are the served verdict's
//!   (`netclust_core::VerdictPolicy`).
//!
//! Every binary prints a deterministic plain-text reproduction of its
//! exhibit. Workload sizes honor the `NETCLUST_SCALE` environment variable
//! (default `0.2`): presets carry the paper's published request/client
//! counts, scaled proportionally. `NETCLUST_SCALE=1` reproduces full paper
//! scale (slower); the shapes are scale-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod dynamics;
mod metrics;
mod netcluster;
mod ongoing;
mod prefix_lengths;
mod selfcorrect;
mod sessions;
mod validation;

pub use anomaly::{
    cluster_of, cluster_request_distribution, correlation, detect, hourly_histogram, strip_clients,
    AnomalyConfig, Detection,
};
pub use dynamics::{
    dynamic_prefix_set, dynamics_analysis, DynamicsRow, LogDynamics, LogUnderStudy,
};
pub use metrics::{accessed_url_count, cdf, cdf_at, unique_clients, Distributions, Summary};
pub use netcluster::{network_clusters, NetworkCluster};
pub use ongoing::{
    merge_by_name_suffix, selective_validate, MergeReport, SelectiveMode, SelectiveReport,
};
pub use prefix_lengths::PrefixLengthHistogram;
pub use selfcorrect::{
    org_purity, self_correct, self_correct_with, CorrectionConfig, CorrectionReport,
};
pub use sessions::{session_report, split_sessions, SessionReport, SessionStats};
pub use validation::{validate, SamplePlan, TestCounts, ValidationReport};

use netclust_netgen::{Log, LogSpec, Universe, UniverseConfig};

/// Universe seed shared by every experiment.
pub const UNIVERSE_SEED: u64 = 0x5EED_2000;

/// Reads the global scale factor (`NETCLUST_SCALE`, default 0.2).
pub fn scale() -> f64 {
    std::env::var("NETCLUST_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(0.2)
}

/// A paper preset scaled by [`scale`].
pub fn scaled(spec: LogSpec) -> LogSpec {
    spec.scale(scale())
}

/// A universe sized to host logs with up to `max_clients` clients
/// (clusters average ~4–6 clients, plus headroom for special clusters).
pub fn universe_for(max_clients: u64) -> Universe {
    let orgs_needed = (max_clients / 2).max(2_500);
    let num_ases = (orgs_needed as usize / 18).max(150);
    Universe::generate(UniverseConfig {
        seed: UNIVERSE_SEED,
        num_ases,
        ..UniverseConfig::default()
    })
}

/// The universe all four scaled paper logs fit in.
pub fn paper_universe() -> Universe {
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a scaled count; a float-to-int `as` saturates."
    )]
    let max = (180_000.0 * scale()) as u64; // Apache is the largest preset
    universe_for(max)
}

/// Builds the scaled Nagano log, its universe and the day-0 merged table —
/// the setup most experiments start from.
pub fn nagano_env() -> (Universe, Log, netclust_rtable::MergedTable) {
    let universe = paper_universe();
    let log = netclust_netgen::generate(&universe, &scaled(LogSpec::nagano(1)));
    let merged = netclust_netgen::standard_merged(&universe, 0);
    (universe, log, merged)
}

/// Prints a separator-delimited table with a header rule.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Downsamples a series to at most `n` points (first and last kept) for
/// compact figure output.
pub fn downsample<T: Clone>(series: &[T], n: usize) -> Vec<(usize, T)> {
    if series.is_empty() || n == 0 {
        return Vec::new();
    }
    if series.len() <= n {
        return series.iter().cloned().enumerate().collect();
    }
    let mut picks: Vec<usize> = (0..n).map(|i| i * (series.len() - 1) / (n - 1)).collect();
    picks.dedup();
    picks.into_iter().map(|i| (i, series[i].clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_keeps_ends() {
        let series: Vec<u64> = (0..1000).collect();
        let picked = downsample(&series, 10);
        assert_eq!(picked.len(), 10);
        assert_eq!(picked[0], (0, 0));
        assert_eq!(picked[9], (999, 999));
        assert_eq!(downsample(&series, 0).len(), 0);
        let short = downsample(&series[..3], 10);
        assert_eq!(short.len(), 3);
    }

    #[test]
    fn scale_default() {
        // Without the env var the default applies (tests run with a clean
        // env; guard against CI overrides).
        if std::env::var("NETCLUST_SCALE").is_err() {
            assert!((scale() - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.954), "95.4%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
