//! Figure 1: distribution of prefix lengths extracted from Mae-West NAP
//! routing table snapshots — (a) histogram on one day, (b) stability over
//! four consecutive days.
//!
//! Paper reference: ≈50 % of prefixes are /24; among the rest, short
//! prefixes outnumber long ones; day-to-day counts barely move (e.g. /24
//! count 13,937 → 14,018 across 7/3–7/6/1999).

use netclust_experiments::{paper_universe, pct, print_table, PrefixLengthHistogram};
use netclust_netgen::{snapshot, VantageSpec};

fn main() {
    let universe = paper_universe();
    let spec = VantageSpec::new("MAE-WEST", 0.41, 0.06);

    // (a) Histogram on day 0.
    let day0 = snapshot(&universe, &spec, 0, 0);
    let hist = PrefixLengthHistogram::from_prefixes(day0.prefixes().iter().copied());
    #[allow(clippy::cast_possible_truncation, reason = "a bar of at most 60 columns.")]
    let rows: Vec<Vec<String>> = hist
        .nonzero()
        .map(|(len, count)| {
            vec![
                format!("/{len}"),
                count.to_string(),
                pct(hist.fraction(len)),
                "#".repeat((60.0 * hist.fraction(len)).ceil() as usize),
            ]
        })
        .collect();
    print_table(
        "Figure 1(a): prefix-length histogram, MAE-WEST day 0",
        &["len", "count", "frac", "histogram"],
        &rows,
    );
    println!(
        "total={} mode=/{} frac24={} shorter-than-24={} longer-than-24={}",
        hist.total(),
        hist.mode().unwrap_or(0),
        pct(hist.fraction(24)),
        pct(hist.fraction_shorter_than(24)),
        pct(hist.fraction_longer_than(24)),
    );
    println!("paper: ~50% of prefixes are /24; more shorter than longer among the rest");

    // (b) Length distribution over four days.
    let days: Vec<PrefixLengthHistogram> = (0..4)
        .map(|d| {
            let snap = snapshot(&universe, &spec, d, 0);
            PrefixLengthHistogram::from_prefixes(snap.prefixes().iter().copied())
        })
        .collect();
    let lengths: Vec<u8> = {
        let mut set = std::collections::BTreeSet::new();
        for h in &days {
            set.extend(h.nonzero().map(|(l, _)| l));
        }
        set.into_iter().collect()
    };
    let rows: Vec<Vec<String>> = days
        .iter()
        .enumerate()
        .map(|(d, h)| {
            let mut row = vec![format!("day {d}")];
            row.extend(lengths.iter().map(|&l| h.count(l).to_string()));
            row.push(h.total().to_string());
            row
        })
        .collect();
    let mut headers: Vec<String> = vec!["date".into()];
    headers.extend(lengths.iter().map(|l| format!("/{l}")));
    headers.push("total".into());
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Figure 1(b): prefix-length distribution over four days",
        &headers_ref,
        &rows,
    );
    println!("paper: counts per length change by well under 1% day-to-day");
}
