//! `compare A B`: two sets of run records, one row per workload × metric —
//! the change of the median against the metric's bound, `unresolved`
//! where the run-to-run spread is wider than the bound. Exit 1 on a
//! worsening beyond a bound or a higher share of failed operations.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, spread};

/// Values of one set, by workload and metric; plus operations per workload.
#[derive(Debug, Default)]
pub struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    ops: BTreeMap<String, (u64, u64)>,
    quick: bool,
}

impl RunSet {
    /// Reads run records, one JSON object per line.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let rec = Json::parse(line).ok_or(format!("line {}: not a JSON record", n + 1))?;
            let workload = rec
                .get("workload")
                .and_then(Json::as_str)
                .ok_or(format!("line {}: no workload", n + 1))?;
            set.quick |= rec.get("quick") == Some(&Json::Bool(true));
            let ops = set.ops.entry(workload.to_string()).or_default();
            ops.0 += rec.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            ops.1 += rec.get("failed").and_then(Json::as_u64).unwrap_or(0);
            for (name, m) in rec
                .get("metrics")
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
            {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    set.values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
        Ok(set)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Change of the median in the worse direction, as a share of A's.
    pub worse_by: f64,
    pub bound: Option<f64>,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub status: &'static str,
}

struct Spec {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn spec_metrics(spec: &Json) -> Result<Vec<Spec>, String> {
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in spec
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("spec has no {key}"))?
        {
            out.push(Spec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// One row per workload × metric present in both sets, in spec order.
pub fn rows(spec: &Json, a: &RunSet, b: &RunSet) -> Result<Vec<Row>, String> {
    let metrics = spec_metrics(spec)?;
    let mut out = Vec::new();
    for workload in a.ops.keys().filter(|w| b.ops.contains_key(*w)) {
        for m in &metrics {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse_by = if m.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
            let (spread_a, spread_b) = (spread(va), spread(vb));
            let every_b_better = va.iter().all(|x| {
                vb.iter()
                    .all(|y| if m.lower_is_better { y < x } else { y > x })
            });
            let status = match m.bound {
                None => "-",
                Some(bound) if worse_by > bound => "WORSE",
                Some(_) if every_b_better => "better",
                Some(bound)
                    if [spread_a, spread_b]
                        .into_iter()
                        .flatten()
                        .any(|s| s > bound) =>
                {
                    "unresolved"
                }
                Some(_) => "ok",
            };
            out.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: ma,
                b: mb,
                worse_by,
                bound: m.bound,
                spread_a,
                spread_b,
                status,
            });
        }
    }
    Ok(out)
}

/// Workloads on which B failed a higher share of its operations than A.
pub fn higher_failed_share(a: &RunSet, b: &RunSet) -> Vec<String> {
    let share = |(attempted, failed): (u64, u64)| failed as f64 / attempted.max(1) as f64;
    a.ops
        .iter()
        .filter(|(w, ops)| b.ops.get(*w).is_some_and(|o| share(*o) > share(**ops)))
        .map(|(w, _)| w.clone())
        .collect()
}

fn pct(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0))
}

/// The `compare` subcommand; returns the process exit code.
pub fn main(spec_path: &str, a_path: &str, b_path: &str) -> Result<i32, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = Json::parse(&read(spec_path)?).ok_or(format!("{spec_path}: not JSON"))?;
    let (a, b) = (
        RunSet::parse(&read(a_path)?)?,
        RunSet::parse(&read(b_path)?)?,
    );
    if a.quick || b.quick {
        return Err("a set holds --quick runs, which are never comparable".to_string());
    }
    println!(
        "{:<8} {:<34} {:>12} {:>12} {:>9} {:>7} {:>9} {:>9}  status",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread A", "spread B"
    );
    let rows = rows(&spec, &a, &b)?;
    for r in &rows {
        println!(
            "{:<8} {:<34} {:>12.4} {:>12.4} {:>9} {:>7} {:>9} {:>9}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            pct(Some(r.worse_by)),
            pct(r.bound),
            pct(r.spread_a),
            pct(r.spread_b),
            r.status
        );
    }
    let worse = rows.iter().filter(|r| r.status == "WORSE").count();
    let unresolved = rows.iter().filter(|r| r.status == "unresolved").count();
    let failing = higher_failed_share(&a, &b);
    for w in &failing {
        println!("{w}: B fails a higher share of its operations than A");
    }
    println!(
        "{worse} beyond bound, {unresolved} unresolved, {} rows",
        rows.len()
    );
    Ok(if worse > 0 || !failing.is_empty() {
        1
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "{\"end_to_end\": [\
        {\"name\": \"lat_ms\", \"unit\": \"ms\", \"better\": \"lower\", \"bound\": 0.1}, \
        {\"name\": \"mb_s\", \"unit\": \"MB/s\", \"better\": \"higher\", \"bound\": 0.1}], \
        \"per_layer\": [{\"name\": \"layer_ns\", \"unit\": \"ns\", \"better\": \"lower\"}]}";

    fn set(lat: &[f64], mb: &[f64], failed: u64) -> RunSet {
        let mut text = String::new();
        for (l, m) in lat.iter().zip(mb) {
            text.push_str(&format!(
                "{{\"workload\": \"narrow\", \"quick\": false, \"attempted\": 100, \"failed\": {failed}, \
                 \"metrics\": {{\"lat_ms\": {{\"value\": {l}, \"unit\": \"ms\"}}, \
                 \"mb_s\": {{\"value\": {m}, \"unit\": \"MB/s\"}}, \
                 \"layer_ns\": {{\"value\": 5, \"unit\": \"ns\"}}}}}}\n"
            ));
        }
        RunSet::parse(&text).expect("records")
    }

    fn status(a: &RunSet, b: &RunSet) -> Vec<&'static str> {
        let spec = Json::parse(SPEC).expect("spec");
        rows(&spec, a, b)
            .expect("rows")
            .iter()
            .map(|r| r.status)
            .collect()
    }

    #[test]
    fn steady_sets_of_one_commit_agree() {
        let a = set(&[10.0, 10.1, 10.2, 9.9], &[100.0, 101.0, 99.0, 100.5], 0);
        let b = set(&[10.1, 10.0, 10.3, 9.8], &[100.2, 100.9, 99.5, 100.0], 0);
        assert_eq!(status(&a, &b), ["ok", "ok", "-"]);
        assert!(higher_failed_share(&a, &b).is_empty());
    }

    #[test]
    fn a_worsening_beyond_the_bound_is_flagged_in_either_direction() {
        let a = set(&[10.0, 10.1, 10.2, 9.9], &[100.0, 101.0, 99.0, 100.5], 0);
        let slow = set(&[12.0, 12.1, 12.2, 11.9], &[80.0, 81.0, 79.0, 80.5], 0);
        assert_eq!(status(&a, &slow), ["WORSE", "WORSE", "-"]);
        assert_eq!(status(&slow, &a), ["better", "better", "-"]);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = set(&[10.0, 14.0, 7.0, 12.0], &[100.0; 4], 0);
        let b = set(&[10.5, 13.0, 8.0, 11.0], &[100.0; 4], 0);
        assert_eq!(status(&a, &b)[0], "unresolved");
    }

    #[test]
    fn a_higher_failed_share_is_reported() {
        let a = set(&[10.0, 10.0], &[100.0, 100.0], 0);
        let b = set(&[10.0, 10.0], &[100.0, 100.0], 2);
        assert_eq!(higher_failed_share(&a, &b), ["narrow"]);
        assert!(higher_failed_share(&b, &a).is_empty());
    }
}
