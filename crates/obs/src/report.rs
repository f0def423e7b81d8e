//! Snapshots and their deterministic JSON rendering.

use std::collections::BTreeMap;

use crate::metric::{bucket_bounds, octave_bounds};
use crate::registry::Registry;

/// One histogram's state at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty buckets as `(lo, hi, count)` with inclusive bounds,
    /// ascending by `lo`: eight a power of two, or one in a deterministic
    /// snapshot.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// One span path's aggregated timing at snapshot time. All `_ns` fields are
/// clock-derived and zeroed in deterministic mode; `count` is kept (it is
/// data-derived and reproducible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Times the span closed.
    pub count: u64,
    /// Total nanoseconds across closes.
    pub total_ns: u64,
    /// Fastest close.
    pub min_ns: u64,
    /// Slowest close.
    pub max_ns: u64,
}

/// A point-in-time copy of a registry, ordered for deterministic rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates by nested path (`parent/child`).
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Whether clock-derived fields were zeroed at capture.
    pub deterministic: bool,
}

impl Snapshot {
    pub(crate) fn empty(deterministic: bool) -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
            deterministic,
        }
    }

    pub(crate) fn capture(reg: &Registry, deterministic: bool) -> Self {
        fn locked<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
            m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
        }
        let mut snap = Snapshot::empty(deterministic);
        for (name, cell) in locked(&reg.counters).iter() {
            snap.counters.insert(name.clone(), cell.sum());
        }
        for (name, cell) in locked(&reg.gauges).iter() {
            snap.gauges.insert(
                name.clone(),
                // ordering: telemetry snapshot; gauge staleness is fine.
                cell.load(std::sync::atomic::Ordering::Relaxed),
            );
        }
        for (name, cell) in locked(&reg.histograms).iter() {
            let (count, sum, raw) = cell.read();
            let mut buckets: Vec<(u64, u64, u64)> = Vec::new();
            for (i, &n) in raw.iter().enumerate().filter(|&(_, &n)| n > 0) {
                let (lo, hi) = bucket_bounds(i);
                // A deterministic snapshot folds the sub-buckets into their
                // power of two: its histograms count input-fixed values
                // (chunk sizes, deltas a batch), and its bytes are compared
                // across builds, which have always rendered those buckets.
                let (lo, hi) = if deterministic {
                    octave_bounds(lo)
                } else {
                    (lo, hi)
                };
                match buckets.last_mut() {
                    Some(last) if last.0 == lo => last.2 += n,
                    _ => buckets.push((lo, hi, n)),
                }
            }
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            );
        }
        for (path, stats) in locked(&reg.spans).iter() {
            let s = if deterministic {
                SpanSnapshot {
                    count: stats.count,
                    total_ns: 0,
                    min_ns: 0,
                    max_ns: 0,
                }
            } else {
                SpanSnapshot {
                    count: stats.count,
                    total_ns: stats.total_ns,
                    min_ns: stats.min_ns,
                    max_ns: stats.max_ns,
                }
            };
            snap.spans.insert(path.clone(), s);
        }
        snap
    }

    /// Render as JSON: sorted keys, two-space indent, no floats — byte-
    /// identical for equal snapshots, which is what the CI snapshot test
    /// compares.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"version\": 1,\n");
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));

        out.push_str("  \"counters\": {");
        render_scalar_map(&mut out, &self.counters);
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        render_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                escape(name),
                h.count,
                h.sum
            ));
            for (i, (lo, hi, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"lo\": {lo}, \"hi\": {hi}, \"n\": {n}}}"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        out.push_str("  \"spans\": {");
        first = true;
        for (path, s) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                escape(path),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn render_scalar_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (name, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", escape(name), v));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

/// Escapes a string for embedding in a JSON string literal — the one
/// escaper every JSON writer in the workspace shares.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::escape;
    use crate::Obs;

    #[test]
    fn escaping_covers_the_dangerous_characters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn deterministic_json_is_stable() {
        let make = || {
            let obs = Obs::enabled();
            obs.counter("a.hits").add(3);
            obs.gauge("a.level").set(9);
            obs.histogram("a.sizes").record(5);
            obs.histogram("a.sizes").record(1000);
            {
                let _s = obs.span("work");
            }
            obs.snapshot(true).to_json()
        };
        let one = make();
        let two = make();
        assert_eq!(one, two);
        assert!(one.contains("\"a.hits\": 3"));
        assert!(one.contains("\"total_ns\": 0"));
    }

    #[test]
    fn non_deterministic_keeps_timings() {
        let obs = Obs::enabled();
        {
            let _s = obs.span("work");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = obs.snapshot(false);
        assert!(snap.spans.get("work").expect("span").total_ns > 0);
    }

    #[test]
    fn empty_sections_render_compact() {
        let json = Obs::disabled().snapshot(true).to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"spans\": {}\n}"));
    }
}
