//! The metric tables — the names, units and directions `BENCHMARK.json`
//! lists — and the run record written for every run.

use std::fmt::Write as _;

use crate::json::{escape, number};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const WORKLOADS: &[&str] = &["narrow", "wide"];

/// What a user of `netclust cluster` or an operator of `netclustd` waits
/// for or pays, as far as the reference host can hold it steady; each is
/// gated by its bound in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("cli_rss_mb", "MB"),
    lower("daemon_rss_mb", "MB"),
    lower("query_p50_us", "us"),
    lower("fresh_p50_ms", "ms"),
    lower("state_dir_mb", "MB"),
];

/// Single layers, timed from the harness around their public calls, plus
/// the black-box figures too unsteady to gate. No bounds.
pub const PER_LAYER: &[MetricDef] = &[
    lower("rtable.table.parse_ms", "ms"),
    lower("rtable.table.merge_ms", "ms"),
    lower("rtable.flat.compile_ms", "ms"),
    lower("rtable.flat.table_mb", "MB"),
    lower("rtable.flat.lookup_ns", "ns"),
    lower("weblog.chunk.open_ms", "ms"),
    lower("weblog.clf_bytes.parse_ns_line", "ns"),
    lower("core.ingest.run_t1_ms", "ms"),
    lower("core.ingest.run_tn_ms", "ms"),
    lower("core.ingest.accumulate_ms", "ms"),
    higher("core.ingest.par_speedup", "ratio"),
    lower("core.query.top_ms", "ms"),
    lower("batch.total_ms", "ms"),
    lower("cli.process_other_ms", "ms"),
    lower("serve.http.parse_ns", "ns"),
    lower("serve.router.cluster_ns", "ns"),
    lower("serve.router.verdict_ns", "ns"),
    lower("serve.router.top_us", "us"),
    lower("core.query.lookup_ns", "ns"),
    lower("core.query.json_ns", "ns"),
    lower("core.stream.top_k_us", "us"),
    lower("serve.http.encode_ns", "ns"),
    lower("serve.daemon.wire_us", "us"),
    higher("weblog.follow.poll_mb_s", "MB/s"),
    lower("core.stream.push_clf_ns_line", "ns"),
    lower("core.stream.export_ms", "ms"),
    lower("core.persist.checkpoint_ms", "ms"),
    lower("core.persist.snapshot_mb", "MB"),
    lower("weblog.follow.poll_small_us", "us"),
    lower("core.stream.push_small_us", "us"),
    lower("serve.router.delta_parse_us", "us"),
    lower("core.persist.append_us", "us"),
    lower("core.stream.apply_deltas_ms", "ms"),
    lower("core.stream.reassigned_clients", "count"),
    lower("rtable.patch.apply_us", "us"),
    lower("rtable.patch.first_ms", "ms"),
    lower("core.stream.apply_other_ms", "ms"),
    lower("core.stream.write_hold_share", "ratio"),
    lower("core.epoch.pin_ns", "ns"),
    lower("core.persist.recover_ms", "ms"),
    lower("core.stream.restore_ms", "ms"),
    lower("core.stream.replay_ms", "ms"),
    lower("weblog.follow.tail_ms", "ms"),
    lower("serve.daemon.resume_other_ms", "ms"),
    lower("trace.batch.unattributed_share", "ratio"),
    lower("trace.request.unattributed_share", "ratio"),
    lower("trace.catchup.unattributed_share", "ratio"),
    lower("trace.trickle.unattributed_share", "ratio"),
    lower("trace.reload.unattributed_share", "ratio"),
    lower("trace.recover.unattributed_share", "ratio"),
    // Black-box figures that are not gated: a fifth of a median or more
    // apart run to run on the reference host, or a different figure from
    // seed to seed (see the README). Reported and baselined all the same.
    higher("batch_mb_s", "MB/s"),
    lower("boot_ready_s", "s"),
    higher("catchup_mb_s", "MB/s"),
    lower("query_p99_us", "us"),
    higher("query_qps", "1/s"),
    lower("query_cpu_us", "us"),
    lower("top_p50_ms", "ms"),
    lower("churn_query_p50_us", "us"),
    lower("churn_query_p99_us", "us"),
    lower("fresh_p99_ms", "ms"),
    lower("reload_p50_ms", "ms"),
    lower("daemon_peak_rss_mb", "MB"),
    lower("recover_answer_s", "s"),
    lower("recover_caught_up_s", "s"),
    // How late the load generator itself ran.
    lower("gen_late_p99_us", "us"),
    lower("writer_late_p99_us", "us"),
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Reading {
    pub def: MetricDef,
    pub value: f64,
    /// Samples behind the figure, where it is a percentile or a median.
    pub samples: Option<usize>,
}

pub struct Record<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: &'a [String],
    pub readings: &'a [Reading],
    pub host: &'a [(&'static str, String)],
}

fn metrics_json(readings: &[Reading], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, r) in readings.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            r.def.name,
            number(r.value),
            r.def.unit
        );
        if let (true, Some(n)) = (with_samples, r.samples) {
            let _ = write!(out, ", \"samples\": {n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

impl Record<'_> {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(self.readings, false)
        )
    }

    /// The full record, one line: what `compare` reads.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"reasons\": [",
            self.workload,
            self.seed,
            number(self.seconds),
            self.trace,
            self.quick,
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, r) in self.reasons.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\"", escape(r));
        }
        out.push_str("], \"host\": {");
        for (i, (k, v)) in self.host.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{k}\": \"{}\"", escape(v));
        }
        let _ = write!(
            out,
            "}}, \"metrics\": {}}}",
            metrics_json(self.readings, true)
        );
        out
    }
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers were taken: they compare only within one host class.
pub fn host_descriptor(nproc: usize) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", nproc.to_string()),
        (
            "cpu",
            first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        ),
        (
            "memory",
            first_line_of("/proc/meminfo", "MemTotal").unwrap_or_else(unknown),
        ),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names_of(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).expect("valid JSON");
        assert_eq!(names_of(&spec, "end_to_end"), table(END_TO_END));
        assert_eq!(names_of(&spec, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in spec.get("end_to_end").and_then(Json::as_arr).expect("list") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let readings = [Reading {
            def: END_TO_END[0],
            value: 1.25,
            samples: Some(3),
        }];
        let rec = Record {
            workload: "narrow",
            seed: 11,
            seconds: 40.0,
            trace: false,
            quick: false,
            attempted: 10,
            failed: 0,
            reasons: &[],
            readings: &readings,
            host: &[("nproc", "2".to_string())],
        };
        let line = Json::parse(&rec.result_line()).expect("valid JSON");
        let keys: Vec<&String> = line.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = line
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.as_obj().expect("object").len(), 2);
        let full = Json::parse(&rec.to_json()).expect("valid JSON");
        assert_eq!(full.get("workload").and_then(Json::as_str), Some("narrow"));
        assert_eq!(
            full.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("samples"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
