//! Spans recorded around the harness's own calls into each layer.
//!
//! A span is `{name, op, parent, start_ns, end_ns}` plus the counts taken
//! at the same boundary (lines, bytes, lookups, deltas, …). Spans stay in
//! memory while the pass runs and are written out once at the end. A
//! layer's self time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Which operation of its kind this span belongs to; spans of one
    /// operation share it.
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].counts.extend_from_slice(counts);
    }

    /// Times `f` as a child span of `parent` and returns its result; the
    /// closure reports the counts it took.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        let op = self.spans[parent].op;
        let id = self.open(name, op, Some(parent));
        let (value, counts) = f();
        self.close(id, &counts);
        value
    }

    /// Span time not covered by the span's direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(children)
    }

    /// Durations in nanoseconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Sum of one count over every span called `name`.
    pub fn count(&self, name: &str, count: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(c, _)| *c == count)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Over every root span called `root`: the share of its time that no
    /// child span explains.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let (mut own, mut whole) = (0u64, 0u64);
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                own += self.self_ns(id);
                whole += s.ns();
            }
        }
        own as f64 / whole as f64
    }

    /// Per span name: how many, total and self time — the table a reader
    /// of the trace wants first.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(covered);
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 256);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"summary\": {{"
        );
        for (i, (name, (n, total, own))) in self.summary().iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"spans\": {n}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
        }
        out.push_str("}, \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"workload\": \"{workload}\", \"name\": \"{}\", \"op\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            for (name, v) in &s.counts {
                let _ = write!(out, ", \"{name}\": {v}");
            }
            out.push_str(if id + 1 < self.spans.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn fixed(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                name,
                op: 0,
                parent,
                start_ns,
                end_ns,
                counts: vec![("lines", 10)],
            });
        }
        t
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let t = fixed(&[
            ("batch", None, 0, 1_000),
            ("compile", Some(0), 100, 400),
            ("ingest", Some(0), 400, 900),
            ("parse", Some(2), 450, 650),
        ]);
        assert_eq!(t.self_ns(0), 200);
        assert_eq!(t.self_ns(2), 300);
        assert_eq!(t.self_ns(3), 200);
        assert!((t.unattributed_share("batch") - 0.2).abs() < 1e-12);
        assert_eq!(t.summary()["ingest"], (1, 500, 300));
        assert_eq!(t.count("parse", "lines"), 10);
        assert_eq!(t.durations("compile"), vec![300.0]);
    }

    #[test]
    fn the_trace_file_is_json_with_one_object_per_span() {
        let mut t = Tracer::new();
        let root = t.open("recover", 3, None);
        let got = t.timed("restore", root, || (7, vec![("clients", 42)]));
        t.close(root, &[]);
        assert_eq!(got, 7);
        let doc = Json::parse(&t.to_json("narrow", 11)).expect("valid JSON");
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[1].get("op").and_then(Json::as_u64), Some(3));
        assert_eq!(spans[1].get("clients").and_then(Json::as_u64), Some(42));
        assert!(doc.get("summary").and_then(|s| s.get("restore")).is_some());
    }
}
