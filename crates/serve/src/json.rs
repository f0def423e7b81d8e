//! Deterministic JSON rendering for the daemon's response bodies.
//!
//! Same discipline as `netclust-obs` snapshots and `core::query` answers:
//! hand-rolled writers, fixed key order, fixed float precision, no maps
//! iterated in hash order — so two daemons fed the same requests emit
//! byte-identical bodies, which the `--deterministic` end-to-end test
//! pins with `cmp`.

// Every body here is rendered from `serve::router`, a hot file: the whole
// module carries its panic-free lint set, private helper included.
#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt::Write as _;

use netclust_core::{PatchBatchReport, SwapReport};
use netclust_obs::escape;

/// The `{"error": "..."}` envelope every non-2xx answer carries.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\": \"{}\"}}", escape(message))
}

/// The `/healthz` body: liveness plus the cheap whole-view counters a
/// probe wants.
pub fn health_body(table_version: u64, total_requests: u64, clusters: u64) -> String {
    format!(
        "{{\"status\": \"ok\", \"table_version\": {table_version}, \
         \"total_requests\": {total_requests}, \"clusters\": {clusters}}}"
    )
}

/// Renders a full-table swap outcome (`POST /v1/reload?table=`).
pub fn swap_report_body(report: &SwapReport) -> String {
    let mut out = String::with_capacity(192);
    let _ = write!(
        out,
        "{{\"mode\": \"swap\", \"accepted\": {}, ",
        report.accepted
    );
    write_rejection(
        &mut out,
        report.rejection.as_ref().map(|r| format!("{r:?}")),
    );
    let _ = write!(
        out,
        ", \"candidate_entries\": {}, \"coverage_before\": {:.6}, \"coverage_after\": {:.6}}}",
        report.candidate_entries, report.coverage_before, report.coverage_after
    );
    out
}

/// Renders an incremental delta-batch outcome (`POST /v1/reload` body).
pub fn patch_report_body(report: &PatchBatchReport) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"mode\": \"deltas\", \"accepted\": {}, ",
        report.accepted
    );
    write_rejection(
        &mut out,
        report.rejection.as_ref().map(|r| format!("{r:?}")),
    );
    let _ = write!(
        out,
        ", \"candidate_entries\": {}, \"reassigned_clients\": {}, \
         \"coverage_before\": {:.6}, \"coverage_after\": {:.6}}}",
        report.candidate_entries,
        report.reassigned_clients,
        report.coverage_before,
        report.coverage_after
    );
    out
}

fn write_rejection(out: &mut String, rejection: Option<String>) {
    match rejection {
        Some(r) => {
            let _ = write!(out, "\"rejection\": \"{}\"", escape(&r));
        }
        None => out.push_str("\"rejection\": null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_stable_and_shaped() {
        assert_eq!(error_body("no"), "{\"error\": \"no\"}");
        let h = health_body(3, 100, 7);
        assert_eq!(
            h,
            "{\"status\": \"ok\", \"table_version\": 3, \
             \"total_requests\": 100, \"clusters\": 7}"
        );
    }
}
