//! Serializable durable state: the full [`StreamState`] snapshot of a
//! [`StreamingClustering`](crate::StreamingClustering) and the per-batch
//! [`JournalBatch`] journal record, with their canonical wire codecs.
//!
//! The encodings are **canonical**: prefixes and per-client rows are
//! sorted, and the decoder *enforces* that ordering (plus prefix
//! canonicality and UTF-8 park keys), so `decode(encode(s)) == s` and
//! `encode(decode(b)) == b` for every accepted byte string. That is what
//! lets the crash-recovery harness compare snapshot files byte-for-byte
//! between a crashed-and-recovered process and an uninterrupted one.
//!
//! Checksums and framing live one layer down in [`super::codec`]; this
//! module assumes its input already passed a CRC, so a decode failure here
//! means a *structural* problem (a version skew or a bug), reported as a
//! typed [`StateDecodeError`], never a panic.

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Range;

use netclust_obs::ErrorCounts;
use netclust_prefix::Ipv4Net;
use netclust_rtable::{decode_deltas, encode_deltas, TableDelta, DELTA_WIRE_BYTES};

use super::codec::Reader;
use crate::stream::{PatchStats, SwapRejection, SwapStats};

/// Everything needed to reconstruct a `StreamingClustering` (and the CLI
/// feed loop around it) from disk: the serving table's live prefix set per
/// tier, the retained per-client totals, every cumulative counter the
/// stream reports, and the feed-loop progress.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// Patch-lineage version of the serving table generation.
    pub table_version: u64,
    /// The feed driver's resume cursor as of this snapshot, in the
    /// driver's own unit: feed batches fully applied for the CLI's BGP
    /// feed loop (0 for a base snapshot taken before the feed starts),
    /// the followed log's byte offset for `netclustd`
    /// (`StreamingClustering::push_clf_at`).
    pub feed_pos: u64,
    /// Live BGP-tier prefixes, sorted ascending.
    pub bgp_prefixes: Vec<Ipv4Net>,
    /// Live registry-dump-tier prefixes, sorted ascending.
    pub dump_prefixes: Vec<Ipv4Net>,
    /// Per-client `(address, requests, bytes)` totals, sorted by address.
    pub per_client: Vec<(u32, u64, u64)>,
    /// Total requests consumed.
    pub total_requests: u64,
    /// Requests from unclusterable clients.
    pub unclustered_requests: u64,
    /// Raw-CLF ingest accounting.
    pub clf_counts: ErrorCounts,
    /// Cumulative swap accounting.
    pub swap_stats: SwapStats,
    /// Cumulative patch-batch accounting.
    pub patch_stats: PatchStats,
    /// The most recent swap/patch rejection, if any.
    pub last_rejection: Option<SwapRejection>,
    /// Self-correction outcome, when a correction pass has run.
    pub correction: Option<CorrectionState>,
    /// Feed-loop accounting owned by the CLI driver.
    pub feed: FeedProgress,
}

/// Durable residue of a self-correction pass
/// ([`self_correct`](crate::self_correct)): the quorum verdict counts and
/// the clients *parked* under synthetic `?cluster:`/`?addr:` keys because
/// probing told us nothing — exactly the set a later pass must re-probe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorrectionState {
    /// Clusters that passed the homogeneity quorum.
    pub homogeneous: u64,
    /// Clusters partitioned because their members disagreed.
    pub split: u64,
    /// Clusters kept intact because probing yielded no signal.
    pub no_signal: u64,
    /// Parked addresses with the synthetic group key each sits under,
    /// sorted by key then address (the correction pass's `BTreeMap` order).
    pub parked: Vec<(Ipv4Addr, String)>,
}

/// CLI feed-loop accounting persisted alongside the stream so a mid-feed
/// checkpoint resumes with seamless end-of-run reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedProgress {
    /// `f64::to_bits` of the coverage when the feed started (bit-exact so
    /// the resumed process prints the identical percentage).
    pub coverage_start_bits: u64,
    /// BGP session resets seen so far.
    pub resets: u64,
    /// Individual deltas consumed so far.
    pub deltas_total: u64,
    /// Client reassignments so far.
    pub reassigned: u64,
}

/// One journaled feed batch: which feed position it came from, whether it
/// was a session reset, and the deltas attempted (journaled whether or not
/// the stream's gates accepted them — replay re-runs the same gates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalBatch {
    /// 0-based index of the batch in the feed.
    pub feed_index: u64,
    /// Whether the feed marked this batch as a BGP session reset.
    pub session_reset: bool,
    /// The routing deltas in the batch.
    pub deltas: Vec<TableDelta>,
}

/// Why a checksummed payload failed structural decode: the named field was
/// missing, out of order, or out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDecodeError {
    /// The field or structure that was malformed.
    pub what: &'static str,
}

impl fmt::Display for StateDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed persisted state: {}", self.what)
    }
}

impl std::error::Error for StateDecodeError {}

fn bad(what: &'static str) -> StateDecodeError {
    StateDecodeError { what }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_prefixes(out: &mut Vec<u8>, prefixes: &[Ipv4Net]) {
    #[allow(
        clippy::cast_possible_truncation,
        reason = "an IPv4 prefix set is bounded far below u32::MAX entries."
    )]
    put_u32(out, prefixes.len() as u32);
    for p in prefixes {
        put_u32(out, p.addr_u32());
        out.push(p.len());
    }
}

/// Decodes a sorted prefix list, enforcing canonical form: each prefix's
/// host bits must already be zero and the list strictly increasing.
fn take_prefixes(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<Ipv4Net>, StateDecodeError> {
    let n = r.u32_le().ok_or(bad(what))? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 5));
    let mut prev: Option<Ipv4Net> = None;
    for _ in 0..n {
        let addr = r.u32_le().ok_or(bad(what))?;
        let len = r.u8().ok_or(bad(what))?;
        let net = Ipv4Net::new(addr, len).map_err(|_| bad(what))?;
        if net.addr_u32() != addr {
            return Err(bad(what));
        }
        if prev.is_some_and(|p| p >= net) {
            return Err(bad(what));
        }
        prev = Some(net);
        out.push(net);
    }
    Ok(out)
}

/// Wire tag for a [`SwapRejection`] (0 = none). `f64` fields travel as
/// `to_bits` so the round trip is bit-exact (NaN included).
fn put_rejection(out: &mut Vec<u8>, rejection: Option<SwapRejection>) {
    match rejection {
        None => out.push(0),
        Some(SwapRejection::TooFewEntries { entries, floor }) => {
            out.push(1);
            put_u64(out, entries as u64);
            put_u64(out, floor as u64);
        }
        Some(SwapRejection::NoiseOverBudget { ratio, budget }) => {
            out.push(2);
            put_u64(out, ratio.to_bits());
            put_u64(out, budget.to_bits());
        }
        Some(SwapRejection::CompileFault) => out.push(3),
        Some(SwapRejection::PatchFault) => out.push(4),
        Some(SwapRejection::CoverageCollapse {
            before,
            after,
            floor,
        }) => {
            out.push(5);
            put_u64(out, before.to_bits());
            put_u64(out, after.to_bits());
            put_u64(out, floor.to_bits());
        }
    }
}

fn take_rejection(r: &mut Reader<'_>) -> Result<Option<SwapRejection>, StateDecodeError> {
    let what = "last_rejection";
    // A count wider than this platform's usize is as bad as a missing one.
    let count = |r: &mut Reader<'_>| r.u64_le().and_then(|v| usize::try_from(v).ok());
    match r.u8().ok_or(bad(what))? {
        0 => Ok(None),
        1 => Ok(Some(SwapRejection::TooFewEntries {
            entries: count(r).ok_or(bad(what))?,
            floor: count(r).ok_or(bad(what))?,
        })),
        2 => Ok(Some(SwapRejection::NoiseOverBudget {
            ratio: f64::from_bits(r.u64_le().ok_or(bad(what))?),
            budget: f64::from_bits(r.u64_le().ok_or(bad(what))?),
        })),
        3 => Ok(Some(SwapRejection::CompileFault)),
        4 => Ok(Some(SwapRejection::PatchFault)),
        5 => Ok(Some(SwapRejection::CoverageCollapse {
            before: f64::from_bits(r.u64_le().ok_or(bad(what))?),
            after: f64::from_bits(r.u64_le().ok_or(bad(what))?),
            floor: f64::from_bits(r.u64_le().ok_or(bad(what))?),
        })),
        _ => Err(bad(what)),
    }
}

/// Bytes in one client row on the wire: address `u32`, requests `u64`,
/// bytes `u64`, little endian.
const ROW_BYTES: usize = 20;

/// Serializes a [`StreamState`] to its byte form (the payload of a
/// snapshot file's single `REC_STATE` frame), rows in the order given:
/// canonical exactly when `state.per_client` is sorted by address.
pub fn encode_state(state: &StreamState) -> Vec<u8> {
    EncodedState::new(state, state.per_client.iter().copied()).bytes
}

/// A snapshot payload whose client rows may still be in the order their
/// producer held them. Only
/// [`StateStore::checkpoint_encoded`](super::StateStore::checkpoint_encoded)
/// takes one, and it sorts the rows where they lie before a byte reaches
/// the disk — the canonical order the decoder enforces cannot be skipped,
/// and the rows exist once, in the buffer that becomes the file.
#[derive(Debug)]
pub struct EncodedState {
    bytes: Vec<u8>,
    /// Where the client rows lie in `bytes`, [`ROW_BYTES`] each.
    rows: Range<usize>,
}

impl EncodedState {
    /// Encodes `head`'s fields and prefix lists around `rows` into one
    /// buffer reserved once. `head.per_client` is not read: whoever has
    /// the rows elsewhere (a live stream) passes them without building
    /// that vector first.
    pub(crate) fn new(
        head: &StreamState,
        rows: impl ExactSizeIterator<Item = (u32, u64, u64)>,
    ) -> Self {
        // The fixed fields and two prefix lists plus the rows; park keys,
        // rare and short, are left to the vector's own growth.
        let hint =
            512 + (head.bgp_prefixes.len() + head.dump_prefixes.len()) * 5 + rows.len() * ROW_BYTES;
        let mut bytes = Vec::with_capacity(hint);
        let rows = encode_state_into(&mut bytes, head, rows);
        EncodedState { bytes, rows }
    }

    /// The payload with its rows sorted by address, in place.
    pub(super) fn into_canonical(mut self) -> Vec<u8> {
        let region = self.bytes.get_mut(self.rows).unwrap_or_default();
        let (rows, _) = region.as_chunks_mut::<ROW_BYTES>();
        rows.sort_unstable_by_key(|&[a, b, c, d, ..]| u32::from_le_bytes([a, b, c, d]));
        self.bytes
    }
}

/// The one encoder of a [`StreamState`]: appends `state`'s wire form onto
/// `out` with `rows` where `state.per_client` would go, and returns where
/// in `out` they lie.
fn encode_state_into(
    out: &mut Vec<u8>,
    state: &StreamState,
    rows: impl ExactSizeIterator<Item = (u32, u64, u64)>,
) -> Range<usize> {
    put_u64(out, state.table_version);
    put_u64(out, state.feed_pos);
    put_prefixes(out, &state.bgp_prefixes);
    put_prefixes(out, &state.dump_prefixes);
    #[allow(
        clippy::cast_possible_truncation,
        reason = "one row per distinct IPv4 client: len < 2^32 by construction."
    )]
    put_u32(out, rows.len() as u32);
    let rows_start = out.len();
    for (client, requests, bytes) in rows {
        // One append a row: this loop runs under the daemon's stream lock.
        let mut row = [0u8; ROW_BYTES];
        let (addr, sums) = row.split_at_mut(4);
        let (reqs, served) = sums.split_at_mut(8);
        addr.copy_from_slice(&client.to_le_bytes());
        reqs.copy_from_slice(&requests.to_le_bytes());
        served.copy_from_slice(&bytes.to_le_bytes());
        out.extend_from_slice(&row);
    }
    let rows = rows_start..out.len();
    put_u64(out, state.total_requests);
    put_u64(out, state.unclustered_requests);
    put_u64(out, state.clf_counts.records);
    put_u64(out, state.clf_counts.malformed);
    put_u64(out, state.swap_stats.accepted);
    put_u64(out, state.swap_stats.rejected);
    put_u64(out, state.swap_stats.stale_age);
    put_u64(out, state.patch_stats.batches);
    put_u64(out, state.patch_stats.accepted);
    put_u64(out, state.patch_stats.rejected);
    put_u64(out, state.patch_stats.slot_writes);
    put_u64(out, state.patch_stats.group_rebuilds);
    put_u64(out, state.patch_stats.recompiles);
    put_rejection(out, state.last_rejection);
    match &state.correction {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_u64(out, c.homogeneous);
            put_u64(out, c.split);
            put_u64(out, c.no_signal);
            #[allow(
                clippy::cast_possible_truncation,
                reason = "at most one parked row per IPv4 client: len < 2^32."
            )]
            put_u32(out, c.parked.len() as u32);
            for (addr, key) in &c.parked {
                put_u32(out, u32::from(*addr));
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "park keys are short synthetic `?cluster:`/`?addr:` strings."
                )]
                put_u32(out, key.len() as u32);
                out.extend_from_slice(key.as_bytes());
            }
        }
    }
    put_u64(out, state.feed.coverage_start_bits);
    put_u64(out, state.feed.resets);
    put_u64(out, state.feed.deltas_total);
    put_u64(out, state.feed.reassigned);
    rows
}

/// Decodes a [`StreamState`], enforcing the canonical form [`encode_state`]
/// produces (sorted prefixes, strictly increasing client rows, UTF-8 park
/// keys, no trailing bytes). Never panics on arbitrary input.
pub fn decode_state(bytes: &[u8]) -> Result<StreamState, StateDecodeError> {
    let mut r = Reader::new(bytes);
    let table_version = r.u64_le().ok_or(bad("table_version"))?;
    let feed_pos = r.u64_le().ok_or(bad("feed_pos"))?;
    let bgp_prefixes = take_prefixes(&mut r, "bgp prefix list")?;
    let dump_prefixes = take_prefixes(&mut r, "dump prefix list")?;
    let n_clients = r.u32_le().ok_or(bad("client count"))? as usize;
    let mut per_client = Vec::with_capacity(n_clients.min(r.remaining() / 20));
    let mut prev: Option<u32> = None;
    for _ in 0..n_clients {
        let client = r.u32_le().ok_or(bad("client row"))?;
        let requests = r.u64_le().ok_or(bad("client row"))?;
        let bytes_served = r.u64_le().ok_or(bad("client row"))?;
        if prev.is_some_and(|p| p >= client) {
            return Err(bad("client row order"));
        }
        prev = Some(client);
        per_client.push((client, requests, bytes_served));
    }
    let total_requests = r.u64_le().ok_or(bad("total_requests"))?;
    let unclustered_requests = r.u64_le().ok_or(bad("unclustered_requests"))?;
    let clf_counts = ErrorCounts::new(
        r.u64_le().ok_or(bad("clf_counts"))?,
        r.u64_le().ok_or(bad("clf_counts"))?,
    );
    let swap_stats = SwapStats {
        accepted: r.u64_le().ok_or(bad("swap_stats"))?,
        rejected: r.u64_le().ok_or(bad("swap_stats"))?,
        stale_age: r.u64_le().ok_or(bad("swap_stats"))?,
    };
    let patch_stats = PatchStats {
        batches: r.u64_le().ok_or(bad("patch_stats"))?,
        accepted: r.u64_le().ok_or(bad("patch_stats"))?,
        rejected: r.u64_le().ok_or(bad("patch_stats"))?,
        slot_writes: r.u64_le().ok_or(bad("patch_stats"))?,
        group_rebuilds: r.u64_le().ok_or(bad("patch_stats"))?,
        recompiles: r.u64_le().ok_or(bad("patch_stats"))?,
    };
    let last_rejection = take_rejection(&mut r)?;
    let correction = match r.u8().ok_or(bad("correction tag"))? {
        0 => None,
        1 => {
            let homogeneous = r.u64_le().ok_or(bad("correction"))?;
            let split = r.u64_le().ok_or(bad("correction"))?;
            let no_signal = r.u64_le().ok_or(bad("correction"))?;
            let n_parked = r.u32_le().ok_or(bad("correction"))? as usize;
            let mut parked = Vec::with_capacity(n_parked.min(r.remaining() / 8));
            for _ in 0..n_parked {
                let addr = Ipv4Addr::from(r.u32_le().ok_or(bad("parked address"))?);
                let key_len = r.u32_le().ok_or(bad("parked key"))? as usize;
                let raw = r.take(key_len).ok_or(bad("parked key"))?;
                let key = std::str::from_utf8(raw)
                    .map_err(|_| bad("parked key utf-8"))?
                    .to_owned();
                parked.push((addr, key));
            }
            Some(CorrectionState {
                homogeneous,
                split,
                no_signal,
                parked,
            })
        }
        _ => return Err(bad("correction tag")),
    };
    let feed = FeedProgress {
        coverage_start_bits: r.u64_le().ok_or(bad("feed progress"))?,
        resets: r.u64_le().ok_or(bad("feed progress"))?,
        deltas_total: r.u64_le().ok_or(bad("feed progress"))?,
        reassigned: r.u64_le().ok_or(bad("feed progress"))?,
    };
    if !r.is_empty() {
        return Err(bad("trailing bytes"));
    }
    Ok(StreamState {
        table_version,
        feed_pos,
        bgp_prefixes,
        dump_prefixes,
        per_client,
        total_requests,
        unclustered_requests,
        clf_counts,
        swap_stats,
        patch_stats,
        last_rejection,
        correction,
        feed,
    })
}

/// Serializes a [`JournalBatch`] (the payload of one journal `REC_BATCH`
/// frame): feed index, a flags byte (bit 0 = session reset), then the
/// delta records in `netclust-rtable`'s 6-byte wire form.
pub fn encode_batch(batch: &JournalBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + batch.deltas.len() * DELTA_WIRE_BYTES);
    put_u64(&mut out, batch.feed_index);
    out.push(u8::from(batch.session_reset));
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a feed batch holds at most a session-reset burst of deltas, far below u32::MAX."
    )]
    put_u32(&mut out, batch.deltas.len() as u32);
    out.extend_from_slice(&encode_deltas(&batch.deltas));
    out
}

/// Decodes a [`JournalBatch`], validating the flags byte, the delta count
/// against the remaining bytes, and every delta record. Never panics.
pub fn decode_batch(bytes: &[u8]) -> Result<JournalBatch, StateDecodeError> {
    let mut r = Reader::new(bytes);
    let feed_index = r.u64_le().ok_or(bad("batch feed index"))?;
    let flags = r.u8().ok_or(bad("batch flags"))?;
    if flags > 1 {
        return Err(bad("batch flags"));
    }
    let n = r.u32_le().ok_or(bad("batch delta count"))? as usize;
    let raw = r
        .take(
            n.checked_mul(DELTA_WIRE_BYTES)
                .ok_or(bad("batch delta count"))?,
        )
        .ok_or(bad("batch delta count"))?;
    let deltas = decode_deltas(raw).map_err(|_| bad("batch delta record"))?;
    if !r.is_empty() {
        return Err(bad("trailing bytes"));
    }
    Ok(JournalBatch {
        feed_index,
        session_reset: flags == 1,
        deltas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    fn sample_state() -> StreamState {
        StreamState {
            table_version: 42,
            feed_pos: 17,
            bgp_prefixes: vec![net("10.0.0.0/8"), net("10.1.0.0/16"), net("192.168.0.0/24")],
            dump_prefixes: vec![net("172.16.0.0/12")],
            per_client: vec![(1, 3, 300), (0x0A00_0001, 5, 9999), (0xFFFF_FFFF, 1, 1)],
            total_requests: 9,
            unclustered_requests: 3,
            clf_counts: ErrorCounts::new(11, 2),
            swap_stats: SwapStats {
                accepted: 1,
                rejected: 2,
                stale_age: 2,
            },
            patch_stats: PatchStats {
                batches: 7,
                accepted: 6,
                rejected: 1,
                slot_writes: 1234,
                group_rebuilds: 3,
                recompiles: 1,
            },
            last_rejection: Some(SwapRejection::CoverageCollapse {
                before: 0.95,
                after: 0.2,
                floor: 0.76,
            }),
            correction: Some(CorrectionState {
                homogeneous: 40,
                split: 2,
                no_signal: 1,
                parked: vec![
                    (Ipv4Addr::new(10, 0, 0, 9), "?addr:10.0.0.9".into()),
                    (Ipv4Addr::new(10, 2, 3, 4), "?cluster:10.2.0.0/16".into()),
                ],
            }),
            feed: FeedProgress {
                coverage_start_bits: 0.875f64.to_bits(),
                resets: 2,
                deltas_total: 500,
                reassigned: 77,
            },
        }
    }

    #[test]
    fn state_round_trip_is_canonical() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let back = decode_state(&bytes).unwrap();
        assert_eq!(back, state);
        // Canonical: re-encoding the decoded state is byte-identical.
        assert_eq!(encode_state(&back), bytes);

        // Every rejection variant survives, including the None tag.
        for rejection in [
            None,
            Some(SwapRejection::TooFewEntries {
                entries: 3,
                floor: 10,
            }),
            Some(SwapRejection::NoiseOverBudget {
                ratio: 0.5,
                budget: 0.05,
            }),
            Some(SwapRejection::CompileFault),
            Some(SwapRejection::PatchFault),
        ] {
            let mut s = sample_state();
            s.last_rejection = rejection;
            s.correction = None;
            assert_eq!(decode_state(&encode_state(&s)).unwrap(), s);
        }
    }

    #[test]
    fn state_decode_rejects_structural_corruption() {
        let state = sample_state();
        let bytes = encode_state(&state);
        // Every truncation point fails with a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                decode_state(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_state(&long), Err(bad("trailing bytes")));

        // Out-of-order client rows are rejected (canonical form).
        let mut s = state.clone();
        s.per_client.swap(0, 1);
        assert_eq!(
            decode_state(&encode_state(&s)),
            Err(bad("client row order"))
        );

        // Out-of-order and non-canonical prefixes are rejected.
        let mut s = state.clone();
        s.bgp_prefixes.swap(0, 2);
        assert_eq!(decode_state(&encode_state(&s)), Err(bad("bgp prefix list")));
    }

    #[test]
    fn batch_round_trip_and_rejections() {
        let batch = JournalBatch {
            feed_index: 9000,
            session_reset: true,
            deltas: vec![
                TableDelta::announce(net("10.0.0.0/8")),
                TableDelta::withdraw(net("192.168.1.0/24")),
                TableDelta::replace(net("0.0.0.0/0")),
            ],
        };
        let bytes = encode_batch(&batch);
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
        let empty = JournalBatch {
            feed_index: 0,
            session_reset: false,
            deltas: Vec::new(),
        };
        assert_eq!(decode_batch(&encode_batch(&empty)).unwrap(), empty);

        for cut in 0..bytes.len() {
            assert!(
                decode_batch(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        let mut bad_flags = bytes.clone();
        bad_flags[8] = 7;
        assert_eq!(decode_batch(&bad_flags), Err(bad("batch flags")));
        let mut long = bytes;
        long.push(0);
        assert_eq!(decode_batch(&long), Err(bad("trailing bytes")));
    }
}
