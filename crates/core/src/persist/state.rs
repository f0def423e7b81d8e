//! Serializable durable state: the full [`StreamState`] snapshot of a
//! [`StreamingClustering`](crate::StreamingClustering) and the per-batch
//! [`JournalBatch`] journal record, with their canonical wire codecs.
//!
//! The encodings are **canonical**: prefixes and per-client rows are
//! sorted and coded as minimal varints — a row by its address gap, a
//! prefix in units of its own length — and the decoder *enforces* that
//! form (no overlong varint, no address past `u32::MAX`, strictly
//! increasing prefixes with zero host bits, a zero reserved byte), so
//! `decode(encode(s)) == s` and `encode(decode(b)) == b` for every
//! accepted byte string. That is what lets the crash-recovery harness
//! compare snapshot files byte-for-byte between a crashed-and-recovered
//! process and an uninterrupted one.
//!
//! Format version 1 wrote the same fields with fixed-width rows and
//! prefixes, and version 2 coded each prefix as an address gap and a
//! length byte; [`decode_state_version`] still reads both, and nothing
//! writes them.
//!
//! Checksums and framing live one layer down in [`super::codec`]; this
//! module assumes its input already passed a CRC, so a decode failure here
//! means a *structural* problem (a version skew or a bug), reported as a
//! typed [`StateDecodeError`], never a panic.

use std::convert::Infallible;
use std::fmt;
use std::io;
use std::sync::Arc;

use netclust_obs::ErrorCounts;
use netclust_prefix::Ipv4Net;
use netclust_rtable::{decode_deltas, encode_deltas, TableDelta, DELTA_WIRE_BYTES};

use super::codec::{
    put_varint, varint_len, Reader, FORMAT_VERSION, OLDEST_READ_VERSION, VARINT_MAX_BYTES,
};
use super::SnapshotFile;
use crate::stream::{LiveTable, PatchStats, SwapRejection, SwapStats};

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
    /// Feed-loop accounting owned by the CLI driver.
    pub feed: FeedProgress,
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

/// Codes `value` as a varint at `out[at..]`, which has room for
/// [`VARINT_MAX_BYTES`]; returns where it ends.
#[inline]
fn put_varint_at(out: &mut [u8], at: usize, value: u64) -> usize {
    match out.get_mut(at..).and_then(|s| s.first_chunk_mut()) {
        Some(slot) => at + put_varint(slot, value),
        None => at,
    }
}

/// How a format version lays out client rows and prefix lists; every
/// other field is the same in all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Version 1, read only: a `u32` address and two `u64` counts a row,
    /// a `u32` address and a length byte a prefix.
    Fixed,
    /// Version 2, read only: delta varint rows, and a prefix as a varint
    /// of its address's distance from the previous prefix's and a length
    /// byte.
    Varint,
    /// Version 3: delta varint rows, as [`encode_state`] and
    /// [`EncodedState`] write them, and a prefix as one varint in units
    /// of its own length ([`prefix_code`]).
    Aligned,
}

/// Lengths a prefix can have, 0 to 32: the radix of [`prefix_code`].
const LENGTHS: u64 = 33;

/// The first address at or above `prev` that a prefix of length `len`
/// can start at: `prev` rounded up to a multiple of the prefix's size,
/// `2^32` when none below it is. `len` is at most 32.
fn align_up(prev: u32, len: u8) -> u64 {
    let shift = 32 - u32::from(len);
    ((u64::from(prev) + (1 << shift) - 1) >> shift) << shift
}

/// The version-3 code of prefix `p` after a prefix at address `prev` (0
/// before the first): `d · 33 + len`, where `d` counts prefixes of `p`'s
/// size from the first address at or above `prev` that one can start at
/// ([`align_up`]) to `p`'s. In a sorted list `p`'s address is at or
/// above `prev`, and since it is a multiple of that size, `d` is the
/// whole sizes in the distance from `prev` itself. In a list out of
/// order it can be below, and the code is then `u64::MAX`, whose address
/// the decoder refuses.
fn prefix_code(prev: u32, p: Ipv4Net) -> u64 {
    match p.addr_u32().checked_sub(prev) {
        Some(gap) => (u64::from(gap) >> (32 - p.len())) * LENGTHS + u64::from(p.len()),
        None => u64::MAX,
    }
}

/// The prefix [`prefix_code`] codes as `code` after a prefix at address
/// `prev`, if its address is within `u32`.
fn prefix_of(prev: u32, code: u64) -> Option<Ipv4Net> {
    #[allow(clippy::cast_possible_truncation, reason = "a remainder of 33 is at most 32.")]
    let len = (code % LENGTHS) as u8;
    let steps = (code / LENGTHS).checked_mul(1 << (32 - u32::from(len)))?;
    let addr = align_up(prev, len).checked_add(steps)?;
    Ipv4Net::new(u32::try_from(addr).ok()?, len).ok()
}

/// Bytes [`Chunked::prefixes`] codes `prefixes` to, but for the count.
fn prefixes_len(prefixes: impl Iterator<Item = Ipv4Net>) -> usize {
    let mut prev = 0u32;
    (prefixes.map(|p| {
        let code = prefix_code(prev, p);
        prev = p.addr_u32();
        varint_len(code)
    }))
    .sum()
}

/// Decodes a sorted prefix list, enforcing canonical form: every address
/// within `u32`, each prefix's host bits already zero and the list
/// strictly increasing by `(address, length)`. Version 3's codes cannot
/// spell host bits or a length past 32; the older layouts' can, and are
/// refused for them.
fn take_prefixes(
    r: &mut Reader<'_>,
    what: &'static str,
    layout: Layout,
) -> Result<Vec<Ipv4Net>, StateDecodeError> {
    let n = r.u32_le().ok_or(bad(what))? as usize;
    let least = match layout {
        Layout::Fixed => 5,
        Layout::Varint => 2,
        Layout::Aligned => 1,
    };
    let mut out = Vec::with_capacity(n.min(r.remaining() / least));
    let mut prev: Option<Ipv4Net> = None;
    for _ in 0..n {
        let prev_addr = prev.map_or(0, |p| p.addr_u32());
        let prefix = match layout {
            Layout::Fixed => r.u32_le().zip(r.u8()),
            Layout::Varint => {
                let addr = r
                    .varint()
                    .and_then(|gap| u64::from(prev_addr).checked_add(gap));
                addr.and_then(|a| u32::try_from(a).ok()).zip(r.u8())
            }
            Layout::Aligned => (r.varint().and_then(|code| prefix_of(prev_addr, code)))
                .map(|p| (p.addr_u32(), p.len())),
        };
        let (addr, len) = prefix.ok_or(bad(what))?;
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
/// `to_bits` so the round trip is bit-exact (NaN included). Tags 3 and 4
/// are reserved: they named the simulated compile and patch faults, which
/// no product binary could arm, and are refused on read.
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
        5 => Ok(Some(SwapRejection::CoverageCollapse {
            before: f64::from_bits(r.u64_le().ok_or(bad(what))?),
            after: f64::from_bits(r.u64_le().ok_or(bad(what))?),
            floor: f64::from_bits(r.u64_le().ok_or(bad(what))?),
        })),
        _ => Err(bad(what)),
    }
}

/// Stack bytes a payload is coded through on its way out: the one buffer
/// coding adds.
pub(super) const CODE_CHUNK: usize = 32 << 10;

/// A payload coded through one [`CODE_CHUNK`] stack buffer, handed to
/// `emit` in pieces: the buffer whenever the next code might not fit, and
/// the fixed fields as they are.
struct Chunked<F> {
    buf: [u8; CODE_CHUNK],
    len: usize,
    emit: F,
}

impl<E, F: FnMut(&[u8]) -> Result<(), E>> Chunked<F> {
    fn new(emit: F) -> Self {
        Chunked {
            buf: [0; CODE_CHUNK],
            len: 0,
            emit,
        }
    }

    /// Hands out what is buffered unless `n` more bytes fit.
    fn room(&mut self, n: usize) -> Result<(), E> {
        if CODE_CHUNK - self.len < n {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), E> {
        if self.len == 0 {
            return Ok(());
        }
        let full = self.buf.get(..self.len).unwrap_or_default();
        self.len = 0;
        (self.emit)(full)
    }

    /// Hands out what is buffered, then `piece` as it is.
    fn piece(&mut self, piece: &[u8]) -> Result<(), E> {
        self.flush()?;
        (self.emit)(piece)
    }

    /// Codes `value` as a varint; [`room`](Self::room) was made for it.
    fn varint(&mut self, value: u64) {
        self.len = put_varint_at(&mut self.buf, self.len, value);
    }

    /// Copies `bytes`; [`room`](Self::room) was made for them.
    fn bytes(&mut self, bytes: &[u8]) {
        if let Some(to) = self.buf.get_mut(self.len..self.len + bytes.len()) {
            to.copy_from_slice(bytes);
            self.len += bytes.len();
        }
    }

    /// Codes a client row ([`put_row`]) and returns the bytes it took;
    /// [`room`](Self::room) was made for [`ROW_MAX`] bytes.
    fn row(&mut self, next: u64, row: (u32, u64, u64)) -> usize {
        let Some(to) = (self.buf.get_mut(self.len..)).and_then(|s| s.first_chunk_mut()) else {
            return 0;
        };
        let took = put_row(to, next, row);
        self.len += took;
        took
    }

    /// A prefix list: its `u32` count, then per prefix its
    /// [`prefix_code`] after the previous prefix (after address 0 for the
    /// first) as a varint.
    fn prefixes(&mut self, prefixes: impl ExactSizeIterator<Item = Ipv4Net>) -> Result<(), E> {
        self.room(4)?;
        #[allow(
            clippy::cast_possible_truncation,
            reason = "an IPv4 prefix set is bounded far below u32::MAX entries."
        )]
        self.bytes(&(prefixes.len() as u32).to_le_bytes());
        let mut prev = 0u32;
        for p in prefixes {
            self.room(VARINT_MAX_BYTES)?;
            self.varint(prefix_code(prev, p));
            prev = p.addr_u32();
        }
        Ok(())
    }
}

/// Most bytes a client row codes to: its address gap and its two counts,
/// a varint each.
const ROW_MAX: usize = 3 * VARINT_MAX_BYTES;

/// Codes the row of `client` with these counts at the start of `out`, its
/// address as its distance from `next` — the address after the previous
/// row's, 0 before the first row — and returns the bytes it took.
#[inline]
fn put_row(
    out: &mut [u8; ROW_MAX],
    next: u64,
    (client, requests, bytes): (u32, u64, u64),
) -> usize {
    // Wraps only for rows out of address order, which the decoder then
    // refuses as an address past `u32::MAX`.
    let at = put_varint_at(out, 0, u64::from(client).wrapping_sub(next));
    let at = put_varint_at(out, at, requests);
    put_varint_at(out, at, bytes)
}

/// The payload's fields but for the prefix lists, which go at
/// [`LISTS_AT`], and the client rows, which go at [`ROWS_AT`]: `head`'s,
/// with a count of `rows` rows.
fn fields(head: &StreamState, rows: usize) -> Vec<u8> {
    // The fields after the rows are about 150 bytes.
    let mut bytes = Vec::with_capacity(256);
    put_u64(&mut bytes, head.table_version);
    put_u64(&mut bytes, head.feed_pos);
    #[allow(
        clippy::cast_possible_truncation,
        reason = "one row per distinct IPv4 client: len < 2^32 by construction."
    )]
    put_u32(&mut bytes, rows as u32);
    put_tail(&mut bytes, head);
    bytes
}

/// Serializes a [`StreamState`] to its byte form (the payload of a
/// snapshot file's single `REC_STATE` frame), rows in the order given:
/// canonical exactly when `state.per_client` is sorted by address.
pub fn encode_state(state: &StreamState) -> Vec<u8> {
    let mut out = Vec::new();
    let mut to = |piece: &[u8]| {
        out.extend_from_slice(piece);
        Ok::<(), Infallible>(())
    };
    let Ok(()) = code_state(&mut Chunked::new(&mut to), state);
    out
}

/// Codes `state` through `to`, rows in the order given.
fn code_state<E>(
    to: &mut Chunked<impl FnMut(&[u8]) -> Result<(), E>>,
    state: &StreamState,
) -> Result<(), E> {
    let fields = fields(state, state.per_client.len());
    to.piece(fields.get(..LISTS_AT).unwrap_or_default())?;
    to.prefixes(state.bgp_prefixes.iter().copied())?;
    to.prefixes(state.dump_prefixes.iter().copied())?;
    to.piece(fields.get(LISTS_AT..ROWS_AT).unwrap_or_default())?;
    let mut next = 0u64;
    for &row in &state.per_client {
        to.room(ROW_MAX)?;
        to.row(next, row);
        next = u64::from(row.0) + 1;
    }
    to.piece(fields.get(ROWS_AT..).unwrap_or_default())
}

/// A snapshot payload whose client rows a producer that walks its clients
/// in address order has coded straight into the snapshot's temp file, as
/// the file holds them, through one bounded stack buffer: only
/// [`StateStore::checkpoint_encoded`](super::StateStore::checkpoint_encoded)
/// hands out that file, and it finishes the payload around the rows —
/// the fields, the row count, and the prefix lists coded from the serving
/// generation the producer held.
#[derive(Debug)]
pub struct EncodedState {
    /// The payload's fields but for the prefix lists and the client rows
    /// ([`fields`]).
    bytes: Vec<u8>,
    /// The serving generation whose prefix lists are coded on the way
    /// out. It is immutable, so they are coded from it after the
    /// producer's lock is dropped, and it is let go once they are.
    serving: Arc<LiveTable>,
    /// Bytes the prefix lists code to, their counts included.
    lists: usize,
    /// Bytes the coded rows take.
    rows: usize,
}

/// Where the prefix lists go in the payload: after `table_version` and
/// `feed_pos`.
const LISTS_AT: usize = 16;

/// Where the client rows go in [`fields`]: after the row count that
/// follows the prefix lists.
const ROWS_AT: usize = LISTS_AT + 4;

/// A [`Chunked`] that writes each piece to `to` at the next payload
/// position, from `at` on.
fn chunked_at<'a>(
    to: &'a SnapshotFile<'_>,
    mut at: usize,
) -> Chunked<impl FnMut(&[u8]) -> io::Result<()> + 'a> {
    Chunked::new(move |piece: &[u8]| {
        let written = to.write_at(piece, at);
        at += piece.len();
        written
    })
}

impl EncodedState {
    /// Codes `rows`, which come in address order, into `to` where the
    /// payload holds them — after `head`'s first fields and the prefix
    /// lists of `serving`, which is held to code those lists later.
    /// `head.per_client` is not read: whoever has the rows elsewhere (a
    /// live stream) passes them without building that vector first.
    pub(crate) fn new(
        to: &SnapshotFile<'_>,
        head: &StreamState,
        serving: Arc<LiveTable>,
        rows: impl Iterator<Item = (u32, u64, u64)>,
    ) -> io::Result<Self> {
        // This runs under the daemon's stream lock: the lists' size is
        // counted once a generation, the rows coded in one walk.
        let lists = *serving.coded_lists.get_or_init(|| {
            let dump = serving.table.dump_prefixes().iter().copied();
            8 + prefixes_len(serving.table.live_iter()) + prefixes_len(dump)
        });
        let (mut out, mut next, mut count, mut end) = (chunked_at(to, ROWS_AT + lists), 0u64, 0, 0);
        for row in rows {
            out.room(ROW_MAX)?;
            end += out.row(next, row);
            next = u64::from(row.0) + 1;
            count += 1;
        }
        out.flush()?;
        Ok(EncodedState {
            bytes: fields(head, count),
            serving,
            lists,
            rows: end,
        })
    }

    /// Writes the payload around the rows into `to`, each part at its
    /// place: the fields before the prefix lists, the lists coded through
    /// a [`CODE_CHUNK`] stack buffer (after which the generation held for
    /// them is let go), the row count, the fields after the rows. Returns
    /// the payload's length.
    pub(super) fn finish(self, to: &SnapshotFile<'_>) -> io::Result<usize> {
        let EncodedState {
            bytes,
            serving,
            lists,
            rows,
        } = self;
        to.write_at(bytes.get(..LISTS_AT).unwrap_or_default(), 0)?;
        let mut out = chunked_at(to, LISTS_AT);
        out.prefixes(serving.table.live_iter())?;
        out.prefixes(serving.table.dump_prefixes().iter().copied())?;
        out.flush()?;
        drop(serving);
        to.write_at(
            bytes.get(LISTS_AT..ROWS_AT).unwrap_or_default(),
            LISTS_AT + lists,
        )?;
        to.write_at(
            bytes.get(ROWS_AT..).unwrap_or_default(),
            ROWS_AT + lists + rows,
        )?;
        Ok(bytes.len() + lists + rows)
    }
}

/// Appends the fields of `state` that follow the client rows.
fn put_tail(out: &mut Vec<u8>, state: &StreamState) {
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
    // Reserved: once a study-state tag, zero in every snapshot written.
    out.push(0);
    put_u64(out, state.feed.coverage_start_bits);
    put_u64(out, state.feed.resets);
    put_u64(out, state.feed.deltas_total);
    put_u64(out, state.feed.reassigned);
}

/// Decodes the client rows, enforcing strictly increasing addresses: in
/// the varint layout by construction, with any address past `u32::MAX`
/// refused.
fn take_rows(r: &mut Reader<'_>, layout: Layout) -> Result<Vec<(u32, u64, u64)>, StateDecodeError> {
    let n = r.u32_le().ok_or(bad("client count"))? as usize;
    let least = match layout {
        Layout::Fixed => 4 + 8 + 8,
        Layout::Varint | Layout::Aligned => 3,
    };
    let mut rows = Vec::with_capacity(n.min(r.remaining() / least));
    // The lowest address the next row may hold.
    let mut next = 0u64;
    for _ in 0..n {
        let row = match layout {
            Layout::Fixed => {
                let client = r.u32_le().ok_or(bad("client row"))?;
                let requests = r.u64_le().ok_or(bad("client row"))?;
                let bytes = r.u64_le().ok_or(bad("client row"))?;
                if u64::from(client) < next {
                    return Err(bad("client row order"));
                }
                (client, requests, bytes)
            }
            Layout::Varint | Layout::Aligned => {
                let gap = r.varint().ok_or(bad("client row"))?;
                let client = next.checked_add(gap).and_then(|a| u32::try_from(a).ok());
                let client = client.ok_or(bad("client address overflow"))?;
                let requests = r.varint().ok_or(bad("client row"))?;
                let bytes = r.varint().ok_or(bad("client row"))?;
                (client, requests, bytes)
            }
        };
        next = u64::from(row.0) + 1;
        rows.push(row);
    }
    Ok(rows)
}

/// Decodes a [`StreamState`] in the current format, enforcing the
/// canonical form [`encode_state`] produces (minimal varints, sorted
/// prefixes, strictly increasing client rows, a zero reserved byte, no
/// trailing bytes). Never panics on arbitrary input.
// Waived in tests/source_contracts.rs (`pub-fn-caller`): the store reads a
// snapshot by its header's version; the codec properties observe the
// current format through this entry.
pub fn decode_state(bytes: &[u8]) -> Result<StreamState, StateDecodeError> {
    decode_state_version(bytes, FORMAT_VERSION)
}

/// [`decode_state`] of a payload written in format `version` (a snapshot
/// file header's), from [`OLDEST_READ_VERSION`] to [`FORMAT_VERSION`].
pub(super) fn decode_state_version(
    bytes: &[u8],
    version: u16,
) -> Result<StreamState, StateDecodeError> {
    let layout = match version {
        OLDEST_READ_VERSION => Layout::Fixed,
        2 => Layout::Varint,
        FORMAT_VERSION => Layout::Aligned,
        _ => return Err(bad("format version")),
    };
    let mut r = Reader::new(bytes);
    let table_version = r.u64_le().ok_or(bad("table_version"))?;
    let feed_pos = r.u64_le().ok_or(bad("feed_pos"))?;
    let bgp_prefixes = take_prefixes(&mut r, "bgp prefix list", layout)?;
    let dump_prefixes = take_prefixes(&mut r, "dump prefix list", layout)?;
    let per_client = take_rows(&mut r, layout)?;
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
    // The reserved byte after the rejection (see `put_tail`).
    if r.u8().ok_or(bad("correction tag"))? != 0 {
        return Err(bad("correction tag"));
    }
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
    use netclust_testkit::net;

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
        ] {
            let mut s = sample_state();
            s.last_rejection = rejection;
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

        // Out-of-order or repeated client rows code to an address past
        // u32::MAX, which is rejected (canonical form).
        for (i, j) in [(0, 1), (1, 2)] {
            let mut s = state.clone();
            s.per_client.swap(i, j);
            let got = decode_state(&encode_state(&s));
            assert_eq!(got, Err(bad("client address overflow")), "{i} <> {j}");
        }
        let mut s = state.clone();
        s.per_client[1].0 = s.per_client[0].0;
        let got = decode_state(&encode_state(&s));
        assert_eq!(got, Err(bad("client address overflow")));

        // Out-of-order and non-canonical prefixes are rejected.
        let mut s = state.clone();
        s.bgp_prefixes.swap(0, 2);
        assert_eq!(decode_state(&encode_state(&s)), Err(bad("bgp prefix list")));
    }

    /// The byte before the feed progress is reserved: zero in every
    /// snapshot written, and anything else refused by name in every
    /// version.
    #[test]
    fn a_nonzero_reserved_byte_is_refused() {
        let state = sample_state();
        for (version, mut bytes) in [
            (FORMAT_VERSION, encode_state(&state)),
            (2, v2_payload(&state)),
            (OLDEST_READ_VERSION, v1_payload(&state)),
        ] {
            // Four u64s of feed progress follow the reserved byte.
            let at = bytes.len() - 33;
            assert_eq!(bytes[at], 0);
            assert_eq!(decode_state_version(&bytes, version), Ok(state.clone()));
            for tag in [1, 2, 0xFF] {
                bytes[at] = tag;
                let got = decode_state_version(&bytes, version);
                assert_eq!(got, Err(bad("correction tag")), "v{version} tag {tag}");
            }
        }
    }

    /// Rejection tags 3 and 4 are reserved: refused by name in every
    /// version, as is any tag past the last.
    #[test]
    fn a_reserved_rejection_tag_is_refused() {
        let mut state = sample_state();
        state.last_rejection = None;
        for (version, mut bytes) in [
            (FORMAT_VERSION, encode_state(&state)),
            (2, v2_payload(&state)),
            (OLDEST_READ_VERSION, v1_payload(&state)),
        ] {
            // The reserved byte and four u64s of feed progress follow it.
            let at = bytes.len() - 34;
            assert_eq!(bytes[at], 0);
            assert_eq!(decode_state_version(&bytes, version), Ok(state.clone()));
            for tag in [3, 4, 6, 0xFF] {
                bytes[at] = tag;
                let got = decode_state_version(&bytes, version);
                assert_eq!(got, Err(bad("last_rejection")), "v{version} tag {tag}");
            }
        }
    }

    /// Every field at its edge: addresses 0 and `u32::MAX`, counts 0 and
    /// `u64::MAX`, the shortest and longest prefixes, and empty lists.
    #[test]
    fn edge_values_round_trip_canonically() {
        let mut edges = sample_state();
        edges.bgp_prefixes = vec![
            net("0.0.0.0/0"),
            net("0.0.0.0/32"),
            net("255.255.255.255/32"),
        ];
        edges.per_client = vec![
            (0, 0, u64::MAX),
            (1, u64::MAX, 0),
            (u32::MAX - 1, 1, 1),
            (u32::MAX, u64::MAX, u64::MAX),
        ];
        let mut empty = sample_state();
        empty.bgp_prefixes.clear();
        empty.dump_prefixes.clear();
        empty.per_client.clear();
        for state in [edges, empty] {
            let bytes = encode_state(&state);
            let back = decode_state(&bytes).unwrap();
            assert_eq!(back, state);
            assert_eq!(encode_state(&back), bytes);
        }
    }

    /// Prefix lists and rows many times the code buffer, in codes of
    /// every width, so codes meet its end at every offset: each is coded
    /// whole, and the payload reads back to the state.
    #[test]
    fn payloads_longer_than_the_code_buffer_round_trip() {
        let mut long = sample_state();
        let mut prefixes: Vec<Ipv4Net> = (0..40_000u32)
            .map(|i| Ipv4Net::new(i.wrapping_mul(107_377), (i % 33) as u8).unwrap())
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        long.dump_prefixes = prefixes.split_off(prefixes.len() / 2);
        long.bgp_prefixes = prefixes;
        long.per_client = (0..40_000u32)
            .map(|i| {
                (
                    i * 65_537 + i % 7,
                    u64::from(i) << (i % 40),
                    u64::MAX >> (i % 64),
                )
            })
            .collect();
        let bytes = encode_state(&long);
        assert!(bytes.len() > 8 * CODE_CHUNK);
        assert_eq!(decode_state(&bytes), Ok(long));
    }

    /// A payload of `sample_state()`'s fields with no dump prefixes and
    /// hand-written bytes for the BGP prefix list and the client rows:
    /// `(count, bytes)` each.
    fn hand_payload(bgp: (u32, &[u8]), rows: (u32, &[u8])) -> Vec<u8> {
        let mut rest = sample_state();
        rest.dump_prefixes.clear();
        rest.per_client.clear();
        let fields = fields(&rest, 0);
        let mut out = fields[..16].to_vec();
        out.extend_from_slice(&bgp.0.to_le_bytes());
        out.extend_from_slice(bgp.1);
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&rows.0.to_le_bytes());
        out.extend_from_slice(rows.1);
        out.extend_from_slice(&fields[ROWS_AT..]);
        out
    }

    /// A named hand-written payload: `(count, bytes)` of the BGP prefix
    /// list and of the client rows, and the field a decode must refuse it
    /// by, if any.
    type Pinned<'a> = (
        &'a str,
        (u32, Vec<u8>),
        (u32, Vec<u8>),
        Result<(), &'static str>,
    );

    /// Decodes each payload of `table` as format `version`: an accepted
    /// one must be what `encode` writes for the state it decodes to, a
    /// refused one must name its field.
    fn check_pinned(version: u16, table: Vec<Pinned>, encode: fn(&StreamState) -> Vec<u8>) {
        for (name, bgp, rows, want) in table {
            let bytes = hand_payload((bgp.0, &bgp.1), (rows.0, &rows.1));
            match (decode_state_version(&bytes, version), want) {
                (Ok(state), Ok(())) => assert_eq!(encode(&state), bytes, "v{version} {name}"),
                (got, want) => {
                    assert_eq!(got.map(|_| ()), want.map_err(bad), "v{version} {name}")
                }
            }
        }
    }

    /// The current wire form of prefix lists pinned byte for byte, and
    /// each way a list can break canonical form in it.
    #[test]
    fn pinned_v3_prefix_bytes() {
        let cat = |parts: &[&[u8]]| parts.concat();
        // 0.0.0.0/0 is 0·33 + 0. 10.0.0.0/8 is ten /8s from 0: 10·33 + 8
        // = 338. 10.0.0.0/16 starts where 10.0.0.0/8 does: 0·33 + 16.
        // 10.1.0.0/16 is one /16 on: 33 + 16 = 49. 255.255.255.255/32 is
        // 0xF5FE_FFFF /32s past 10.1.0.0: that times 33, plus 32.
        let ok_bgp = cat(&[
            &[0x00],
            &[0xD2, 0x02],
            &[0x10],
            &[0x31],
            &[0xFF, 0xFF, 0xFB, 0xAE, 0xFB, 0x03],
        ]);
        // (2^32 - 1)·33 + 32: the largest code a first prefix can have.
        const MAX: [u8; 6] = [0xFF, 0xFF, 0xFF, 0xFF, 0x8F, 0x04];
        let ok_rows = cat(&[&[0x01, 0x03, 0xAC, 0x02], &[0x00, 0x05, 0x01]]);
        let table: Vec<Pinned> = vec![
            ("canonical", (5, ok_bgp.clone()), (2, ok_rows), Ok(())),
            ("u32::MAX", (1, MAX.to_vec()), (0, vec![]), Ok(())),
            // 10.0.0.1/32, then 10.0.1.0/24: the first /24 at or above
            // 10.0.0.1, 0·33 + 24.
            (
                "rounded up",
                (2, vec![0xC1, 0x80, 0x80, 0xD0, 0x14, 0x18]),
                (0, vec![]),
                Ok(()),
            ),
            ("empty lists", (0, vec![]), (0, vec![]), Ok(())),
            // 0 spelled in two bytes.
            (
                "overlong code",
                (1, vec![0x80, 0x00]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            // 256 /8s from 0: 256·33 + 8; a /0 after 10.0.0.0/8, which
            // could start only at 2^32; a /32 one on from
            // 255.255.255.255, 1·33 + 32.
            (
                "address past u32::MAX",
                (1, vec![0x88, 0x42]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            (
                "/0 after a prefix",
                (2, vec![0xD2, 0x02, 0x00]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            (
                "past u32::MAX after it",
                (2, cat(&[&MAX, &[0x41]])),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            // 10.0.0.0/16 (2560·33 + 16), then 10.0.0.0/8 at 0 /8s on.
            (
                "same address, not longer",
                (2, vec![0x90, 0x94, 0x05, 0x08]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            (
                "duplicate prefix",
                (2, vec![0xD2, 0x02, 0x08]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
        ];
        check_pinned(FORMAT_VERSION, table, encode_state);
        let state = decode_state(&hand_payload((5, &ok_bgp), (0, &[]))).unwrap();
        let want = [
            net("0.0.0.0/0"),
            net("10.0.0.0/8"),
            net("10.0.0.0/16"),
            net("10.1.0.0/16"),
            net("255.255.255.255/32"),
        ];
        assert_eq!(state.bgp_prefixes, want);
    }

    /// Version 2's wire form pinned byte for byte, and each way a byte
    /// string can break canonical form in it, host bits and length 33
    /// among them: accepted payloads are what the version-2 layout codes
    /// their state to, the rest fail with the named field.
    #[test]
    fn pinned_v2_prefix_and_row_bytes() {
        // 10.0.0.0 as a varint: 0x0A000000 in 7-bit groups, low first.
        const TEN: [u8; 4] = [0x80, 0x80, 0x80, 0x50];
        const MAX: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let cat = |parts: &[&[u8]]| parts.concat();
        let ok_rows = cat(&[&[0x01, 0x03, 0xAC, 0x02], &[0x00, 0x05, 0x01]]);
        let ok_bgp = cat(&[&TEN, &[8], &[0x00, 16], &[0x80, 0x80, 0x04, 16]]);
        let table: Vec<Pinned> = vec![
            (
                "canonical",
                (3, ok_bgp.clone()),
                (2, ok_rows.clone()),
                Ok(()),
            ),
            (
                "u32::MAX",
                (1, cat(&[&MAX, &[32]])),
                (1, cat(&[&MAX, &[0, 0]])),
                Ok(()),
            ),
            ("empty lists", (0, vec![]), (0, vec![]), Ok(())),
            // Overlong varints: 1 and 0 spelled in two bytes.
            (
                "overlong gap",
                (0, vec![]),
                (1, vec![0x81, 0x00, 1, 1]),
                Err("client row"),
            ),
            (
                "overlong count",
                (0, vec![]),
                (1, vec![0x01, 0x80, 0x00, 1]),
                Err("client row"),
            ),
            (
                "overlong prefix",
                (1, vec![0x80, 0x00, 0]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            // Address sums past u32::MAX, first row and after a row.
            (
                "first address",
                (0, vec![]),
                (1, cat(&[&[0x80, 0x80, 0x80, 0x80, 0x10], &[1, 1]])),
                Err("client address overflow"),
            ),
            (
                "next address",
                (0, vec![]),
                (2, cat(&[&MAX[..], &[1, 1], &[0x00, 1, 1]])),
                Err("client address overflow"),
            ),
            (
                "prefix address",
                (2, cat(&[&MAX, &[32], &[0x01, 32]])),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            // Prefix order and form.
            (
                "duplicate prefix",
                (2, cat(&[&TEN, &[8], &[0x00, 8]])),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            (
                "shorter after longer",
                (2, cat(&[&TEN, &[16], &[0x00, 8]])),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            (
                "host bits",
                (1, vec![0x01, 8]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
            (
                "length 33",
                (1, vec![0x00, 33]),
                (0, vec![]),
                Err("bgp prefix list"),
            ),
        ];
        check_pinned(2, table, v2_payload);
        let state = decode_state_version(&hand_payload((3, &ok_bgp), (2, &ok_rows)), 2).unwrap();
        assert_eq!(state.per_client, [(1, 3, 300), (2, 5, 1)]);
        let want = [net("10.0.0.0/8"), net("10.0.0.0/16"), net("10.1.0.0/16")];
        assert_eq!(state.bgp_prefixes, want);
    }

    /// `state` in the version-2 layout, which only the decoder still
    /// knows: each prefix a varint of its address's distance from the
    /// previous prefix's and a length byte, around the rows and fields it
    /// shares with the current version.
    fn v2_payload(state: &StreamState) -> Vec<u8> {
        let v3 = encode_state(state);
        let lists_end = LISTS_AT
            + 8
            + prefixes_len(state.bgp_prefixes.iter().copied())
            + prefixes_len(state.dump_prefixes.iter().copied());
        let mut out = v3[..LISTS_AT].to_vec();
        for list in [&state.bgp_prefixes, &state.dump_prefixes] {
            put_u32(&mut out, list.len() as u32);
            let mut prev = 0u32;
            for p in list {
                let mut code = [0u8; VARINT_MAX_BYTES];
                let n = put_varint(&mut code, u64::from(p.addr_u32().wrapping_sub(prev)));
                out.extend_from_slice(&code[..n]);
                out.push(p.len());
                prev = p.addr_u32();
            }
        }
        out.extend_from_slice(&v3[lists_end..]);
        out
    }

    /// `state` in the version-1 layout, which only the decoder still
    /// knows: fixed-width prefixes and rows around the fields every
    /// version shares.
    fn v1_payload(state: &StreamState) -> Vec<u8> {
        let fields = fields(state, 0);
        let mut out = fields[..16].to_vec();
        for list in [&state.bgp_prefixes, &state.dump_prefixes] {
            put_u32(&mut out, list.len() as u32);
            for p in list {
                put_u32(&mut out, p.addr_u32());
                out.push(p.len());
            }
        }
        put_u32(&mut out, state.per_client.len() as u32);
        for &(client, requests, bytes) in &state.per_client {
            put_u32(&mut out, client);
            put_u64(&mut out, requests);
            put_u64(&mut out, bytes);
        }
        out.extend_from_slice(&fields[ROWS_AT..]);
        out
    }

    /// Payloads of both older versions decode to the state they were
    /// written from, refuse every cut and rows or prefixes out of order,
    /// and are larger than the current form of that state.
    #[test]
    fn older_payloads_still_decode() {
        let state = sample_state();
        let v3 = encode_state(&state);
        type Coder = fn(&StreamState) -> Vec<u8>;
        for (version, coder, row_order) in [
            (1, v1_payload as Coder, "client row order"),
            (2, v2_payload, "client address overflow"),
        ] {
            let old = coder(&state);
            assert_eq!(decode_state_version(&old, version), Ok(state.clone()));
            assert!(v3.len() < old.len(), "v{version}");
            for cut in 0..old.len() {
                let got = decode_state_version(&old[..cut], version);
                assert!(got.is_err(), "v{version} cut at {cut}");
            }
            let mut s = state.clone();
            s.per_client.swap(0, 1);
            let got = decode_state_version(&coder(&s), version);
            assert_eq!(got, Err(bad(row_order)), "v{version}");
            let mut s = state.clone();
            s.bgp_prefixes.swap(0, 1);
            let got = decode_state_version(&coder(&s), version);
            assert_eq!(got, Err(bad("bgp prefix list")), "v{version}");
        }
        assert_eq!(decode_state_version(&v3, FORMAT_VERSION), Ok(state.clone()));
        for version in [0, FORMAT_VERSION + 1] {
            let got = decode_state_version(&v3, version);
            assert_eq!(got, Err(bad("format version")), "v{version}");
        }
    }

    /// The version-3 list coder against a direct spelling of its rule on
    /// prefixes of every length, packed and sparse: every code is
    /// `d · 33 + len` with `d` counted from the aligned previous address,
    /// and the decoder inverts it.
    #[test]
    fn prefix_codes_count_in_units_of_their_own_length() {
        let mut prefixes: Vec<Ipv4Net> = (0..5_000u32)
            .map(|i| Ipv4Net::new(i.wrapping_mul(2_654_435_761), (i % 33) as u8).unwrap())
            .chain((0..=32).map(|len| Ipv4Net::new(u32::MAX, len).unwrap()))
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        let mut prev = 0u32;
        for &p in &prefixes {
            let size = 1u64 << (32 - u32::from(p.len()));
            let base = u64::from(prev).div_ceil(size) * size;
            let d = (u64::from(p.addr_u32()) - base) / size;
            let code = prefix_code(prev, p);
            assert_eq!(code, d * 33 + u64::from(p.len()), "{p} after {prev:#x}");
            assert_eq!(prefix_of(prev, code), Some(p), "{p} after {prev:#x}");
            prev = p.addr_u32();
        }
        // A /24 right after another /24 costs one byte, as does a /16
        // inside the /8 before it.
        assert_eq!(prefix_code(0x0A00_0100, net("10.0.2.0/24")), 33 + 24);
        assert_eq!(prefix_code(0x0A00_0000, net("10.0.0.0/16")), 16);
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
