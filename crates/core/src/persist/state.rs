//! Serializable durable state: the full [`StreamState`] snapshot of a
//! [`StreamingClustering`](crate::StreamingClustering) and the per-batch
//! [`JournalBatch`] journal record, with their canonical wire codecs.
//!
//! The encodings are **canonical**: prefixes and per-client rows are
//! sorted and coded as minimal delta varints, and the decoder *enforces*
//! that form (no overlong varint, no address past `u32::MAX`, strictly
//! increasing prefixes with zero host bits, a zero reserved byte), so
//! `decode(encode(s)) == s` and `encode(decode(b)) == b` for every
//! accepted byte string. That is what lets the crash-recovery harness
//! compare snapshot files byte-for-byte between a crashed-and-recovered
//! process and an uninterrupted one.
//!
//! Format version 1 wrote the same fields with fixed-width rows and
//! prefixes; [`decode_state_version`] still reads it, and nothing writes
//! it.
//!
//! Checksums and framing live one layer down in [`super::codec`]; this
//! module assumes its input already passed a CRC, so a decode failure here
//! means a *structural* problem (a version skew or a bug), reported as a
//! typed [`StateDecodeError`], never a panic.

use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

use netclust_obs::ErrorCounts;
use netclust_prefix::Ipv4Net;
use netclust_rtable::{decode_deltas, encode_deltas, TableDelta, DELTA_WIRE_BYTES};

use super::codec::{
    put_varint, varint_len, Reader, FORMAT_VERSION, OLDEST_READ_VERSION, VARINT_MAX_BYTES,
};
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
    /// Version 2: delta varints, as [`Chunked::prefixes`],
    /// [`encode_state`] and [`EncodedState::write_wire`] write them.
    Varint,
}

/// Bytes [`Chunked::prefixes`] codes `prefixes` to, but for the count.
fn prefixes_len(prefixes: impl Iterator<Item = Ipv4Net>) -> usize {
    let mut prev = 0u32;
    (prefixes.map(|p| {
        let gap = p.addr_u32().wrapping_sub(prev);
        prev = p.addr_u32();
        varint_len(u64::from(gap)) + 1
    }))
    .sum()
}

/// Decodes a sorted prefix list, enforcing canonical form: every address
/// within `u32`, each prefix's host bits already zero and the list
/// strictly increasing by `(address, length)`.
fn take_prefixes(
    r: &mut Reader<'_>,
    what: &'static str,
    layout: Layout,
) -> Result<Vec<Ipv4Net>, StateDecodeError> {
    let n = r.u32_le().ok_or(bad(what))? as usize;
    let least = match layout {
        Layout::Fixed => 5,
        Layout::Varint => 2,
    };
    let mut out = Vec::with_capacity(n.min(r.remaining() / least));
    let mut prev: Option<Ipv4Net> = None;
    for _ in 0..n {
        let addr = match layout {
            Layout::Fixed => r.u32_le(),
            Layout::Varint => {
                let base = prev.map_or(0, |p| u64::from(p.addr_u32()));
                let addr = r.varint().and_then(|gap| base.checked_add(gap));
                addr.and_then(|a| u32::try_from(a).ok())
            }
        };
        let addr = addr.ok_or(bad(what))?;
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
const CODE_CHUNK: usize = 32 << 10;

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

    /// Copies the first `len` bytes of `block`, as the whole block; the
    /// next code overwrites what is past them. [`room`](Self::room) was
    /// made for the block.
    fn block(&mut self, block: &[u8; ROW_ROOM], len: usize) {
        if let Some(to) = self
            .buf
            .get_mut(self.len..)
            .and_then(|s| s.first_chunk_mut())
        {
            *to = *block;
            self.len += len;
        }
    }

    /// A prefix list: its `u32` count, then per prefix a varint of its
    /// address's distance from the previous prefix's address (from 0 for
    /// the first) and its length byte.
    fn prefixes(&mut self, prefixes: impl ExactSizeIterator<Item = Ipv4Net>) -> Result<(), E> {
        self.room(4)?;
        #[allow(
            clippy::cast_possible_truncation,
            reason = "an IPv4 prefix set is bounded far below u32::MAX entries."
        )]
        self.bytes(&(prefixes.len() as u32).to_le_bytes());
        let mut prev = 0u32;
        for p in prefixes {
            self.room(VARINT_MAX_BYTES + 1)?;
            // Wraps only for a list out of order, which the decoder then
            // refuses as an address past `u32::MAX`.
            self.varint(u64::from(p.addr_u32().wrapping_sub(prev)));
            self.bytes(&[p.len()]);
            prev = p.addr_u32();
        }
        Ok(())
    }
}

/// Bytes a bucketed row reserves for its two counts' varints in
/// [`EncodedState::with_room`]: a request count under 2^7 and a byte count
/// under 2^21 take 4 (the rows of the benchmark's `wide` and `narrow`
/// states take 3.6 and 3.9). A state whose rows take more grows the room.
const SUMS_RESERVE: usize = 4;

/// `n` copies of `fill` in a vector reserved for exactly them, and written:
/// its pages are faulted in now. (A zero fill may be turned into a
/// `calloc`, which maps pages untouched.)
fn touched<T: Copy>(n: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, fill);
    v
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
    for &(client, requests, bytes) in &state.per_client {
        to.room(3 * VARINT_MAX_BYTES)?;
        // Wraps only for rows out of address order, which the decoder
        // then refuses as an address past `u32::MAX`.
        to.varint(u64::from(client).wrapping_sub(next));
        to.varint(requests);
        to.varint(bytes);
        next = u64::from(client) + 1;
    }
    to.piece(fields.get(ROWS_AT..).unwrap_or_default())
}

/// A snapshot payload whose client rows are coded but for their address
/// gaps, bucketed by /16 and within a bucket still in the order their
/// producer held them: a row is `[low 16 address bits][requests
/// varint][bytes varint]`, in its /16's bucket of one buffer, the buckets
/// in address order. Only
/// [`StateStore::checkpoint_encoded`](super::StateStore::checkpoint_encoded)
/// takes one: it sorts each bucket by its low bits
/// (`finish`), then writes the payload — the prefix lists
/// coded from the serving generation the producer held, each row's
/// address gap then its varints — through one bounded stack buffer. The
/// canonical order the decoder enforces cannot be skipped, and no row
/// exists twice.
///
/// The default value is an empty one with no room reserved; see
/// [`with_room`](Self::with_room).
#[derive(Debug, Default)]
pub struct EncodedState {
    /// The payload's fields but for the prefix lists and the client rows
    /// ([`fields`]).
    bytes: Vec<u8>,
    /// The serving generation whose prefix lists are coded on the way
    /// out. It is immutable, so they are coded from it after the
    /// producer's lock is dropped, and it is let go once they are.
    serving: Option<Arc<LiveTable>>,
    /// The rows, bucket after bucket, then [`ROW_MAX`] bytes of slack, so
    /// a row is written in, and its varints copied out, as one fixed-size
    /// block.
    rows: Vec<u8>,
    /// Where each /16's bucket ends in `rows`, which is where the next
    /// one starts: [`BUCKETS`] of them.
    ends: Vec<u32>,
}

/// Where the prefix lists go in the payload: after `table_version` and
/// `feed_pos`.
const LISTS_AT: usize = 16;

/// Where the client rows go in [`fields`]: after the row count that
/// follows the prefix lists.
const ROWS_AT: usize = LISTS_AT + 4;

/// Most bytes a row's two counts code to.
const ROW_ROOM: usize = 2 * VARINT_MAX_BYTES;

/// Most bytes a bucketed row takes.
const ROW_MAX: usize = LOW_BYTES + ROW_ROOM;

/// One bucket a /16, indexed by an address's top 16 bits.
const BUCKETS: usize = 1 << 16;

/// Bytes a bucketed row keeps of its address: the low 16 bits.
const LOW_BYTES: usize = 2;

/// Fewest bytes a bucketed row takes: its low bits and two one-byte
/// varints.
const MIN_ROW: usize = LOW_BYTES + 2;

/// The bucket of `client`: its /16.
fn bucket(client: u32) -> usize {
    (client >> 16) as usize
}

/// Bytes the bucketed row of a client with these `(requests, bytes)`
/// takes.
#[allow(clippy::cast_possible_truncation, reason = "at most 22 bytes a row.")]
fn row_len((requests, bytes): (u64, u64)) -> u32 {
    (LOW_BYTES + varint_len(requests) + varint_len(bytes)) as u32
}

/// Bytes the bucketed rows of each /16's clients take, kept by the stream
/// as their counts change: the sizes [`EncodedState::new`] lays its
/// buckets out by, so the encoder's pass under the stream's lock is its
/// only pass over the records. One `u32` a /16: a /16's rows take at most
/// 2^16 × 22 bytes.
#[derive(Debug)]
pub(crate) struct RowBytes(Vec<u32>);

impl RowBytes {
    /// No client yet. Pages are written as their /16s fill.
    pub(crate) fn new() -> Self {
        RowBytes(vec![0; BUCKETS])
    }

    /// Notes that `client`'s counts went from `before` (`None` for a
    /// client not seen before) to `after`. Counts only grow, and a varint
    /// only lengthens with its value.
    pub(crate) fn note(&mut self, client: u32, before: Option<(u64, u64)>, after: (u64, u64)) {
        let grown = row_len(after) - before.map_or(0, row_len);
        if grown != 0 {
            if let Some(len) = self.0.get_mut(bucket(client)) {
                *len += grown;
            }
        }
    }
}

/// The low address bits and the length of the bucketed row at `rows[at..]`,
/// if the buffer holds one there with its slack.
fn row_at(rows: &[u8], at: usize) -> Option<(u32, usize)> {
    let row = rows.get(at..)?;
    let low = row.first_chunk::<LOW_BYTES>()?;
    let sums = row.get(LOW_BYTES..)?.first_chunk::<ROW_ROOM>()?;
    Some((
        u32::from(u16::from_le_bytes(*low)),
        LOW_BYTES + two_varints_len(sums),
    ))
}

impl EncodedState {
    /// An empty one with room for the rows of `clients` clients and the
    /// bucket table, their pages already written: a caller that encodes
    /// under a lock makes it before taking the lock, and the pass under
    /// the lock then faults no page in.
    pub fn with_room(clients: usize) -> Self {
        EncodedState {
            rows: touched(clients * (LOW_BYTES + SUMS_RESERVE) + ROW_MAX, u8::MAX),
            ends: touched(BUCKETS, u32::MAX),
            ..EncodedState::default()
        }
    }

    /// Bytes it holds and will hold, as capacity: the bucketed rows, the
    /// bucket table and the scratch the store sorts a bucket in, sized by
    /// the largest — the room a snapshot maps beside the state it encodes.
    pub fn room_bytes(&self) -> usize {
        let table = self.ends.capacity() * std::mem::size_of::<u32>();
        self.rows.capacity() + table + Self::scratch_bytes(self.largest_bucket())
    }

    /// Encodes `head`'s fields and `rows` into their buckets in `room`
    /// (grown where it is short), holding `serving` for the prefix lists:
    /// the bucket table laid out from `sizes`, each bucket starting where
    /// the one before it ends, then one pass over the rows, each written
    /// at its bucket's cursor, so that the table ends as the buckets' ends.
    /// `sizes` must be what `rows` take. `head.per_client` is not read:
    /// whoever has the rows elsewhere (a live stream) passes them without
    /// building that vector first.
    pub(crate) fn new(
        room: EncodedState,
        head: &StreamState,
        serving: Arc<LiveTable>,
        sizes: &RowBytes,
        rows: impl ExactSizeIterator<Item = (u32, u64, u64)>,
    ) -> Self {
        let bytes = fields(head, rows.len());
        let EncodedState {
            rows: mut buf,
            mut ends,
            ..
        } = room;
        // This runs under the daemon's stream lock.
        let mut total = 0u32;
        ends.clear();
        ends.extend(sizes.0.iter().map(|&len| {
            let start = total;
            total += len;
            start
        }));
        // At most 22 bytes a row: 2^32 bytes is 195 M clients, past any
        // state whose records (24 bytes each) this process holds.
        let least = total as usize + ROW_MAX;
        if buf.len() < least {
            buf.reserve_exact(least - buf.len());
            buf.resize(least, 0);
        }
        for (client, requests, served) in rows {
            let Some(end) = ends.get_mut(bucket(client)) else {
                continue;
            };
            let at = *end as usize;
            let Some(row) = buf
                .get_mut(at..)
                .and_then(|s| s.first_chunk_mut::<ROW_MAX>())
            else {
                continue;
            };
            let (low, sums) = row.split_at_mut(LOW_BYTES);
            #[allow(clippy::cast_possible_truncation, reason = "the low 16 bits.")]
            low.copy_from_slice(&(client as u16).to_le_bytes());
            let n = put_varint_at(sums, 0, requests);
            #[allow(clippy::cast_possible_truncation, reason = "within total, a u32.")]
            let len = (LOW_BYTES + put_varint_at(sums, n, served)) as u32;
            *end += len;
        }
        EncodedState {
            bytes,
            serving: Some(serving),
            rows: buf,
            ends,
        }
    }

    /// Bytes of the largest bucket's rows.
    fn largest_bucket(&self) -> usize {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let lens = starts.zip(&self.ends).map(|(start, &end)| end - start);
        lens.max().unwrap_or(0) as usize
    }

    /// The scratch [`finish`](Self::finish) sorts buckets of at most
    /// `largest` bytes in: a sorted copy of the bucket and an 8-byte key
    /// for each of its rows.
    fn scratch_bytes(largest: usize) -> usize {
        largest + largest / MIN_ROW * std::mem::size_of::<u64>()
    }

    /// What is left once the producer's lock is dropped: each bucket's
    /// rows put in address order, in a scratch no larger than the largest
    /// bucket needs (a bucket already in order is only read).
    pub(super) fn finish(&mut self) {
        let largest = self.largest_bucket();
        // One a row: its low address bits above its offset in `rows`.
        let mut keys: Vec<u64> = Vec::with_capacity(largest / MIN_ROW);
        let mut sorted = Vec::with_capacity(largest);
        let mut start = 0;
        for &end in &self.ends {
            let bucket = start as usize..end as usize;
            start = end;
            keys.clear();
            let (mut at, mut in_order) = (bucket.start, true);
            while let Some((low, len)) = (at < bucket.end).then(|| row_at(&self.rows, at)).flatten()
            {
                let key = u64::from(low) << 32 | at as u64;
                in_order &= keys.last().is_none_or(|&last| last < key);
                keys.push(key);
                at += len;
            }
            if in_order {
                continue;
            }
            keys.sort_unstable();
            sorted.clear();
            for &key in &keys {
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "the key's low half is the offset."
                )]
                let at = key as u32 as usize;
                if let Some((_, len)) = row_at(&self.rows, at) {
                    sorted.extend_from_slice(self.rows.get(at..at + len).unwrap_or_default());
                }
            }
            if let Some(rows) = self.rows.get_mut(bucket) {
                rows.copy_from_slice(&sorted);
            }
        }
    }

    /// Bytes [`write_wire`](Self::write_wire) hands out.
    pub(super) fn wire_len(&self) -> usize {
        let lists = self.serving.as_ref().map_or(0, |live| {
            let dump = live.table.dump_prefixes().iter().copied();
            8 + prefixes_len(live.table.live_iter()) + prefixes_len(dump)
        });
        let rows: usize = self.rows().map(|(gap, _, len)| varint_len(gap) + len).sum();
        self.bytes.len() + lists + rows
    }

    /// Hands the payload to `emit` in order and in pieces, coded through
    /// a [`CODE_CHUNK`] stack buffer: the fields before the prefix lists,
    /// the lists (after which the generation held for them is let go), the
    /// fields before the rows, the rows, the fields after them. Stops at
    /// `emit`'s first error.
    pub(super) fn write_wire<E>(
        &mut self,
        emit: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut to = Chunked::new(emit);
        to.piece(self.bytes.get(..LISTS_AT).unwrap_or_default())?;
        if let Some(live) = self.serving.take() {
            to.prefixes(live.table.live_iter())?;
            to.prefixes(live.table.dump_prefixes().iter().copied())?;
        }
        to.piece(self.bytes.get(LISTS_AT..ROWS_AT).unwrap_or_default())?;
        for (gap, at, len) in self.rows() {
            to.room(VARINT_MAX_BYTES + ROW_ROOM)?;
            to.varint(gap);
            if let Some(sums) = self.rows.get(at..).and_then(|s| s.first_chunk()) {
                to.block(sums, len);
            }
        }
        to.piece(self.bytes.get(ROWS_AT..).unwrap_or_default())
    }

    /// Each row, in bucket order, as its address's distance above the
    /// previous row's address plus one (the first row's address itself),
    /// where its varints start in `rows` and how many bytes they take.
    fn rows(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let buckets = (0u32..).zip(starts.zip(self.ends.iter().copied()));
        let mut next = 0u64;
        let rows = buckets.flat_map(move |(high, (start, end))| {
            let mut at = start as usize;
            std::iter::from_fn(move || {
                if at >= end as usize {
                    return None;
                }
                let (low, len) = row_at(&self.rows, at)?;
                let row = (high << 16 | low, at + LOW_BYTES, len - LOW_BYTES);
                at += len;
                Some(row)
            })
        });
        rows.map(move |(client, at, len)| {
            let client = u64::from(client);
            // Wraps only for a client given twice, which the decoder then
            // refuses as an address past `u32::MAX`.
            let gap = client.wrapping_sub(next);
            next = client + 1;
            (gap, at, len)
        })
    }
}

/// Bytes of the two varints `row` starts with: through the second byte
/// whose top bit is clear, found among the first 16 at once.
fn two_varints_len(row: &[u8; ROW_ROOM]) -> usize {
    let Some(head) = row.first_chunk::<16>() else {
        return ROW_ROOM;
    };
    let ends = !u128::from_le_bytes(*head) & 0x8080_8080_8080_8080_8080_8080_8080_8080;
    let second = ends & ends.wrapping_sub(1);
    if second != 0 {
        return second.trailing_zeros() as usize / 8 + 1;
    }
    let mut ends = (1..).zip(row).filter(|&(_, &b)| b & 0x80 == 0);
    ends.nth(1).map_or(ROW_ROOM, |(len, _)| len)
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
        Layout::Varint => 3,
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
            Layout::Varint => {
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
        FORMAT_VERSION => Layout::Varint,
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
    /// snapshot written, and anything else refused by name in either
    /// version.
    #[test]
    fn a_nonzero_reserved_byte_is_refused() {
        let state = sample_state();
        for (version, mut bytes) in [
            (FORMAT_VERSION, encode_state(&state)),
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

    /// Rejection tags 3 and 4 are reserved: refused by name in either
    /// version, as is any tag past the last.
    #[test]
    fn a_reserved_rejection_tag_is_refused() {
        let mut state = sample_state();
        state.last_rejection = None;
        for (version, mut bytes) in [
            (FORMAT_VERSION, encode_state(&state)),
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

    /// The wire form pinned byte for byte, and each way a byte string can
    /// break canonical form: accepted payloads re-encode to themselves,
    /// the rest fail with the named field.
    #[test]
    fn pinned_prefix_and_row_bytes() {
        // 10.0.0.0 as a varint: 0x0A000000 in 7-bit groups, low first.
        const TEN: [u8; 4] = [0x80, 0x80, 0x80, 0x50];
        const MAX: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let cat = |parts: &[&[u8]]| parts.concat();
        let ok_rows = cat(&[&[0x01, 0x03, 0xAC, 0x02], &[0x00, 0x05, 0x01]]);
        let ok_bgp = cat(&[&TEN, &[8], &[0x00, 16], &[0x80, 0x80, 0x04, 16]]);
        type Row<'a> = (
            &'a str,
            (u32, Vec<u8>),
            (u32, Vec<u8>),
            Result<(), &'static str>,
        );
        let table: Vec<Row> = vec![
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
        for (name, bgp, rows, want) in table {
            let bytes = hand_payload((bgp.0, &bgp.1), (rows.0, &rows.1));
            match (decode_state(&bytes), want) {
                (Ok(state), Ok(())) => assert_eq!(encode_state(&state), bytes, "{name}"),
                (got, want) => assert_eq!(got.map(|_| ()), want.map_err(bad), "{name}"),
            }
        }
        let state = decode_state(&hand_payload((3, &ok_bgp), (2, &ok_rows))).unwrap();
        assert_eq!(state.per_client, [(1, 3, 300), (2, 5, 1)]);
        let want = [net("10.0.0.0/8"), net("10.0.0.0/16"), net("10.1.0.0/16")];
        assert_eq!(state.bgp_prefixes, want);
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

    #[test]
    fn version_one_payloads_still_decode() {
        let state = sample_state();
        let v1 = v1_payload(&state);
        assert_eq!(decode_state_version(&v1, 1), Ok(state.clone()));
        // Rewritten in the current form, it is smaller and reads back.
        let v2 = encode_state(&state);
        assert!(v2.len() < v1.len());
        assert_eq!(decode_state_version(&v2, FORMAT_VERSION), Ok(state.clone()));
        for cut in 0..v1.len() {
            assert!(decode_state_version(&v1[..cut], 1).is_err(), "cut at {cut}");
        }
        let mut s = state.clone();
        s.per_client.swap(0, 1);
        let got = decode_state_version(&v1_payload(&s), 1);
        assert_eq!(got, Err(bad("client row order")));
        let mut s = state;
        s.bgp_prefixes.swap(0, 1);
        let got = decode_state_version(&v1_payload(&s), 1);
        assert_eq!(got, Err(bad("bgp prefix list")));
        assert_eq!(decode_state_version(&v1, 0), Err(bad("format version")));
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
