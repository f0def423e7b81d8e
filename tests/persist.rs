//! Property-based tests on the durable codecs: arbitrary frame payloads
//! round-trip, and *every* single-bit flip or truncation of the encoded
//! bytes is rejected with a typed error — never a panic, never silently
//! wrong data; generated snapshot states round-trip and re-encode byte for
//! byte, and any byte string the state decoder accepts is the encoding of
//! what it decoded; a stream restored from a generated state writes the
//! same snapshot file by either of its two routes to the store. The unit
//! tests in `persist::codec` and `persist::state`
//! pin reference vectors and wire bytes; these properties sweep the input
//! space.

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::path::Path;

use netclust_testkit::TempDir;

use netclust::core::persist::codec::{
    decode_frame, decode_header, encode_frame, encode_header, FILE_JOURNAL, FILE_SNAPSHOT,
    HEADER_BYTES, REC_BATCH, REC_STATE,
};
use netclust::core::persist::{
    decode_batch, decode_state, encode_batch, encode_state, JournalBatch,
};
use netclust::core::{
    ErrorCounts, FeedProgress, FsyncPolicy, PatchStats, PersistError, StateStore, StreamState,
    StreamingClustering, SwapPolicy, SwapRejection, SwapStats,
};
use netclust::obs::Obs;
use netclust::prefix::Ipv4Net;
use netclust::rtable::{MergedTable, RoutingTable, TableDelta, TableKind};
use proptest::prelude::*;

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..200)
}

fn arb_kind() -> impl Strategy<Value = u8> {
    REC_STATE..=REC_BATCH
}

/// Arbitrary journal batches: the prefix is canonicalised by `Ipv4Net::new`
/// (host bits masked off), matching what the feed loop journals.
fn arb_batch() -> impl Strategy<Value = JournalBatch> {
    (
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec((any::<u32>(), 0u8..=32, 0u8..=2), 0..40),
    )
        .prop_map(|(feed_index, session_reset, raw)| JournalBatch {
            feed_index,
            session_reset,
            deltas: raw
                .into_iter()
                .map(|(addr, len, kind)| {
                    let prefix = Ipv4Net::new(addr, len).expect("canonicalised");
                    match kind {
                        0 => TableDelta::announce(prefix),
                        1 => TableDelta::withdraw(prefix),
                        _ => TableDelta::replace(prefix),
                    }
                })
                .collect(),
        })
}

/// An address drawn to hit the edges often: 0, `u32::MAX`, a dense low
/// run, or anywhere.
fn arb_addr() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..64, any::<u32>()]
}

/// A count drawn likewise: 0, `u64::MAX`, small, or anywhere.
fn arb_count() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..300, any::<u64>()]
}

/// A sorted, duplicate-free prefix list, sometimes empty, sometimes with
/// `0.0.0.0/0` or `255.255.255.255/32` in it.
fn arb_prefixes() -> impl Strategy<Value = Vec<Ipv4Net>> {
    let len = prop_oneof![Just(0usize), 0usize..40];
    (len, proptest::collection::vec((arb_addr(), 0u8..=32), 40)).prop_map(|(len, raw)| {
        let mut list: Vec<Ipv4Net> = raw[..len]
            .iter()
            .map(|&(addr, bits)| Ipv4Net::new(addr, bits).expect("canonicalised"))
            .collect();
        list.sort_unstable();
        list.dedup();
        list
    })
}

fn arb_rejection() -> impl Strategy<Value = Option<SwapRejection>> {
    (
        0u8..4,
        any::<usize>(),
        any::<usize>(),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(tag, entries, floor, a, b)| match tag {
            0 => None,
            1 => Some(SwapRejection::TooFewEntries { entries, floor }),
            2 => Some(SwapRejection::NoiseOverBudget {
                ratio: a,
                budget: b,
            }),
            _ => Some(SwapRejection::CoverageCollapse {
                before: a,
                after: b,
                floor: a * b,
            }),
        })
}

/// Rows that crowd the address space: none, hundreds in one /16, or
/// neighbours across a /16 edge (`a.b.255.255` and `a.b+1.0.0`).
fn arb_crowded_rows() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    let low_rows = proptest::collection::vec((any::<u16>(), arb_count(), arb_count()), 100..400);
    let one_16 = (any::<u16>(), low_rows).prop_map(|(high, rows)| {
        (rows.into_iter())
            .map(|(low, r, b)| (u32::from(high) << 16 | u32::from(low), r, b))
            .collect()
    });
    let edge = (1u32..=0xFFFF, arb_count(), arb_count()).prop_map(|(high, r, b)| {
        let first = high << 16;
        vec![(first - 1, r, b), (first, b, r)]
    });
    prop_oneof![Just(Vec::new()), one_16, edge]
}

/// A snapshot state as a stream exports it: prefix lists and client rows
/// sorted, every other field anything.
fn arb_state() -> impl Strategy<Value = StreamState> {
    let rows = proptest::collection::vec((arb_addr(), arb_count(), arb_count()), 0..60);
    let counters = proptest::collection::vec(arb_count(), 20);
    (
        (arb_prefixes(), arb_prefixes()),
        (rows, arb_crowded_rows()),
        counters,
        arb_rejection(),
    )
        .prop_map(|((bgp, dump), (mut rows, crowded), c, last_rejection)| {
            rows.extend(crowded);
            rows.sort_unstable_by_key(|&(addr, _, _)| addr);
            rows.dedup_by_key(|&mut (addr, _, _)| addr);
            StreamState {
                table_version: c[0],
                feed_pos: c[1],
                bgp_prefixes: bgp,
                dump_prefixes: dump,
                per_client: rows,
                total_requests: c[2],
                unclustered_requests: c[3],
                clf_counts: ErrorCounts::new(c[4], c[5]),
                swap_stats: SwapStats {
                    accepted: c[6],
                    rejected: c[7],
                    stale_age: c[8],
                },
                patch_stats: PatchStats {
                    batches: c[9],
                    accepted: c[10],
                    rejected: c[11],
                    slot_writes: c[12],
                    group_rebuilds: c[13],
                    recompiles: c[14],
                },
                last_rejection,
                feed: FeedProgress {
                    coverage_start_bits: c[15],
                    resets: c[16],
                    deltas_total: c[17],
                    reassigned: c[18],
                },
            }
        })
}

/// `state` made one a stream can be restored from and patched: each count
/// that would push its column's sum over all clients past `u64::MAX`
/// becomes 0 (so no cluster's aggregate can overflow, whatever a patch
/// regroups), the two request totals are what the rows and the tables
/// say, and the version and patch counters leave room to count a batch.
fn restorable(mut state: StreamState) -> StreamState {
    let p = &mut state.patch_stats;
    for counter in [
        &mut state.table_version,
        &mut p.batches,
        &mut p.accepted,
        &mut p.rejected,
        &mut p.slot_writes,
        &mut p.group_rebuilds,
        &mut p.recompiles,
    ] {
        *counter >>= 1;
    }
    let (mut requests, mut bytes) = (0u64, 0u64);
    for (_, r, b) in &mut state.per_client {
        for (value, sum) in [(r, &mut requests), (b, &mut bytes)] {
            match sum.checked_add(*value) {
                Some(total) => *sum = total,
                None => *value = 0,
            }
        }
    }
    let tier = |kind, prefixes: &Vec<Ipv4Net>| RoutingTable::new("t", "d", kind, prefixes.clone());
    let bgp = tier(TableKind::Bgp, &state.bgp_prefixes);
    let dump = tier(TableKind::NetworkDump, &state.dump_prefixes);
    let table = MergedTable::merge([&bgp, &dump]);
    state.total_requests = requests;
    state.unclustered_requests = (state.per_client.iter())
        .filter(|&&(addr, _, _)| table.lookup_u32(addr).is_none())
        .map(|&(_, r, _)| r)
        .sum();
    state
}

/// The snapshot file `write` leaves in a fresh store under `dir`, which
/// does not exist yet.
fn snapshot_file(
    dir: &Path,
    write: impl FnOnce(&mut StateStore) -> Result<u64, PersistError>,
) -> Vec<u8> {
    let mut store = StateStore::create(dir, FsyncPolicy::Os).expect("create store");
    let generation = write(&mut store).expect("checkpoint");
    std::fs::read(store.snapshot_path(generation)).expect("snapshot file")
}

/// Requests fed to a stream after its restore, in the order drawn, each
/// `(pick, low bits, where, bytes)`: `where` 0 is a new client in the /16
/// of the restored client `pick` names, 1 that client itself (its counts
/// grow, and their varints may lengthen), 2 a client near the
/// 10.11.255.255 / 10.12.0.0 edge, 3 anywhere.
fn arb_pushes() -> impl Strategy<Value = Vec<(usize, u16, u8, u32)>> {
    let bytes = prop_oneof![0u32..300, any::<u32>()];
    proptest::collection::vec((any::<usize>(), any::<u16>(), 0u8..4, bytes), 0..200)
}

/// Feeds `pushes` (see [`arb_pushes`]) to `stream`, restored from `state`,
/// as one buffer of CLF lines, skipping any that would carry a request or
/// byte total past `u64::MAX`.
fn push_shuffled(
    stream: &mut StreamingClustering,
    state: &StreamState,
    pushes: &[(usize, u16, u8, u32)],
) {
    let total =
        |column: fn(&(u32, u64, u64)) -> u64| -> u64 { state.per_client.iter().map(column).sum() };
    let (mut requests, mut bytes) = (total(|r| r.1), total(|r| r.2));
    let mut text = String::new();
    for &(pick, low, place, sent) in pushes {
        let restored = state.per_client.get(pick % state.per_client.len().max(1));
        let client = match (place, restored) {
            (0, Some(&(addr, _, _))) => addr & !0xFFFF | u32::from(low),
            (1, Some(&(addr, _, _))) => addr,
            (2, _) => 0x0A0B_FF00 + u32::from(low % 512),
            _ => u32::from(low) << 16 | u32::from(low.rotate_left(5)),
        };
        let (Some(r), Some(b)) = (requests.checked_add(1), bytes.checked_add(u64::from(sent)))
        else {
            continue;
        };
        (requests, bytes) = (r, b);
        let client = Ipv4Addr::from(client);
        let _ = writeln!(
            text,
            "{client} - - [13/Feb/1998:07:00:00 +0000] \"GET / HTTP/1.0\" 200 {sent}"
        );
    }
    assert!(stream.push_clf(text.as_bytes()).is_empty());
}

proptest! {
    /// The daemon's snapshot path — the stream coding its client rows in
    /// one walk in address order straight into the snapshot's file, the
    /// sorted run with the arrival tail's records let in where they fall,
    /// and the store placing the fields, the row count and the prefix
    /// lists around them, then the checksum — writes the file the
    /// export-then-checkpoint path writes, byte for byte, over the table
    /// as compiled (prefixes read from its arena) and as patched (from
    /// its live map); both recover to the export. After its restore, which lays the rows out as the
    /// sorted run, the stream is fed requests in a shuffled order, so new
    /// clients land in the arrival tail out of order and rows grow.
    #[test]
    fn a_stream_encodes_the_snapshot_it_exports(
        state in arb_state(),
        pushes in arb_pushes(),
        patch in any::<bool>(),
        batch in arb_batch(),
    ) {
        let state = restorable(state);
        let mut stream =
            StreamingClustering::restore(&state, SwapPolicy {
                min_entries: 0,
                max_noise_ratio: 1.0,
                min_coverage_retention: 0.0,
            }, Obs::disabled())
                .expect("a restorable state");
        push_shuffled(&mut stream, &state, &pushes);
        if patch {
            stream.apply_deltas(&batch.deltas);
        }
        let exported = stream.export_state();
        let dir = TempDir::new("netclust-codec-eq");
        let (by_export, by_encode) = (dir.join("export"), dir.join("encode"));
        let exported_bytes = snapshot_file(&by_export, |store| store.checkpoint(&exported));
        let encoded_bytes =
            snapshot_file(&by_encode, |store| store.checkpoint_encoded(|to| stream.encode_state(to)));
        prop_assert_eq!(&encoded_bytes, &exported_bytes);
        for from in [&by_export, &by_encode] {
            let (_, recovered, _) = StateStore::recover(from, FsyncPolicy::Os).expect("recover");
            prop_assert_eq!(&recovered, &exported);
        }
    }

    /// Any payload of any record kind comes back bit-for-bit.
    #[test]
    fn frame_round_trips(payload in arb_payload(), kind in arb_kind()) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, kind, &payload);
        let frame = decode_frame(&buf, 0)
            .expect("decode")
            .expect("one frame present");
        prop_assert_eq!(frame.kind, kind);
        prop_assert_eq!(frame.payload, &payload[..]);
        prop_assert_eq!(frame.span, buf.len());
        // The frame consumes the whole buffer: the next decode is clean EOF.
        prop_assert!(decode_frame(&buf[frame.span..], frame.span as u64)
            .expect("eof")
            .is_none());
    }

    /// Every single-bit flip anywhere in the encoded frame — length field,
    /// kind byte, payload, or trailing CRC — is detected. CRC32 detects all
    /// single-bit errors outright; flips in the length field re-frame the
    /// record so the checksum is read from the wrong offset and mismatches.
    #[test]
    fn every_bit_flip_is_rejected(payload in arb_payload(), kind in arb_kind()) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, kind, &payload);
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                decode_frame(&bad, 0).is_err(),
                "flip of bit {} went undetected",
                bit
            );
        }
    }

    /// Every strict prefix of an encoded frame is a torn frame (or a bad
    /// checksum when the cut lands inside the CRC), never a panic and never
    /// a shorter "valid" record. An empty buffer is clean EOF.
    #[test]
    fn every_truncation_is_rejected(payload in arb_payload(), kind in arb_kind()) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, kind, &payload);
        prop_assert!(decode_frame(&[], 0).expect("empty is eof").is_none());
        for cut in 1..buf.len() {
            prop_assert!(
                decode_frame(&buf[..cut], 0).is_err(),
                "truncation to {} of {} bytes went undetected",
                cut,
                buf.len()
            );
        }
    }

    /// A frame decoded at a non-zero offset (after an earlier frame) sees
    /// the same torn/corrupt guarantees as one at the start of the file.
    #[test]
    fn second_frame_truncation_is_rejected(
        first in arb_payload(),
        second in arb_payload(),
        kind in arb_kind(),
    ) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, kind, &first);
        let boundary = buf.len();
        encode_frame(&mut buf, kind, &second);
        for cut in boundary + 1..buf.len() {
            let head = decode_frame(&buf[..cut], 0)
                .expect("first frame intact")
                .expect("first frame present");
            prop_assert_eq!(head.payload, &first[..]);
            prop_assert!(
                decode_frame(&buf[boundary..cut], boundary as u64).is_err(),
                "tail truncation to {} went undetected",
                cut
            );
        }
    }

    /// File headers round-trip and reject every single-bit flip (magic,
    /// version, kind, flags, or header CRC).
    #[test]
    fn header_bit_flips_are_rejected(kind in prop_oneof![Just(FILE_SNAPSHOT), Just(FILE_JOURNAL)]) {
        let header = encode_header(kind);
        prop_assert_eq!(decode_header(&header).expect("intact header").kind, kind);
        for bit in 0..HEADER_BYTES * 8 {
            let mut bad = header;
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                decode_header(&bad).is_err(),
                "header flip of bit {} went undetected",
                bit
            );
        }
    }

    /// Journal batch payloads round-trip through the wire codec, and every
    /// truncation of the payload is rejected without panicking.
    #[test]
    fn journal_batch_round_trips(batch in arb_batch()) {
        let bytes = encode_batch(&batch);
        prop_assert_eq!(decode_batch(&bytes).expect("round trip"), batch);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_batch(&bytes[..cut]).is_err(),
                "batch truncation to {} of {} bytes went undetected",
                cut,
                bytes.len()
            );
        }
    }

    /// A generated state decodes to itself, and re-encoding what was
    /// decoded gives back the same bytes: the snapshot form is canonical.
    #[test]
    fn generated_states_round_trip_byte_identically(state in arb_state()) {
        let bytes = encode_state(&state);
        let back = decode_state(&bytes).expect("round trip");
        prop_assert_eq!(&back, &state);
        prop_assert_eq!(encode_state(&back), bytes);
    }

    /// Every truncation of a state payload is refused, and a sample of
    /// byte mutations (a flipped byte; a byte spelled as an overlong
    /// varint) is either refused with a typed error or decodes to a state
    /// whose encoding is exactly the mutated bytes — never a panic, never
    /// a second spelling of a state.
    #[test]
    fn truncated_or_mutated_states_are_refused_or_canonical(
        state in arb_state(),
        edits in proptest::collection::vec((any::<usize>(), 1u8..=255), 24),
    ) {
        let bytes = encode_state(&state);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_state(&bytes[..cut]).is_err(),
                "truncation to {} of {} bytes accepted",
                cut,
                bytes.len()
            );
        }
        for (at, flip) in edits {
            let at = at % bytes.len();
            let mut flipped = bytes.clone();
            flipped[at] ^= flip;
            // A byte that could end a varint, spelled in two: the same
            // value in an overlong form when it does end one.
            let mut respelled = bytes.clone();
            if respelled[at] < 0x80 {
                respelled[at] |= 0x80;
                respelled.insert(at + 1, 0x00);
            }
            for (how, bad) in [("flipped", flipped), ("respelled", respelled)] {
                if let Ok(decoded) = decode_state(&bad) {
                    prop_assert_eq!(
                        encode_state(&decoded),
                        bad,
                        "byte {} {} ({:#04x}) decoded to a state spelled otherwise",
                        at,
                        how,
                        flip
                    );
                }
            }
        }
    }
}
