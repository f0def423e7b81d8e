//! What the daemon holds per client, and what its bursts may allocate: the
//! table build at boot and reload, a top-N over every cluster, a snapshot
//! of the stream (also of clients crowded into one /16 or one /8), a poll
//! of a backlog. Each burst is bounded by what it
//! returns or writes, not by a copy of what it reads. This is its own test
//! binary, and its tests take one lock, so no other test's allocations
//! share the allocator it counts through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use netclust::bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust::core::{EncodedState, FsyncPolicy, StateStore, StreamingClustering};
use netclust::prefix::Ipv4Net;
use netclust::rtable::{load_tables, MergedTable, RoutingTable, TableKind};
use netclust::weblog::follow::{LogFollower, APPLY_SLICE};

/// Bytes allocated and not yet freed, and the most that has been.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The largest size a block was grown to in place (`realloc`).
static LARGEST_REGROWTH: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the block changing size: what it costs while the
        // allocator moves it is the allocator's, not the caller's.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        LARGEST_REGROWTH.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by every test for its whole run: the counters are process-wide.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `work`; returns its result and the most it had allocated, beyond
/// what was live when it started, at any moment (the result included).
fn peak_of<R>(work: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = work();
    (result, PEAK.load(Ordering::Relaxed) - before)
}

const SLACK: usize = 64 << 10;
const CLUSTERS: u32 = 50_000;
/// What the per-cluster aggregates may fill, per cluster of a stream
/// whose table has one prefix a cluster.
const AGGREGATE_BYTES_PER_CLUSTER: usize = 28;
/// What the address → id index may fill, per bucket of a table grown by
/// doubling at 7/8 load: one `u32` slot holding the client's id and hash
/// bits. A std `HashMap<u32, u32>` filled 9, an 8-byte entry and a
/// control byte.
const ADDRESS_MAP_BYTES_PER_BUCKET: usize = 4;

/// What a snapshot in flight may hold per client: its row in its /16's
/// bucket, 2 bytes of address and its counts' varints (≈ 5 bytes; the
/// room is made for 6 with a 1/64 margin for late arrivals).
const SNAPSHOT_BYTES_PER_CLIENT: usize = 7;
/// The snapshot's table of its 2^16 buckets' ends, a `u32` each.
const BUCKET_TABLE_BYTES: usize = 4 << 16;

fn clf_line(out: &mut String, addr: u32, bytes: u32) {
    let addr = Ipv4Addr::from(addr);
    let _ = writeln!(
        out,
        "{addr} - - [13/Feb/1998:07:00:00 +0000] \"GET /a.html HTTP/1.0\" 200 {bytes} \"-\" \"Mozilla/4.5\""
    );
}

/// What the table build beyond the table itself may allocate, per prefix
/// read: the file's parsed list, the merged tier and the compile's chunk
/// keys, each 8 bytes a prefix, and the slack of vectors grown by doubling.
/// Two binary tries as the merge's intermediate cost ≈ 88 more.
const BUILD_BYTES_PER_PREFIX: usize = 40;

/// Boot and a `/v1/reload` swap read the table files, merge them and
/// compile the result; the peak of that is the serving table plus a few
/// sorted lists, not a trie per tier beside it. The table is the
/// benchmark's shape: ≈ 110 000 prefixes, 8 % of them in the registry dump.
#[test]
fn the_table_build_peaks_at_the_table_it_builds() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("netclust-build-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let churn = DeltaStreamConfig::default();
    let prefixes = DeltaStream::synthetic(0x51CE, 110_000, churn).live_prefixes();
    let split = prefixes.len() * 92 / 100;
    let (bgp, dump) = (dir.join("t.bgp"), dir.join("t.dump"));
    for (path, tier) in [(&bgp, &prefixes[..split]), (&dump, &prefixes[split..])] {
        let text: String = tier.iter().map(|p| format!("{p}\n")).collect();
        fs::write(path, text).unwrap();
    }

    let (table, peak) = peak_of(|| {
        let tables = load_tables(&[&bgp], &[&dump]).unwrap();
        MergedTable::merge(tables.iter().map(|(table, _)| table)).compile()
    });
    assert_eq!(table.len(), prefixes.len());
    let budget = table.memory_bytes() + BUILD_BYTES_PER_PREFIX * prefixes.len();
    println!(
        "load + merge + compile of {} prefixes: {peak} bytes for a {} byte table, budget {budget}",
        prefixes.len(),
        table.memory_bytes()
    );
    assert!(peak <= budget, "the table build allocated {peak} bytes");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_top_n_a_poll_and_a_snapshot_allocate_what_they_return() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("netclust-alloc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // 50 000 /24 clusters of one client each, seen in an order that is
    // neither the address order nor its reverse.
    let prefixes: Vec<Ipv4Net> = (0..CLUSTERS)
        .map(|i| Ipv4Net::new(0x0A00_0000 | (i << 8), 24).unwrap())
        .collect();
    let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, prefixes);
    let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
    let mut text = String::new();
    for i in 0..CLUSTERS {
        let cluster = (i * 7_919) % CLUSTERS;
        clf_line(
            &mut text,
            0x0A00_0000 | (cluster << 8) | 7,
            100 + cluster % 900,
        );
        if cluster.is_multiple_of(5) {
            clf_line(&mut text, 0x0A00_0000 | (cluster << 8) | 7, 1);
        }
    }
    LARGEST_REGROWTH.store(0, Ordering::Relaxed);
    assert!(stream.push_clf(text.as_bytes()).is_empty());
    assert_eq!(stream.len(), CLUSTERS as usize);
    drop(text);

    // The client records and the aggregates' slots are the blocks a push
    // grows in place (the address index moves to fresh slots), doubling from 4:
    // for 50 000 clients, 2^16 records of 24 bytes — address, the handle of
    // its match, two sums — and as many slots of 24.
    let regrown = LARGEST_REGROWTH.load(Ordering::Relaxed);
    println!("the client records: {regrown} bytes for 2^16 records");
    assert_eq!(regrown, 24 << 16, "a client record is not 24 bytes");

    // The aggregates: a 4-byte index entry per table handle and a 24-byte
    // slot per cluster, 28 bytes a cluster. A hash map keyed by prefix
    // filled 2^16 buckets of a 32-byte entry and a control byte for as many
    // clusters, 43.3 bytes a cluster.
    let memory = stream.memory();
    let budget = AGGREGATE_BYTES_PER_CLUSTER * CLUSTERS as usize;
    println!(
        "the aggregates of {CLUSTERS} clusters: {} bytes, budget {budget}",
        memory.aggregates
    );
    assert!(memory.aggregates <= budget, "{memory:?}");
    assert_eq!(memory.client_records, 24 * stream.client_count());

    // The address → id index: 2^16 buckets for 50 000 clients, 4 bytes
    // each (262 144); the address stays in the record. A std map's 9 bytes
    // a bucket (589 824) fail it.
    let buckets = (stream.client_count() * 8 / 7).next_power_of_two();
    let budget = ADDRESS_MAP_BYTES_PER_BUCKET * buckets;
    println!(
        "the address map of {} clients: {} bytes, budget {budget}",
        stream.client_count(),
        memory.address_map
    );
    assert!(memory.address_map <= budget, "{memory:?}");

    // A top-N reads every cluster and keeps a screenful.
    let (top, peak) = peak_of(|| stream.top_k(10));
    assert_eq!(top.len(), 10);
    assert!(top.iter().all(|(_, s)| s.requests == 2));
    println!("top_k(10) over {CLUSTERS} clusters: {peak} bytes");
    assert!(peak < SLACK, "top_k(10) allocated {peak} bytes");

    // A snapshot holds, per client, a row in its /16's bucket — the low 16
    // address bits and its counts' varints, 5 bytes here, in room made
    // for 6 — beside the table of the buckets' ends and the scratch one
    // /16 is sorted in (256 rows here). The prefix lists are coded from
    // the table where it holds them on the way to the file, through the
    // stack buffer the rows go through, so they take no room. This is
    // the budget table's "per client, in flight" row: 12 bytes a client
    // and 6 a prefix before (an 8-byte sort key a row, and the lists
    // coded into a buffer), which this budget fails by ≈ 230 KB.
    let clients = stream.client_count();
    let budget = SNAPSHOT_BYTES_PER_CLIENT * clients + BUCKET_TABLE_BYTES + SLACK;
    let mut store = StateStore::create(dir.join("state"), FsyncPolicy::Os).unwrap();
    let (written, peak) = peak_of(|| {
        let room = EncodedState::with_room(clients + clients / 64);
        store.checkpoint_encoded(stream.encode_state(room))
    });
    assert_eq!(written.unwrap(), 1);
    println!("a snapshot of {clients} clients: {peak} bytes, budget {budget}");
    assert!(peak < budget, "a snapshot allocated {peak} bytes");
    let (_, recovered, _) = StateStore::recover(dir.join("state"), FsyncPolicy::Os).unwrap();
    assert_eq!(recovered, stream.export_state());

    // A poll holds one buffer: the line it was carrying, then what it read.
    let log = dir.join("access.log");
    let append = |bytes: &[u8]| {
        let file = OpenOptions::new().create(true).append(true).open(&log);
        file.unwrap().write_all(bytes).unwrap();
    };
    let carried = vec![b'c'; 1000];
    append(b"first\n");
    append(&carried);
    let mut follower = LogFollower::new(&log);
    assert_eq!(follower.poll().unwrap(), Some(b"first\n".to_vec()));
    let mut backlog = vec![b'x'; 4 << 20];
    backlog.chunks_mut(64).for_each(|line| line[0] = b'\n');
    append(&backlog);
    let (chunk, peak) = peak_of(|| follower.poll());
    let chunk = chunk.unwrap().expect("a backlog to read");
    assert!(chunk.starts_with(&carried) && chunk.ends_with(b"\n"));
    let read = chunk.len() - carried.len();
    assert!(
        read as u64 > APPLY_SLICE - 64,
        "a full poll read {read} bytes"
    );
    // The read, the carried line, and the room a chunk is reserved with
    // for a longer carry next time (4 KiB).
    let budget = APPLY_SLICE as usize + carried.len() + (8 << 10);
    println!(
        "a full poll carrying {} bytes: {peak} bytes, budget {budget}",
        carried.len()
    );
    assert!(peak < budget, "a full poll allocated {peak} bytes");

    // Given the chunk back, the next poll allocates its carried line only.
    follower.recycle(chunk);
    let (chunk, peak) = peak_of(|| follower.poll());
    assert!(chunk
        .unwrap()
        .is_some_and(|c| c.len() as u64 > APPLY_SLICE / 2));
    println!("a poll into the chunk given back: {peak} bytes");
    assert!(peak < 1024, "a recycled poll allocated {peak} bytes");

    let _ = fs::remove_dir_all(&dir);
}

/// The room a snapshot takes does not depend on how the clients share the
/// address space: every client in one /16, or spread over one /8, each
/// pushed out of address order. It stays under 8 bytes a client, the
/// bucket table, and the scratch the densest /16 is sorted in — a copy
/// of its rows (5 bytes a row here) and an 8-byte key for every 4 bytes
/// of them, the shortest a row can be: 3 × 5 bytes a row.
#[test]
fn a_snapshot_of_crowded_clients_stays_in_its_room() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("netclust-crowd-{}", std::process::id()));
    let ten = Ipv4Net::new(0x0A00_0000, 8).unwrap();
    let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![ten]);
    // (clients, the most in one /16, the i-th client's low 24 bits): odd
    // multipliers, so every client is distinct and none in order.
    type Low = fn(u32) -> u32;
    let crowds: [(&str, u32, usize, Low); 2] = [
        ("one /16", 1 << 16, 1 << 16, |i| {
            (1 << 16) | (i.wrapping_mul(40_503) & 0xFFFF)
        }),
        ("one /8", 200_000, 1_000, |i| {
            i.wrapping_mul(2_654_435_761) & 0xFF_FFFF
        }),
    ];
    for (name, clients, densest, low) in crowds {
        let _ = fs::remove_dir_all(&dir);
        let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
        let mut text = String::new();
        for i in 0..clients {
            clf_line(&mut text, 0x0A00_0000 | low(i), 100 + i % 900);
        }
        assert!(stream.push_clf(text.as_bytes()).is_empty());
        drop(text);
        let clients = stream.client_count();
        let budget = 8 * clients + BUCKET_TABLE_BYTES + 3 * 5 * densest + SLACK;
        let mut store = StateStore::create(dir.join("state"), FsyncPolicy::Os).unwrap();
        let (written, peak) = peak_of(|| {
            let room = EncodedState::with_room(clients + clients / 64);
            store.checkpoint_encoded(stream.encode_state(room))
        });
        assert_eq!(written.unwrap(), 1);
        println!("a snapshot of {clients} clients in {name}: {peak} bytes, budget {budget}");
        assert!(peak < budget, "a snapshot of {name} allocated {peak} bytes");
        let (_, recovered, _) = StateStore::recover(dir.join("state"), FsyncPolicy::Os).unwrap();
        assert_eq!(recovered, stream.export_state());
    }
    let _ = fs::remove_dir_all(&dir);
}
