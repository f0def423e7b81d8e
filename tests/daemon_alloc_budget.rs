//! What the daemon holds per client, and what its bursts may allocate: the
//! table build at boot and reload, the first patch of a table, a top-N
//! over every cluster, a snapshot
//! of the stream (also of clients crowded into one /16 or one /8), a poll
//! of a backlog. Each burst is bounded by what it
//! returns, not by a copy of what it reads; a snapshot, which returns
//! nothing, allocates a bound that no client count moves. The CLI's batch run
//! is held to its peak and to what its clustering keeps, per client. This
//! is its own test binary, and its tests take one lock, so no other test's
//! allocations share the allocator it counts through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use netclust::bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust::core::{Assigner, FsyncPolicy, IngestPipeline, StateStore, StreamingClustering};
use netclust::prefix::Ipv4Net;
use netclust::rtable::{load_tables, MergedTable, RoutingTable, TableKind};
use netclust::weblog::follow::{LogFollower, APPLY_SLICE};

use netclust_testkit::TempDir;

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
/// whose table has one prefix a cluster: a 4-byte index entry and a
/// 16-byte slot. Slots of `u64` sums, 24 bytes, filled 28.
const AGGREGATE_BYTES_PER_CLUSTER: usize = 20;
/// What finds a client record by its address, whatever the client count:
/// the store's root, a `u32` offset per /16 and one past the last, and
/// its arrival tail's index, 2^14 `u16` slots. The hashed address → id
/// index it replaced filled 4 bytes a bucket (2.10 MB for the 380 000
/// clients of the benchmark's `wide`), a std `HashMap<u32, u32>` 9.
const ADDRESS_MAP_BYTES: usize = 4 * ((1 << 16) + 1) + 2 * (1 << 14);

/// What a snapshot may allocate, whatever its client count: the rows go
/// to the file through a stack buffer as they are coded, so it holds the
/// payload's fixed fields, the sorted positions of the arrival tail (at
/// most 8 192, 2 bytes each) and the store's paths. A room of coded rows
/// held 6 bytes a client (5.3 on the benchmark's `wide`).
const SNAPSHOT_BYTES: usize = 64 << 10;

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

/// What the first patch of a table may allocate and keep beyond the table
/// it patches: the live map of its BGP tier, which that patch builds
/// (≈ 2.3 MB for the benchmark's ≈ 101 000 BGP prefixes), and the chunks
/// one batch rebuilds. The binary trie it replaced kept 17.64 MB.
const FIRST_PATCH_BYTES: usize = 4 << 20;

/// The benchmark's table shape: ≈ 110 000 prefixes, sorted, and the index
/// where the BGP tier (the first 92 %) ends and the registry dump begins.
/// The delta stream of the same seed patches it.
fn benchmark_table() -> (Vec<Ipv4Net>, usize) {
    let churn = DeltaStreamConfig::default();
    let prefixes = DeltaStream::synthetic(0x51CE, 110_000, churn).live_prefixes();
    let split = prefixes.len() * 92 / 100;
    (prefixes, split)
}

/// Boot and a `/v1/reload` swap read the table files, merge them and
/// compile the result; the peak of that is the serving table plus a few
/// sorted lists, not a trie per tier beside it. The table is the
/// benchmark's shape: ≈ 110 000 prefixes, 8 % of them in the registry dump.
#[test]
fn the_table_build_peaks_at_the_table_it_builds() {
    let _alone = alone();
    let dir = TempDir::new("netclust-build");
    let (prefixes, split) = benchmark_table();
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
}

/// The first routing update a served table takes builds its patch state:
/// the BGP tier's live set in order, bulk-built from the compiled arena,
/// beside the table and not a copy of its size several times over. The
/// table is the benchmark's shape, patched by one batch of its stream.
#[test]
fn the_first_patch_peaks_near_the_table_it_patches() {
    let _alone = alone();
    let (prefixes, split) = benchmark_table();
    let (bgp, dump) = prefixes.split_at(split);
    let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, bgp.to_vec());
    let dump = RoutingTable::new("N", "d0", TableKind::NetworkDump, dump.to_vec());
    let mut table = MergedTable::merge([&bgp, &dump]).compile();
    let mut stream = DeltaStream::synthetic(0x51CE, 110_000, DeltaStreamConfig::default());
    let batch = stream
        .find(|b| !b.is_empty())
        .expect("the stream never ends");

    // What `/metrics` reports as `mem.patch_state_bytes`: within a quarter
    // of what a first patch keeps, one of no deltas, so that the layout
    // and its arena stay as they were.
    let mut bare = table.clone();
    assert_eq!(bare.patch_state_bytes(), 0);
    let before = LIVE.load(Ordering::Relaxed);
    assert!(bare.apply_delta(&[]).initialized);
    let kept = LIVE.load(Ordering::Relaxed) - before;
    let gauge = bare.patch_state_bytes();
    println!("the patch state: {gauge} bytes reported, {kept} kept");
    assert!(
        gauge * 4 >= kept * 3 && gauge * 4 <= kept * 5,
        "the patch state reads {gauge} bytes against {kept} kept"
    );
    drop(bare);

    let (report, peak) = peak_of(|| table.apply_delta(&batch.deltas));
    assert!(report.initialized && !report.recompiled, "{report:?}");
    println!(
        "the first patch of a {} byte table, {} deltas: {peak} bytes, budget {FIRST_PATCH_BYTES}",
        table.memory_bytes(),
        batch.len()
    );
    assert!(
        peak <= FIRST_PATCH_BYTES,
        "the first patch allocated {peak} bytes"
    );
}

#[test]
fn a_top_n_a_poll_and_a_snapshot_allocate_what_they_return() {
    let _alone = alone();
    let dir = TempDir::new("netclust-alloc");

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

    // The run of client records and the aggregates' slots are the blocks a
    // push grows in place, doubling: for 50 000 clients, 2^16 records of 12
    // bytes — address and two `u32` sums — and as many slots of 16, the
    // larger — handle, clients and two `u32` sums (the records alone are
    // held to 12 bytes in `a_snapshot_of_crowded_clients_allocates_no_room`).
    let regrown = LARGEST_REGROWTH.load(Ordering::Relaxed);
    println!("the aggregates' slots: {regrown} bytes for 2^16 slots");
    assert_eq!(regrown, 16 << 16, "an aggregate slot is not 16 bytes");

    // The aggregates: a 4-byte index entry per table handle and a 16-byte
    // slot per cluster, 20 bytes a cluster (28 with `u64` sums in a slot).
    // A hash map keyed by prefix filled 2^16 buckets of a 32-byte entry and
    // a control byte for as many clusters, 43.3 bytes a cluster.
    let memory = stream.memory();
    let budget = AGGREGATE_BYTES_PER_CLUSTER * CLUSTERS as usize;
    println!(
        "the aggregates of {CLUSTERS} clusters: {} bytes, budget {budget}",
        memory.aggregates
    );
    assert!(memory.aggregates <= budget, "{memory:?}");
    assert_eq!(memory.client_records, 12 * stream.client_count());

    // The root and the tail's index: 294 916 bytes for any number of
    // clients; the address stays in the record.
    let budget = ADDRESS_MAP_BYTES;
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

    // A snapshot codes each row — the address gap and the counts'
    // varints — in one walk in address order straight into the file
    // through a stack buffer, and the prefix lists from the table where it
    // holds them, through the same buffer, so neither takes room. This is
    // the budget table's "in flight" row: 6 bytes a client of room made
    // beforehand for the rows as coded, 7 and a 256 KiB table of /16
    // buckets with rows bucketed unsorted, 12 bytes a client and 6 a
    // prefix before that (an 8-byte sort key a row, and the lists coded
    // into a buffer).
    let clients = stream.client_count();
    let budget = SNAPSHOT_BYTES;
    let mut store = StateStore::create(dir.join("state"), FsyncPolicy::Os).unwrap();
    let (written, peak) = peak_of(|| store.checkpoint_encoded(|to| stream.encode_state(to)));
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
}

/// What a snapshot allocates does not depend on how the clients share the
/// address space: every client in one /16, or spread over one /8, each
/// pushed out of address order. It stays under the bound of a snapshot
/// of any client count; no /16 is sorted on the way. The client records,
/// pushed into a stream of one cluster, grow to 12 bytes each: no memo of
/// the cluster, which the table answers.
#[test]
fn a_snapshot_of_crowded_clients_allocates_no_room() {
    let _alone = alone();
    let dir = TempDir::new("netclust-crowd");
    let ten = Ipv4Net::new(0x0A00_0000, 8).unwrap();
    let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![ten]);
    // (clients, the i-th client's low 24 bits): odd multipliers, so every
    // client is distinct and none in order.
    type Low = fn(u32) -> u32;
    let crowds: [(&str, u32, Low); 2] = [
        ("one /16", 1 << 16, |i| {
            (1 << 16) | (i.wrapping_mul(40_503) & 0xFFFF)
        }),
        ("one /8", 200_000, |i| {
            i.wrapping_mul(2_654_435_761) & 0xFF_FFFF
        }),
    ];
    for (name, clients, low) in crowds {
        let _ = fs::remove_dir_all(dir.join("state"));
        let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
        let mut text = String::new();
        for i in 0..clients {
            clf_line(&mut text, 0x0A00_0000 | low(i), 100 + i % 900);
        }
        LARGEST_REGROWTH.store(0, Ordering::Relaxed);
        assert!(stream.push_clf(text.as_bytes()).is_empty());
        drop(text);
        // The run of records is the one block the pushes grow, doubling.
        let clients = stream.client_count();
        let regrown = LARGEST_REGROWTH.load(Ordering::Relaxed);
        let records = 12 * clients.next_power_of_two();
        println!("the client records of {clients} clients in {name}: {regrown} bytes");
        assert_eq!(regrown, records, "a client record is not 12 bytes");
        assert_eq!(stream.memory().client_records, 12 * clients);
        let budget = SNAPSHOT_BYTES;
        let mut store = StateStore::create(dir.join("state"), FsyncPolicy::Os).unwrap();
        let (written, peak) = peak_of(|| store.checkpoint_encoded(|to| stream.encode_state(to)));
        assert_eq!(written.unwrap(), 1);
        println!("a snapshot of {clients} clients in {name}: {peak} bytes, budget {budget}");
        assert!(peak < budget, "a snapshot of {name} allocated {peak} bytes");
        let (_, recovered, _) = StateStore::recover(dir.join("state"), FsyncPolicy::Os).unwrap();
        assert_eq!(recovered, stream.export_state());
    }
}

/// Clients the batch run clusters: one request each, at `11.0.0.0 + i·97`,
/// 113 672 /24s.
const BATCH_CLIENTS: u32 = 300_000;

/// What a batch run may allocate at its peak, per client, at 1 and 2
/// threads: the shards' stores of 16-byte records and their request pairs
/// (grown by doubling), then the merged run of 24-byte records, sized once
/// and filled per address range in place, beside a 4-byte cluster id a
/// shard client and the buckets of (cluster, url) keys while unique URLs
/// are counted: 93.5 bytes measured at 1 thread, and 84.5 or 94.9 at 2,
/// by how the scan's chunks fall to the two shards, whose stores grow by
/// doubling. The bounds leave 10 % above the worst. With 24-byte records
/// in the shards the run peaked at 107.7 and 125.2, the merge's per-range
/// runs alive beside the run copied from them at 2 threads; the member
/// lists, the bucketing hash map and the address → cluster index before
/// that peaked at 206.3 and 176.0.
const BATCH_PEAK_PER_CLIENT: [f64; 2] = [103.0, 105.0];

/// What the returned clustering may hold per client: its 24-byte member
/// record, and a 40-byte aggregate per cluster (≈ 2.6 clients each here),
/// 39.2 bytes; the bound leaves about 5 % above that. Per-cluster member
/// lists and a hashed address → cluster index held 73.3.
const BATCH_HELD_PER_CLIENT: f64 = 41.0;

/// The batch run (`netclust cluster`): every client is one 24-byte record
/// of one member run, grouped by cluster in place, beside a dense
/// aggregate per cluster; neither a member list per cluster nor an
/// address → cluster index is built on the way or kept.
#[test]
fn a_batch_run_keeps_one_member_run() {
    let _alone = alone();
    let mut text = String::with_capacity(BATCH_CLIENTS as usize * 100);
    for i in 0..BATCH_CLIENTS {
        let addr = Ipv4Addr::from(0x0B00_0000 + i * 97);
        let _ = writeln!(
            text,
            "{addr} - - [13/Feb/1998:07:00:00 +0000] \"GET /u{} HTTP/1.0\" 200 100 \"-\" \"Mozilla/4.5\"",
            i % 64
        );
    }
    for (threads, bound) in [1, 2].into_iter().zip(BATCH_PEAK_PER_CLIENT) {
        let before = LIVE.load(Ordering::Relaxed);
        let pipeline = IngestPipeline::by(Assigner::Simple24).threads(threads);
        let (report, peak) = peak_of(|| pipeline.run(text.as_bytes()));
        let held = LIVE.load(Ordering::Relaxed) - before;
        let clustering = &report.clustering;
        assert_eq!(clustering.client_count(), BATCH_CLIENTS as usize);
        assert_eq!(clustering.len(), 113_672);
        assert!(clustering.clusters.iter().all(|c| c.unique_urls > 0));
        let per_client = |bytes: usize| bytes as f64 / f64::from(BATCH_CLIENTS);
        println!(
            "a batch run of {BATCH_CLIENTS} clients at {threads} thread(s): peak {:.1} bytes a \
             client (budget {bound}), the clustering holds {:.1} (budget {BATCH_HELD_PER_CLIENT})",
            per_client(peak),
            per_client(held)
        );
        assert!(per_client(peak) <= bound, "the run peaked at {peak} bytes");
        assert!(
            per_client(held) <= BATCH_HELD_PER_CLIENT,
            "the clustering holds {held} bytes"
        );
    }
}
