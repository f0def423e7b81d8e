//! Clients in address order (DESIGN.md §10), the one client store: one
//! sorted run of records found through a root of 2^16 + 1 offsets, one a
//! /16, plus a bounded arrival tail with a small keyed index, sorted and
//! merged backwards into the run when full. A position names a record
//! until the next insert: an index into the run, then into the tail. A
//! record's memo is what its holder keeps beside the client — nothing in
//! the stream, whose serving table answers a client's cluster, and a
//! batch shard's first-seen dense id — and the store only keeps it. A
//! record keeps its sums as [`Sums`], `u32`s with a wide escape. Records
//! go in and out as [`Client`]s, by value, with `u64` sums.

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

use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::ops::Range;

use crate::kernel::Client;

/// Records the arrival tail holds before it is merged into the run.
const TAIL: usize = 8192;

/// Entries of the root: one per /16, and one past the last.
const ROOT: usize = (1 << 16) + 1;

/// The most records a lookup scans in its /16; it searches a longer one.
const SCAN: usize = 16;

/// A free tail-index slot; one in use holds a tail position plus one.
const FREE: u16 = 0;

/// Both counts of a [`Sums`] whose exact sums are in the wide map: a sum
/// that would reach it in either count moves the pair there.
const WIDE: u32 = u32::MAX;

/// A request count and a byte count, each below [`WIDE`], or both
/// [`WIDE`] while a wide map holds them exactly as `u64`s under the
/// holder's key: a client record's address, an aggregate slot's handle
/// index. Few pairs outgrow `u32`, so the map stays small.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sums {
    requests: u32,
    bytes: u32,
}

impl Sums {
    /// Adds `requests` and `bytes`, moving the sums into `wide` under
    /// `key` when either would reach [`WIDE`].
    #[inline]
    pub(crate) fn add<K: Ord>(
        &mut self,
        key: K,
        wide: &mut BTreeMap<K, (u64, u64)>,
        requests: u64,
        bytes: u64,
    ) {
        if self.is_wide() {
            let sums = wide.entry(key).or_default();
            sums.0 += requests;
            sums.1 += bytes;
            return;
        }
        let sums = (
            u64::from(self.requests) + requests,
            u64::from(self.bytes) + bytes,
        );
        match (u32::try_from(sums.0), u32::try_from(sums.1)) {
            (Ok(requests), Ok(bytes)) if requests < WIDE && bytes < WIDE => {
                self.requests = requests;
                self.bytes = bytes;
            }
            _ => {
                wide.insert(key, sums);
                self.requests = WIDE;
                self.bytes = WIDE;
            }
        }
    }

    /// Inverse of [`add`](Self::add): `requests` and `bytes` were added
    /// before. Sums once wide stay in `wide` until [`free`](Self::free).
    #[inline]
    pub(crate) fn sub<K: Ord>(
        &mut self,
        key: K,
        wide: &mut BTreeMap<K, (u64, u64)>,
        requests: u64,
        bytes: u64,
    ) {
        if self.is_wide() {
            let sums = wide.entry(key).or_default();
            sums.0 -= requests;
            sums.1 -= bytes;
            return;
        }
        // Each part is at most the narrow sum it comes off.
        let narrow = |sum: u32, part: u64| u32::try_from(u64::from(sum) - part).unwrap_or(sum);
        self.requests = narrow(self.requests, requests);
        self.bytes = narrow(self.bytes, bytes);
    }

    /// The exact sums, read from `wide` if they are there.
    #[inline]
    pub(crate) fn get<K: Ord>(self, key: &K, wide: &BTreeMap<K, (u64, u64)>) -> (u64, u64) {
        if self.is_wide() {
            wide.get(key).copied().unwrap_or_default()
        } else {
            (u64::from(self.requests), u64::from(self.bytes))
        }
    }

    /// Gives up the sums' entry in `wide`, if they have one, for a holder
    /// that goes away.
    pub(crate) fn free<K: Ord>(self, key: &K, wide: &mut BTreeMap<K, (u64, u64)>) {
        if self.is_wide() {
            wide.remove(key);
        }
    }

    #[inline]
    fn is_wide(self) -> bool {
        self.requests == WIDE
    }
}

/// A client as the store holds it.
#[derive(Debug, Clone, Copy)]
struct Record<T> {
    addr: u32,
    memo: T,
    sums: Sums,
}

// The stream's records are the address and two `u32` sums; a batch
// shard's `u32` id adds four bytes, and no padding.
const _: () = assert!(std::mem::size_of::<Record<()>>() == 12);
const _: () = assert!(std::mem::size_of::<Record<u32>>() == 16);

impl<T: Copy> Record<T> {
    /// A record of `addr` with no requests yet.
    fn new(addr: u32, memo: T) -> Self {
        Record {
            addr,
            memo,
            sums: Sums::default(),
        }
    }

    /// Adds `requests` and `bytes` to the sums, `wide` holding them once
    /// either would reach [`WIDE`].
    #[inline]
    fn count(&mut self, wide: &mut BTreeMap<u32, (u64, u64)>, requests: u64, bytes: u64) {
        self.sums.add(self.addr, wide, requests, bytes);
    }

    /// The client this record holds, its exact sums read from `wide` if
    /// they are there.
    #[inline]
    fn client(&self, wide: &BTreeMap<u32, (u64, u64)>) -> Client<T> {
        let (requests, bytes) = self.sums.get(&self.addr, wide);
        Client {
            addr: self.addr,
            requests,
            bytes,
            memo: self.memo,
        }
    }
}

/// Client records, in address order but for the arrival tail.
pub(crate) struct Clients<T = ()> {
    /// Sorted by address; no address twice, none in the tail.
    run: Vec<Record<T>>,
    /// Per /16 `h`, the run records below it: `h`'s are
    /// `run[root[h]..root[h + 1]]`.
    root: Vec<u32>,
    /// Clients not yet merged, in arrival order: at most `cap`.
    tail: Vec<Record<T>>,
    /// Linear probing over the tail's positions, at least twice `cap`
    /// slots, so a probe ends. Addresses are outside input, so the hash
    /// is keyed, and a probe reads at most the tail whatever the key.
    slots: Vec<u16>,
    key: u64,
    cap: usize,
    /// The exact sums of the records marked [`WIDE`], by address.
    wide: BTreeMap<u32, (u64, u64)>,
    /// Records merges moved or placed.
    moved: u64,
}

impl<T: Copy> Clients<T> {
    /// An empty store.
    pub(crate) fn new() -> Self {
        Self::with_tail(TAIL)
    }

    /// An empty store whose tail holds `cap` records, 1 to `u16::MAX - 1`.
    fn with_tail(cap: usize) -> Self {
        debug_assert!((1..usize::from(u16::MAX)).contains(&cap));
        Clients {
            run: Vec::new(),
            root: vec![0; ROOT],
            tail: Vec::with_capacity(cap),
            slots: vec![FREE; (2 * cap).next_power_of_two()],
            key: RandomState::new().hash_one(0u32),
            cap,
            wide: BTreeMap::new(),
            moved: 0,
        }
    }

    /// A store of `run`, which is sorted by address with no address twice
    /// (as a snapshot's rows are), laid out with no merge.
    pub(crate) fn from_sorted(run: impl ExactSizeIterator<Item = Client<T>>) -> Self {
        let mut clients = Self::new();
        clients.run.reserve_exact(run.len());
        for c in run {
            let mut record = Record::new(c.addr, c.memo);
            record.count(&mut clients.wide, c.requests, c.bytes);
            clients.run.push(record);
        }
        count_below(&mut clients.root, &clients.run);
        clients
    }

    /// Clients held.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.tail.len()
    }

    /// Counts `requests` requests of `bytes` from `addr`, a new client with
    /// `memo()` as its memo; returns its memo and whether it was new.
    #[inline]
    pub(crate) fn add(
        &mut self,
        addr: u32,
        requests: u64,
        bytes: u64,
        memo: impl FnOnce() -> T,
    ) -> (T, bool) {
        let found = self.find(addr);
        let held = found
            .ok()
            .and_then(|pos| record_mut(&mut self.run, &mut self.tail, pos));
        if let Some(record) = held {
            record.count(&mut self.wide, requests, bytes);
            return (record.memo, false);
        }
        let slot = if self.tail.len() < self.cap {
            found.err().unwrap_or_default()
        } else {
            self.merge();
            self.tail_find(addr).err().unwrap_or_default()
        };
        let memo = memo();
        if let Some(s) = self.slots.get_mut(slot) {
            *s = tail_at(self.tail.len() + 1);
        }
        let mut record = Record::new(addr, memo);
        record.count(&mut self.wide, requests, bytes);
        self.tail.push(record);
        (memo, true)
    }

    /// The client `addr`, if it is held.
    pub(crate) fn get(&self, addr: u32) -> Option<Client<T>> {
        self.at(self.find(addr).ok()?)
    }

    /// The client at position `pos`.
    pub(crate) fn at(&self, pos: usize) -> Option<Client<T>> {
        self.record(pos).map(|r| r.client(&self.wide))
    }

    /// The positions of the run records from `lo` to `hi`, inclusive.
    pub(crate) fn range(&self, lo: u32, hi: u32) -> Range<usize> {
        let end = hi
            .checked_add(1)
            .map_or(self.run.len(), |h| self.lower_bound(h));
        self.lower_bound(lo)..end
    }

    /// The positions of the tail's records.
    pub(crate) fn tail_positions(&self) -> Range<usize> {
        self.run.len()..self.len()
    }

    /// Every client in address order: the run, each tail record let in
    /// where it falls (the tail's positions sorted, 2 bytes each).
    pub(crate) fn in_order(&self) -> impl Iterator<Item = Client<T>> + '_ {
        let mut order: Vec<u16> = (0..self.tail.len()).map(tail_at).collect();
        order.sort_unstable_by_key(|&at| self.tail.get(usize::from(at)).map(|r| r.addr));
        let tail = (order.into_iter()).filter_map(|at| self.tail.get(usize::from(at)));
        let (mut run, mut tail) = (self.run.iter().peekable(), tail.peekable());
        let records = std::iter::from_fn(move || match (run.peek(), tail.peek()) {
            (Some(r), Some(t)) if t.addr < r.addr => tail.next(),
            (Some(_), _) => run.next(),
            (None, _) => tail.next(),
        });
        records.map(|r| r.client(&self.wide))
    }

    /// Merges the tail into the run.
    pub(crate) fn settle(&mut self) {
        self.merge();
    }

    /// Bytes the records fill, and the wide sums an entry each (spare
    /// capacity is untouched, uncounted).
    pub(crate) fn record_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Record<T>>()
            + self.wide.len() * std::mem::size_of::<(u32, (u64, u64))>()
    }

    /// Bytes the root and the tail's index hold.
    pub(crate) fn index_bytes(&self) -> usize {
        self.root.len() * std::mem::size_of::<u32>() + self.slots.len() * std::mem::size_of::<u16>()
    }

    /// Records merges have moved or placed.
    pub(crate) fn moved(&self) -> u64 {
        self.moved
    }

    /// The record at position `pos`.
    fn record(&self, pos: usize) -> Option<&Record<T>> {
        match pos.checked_sub(self.run.len()) {
            None => self.run.get(pos),
            Some(at) => self.tail.get(at),
        }
    }

    /// The position of `addr`'s record, or the free tail-index slot it
    /// would take. The tail first: its index stays in cache, and recent
    /// clients come most.
    #[inline]
    fn find(&self, addr: u32) -> Result<usize, usize> {
        match self.tail_find(addr) {
            Ok(at) => Ok(self.run.len() + at),
            Err(slot) => self.run_index(addr).ok_or(slot),
        }
    }

    /// The run index of `addr`, if the run holds it.
    #[inline]
    fn run_index(&self, addr: u32) -> Option<usize> {
        let at = self.lower_bound(addr);
        self.run
            .get(at)
            .is_some_and(|r| r.addr == addr)
            .then_some(at)
    }

    /// How many run records lie below `addr`.
    #[inline]
    fn lower_bound(&self, addr: u32) -> usize {
        let high = (addr >> 16) as usize;
        let start = self.root.get(high).map_or(0, |&s| s as usize);
        let end = self.root.get(high + 1).map_or(start, |&e| e as usize);
        let block = self.run.get(start..end).unwrap_or_default();
        // A /16 holds a few clients (6.9 on `wide`): a scan reads the lines
        // a search would, with no branch to mispredict.
        start
            + if block.len() <= SCAN {
                block.iter().take_while(|r| r.addr < addr).count()
            } else {
                block.partition_point(|r| r.addr < addr)
            }
    }

    /// The tail position of `addr`, or the free slot it would take: a
    /// probe from the slot the top bits of `addr` mixed with the key pick.
    #[allow(clippy::cast_possible_truncation, reason = "hash >> (64 - slot bits) < slots.len().")]
    #[inline]
    fn tail_find(&self, addr: u32) -> Result<usize, usize> {
        let hash = (u64::from(addr) ^ self.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let at = match self.slots.get(slot) {
                Some(&FREE) | None => return Err(slot),
                Some(&s) => usize::from(s) - 1,
            };
            if self.tail.get(at).is_some_and(|r| r.addr == addr) {
                return Ok(at);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Sorts the tail and merges it backwards into the run: from the
    /// largest down, the run records above a tail record move up in one
    /// block copy and it goes below them; then the root counts the tail.
    /// The wide map is keyed by address, so no record's move touches it.
    fn merge(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.tail.sort_unstable_by_key(|r| r.addr);
        let mut end = self.run.len();
        self.run.extend_from_slice(&self.tail);
        for (placed, r) in self.tail.iter().enumerate().rev() {
            // The run below `end` has not moved and all above it is above
            // `r`, so the root still finds `r`'s place.
            let at = self.lower_bound(r.addr).min(end);
            self.run.copy_within(at..end, at + placed + 1);
            if let Some(slot) = self.run.get_mut(at + placed) {
                *slot = *r;
            }
            self.moved += (end - at + 1) as u64;
            end = at;
        }
        count_below(&mut self.root, &self.tail);
        self.tail.clear();
        self.slots.fill(FREE);
    }
}

/// The record at position `pos`, an index into `run`, then into `tail`.
#[inline]
fn record_mut<'a, T>(
    run: &'a mut [Record<T>],
    tail: &'a mut [Record<T>],
    pos: usize,
) -> Option<&'a mut Record<T>> {
    match pos.checked_sub(run.len()) {
        None => run.get_mut(pos),
        Some(at) => tail.get_mut(at),
    }
}

/// Adds to each root entry the records of `sorted`, in address order,
/// that lie below its /16.
fn count_below<T>(root: &mut [u32], sorted: &[Record<T>]) {
    let (mut below, mut sorted) = (0usize, sorted.iter().peekable());
    for (high, start) in (0u32..).zip(root.iter_mut()) {
        while sorted.next_if(|r| r.addr >> 16 < high).is_some() {
            below += 1;
        }
        *start += offset(below);
    }
}

/// A tail position as its index holds it.
#[allow(clippy::cast_possible_truncation, reason = "the tail holds under u16::MAX records.")]
fn tail_at(at: usize) -> u16 {
    at as u16
}

/// A run offset as the root holds it.
#[allow(
    clippy::cast_possible_truncation,
    reason = "one record per distinct IPv4 client: under 2^32."
)]
fn offset(at: usize) -> u32 {
    at as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    use proptest::prelude::*;

    /// `k` → an address: the low bits pick one of a few /16s and a host in
    /// it, so ops collide on clients and crowd a /16.
    fn addr_of(k: u16) -> u32 {
        let high = u32::from(k >> 12) * 0x0101;
        (high << 16) | u32::from(k & 0x3FF).wrapping_mul(0x9E37)
    }

    /// Every way the store answers, against `oracle`: the count, each
    /// record by lookup and in order, absent addresses, and each /16's
    /// range as positions.
    fn check<T: Copy + PartialEq + Debug>(
        store: &Clients<T>,
        oracle: &BTreeMap<u32, (u64, u64, T)>,
    ) -> Result<(), String> {
        prop_assert_eq!(store.len(), oracle.len());
        prop_assert!(store.tail.len() <= store.cap);
        for (&addr, &(requests, bytes, memo)) in oracle {
            let c = store.get(addr).ok_or(format!("{addr:#x} lost"))?;
            prop_assert_eq!(
                (c.addr, c.requests, c.bytes, c.memo),
                (addr, requests, bytes, memo)
            );
        }
        let walked: Vec<(u32, u64, u64, T)> = (store.in_order())
            .map(|c| (c.addr, c.requests, c.bytes, c.memo))
            .collect();
        let want: Vec<(u32, u64, u64, T)> = (oracle.iter())
            .map(|(&a, &(r, b, m))| (a, r, b, m))
            .collect();
        prop_assert_eq!(walked, want);
        for k in (0..16u16).map(|k| k << 12 | 0x3FF) {
            let absent = addr_of(k) ^ 1;
            prop_assert_eq!(store.get(absent).is_some(), oracle.contains_key(&absent));
        }
        for (lo, hi) in [
            (0, u32::MAX),
            (0x0101_0000, 0x0101_FFFF),
            (0x0202_1234, 0x0303_0000),
        ] {
            let from_run: Vec<u32> = (store.range(lo, hi))
                .filter_map(|pos| store.at(pos).map(|c| c.addr))
                .collect();
            let from_tail = (store.tail_positions())
                .filter_map(|pos| store.at(pos).map(|c| c.addr))
                .filter(|a| (lo..=hi).contains(a));
            let mut got: Vec<u32> = from_run.into_iter().chain(from_tail).collect();
            got.sort_unstable();
            let want: Vec<u32> = oracle.range(lo..=hi).map(|(&a, _)| a).collect();
            prop_assert_eq!(got, want, "range {:#x}..={:#x}", lo, hi);
        }
        Ok(())
    }

    /// Drives a store whose tail holds `cap` records and a `BTreeMap` side
    /// by side through `ops` (address key, requests, bytes), checking every
    /// answer after every op — so at every tail fill, and on either side
    /// of every merge — then once more after a settle. A new client's memo
    /// is `memo(addr, clients seen before it)`, and stays as it was given.
    fn matches_the_oracle<T: Copy + PartialEq + Debug>(
        cap: usize,
        ops: &[(u16, u8, u16)],
        memo: impl Fn(u32, usize) -> T,
    ) -> Result<(), String> {
        let mut store = Clients::with_tail(cap);
        let mut oracle = BTreeMap::new();
        for &(k, requests, bytes) in ops {
            let addr = addr_of(k);
            let (new, seen) = (!oracle.contains_key(&addr), oracle.len());
            let want = oracle.entry(addr).or_insert((0, 0, memo(addr, seen)));
            want.0 += u64::from(requests);
            want.1 += u64::from(bytes);
            let (got, first) = store.add(addr, requests.into(), bytes.into(), || memo(addr, seen));
            prop_assert_eq!((got, first), (want.2, new), "{:#x}", addr);
            check(&store, &oracle)?;
        }
        store.settle();
        prop_assert!(store.tail.is_empty());
        check(&store, &oracle)
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(u16, u8, u16)>> {
        proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u16>()), 1..300)
    }

    /// A count that crosses `u32::MAX` in a few adds, or lands on either
    /// side of it, or stays small.
    fn arb_count() -> impl Strategy<Value = u64> {
        let max = u64::from(u32::MAX);
        prop_oneof![0..4u64, (max - 3)..=(max + 3), (1u64 << 30)..(1u64 << 33)]
    }

    proptest! {
        /// Sums across `u32::MAX` against a `BTreeMap` of `u64` sums: a
        /// record promoted to the wide map on either count, a promoted
        /// record moved by tail merges, the in-order walk, a settle, and a
        /// snapshot's round trip through `from_sorted`.
        #[test]
        fn wide_sums_match_the_oracle(
            ops in proptest::collection::vec((any::<u16>(), arb_count(), arb_count()), 1..200),
            cap in 1usize..12,
        ) {
            let mut store = Clients::with_tail(cap);
            let mut oracle: BTreeMap<u32, (u64, u64, u32)> = BTreeMap::new();
            for &(k, requests, bytes) in &ops {
                let addr = addr_of(k);
                let want = oracle.entry(addr).or_insert((0, 0, addr));
                want.0 += requests;
                want.1 += bytes;
                store.add(addr, requests, bytes, || addr);
                check(&store, &oracle)?;
            }
            let wide = (oracle.values())
                .filter(|w| w.0 >= u64::from(WIDE) || w.1 >= u64::from(WIDE))
                .count();
            prop_assert_eq!(store.wide.len(), wide);
            store.settle();
            prop_assert!(store.tail.is_empty());
            check(&store, &oracle)?;
            let back = Clients::from_sorted(store.in_order().collect::<Vec<_>>().into_iter());
            prop_assert_eq!(back.wide.len(), wide);
            check(&back, &oracle)?;
        }
    }

    #[test]
    fn a_sum_reaching_u32_max_moves_to_the_wide_map() {
        let max = u64::from(u32::MAX);
        let mut store = Clients::with_tail(2);
        store.add(1, max - 1, 5, || 0u32);
        assert!(store.wide.is_empty());
        store.add(1, 1, 0, || 0);
        assert_eq!(store.wide.get(&1), Some(&(max, 5)));
        store.add(2, 1, max, || 0);
        store.add(3, 1, 1, || 0);
        store.settle();
        let sums: Vec<(u32, u64, u64)> = (store.in_order())
            .map(|c| (c.addr, c.requests, c.bytes))
            .collect();
        assert_eq!(sums, [(1, max, 5), (2, 1, max), (3, 1, 1)]);
        assert_eq!(store.record_bytes(), 3 * 16 + 2 * 24);
        let mut stream = Clients::with_tail(2);
        stream.add(1, 1, max, || ());
        stream.add(2, 1, 1, || ());
        assert_eq!(stream.record_bytes(), 2 * 12 + 24);
    }

    #[test]
    fn wide_sums_subtract_in_the_map_until_freed() {
        let max = u64::from(u32::MAX);
        let (mut wide, mut sums) = (BTreeMap::new(), Sums::default());
        sums.add(7usize, &mut wide, 2, max - 1);
        assert!(wide.is_empty());
        sums.sub(7, &mut wide, 1, 1);
        assert_eq!(sums.get(&7, &wide), (1, max - 2));
        sums.add(7, &mut wide, 1, 5);
        assert_eq!(wide.get(&7), Some(&(2, max + 3)));
        // Back under `u32::MAX`, the sums stay in the map.
        sums.sub(7, &mut wide, 1, max);
        assert_eq!((sums.get(&7, &wide), wide.len()), ((1, 3), 1));
        sums.free(&7, &mut wide);
        assert!(wide.is_empty());
    }

    proptest! {
        /// The store against a `BTreeMap`: pushes, lookups, range walks
        /// and in-order walks after every op, under tails of one record
        /// (a merge every new client), a few, and more than the ops fill;
        /// no memo, as the stream keeps none, then a batch shard's dense
        /// first-seen ids, which no merge may renumber.
        #[test]
        fn the_store_matches_an_oracle(ops in arb_ops(), cap in 1usize..12) {
            let none = |_, _| ();
            matches_the_oracle(cap, &ops, none)?;
            matches_the_oracle(1, &ops, none)?;
            matches_the_oracle(512, &ops, none)?;
            let id = |_, seen| u32::try_from(seen).expect("a few hundred clients");
            matches_the_oracle(cap, &ops, id)?;
        }
    }

    #[test]
    fn a_snapshot_order_run_is_laid_out_as_merges_lay_it() {
        let addrs = [
            0x0000_0001,
            0x0001_0000,
            0x0A00_0001,
            0x0A00_FFFF,
            0xFFFF_FFFF,
        ];
        let record = |addr| Client {
            addr,
            requests: 1,
            bytes: 2,
            memo: (),
        };
        let sorted = Clients::from_sorted(addrs.iter().map(|&a| record(a)));
        let mut merged = Clients::with_tail(2);
        for &a in addrs.iter().rev() {
            merged.add(a, 1, 2, || ());
        }
        merged.settle();
        assert_eq!(sorted.root, merged.root);
        assert_eq!(sorted.range(0x0A00_0000, 0x0A00_FFFF), 2..4);
        assert_eq!(sorted.range(0xFFFF_FFFF, 0xFFFF_FFFF), 4..5);
    }
}
