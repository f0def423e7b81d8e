//! A proxy cache running LRU + Piggyback Cache Validation (PCV).
//!
//! §4.1.5: "We implement the Piggyback Cache Validation scheme with a fixed
//! ttl expiration period at each proxy cache. By default, a cached resource
//! is considered stale once a period of one hour has elapsed. When the
//! expiration time is reached for this resource, a validation check is
//! piggybacked on a subsequent request to its server. If the resource is
//! accessed after its expiration, but before validation, then a GET
//! If-Modified-Since request is sent to the server."
//!
//! [`PcvProxy::request`] implements exactly that state machine and counts
//! the message traffic, so both cache effectiveness (hit ratios) and
//! validation overhead are measurable.

use std::collections::VecDeque;

use crate::lru::{Entry, LruCache};
use crate::resource::ResourceModel;

/// Default freshness lifetime (1 hour, the paper's default).
pub const DEFAULT_TTL_S: u32 = 3_600;

/// Piggybacked validations attached per server contact (the PCV paper
/// batches a handful per request).
pub const PIGGYBACK_BATCH: usize = 10;

/// How one request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Fresh copy in cache — no server contact.
    Hit,
    /// Stale copy revalidated with If-Modified-Since and found current —
    /// bytes from cache, one message round to the server.
    ValidatedHit,
    /// Fetched from the server (cold, evicted, or modified).
    Miss,
}

/// Per-proxy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Requests handled.
    pub requests: u64,
    /// Served from fresh cache.
    pub hits: u64,
    /// Served from cache after an If-Modified-Since round.
    pub validated_hits: u64,
    /// Fetched from the server.
    pub misses: u64,
    /// Bytes served from cache.
    pub bytes_hit: u64,
    /// Bytes fetched from the server.
    pub bytes_miss: u64,
    /// Messages sent to the server (fetches + IMS rounds).
    pub server_messages: u64,
    /// Validations piggybacked on those messages.
    pub piggybacked: u64,
}

impl ProxyStats {
    /// Requests served by the proxy (fresh or validated) over all requests.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.hits + self.validated_hits) as f64 / self.requests as f64
        }
    }

    /// Bytes served from cache over all bytes.
    pub fn byte_hit_ratio(&self) -> f64 {
        let total = self.bytes_hit + self.bytes_miss;
        if total == 0 {
            0.0
        } else {
            self.bytes_hit as f64 / total as f64
        }
    }
}

/// One proxy cache: LRU storage + PCV freshness.
pub struct PcvProxy {
    cache: LruCache,
    ttl: u32,
    model: ResourceModel,
    /// URLs awaiting piggybacked validation, with the time their copy
    /// expired. Front = oldest.
    pending: VecDeque<(u32, u32)>,
    stats: ProxyStats,
}

impl PcvProxy {
    /// Creates a proxy with `capacity` bytes of cache (`u64::MAX` for the
    /// infinite-cache runs) and the given TTL and modification model.
    pub fn new(capacity: u64, ttl: u32, model: ResourceModel) -> Self {
        PcvProxy {
            cache: LruCache::new(capacity),
            ttl,
            model,
            pending: VecDeque::new(),
            stats: ProxyStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// Handles one client request for `url` of `size` bytes at time `now`.
    pub fn request(&mut self, url: u32, size: u32, now: u32) -> Served {
        self.stats.requests += 1;
        let outcome = match self.cache.get(url) {
            Some(entry) if now.saturating_sub(entry.validated_at) <= self.ttl => {
                // Fresh: serve locally. (A validation for its eventual
                // expiry was queued when validated_at was last set.)
                self.stats.hits += 1;
                self.stats.bytes_hit += entry.size as u64;
                Served::Hit
            }
            Some(entry) => {
                // Stale and unvalidated: If-Modified-Since round.
                self.stats.server_messages += 1;
                if self.model.version(url, now) == entry.version {
                    // 304 Not Modified: serve from cache.
                    self.cache.update(
                        url,
                        Entry {
                            validated_at: now,
                            ..entry
                        },
                    );
                    self.stats.validated_hits += 1;
                    self.stats.bytes_hit += entry.size as u64;
                    self.pending.push_back((url, now + self.ttl));
                    self.piggyback(now);
                    return Served::ValidatedHit;
                }
                // Modified: full fetch.
                self.fetch(url, size, now);
                Served::Miss
            }
            None => {
                self.stats.server_messages += 1;
                self.fetch(url, size, now);
                Served::Miss
            }
        };
        if outcome != Served::Hit {
            self.piggyback(now);
        }
        outcome
    }

    fn fetch(&mut self, url: u32, size: u32, now: u32) {
        self.stats.misses += 1;
        self.stats.bytes_miss += size as u64;
        let version = self.model.version(url, now);
        self.cache.insert(
            url,
            Entry {
                size,
                cached_at: now,
                validated_at: now,
                version,
            },
        );
        self.pending.push_back((url, now + self.ttl));
    }

    /// Attaches up to [`PIGGYBACK_BATCH`] due validations to a server
    /// contact happening at `now`: still-current copies get their clock
    /// reset; modified copies are dropped (the next access refetches).
    fn piggyback(&mut self, now: u32) {
        let mut budget = PIGGYBACK_BATCH;
        while budget > 0 {
            match self.pending.front() {
                Some(&(_, due)) if due <= now => {}
                _ => break,
            }
            let (url, _) = self.pending.pop_front().expect("checked front");
            let Some(entry) = self.cache.peek(url) else {
                continue; // evicted meanwhile
            };
            if now.saturating_sub(entry.validated_at) <= self.ttl {
                continue; // revalidated via another path
            }
            budget -= 1;
            self.stats.piggybacked += 1;
            if self.model.version(url, now) == entry.version {
                self.cache.update(
                    url,
                    Entry {
                        validated_at: now,
                        ..entry
                    },
                );
                self.pending.push_back((url, now + self.ttl));
            } else {
                self.cache.remove(url);
            }
        }
    }
}

impl std::fmt::Debug for PcvProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcvProxy")
            .field("cache", &self.cache)
            .field("ttl", &self.ttl)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy(capacity: u64) -> PcvProxy {
        PcvProxy::new(capacity, DEFAULT_TTL_S, ResourceModel::immutable())
    }

    #[test]
    fn cold_miss_then_fresh_hits() {
        let mut p = proxy(u64::MAX);
        assert_eq!(p.request(1, 100, 0), Served::Miss);
        assert_eq!(p.request(1, 100, 10), Served::Hit);
        assert_eq!(p.request(1, 100, 3_600), Served::Hit);
        let s = p.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.bytes_hit, 200);
        assert_eq!(s.bytes_miss, 100);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stale_immutable_revalidates_as_hit() {
        let mut p = proxy(u64::MAX);
        p.request(1, 100, 0);
        // Past the TTL: IMS round, 304, served from cache.
        assert_eq!(p.request(1, 100, 4_000), Served::ValidatedHit);
        let s = p.stats();
        assert_eq!(s.validated_hits, 1);
        assert_eq!(s.server_messages, 2); // fetch + IMS
        assert!((s.byte_hit_ratio() - 0.5).abs() < 1e-12);
        // Validation reset the clock: fresh again.
        assert_eq!(p.request(1, 100, 4_100), Served::Hit);
    }

    #[test]
    fn modified_resource_is_refetched() {
        // Period 100 s: version changes between accesses.
        let model = ResourceModel::new(1, 0.0, 100, 100);
        let mut p = PcvProxy::new(u64::MAX, 50, model);
        assert_eq!(p.request(7, 100, 0), Served::Miss);
        // Well past both TTL and modification period.
        assert_eq!(p.request(7, 100, 1_000), Served::Miss);
        assert_eq!(p.stats().misses, 2);
        assert_eq!(p.stats().validated_hits, 0);
    }

    #[test]
    fn eviction_causes_repeat_miss() {
        let mut p = proxy(150);
        assert_eq!(p.request(1, 100, 0), Served::Miss);
        assert_eq!(p.request(2, 100, 1), Served::Miss); // evicts 1
        assert_eq!(p.request(1, 100, 2), Served::Miss);
        assert_eq!(p.stats().hits, 0);
    }

    #[test]
    fn piggyback_validates_expired_copies() {
        let mut p = proxy(u64::MAX);
        p.request(1, 100, 0);
        p.request(2, 100, 0);
        // Much later, a miss on another URL piggybacks validations of the
        // two expired copies, restarting their freshness.
        assert_eq!(p.request(3, 100, 10_000), Served::Miss);
        assert!(p.stats().piggybacked >= 2, "{:?}", p.stats());
        // Both are fresh again without their own IMS round.
        assert_eq!(p.request(1, 100, 10_100), Served::Hit);
        assert_eq!(p.request(2, 100, 10_100), Served::Hit);
        assert_eq!(p.stats().validated_hits, 0);
    }

    #[test]
    fn piggyback_drops_modified_copies() {
        let model = ResourceModel::new(2, 0.0, 100, 100);
        let mut p = PcvProxy::new(u64::MAX, 50, model);
        p.request(1, 100, 0);
        // Later server contact piggybacks url 1's validation; it changed,
        // so the copy is dropped.
        p.request(2, 100, 1_000);
        assert_eq!(p.request(2, 100, 1_001), Served::Hit, "url 2 cached");
        assert_eq!(p.request(1, 100, 1_001), Served::Miss, "url 1 dropped");
    }

    #[test]
    fn ratios_start_at_zero() {
        let p = proxy(1000);
        assert_eq!(p.stats().hit_ratio(), 0.0);
        assert_eq!(p.stats().byte_hit_ratio(), 0.0);
    }
}
