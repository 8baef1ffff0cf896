//! # gccache — concurrent memoization for the compilation pipeline
//!
//! A dependency-free sharded cache. The pipeline keeps exactly one: cvm's
//! compile cache, which maps a program's structural hash plus its
//! compile options to the finished IR. The paper's preprocessor is a pure
//! function of its input, so so is the whole compile — a hit is
//! behaviourally indistinguishable from a recompute, provided the caller
//! re-binds any *positional* data (spans, `line:col` labels) to the
//! requesting program; see `DESIGN.md` §13.
//!
//! Design points:
//!
//! * **Sharded `Mutex<HashMap>`** — no new dependencies, no lock-free
//!   subtlety. Shard selection hashes the key, so unrelated compiles
//!   rarely contend.
//! * **FIFO eviction** with a per-shard capacity bound: fuzz campaigns
//!   push tens of thousands of distinct programs through the pipeline,
//!   and insertion-order eviction keeps memory flat while the bench
//!   matrix's tiny working set never evicts.
//! * **Counters** (hits / misses / evictions / entries) behind relaxed
//!   atomics, snapshot via [`Cache::stats`]. Counters are *not*
//!   deterministic across `--jobs` levels — racing workers legitimately
//!   both miss the same key — so they leave the process only through
//!   wall-clock-class channels (the `gccache_*` Prometheus families and
//!   the `("cache", "stats")` trace event), never through a trajectory
//!   or a gate.

#![warn(missing_docs)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A point-in-time snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// The name the cache was created with (`"compile"` for cvm's).
    pub stage: &'static str,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by FIFO eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl StageStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in permille of lookups (0 when there were none).
    pub fn hit_rate_permille(&self) -> u64 {
        match self.lookups() {
            0 => 0,
            n => self.hits * 1000 / n,
        }
    }
}

struct Shard<K, V> {
    map: HashMap<K, V>,
    // FIFO order of first insertion; re-inserting an existing key keeps
    // its slot (the value is refreshed in place).
    order: VecDeque<K>,
}

/// A sharded, bounded, counted memoization table.
pub struct Cache<K, V> {
    stage: &'static str,
    shards: Vec<Mutex<Shard<K, V>>>,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

const SHARDS: usize = 16;

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// Creates a cache named `stage` holding at most `capacity` entries
    /// (rounded up to a multiple of the shard count).
    pub fn new(stage: &'static str, capacity: usize) -> Self {
        Cache {
            stage,
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            cap_per_shard: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .map
            .get(key)
            .cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts (or refreshes) an entry, evicting the oldest entry of the
    /// shard when the capacity bound is exceeded.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if shard.map.insert(key.clone(), value).is_none() {
            shard.order.push_back(key);
            if shard.order.len() > self.cap_per_shard {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Drops every entry (counters are preserved; they are cumulative).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().expect("cache shard poisoned");
            s.map.clear();
            s.order.clear();
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StageStats {
        StageStats {
            stage: self.stage,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_counters() {
        let c: Cache<u64, String> = Cache::new("t", 64);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one".into());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.hit_rate_permille(), 500);
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let c: Cache<u64, u64> = Cache::new("t", SHARDS); // one entry per shard
        for k in 0..(SHARDS as u64 * 4) {
            c.insert(k, k);
        }
        assert!(c.len() <= SHARDS, "capacity bound holds: {}", c.len());
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let c: Cache<u64, u64> = Cache::new("t", 64);
        c.insert(1, 10);
        c.insert(1, 20);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(20));
    }

    #[test]
    fn clear_keeps_cumulative_counters() {
        let c: Cache<u64, u64> = Cache::new("t", 64);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None, "cleared entries are gone");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 0));
    }
}
