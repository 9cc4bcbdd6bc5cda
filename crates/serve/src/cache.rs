//! The cost-aware LRU result cache: whole-`Report` memoization with
//! byte-budgeted eviction.
//!
//! Seeded queries under count-only budgets are pure functions of
//! `(model fingerprint, canonical query, seed, caps)` — see
//! [`Budget::canonical_caps`](biocheck_engine::Budget::canonical_caps) —
//! so their reports can be handed back verbatim. This cache stores
//! values behind `Arc` keyed by that tuple (one pre-joined string, held
//! once), charges each entry its approximate resident cost in bytes, and
//! evicts from the least-recently-used end until the configured byte
//! budget holds. A value whose cost alone exceeds the budget is simply
//! not admitted (counted in [`CacheStats::rejected`]); a budget of 0
//! degenerates to a correct no-op cache.
//!
//! Beside the resident tier sits a compact **index**: key hash → an
//! opaque `u64` locator, [`INDEX_ENTRY_BYTES`] each, for values that
//! live elsewhere (the daemon's spill log, see [`persist`]). A lookup
//! that misses the resident tier but finds a locator asks the caller to
//! load the value ([`ResultCache::get_or_load`]); a loaded value is
//! promoted into the resident tier and counts as a hit. The index holds
//! no key, so a locator may belong to a colliding key: the loader must
//! verify what it reads, and a refused locator is dropped. Both tiers
//! share the one byte budget.
//!
//! The LRU list is intrusive over a slab (`prev`/`next` indices), so
//! `get`/`insert`/eviction are all O(1) outside the `HashMap` lookups.

pub mod persist;

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, PoisonError};

const NONE: usize = usize::MAX;

/// Bytes charged per index entry: the 16 bytes of hash and locator,
/// doubled for the hash table's control bytes and load-factor slack.
pub const INDEX_ENTRY_BYTES: usize = 2 * std::mem::size_of::<(u64, u64)>();

/// Monotone counters describing the cache's lifetime behavior, plus a
/// snapshot of its current occupancy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry (resident, or loaded through the
    /// index).
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Values admitted to the resident tier (index promotions included).
    pub inserts: usize,
    /// Entries evicted to make room (byte pressure), resident and index
    /// alike — replacing a key's value in place is an insert, not an
    /// eviction.
    pub evictions: usize,
    /// Values (or index entries) refused because their cost alone
    /// exceeds the byte budget.
    pub rejected: usize,
    /// Entries purged by [`ResultCache::purge_prefix`] (model
    /// re-registration).
    pub purged: usize,
    /// Current resident entries.
    pub entries: usize,
    /// Current index entries.
    pub indexed: usize,
    /// Current cost charged against the budget in bytes: resident
    /// entries plus the index.
    pub bytes: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups, 0.0 before any lookup. The
    /// operator-facing hit ratio: `stats.cache.hit_ratio` and
    /// `biocheckd_cache_hit_ratio` in the `metrics` exposition.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<V> {
    /// Shared with the map key: each key is stored once.
    key: Arc<str>,
    value: V,
    cost: usize,
    prev: usize,
    next: usize,
}

struct Inner<V> {
    map: HashMap<Arc<str>, usize>,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    /// Most-recently-used slot index.
    head: usize,
    /// Least-recently-used slot index.
    tail: usize,
    /// Resident cost.
    bytes: usize,
    /// Key hash → locator.
    index: HashMap<u64, u64>,
    stats: CacheStats,
}

/// A byte-budgeted LRU cache from pre-joined key strings to cloneable
/// values (the serving layer stores a [`persist::Memo`]: the report
/// and its rendered wire payload), plus an index of
/// values held elsewhere. All methods take `&self`; the cache is
/// internally locked and shared freely across threads.
pub struct ResultCache<V> {
    capacity_bytes: usize,
    hasher: RandomState,
    inner: Mutex<Inner<V>>,
}

impl<V: Clone> ResultCache<V> {
    /// Creates a cache that holds at most `capacity_bytes` of accounted
    /// cost. A capacity of 0 (or any capacity smaller than every entry)
    /// never stores anything and never errors.
    pub fn new(capacity_bytes: usize) -> ResultCache<V> {
        ResultCache {
            capacity_bytes,
            hasher: RandomState::new(),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                head: NONE,
                tail: NONE,
                bytes: 0,
                index: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` in the resident tier, marking the entry
    /// most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut inner = self.lock();
        let hit = inner.touch(key);
        inner.count(hit.is_some());
        hit
    }

    /// Looks up `key` in the resident tier, then in the index. An index
    /// hit calls `load` with the locator, outside the lock; a `Some((value,
    /// cost))` is promoted into the resident tier and counts as a hit,
    /// while `None` (unreadable, or not this key's value) drops the
    /// locator and counts as a miss.
    pub fn get_or_load(
        &self,
        key: &str,
        load: impl FnOnce(u64) -> Option<(V, usize)>,
    ) -> Option<V> {
        self.probe(key, load, true)
    }

    /// [`ResultCache::get_or_load`] ahead of a counted lookup of the
    /// same key: a hit counts, a miss does not, since the caller's
    /// fallback counts it.
    pub fn recall(&self, key: &str, load: impl FnOnce(u64) -> Option<(V, usize)>) -> Option<V> {
        self.probe(key, load, false)
    }

    fn probe(
        &self,
        key: &str,
        load: impl FnOnce(u64) -> Option<(V, usize)>,
        count_miss: bool,
    ) -> Option<V> {
        let (hash, locator) = {
            let mut inner = self.lock();
            if let Some(hit) = inner.touch(key) {
                inner.count(true);
                return Some(hit);
            }
            let hash = self.hasher.hash_one(key);
            match inner.index.get(&hash).copied() {
                Some(locator) => (hash, locator),
                None => {
                    if count_miss {
                        inner.count(false);
                    }
                    return None;
                }
            }
        };
        let loaded = load(locator);
        let mut inner = self.lock();
        if loaded.is_some() || count_miss {
            inner.count(loaded.is_some());
        }
        match loaded {
            Some((value, cost)) => {
                inner.admit(key.into(), value.clone(), cost, self.capacity_bytes);
                Some(value)
            }
            None => {
                if inner.index.get(&hash) == Some(&locator) {
                    inner.index.remove(&hash);
                }
                None
            }
        }
    }

    /// Admits `value` under `key` at the given accounted cost, evicting
    /// least-recently-used entries until the byte budget holds. Returns
    /// `false` when the value alone exceeds the budget (not stored —
    /// and if the key held an older value, that value is dropped too:
    /// the caller asked to replace it, so serving it again would be
    /// stale). Re-inserting an existing key replaces its value (no
    /// eviction is counted for the replacement itself).
    pub fn insert(&self, key: impl Into<Arc<str>>, value: V, cost: usize) -> bool {
        self.lock()
            .admit(key.into(), value, cost, self.capacity_bytes)
    }

    /// Records where `key`'s value can be loaded from, charging
    /// [`INDEX_ENTRY_BYTES`] against the budget (least-recently-used
    /// resident entries go first, then the oldest index entries). A
    /// later locator for the same key hash replaces the earlier one.
    /// Locators must grow with age — the spill log's byte offsets do —
    /// because under byte pressure the index sheds its smallest first.
    /// Returns `false` when one entry alone exceeds the budget.
    pub fn index(&self, key: &str, locator: u64) -> bool {
        let hash = self.hasher.hash_one(key);
        let mut inner = self.lock();
        if INDEX_ENTRY_BYTES > self.capacity_bytes {
            inner.stats.rejected += 1;
            return false;
        }
        inner.index.insert(hash, locator);
        inner.fit(self.capacity_bytes, NONE);
        true
    }

    /// Drops every resident entry whose key starts with `prefix` (all
    /// results of a re-registered model's old fingerprint). Returns the
    /// number of entries removed. Index entries hold no key and stay
    /// until evicted; they still describe the old fingerprint's results
    /// correctly, and no key of another fingerprint can load them.
    pub fn purge_prefix(&self, prefix: &str) -> usize {
        let mut inner = self.lock();
        let victims: Vec<usize> = inner
            .map
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &idx)| idx)
            .collect();
        let n = victims.len();
        for idx in victims {
            inner.evict(idx);
        }
        inner.stats.purged += n;
        n
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len(),
            indexed: inner.index.len(),
            bytes: inner.charged(),
            ..inner.stats
        }
    }
}

impl<V: Clone> Inner<V> {
    /// The resident value under `key`, marked most-recently-used.
    fn touch(&mut self, key: &str) -> Option<V> {
        let idx = self.map.get(key).copied()?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slot(idx).value.clone())
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// [`ResultCache::insert`] under the lock.
    fn admit(&mut self, key: Arc<str>, value: V, cost: usize, capacity: usize) -> bool {
        let existing = self.map.get(&*key).copied();
        if cost > capacity {
            if let Some(idx) = existing {
                self.evict(idx);
            }
            self.stats.rejected += 1;
            return false;
        }
        let idx = match existing {
            Some(idx) => {
                // Replace in place, then rebalance below.
                self.bytes -= self.slot(idx).cost;
                let slot = self.slots[idx].as_mut().expect("live slot"); // lint: infallible
                slot.value = value;
                slot.cost = cost;
                self.unlink(idx);
                idx
            }
            None => {
                let idx = self.alloc(Slot {
                    key: Arc::clone(&key),
                    value,
                    cost,
                    prev: NONE,
                    next: NONE,
                });
                self.map.insert(key, idx);
                idx
            }
        };
        self.bytes += cost;
        self.push_front(idx);
        self.stats.inserts += 1;
        // The just-touched entry is at the head and never a victim: it
        // fits on its own, since `cost <= capacity`.
        self.fit(capacity, idx);
        true
    }
}

impl<V> Inner<V> {
    /// Bytes charged against the budget: resident entries plus index.
    fn charged(&self) -> usize {
        self.bytes + self.index.len() * INDEX_ENTRY_BYTES
    }

    /// Evicts until the charge fits `capacity`: least-recently-used
    /// resident entries first (stopping at `keep`), then the oldest
    /// index entries — locators grow with age, so each pass drops those
    /// in the lowest eighth of the live locator range.
    fn fit(&mut self, capacity: usize, keep: usize) {
        while self.charged() > capacity && self.tail != NONE && self.tail != keep {
            let victim = self.tail;
            self.evict(victim);
            self.stats.evictions += 1;
        }
        while self.charged() > capacity && !self.index.is_empty() {
            let (lo, hi) = self
                .index
                .values()
                .fold((u64::MAX, 0), |(lo, hi), &l| (lo.min(l), hi.max(l)));
            let cutoff = lo + (hi - lo) / 8;
            let before = self.index.len();
            self.index.retain(|_, l| *l > cutoff);
            self.stats.evictions += before - self.index.len();
        }
    }

    fn slot(&self, idx: usize) -> &Slot<V> {
        self.slots[idx].as_ref().expect("live slot") // lint: infallible
    }

    fn alloc(&mut self, slot: Slot<V>) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(slot);
                idx
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    /// Detaches `idx` from the LRU list (it stays allocated).
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slot(idx);
            (s.prev, s.next)
        };
        match prev {
            NONE => self.head = next,
            p => self.slots[p].as_mut().expect("live slot").next = next, // lint: infallible
        }
        match next {
            NONE => self.tail = prev,
            n => self.slots[n].as_mut().expect("live slot").prev = prev, // lint: infallible
        }
    }

    /// Attaches `idx` at the most-recently-used end.
    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let slot = self.slots[idx].as_mut().expect("live slot"); // lint: infallible
            slot.prev = NONE;
            slot.next = old_head;
        }
        match old_head {
            NONE => self.tail = idx,
            h => self.slots[h].as_mut().expect("live slot").prev = idx, // lint: infallible
        }
        self.head = idx;
    }

    /// Removes `idx` entirely: out of the list, the map, and the byte
    /// account.
    fn evict(&mut self, idx: usize) {
        self.unlink(idx);
        let slot = self.slots[idx].take().expect("live slot"); // lint: infallible
        self.map.remove(&*slot.key);
        self.bytes -= slot.cost;
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_in_lru_order<V: Clone>(cache: &ResultCache<V>) -> Vec<String> {
        let inner = cache.inner.lock().unwrap();
        let mut out = Vec::new();
        let mut idx = inner.head;
        while idx != NONE {
            let s = inner.slot(idx);
            out.push(s.key.to_string());
            idx = s.next;
        }
        out
    }

    #[test]
    fn lru_order_and_eviction() {
        let cache = ResultCache::new(30);
        assert!(cache.insert("a", 1, 10));
        assert!(cache.insert("b", 2, 10));
        assert!(cache.insert("c", 3, 10));
        // Touch "a": it becomes MRU, so "b" is now the LRU victim.
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(keys_in_lru_order(&cache), ["a", "c", "b"]);
        assert!(cache.insert("d", 4, 10));
        assert_eq!(cache.get("b"), None, "b evicted under byte pressure");
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("c"), Some(3));
        assert_eq!(cache.get("d"), Some(4));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (3, 30, 1));
    }

    #[test]
    fn one_big_insert_evicts_many() {
        let cache = ResultCache::new(30);
        for (k, c) in [("a", 10), ("b", 10), ("c", 10)] {
            assert!(cache.insert(k, 0, c));
        }
        assert!(cache.insert("big", 9, 25));
        assert_eq!(cache.get("big"), Some(9));
        // a and b (oldest) evicted; c survives at 5 remaining bytes? No:
        // 25 + 10 > 30, so all three went.
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn replacement_updates_cost_without_counting_eviction() {
        let cache = ResultCache::new(20);
        assert!(cache.insert("k", 1, 5));
        assert!(cache.insert("k", 2, 9));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions, s.inserts), (1, 9, 0, 2));
        assert_eq!(cache.get("k"), Some(2));
    }

    #[test]
    fn purge_prefix_removes_only_matching() {
        let cache = ResultCache::new(100);
        cache.insert("m1|q1", 1, 5);
        cache.insert("m1|q2", 2, 5);
        cache.insert("m2|q1", 3, 5);
        assert_eq!(cache.purge_prefix("m1|"), 2);
        assert_eq!(cache.get("m1|q1"), None);
        assert_eq!(cache.get("m1|q2"), None);
        assert_eq!(cache.get("m2|q1"), Some(3));
        assert_eq!(cache.stats().purged, 2);
    }

    #[test]
    fn recall_counts_hits_but_leaves_misses_to_the_fallback() {
        let cache = ResultCache::new(100);
        cache.insert("r", 1, 10);
        cache.index("i", 1 << 24);
        assert_eq!(cache.recall("r", |_| unreachable!()), Some(1));
        assert_eq!(cache.recall("i", |_| Some((2, 10))), Some(2));
        assert_eq!(cache.recall("x", |_| unreachable!()), None);
        cache.index("j", 2 << 24);
        assert_eq!(cache.recall("j", |_| None), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.indexed), (2, 0, 1));
    }

    #[test]
    fn index_loads_promote_and_share_the_budget() {
        let cache = ResultCache::new(2 * INDEX_ENTRY_BYTES + 20);
        assert!(cache.insert("r", 1, 10));
        assert!(cache.index("a", 1 << 24));
        assert!(cache.index("b", 2 << 24));
        // A locator that loads is a hit, promoted into the resident tier.
        let load_a = |l| (l == 1 << 24).then_some((7, 10));
        assert_eq!(cache.get_or_load("a", load_a), Some(7));
        assert_eq!(cache.get("a"), Some(7));
        // A refused locator is a miss and is dropped; no locator, no load.
        assert_eq!(cache.get_or_load("b", |_| None), None);
        assert_eq!(cache.get_or_load("b", |_| unreachable!()), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.indexed), (2, 2, 2, 1));
        assert_eq!(s.bytes, 20 + INDEX_ENTRY_BYTES);
        // Byte pressure evicts resident entries first, then the oldest
        // (smallest) locators.
        assert!(cache.index("c", 3 << 24));
        assert!(cache.index("d", 4 << 24));
        let s = cache.stats();
        assert_eq!((s.entries, s.indexed, s.evictions), (0, 2, 3));
        assert_eq!(cache.get_or_load("a", |_| unreachable!()), None);
        assert_eq!(
            cache.get_or_load("d", |l| Some((l as i32, 1))),
            Some(4 << 24)
        );
        // An entry that alone exceeds the budget is refused.
        assert!(!ResultCache::<u32>::new(INDEX_ENTRY_BYTES - 1).index("k", 1));
    }
}
