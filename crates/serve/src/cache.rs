//! The transcript cache: canonical job-spec JSON → encoded run record.
//!
//! A plain LRU map with a hard capacity bound. Because every record it
//! stores is a *deterministic* function of its key (the registry contract:
//! same spec → byte-identical transcript at any worker count, under any
//! transport), the cache can never serve a stale or divergent entry — the
//! only thing eviction costs is recomputation. The server optionally
//! re-validates this invariant per hit (`verify_hits`).

use std::collections::{HashMap, VecDeque};

/// Hit/miss/eviction counters of a [`TranscriptCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU cache from canonical job keys to encoded run records.
#[derive(Clone, Debug)]
pub struct TranscriptCache {
    capacity: usize,
    map: HashMap<String, String>,
    /// Recency order: front = least recently used, back = most recent.
    order: VecDeque<String>,
    stats: CacheStats,
}

impl TranscriptCache {
    /// Creates a cache holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "transcript cache capacity must be positive");
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, key: &str) -> Option<String> {
        match self.map.get(key) {
            Some(record) => {
                let record = record.clone();
                self.stats.hits += 1;
                self.touch(key);
                Some(record)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key -> record`, evicting the least recently
    /// used entry if the cache is full and the key is new.
    pub fn insert(&mut self, key: String, record: String) {
        if self.map.contains_key(&key) {
            self.touch(&key);
            self.map.insert(key, record);
            return;
        }
        if self.map.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, record);
    }

    /// Moves `key` (which must be present in `order`) to the back.
    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            if let Some(k) = self.order.remove(pos) {
                self.order.push_back(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_misses_and_refreshed_inserts() {
        let mut cache = TranscriptCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a".into(), "1".into());
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        cache.insert("a".into(), "2".into());
        assert_eq!(cache.get("a").as_deref(), Some("2"));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_at_the_capacity_bound() {
        let mut cache = TranscriptCache::new(2);
        cache.insert("a".into(), "1".into());
        cache.insert("b".into(), "2".into());
        // Touch "a" so "b" becomes the eviction candidate.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), "3".into());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("b").is_none(), "LRU entry was evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        // A replacing insert is a use too: "a" outlives "c".
        cache.insert("a".into(), "4".into());
        cache.insert("d".into(), "5".into());
        assert!(cache.get("c").is_none());
        assert_eq!(cache.get("a").as_deref(), Some("4"));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = TranscriptCache::new(0);
    }
}
