//! The one LRU of the workspace, generic in what it stores per page.
//!
//! A [`BufferPool`](crate::BufferPool) shard keeps `Arc<Page>` payloads;
//! the per-query cost accounting of `spb-core` replays a query's page
//! trace through an `Lru<()>` of the pool's capacity. Sharing the
//! structure is what makes "the reported *PA* equals what a solo flushed
//! run measures" true by construction rather than by two copies agreeing.

use std::collections::{BTreeMap, HashMap};

use crate::page::PageId;

/// A least-recently-used map from page id to `V`, bounded to `capacity`
/// entries. Capacity 0 stores nothing (every lookup misses).
pub struct Lru<V> {
    capacity: usize,
    tick: u64,
    /// PageId → (payload, last-use tick).
    map: HashMap<PageId, (V, u64)>,
    /// last-use tick → PageId: the eviction order. Ticks are unique, so
    /// the least recently used entry is always `order`'s first key and
    /// eviction is O(log n) instead of a linear scan over the map.
    order: BTreeMap<u64, PageId>,
}

impl<V> Lru<V> {
    /// An empty LRU holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Looks `id` up and, on a hit, makes it the most recently used.
    pub fn get(&mut self, id: PageId) -> Option<&V> {
        let e = self.map.get_mut(&id)?;
        self.tick += 1;
        self.order.remove(&e.1);
        e.1 = self.tick;
        self.order.insert(self.tick, id);
        Some(&e.0)
    }

    /// Inserts (or refreshes) an entry as the most recently used; returns
    /// how many entries were evicted to stay within capacity.
    pub fn insert(&mut self, id: PageId, value: V) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(id, (value, self.tick)) {
            self.order.remove(&old.1);
        }
        self.order.insert(self.tick, id);
        self.evict_to_capacity()
    }

    /// Changes the capacity; returns how many entries the shrink evicted.
    /// Capacity 0 drops everything without counting it as eviction (the
    /// cache is being switched off, not pressured).
    pub fn resize(&mut self, capacity: usize) -> u64 {
        self.capacity = capacity;
        if capacity == 0 {
            self.clear();
            return 0;
        }
        self.evict_to_capacity()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    fn evict_to_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            // `order` mirrors `map`, so a non-empty map always yields a
            // victim; bail instead of panicking if that ever breaks.
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert(PageId(1), 'a'), 0);
        assert_eq!(lru.insert(PageId(2), 'b'), 0);
        assert_eq!(lru.get(PageId(1)), Some(&'a')); // 1 most recent
        assert_eq!(lru.insert(PageId(3), 'c'), 1); // evicts 2
        assert_eq!(lru.get(PageId(2)), None);
        assert_eq!(lru.get(PageId(1)), Some(&'a'));
        assert_eq!(lru.resize(1), 1); // keeps 1, the most recent
        assert_eq!(lru.get(PageId(3)), None);
        assert_eq!(lru.get(PageId(1)), Some(&'a'));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert(PageId(7), ()), 0);
        assert_eq!(lru.get(PageId(7)), None);
        let mut lru = Lru::new(4);
        lru.insert(PageId(7), ());
        assert_eq!(lru.resize(0), 0);
        assert_eq!(lru.get(PageId(7)), None);
    }
}
