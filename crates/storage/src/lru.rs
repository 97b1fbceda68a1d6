//! The one LRU of the workspace, generic in what it stores per page.
//!
//! A [`BufferPool`](crate::BufferPool) keeps `Arc<Page>` payloads;
//! the per-query cost accounting of `spb-core` replays a query's page
//! trace through an `Lru<()>` of the pool's capacity. Sharing the
//! structure is what makes "the reported *PA* equals what a solo flushed
//! run measures" true by construction rather than by two copies agreeing.
//!
//! Every operation is O(1): entries live in a slab threaded by an
//! intrusive doubly-linked recency list (head = most recently used), and
//! a page id finds its slot through a hash map with a multiplicative
//! hasher. Page ids are the program's own page numbers, never chosen by
//! a client, so the default hasher's collision resistance buys nothing
//! here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::page::PageId;

/// "No slot" in the recency links.
const NIL: usize = usize::MAX;

/// Fibonacci hashing of a page number: one multiply, well spread in the
/// high bits the map's control bytes use, a bijection in the low bits
/// its bucket index uses.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Slot<V> {
    id: PageId,
    /// `None` only while the slot is on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A least-recently-used map from page id to `V`, bounded to `capacity`
/// entries. Capacity 0 stores nothing (every lookup misses).
pub struct Lru<V> {
    capacity: usize,
    map: HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>,
    slots: Vec<Slot<V>>,
    /// Slots of evicted entries, reused before the slab grows.
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
}

impl<V> Lru<V> {
    /// An empty LRU holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Looks `id` up and, on a hit, makes it the most recently used.
    pub fn get(&mut self, id: PageId) -> Option<&V> {
        let i = *self.map.get(&id)?;
        self.touch(i);
        self.slots[i].value.as_ref()
    }

    /// Inserts (or refreshes) an entry as the most recently used; returns
    /// how many entries were evicted to stay within capacity.
    pub fn insert(&mut self, id: PageId, value: V) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        if let Some(&i) = self.map.get(&id) {
            self.slots[i].value = Some(value);
            self.touch(i);
            return 0;
        }
        // Evicting before linking the new entry picks the same victims
        // as inserting first: the new entry is never the least recent.
        let evicted = self.evict_to(self.capacity - 1);
        let slot = Slot {
            id,
            value: Some(value),
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(id, i);
        self.push_front(i);
        evicted
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
        self.evict_to(capacity)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Evicts least recently used entries until at most `len` remain,
    /// dropping each payload as it goes.
    fn evict_to(&mut self, len: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > len && self.tail != NIL {
            let i = self.tail;
            self.unlink(i);
            self.map.remove(&self.slots[i].id);
            self.slots[i].value = None;
            self.free.push(i);
            evicted += 1;
        }
        evicted
    }

    /// Moves slot `i` to the front of the recency list.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

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

    #[test]
    fn evicted_payloads_are_dropped_at_eviction() {
        let payload = std::rc::Rc::new(());
        let mut lru = Lru::new(1);
        lru.insert(PageId(1), std::rc::Rc::clone(&payload));
        assert_eq!(std::rc::Rc::strong_count(&payload), 2);
        lru.insert(PageId(2), std::rc::Rc::new(()));
        assert_eq!(std::rc::Rc::strong_count(&payload), 1);
    }

    /// The obvious LRU: a deque ordered most recent first.
    struct ModelLru {
        capacity: usize,
        order: VecDeque<(u64, u32)>,
    }

    impl ModelLru {
        fn get(&mut self, id: u64) -> Option<u32> {
            let at = self.order.iter().position(|&(k, _)| k == id)?;
            let e = self.order.remove(at)?;
            self.order.push_front(e);
            Some(e.1)
        }

        fn insert(&mut self, id: u64, v: u32) -> u64 {
            if self.capacity == 0 {
                return 0;
            }
            if let Some(at) = self.order.iter().position(|&(k, _)| k == id) {
                self.order.remove(at);
            }
            self.order.push_front((id, v));
            self.shrink()
        }

        fn resize(&mut self, capacity: usize) -> u64 {
            self.capacity = capacity;
            if capacity == 0 {
                self.order.clear();
                return 0;
            }
            self.shrink()
        }

        fn shrink(&mut self) -> u64 {
            let mut n = 0;
            while self.order.len() > self.capacity {
                self.order.pop_back();
                n += 1;
            }
            n
        }
    }

    #[test]
    fn matches_a_reference_lru_on_random_operation_sequences() {
        for capacity in [0usize, 1, 2, 7, 64] {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed * 131 + capacity as u64);
                let mut lru = Lru::new(capacity);
                let mut model = ModelLru {
                    capacity,
                    order: VecDeque::new(),
                };
                let keys = 2 * capacity as u64 + 3;
                let (mut hits, mut evictions) = (0u64, 0u64);
                for step in 0..2_000u32 {
                    let id = rng.gen_range(0..keys);
                    let at = format!("capacity {capacity} seed {seed} step {step}");
                    match rng.gen_range(0..100u32) {
                        0..=54 => {
                            let got = lru.get(PageId(id)).copied();
                            assert_eq!(got, model.get(id), "get {id} at {at}");
                            hits += u64::from(got.is_some());
                        }
                        55..=94 => {
                            let n = lru.insert(PageId(id), step);
                            assert_eq!(n, model.insert(id, step), "insert {id} at {at}");
                            evictions += n;
                        }
                        95..=97 => {
                            let cap = match rng.gen_range(0..3u32) {
                                0 => capacity / 2,
                                1 => capacity,
                                _ => capacity + 1,
                            };
                            assert_eq!(lru.resize(cap), model.resize(cap), "resize at {at}");
                        }
                        _ => {
                            lru.clear();
                            model.order.clear();
                        }
                    }
                }
                assert!(capacity == 0 || hits > 0, "the sequence exercised hits");
                assert!(capacity == 0 || evictions > 0, "and evictions");
                // Final residency: exactly the model's entries, with its
                // values.
                assert_eq!(lru.map.len(), model.order.len());
                for (id, v) in model.order.iter().rev() {
                    assert_eq!(lru.get(PageId(*id)), Some(v));
                }
            }
        }
    }
}
