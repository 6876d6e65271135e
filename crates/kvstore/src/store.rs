//! The concurrent key-value store.
//!
//! masstree serves GET/PUT/SCAN operations from many cores concurrently.  Our substitute
//! partitions the key space into range shards, each protected by a reader-writer lock
//! over a [`BPlusTree`](crate::bptree::BPlusTree): reads proceed concurrently within and
//! across shards, writes serialize only within their shard.  Range partitioning (rather
//! than hash partitioning) keeps scans ordered and mostly shard-local.

use crate::bptree::BPlusTree;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sharded, ordered, concurrent key-value store mapping `u64` keys to byte values.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<RwLock<BPlusTree<u64, Vec<u8>>>>,
    /// Size of each contiguous key range assigned to one shard.
    range_per_shard: u64,
    /// Height of the deepest shard.  Trees never shrink (DESIGN.md, "The B+-tree
    /// no-shrink invariant"), so only `put` raises it and nothing lowers it.  It
    /// publishes no other data, hence `Relaxed`.
    max_depth: AtomicUsize,
}

impl KvStore {
    /// Creates a store with `shards` range-partitions covering keys `0..capacity_hint`.
    /// Keys at or beyond `capacity_hint` all land in the last shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize, capacity_hint: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        let range_per_shard = (capacity_hint / shards as u64).max(1);
        KvStore {
            shards: (0..shards).map(|_| RwLock::new(BPlusTree::new())).collect(),
            range_per_shard,
            max_depth: AtomicUsize::new(1),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: u64) -> usize {
        ((key / self.range_per_shard) as usize).min(self.shards.len() - 1)
    }

    /// Inserts or overwrites a key. Returns `true` if the key already existed.
    pub fn put(&self, key: u64, value: Vec<u8>) -> bool {
        let mut shard = self.shards[self.shard_for(key)].write();
        let existed = shard.insert(key, value).is_some();
        let depth = shard.depth();
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
        existed
    }

    /// Reads a key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.shards[self.shard_for(key)].read().get(&key).cloned()
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<Vec<u8>> {
        self.shards[self.shard_for(key)].write().remove(&key)
    }

    /// Returns up to `limit` entries with keys `>= start` in ascending order, possibly
    /// spanning multiple shards.
    #[must_use]
    pub fn scan(&self, start: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::with_capacity(limit.min(128));
        let mut shard = self.shard_for(start);
        let mut cursor = start;
        while out.len() < limit && shard < self.shards.len() {
            let chunk = self.shards[shard].read().scan(&cursor, limit - out.len());
            out.extend(chunk);
            shard += 1;
            cursor = (shard as u64) * self.range_per_shard;
        }
        out
    }

    /// Total number of entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Returns `true` if the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum B+-tree depth across shards (a proxy for per-request pointer chases),
    /// in O(1) and without taking a lock.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_remove_across_shards() {
        let store = KvStore::new(8, 1_000);
        for k in 0..1_000u64 {
            assert!(!store.put(k, vec![k as u8]));
        }
        assert_eq!(store.len(), 1_000);
        assert_eq!(store.get(999), Some(vec![231]));
        assert!(store.put(999, vec![1, 2, 3]));
        assert_eq!(store.get(999), Some(vec![1, 2, 3]));
        assert_eq!(store.remove(500), Some(vec![244]));
        assert_eq!(store.get(500), None);
        assert_eq!(store.len(), 999);
    }

    #[test]
    fn scan_crosses_shard_boundaries_in_order() {
        let store = KvStore::new(4, 400);
        for k in 0..400u64 {
            store.put(k, vec![(k % 251) as u8]);
        }
        // A scan starting near the end of shard 0 (keys 0..100) must continue into shard 1.
        let result = store.scan(95, 20);
        assert_eq!(result.len(), 20);
        let keys: Vec<u64> = result.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (95..115).collect::<Vec<u64>>());
    }

    #[test]
    fn keys_beyond_capacity_hint_land_in_last_shard() {
        let store = KvStore::new(4, 100);
        store.put(1_000_000, vec![9]);
        assert_eq!(store.get(1_000_000), Some(vec![9]));
        assert_eq!(store.shard_for(1_000_000), 3);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let store = Arc::new(KvStore::new(16, 10_000));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..2_500u64 {
                        let key = t * 2_500 + i;
                        store.put(key, key.to_le_bytes().to_vec());
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(store.len(), 10_000);
        for key in [0u64, 2_499, 2_500, 9_999] {
            assert_eq!(store.get(key), Some(key.to_le_bytes().to_vec()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = KvStore::new(0, 100);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Put(u16),
        Remove(u16),
        /// Puts the run `start..start + len`, so a case reaches several root splits.
        Fill(u16, u16),
    }

    fn walked_max_depth(store: &KvStore) -> usize {
        store
            .shards
            .iter()
            .map(|s| s.read().walked_depth())
            .max()
            .expect("a store has at least one shard")
    }

    proptest! {
        /// The cached height is the deepest shard's walked height after every operation:
        /// `put` raises it exactly when a root splits, and `remove` never needs to lower it.
        #[test]
        fn max_depth_equals_the_deepest_walked_shard(
            shards in 1usize..6,
            ops in prop::collection::vec(
                prop_oneof![
                    any::<u16>().prop_map(Op::Put),
                    any::<u16>().prop_map(Op::Remove),
                    (any::<u16>(), 0u16..1_200).prop_map(|(start, len)| Op::Fill(start, len)),
                ],
                1..40,
            )
        ) {
            let store = KvStore::new(shards, u64::from(u16::MAX) + 1);
            for op in ops {
                match op {
                    Op::Put(k) => {
                        store.put(u64::from(k), vec![1]);
                    }
                    Op::Remove(k) => {
                        store.remove(u64::from(k));
                    }
                    Op::Fill(start, len) => {
                        for k in u64::from(start)..u64::from(start) + u64::from(len) {
                            store.put(k, vec![2]);
                        }
                    }
                }
                prop_assert_eq!(store.max_depth(), walked_max_depth(&store));
            }
        }
    }
}
