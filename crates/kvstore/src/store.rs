//! The concurrent key-value store.
//!
//! masstree serves GET/PUT/SCAN operations from many cores concurrently.  Our substitute
//! partitions the key space into range shards, each protected by a reader-writer lock
//! over a [`BPlusTree`](crate::bptree::BPlusTree): reads proceed concurrently within and
//! across shards, writes serialize only within their shard.  Range partitioning (rather
//! than hash partitioning) keeps scans ordered and mostly shard-local.
//!
//! Values stay in the store and are served from it under the shard's lock: a read
//! appends the value to the caller's buffer, a write takes the new value as a slice
//! and overwrites an existing key's value in place, and a scan lends each entry to a
//! visitor.  Only a write of a new key allocates.

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
    /// no-shrink invariant"), so only `put` of a new key raises it and nothing lowers
    /// it.  It publishes no other data, hence `Relaxed`.
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

    /// Writes `value` under `key`, overwriting an existing value in place. Returns `true`
    /// if the key already existed; only a new key allocates or can deepen the tree.
    pub fn put(&self, key: u64, value: &[u8]) -> bool {
        let mut shard = self.shards[self.shard_for(key)].write();
        if let Some(old) = shard.get_mut(&key) {
            old.clear();
            old.extend_from_slice(value);
            return true;
        }
        shard.insert(key, value.to_vec());
        let depth = shard.depth();
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
        false
    }

    /// Appends the value of `key` to `out`. Returns `false`, leaving `out` as it was, if
    /// the key is absent.
    pub fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        match self.shards[self.shard_for(key)].read().get(&key) {
            Some(value) => {
                out.extend_from_slice(value);
                true
            }
            None => false,
        }
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<Vec<u8>> {
        self.shards[self.shard_for(key)].write().remove(&key)
    }

    /// Calls `visit` on up to `limit` entries with keys `>= start` in ascending order,
    /// possibly spanning multiple shards, and returns how many it visited.  Each shard
    /// is read-locked while its entries are visited.
    pub fn scan_with(&self, start: u64, limit: usize, mut visit: impl FnMut(u64, &[u8])) -> usize {
        let mut visited = 0;
        let mut shard = self.shard_for(start);
        let mut cursor = start;
        while visited < limit && shard < self.shards.len() {
            visited += self.shards[shard]
                .read()
                .scan_with(&cursor, limit - visited, |k, v| visit(*k, v));
            shard += 1;
            cursor = (shard as u64) * self.range_per_shard;
        }
        visited
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

/// The value of `key` as a fresh `Vec`, for tests that compare whole values.
#[cfg(test)]
fn get(store: &KvStore, key: u64) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    store.get_into(key, &mut out).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_remove_across_shards() {
        let store = KvStore::new(8, 1_000);
        for k in 0..1_000u64 {
            assert!(!store.put(k, &[k as u8]));
        }
        assert_eq!(store.len(), 1_000);
        assert_eq!(get(&store, 999), Some(vec![231]));
        assert!(store.put(999, &[1, 2, 3]));
        assert_eq!(get(&store, 999), Some(vec![1, 2, 3]));
        assert_eq!(store.remove(500), Some(vec![244]));
        assert_eq!(get(&store, 500), None);
        assert_eq!(store.len(), 999);
    }

    #[test]
    fn get_into_appends_and_leaves_a_miss_untouched() {
        let store = KvStore::new(2, 100);
        store.put(7, b"seven");
        let mut out = vec![1];
        assert!(store.get_into(7, &mut out));
        assert_eq!(out, b"\x01seven");
        assert!(!store.get_into(8, &mut out));
        assert_eq!(out, b"\x01seven");
    }

    #[test]
    fn scan_crosses_shard_boundaries_in_order() {
        let store = KvStore::new(4, 400);
        for k in 0..400u64 {
            store.put(k, &[(k % 251) as u8]);
        }
        // A scan starting near the end of shard 0 (keys 0..100) must continue into shard 1.
        let mut entries = Vec::new();
        let visited = store.scan_with(95, 20, |k, v| entries.push((k, v.to_vec())));
        assert_eq!(visited, 20);
        let want: Vec<(u64, Vec<u8>)> = (95..115).map(|k| (k, vec![k as u8])).collect();
        assert_eq!(entries, want);
    }

    #[test]
    fn keys_beyond_capacity_hint_land_in_last_shard() {
        let store = KvStore::new(4, 100);
        store.put(1_000_000, &[9]);
        assert_eq!(get(&store, 1_000_000), Some(vec![9]));
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
                        store.put(key, &key.to_le_bytes());
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(store.len(), 10_000);
        for key in [0u64, 2_499, 2_500, 9_999] {
            assert_eq!(get(&store, key), Some(key.to_le_bytes().to_vec()));
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
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Put(u16),
        Remove(u16),
        /// Puts the run `start..start + len`, so a case reaches several root splits.
        Fill(u16, u16),
    }

    /// An operation on one of 150 keys, so that about a quarter of the puts overwrite.
    #[derive(Debug, Clone)]
    enum ModelOp {
        /// Puts `len` copies of `byte`: overwrites change a value's length as often as not.
        Put(u16, u8, u8),
        Get(u16),
        Remove(u16),
        Scan(u16, u8),
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
                        store.put(u64::from(k), &[1]);
                    }
                    Op::Remove(k) => {
                        store.remove(u64::from(k));
                    }
                    Op::Fill(start, len) => {
                        for k in u64::from(start)..u64::from(start) + u64::from(len) {
                            store.put(k, &[2]);
                        }
                    }
                }
                prop_assert_eq!(store.max_depth(), walked_max_depth(&store));
            }
        }

        /// The store is a `BTreeMap<u64, Vec<u8>>`: `put`'s existed flag, `get_into`,
        /// `scan_with` and `len` agree with the model after in-place overwrites of any
        /// length, and an overwrite never moves `max_depth`.
        #[test]
        fn store_behaves_like_a_btreemap_of_byte_values(
            shards in 1usize..5,
            ops in prop::collection::vec(
                prop_oneof![
                    // Listed twice: two draws in five are puts.
                    (0u16..150, any::<u8>(), 0u8..40).prop_map(|(k, b, n)| ModelOp::Put(k, b, n)),
                    (0u16..150, any::<u8>(), 0u8..40).prop_map(|(k, b, n)| ModelOp::Put(k, b, n)),
                    (0u16..150).prop_map(ModelOp::Get),
                    (0u16..150).prop_map(ModelOp::Remove),
                    (0u16..150, 0u8..80).prop_map(|(k, n)| ModelOp::Scan(k, n)),
                ],
                1..500,
            )
        ) {
            let store = KvStore::new(shards, 150);
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for op in ops {
                match op {
                    ModelOp::Put(k, byte, len) => {
                        let (key, value) = (u64::from(k), vec![byte; usize::from(len)]);
                        let depth = store.max_depth();
                        let existed = store.put(key, &value);
                        prop_assert_eq!(existed, model.insert(key, value).is_some());
                        if existed {
                            prop_assert_eq!(store.max_depth(), depth);
                        }
                    }
                    ModelOp::Get(k) => {
                        let key = u64::from(k);
                        prop_assert_eq!(get(&store, key), model.get(&key).cloned());
                    }
                    ModelOp::Remove(k) => {
                        let key = u64::from(k);
                        prop_assert_eq!(store.remove(key), model.remove(&key));
                    }
                    ModelOp::Scan(k, n) => {
                        let mut got = Vec::new();
                        let visited =
                            store.scan_with(u64::from(k), usize::from(n), |key, value| {
                                got.push((key, value.to_vec()));
                            });
                        let want: Vec<(u64, Vec<u8>)> = model
                            .range(u64::from(k)..)
                            .take(usize::from(n))
                            .map(|(key, value)| (*key, value.clone()))
                            .collect();
                        prop_assert_eq!(visited, want.len());
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(store.len(), model.len());
                prop_assert_eq!(store.max_depth(), walked_max_depth(&store));
            }
        }
    }
}
