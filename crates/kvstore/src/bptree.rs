//! An in-memory B+-tree.
//!
//! masstree's core is a cache-optimized ordered index; this module provides the ordered
//! index underlying our substitute store: a B+-tree with wide nodes (to keep the tree
//! shallow and cache-friendly) and ordered range scans.  Deletions are *lazy*: keys are
//! removed from their leaf without rebalancing, which keeps the implementation simple at
//! the cost of occasionally under-full leaves — a deliberate trade-off documented in
//! DESIGN.md (YCSB-style workloads never shrink the tree).

use std::fmt::Debug;

/// Maximum number of keys a node holds before it splits.
const MAX_KEYS: usize = 31;

/// Index of the child of an internal node whose subtree holds `key`: keys equal to a
/// separator live to its right.
fn child_index<K: Ord>(keys: &[K], key: &K) -> usize {
    match keys.binary_search(key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

#[derive(Debug, Clone)]
enum Node<K, V> {
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
    },
    Internal {
        keys: Vec<K>,
        children: Vec<Node<K, V>>,
    },
}

impl<K: Ord + Clone, V> Node<K, V> {
    fn new_leaf() -> Self {
        Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Inserts `key`/`value`; returns the previous value if the key existed, and a split
    /// (separator key + new right sibling) if this node overflowed.
    #[allow(clippy::type_complexity)]
    fn insert(&mut self, key: K, value: V) -> (Option<V>, Option<(K, Node<K, V>)>) {
        match self {
            Node::Leaf { keys, values } => match keys.binary_search(&key) {
                Ok(i) => {
                    let old = std::mem::replace(&mut values[i], value);
                    (Some(old), None)
                }
                Err(i) => {
                    keys.insert(i, key);
                    values.insert(i, value);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_values = values.split_off(mid);
                        let sep = right_keys[0].clone();
                        (
                            None,
                            Some((
                                sep,
                                Node::Leaf {
                                    keys: right_keys,
                                    values: right_values,
                                },
                            )),
                        )
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = child_index(keys, &key);
                let (old, split) = children[idx].insert(key, value);
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let sep_up = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // the separator moves up, it does not stay in either node
                        let right_children = children.split_off(mid + 1);
                        return (
                            old,
                            Some((
                                sep_up,
                                Node::Internal {
                                    keys: right_keys,
                                    children: right_children,
                                },
                            )),
                        );
                    }
                }
                (old, None)
            }
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        match self {
            Node::Leaf { keys, values } => keys.binary_search(key).ok().map(|i| &values[i]),
            Node::Internal { keys, children } => children[child_index(keys, key)].get(key),
        }
    }

    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self {
            Node::Leaf { keys, values } => keys.binary_search(key).ok().map(|i| &mut values[i]),
            Node::Internal { keys, children } => children[child_index(keys, key)].get_mut(key),
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        match self {
            Node::Leaf { keys, values } => keys.binary_search(key).ok().map(|i| {
                keys.remove(i);
                values.remove(i)
            }),
            Node::Internal { keys, children } => children[child_index(keys, key)].remove(key),
        }
    }

    /// Visits up to `*left` entries with key >= `start` in key order, counting `*left`
    /// down by one per entry.
    fn scan_with(&self, start: &K, left: &mut usize, visit: &mut impl FnMut(&K, &V)) {
        match self {
            Node::Leaf { keys, values } => {
                let begin = match keys.binary_search(start) {
                    Ok(i) | Err(i) => i,
                };
                for (key, value) in keys[begin..].iter().zip(&values[begin..]) {
                    if *left == 0 {
                        return;
                    }
                    *left -= 1;
                    visit(key, value);
                }
            }
            Node::Internal { keys, children } => {
                for child in &children[child_index(keys, start)..] {
                    if *left == 0 {
                        return;
                    }
                    child.scan_with(start, left, visit);
                }
            }
        }
    }

    /// Height found by walking the leftmost path: the oracle for the cached height.
    #[cfg(test)]
    fn walked_depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => 1 + children[0].walked_depth(),
        }
    }
}

/// An ordered map implemented as a B+-tree.
///
/// # Example
///
/// ```
/// use tailbench_kvstore::bptree::BPlusTree;
///
/// let mut tree = BPlusTree::new();
/// tree.insert(3u64, "three");
/// tree.insert(1, "one");
/// assert_eq!(tree.get(&1), Some(&"one"));
/// assert_eq!(tree.len(), 2);
/// let mut keys = Vec::new();
/// assert_eq!(tree.scan_with(&0, 10, |k, _| keys.push(*k)), 2);
/// assert_eq!(keys, [1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    root: Node<K, V>,
    len: usize,
    /// Height of `root`: grows by one when the root splits and never shrinks, since
    /// deletions are lazy (DESIGN.md, "The B+-tree no-shrink invariant").
    depth: usize,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        BPlusTree {
            root: Node::new_leaf(),
            len: 0,
            depth: 1,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf), in O(1).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Height found by walking the tree, to check [`depth`](Self::depth) against.
    #[cfg(test)]
    pub(crate) fn walked_depth(&self) -> usize {
        self.root.walked_depth()
    }

    /// Inserts a key/value pair, returning the previous value for the key if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (old, split) = self.root.insert(key, value);
        if old.is_none() {
            self.len += 1;
        }
        if let Some((sep, right)) = split {
            let old_root = std::mem::replace(&mut self.root, Node::new_leaf());
            self.root = Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            };
            self.depth += 1;
        }
        old
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.root.get(key)
    }

    /// Looks up a key for an in-place update.  The tree's shape is untouched, so
    /// neither [`len`](Self::len) nor [`depth`](Self::depth) can change through it.
    #[must_use]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.root.get_mut(key)
    }

    /// Returns `true` if the key is present.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.root.remove(key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Calls `visit` on up to `limit` entries with keys `>= start`, in ascending key
    /// order, and returns how many it visited.  Nothing is cloned.
    pub fn scan_with(&self, start: &K, limit: usize, mut visit: impl FnMut(&K, &V)) -> usize {
        let mut left = limit;
        self.root.scan_with(start, &mut left, &mut visit);
        limit - left
    }

    /// Up to `limit` entries with keys `>= start`, cloned, in ascending key order.
    #[cfg(test)]
    fn scan(&self, start: &K, limit: usize) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut out = Vec::with_capacity(limit.min(128));
        self.scan_with(start, limit, |k, v| out.push((k.clone(), v.clone())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new();
        assert!(t.is_empty());
        // 7 and 1000 are coprime, so i*7 mod 1000 enumerates every key exactly once.
        for i in 0..1000u64 {
            assert!(t.insert(i * 7 % 1000, i).is_none());
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            let key = i * 7 % 1000;
            assert_eq!(t.get(&key), Some(&i));
        }
        assert!(t.contains_key(&500));
        assert!(!t.contains_key(&1000));
    }

    #[test]
    fn overwrites_return_previous_value() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(1u64, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    #[test]
    fn get_mut_updates_in_place_without_changing_the_shape() {
        let mut t = BPlusTree::new();
        for i in 0..5_000u64 {
            t.insert(i, vec![i as u8]);
        }
        let (len, depth) = (t.len(), t.depth());
        for i in (0..5_000u64).step_by(3) {
            let value = t.get_mut(&i).expect("every key was inserted");
            value.clear();
            value.extend_from_slice(&[1, 2, 3]);
        }
        assert_eq!(t.get_mut(&5_000), None);
        assert_eq!((t.len(), t.depth(), t.walked_depth()), (len, depth, depth));
        assert_eq!(t.get(&3), Some(&vec![1, 2, 3]));
        assert_eq!(t.get(&4), Some(&vec![4]));
    }

    #[test]
    fn scan_with_visits_in_order_and_counts_what_it_visited() {
        let mut t = BPlusTree::new();
        for i in (0..500u64).rev() {
            t.insert(i * 2, i);
        }
        let mut keys = Vec::new();
        assert_eq!(t.scan_with(&101, 5, |k, _| keys.push(*k)), 5);
        assert_eq!(keys, [102, 104, 106, 108, 110]);
        assert_eq!(t.scan_with(&990, 100, |_, _| {}), 5);
        assert_eq!(
            t.scan_with(&0, 0, |_, _| panic!("limit 0 visits nothing")),
            0
        );
    }

    #[test]
    fn large_insert_keeps_tree_shallow() {
        let mut t = BPlusTree::new();
        for i in 0..100_000u64 {
            t.insert(i, i * 2);
        }
        assert_eq!(t.len(), 100_000);
        // With 31-key nodes, 100k entries needs only a handful of levels.
        assert!(t.depth() <= 5, "depth = {}", t.depth());
        assert_eq!(t.get(&99_999), Some(&199_998));
    }

    #[test]
    fn cached_depth_equals_walked_depth_across_root_splits() {
        let mut t = BPlusTree::new();
        assert_eq!((t.depth(), t.walked_depth()), (1, 1));
        let mut root_splits = 0;
        for i in 0..20_000u64 {
            let before = t.depth();
            t.insert(i * 7 % 20_000, i);
            assert_eq!(t.depth(), t.walked_depth(), "after insert {i}");
            root_splits += t.depth() - before;
        }
        assert!(root_splits >= 2, "only {root_splits} root splits");
        for i in 0..20_000u64 {
            t.remove(&i);
        }
        assert_eq!(t.depth(), t.walked_depth());
    }

    #[test]
    fn scan_returns_sorted_prefix() {
        let mut t = BPlusTree::new();
        for i in (0..500u64).rev() {
            t.insert(i, i);
        }
        let s = t.scan(&100, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0].0, 100);
        assert_eq!(s[9].0, 109);
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
        // Scan past the end.
        let tail = t.scan(&495, 100);
        assert_eq!(tail.len(), 5);
    }

    #[test]
    fn remove_deletes_entries() {
        let mut t = BPlusTree::new();
        for i in 0..2_000u64 {
            t.insert(i, i);
        }
        for i in (0..2_000u64).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.remove(&0), None);
        assert_eq!(t.get(&1), Some(&1));
        assert_eq!(t.get(&2), None);
    }

    #[test]
    fn mass_delete_never_shrinks_the_tree_and_len_stays_exact() {
        // The documented no-shrink invariant (DESIGN.md): deletions are lazy, leaves are
        // never merged and the structure is monotonically non-decreasing — but `len()`
        // counts live keys exactly, and lookups/scans skip the emptied leaves.
        let mut t = BPlusTree::new();
        for i in 0..10_000u64 {
            t.insert(i, i);
        }
        let depth_full = t.depth();
        for i in 0..10_000u64 {
            assert_eq!(t.remove(&i), Some(i));
            assert_eq!(t.len() as u64, 10_000 - i - 1, "len must stay exact");
        }
        assert!(t.is_empty());
        assert_eq!(
            t.depth(),
            depth_full,
            "lazy deletion must not restructure the tree"
        );
        // Every leaf is now under-full (empty); queries must still be correct.
        assert_eq!(t.get(&5_000), None);
        assert!(!t.contains_key(&0));
        assert!(t.scan(&0, 100).is_empty());
    }

    #[test]
    fn delete_then_reinsert_round_trips_through_underfull_leaves() {
        let mut t = BPlusTree::new();
        for i in 0..4_000u64 {
            t.insert(i, i);
        }
        let depth_before = t.depth();
        for i in 0..4_000u64 {
            t.remove(&i);
        }
        // Reinsert a different (overlapping) key set into the hollowed-out tree.
        for i in (0..8_000u64).step_by(2) {
            assert_eq!(
                t.insert(i, i * 10),
                None,
                "tree was emptied, key {i} is new"
            );
        }
        assert_eq!(t.len(), 4_000);
        assert!(t.depth() >= depth_before, "the tree never shrinks");
        for i in (0..8_000u64).step_by(2) {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&1), None);
        // Ordered iteration over reused and fresh leaves stays sorted and complete.
        let all = t.scan(&0, 10_000);
        assert_eq!(all.len(), 4_000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn interleaved_delete_reinsert_matches_btreemap() {
        use std::collections::BTreeMap;
        let mut t = BPlusTree::new();
        let mut model = BTreeMap::new();
        // Three waves of insert-everything / delete-most / reinsert-some, checking the
        // full map equivalence after each wave.
        for wave in 0..3u64 {
            for i in 0..2_000u64 {
                let k = i * 3 + wave;
                assert_eq!(t.insert(k, wave), model.insert(k, wave));
            }
            for i in (0..2_000u64).filter(|i| i % 4 != 0) {
                let k = i * 3 + wave;
                assert_eq!(t.remove(&k), model.remove(&k));
            }
            assert_eq!(t.len(), model.len());
            for (k, v) in &model {
                assert_eq!(t.get(k), Some(v));
            }
            let scan = t.scan(&0, usize::MAX / 2);
            let want: Vec<(u64, u64)> = model.iter().map(|(a, b)| (*a, *b)).collect();
            assert_eq!(scan, want);
        }
    }

    #[test]
    fn reverse_and_random_order_inserts_agree_with_btreemap() {
        use std::collections::BTreeMap;
        let mut model = BTreeMap::new();
        let mut t = BPlusTree::new();
        let mut x: u64 = 0x12345;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x >> 40;
            model.insert(k, x);
            t.insert(k, x);
        }
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        /// Overwrites the key's value through `get_mut` if it is present.
        Update(u16, u32),
        Remove(u16),
        Scan(u16, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Update(k, v)),
            any::<u16>().prop_map(Op::Remove),
            (any::<u16>(), 1u8..50).prop_map(|(k, n)| Op::Scan(k, n)),
        ]
    }

    /// Applies `op` to the tree and to the model, and checks that they agree.
    fn apply(
        tree: &mut BPlusTree<u16, u32>,
        model: &mut BTreeMap<u16, u32>,
        op: Op,
    ) -> Result<(), String> {
        match op {
            Op::Insert(k, v) => {
                prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
            }
            Op::Update(k, v) => {
                let depth = tree.depth();
                match (tree.get_mut(&k), model.get_mut(&k)) {
                    (Some(slot), Some(want)) => (*slot, *want) = (v, v),
                    (got, want) => prop_assert_eq!(got, want),
                }
                prop_assert_eq!(tree.depth(), depth);
            }
            Op::Remove(k) => {
                prop_assert_eq!(tree.remove(&k), model.remove(&k));
            }
            Op::Scan(k, n) => {
                let got = tree.scan(&k, n as usize);
                let want: Vec<(u16, u32)> = model
                    .range(k..)
                    .take(n as usize)
                    .map(|(a, b)| (*a, *b))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        Ok(())
    }

    proptest! {
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
            let mut tree = BPlusTree::new();
            let mut model = BTreeMap::new();
            for op in ops {
                apply(&mut tree, &mut model, op)?;
            }
        }

        /// Delete-heavy sequences (3:1 removes over inserts from a small key range)
        /// drive many leaves to empty and back — the regime the no-shrink invariant
        /// trades off — and must still match `BTreeMap` exactly.
        #[test]
        fn delete_heavy_workload_behaves_like_btreemap(
            // The remove branch is repeated to weight deletions 3:1 over inserts (the
            // offline proptest shim has no weighted prop_oneof syntax).
            ops in prop::collection::vec(
                prop_oneof![
                    (0u16..256, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
                    (0u16..256).prop_map(Op::Remove),
                    (0u16..256).prop_map(Op::Remove),
                    (0u16..256).prop_map(Op::Remove),
                    (0u16..256, 1u8..50).prop_map(|(k, n)| Op::Scan(k, n)),
                ],
                1..600,
            )
        ) {
            let mut tree = BPlusTree::new();
            let mut model = BTreeMap::new();
            for op in ops {
                apply(&mut tree, &mut model, op)?;
            }
        }
    }
}
