//! A persistent Compressed Hash-Array Mapped Prefix-tree (CHAMP).
//!
//! The production CCF bases its map on CHAMP (Steindorfer & Vinju, §7 of
//! the paper) because endpoint execution needs cheap immutable snapshots:
//! every transaction reads from a frozen root pointer while the committer
//! installs new roots, and rolled-back speculative state is dropped by
//! forgetting a pointer. Structural sharing makes snapshot = a root
//! pointer copy and update = O(log32 n) path copy.
//!
//! Layout follows the CHAMP paper: each node keeps two bitmaps —
//! `data_map` for inline key-value entries and `node_map` for sub-nodes —
//! over a 32-way branch, with entries and sub-nodes in two compact slices.
//! An entry sits behind one `Arc` and a sub-node is held by value in its
//! parent's slice, so a path copy copies pointers only (never key or value
//! bytes) and a lookup takes one pointer hop per level. Hash collisions
//! beyond the 60-bit hash path fall back to a plain list of entries.

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

const BITS: u32 = 5;
const FANOUT: usize = 1 << BITS; // 32
const MAX_DEPTH: u32 = 64 / BITS + 1; // hash exhausted below this

/// Key bound: hashable and comparable. Keys are never cloned by the map:
/// each entry lives behind one `Arc` that path copies share.
pub trait Key: Eq + Hash {}
impl<T: Eq + Hash> Key for T {}

fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    // FNV-1a over the key's Hash stream: deterministic across processes
    // (unlike `RandomState`), which matters because map iteration feeds
    // deterministic serialization. A borrowed form of a key hashes like
    // the key itself (the `Borrow` contract), so lookups by `&[u8]` find
    // `Vec<u8>` keys.
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }
    let mut h = Fnv(0xcbf29ce484222325);
    key.hash(&mut h);
    std::hash::Hasher::finish(&h)
}

/// One key-value pair. Nodes hold entries by pointer so a path copy bumps
/// reference counts instead of copying key and value bytes.
type Entry<K, V> = Arc<(K, V)>;

/// A node: its bitmaps and one shared slice of slots — inline entries,
/// then sub-nodes, each in bit order. A sub-node sits by value in its
/// parent's slice, so a lookup takes one pointer hop per level and a path
/// copy allocates one slice per level. From depth `MAX_DEPTH` on the hash
/// is exhausted: such a node is a plain list of colliding entries and its
/// bitmaps are unused.
struct Node<K, V> {
    data_map: u32,
    node_map: u32,
    slots: Arc<[Slot<K, V>]>,
}

enum Slot<K, V> {
    Entry(Entry<K, V>),
    Node(Node<K, V>),
}

// Manual impls: copying a node copies pointers only, so neither `K` nor
// `V` needs to be `Clone`.
impl<K, V> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        Node { data_map: self.data_map, node_map: self.node_map, slots: self.slots.clone() }
    }
}

impl<K, V> Clone for Slot<K, V> {
    fn clone(&self) -> Self {
        match self {
            Slot::Entry(e) => Slot::Entry(e.clone()),
            Slot::Node(n) => Slot::Node(n.clone()),
        }
    }
}

impl<K, V> Slot<K, V> {
    fn entry(&self) -> &Entry<K, V> {
        match self {
            Slot::Entry(e) => e,
            Slot::Node(_) => unreachable!("a data bit indexes an entry slot"),
        }
    }

    fn node(&self) -> &Node<K, V> {
        match self {
            Slot::Node(n) => n,
            Slot::Entry(_) => unreachable!("a node bit indexes a sub-node slot"),
        }
    }
}

fn frag(hash: u64, depth: u32) -> u32 {
    1u32 << ((hash >> (depth * BITS)) & (FANOUT as u64 - 1)) as u32
}

/// `s` with `item` inserted at `idx` (one allocation: the iterator's length
/// is exact).
fn inserted<T: Clone>(s: &[T], idx: usize, item: T) -> Arc<[T]> {
    let (head, tail) = s.split_at(idx);
    head.iter().cloned().chain(std::iter::once(item)).chain(tail.iter().cloned()).collect()
}

/// `s` with the element at `idx` replaced by `item`.
fn replaced<T: Clone>(s: &[T], idx: usize, item: T) -> Arc<[T]> {
    let (head, tail) = (&s[..idx], &s[idx + 1..]);
    head.iter().cloned().chain(std::iter::once(item)).chain(tail.iter().cloned()).collect()
}

/// `s` without the element at `idx`.
fn removed<T: Clone>(s: &[T], idx: usize) -> Arc<[T]> {
    let (head, tail) = (&s[..idx], &s[idx + 1..]);
    head.iter().cloned().chain(tail.iter().cloned()).collect()
}

/// `s` without the element at `from`, with `item` at index `to` of the
/// result (an entry pushed down into a sub-node, or pulled back up).
fn moved<T: Clone>(s: &[T], from: usize, to: usize, item: T) -> Arc<[T]> {
    let mut v = s.to_vec();
    v.remove(from);
    v.insert(to, item);
    Arc::from(v)
}

enum InsertResult {
    Added,
    Replaced,
}

enum RemoveResult<K, V> {
    NotFound,
    /// The node lost its last entry.
    Emptied,
    Removed(Node<K, V>),
}

impl<K: Key, V> Node<K, V> {
    /// Slot index of the inline entry at `bit`.
    fn entry_slot(&self, bit: u32) -> usize {
        (self.data_map & (bit - 1)).count_ones() as usize
    }

    /// Slot index of the sub-node at `bit`: after every inline entry.
    fn node_slot(&self, bit: u32) -> usize {
        (self.data_map.count_ones() + (self.node_map & (bit - 1)).count_ones()) as usize
    }

    fn get<'a, Q>(&'a self, key: &Q, hash: u64) -> Option<&'a V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut node = self;
        let mut depth = 0;
        loop {
            if depth >= MAX_DEPTH {
                let mut entries = node.slots.iter().map(Slot::entry);
                return entries.find(|e| e.0.borrow() == key).map(|e| &e.1);
            }
            let bit = frag(hash, depth);
            if node.data_map & bit != 0 {
                let entry = node.slots[node.entry_slot(bit)].entry();
                return (entry.0.borrow() == key).then_some(&entry.1);
            }
            if node.node_map & bit == 0 {
                return None;
            }
            node = node.slots[node.node_slot(bit)].node();
            depth += 1;
        }
    }

    /// Returns the new node and whether an entry was added or replaced.
    fn insert(&self, entry: Entry<K, V>, hash: u64, depth: u32) -> (Node<K, V>, InsertResult) {
        let (data_map, node_map) = (self.data_map, self.node_map);
        if depth >= MAX_DEPTH {
            let found = self.slots.iter().position(|s| s.entry().0 == entry.0);
            let entry = Slot::Entry(entry);
            let (slots, res) = match found {
                Some(idx) => (replaced(&self.slots, idx, entry), InsertResult::Replaced),
                None => (inserted(&self.slots, self.slots.len(), entry), InsertResult::Added),
            };
            return (Node { data_map, node_map, slots }, res);
        }
        let bit = frag(hash, depth);
        if data_map & bit != 0 {
            let idx = self.entry_slot(bit);
            let existing = self.slots[idx].entry();
            if existing.0 == entry.0 {
                let slots = replaced(&self.slots, idx, Slot::Entry(entry));
                return (Node { data_map, node_map, slots }, InsertResult::Replaced);
            }
            // Push the existing entry down one level and insert both into
            // a fresh sub-node, which takes the slot after the entries.
            let existing_hash = hash_of(&existing.0);
            let sub = Node::merge_two(existing.clone(), existing_hash, entry, hash, depth + 1);
            let slots = moved(&self.slots, idx, self.node_slot(bit) - 1, Slot::Node(sub));
            let node = Node { data_map: data_map & !bit, node_map: node_map | bit, slots };
            (node, InsertResult::Added)
        } else if node_map & bit != 0 {
            let idx = self.node_slot(bit);
            let (child, res) = self.slots[idx].node().insert(entry, hash, depth + 1);
            (Node { data_map, node_map, slots: replaced(&self.slots, idx, Slot::Node(child)) }, res)
        } else {
            let slots = inserted(&self.slots, self.entry_slot(bit), Slot::Entry(entry));
            (Node { data_map: data_map | bit, node_map, slots }, InsertResult::Added)
        }
    }

    fn merge_two(e1: Entry<K, V>, h1: u64, e2: Entry<K, V>, h2: u64, depth: u32) -> Node<K, V> {
        if depth >= MAX_DEPTH {
            let slots = Arc::from([Slot::Entry(e1), Slot::Entry(e2)]);
            return Node { data_map: 0, node_map: 0, slots };
        }
        let b1 = frag(h1, depth);
        let b2 = frag(h2, depth);
        if b1 == b2 {
            let sub = Node::merge_two(e1, h1, e2, h2, depth + 1);
            return Node { data_map: 0, node_map: b1, slots: Arc::from([Slot::Node(sub)]) };
        }
        // Order entries by bit position to keep the compact layout sorted.
        let (lo, hi) = if b1 < b2 { (e1, e2) } else { (e2, e1) };
        let slots = Arc::from([Slot::Entry(lo), Slot::Entry(hi)]);
        Node { data_map: b1 | b2, node_map: 0, slots }
    }

    /// Removes `key`. Maintains the CHAMP canonical form by collapsing
    /// single-entry sub-nodes back inline.
    fn remove<Q>(&self, key: &Q, hash: u64, depth: u32) -> RemoveResult<K, V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let (data_map, node_map) = (self.data_map, self.node_map);
        // The slot that goes, and the bitmaps without it.
        let (idx, data_map, node_map) = if depth >= MAX_DEPTH {
            let Some(idx) = self.slots.iter().position(|s| s.entry().0.borrow() == key) else {
                return RemoveResult::NotFound;
            };
            (idx, data_map, node_map)
        } else {
            let bit = frag(hash, depth);
            if data_map & bit != 0 {
                let idx = self.entry_slot(bit);
                if self.slots[idx].entry().0.borrow() != key {
                    return RemoveResult::NotFound;
                }
                (idx, data_map & !bit, node_map)
            } else if node_map & bit != 0 {
                let idx = self.node_slot(bit);
                match self.slots[idx].node().remove(key, hash, depth + 1) {
                    RemoveResult::NotFound => return RemoveResult::NotFound,
                    RemoveResult::Emptied => (idx, data_map, node_map & !bit),
                    // Canonical form: a sub-node left with exactly one
                    // entry and no sub-nodes is pulled up inline.
                    RemoveResult::Removed(child)
                        if child.node_map == 0 && child.slots.len() == 1 =>
                    {
                        let entry = child.slots[0].clone();
                        let slots = moved(&self.slots, idx, self.entry_slot(bit), entry);
                        let (data_map, node_map) = (data_map | bit, node_map & !bit);
                        return RemoveResult::Removed(Node { data_map, node_map, slots });
                    }
                    RemoveResult::Removed(child) => {
                        let slots = replaced(&self.slots, idx, Slot::Node(child));
                        return RemoveResult::Removed(Node { data_map, node_map, slots });
                    }
                }
            } else {
                return RemoveResult::NotFound;
            }
        };
        if self.slots.len() == 1 {
            return RemoveResult::Emptied;
        }
        RemoveResult::Removed(Node { data_map, node_map, slots: removed(&self.slots, idx) })
    }

    fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a K, &'a V)) {
        for slot in self.slots.iter() {
            match slot {
                Slot::Entry(e) => f(&e.0, &e.1),
                Slot::Node(n) => n.for_each(f),
            }
        }
    }
}

/// A persistent hash map with O(1) snapshots (clone) and O(log32 n)
/// updates via structural sharing.
pub struct ChampMap<K, V> {
    root: Option<Node<K, V>>,
    len: usize,
}

impl<K, V> Clone for ChampMap<K, V> {
    fn clone(&self) -> Self {
        ChampMap { root: self.root.clone(), len: self.len }
    }
}

impl<K: Key, V> Default for ChampMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V> ChampMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        ChampMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up a key by any borrowed form of it (e.g. `&[u8]` for
    /// `Vec<u8>` keys), without allocating.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.root.as_ref()?.get(key, hash_of(key))
    }

    /// True iff `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Returns a new map with `key` bound to `value` (persistent insert).
    pub fn insert(&self, key: K, value: V) -> ChampMap<K, V> {
        let hash = hash_of(&key);
        let entry = Arc::new((key, value));
        let (node, res) = match &self.root {
            None => {
                let slots = Arc::from([Slot::Entry(entry)]);
                (Node { data_map: frag(hash, 0), node_map: 0, slots }, InsertResult::Added)
            }
            Some(root) => root.insert(entry, hash, 0),
        };
        let len = match res {
            InsertResult::Added => self.len + 1,
            InsertResult::Replaced => self.len,
        };
        ChampMap { root: Some(node), len }
    }

    /// Returns a new map without `key` (persistent remove).
    pub fn remove<Q>(&self, key: &Q) -> ChampMap<K, V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(root) = &self.root else { return self.clone() };
        match root.remove(key, hash_of(key), 0) {
            RemoveResult::NotFound => self.clone(),
            RemoveResult::Emptied => ChampMap { root: None, len: self.len - 1 },
            RemoveResult::Removed(node) => ChampMap { root: Some(node), len: self.len - 1 },
        }
    }

    /// Visits every entry (order is deterministic but unspecified).
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(&'a K, &'a V)) {
        if let Some(root) = &self.root {
            root.for_each(&mut f);
        }
    }

    /// Collects all entries into a vector (deterministic order).
    pub fn entries(&self) -> Vec<(&K, &V)> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|k, v| out.push((k, v)));
        out
    }
}

impl<K: Key + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ChampMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut m = f.debug_map();
        self.for_each(|k, v| {
            m.entry(k, v);
        });
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Asserts the CHAMP canonical form below the root: no empty node, no
    /// sub-node holding a single entry, and one slot per bitmap bit.
    fn assert_canonical<K, V>(node: &Node<K, V>, depth: u32) {
        assert!(!node.slots.is_empty(), "empty node at depth {depth}");
        if depth > 0 {
            let lone_entry = node.slots.len() == 1 && matches!(node.slots[0], Slot::Entry(_));
            assert!(!lone_entry, "single-entry sub-node at depth {depth}");
        }
        if depth < MAX_DEPTH {
            let entries = node.data_map.count_ones() as usize;
            assert_eq!(node.slots.len(), entries + node.node_map.count_ones() as usize);
            for (i, slot) in node.slots.iter().enumerate() {
                assert_eq!(matches!(slot, Slot::Entry(_)), i < entries, "slot order");
            }
        }
        for slot in node.slots.iter() {
            if let Slot::Node(child) = slot {
                assert_canonical(child, depth + 1);
            }
        }
    }

    fn assert_map_canonical<K, V>(map: &ChampMap<K, V>) {
        assert_eq!(map.root.is_none(), map.len == 0);
        if let Some(root) = &map.root {
            assert_canonical(root, 0);
        }
    }

    #[test]
    fn insert_get_remove() {
        let m = ChampMap::new();
        let m = m.insert("a".to_string(), 1);
        let m = m.insert("b".to_string(), 2);
        assert_eq!(m.get(&"a".to_string()), Some(&1));
        assert_eq!(m.get(&"b".to_string()), Some(&2));
        assert_eq!(m.get(&"c".to_string()), None);
        assert_eq!(m.len(), 2);
        let m2 = m.remove(&"a".to_string());
        assert_eq!(m2.get(&"a".to_string()), None);
        assert_eq!(m2.len(), 1);
        // Persistence: the original is untouched.
        assert_eq!(m.get(&"a".to_string()), Some(&1));
    }

    #[test]
    fn replace_keeps_len() {
        let m = ChampMap::new().insert(1u64, "x").insert(1u64, "y");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1), Some(&"y"));
    }

    #[test]
    fn remove_missing_is_noop() {
        let m = ChampMap::new().insert(1u64, 1);
        let m2 = m.remove(&2);
        assert_eq!(m2.len(), 1);
    }

    #[test]
    fn agrees_with_hashmap_under_random_ops() {
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut champ: ChampMap<u64, u64> = ChampMap::new();
        let mut rng = ccf_crypto::chacha::ChaChaRng::seed_from_u64(42);
        for _ in 0..20_000 {
            let key = rng.gen_range(512);
            match rng.gen_range(3) {
                0 | 1 => {
                    let val = rng.next_u64();
                    reference.insert(key, val);
                    champ = champ.insert(key, val);
                }
                _ => {
                    reference.remove(&key);
                    champ = champ.remove(&key);
                }
            }
            assert_eq!(champ.len(), reference.len());
            assert_map_canonical(&champ);
        }
        for (k, v) in &reference {
            assert_eq!(champ.get(k), Some(v), "key {k}");
        }
        let mut count = 0;
        champ.for_each(|k, v| {
            assert_eq!(reference.get(k), Some(v));
            count += 1;
        });
        assert_eq!(count, reference.len());
    }

    #[test]
    fn snapshots_are_independent() {
        let mut m = ChampMap::new();
        let mut snapshots = Vec::new();
        for i in 0..100u64 {
            m = m.insert(i, i * 10);
            snapshots.push(m.clone());
        }
        for (i, snap) in snapshots.iter().enumerate() {
            assert_eq!(snap.len(), i + 1);
            assert_eq!(snap.get(&(i as u64)), Some(&(i as u64 * 10)));
            assert_eq!(snap.get(&(i as u64 + 1)), None);
        }
    }

    #[test]
    fn many_keys_deep_trie() {
        let mut m = ChampMap::new();
        for i in 0..10_000u64 {
            m = m.insert(i, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in (0..10_000u64).step_by(97) {
            assert_eq!(m.get(&i), Some(&i));
        }
        for i in 0..5_000u64 {
            m = m.remove(&i);
        }
        assert_map_canonical(&m);
        assert_eq!(m.len(), 5_000);
        assert_eq!(m.get(&100), None);
        assert_eq!(m.get(&7000), Some(&7000));
    }

    /// A key whose hash ignores all but two bits: keys collide on the full
    /// hash path and land in collision lists below `MAX_DEPTH`.
    #[derive(PartialEq, Eq, Debug)]
    struct Colliding(u32);

    impl std::hash::Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            (self.0 % 4).hash(state)
        }
    }

    #[test]
    fn colliding_hashes_agree_with_hashmap() {
        let mut reference: HashMap<u32, u32> = HashMap::new();
        let mut champ: ChampMap<Colliding, u32> = ChampMap::new();
        let mut rng = ccf_crypto::chacha::ChaChaRng::seed_from_u64(7);
        for _ in 0..4_000 {
            let key = rng.gen_range(64) as u32;
            if rng.gen_range(3) < 2 {
                let val = rng.next_u64() as u32;
                reference.insert(key, val);
                champ = champ.insert(Colliding(key), val);
            } else {
                reference.remove(&key);
                champ = champ.remove(&Colliding(key));
            }
            assert_eq!(champ.len(), reference.len());
            assert_map_canonical(&champ);
        }
        for key in 0..64 {
            assert_eq!(champ.get(&Colliding(key)), reference.get(&key), "key {key}");
        }
        let mut count = 0;
        champ.for_each(|k, v| {
            assert_eq!(reference.get(&k.0), Some(v));
            count += 1;
        });
        assert_eq!(count, reference.len());
    }

    #[test]
    fn byte_keys() {
        let mut m: ChampMap<Vec<u8>, Vec<u8>> = ChampMap::new();
        for i in 0..100u32 {
            m = m.insert(i.to_le_bytes().to_vec(), vec![i as u8; 20]);
        }
        assert_eq!(m.get(&5u32.to_le_bytes().to_vec()), Some(&vec![5u8; 20]));
    }
}
