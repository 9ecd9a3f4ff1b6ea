//! An incremental Merkle tree over ledger entries.
//!
//! Shape follows RFC 6962 (Certificate Transparency), which is also the
//! shape used by the production `merklecpp`: the tree over n leaves splits
//! at the largest power of two strictly less than n. Leaves are
//! domain-separated from interior nodes (0x00 / 0x01 prefixes) so a leaf
//! can never be confused with a node.
//!
//! The tree keeps the root of every complete perfect subtree, level by
//! level, as it seals. Appends are O(1) amortized, and the root, any
//! historical root and any inclusion proof are O(log n): each is a fold of
//! a few retained subtree roots. Consensus can roll back uncommitted
//! suffixes after a view change; truncation cuts each level, in O(log n).

use std::cell::Cell;

use ccf_crypto::sha2::{sha256_fixed65, Sha256};
use ccf_crypto::Digest32;

fn leaf_hash(leaf: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(leaf);
    h.finalize()
}

// An interior node is always exactly 65 bytes (domain byte + two child
// digests), so the fixed-input digest skips all padding bookkeeping.
fn node_hash(left: &Digest32, right: &Digest32) -> Digest32 {
    let mut buf = [0u8; 65];
    buf[0] = 0x01;
    buf[1..33].copy_from_slice(left);
    buf[33..65].copy_from_slice(right);
    sha256_fixed65(&buf)
}

/// The empty tree's root: H("ccf empty merkle tree").
pub fn empty_root() -> Digest32 {
    ccf_crypto::sha2::sha256(b"ccf empty merkle tree")
}

/// One step of a Merkle inclusion proof: the sibling digest and whether it
/// sits to the left of the running hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofStep {
    /// True if the sibling is the left child at this level.
    pub sibling_on_left: bool,
    /// The sibling digest.
    pub sibling: Digest32,
}

/// A Merkle inclusion proof for one leaf against a root over `tree_size`
/// leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: u64,
    /// Number of leaves in the tree the proof was generated against.
    pub tree_size: u64,
    /// Path from the leaf to the root.
    pub path: Vec<ProofStep>,
}

impl MerkleProof {
    /// Recomputes the root implied by `leaf_digest` under this proof.
    pub fn compute_root(&self, leaf_digest: &Digest32) -> Digest32 {
        let mut acc = *leaf_digest;
        for step in &self.path {
            acc = if step.sibling_on_left {
                node_hash(&step.sibling, &acc)
            } else {
                node_hash(&acc, &step.sibling)
            };
        }
        acc
    }

    /// Verifies the proof of `leaf` (raw bytes, hashed here) against `root`.
    pub fn verify(&self, leaf: &[u8], root: &Digest32) -> bool {
        self.verify_digest(&leaf_hash(leaf), root)
    }

    /// Verifies when the caller already has the leaf digest.
    pub fn verify_digest(&self, leaf_digest: &Digest32, root: &Digest32) -> bool {
        self.compute_root(leaf_digest) == *root
    }

    /// True iff the path has the length and the sides of the RFC 6962 path
    /// for `leaf_index` in a tree of `tree_size` leaves.
    pub fn has_rfc6962_shape(&self) -> bool {
        let shape = split_path(self.leaf_index, self.tree_size);
        self.leaf_index < self.tree_size
            && shape.len() == self.path.len()
            && shape.iter().zip(&self.path).all(|(s, step)| s.0 == step.sibling_on_left)
    }

    /// Serializes the proof.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ccf_kv::codec::Writer::new();
        w.u64(self.leaf_index);
        w.u64(self.tree_size);
        w.u32(self.path.len() as u32);
        for step in &self.path {
            w.bool(step.sibling_on_left);
            w.raw(&step.sibling);
        }
        w.finish()
    }

    /// Decodes [`MerkleProof::encode`].
    pub fn decode(bytes: &[u8]) -> Result<MerkleProof, ccf_kv::codec::CodecError> {
        let mut r = ccf_kv::codec::Reader::new(bytes);
        let leaf_index = r.u64("proof leaf index")?;
        let tree_size = r.u64("proof tree size")?;
        let steps = r.u32("proof path length")?;
        if steps > 64 {
            return Err(ccf_kv::codec::CodecError::BadLength { context: "proof path length" });
        }
        let mut path = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            let sibling_on_left = r.bool("proof step side")?;
            let sibling = r.array::<32>("proof step sibling")?;
            path.push(ProofStep { sibling_on_left, sibling });
        }
        Ok(MerkleProof { leaf_index, tree_size, path })
    }
}

/// Cached observability handles (`ledger.merkle_*`). Clones share the
/// underlying counters, so a cloned tree (snapshots, rollback probes)
/// keeps reporting into the same registry.
#[derive(Clone, Debug)]
struct MerkleMetrics {
    appends: ccf_obs::Counter,
    root_cache_hits: ccf_obs::Counter,
    root_cache_misses: ccf_obs::Counter,
    truncations: ccf_obs::Counter,
}

impl MerkleMetrics {
    fn new(reg: &ccf_obs::Registry) -> MerkleMetrics {
        MerkleMetrics {
            appends: reg.counter("ledger.merkle_appends"),
            root_cache_hits: reg.counter("ledger.merkle_root_cache_hits"),
            root_cache_misses: reg.counter("ledger.merkle_root_cache_misses"),
            truncations: reg.counter("ledger.merkle_truncations"),
        }
    }
}

/// The incremental Merkle tree.
///
/// `levels[k][i]` is the root of the perfect subtree over leaves
/// `[i·2^k, (i+1)·2^k)`: `levels[0]` holds the leaves and `levels[k]` has
/// `len() >> k` entries. Complete subtrees never change.
///
/// The root is cached between appends: the node asks for it far more
/// often than the tree changes. Invariant: `cached_root` is only ever
/// `Some(r)` when `r` is the root over all current leaves; every mutation
/// clears it first, so a stale value can never be observed. `Cell` keeps
/// `root(&self)` a shared-reference call; the tree is only ever used
/// behind a `Mutex` (or single-threaded), so the lost `Sync` does not
/// matter.
#[derive(Clone, Debug, Default)]
pub struct MerkleTree {
    levels: Vec<Vec<Digest32>>,
    cached_root: Cell<Option<Digest32>>,
    metrics: Option<MerkleMetrics>,
}

impl MerkleTree {
    /// An empty tree.
    pub fn new() -> MerkleTree {
        MerkleTree::default()
    }

    /// Attaches observability counters (`ledger.merkle_*`) from `reg`.
    /// Without this the tree records nothing.
    pub fn set_registry(&mut self, reg: &ccf_obs::Registry) {
        self.metrics = Some(MerkleMetrics::new(reg));
    }

    /// Number of leaves.
    pub fn len(&self) -> u64 {
        self.leaves().len() as u64
    }

    /// True iff there are no leaves.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The leaf digests, in order.
    pub fn leaves(&self) -> &[Digest32] {
        self.levels.first().map_or(&[], Vec::as_slice)
    }

    /// Appends a leaf (raw bytes; hashed with the leaf prefix).
    pub fn append(&mut self, leaf: &[u8]) {
        self.append_digest(leaf_hash(leaf));
    }

    /// Appends a precomputed leaf digest.
    pub fn append_digest(&mut self, digest: Digest32) {
        self.append_digests([digest]);
    }

    /// Appends many leaves (raw bytes) in one call. One cache invalidation
    /// for the whole batch; the per-leaf work is just the leaf hash plus
    /// the amortized-O(1) sealing of completed subtrees.
    pub fn append_batch<'a, I>(&mut self, leaves: I)
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        self.append_digests(leaves.into_iter().map(leaf_hash));
    }

    /// Appends many precomputed leaf digests in one call. Each leaf that
    /// completes a pair at a level hashes the pair into the level above,
    /// as far up as pairs complete.
    pub fn append_digests<I>(&mut self, digests: I)
    where
        I: IntoIterator<Item = Digest32>,
    {
        self.cached_root.set(None);
        let before = self.len();
        for digest in digests {
            let mut node = digest;
            for k in 0.. {
                if k == self.levels.len() {
                    self.levels.push(Vec::new());
                }
                let level = &mut self.levels[k];
                level.push(node);
                let n = level.len();
                if n % 2 == 1 {
                    break;
                }
                node = node_hash(&level[n - 2], &level[n - 1]);
            }
        }
        if let Some(m) = &self.metrics {
            m.appends.add(self.len() - before);
        }
    }

    /// The leaf digest at `index`.
    pub fn leaf(&self, index: u64) -> Option<&Digest32> {
        self.leaves().get(index as usize)
    }

    /// The current root. The fold is cached until the next mutation, so
    /// repeated reads within a signature interval are free.
    pub fn root(&self) -> Digest32 {
        if let Some(root) = self.cached_root.get() {
            if let Some(m) = &self.metrics {
                m.root_cache_hits.inc();
            }
            return root;
        }
        if let Some(m) = &self.metrics {
            m.root_cache_misses.inc();
        }
        let root = self.range_root(0, self.len());
        self.cached_root.set(Some(root));
        root
    }

    /// Removes all leaves at index >= `new_len` (consensus rollback). Each
    /// level keeps the complete subtrees below `new_len`.
    pub fn truncate(&mut self, new_len: u64) {
        assert!(new_len <= self.len(), "cannot truncate to a larger size");
        if let Some(m) = &self.metrics {
            m.truncations.inc();
        }
        self.cached_root.set(None);
        for (k, level) in self.levels.iter_mut().enumerate() {
            level.truncate((new_len >> k) as usize);
        }
        self.levels.retain(|level| !level.is_empty());
    }

    /// Generates an inclusion proof for `leaf_index` against the current
    /// tree. O(log n).
    pub fn prove(&self, leaf_index: u64) -> Option<MerkleProof> {
        self.prove_at_size(leaf_index, self.len())
    }

    /// Generates a proof against the tree as it was at `size` leaves —
    /// needed for receipts, which prove inclusion under the root that a
    /// *historical* signature transaction signed, not the current root.
    pub fn prove_at_size(&self, leaf_index: u64, size: u64) -> Option<MerkleProof> {
        if leaf_index >= size || size > self.len() {
            return None;
        }
        let path = split_path(leaf_index, size)
            .into_iter()
            .map(|(sibling_on_left, lo, hi)| ProofStep {
                sibling_on_left,
                sibling: self.range_root(lo, hi),
            })
            .collect();
        Some(MerkleProof { leaf_index, tree_size: size, path })
    }

    /// The root of the prefix of the first `size` leaves (the root a
    /// signature transaction at seqno `size + 1` signed).
    pub fn root_at_size(&self, size: u64) -> Option<Digest32> {
        (size <= self.len()).then(|| self.range_root(0, size))
    }

    /// The RFC 6962 root over leaves `[lo, hi)`, where `lo` is a multiple
    /// of a power of two >= `hi - lo`, as every prefix and every range of
    /// the RFC 6962 split is. The range is one perfect subtree per set bit
    /// `k` of its width, `levels[k][(hi >> k) - 1]`, folded right to left.
    fn range_root(&self, lo: u64, hi: u64) -> Digest32 {
        let mut bits = hi - lo;
        let mut acc: Option<Digest32> = None;
        while bits != 0 {
            let k = bits.trailing_zeros();
            bits &= bits - 1;
            let piece = &self.levels[k as usize][(hi >> k) as usize - 1];
            acc = Some(acc.map_or(*piece, |right| node_hash(piece, &right)));
        }
        acc.unwrap_or_else(empty_root)
    }

    /// Recomputes the root the slow recursive way (test oracle).
    pub fn root_recursive(&self) -> Digest32 {
        reference::subtree_root(self.leaves())
    }

    /// Hashes a raw leaf the way [`MerkleTree::append`] does, for callers
    /// that verify proofs.
    pub fn hash_leaf(leaf: &[u8]) -> Digest32 {
        leaf_hash(leaf)
    }
}

/// The RFC 6962 path for `index` in a tree of `size` leaves, leaf first:
/// each sibling's side and its leaf range `[lo, hi)`.
fn split_path(index: u64, size: u64) -> Vec<(bool, u64, u64)> {
    let (mut lo, mut hi) = (0, size);
    let mut steps = Vec::new();
    while hi - lo > 1 {
        // The largest power of two strictly below the width; no overflow
        // for any width, since the size may come from a received proof.
        let split = lo + (1 << (63 - (hi - lo - 1).leading_zeros()));
        if index < split {
            steps.push((false, split, hi));
            hi = split;
        } else {
            steps.push((true, lo, split));
            lo = split;
        }
    }
    steps.reverse();
    steps
}

/// The seed's recursive construction over the leaf digests, frozen as the
/// oracle for the level store: the equivalence tests and `bench_receipts`
/// check that roots and proofs at every size match it. O(n) per call.
pub mod reference {
    use super::*;

    /// The RFC 6962 root of `leaves`.
    pub fn subtree_root(leaves: &[Digest32]) -> Digest32 {
        match leaves.len() {
            0 => empty_root(),
            1 => leaves[0],
            n => {
                let split = n.next_power_of_two() / 2;
                node_hash(&subtree_root(&leaves[..split]), &subtree_root(&leaves[split..]))
            }
        }
    }

    /// RFC 6962 recursive proof: subtree over `leaves`, target at `index`
    /// within it. Appends the path bottom-up.
    pub fn prove_range(leaves: &[Digest32], index: usize, path: &mut Vec<ProofStep>) {
        if leaves.len() <= 1 {
            return;
        }
        let split = leaves.len().next_power_of_two() / 2;
        if index < split {
            prove_range(&leaves[..split], index, path);
            path.push(ProofStep { sibling_on_left: false, sibling: subtree_root(&leaves[split..]) });
        } else {
            prove_range(&leaves[split..], index - split, path);
            path.push(ProofStep { sibling_on_left: true, sibling: subtree_root(&leaves[..split]) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn incremental_root_matches_recursive_for_all_sizes() {
        let mut tree = MerkleTree::new();
        assert_eq!(tree.root(), empty_root());
        for (i, leaf) in leaves(130).iter().enumerate() {
            tree.append(leaf);
            assert_eq!(tree.root(), tree.root_recursive(), "size {}", i + 1);
        }
    }

    #[test]
    fn proofs_verify_for_every_leaf_and_size() {
        for n in [1u64, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100] {
            let mut tree = MerkleTree::new();
            let ls = leaves(n);
            for leaf in &ls {
                tree.append(leaf);
            }
            let root = tree.root();
            for (i, leaf) in ls.iter().enumerate() {
                let proof = tree.prove(i as u64).unwrap();
                assert!(proof.verify(leaf, &root), "n={n} i={i}");
                assert_eq!(proof.tree_size, n);
                // Wrong leaf fails.
                assert!(!proof.verify(b"other", &root));
            }
        }
    }

    /// The oracle's proof of leaf `index` in the first `size` leaves.
    fn oracle_proof(tree: &MerkleTree, index: u64, size: u64) -> Vec<ProofStep> {
        let mut path = Vec::new();
        reference::prove_range(&tree.leaves()[..size as usize], index as usize, &mut path);
        path
    }

    #[test]
    fn roots_and_proofs_match_the_recursive_oracle_at_every_size() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(100) {
            tree.append(&leaf);
        }
        for size in 0..=100u64 {
            let oracle_root = reference::subtree_root(&tree.leaves()[..size as usize]);
            assert_eq!(tree.root_at_size(size), Some(oracle_root), "size {size}");
            for i in 0..size {
                let proof = tree.prove_at_size(i, size).unwrap();
                assert_eq!(proof.path, oracle_proof(&tree, i, size), "i={i} size={size}");
                assert!(proof.has_rfc6962_shape(), "i={i} size={size}");
            }
        }
        assert_eq!(tree.root_at_size(101), None);
    }

    #[test]
    fn truncate_keeps_every_historical_root_and_proof() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(70) {
            tree.append(&leaf);
        }
        for cut in [0u64, 1, 31, 32, 33, 64, 69] {
            let mut t = tree.clone();
            t.truncate(cut);
            assert_eq!(t.leaves(), &tree.leaves()[..cut as usize]);
            for size in 0..=cut {
                assert_eq!(t.root_at_size(size), tree.root_at_size(size), "cut {cut} size {size}");
                for i in 0..size {
                    assert_eq!(t.prove_at_size(i, size), tree.prove_at_size(i, size));
                }
            }
        }
    }

    #[test]
    fn shape_check_rejects_wrong_length_side_or_position() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(10) {
            tree.append(&leaf);
        }
        let proof = tree.prove(4).unwrap();
        assert!(proof.has_rfc6962_shape());
        let mut p = proof.clone();
        p.path[1].sibling_on_left = !p.path[1].sibling_on_left;
        assert!(!p.has_rfc6962_shape());
        let mut p = proof.clone();
        p.path.pop();
        assert!(!p.has_rfc6962_shape());
        let mut p = proof.clone();
        p.path.push(proof.path[0].clone());
        assert!(!p.has_rfc6962_shape());
        let mut p = proof.clone();
        p.leaf_index = 10;
        assert!(!p.has_rfc6962_shape());
        // Leaf 4 of 10 and leaf 4 of 6 have paths of different lengths.
        let mut p = proof.clone();
        p.tree_size = 6;
        assert!(!p.has_rfc6962_shape());
        // The largest sizes a received proof can claim are walked in at most
        // 64 steps.
        for size in [u64::MAX - 1, u64::MAX] {
            let mut p = proof.clone();
            p.tree_size = size;
            assert!(!p.has_rfc6962_shape());
            assert!(split_path(size - 1, size).len() <= 64);
        }
    }

    #[test]
    fn proof_rejects_wrong_root_and_tamper() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(10) {
            tree.append(&leaf);
        }
        let proof = tree.prove(4).unwrap();
        let root = tree.root();
        assert!(proof.verify(b"leaf-4", &root));
        let mut bad_root = root;
        bad_root[0] ^= 1;
        assert!(!proof.verify(b"leaf-4", &bad_root));
        let mut tampered = proof.clone();
        if let Some(step) = tampered.path.first_mut() {
            step.sibling[0] ^= 1;
        }
        assert!(!tampered.verify(b"leaf-4", &root));
        let mut flipped = proof.clone();
        if let Some(step) = flipped.path.first_mut() {
            step.sibling_on_left = !step.sibling_on_left;
        }
        assert!(!flipped.verify(b"leaf-4", &root));
    }

    #[test]
    fn proof_encoding_roundtrip() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(13) {
            tree.append(&leaf);
        }
        let proof = tree.prove(7).unwrap();
        let decoded = MerkleProof::decode(&proof.encode()).unwrap();
        assert_eq!(proof, decoded);
        assert!(MerkleProof::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn prove_out_of_range() {
        let mut tree = MerkleTree::new();
        tree.append(b"x");
        assert!(tree.prove(1).is_none());
        assert!(MerkleTree::new().prove(0).is_none());
    }

    #[test]
    fn truncate_restores_earlier_root() {
        let mut tree = MerkleTree::new();
        let mut roots = vec![tree.root()];
        for leaf in leaves(50) {
            tree.append(&leaf);
            roots.push(tree.root());
        }
        for n in (0..=50u64).rev() {
            let mut t = tree.clone();
            t.truncate(n);
            assert_eq!(t.root(), roots[n as usize], "truncate to {n}");
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn domain_separation() {
        // A leaf equal to the concatenation of two digests must not produce
        // the same root as the two-leaf tree (second-preimage defence).
        let mut two = MerkleTree::new();
        two.append(b"a");
        two.append(b"b");
        let concat = {
            let mut v = Vec::new();
            v.extend_from_slice(&MerkleTree::hash_leaf(b"a"));
            v.extend_from_slice(&MerkleTree::hash_leaf(b"b"));
            v
        };
        let mut one = MerkleTree::new();
        one.append(&concat);
        assert_ne!(two.root(), one.root());
    }

    #[test]
    fn historical_proofs_at_size() {
        let mut tree = MerkleTree::new();
        let ls = leaves(30);
        let mut roots = Vec::new();
        for leaf in &ls {
            tree.append(leaf);
            roots.push(tree.root());
        }
        // For each historical size, proofs verify against that era's root.
        for size in 1..=30u64 {
            assert_eq!(tree.root_at_size(size).unwrap(), roots[size as usize - 1]);
            for i in (0..size).step_by(7) {
                let proof = tree.prove_at_size(i, size).unwrap();
                assert!(proof.verify(&ls[i as usize], &roots[size as usize - 1]), "i={i} size={size}");
                // …and (generally) not against other roots.
                if size >= 2 && i + 1 < size {
                    assert!(!proof.verify(&ls[i as usize], &roots[(size - 2) as usize]));
                }
            }
        }
        assert!(tree.prove_at_size(5, 31).is_none());
        assert!(tree.prove_at_size(10, 10).is_none());
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        for n in [0u64, 1, 2, 3, 7, 8, 33, 100] {
            let ls = leaves(n);
            let mut one_by_one = MerkleTree::new();
            for leaf in &ls {
                one_by_one.append(leaf);
            }
            let mut batched = MerkleTree::new();
            batched.append_batch(ls.iter().map(|l| l.as_slice()));
            assert_eq!(batched.root(), one_by_one.root(), "n={n}");
            assert_eq!(batched.len(), one_by_one.len());
            // Split batches agree too.
            let mut split = MerkleTree::new();
            let mid = ls.len() / 2;
            split.append_batch(ls[..mid].iter().map(|l| l.as_slice()));
            split.append_batch(ls[mid..].iter().map(|l| l.as_slice()));
            assert_eq!(split.root(), one_by_one.root(), "split n={n}");
        }
    }

    #[test]
    fn append_digests_matches_append_digest() {
        let digests: Vec<Digest32> = (0..20u8).map(|i| ccf_crypto::sha2::sha256(&[i])).collect();
        let mut one_by_one = MerkleTree::new();
        for d in &digests {
            one_by_one.append_digest(*d);
        }
        let mut batched = MerkleTree::new();
        batched.append_digests(digests.iter().copied());
        assert_eq!(batched.root(), one_by_one.root());
    }

    #[test]
    fn cached_root_tracks_every_mutation() {
        let mut tree = MerkleTree::new();
        assert_eq!(tree.root(), empty_root());
        for (i, leaf) in leaves(40).iter().enumerate() {
            tree.append(leaf);
            // First read populates the cache, second read must agree with
            // the slow recursive oracle.
            let first = tree.root();
            assert_eq!(first, tree.root());
            assert_eq!(first, tree.root_recursive(), "size {}", i + 1);
        }
        // Truncation invalidates; a clone carries a still-correct cache.
        let snapshot = tree.clone();
        tree.truncate(17);
        assert_eq!(tree.root(), tree.root_recursive());
        assert_eq!(snapshot.root(), snapshot.root_recursive());
        tree.append_batch([b"x".as_slice(), b"y".as_slice()]);
        assert_eq!(tree.root(), tree.root_recursive());
    }

    #[test]
    fn metrics_count_appends_hits_misses_truncations() {
        let reg = ccf_obs::Registry::new();
        let mut tree = MerkleTree::new();
        tree.set_registry(&reg);
        tree.append(b"a");
        tree.append_batch([b"b".as_slice(), b"c".as_slice()]);
        let _ = tree.root(); // miss (mutated since construction)
        let _ = tree.root(); // hit
        tree.truncate(1);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["ledger.merkle_appends"], 3);
        assert_eq!(snap.counters["ledger.merkle_root_cache_misses"], 1);
        assert_eq!(snap.counters["ledger.merkle_root_cache_hits"], 1);
        assert_eq!(snap.counters["ledger.merkle_truncations"], 1);
    }

    #[test]
    fn append_after_truncate() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(20) {
            tree.append(&leaf);
        }
        let mut other = MerkleTree::new();
        for leaf in leaves(10) {
            other.append(&leaf);
        }
        tree.truncate(10);
        // Divergent suffix replaced: both trees must now evolve identically.
        tree.append(b"new");
        other.append(b"new");
        assert_eq!(tree.root(), other.root());
        assert_eq!(tree.len(), other.len());
    }
}
