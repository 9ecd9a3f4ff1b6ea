//! Property-based tests over the ledger: Merkle proofs at arbitrary
//! sizes/indices, entry and receipt codec roundtrips, encryption binding.

use ccf_ledger::entry::{EntryKind, LedgerEntry};
use ccf_ledger::merkle::{reference, MerkleTree};
use ccf_ledger::secrets::LedgerSecrets;
use ccf_ledger::TxId;
use proptest::prelude::*;

/// Asserts that the tree's root and proofs at `size` equal the recursive
/// oracle's, for the leaves at `indices`.
fn assert_matches_oracle(
    tree: &MerkleTree,
    size: u64,
    indices: impl IntoIterator<Item = u64>,
) -> Result<(), TestCaseError> {
    let leaves = &tree.leaves()[..size as usize];
    prop_assert_eq!(tree.root_at_size(size), Some(reference::subtree_root(leaves)));
    for idx in indices {
        let mut path = Vec::new();
        reference::prove_range(leaves, idx as usize, &mut path);
        prop_assert_eq!(tree.prove_at_size(idx, size).map(|p| p.path), Some(path));
    }
    Ok(())
}

/// Asserts that two trees give the same root and proofs at every size.
fn assert_same_history(a: &MerkleTree, b: &MerkleTree) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for size in 0..=a.len() {
        prop_assert_eq!(a.root_at_size(size), b.root_at_size(size));
        for idx in 0..size {
            prop_assert_eq!(a.prove_at_size(idx, size), b.prove_at_size(idx, size));
        }
    }
    Ok(())
}

/// A tree size: anywhere below 600, or next to a power of two (2^k - 1,
/// 2^k, 2^k + 1), where the levels change shape.
fn tree_size() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..600, (1u32..10, 0u64..3).prop_map(|(k, d)| (1u64 << k) + d - 1)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merkle_proofs_verify_at_any_size_and_index(
        n in tree_size(),
        idx_seed in any::<u64>(),
    ) {
        let mut tree = MerkleTree::new();
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("leaf{i}").into_bytes()).collect();
        for leaf in &leaves {
            tree.append(leaf);
        }
        let idx = idx_seed % n;
        let root = tree.root();
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&leaves[idx as usize], &root));
        // Wrong leaf fails.
        prop_assert!(!proof.verify(b"not the leaf", &root));
        // Historical proof at any prefix containing the leaf.
        let size = idx + 1 + (idx_seed / 7) % (n - idx);
        let hist_root = tree.root_at_size(size).unwrap();
        let hist = tree.prove_at_size(idx, size).unwrap();
        prop_assert!(hist.verify(&leaves[idx as usize], &hist_root));
        // Both equal the recursive oracle's, now and at the drawn size.
        assert_matches_oracle(&tree, n, [idx])?;
        assert_matches_oracle(&tree, size, [idx])?;
    }

    #[test]
    fn merkle_truncate_then_rebuild_matches_fresh(
        n in 1u64..100,
        cut_seed in any::<u64>(),
    ) {
        let mut tree = MerkleTree::new();
        for i in 0..n {
            tree.append(&i.to_le_bytes());
        }
        let cut = cut_seed % (n + 1);
        tree.truncate(cut);
        let mut fresh = MerkleTree::new();
        for i in 0..cut {
            fresh.append(&i.to_le_bytes());
        }
        prop_assert_eq!(tree.root(), fresh.root());
        // Every historical root and proof survives the truncate, and
        // re-appending keeps them in lockstep.
        assert_same_history(&tree, &fresh)?;
        tree.append(b"next");
        fresh.append(b"next");
        prop_assert_eq!(tree.root(), fresh.root());
        assert_same_history(&tree, &fresh)?;
        assert_matches_oracle(&tree, tree.len(), 0..tree.len())?;
    }

    #[test]
    fn merkle_tree_rebuilt_from_leaf_digests_matches(
        n in tree_size(),
        seed in any::<u64>(),
    ) {
        // The snapshot-install path: a fresh tree fed the leaf digests one
        // by one through `append_digest`.
        let mut tree = MerkleTree::new();
        for i in 0..n {
            tree.append(&i.to_le_bytes());
        }
        let mut rebuilt = MerkleTree::new();
        for leaf in tree.leaves() {
            rebuilt.append_digest(*leaf);
        }
        prop_assert_eq!(rebuilt.root(), tree.root());
        let size = 1 + seed % n;
        let idx = (seed / 7) % size;
        prop_assert_eq!(rebuilt.prove_at_size(idx, size), tree.prove_at_size(idx, size));
        assert_matches_oracle(&rebuilt, size, [idx])?;
    }

    #[test]
    fn entry_roundtrip(
        view in 1u64..100,
        seqno in 1u64..100_000,
        public in proptest::collection::vec(any::<u8>(), 0..64),
        private in proptest::collection::vec(any::<u8>(), 0..64),
        claims in any::<[u8; 32]>(),
        kind_pick in 0u8..3,
    ) {
        let kind = match kind_pick {
            0 => EntryKind::User,
            1 => EntryKind::Signature,
            _ => EntryKind::Reconfiguration,
        };
        let e = LedgerEntry {
            txid: TxId::new(view, seqno),
            kind,
            public_ws: public,
            private_ws_enc: private,
            claims_digest: claims,
        };
        let decoded = LedgerEntry::decode(&e.encode()).unwrap();
        prop_assert_eq!(&decoded, &e);
        prop_assert_eq!(decoded.leaf_bytes(), e.leaf_bytes());
    }

    #[test]
    fn entry_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = LedgerEntry::decode(&bytes);
    }

    #[test]
    fn ledger_encryption_binds_context(
        key in any::<[u8; 32]>(),
        view in 1u64..50,
        seqno in 1u64..1000,
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        pd in any::<[u8; 32]>(),
    ) {
        let secrets = LedgerSecrets::new(key);
        let txid = TxId::new(view, seqno);
        let ct = secrets.encrypt(txid, &pd, &payload);
        prop_assert_eq!(secrets.decrypt(txid, &pd, &ct).unwrap(), payload.clone());
        // Moving the ciphertext to any other transaction fails.
        prop_assert!(secrets.decrypt(TxId::new(view, seqno + 1), &pd, &ct).is_err());
        prop_assert!(secrets.decrypt(TxId::new(view + 1, seqno), &pd, &ct).is_err());
        // Ciphertext never contains the plaintext (spot containment check).
        if payload.len() >= 8 {
            let window = &payload[..8];
            prop_assert!(!ct.windows(8).any(|w| w == window));
        }
    }
}
