//! Receipt proof cost vs ledger size: `MerkleTree::prove_at_size` plus
//! `root_at_size` (the Merkle work behind one receipt) on the level store,
//! against the frozen recursive oracle `merkle::reference`, at 1 k / 10 k /
//! 100 k / 1 M leaves. The oracle is O(n) per call, so it is timed up to
//! 100 k leaves only.
//!
//! Run with: `cargo run --release -p ccf-bench --bin bench_receipts`
//!
//! Emits a single-line JSON object to stdout and to `BENCH_receipts.json`
//! in the current directory. `CCF_BENCH_SAMPLES` overrides the per-metric
//! sample count (default 15). With `--smoke` the run first asserts fast ==
//! oracle on seeded random (index, size) pairs, before and after a
//! truncate, then times 1 k and 10 k leaves with few samples and prints
//! the JSON without writing the file.

use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::sha2::sha256;
use ccf_ledger::merkle::{reference, MerkleTree};
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per call over `samples` timed samples, each one
/// pass over `pairs` (after one warm-up pass).
fn median_ns_per_call(samples: usize, pairs: &[(u64, u64)], mut f: impl FnMut(u64, u64)) -> f64 {
    let mut pass = || {
        let start = Instant::now();
        for &(index, size) in pairs {
            f(index, size);
        }
        start.elapsed().as_nanos() as f64 / pairs.len() as f64
    };
    pass();
    let mut per_call: Vec<f64> = (0..samples).map(|_| pass()).collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_call[per_call.len() / 2]
}

/// A tree over `n` leaves whose digests are SHA-256 of the index.
fn tree_of(n: u64) -> MerkleTree {
    let mut tree = MerkleTree::new();
    tree.append_digests((0..n).map(|i| sha256(&i.to_le_bytes())));
    tree
}

/// `count` (index, size) pairs with `1 <= size <= n` and `index < size`.
fn random_pairs(rng: &mut ChaChaRng, n: u64, count: usize) -> Vec<(u64, u64)> {
    (0..count)
        .map(|_| {
            let size = 1 + rng.gen_range(n);
            (rng.gen_range(size), size)
        })
        .collect()
}

/// Asserts that `tree`'s proof and root at each pair equal the oracle's.
fn assert_matches_oracle(tree: &MerkleTree, pairs: &[(u64, u64)]) {
    for &(index, size) in pairs {
        let leaves = &tree.leaves()[..size as usize];
        let mut path = Vec::new();
        reference::prove_range(leaves, index as usize, &mut path);
        let proof = tree.prove_at_size(index, size).expect("pair in range");
        assert_eq!(
            proof.path, path,
            "proof mismatch at index {index} size {size}"
        );
        assert_eq!(
            tree.root_at_size(size),
            Some(reference::subtree_root(leaves)),
            "root mismatch at size {size}"
        );
    }
}

/// `--smoke` gate: fast == oracle on seeded random pairs, on a grown tree
/// and on the same tree truncated and grown again.
fn smoke_check(rng: &mut ChaChaRng) {
    for n in [1u64, 2, 3, 255, 256, 257, 1000, 4097] {
        let mut tree = tree_of(n);
        assert_matches_oracle(&tree, &random_pairs(rng, n, 200));
        let cut = 1 + rng.gen_range(n);
        tree.truncate(cut);
        assert_matches_oracle(&tree, &random_pairs(rng, cut, 200));
        tree.append_digests((0..n / 2).map(|i| sha256(&(i + 1_000_000).to_le_bytes())));
        assert_matches_oracle(&tree, &random_pairs(rng, tree.len(), 200));
    }
    eprintln!("smoke: fast == oracle on seeded random (index, size) pairs");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rng = ChaChaRng::seed_from_u64(0x7ec3_1975);
    if smoke {
        smoke_check(&mut rng);
    }
    let samples: usize = std::env::var("CCF_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 3 } else { 15 });
    let sizes: &[(&str, u64)] = if smoke {
        &[("1k", 1_000), ("10k", 10_000)]
    } else {
        &[
            ("1k", 1_000),
            ("10k", 10_000),
            ("100k", 100_000),
            ("1M", 1_000_000),
        ]
    };
    let mut fields: Vec<(String, f64)> = Vec::new();
    for &(label, n) in sizes {
        let tree = tree_of(n);
        let pairs = random_pairs(&mut rng, n, 256);
        let fast = median_ns_per_call(samples, &pairs, |index, size| {
            black_box(tree.prove_at_size(index, size));
            black_box(tree.root_at_size(size));
        });
        fields.push((format!("receipt_proof_{label}_fast_ns"), fast));
        if n <= 100_000 {
            // The oracle is O(n): time it over a few pairs only.
            let few = &pairs[..(100_000 / n).clamp(4, 256) as usize];
            let oracle = median_ns_per_call(samples, few, |index, size| {
                let leaves = &tree.leaves()[..size as usize];
                let mut path = Vec::new();
                reference::prove_range(leaves, index as usize, &mut path);
                black_box(path);
                black_box(reference::subtree_root(leaves));
            });
            fields.push((format!("receipt_proof_{label}_reference_ns"), oracle));
            fields.push((format!("receipt_proof_{label}_speedup"), oracle / fast));
        }
    }
    let json = format!(
        "{{{}}}",
        fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.1}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{json}");
    if !smoke {
        std::fs::write("BENCH_receipts.json", format!("{json}\n"))
            .expect("write BENCH_receipts.json");
        eprintln!("wrote BENCH_receipts.json");
    }
}
