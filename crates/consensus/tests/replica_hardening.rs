//! Pinned regression tests for the fault-path bugs the chaos harness
//! flushed out of `Replica`. Each test drives a single replica with
//! hand-crafted messages — no network, no timing — so the exact buggy
//! branch is hit deterministically, in release builds as well as debug
//! (two of the original bugs were `debug_assert!`s that vanished under
//! `--release` and silently corrupted state).

use ccf_consensus::harness::user_entry;
use ccf_consensus::message::ReplicatedEntry;
use ccf_consensus::replica::{Replica, ReplicaConfig, Role};
use ccf_consensus::{
    AppendEntries, AppendEntriesResponse, Config, Event, Message, RequestVoteResponse,
};
use ccf_crypto::SigningKey;
use ccf_ledger::{signature_entry, verify_signature, SignaturePayload, TxId};

fn key(id: &str) -> SigningKey {
    let mut seed = [7u8; 32];
    seed[..id.len().min(32)].copy_from_slice(&id.as_bytes()[..id.len().min(32)]);
    SigningKey::from_seed(seed)
}

fn replica(id: &str, config: &[&str]) -> Replica {
    let config: Config = config.iter().map(|s| s.to_string()).collect();
    Replica::new(id, config, ReplicaConfig::default(), 1, key(id))
}

fn sig_entry(author: &str, txid: TxId) -> ReplicatedEntry {
    ReplicatedEntry {
        entry: signature_entry(author, &key(author), txid, [0u8; 32]),
        config: None,
        trace: ccf_obs::TraceId::NONE,
    }
}

/// Sends `m` as an AppendEntries from `from` and returns the responses
/// produced (ignoring any other outbound traffic).
fn deliver(
    r: &mut Replica,
    from: &str,
    m: AppendEntries,
) -> Vec<AppendEntriesResponse> {
    r.receive(&from.to_string(), Message::AppendEntries(m));
    r.drain_outbox()
        .into_iter()
        .filter_map(|(_, msg)| match msg {
            Message::AppendEntriesResponse(resp) => Some(resp),
            _ => None,
        })
        .collect()
}

/// Replicates a two-entry prefix (user tx then signature) from primary
/// `p` and commits it, returning the backup.
fn backup_with_committed_prefix() -> Replica {
    let mut b = replica("b", &["p", "b", "c"]);
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::ZERO,
            entries: vec![
                user_entry(TxId::new(1, 1), b"committed-payload"),
                sig_entry("p", TxId::new(1, 2)),
            ],
            commit_seqno: 2,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success));
    assert_eq!(b.commit_seqno(), 2);
    b.drain_events();
    b
}

/// Bug 1 (was `debug_assert!` in `truncate_to`): an AppendEntries whose
/// entries conflict with the *committed* prefix must be refused. The old
/// guard compiled away under `--release`, so a Byzantine or corrupted
/// primary could roll a backup back past its commit point — breaking the
/// durability promise of §4.1. This test runs in release CI precisely to
/// exercise the path where the debug_assert used to vanish.
#[test]
fn conflicting_entries_below_commit_are_refused() {
    let mut b = backup_with_committed_prefix();
    let committed_txid = b.entry_at(1).unwrap().entry.txid;

    // "q" claims a newer view and rewrites history from seqno 1.
    let resps = deliver(
        &mut b,
        "q",
        AppendEntries {
            view: 2,
            leader: "q".to_string(),
            prev: TxId::ZERO,
            entries: vec![user_entry(TxId::new(2, 1), b"rewritten-history")],
            commit_seqno: 0,
        },
    );

    // Refused: negative reply pointing at our commit point, committed
    // entry untouched, and the violation is surfaced as an event.
    let resp = resps.last().expect("a reply must be sent");
    assert!(!resp.success);
    assert_eq!(resp.last_seqno, 2);
    assert_eq!(b.commit_seqno(), 2);
    assert_eq!(b.entry_at(1).unwrap().entry.txid, committed_txid);
    assert!(
        b.drain_events()
            .iter()
            .any(|e| matches!(e, Event::InvariantRejected { .. })),
        "rollback-past-commit attempt must emit InvariantRejected"
    );
}

/// Same bug, via the `truncate_to` path: the conflict sits *above* the
/// commit point but truncating to `s - 1` would cut below it. With the
/// committed prefix at 2, a conflict at seqno 3 truncates to 2 — legal —
/// but a batch conflicting at exactly commit+1 with `prev` below commit
/// would ask to truncate to the commit point, which must succeed, while
/// anything lower is refused inside `truncate_to` itself.
#[test]
fn truncate_never_crosses_commit_point() {
    let mut b = backup_with_committed_prefix();
    // Extend with an uncommitted entry at 3.
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![user_entry(TxId::new(1, 3), b"uncommitted")],
            commit_seqno: 2,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success));
    b.drain_events();

    // A new honest primary in view 2 replaces the uncommitted suffix.
    let resps = deliver(
        &mut b,
        "c",
        AppendEntries {
            view: 2,
            leader: "c".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![user_entry(TxId::new(2, 3), b"replacement")],
            commit_seqno: 2,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success), "truncating at commit is legal");
    assert_eq!(b.entry_at(3).unwrap().entry.txid, TxId::new(2, 3));
    assert_eq!(b.commit_seqno(), 2);
    assert!(
        !b.drain_events().iter().any(|e| matches!(e, Event::InvariantRejected { .. })),
        "honest suffix replacement must not be flagged"
    );
}

/// Bug 2 (was `debug_assert_eq!(s, last_seqno + 1)`): a batch whose
/// `prev` matches but whose entries skip ahead of the local log must be
/// rejected with a retransmission hint. In release the assert vanished
/// and the replica appended entries with holes below them, producing a
/// ledger whose Merkle tree no longer matched its seqnos.
#[test]
fn gapped_batch_is_rejected_with_retransmission_hint() {
    let mut b = backup_with_committed_prefix();

    // prev = (1,2) matches our tip, but the batch starts at seqno 4.
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![user_entry(TxId::new(1, 4), b"gapped")],
            commit_seqno: 2,
        },
    );

    let resp = resps.last().expect("a reply must be sent");
    assert!(!resp.success, "gapped batch must not be acked");
    assert_eq!(resp.last_seqno, 2, "hint must point at our last seqno");
    assert_eq!(b.last_seqno(), 2, "nothing may be appended");
    assert!(b.entry_at(4).is_none());
}

/// Drives `p` to primary of a {p, b} configuration by feeding it the
/// peer's vote, then builds a log of `n` user entries plus a closing
/// signature. Returns the replica with its outbox drained.
fn primary_with_log(n: u64) -> Replica {
    let mut p = replica("p", &["p", "b"]);
    p.tick(10_000); // well past any election timeout draw
    assert_eq!(p.role(), Role::Candidate);
    let view = p.view();
    p.receive(
        &"b".to_string(),
        Message::RequestVoteResponse(RequestVoteResponse { view, from: "b".to_string(), granted: true }),
    );
    assert_eq!(p.role(), Role::Primary);
    for i in 0..n {
        p.propose(|txid| user_entry(txid, format!("entry-{i}").as_bytes())).unwrap();
    }
    p.emit_signature();
    p.drain_outbox();
    p.drain_events();
    p
}

#[test]
fn primary_signs_with_its_node_key() {
    let p = primary_with_log(5);
    let mut signed = 0;
    for seqno in 1..=p.last_seqno() {
        let entry = &p.entry_at(seqno).unwrap().entry;
        if !entry.is_signature() {
            continue;
        }
        let payload = SignaturePayload::from_entry(entry).expect("signature entry parses");
        assert_eq!(payload.node_id, "p");
        assert_eq!(payload.node_public, key("p").verifying_key());
        assert_eq!(Some(payload.root), p.merkle_root_at(seqno - 1), "signs the prefix before it");
        verify_signature(&key("p").verifying_key(), &payload.root, entry.txid, &payload.signature)
            .expect("verifies under the node key");
        signed += 1;
    }
    assert!(signed >= 1);
    assert!(p.entry_at(p.last_seqno()).unwrap().entry.is_signature());
}

/// Feeds `p` a negative ack from "b" hinting `hint`, and returns the
/// `prev.seqno` values of the AppendEntries it sends back — one element
/// per round trip simulated, stopping when the probe reaches `hint` or
/// after `cap` trips.
fn probe_seqnos(p: &mut Replica, hint: u64, cap: usize) -> Vec<u64> {
    let mut probes = Vec::new();
    for _ in 0..cap {
        let view = p.view();
        p.receive(
            &"b".to_string(),
            Message::AppendEntriesResponse(AppendEntriesResponse {
                view,
                from: "b".to_string(),
                success: false,
                last_seqno: hint,
            }),
        );
        let probe = p
            .drain_outbox()
            .into_iter()
            .rev()
            .find_map(|(to, msg)| match msg {
                Message::AppendEntries(ae) if to == "b" => Some(ae.prev.seqno),
                _ => None,
            })
            .expect("negative ack must trigger an immediate retransmission");
        probes.push(probe);
        if probe == hint {
            break;
        }
    }
    probes
}

/// Bug 3: on a negative ack the primary decremented its probe by one per
/// round trip instead of jumping to the peer's hint, so catching up a
/// follower cost O(divergence) round trips — and when the hint was
/// *ahead* of the probe (a freshly snapshot-restored follower reporting
/// its base), the clamp to `current - 1` moved away from it and the pair
/// livelocked. The fix jumps straight to `hint + 1`; this test counts
/// round trips in both directions.
#[test]
fn negative_ack_backoff_reaches_hint_in_one_round_trip() {
    let mut p = primary_with_log(60);
    let last = p.last_seqno();
    assert!(last > 50);

    // Forward jump: probe starts at 0 (nothing acked yet), follower
    // reports a base far ahead. One round trip, not a livelock.
    let forward = probe_seqnos(&mut p, 40, 50);
    assert_eq!(forward, vec![40], "expected one round trip, got probes {forward:?}");

    // Backward jump: first ack the full log, then have the follower
    // reject with a low hint (conflicting-suffix truncation). Again one
    // round trip, not O(divergence).
    let view = p.view();
    p.receive(
        &"b".to_string(),
        Message::AppendEntriesResponse(AppendEntriesResponse {
            view,
            from: "b".to_string(),
            success: true,
            last_seqno: last,
        }),
    );
    p.drain_outbox();
    let backward = probe_seqnos(&mut p, 5, 50);
    assert_eq!(backward, vec![5], "expected one round trip, got probes {backward:?}");
}
