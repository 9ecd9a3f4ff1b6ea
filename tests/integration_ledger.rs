//! The node's ledger store and apply path (paper §3.2): each node keeps
//! one copy of every entry (the replica log), the host persists it as
//! chunks cut at signature transactions, and each private write set is
//! decrypted at most once per node — the primary applies the write set
//! it executed, a backup opens each entry once.

use ccf_core::app::{AppResult, Application, Caller, EndpointDef, Request};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_ledger::entry::EntryKind;
use ccf_ledger::files::{read_chunks, LedgerChunk};
use std::collections::BTreeSet;
use std::sync::Arc;

fn logging_app() -> Application {
    Application::new("ledger test app v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(vec![])
        }))
        .endpoint(EndpointDef::write("POST", "/log_public", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_public("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(vec![])
        }))
}

fn start_open(seed: u64, nodes: usize) -> ServiceCluster {
    let mut service = ServiceCluster::start(
        ServiceOpts {
            nodes,
            members: 3,
            seed,
            ..ServiceOpts::default()
        },
        Arc::new(logging_app()),
    );
    service.open_service();
    service
}

fn write(service: &mut ServiceCluster, path: &str, body: &str) -> TxId {
    let resp = service.user_request(0, "POST", path, body.as_bytes());
    assert_eq!(resp.status, 200, "{}", resp.text());
    resp.txid.unwrap()
}

/// Runs until every live node has applied and committed the same prefix.
fn settle(service: &mut ServiceCluster) {
    assert!(
        service.run_until(10_000, |c| {
            let live = c.live_nodes();
            let first = &c.nodes[live[0]];
            live.iter().all(|id| {
                let node = &c.nodes[*id];
                node.commit_seqno() == first.commit_seqno()
                    && node.last_applied() == first.last_applied()
                    && node.commit_seqno() == node.last_applied().seqno
            })
        }),
        "nodes never agreed on a common commit"
    );
}

/// Checks that `node`'s persisted chunks are its replica log cut at
/// signatures: every chunk ends with a signature, the entries match the
/// log entry for entry, and only the unsigned suffix is missing.
fn assert_chunks_match_log(node: &ccf_core::node::CcfNode) -> Vec<ccf_ledger::LedgerEntry> {
    let blobs = node.persisted_ledger();
    for blob in &blobs {
        assert!(LedgerChunk::decode(blob).unwrap().is_complete());
    }
    let mut entries = Vec::new();
    for blob in &blobs {
        entries.extend(LedgerChunk::decode(blob).unwrap().entries);
    }
    for e in &entries {
        assert_eq!(
            node.entry_info(e.txid.seqno),
            Some((e.txid, e.digest(), e.kind))
        );
    }
    let last_persisted = entries.last().map_or(0, |e| e.txid.seqno);
    for s in last_persisted + 1..=node.last_applied().seqno {
        let (_, _, kind) = node.entry_info(s).unwrap();
        assert_ne!(
            kind,
            EntryKind::Signature,
            "a signed entry {s} is missing from the chunks"
        );
    }
    entries
}

#[test]
fn primary_never_decrypts_and_each_backup_decrypts_once() {
    for (nodes, opens_per_seal) in [(1, 0), (3, 2)] {
        let mut service = start_open(40 + nodes as u64, nodes);
        let mut last = TxId::ZERO;
        for i in 0..20 {
            last = write(&mut service, "/log", &format!("{i}=private message {i}"));
        }
        service.run_until_committed(last);
        let counter = |name: &'static str| service.obs().counter(name).get();
        let sealed = counter("crypto.gcm_sealed_bytes");
        assert!(sealed > 0);
        assert_eq!(
            counter("crypto.gcm_opened_bytes"),
            sealed * opens_per_seal,
            "{nodes} node(s): opened bytes per sealed byte"
        );
    }
}

#[test]
fn primary_and_backups_hold_identical_state_at_the_common_commit() {
    let mut service = start_open(41, 3);
    write(&mut service, "/log", "1=private before");
    write(&mut service, "/log_public", "2=public before");
    let state = service.propose_and_accept(Proposal::single("trigger_ledger_rekey", Value::Null));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(500);
    let state = service.propose_and_accept(Proposal::single(
        "set_js_app",
        Value::obj([(
            "app".to_string(),
            Value::str(ccf_core::app::logging_script_app()),
        )]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(300);
    write(&mut service, "/log", "3=private after");
    let last = write(&mut service, "/log_public", "4=public after");
    service.run_until_committed(last);
    settle(&mut service);

    let snapshots: Vec<_> = service
        .nodes
        .values()
        .map(|node| node.latest_snapshot().unwrap())
        .collect();
    for s in &snapshots[1..] {
        assert_eq!(s.last_txid, snapshots[0].last_txid);
        assert!(
            s.kv_state == snapshots[0].kv_state,
            "store states differ at {}",
            s.last_txid
        );
    }
    for node in service.nodes.values() {
        let commit = node.commit_seqno();
        assert_eq!(
            node.historical_writes(1, commit).unwrap().len() as u64,
            commit
        );
    }
}

#[test]
fn chunks_close_at_signatures_and_the_unsigned_suffix_is_not_persisted() {
    let mut service = start_open(42, 1);
    let node = service.nodes["n0"].clone();
    let unsigned = write(&mut service, "/log", "1=not yet signed");
    let persisted = assert_chunks_match_log(&node);
    assert!(persisted.last().unwrap().txid.seqno < unsigned.seqno);
    service.run_until_committed(unsigned);
    let persisted = assert_chunks_match_log(&node);
    assert!(persisted.iter().any(|e| e.txid == unsigned));
    assert_eq!(read_chunks(&node.persisted_ledger()).unwrap(), persisted);
}

#[test]
fn node_started_from_a_snapshot_chunks_its_log_from_the_base() {
    let mut service = start_open(43, 3);
    let mut last = TxId::ZERO;
    for i in 0..30 {
        last = write(&mut service, "/log", &format!("{i}=before the snapshot"));
    }
    service.run_until_committed(last);
    let primary = service.primary().unwrap();
    let base = service.nodes[&primary]
        .latest_snapshot()
        .unwrap()
        .last_txid
        .seqno;
    let id = service.join_and_trust("n3", Some(&primary));
    let last = write(&mut service, "/log", "after=the snapshot");
    service.run_until_committed(last);
    settle(&mut service);

    // Appends after the install start at the base + 1 and apply in order.
    let node = service.nodes[&id].clone();
    assert_eq!(node.entry_info(base), None);
    assert!(node.entry_info(base + 1).is_some());
    let first = LedgerChunk::decode(&node.persisted_ledger()[0]).unwrap();
    assert_eq!(first.first_seqno, base + 1);
    assert_chunks_match_log(&node);
    assert_eq!(
        node.latest_snapshot().unwrap().kv_state,
        service.nodes[&primary].latest_snapshot().unwrap().kv_state
    );
}

#[test]
fn view_change_discards_a_closed_chunk_and_the_chunks_follow_the_log() {
    let mut service = start_open(44, 3);
    let kept = write(&mut service, "/log", "1=committed");
    service.run_until_committed(kept);
    let old = service.primary().unwrap();
    let node = service.nodes[&old].clone();
    let others: BTreeSet<NodeId> = service
        .nodes
        .keys()
        .filter(|id| **id != old)
        .cloned()
        .collect();
    service
        .net
        .partition(vec![BTreeSet::from([old.clone()]), others.clone()]);

    // The isolated primary executes and signs a write no one else sees:
    // a closed chunk that only its disk holds.
    let resp = node.handle_request(&Request::new(
        "POST",
        "/log",
        Caller::User("user0".to_string()),
        b"2=lost in the partition",
    ));
    assert_eq!(resp.status, 200, "{}", resp.text());
    let lost = resp.txid.unwrap();
    service.run_for(50);
    assert!(assert_chunks_match_log(&node)
        .iter()
        .any(|e| e.txid == lost));

    // The majority elects a new primary and commits past the lost entry.
    assert!(service.run_until(5_000, |c| !c.nodes[&old].is_primary()
        && others.iter().any(|id| c.nodes[id].is_primary())));
    let new_primary = others
        .iter()
        .find(|id| service.nodes[*id].is_primary())
        .unwrap();
    let idx = service
        .nodes
        .keys()
        .position(|id| id == new_primary)
        .unwrap();
    let resp = service.user_request(idx, "POST", "/log", b"3=after the view change");
    assert_eq!(resp.status, 200, "{}", resp.text());
    service.net.heal();
    service.run_until_committed(resp.txid.unwrap());
    settle(&mut service);

    assert_eq!(node.tx_status(lost), TxStatus::Invalid);
    let persisted = assert_chunks_match_log(&node);
    assert!(!persisted.iter().any(|e| e.txid == lost));
    assert_eq!(read_chunks(&node.persisted_ledger()).unwrap(), persisted);
    assert_eq!(
        node.latest_snapshot().unwrap().kv_state,
        service.nodes[new_primary]
            .latest_snapshot()
            .unwrap()
            .kv_state
    );
}
