//! Node-level request tracing (DESIGN.md §12): the per-request stage
//! spans and latency histograms the node records beside consensus.

use ccf_consensus::TxStatus;
use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_governance::SignedRequest;
use std::sync::Arc;

fn app() -> Application {
    Application::new("tracing v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(b"stored".to_vec())
        }))
        .endpoint(EndpointDef::read("GET", "/log", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("msgs", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("no such message"),
            }
        }))
}

fn commit_latency_count(service: &ServiceCluster) -> u64 {
    let snap = service.obs().snapshot();
    snap.histograms.get("node.commit_latency_ms").map_or(0, |h| h.count)
}

/// On one node with a signature after every entry, a write commits inside
/// the call that proposes it. Its request → commit latency must be
/// observed by then, not at the next commit.
#[test]
fn one_node_commit_latency_is_observed_when_the_write_commits() {
    let mut opts = ServiceOpts { nodes: 1, members: 1, ..ServiceOpts::default() };
    opts.consensus.signature_interval = 1;
    let mut service = ServiceCluster::start(opts, Arc::new(app()));
    service.open_service();
    assert_eq!(commit_latency_count(&service), 0, "no user write yet");
    for i in 1..=3u64 {
        let resp = service.user_request(0, "POST", "/log", format!("{i}=m{i}").as_bytes());
        assert_eq!(resp.status, 200, "{}", resp.text());
        let txid = resp.txid.expect("write txid");
        let node = service.nodes.values().next().unwrap();
        assert_eq!(node.tx_status(txid), TxStatus::Committed, "write {i} commits on return");
        assert_eq!(commit_latency_count(&service), i, "after write {i}");
    }
}

/// A queued read proposes nothing, so it records no `queue` span; the
/// write queued beside it records exactly one, on its own trace.
#[test]
fn queued_read_records_no_queue_span_on_the_write_trace() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let key = service.register_user_key("alice");
    let primary = service.primary().expect("primary");
    let primary_idx = service.nodes.keys().position(|id| *id == primary).unwrap();
    let write = SignedRequest::sign(&key, "user/POST /log", b"1=hello", 1);
    let read = SignedRequest::sign(&key, "user/GET /log?id=1", b"", 2);
    let responses = service.signed_user_requests(primary_idx, vec![write, read]);
    assert_eq!(responses[0].status, 200, "{}", responses[0].text());
    assert_eq!(responses[1].status, 200, "{}", responses[1].text());
    let write_txid = responses[0].txid.expect("write txid");
    // The read answers at the last applied txid: the write's.
    assert_eq!(responses[1].txid, Some(write_txid));

    let write_trace = service.nodes[&primary].trace_of(write_txid);
    assert!(write_trace.is_some(), "the write is traced");
    let snap = service.obs().snapshot();
    let queue_traces: Vec<u64> =
        snap.trace_spans.iter().filter(|s| s.stage == "queue").map(|s| s.trace).collect();
    assert_eq!(queue_traces, vec![write_trace.0], "one queue span, on the write's trace");
}
