//! Real-time (threaded) cluster for throughput experiments.
//!
//! The virtual-time [`ServiceCluster`] gives deterministic fault
//! schedules; throughput numbers (Figure 7, Figure 8, Table 5) need real
//! work on real threads instead. `RtCluster` takes an already
//! bootstrapped service and runs it against the wall clock: one driver
//! thread owns the service and calls [`ServiceCluster::step`] until the
//! service's clock has caught up with the elapsed wall time, then sleeps
//! 1 ms. The network has zero latency, so a message sent in one step is
//! delivered in the next. Messages, ticks, `net.*` counters and flight
//! records go through the simulator's step loop, and the primary signs
//! only as its replica's count and time policy says. Client threads (the
//! paper's closed-loop users) call [`CcfNode::handle_request`] directly,
//! exercising the node's real execution path — snapshot reads, OCC
//! commits, ledger encryption, Merkle appends.

use crate::node::CcfNode;
use crate::service::ServiceCluster;
use ccf_consensus::NodeId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running real-time cluster.
pub struct RtCluster {
    /// The nodes, by id.
    pub nodes: BTreeMap<NodeId, Arc<CcfNode>>,
    stop: Arc<AtomicBool>,
    driver: JoinHandle<()>,
}

impl RtCluster {
    /// Moves a bootstrapped virtual-time service onto a driver thread
    /// that steps it in wall-clock time, continuing from its current
    /// virtual time.
    pub fn from_service(mut service: ServiceCluster) -> RtCluster {
        let nodes = service.nodes.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let driver_stop = stop.clone();
        let driver = std::thread::spawn(move || {
            service.net.set_latency(0, 0);
            let base_ms = service.now();
            let start = Instant::now();
            while !driver_stop.load(Ordering::Relaxed) {
                if service.now() < base_ms + start.elapsed().as_millis() as u64 {
                    service.step();
                } else {
                    // Caught up: the service's clock moves in whole
                    // milliseconds, and spinning would starve co-located
                    // client threads on small hosts.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        RtCluster { nodes, stop, driver }
    }

    /// The current primary node handle.
    pub fn primary(&self) -> Option<Arc<CcfNode>> {
        self.nodes.values().find(|n| n.is_primary()).cloned()
    }

    /// Any backup node handle.
    pub fn a_backup(&self) -> Option<Arc<CcfNode>> {
        self.nodes.values().find(|n| !n.is_primary()).cloned()
    }

    /// The observability registry the cluster reports into (the service's
    /// shared registry, carried over by [`RtCluster::from_service`]).
    pub fn obs(&self) -> Option<ccf_obs::Registry> {
        self.nodes.values().next().map(|n| n.obs().clone())
    }

    /// Stops the driver thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.driver.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppResult, Application, Caller, EndpointDef, Request};
    use crate::service::ServiceOpts;
    use ccf_consensus::TxStatus;

    fn start(nodes: usize) -> RtCluster {
        let app = Application::new("rt test v1").endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(Vec::new())
        }));
        let mut service = ServiceCluster::start(
            ServiceOpts { nodes, members: 1, users: 1, seed: 77, ..ServiceOpts::default() },
            Arc::new(app),
        );
        service.open_service();
        RtCluster::from_service(service)
    }

    fn write(node: &CcfNode, i: u64) -> crate::app::Response {
        let req = Request::new("POST", "/log", Caller::User("user0".into()), format!("{i}=x").as_bytes());
        let resp = node.handle_request(&req);
        assert_eq!(resp.status, 200, "{}", resp.text());
        resp
    }

    #[test]
    fn count_only_policy_adds_no_timer_signatures() {
        let rt = start(1);
        let primary = rt.primary().unwrap();
        primary.set_signature_policy(100, 0);
        let signatures = rt.obs().unwrap().counter("consensus.signature_txs");
        let before = signatures.get();
        for i in 0..50 {
            write(&primary, i);
        }
        std::thread::sleep(Duration::from_millis(50));
        let emitted = signatures.get() - before;
        rt.stop();
        assert_eq!(emitted, 0, "50 writes under a count-only interval of 100 were signed");
    }

    #[test]
    fn writes_replicate_through_the_step_loop() {
        let rt = start(3);
        let sent = rt.obs().unwrap().counter("net.messages_sent");
        let before = sent.get();
        let txid = write(&rt.primary().unwrap(), 1).txid.expect("txid");
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.nodes.values().any(|n| n.tx_status(txid) != TxStatus::Committed) {
            assert!(Instant::now() < deadline, "write {txid:?} did not commit on every node");
            std::thread::sleep(Duration::from_millis(1));
        }
        let after = sent.get();
        rt.stop();
        assert!(after > before, "net.messages_sent stayed at {before}");
    }
}
