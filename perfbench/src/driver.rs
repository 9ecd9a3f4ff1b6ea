//! The driver thread: every node of the cluster, driven from one thread.
//!
//! It makes the calls the threaded runtime makes (`ccf_core::rt`):
//! deliver queued messages with `receive`, `tick` every node with the
//! wall-clock ms, `emit_signature` on the primary every 5 ms, and sleep
//! 1 ms when nothing moved. Sharing one thread keeps the host's two cores
//! for the driver and the load generator instead of one spinning thread
//! per node.

use crate::trace::{Name, Span, Tracer};
use ccf_consensus::message::Message;
use ccf_consensus::NodeId;
use ccf_core::node::CcfNode;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the primary is asked for a signature.
const SIGN_EVERY: Duration = Duration::from_millis(5);
/// How long the driver sleeps when nothing moved.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// A commit advance: the primary's `commit_seqno` and when it was read.
pub type CommitEvent = (u64, Instant);

/// The cluster as the driver sees it.
pub struct Cluster<'a> {
    /// The nodes, in id order.
    pub nodes: &'a [Arc<CcfNode>],
    /// Their ids, in the same order.
    pub ids: &'a [NodeId],
    /// Consensus time (ms) at which the bootstrap left off.
    pub base_ms: u64,
}

struct Driver<'a> {
    cluster: &'a Cluster<'a>,
    inbox: Vec<VecDeque<(usize, Message, u64)>>,
    primary: usize,
    last_commit: u64,
    commits: Sender<CommitEvent>,
    tracer: Tracer,
}

impl Driver<'_> {
    fn route(&mut self, from: usize, out: Vec<(NodeId, Message)>) {
        let at = self.tracer.now();
        for (to, msg) in out {
            if let Some(i) = self.cluster.ids.iter().position(|id| *id == to) {
                self.inbox[i].push_back((from, msg, at));
            }
        }
    }

    /// Reads the primary's commit seqno right after a call that could have
    /// advanced it, and reports an advance to the generator.
    fn record_commit(&mut self) {
        let t0 = self.tracer.now();
        let c = self.cluster.nodes[self.primary].commit_seqno();
        self.tracer.end(Name::LockWait, self.primary, t0, c, c);
        if c > self.last_commit {
            self.last_commit = c;
            // The generator may already have finished; nothing to tell.
            let _ = self.commits.send((c, Instant::now()));
        }
    }

    fn deliver(&mut self, to: usize, from: usize, msg: Message, queued_at: u64) {
        let (name, lo, hi, bytes) = match &msg {
            Message::AppendEntries(m) => match (m.entries.first(), m.entries.last()) {
                (Some(first), Some(last)) => {
                    let bytes = m
                        .entries
                        .iter()
                        .map(|e| (e.entry.public_ws.len() + e.entry.private_ws_enc.len()) as u64)
                        .sum();
                    (
                        Name::Append,
                        first.entry.txid.seqno,
                        last.entry.txid.seqno,
                        bytes,
                    )
                }
                _ => (Name::Heartbeat, 1, 0, 0),
            },
            Message::AppendEntriesResponse(m) if m.success => {
                (Name::Ack, m.last_seqno, m.last_seqno, 0)
            }
            Message::AppendEntriesResponse(_) => (Name::Ack, 1, 0, 0),
            _ => (Name::Vote, 1, 0, 0),
        };
        let t0 = self.tracer.now();
        let out = self.cluster.nodes[to].receive(&self.cluster.ids[from], msg);
        self.tracer.record(Span {
            name,
            node: to as u8,
            peer: from as u8,
            thread: 0,
            start: t0,
            end: 0,
            lo,
            hi,
            queued: t0.saturating_sub(queued_at),
            bytes,
        });
        self.route(to, out);
        if name == Name::Ack && to == self.primary {
            self.record_commit();
        }
    }

    fn run(mut self, stop: &AtomicBool) -> Tracer {
        let start = Instant::now();
        let mut last_sig = start;
        let n = self.cluster.nodes.len();
        while !stop.load(Ordering::Relaxed) {
            let mut moved = false;
            for to in 0..n {
                while let Some((from, msg, at)) = self.inbox[to].pop_front() {
                    moved = true;
                    self.deliver(to, from, msg, at);
                }
            }
            let now_ms = self.cluster.base_ms + start.elapsed().as_millis() as u64;
            for i in 0..n {
                let t0 = self.tracer.now();
                let out = self.cluster.nodes[i].tick(now_ms);
                self.tracer.end(Name::Tick, i, t0, 1, 0);
                self.route(i, out);
                if i == self.primary {
                    self.record_commit();
                }
            }
            if last_sig.elapsed() >= SIGN_EVERY {
                last_sig = Instant::now();
                for i in 0..n {
                    let t0 = self.tracer.now();
                    let primary = self.cluster.nodes[i].is_primary();
                    self.tracer.end(Name::Role, i, t0, 1, 0);
                    if primary {
                        self.primary = i;
                        let t0 = self.tracer.now();
                        let out = self.cluster.nodes[i].emit_signature();
                        self.tracer.end(Name::Sign, i, t0, 1, 0);
                        self.route(i, out);
                        self.record_commit();
                    }
                }
            }
            if !moved && self.inbox.iter().all(VecDeque::is_empty) {
                let t0 = self.tracer.now();
                std::thread::sleep(IDLE_SLEEP);
                self.tracer.end(Name::Idle, 0, t0, 1, 0);
            }
        }
        self.tracer
    }
}

/// Drives `cluster` until `stop` is set; returns the driver's tracer.
/// `primary` is the index of the node that leads after bootstrap.
pub fn run(
    cluster: &Cluster<'_>,
    primary: usize,
    stop: &AtomicBool,
    commits: Sender<CommitEvent>,
    tracer: Tracer,
) -> Tracer {
    let driver = Driver {
        cluster,
        inbox: vec![VecDeque::new(); cluster.nodes.len()],
        primary,
        last_commit: cluster.nodes[primary].commit_seqno(),
        commits,
        tracer,
    };
    driver.run(stop)
}
