//! Safety-invariant checking for chaos/nemesis runs.
//!
//! The checker is incremental: call it after every simulation step and it
//! inspects only state/events that changed since the last call, so a
//! multi-minute virtual run stays cheap. Each invariant encodes a claim
//! from the paper:
//!
//! * **Committed-prefix agreement** — all replicas agree on the entry
//!   (TxId *and* payload digest) at every committed seqno, across the
//!   whole run, not just pairwise at the end (§4.1: commit is final).
//! * **Commit only at signature transactions** — the commit point only
//!   ever rests on a signature transaction (§4.1).
//! * **At most one primary per view** — two nodes never both win the same
//!   view (§4.2: quorum intersection over all active configs, §4.4).
//! * **No rollback past commit** — a truncation below a node's own commit
//!   point never happens (§4.1 durability).
//! * **Commit monotonicity** — a node's commit seqno never decreases.
//! * **No invariant rejections** — the hardened `Replica` error paths
//!   (refusing rollbacks past commit, gapped appends) must never fire
//!   among honest nodes; if one does, our own protocol logic produced a
//!   Byzantine-looking message.
//!
//! Receipt verifiability against the service identity is checked at the
//! service layer (`ccf-core`), where the identity exists.

use crate::harness::Cluster;
use crate::replica::{Event, Replica};
use crate::{NodeId, Seqno, View};
use ccf_crypto::Digest32;
use ccf_ledger::entry::EntryKind;
use ccf_ledger::TxId;
use std::collections::BTreeMap;

/// A read-only window onto one replica's ledger state, so the checker
/// works over both the consensus harness and the full service node.
pub trait StateView {
    /// The node's commit seqno.
    fn commit_seqno(&self) -> Seqno;
    /// `(txid, payload digest, kind)` of the retained entry at `seqno`,
    /// or `None` if it is below the snapshot base / past the end.
    fn entry_info(&self, seqno: Seqno) -> Option<(TxId, Digest32, EntryKind)>;
}

impl StateView for Replica {
    fn commit_seqno(&self) -> Seqno {
        Replica::commit_seqno(self)
    }

    fn entry_info(&self, seqno: Seqno) -> Option<(TxId, Digest32, EntryKind)> {
        self.entry_at(seqno).map(|e| (e.entry.txid, e.entry.digest(), e.entry.kind))
    }
}

/// One invariant violation, attributed to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The node on which the violation was observed.
    pub node: NodeId,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.node, self.detail)
    }
}

/// Incremental checker; keep one per run and feed it every step.
#[derive(Default)]
pub struct InvariantChecker {
    /// Global committed history: seqno → (txid, digest, kind), as first
    /// observed on any node. Later observations must match — including
    /// from nodes that committed, rolled state forward, and re-report.
    history: BTreeMap<Seqno, (TxId, Digest32, EntryKind)>,
    /// Highest commit seqno already cross-checked per node.
    checked_commit: BTreeMap<NodeId, Seqno>,
    /// Number of events already consumed per node.
    event_cursor: BTreeMap<NodeId, usize>,
    /// Which node won each view.
    primary_of_view: BTreeMap<View, NodeId>,
    /// Per-node running commit point as seen through its event stream.
    event_commit: BTreeMap<NodeId, Seqno>,
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// A fresh checker.
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// All violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True while no invariant has been violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn violation(&mut self, node: &NodeId, detail: String) {
        self.violations.push(Violation { node: node.clone(), detail });
    }

    /// Checks one node's new state and new events. `events` is the node's
    /// *accumulated* event list; the checker remembers how far it read.
    pub fn check_node(&mut self, node: &NodeId, state: &dyn StateView, events: &[Event]) {
        // -- Commit monotonicity + committed-prefix agreement ------------
        let commit = state.commit_seqno();
        let checked = self.checked_commit.get(node).copied().unwrap_or(0);
        if commit < checked {
            self.violation(
                node,
                format!("commit seqno moved backwards: {checked} -> {commit}"),
            );
        }
        for s in checked + 1..=commit {
            let Some(info) = state.entry_info(s) else {
                // Below the node's snapshot base: vouched for by the
                // snapshotting node, which already cross-checked it.
                continue;
            };
            match self.history.get(&s) {
                None => {
                    self.history.insert(s, info);
                }
                Some(prev) if *prev == info => {}
                Some(prev) => {
                    self.violation(
                        node,
                        format!(
                            "committed-prefix divergence at seqno {s}: \
                             node has {:?} but history recorded {:?}",
                            (info.0, info.2),
                            (prev.0, prev.2)
                        ),
                    );
                }
            }
        }
        self.checked_commit.insert(node.clone(), checked.max(commit));

        // -- Event-stream invariants -------------------------------------
        let cursor = self.event_cursor.get(node).copied().unwrap_or(0);
        for ev in &events[cursor.min(events.len())..] {
            match ev {
                Event::BecamePrimary { view } => {
                    match self.primary_of_view.get(view) {
                        Some(winner) if winner != node => {
                            let winner = winner.clone();
                            self.violation(
                                node,
                                format!("two primaries in view {view}: {winner} and {node}"),
                            );
                        }
                        _ => {
                            self.primary_of_view.insert(*view, node.clone());
                        }
                    }
                }
                Event::Committed { seqno } => {
                    let running = self.event_commit.get(node).copied().unwrap_or(0);
                    if *seqno < running {
                        self.violation(
                            node,
                            format!("commit event moved backwards: {running} -> {seqno}"),
                        );
                    }
                    self.event_commit.insert(node.clone(), running.max(*seqno));
                    // Commit only at signature transactions (§4.1). The
                    // entry cannot roll back after commit, so reading it
                    // now (post-hoc) is sound; below-base means a
                    // snapshot covered it, which also only cuts at
                    // signature points.
                    if let Some((_, _, kind)) = state.entry_info(*seqno) {
                        if kind != EntryKind::Signature {
                            self.violation(
                                node,
                                format!("commit point {seqno} is a {kind:?}, not a signature"),
                            );
                        }
                    }
                }
                Event::RolledBack { seqno } => {
                    let running = self.event_commit.get(node).copied().unwrap_or(0);
                    if *seqno < running {
                        self.violation(
                            node,
                            format!("rolled back to {seqno}, below own commit {running}"),
                        );
                    }
                }
                Event::InvariantRejected { reason } => {
                    self.violation(
                        node,
                        format!("replica refused an honest-node message: {reason}"),
                    );
                }
                _ => {}
            }
        }
        self.event_cursor.insert(node.clone(), events.len());
    }

    /// Checks every replica in a consensus harness cluster (crashed nodes
    /// included: their frozen state must still agree with history).
    pub fn check_cluster(&mut self, cluster: &Cluster) {
        static NO_EVENTS: Vec<Event> = Vec::new();
        for (id, replica) in &cluster.replicas {
            self.check_node(id, replica, cluster.events.get(id).unwrap_or(&NO_EVENTS));
        }
    }
}

/// A crash-forensics bundle assembled from an observability registry at
/// the moment an invariant trips: the tail of the bounded flight recorder
/// (already causally ordered — ring order is global sequence order) plus
/// the critical paths of the traces most likely implicated (in-flight,
/// i.e. not yet committed; if every trace committed, the most recent
/// ones). See DESIGN.md §12.
#[derive(Debug, Clone)]
pub struct Forensics {
    /// Last protocol/net events, oldest first.
    pub flight: Vec<ccf_obs::FlightRecord>,
    /// Critical paths of affected traces.
    pub critical_paths: Vec<ccf_obs::trace::CriticalPath>,
}

impl Forensics {
    /// Multi-line human-readable dump (flight excerpt, then traces).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("flight recorder (last {} events):\n", self.flight.len()));
        for r in &self.flight {
            out.push_str("  ");
            out.push_str(&r.render());
            out.push('\n');
        }
        out.push_str(&format!("affected traces ({}):\n", self.critical_paths.len()));
        for p in &self.critical_paths {
            out.push_str("  ");
            out.push_str(&p.render());
            out.push('\n');
        }
        out
    }
}

/// Assembles a [`Forensics`] bundle from `reg`, keeping at most
/// `max_events` flight records and `max_traces` trace critical paths.
pub fn forensics(reg: &ccf_obs::Registry, max_events: usize, max_traces: usize) -> Forensics {
    let snap = reg.snapshot();
    let mut flight = snap.flight.clone();
    if flight.len() > max_events {
        flight.drain(..flight.len() - max_events);
    }
    let trees = ccf_obs::trace::assemble(&snap.trace_spans);
    // Affected = traces whose commit stage never closed; when everything
    // committed (violation unrelated to any one request), show the most
    // recent traces instead.
    let affected: Vec<&ccf_obs::trace::TraceTree> = {
        let inflight: Vec<_> = trees.iter().filter(|t| !t.committed()).collect();
        if inflight.is_empty() { trees.iter().collect() } else { inflight }
    };
    let skip = affected.len().saturating_sub(max_traces);
    let critical_paths =
        affected.into_iter().skip(skip).map(ccf_obs::trace::critical_path).collect();
    Forensics { flight, critical_paths }
}
