//! Consensus RPCs (paper §4.1–§4.2).
//!
//! Messages are passed as values: in the full system they travel over the
//! TEE-to-TEE authenticated channels established by `ccf-tee`, and in the
//! simulator they are delivered by `ccf-sim`. Each message carries the
//! sender's view; receivers update their own view (or reply negatively)
//! per §4.2.

use crate::{NodeId, Seqno, View};
use ccf_ledger::{LedgerEntry, TxId};
use ccf_obs::TraceId;

/// An entry as replicated: the ledger entry plus, for reconfiguration
/// transactions, the configuration it installs (so backups can activate it
/// on append, before commit — §4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicatedEntry {
    /// The ledger entry.
    pub entry: LedgerEntry,
    /// For reconfiguration entries: the new node set.
    pub config: Option<crate::Config>,
    /// Causal-trace piggyback (DESIGN.md §12): the trace ids this entry
    /// *covers*. A traced user entry carries its own id (one element); a
    /// signature transaction carries the ids of every unsigned traced
    /// entry it signs over; untraced entries carry none. Backups use
    /// this to record per-node `append`/`sign`/`commit` stage spans
    /// without any extra protocol round.
    pub traces: Vec<TraceId>,
}

/// `append_entries`: ledger replication plus heartbeat (§4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendEntries {
    /// The sender's (primary's) view.
    pub view: View,
    /// The primary's node ID.
    pub leader: NodeId,
    /// Transaction ID of the entry immediately before `entries`. The
    /// backup must have exactly this entry (the Raft consistency check,
    /// strengthened to full TxIds).
    pub prev: TxId,
    /// The entries to append (empty for a pure heartbeat).
    pub entries: Vec<ReplicatedEntry>,
    /// The primary's commit sequence number, so backups advance theirs.
    pub commit_seqno: Seqno,
}

/// Reply to [`AppendEntries`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendEntriesResponse {
    /// The responder's view (may be greater than the primary's).
    pub view: View,
    /// The responder.
    pub from: NodeId,
    /// Whether the append matched and was applied.
    pub success: bool,
    /// On success: the responder's last ledger seqno (the match index).
    /// On failure: the responder's best guess at the latest common point,
    /// from which the primary should resend (§4.2).
    pub last_seqno: Seqno,
    /// Causal-trace piggyback: the trace ids of the traced entries this
    /// ack newly appended (empty on failure and for pure heartbeats), so
    /// the primary's flight recorder can attribute acks to requests.
    pub traces: Vec<TraceId>,
}

/// `request_vote`: sent by candidates, carrying the view and seqno of the
/// candidate's **last signature transaction** (§4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestVote {
    /// The candidate's (already incremented) view.
    pub view: View,
    /// The candidate.
    pub candidate: NodeId,
    /// TxId of the candidate's last signature transaction
    /// ([`TxId::ZERO`] if none).
    pub last_signature: TxId,
}

/// Reply to [`RequestVote`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestVoteResponse {
    /// The voter's view.
    pub view: View,
    /// The voter.
    pub from: NodeId,
    /// Whether the vote was granted.
    pub granted: bool,
}

/// A snapshot offer to a node too far behind the primary's retained ledger
/// (nodes normally start from an operator-provided snapshot; this is the
/// in-protocol fallback).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallSnapshot {
    /// The sender's view.
    pub view: View,
    /// The primary's node ID.
    pub leader: NodeId,
    /// The snapshot itself.
    pub snapshot: crate::Snapshot,
    /// The primary's commit seqno.
    pub commit_seqno: Seqno,
}

/// All consensus messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Ledger replication / heartbeat.
    AppendEntries(AppendEntries),
    /// Replication acknowledgement.
    AppendEntriesResponse(AppendEntriesResponse),
    /// Election vote request.
    RequestVote(RequestVote),
    /// Election vote.
    RequestVoteResponse(RequestVoteResponse),
    /// Snapshot transfer.
    InstallSnapshot(InstallSnapshot),
}

impl Message {
    /// The view carried by the message (every RPC includes one, §4.2).
    pub fn view(&self) -> View {
        match self {
            Message::AppendEntries(m) => m.view,
            Message::AppendEntriesResponse(m) => m.view,
            Message::RequestVote(m) => m.view,
            Message::RequestVoteResponse(m) => m.view,
            Message::InstallSnapshot(m) => m.view,
        }
    }

    /// Short tag for logging.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::AppendEntries(m) if m.entries.is_empty() => "heartbeat",
            Message::AppendEntries(_) => "append_entries",
            Message::AppendEntriesResponse(_) => "append_entries_response",
            Message::RequestVote(_) => "request_vote",
            Message::RequestVoteResponse(_) => "request_vote_response",
            Message::InstallSnapshot(_) => "install_snapshot",
        }
    }
}
