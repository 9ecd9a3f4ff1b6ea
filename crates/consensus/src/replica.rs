//! The consensus replica state machine (paper §4).
//!
//! A [`Replica`] is deterministic and I/O-free: inputs are `tick(now)`,
//! `receive(from, msg)` and `propose(...)`; outputs are drained from an
//! outbox (messages to send) and an event queue (state-machine commands for
//! the node layer: apply, roll back, commit, install snapshot). All
//! randomness (election jitter) comes from a seeded generator, so whole
//! cluster executions replay exactly from a seed.

use crate::message::{
    AppendEntries, AppendEntriesResponse, InstallSnapshot, Message, ReplicatedEntry, RequestVote,
    RequestVoteResponse,
};
use crate::{quorum, ActiveConfig, Config, NodeId, Seqno, Snapshot, TxStatus, View};
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::Digest32;
use ccf_ledger::entry::EntryKind;
use ccf_ledger::{LedgerEntry, MerkleTree, TxId};
use ccf_obs::TraceId;
use std::collections::{BTreeSet, HashMap};

/// Milliseconds of virtual (or real) time.
pub type Time = u64;

/// Consensus timing and batching parameters.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Election timeout range [min, max): a fresh timeout is drawn
    /// uniformly on every reset to de-synchronize candidates (§4.2).
    pub election_timeout: (Time, Time),
    /// Interval between primary heartbeats.
    pub heartbeat_interval: Time,
    /// A primary steps down if it has not heard from a quorum of backups
    /// within this window (§4.2, partial-partition defence).
    pub leadership_ack_window: Time,
    /// Append a signature transaction automatically after this many
    /// unsigned entries ("signature interval"; Figure 8 sweeps this).
    pub signature_interval: u64,
    /// Also sign after this much time with unsigned entries pending
    /// (the paper's primary signs "periodically"; commit latency is
    /// bounded by this). 0 disables the timer.
    pub signature_interval_ms: Time,
    /// Maximum entries per append_entries message.
    pub max_batch: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            election_timeout: (150, 300),
            heartbeat_interval: 20,
            leadership_ack_window: 500,
            signature_interval: 100,
            signature_interval_ms: 10,
            max_batch: 256,
        }
    }
}

/// The replica's role (Figure 6). `Retiring` is a primary whose removal
/// from the configuration has committed: it stops proposing and
/// heartbeating but keeps replicating and voting while a successor
/// establishes itself (§4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Joined but not yet participating in consensus.
    Pending,
    /// Follower, replicating from the primary.
    Backup,
    /// Election in progress.
    Candidate,
    /// The leader for the current view.
    Primary,
    /// A primary excluded by a committed reconfiguration (§4.5).
    Retiring,
    /// Shut down; ignores everything.
    Retired,
}

/// Builds signature transactions on demand: the node layer owns the node's
/// signing key and the kv write to `ccf.internal.signatures`, so consensus
/// delegates entry construction.
pub trait SignatureFactory {
    /// Builds the signature entry for `txid` over Merkle root `root`.
    fn make_signature(&mut self, txid: TxId, root: Digest32) -> LedgerEntry;
}

/// Commands for the node layer, emitted in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// An entry was appended (speculatively — may still roll back).
    /// The node layer reads it with [`Replica::entry_at`] and applies its
    /// write set to the kv store.
    Appended {
        /// The appended entry's seqno.
        seqno: Seqno,
    },
    /// Everything up to `seqno` is durable: will never roll back.
    Committed {
        /// The new commit seqno.
        seqno: Seqno,
    },
    /// Entries after `seqno` were discarded (view change); the node layer
    /// must restore kv state as of `seqno`.
    RolledBack {
        /// The surviving prefix.
        seqno: Seqno,
    },
    /// This replica became primary for `view`.
    BecamePrimary {
        /// The new view.
        view: View,
    },
    /// This replica stopped being primary/candidate.
    BecameBackup {
        /// The view in which it stepped down.
        view: View,
    },
    /// A snapshot replaced local state; the node layer must install
    /// `kv_state` and restart its indexes.
    SnapshotInstalled {
        /// The installed snapshot.
        snapshot: Snapshot,
    },
    /// This node's removal from the configuration has committed (§4.5).
    RetirementCommitted,
    /// The replica refused a message that would have violated a safety
    /// invariant (e.g. rolling back committed entries). Unlike a
    /// `debug_assert!`, this fires in release builds too; the chaos
    /// harness treats any occurrence among honest nodes as a bug.
    InvariantRejected {
        /// Human-readable description of the refused action.
        reason: String,
    },
}

/// Errors from [`Replica::propose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProposeError {
    /// Only the primary accepts proposals; carries the current primary
    /// hint for request forwarding (§4.3).
    NotPrimary(Option<NodeId>),
    /// The primary is retiring and no longer accepts new transactions.
    Retiring,
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::NotPrimary(hint) => write!(f, "not primary (hint: {hint:?})"),
            ProposeError::Retiring => write!(f, "primary is retiring"),
        }
    }
}

/// Histogram bounds for append-entries batch sizes (max_batch ≤ 256 in
/// every config used here).
const BATCH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Histogram bounds for rollback depths (entries discarded per rollback).
const ROLLBACK_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];
/// Histogram bounds for per-stage virtual-time latencies (ms). Shared by
/// every `*_latency_ms` histogram so bench percentiles compare across
/// stages bucket-for-bucket.
pub const LATENCY_BUCKETS: &[u64] =
    &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

/// Cached observability handles (`consensus.*`); created once by
/// [`Replica::set_registry`] so hot-path increments are lock-free.
struct ReplicaMetrics {
    reg: ccf_obs::Registry,
    node: ccf_obs::NodeRef,
    elections_started: ccf_obs::Counter,
    elections_won: ccf_obs::Counter,
    append_batches: ccf_obs::Counter,
    append_batch_entries: ccf_obs::Histogram,
    signature_txs: ccf_obs::Counter,
    commits: ccf_obs::Counter,
    commit_seqno: ccf_obs::Gauge,
    retransmits: ccf_obs::Counter,
    negative_acks: ccf_obs::Counter,
    rollbacks: ccf_obs::Counter,
    rollback_entries: ccf_obs::Histogram,
    invariant_rejections: ccf_obs::Counter,
    snapshots_sent: ccf_obs::Counter,
    snapshots_installed: ccf_obs::Counter,
    sign_latency: ccf_obs::Histogram,
    replication_latency: ccf_obs::Histogram,
    commit_latency: ccf_obs::Histogram,
    traces_dropped: ccf_obs::Counter,
}

impl ReplicaMetrics {
    fn new(reg: &ccf_obs::Registry, id: &NodeId) -> ReplicaMetrics {
        ReplicaMetrics {
            reg: reg.clone(),
            node: reg.node_ref(id),
            elections_started: reg.counter("consensus.elections_started"),
            elections_won: reg.counter("consensus.elections_won"),
            append_batches: reg.counter("consensus.append_batches"),
            append_batch_entries: reg.histogram("consensus.append_batch_entries", BATCH_BUCKETS),
            signature_txs: reg.counter("consensus.signature_txs"),
            commits: reg.counter("consensus.commits"),
            commit_seqno: reg.gauge("consensus.commit_seqno"),
            retransmits: reg.counter("consensus.retransmits"),
            negative_acks: reg.counter("consensus.negative_acks"),
            rollbacks: reg.counter("consensus.rollbacks"),
            rollback_entries: reg.histogram("consensus.rollback_entries", ROLLBACK_BUCKETS),
            invariant_rejections: reg.counter("consensus.invariant_rejections"),
            snapshots_sent: reg.counter("consensus.snapshots_sent"),
            snapshots_installed: reg.counter("consensus.snapshots_installed"),
            sign_latency: reg.histogram("consensus.sign_latency_ms", LATENCY_BUCKETS),
            replication_latency: reg.histogram("consensus.replication_latency_ms", LATENCY_BUCKETS),
            commit_latency: reg.histogram("consensus.commit_latency_ms", LATENCY_BUCKETS),
            traces_dropped: reg.counter("consensus.traces_dropped"),
        }
    }
}

/// Per-replica bookkeeping for one traced entry between append and
/// commit (DESIGN.md §12). Tokens are `Copy` and record nothing until
/// exited, so dropping the whole struct on rollback erases the stages
/// as if they never happened.
struct InflightTrace {
    trace: ccf_obs::TraceId,
    appended_at: Time,
    signed_at: Option<Time>,
    /// `sign` stage: local append → covering signature tx appended.
    sign_token: Option<ccf_obs::TraceSpanToken>,
    /// `replicate` stage: signature appended → commit point covers it.
    replicate_token: Option<ccf_obs::TraceSpanToken>,
    /// `commit` stage: local append → commit point covers it.
    commit_token: Option<ccf_obs::TraceSpanToken>,
}

/// The consensus replica.
pub struct Replica<F: SignatureFactory> {
    id: NodeId,
    cfg: ReplicaConfig,
    sig_factory: F,
    rng: ChaChaRng,

    role: Role,
    view: View,
    voted_for: Option<NodeId>,
    leader_hint: Option<NodeId>,

    // Ledger: entries [base_seqno+1 ..= last_seqno].
    ledger: Vec<ReplicatedEntry>,
    base_seqno: Seqno,
    base_txid: TxId,
    merkle: MerkleTree,
    last_sig: TxId,
    unsigned_since_sig: u64,
    commit_seqno: Seqno,
    view_history: Vec<(View, Seqno)>,
    active_configs: Vec<ActiveConfig>,
    participating: bool,

    // Primary volatile state.
    next_seqno: HashMap<NodeId, Seqno>,
    match_seqno: HashMap<NodeId, Seqno>,
    last_ack: HashMap<NodeId, Time>,
    // Snapshot the node layer last produced, offered to far-behind peers.
    latest_snapshot: Option<Snapshot>,

    // Candidate volatile state.
    votes: BTreeSet<NodeId>,

    now: Time,
    election_deadline: Time,
    next_heartbeat: Time,
    last_sig_emit: Time,

    outbox: Vec<(NodeId, Message)>,
    events: Vec<Event>,

    metrics: Option<ReplicaMetrics>,
    /// Traced entries appended but not yet committed, by seqno. Pruned
    /// on commit (closing their stage spans) and on rollback (dropping
    /// them silently).
    inflight_traces: std::collections::BTreeMap<Seqno, InflightTrace>,
}

impl<F: SignatureFactory> Replica<F> {
    /// Creates a replica that is part of the service's initial
    /// configuration (service start, §2).
    pub fn new(
        id: impl Into<NodeId>,
        initial_config: Config,
        cfg: ReplicaConfig,
        seed: u64,
        sig_factory: F,
    ) -> Self {
        let id = id.into();
        let participating = initial_config.contains(&id);
        let mut r = Replica {
            id,
            cfg,
            sig_factory,
            rng: ChaChaRng::seed_from_u64(seed),
            role: if participating { Role::Backup } else { Role::Pending },
            view: 0,
            voted_for: None,
            leader_hint: None,
            ledger: Vec::new(),
            base_seqno: 0,
            base_txid: TxId::ZERO,
            merkle: MerkleTree::new(),
            last_sig: TxId::ZERO,
            unsigned_since_sig: 0,
            commit_seqno: 0,
            view_history: Vec::new(),
            active_configs: vec![ActiveConfig { seqno: 0, nodes: initial_config }],
            participating,
            next_seqno: HashMap::new(),
            match_seqno: HashMap::new(),
            last_ack: HashMap::new(),
            latest_snapshot: None,
            votes: BTreeSet::new(),
            now: 0,
            election_deadline: 0,
            next_heartbeat: 0,
            last_sig_emit: 0,
        outbox: Vec::new(),
            events: Vec::new(),
            metrics: None,
            inflight_traces: std::collections::BTreeMap::new(),
        };
        r.reset_election_timer();
        r
    }

    /// Attaches observability handles (`consensus.*`, plus the Merkle
    /// tree's `ledger.merkle_*`) from `reg`. Without this the replica
    /// records nothing.
    pub fn set_registry(&mut self, reg: &ccf_obs::Registry) {
        self.merkle.set_registry(reg);
        self.metrics = Some(ReplicaMetrics::new(reg, &self.id));
    }

    /// Creates a joining replica (status PENDING until a reconfiguration
    /// adds it, §4.4), optionally bootstrapped from a snapshot.
    pub fn join(
        id: impl Into<NodeId>,
        cfg: ReplicaConfig,
        seed: u64,
        sig_factory: F,
        snapshot: Option<Snapshot>,
    ) -> Self {
        let mut r = Self::new(id, Config::new(), cfg, seed, sig_factory);
        r.role = Role::Pending;
        r.participating = false;
        r.active_configs.clear();
        if let Some(snap) = snapshot {
            r.install_snapshot_internal(snap, true);
        }
        r
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This replica's node ID.
    pub fn id(&self) -> &NodeId {
        &self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// True when this replica believes it is the primary.
    pub fn is_primary(&self) -> bool {
        matches!(self.role, Role::Primary)
    }

    /// The current primary, as far as this replica knows (§4.3 forwarding).
    pub fn leader_hint(&self) -> Option<&NodeId> {
        if self.is_primary() {
            Some(&self.id)
        } else {
            self.leader_hint.as_ref()
        }
    }

    /// Seqno of the last ledger entry.
    pub fn last_seqno(&self) -> Seqno {
        self.base_seqno + self.ledger.len() as u64
    }

    /// TxId of the last ledger entry.
    pub fn last_txid(&self) -> TxId {
        self.ledger.last().map(|e| e.entry.txid).unwrap_or(self.base_txid)
    }

    /// The commit sequence number.
    pub fn commit_seqno(&self) -> Seqno {
        self.commit_seqno
    }

    /// TxId of the last signature transaction ([`TxId::ZERO`] if none).
    pub fn last_signature(&self) -> TxId {
        self.last_sig
    }

    /// The current Merkle root over the whole ledger.
    pub fn merkle_root(&self) -> Digest32 {
        self.merkle.root()
    }

    /// Inclusion proof for the entry at `seqno` against the current root.
    pub fn merkle_proof(&self, seqno: Seqno) -> Option<ccf_ledger::MerkleProof> {
        seqno.checked_sub(1).and_then(|i| self.merkle.prove(i))
    }

    /// Inclusion proof for the entry at `seqno` against the tree as of
    /// `tree_size` leaves — i.e. against the root signed by the signature
    /// transaction at seqno `tree_size + 1` (receipts, §3.5).
    pub fn merkle_proof_at(
        &self,
        seqno: Seqno,
        tree_size: Seqno,
    ) -> Option<ccf_ledger::MerkleProof> {
        seqno.checked_sub(1).and_then(|i| self.merkle.prove_at_size(i, tree_size))
    }

    /// The Merkle root over the first `size` entries.
    pub fn merkle_root_at(&self, size: Seqno) -> Option<Digest32> {
        self.merkle.root_at_size(size)
    }

    /// The active configurations, current first (§4.4).
    pub fn active_configs(&self) -> &[ActiveConfig] {
        &self.active_configs
    }

    /// All nodes across the active configurations.
    pub fn config_union(&self) -> Config {
        let mut all = Config::new();
        for c in &self.active_configs {
            all.extend(c.nodes.iter().cloned());
        }
        all
    }

    /// The entry at `seqno`, if retained locally.
    pub fn entry_at(&self, seqno: Seqno) -> Option<&ReplicatedEntry> {
        if seqno <= self.base_seqno || seqno > self.last_seqno() {
            return None;
        }
        self.ledger.get((seqno - self.base_seqno - 1) as usize)
    }

    /// All retained entries from `from` (exclusive of base) onwards.
    pub fn entries_from(&self, from: Seqno) -> &[ReplicatedEntry] {
        let start = from.max(self.base_seqno + 1);
        if start > self.last_seqno() {
            return &[];
        }
        &self.ledger[(start - self.base_seqno - 1) as usize..]
    }

    /// The view-history: (view, first seqno of that view) pairs.
    pub fn view_history(&self) -> &[(View, Seqno)] {
        &self.view_history
    }

    /// Virtual time of the last `tick`.
    pub fn now(&self) -> Time {
        self.now
    }

    fn txid_at(&self, seqno: Seqno) -> Option<TxId> {
        if seqno == self.base_seqno {
            return Some(self.base_txid);
        }
        self.entry_at(seqno).map(|e| e.entry.txid)
    }

    /// Transaction status per Figure 4.
    pub fn tx_status(&self, txid: TxId) -> TxStatus {
        if txid.seqno == 0 {
            return TxStatus::Unknown;
        }
        match self.txid_at(txid.seqno) {
            Some(local) if local == txid => {
                if txid.seqno <= self.commit_seqno {
                    TxStatus::Committed
                } else {
                    TxStatus::Pending
                }
            }
            Some(_) => {
                if txid.seqno <= self.commit_seqno {
                    TxStatus::Invalid
                } else {
                    // A different uncommitted entry occupies the slot; the
                    // asked-about transaction may still win, we just don't
                    // have it.
                    self.status_from_view_history(txid)
                }
            }
            None => {
                if txid.seqno <= self.base_seqno {
                    // Covered by a snapshot: committed prefix, but we can
                    // no longer compare views precisely; use view history.
                    self.status_from_view_history(txid)
                } else {
                    self.status_from_view_history(txid)
                }
            }
        }
    }

    /// A transaction is Invalid if a greater view started at a
    /// smaller-or-equal sequence number (§4.3); otherwise Unknown.
    fn status_from_view_history(&self, txid: TxId) -> TxStatus {
        for &(view, start) in self.view_history.iter().rev() {
            if view > txid.view && start <= txid.seqno {
                return TxStatus::Invalid;
            }
        }
        TxStatus::Unknown
    }

    /// Drains queued outbound messages.
    pub fn drain_outbox(&mut self) -> Vec<(NodeId, Message)> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains queued events for the node layer.
    pub fn drain_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Supplies the most recent snapshot produced by the node layer, to be
    /// offered to peers that have fallen behind the retained ledger.
    pub fn set_latest_snapshot(&mut self, snapshot: Snapshot) {
        self.latest_snapshot = Some(snapshot);
    }

    /// Permanently stops the replica (node retirement complete, §4.5).
    pub fn shutdown(&mut self) {
        self.role = Role::Retired;
        self.outbox.clear();
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    fn reset_election_timer(&mut self) {
        let (lo, hi) = self.cfg.election_timeout;
        self.election_deadline = self.now + self.rng.gen_range_in(lo, hi.max(lo + 1));
    }

    /// Advances time and fires any due timers.
    pub fn tick(&mut self, now: Time) {
        self.now = self.now.max(now);
        match self.role {
            Role::Retired | Role::Pending => {}
            Role::Backup | Role::Candidate => {
                if self.participating && self.now >= self.election_deadline {
                    self.start_election();
                }
            }
            Role::Primary => {
                if self.now >= self.next_heartbeat {
                    self.broadcast_entries();
                    self.next_heartbeat = self.now + self.cfg.heartbeat_interval;
                }
                // Time-based signing: bound commit latency even at low
                // write rates (§4.1 "regularly appends signature
                // transactions").
                if self.cfg.signature_interval_ms > 0
                    && self.unsigned_since_sig > 0
                    && self.now >= self.last_sig_emit + self.cfg.signature_interval_ms
                {
                    self.emit_signature();
                }
                self.check_leadership_acks();
            }
            Role::Retiring => {
                // No heartbeats: let a successor election happen (§4.5).
                // Still replicate pending entries once per interval so the
                // successor can catch up.
                if self.now >= self.next_heartbeat {
                    self.broadcast_entries_to_stale_only();
                    self.next_heartbeat = self.now + self.cfg.heartbeat_interval;
                }
            }
        }
    }

    fn check_leadership_acks(&mut self) {
        // Count members (excluding self) heard from within the window, per
        // active config; step down when any config lacks a quorum (§4.2).
        let window_start = self.now.saturating_sub(self.cfg.leadership_ack_window);
        if self.now < self.cfg.leadership_ack_window {
            return; // not enough history yet
        }
        for config in &self.active_configs {
            let mut heard = 0;
            for node in &config.nodes {
                if node == &self.id {
                    heard += 1;
                    continue;
                }
                if self.last_ack.get(node).copied().unwrap_or(0) >= window_start {
                    heard += 1;
                }
            }
            if heard < quorum(config.nodes.len()) && !config.nodes.is_empty() {
                let view = self.view;
                self.become_backup(view, "lost contact with quorum");
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Proposals (primary only)
    // ------------------------------------------------------------------

    /// Proposes a new entry. The builder receives the assigned transaction
    /// ID (it is needed for private-payload encryption nonces). Returns
    /// the assigned TxId.
    pub fn propose(
        &mut self,
        build: impl FnOnce(TxId) -> ReplicatedEntry,
    ) -> Result<TxId, ProposeError> {
        match self.role {
            Role::Primary => {}
            Role::Retiring => return Err(ProposeError::Retiring),
            _ => return Err(ProposeError::NotPrimary(self.leader_hint.clone())),
        }
        let txid = TxId::new(self.view, self.last_seqno() + 1);
        let entry = build(txid);
        assert_eq!(entry.entry.txid, txid, "builder must use the assigned TxId");
        self.append_local(entry);
        if self.unsigned_since_sig >= self.cfg.signature_interval {
            self.emit_signature();
        }
        Ok(txid)
    }

    /// Appends a signature transaction now (primaries call this on a timer
    /// or via the automatic count-based policy).
    pub fn emit_signature(&mut self) {
        if !matches!(self.role, Role::Primary | Role::Retiring) {
            return;
        }
        if self.unsigned_since_sig == 0 {
            return; // last entry is already a signature
        }
        if let Some(m) = &self.metrics {
            m.signature_txs.inc();
        }
        self.last_sig_emit = self.now;
        let txid = TxId::new(self.view, self.last_seqno() + 1);
        let root = self.merkle.root();
        let entry = self.sig_factory.make_signature(txid, root);
        assert_eq!(entry.kind, EntryKind::Signature, "factory must build a signature entry");
        assert_eq!(entry.txid, txid);
        // Piggyback the trace ids this signature covers (every traced
        // entry since the previous signature), so backups can close
        // their `sign` stages without an extra protocol round.
        let covered: Vec<ccf_obs::TraceId> = self
            .inflight_traces
            .values()
            .filter(|t| t.signed_at.is_none())
            .map(|t| t.trace)
            .collect();
        self.append_local(ReplicatedEntry { entry, config: None, traces: covered });
        // Replicate eagerly: commit latency is dominated by signature
        // round-trips (Figure 8).
        self.broadcast_entries();
    }

    /// Changes the signature policy at runtime (benchmarks sweep this;
    /// Figure 8 sets count-only signing after bootstrap).
    pub fn set_signature_policy(&mut self, interval: u64, interval_ms: Time) {
        self.cfg.signature_interval = interval;
        self.cfg.signature_interval_ms = interval_ms;
    }

    fn append_local(&mut self, entry: ReplicatedEntry) {
        debug_assert_eq!(entry.entry.txid.seqno, self.last_seqno() + 1);
        self.merkle.append(&entry.entry.leaf_bytes());
        if entry.entry.kind == EntryKind::Signature {
            self.last_sig = entry.entry.txid;
            self.unsigned_since_sig = 0;
            // A newly added node participates from the first signature
            // transaction following the reconfiguration that added it.
            if !self.participating && self.active_configs.iter().any(|c| c.nodes.contains(&self.id))
            {
                self.participating = true;
                if self.role == Role::Pending {
                    self.role = Role::Backup;
                    self.reset_election_timer();
                }
            }
        } else {
            self.unsigned_since_sig += 1;
        }
        if let Some(config) = &entry.config {
            self.active_configs.push(ActiveConfig {
                seqno: entry.entry.txid.seqno,
                nodes: config.clone(),
            });
        }
        let view = entry.entry.txid.view;
        if self.view_history.last().is_none_or(|&(v, _)| v < view) {
            self.view_history.push((view, entry.entry.txid.seqno));
        }
        self.note_append_traces(&entry);
        let seqno = entry.entry.txid.seqno;
        self.ledger.push(entry);
        self.events.push(Event::Appended { seqno });
        // A single-node configuration commits its own signatures instantly.
        if self.is_primary() {
            self.try_advance_commit();
        }
    }

    /// Trace bookkeeping at append time (DESIGN.md §12). A traced user
    /// entry opens this node's `append` marker plus in-flight `sign` and
    /// `commit` stages; a signature entry closes the `sign` stage of
    /// every trace it covers and opens their `replicate` stages. Runs
    /// identically on the primary (its own appends) and on backups
    /// (piggybacked ids), so traces survive leader changes.
    fn note_append_traces(&mut self, entry: &ReplicatedEntry) {
        let Some(m) = &self.metrics else { return };
        let seqno = entry.entry.txid.seqno;
        if entry.entry.kind == EntryKind::Signature {
            if entry.traces.is_empty() {
                return;
            }
            let covered: std::collections::BTreeSet<u64> =
                entry.traces.iter().map(|t| t.0).collect();
            for t in self.inflight_traces.values_mut() {
                if t.signed_at.is_none() && covered.contains(&t.trace.0) {
                    t.signed_at = Some(self.now);
                    if let Some(tok) = t.sign_token.take() {
                        let sign_id = m.reg.trace_exit(tok);
                        t.replicate_token =
                            Some(m.reg.trace_enter(t.trace, sign_id, "replicate", m.node));
                    }
                }
            }
        } else {
            for &trace in &entry.traces {
                let append_id =
                    m.reg.trace_mark(trace, ccf_obs::SpanId::NONE, "append", m.node);
                self.inflight_traces.insert(
                    seqno,
                    InflightTrace {
                        trace,
                        appended_at: self.now,
                        signed_at: None,
                        sign_token: Some(m.reg.trace_enter(trace, append_id, "sign", m.node)),
                        replicate_token: None,
                        commit_token: Some(m.reg.trace_enter(
                            trace,
                            append_id,
                            "commit",
                            m.node,
                        )),
                    },
                );
            }
        }
    }

    /// Closes the stage spans of every traced entry the new commit point
    /// covers, and feeds the per-stage virtual-time histograms.
    fn close_committed_traces(&mut self, seqno: Seqno) {
        if self.inflight_traces.is_empty() {
            return;
        }
        let rest = self.inflight_traces.split_off(&(seqno + 1));
        let done = std::mem::replace(&mut self.inflight_traces, rest);
        let Some(m) = &self.metrics else { return };
        for t in done.into_values() {
            m.commit_latency.observe(self.now - t.appended_at);
            if let Some(signed) = t.signed_at {
                m.sign_latency.observe(signed - t.appended_at);
                m.replication_latency.observe(self.now - signed);
            }
            if let Some(tok) = t.replicate_token {
                m.reg.trace_exit(tok);
            }
            if let Some(tok) = t.commit_token {
                m.reg.trace_exit(tok);
            }
        }
    }

    /// Drops traces above the rollback point: their tokens die unexited,
    /// so a rolled-back stage leaves no span — the trace simply resumes
    /// when the entry is re-proposed or survives on another node.
    fn drop_rolled_back_traces(&mut self, seqno: Seqno) {
        let dropped = self.inflight_traces.split_off(&(seqno + 1));
        if dropped.is_empty() {
            return;
        }
        if let Some(m) = &self.metrics {
            m.traces_dropped.add(dropped.len() as u64);
        }
    }

    // ------------------------------------------------------------------
    // Replication (primary)
    // ------------------------------------------------------------------

    fn peers(&self) -> Vec<NodeId> {
        self.config_union().into_iter().filter(|n| n != &self.id).collect()
    }

    fn broadcast_entries(&mut self) {
        for peer in self.peers() {
            self.send_entries_to(&peer);
        }
    }

    /// Used by retiring primaries: replicate to peers that are behind but
    /// send no pure heartbeats (which would suppress elections).
    fn broadcast_entries_to_stale_only(&mut self) {
        for peer in self.peers() {
            let next = self.next_seqno.get(&peer).copied().unwrap_or(self.last_seqno() + 1);
            if next <= self.last_seqno() {
                self.send_entries_to(&peer);
            }
        }
    }

    fn send_entries_to(&mut self, peer: &NodeId) {
        let next = self.next_seqno.get(peer).copied().unwrap_or(self.last_seqno() + 1);
        if next <= self.base_seqno {
            // The peer needs entries we no longer retain: offer a snapshot.
            if let Some(snapshot) = &self.latest_snapshot {
                if let Some(m) = &self.metrics {
                    m.snapshots_sent.inc();
                    let peer = m.reg.node_ref(peer);
                    m.reg.flight(
                        m.node,
                        "snapshot",
                        "sent",
                        Some(peer),
                        self.view,
                        snapshot.last_txid.seqno,
                    );
                }
                self.outbox.push((
                    peer.clone(),
                    Message::InstallSnapshot(InstallSnapshot {
                        view: self.view,
                        leader: self.id.clone(),
                        snapshot: snapshot.clone(),
                        commit_seqno: self.commit_seqno,
                    }),
                ));
                return;
            }
            // No snapshot available: we cannot help this peer yet.
            return;
        }
        let prev = self
            .txid_at(next - 1)
            .expect("next-1 is within the retained ledger by the check above");
        let from_idx = (next - self.base_seqno - 1) as usize;
        let to_idx = (from_idx + self.cfg.max_batch).min(self.ledger.len());
        let entries = self.ledger[from_idx..to_idx].to_vec();
        if let Some(m) = &self.metrics {
            m.append_batches.inc();
            m.append_batch_entries.observe(entries.len() as u64);
        }
        self.outbox.push((
            peer.clone(),
            Message::AppendEntries(AppendEntries {
                view: self.view,
                leader: self.id.clone(),
                prev,
                entries,
                commit_seqno: self.commit_seqno,
            }),
        ));
    }

    fn try_advance_commit(&mut self) {
        if !matches!(self.role, Role::Primary | Role::Retiring) {
            return;
        }
        // Highest signature transaction of the current view replicated to a
        // quorum of every active configuration (§4.1, §4.4).
        let mut candidate = None;
        for e in self.ledger.iter().rev() {
            let txid = e.entry.txid;
            if txid.seqno <= self.commit_seqno {
                break;
            }
            if e.entry.kind != EntryKind::Signature || txid.view != self.view {
                continue;
            }
            if self.replicated_to_all_quorums(txid.seqno) {
                candidate = Some(txid.seqno);
                break;
            }
        }
        if let Some(seqno) = candidate {
            self.advance_commit(seqno);
            // Let backups learn promptly (commit piggybacks on the next
            // append_entries; send one now).
            self.broadcast_entries();
        }
    }

    fn replicated_to_all_quorums(&self, seqno: Seqno) -> bool {
        for config in &self.active_configs {
            if config.nodes.is_empty() {
                continue;
            }
            let mut acks = 0;
            for node in &config.nodes {
                let matched = if node == &self.id {
                    self.last_seqno()
                } else {
                    self.match_seqno.get(node).copied().unwrap_or(0)
                };
                if matched >= seqno {
                    acks += 1;
                }
            }
            if acks < quorum(config.nodes.len()) {
                return false;
            }
        }
        true
    }

    /// Records a commit advancement in the metrics (counter + high-water
    /// gauge; the gauge is shared by every replica on the registry, so it
    /// tracks the cluster-wide maximum).
    fn note_commit(&self, seqno: Seqno) {
        if let Some(m) = &self.metrics {
            m.commits.inc();
            m.commit_seqno.fetch_max(seqno);
        }
    }

    fn advance_commit(&mut self, seqno: Seqno) {
        debug_assert!(seqno > self.commit_seqno);
        debug_assert!(seqno <= self.last_seqno());
        self.commit_seqno = seqno;
        self.note_commit(seqno);
        self.close_committed_traces(seqno);
        self.events.push(Event::Committed { seqno });
        // §4.5: retirement commits when the node was in the current
        // configuration and a newly committed reconfiguration excludes it.
        let was_in_current = self
            .active_configs
            .first()
            .is_some_and(|c| c.nodes.contains(&self.id));
        // Retire configurations superseded by a committed reconfiguration
        // (§4.4): drop every config older than the newest committed one.
        let newest_committed = self
            .active_configs
            .iter()
            .rev()
            .find(|c| c.seqno <= seqno)
            .map(|c| c.seqno);
        if let Some(newest) = newest_committed {
            self.active_configs.retain(|c| c.seqno >= newest);
        }
        let in_current = self
            .active_configs
            .first()
            .is_some_and(|c| c.nodes.contains(&self.id));
        if was_in_current
            && !in_current
            && self.active_configs.first().is_some_and(|c| c.seqno <= seqno)
        {
            self.events.push(Event::RetirementCommitted);
            if self.role == Role::Primary {
                self.role = Role::Retiring;
            }
        }
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    fn start_election(&mut self) {
        if let Some(m) = &self.metrics {
            m.elections_started.inc();
            m.reg.flight(m.node, "election", "start", None, self.view + 1, self.last_sig.seqno);
        }
        self.role = Role::Candidate;
        self.view += 1;
        self.voted_for = Some(self.id.clone());
        self.votes = BTreeSet::from([self.id.clone()]);
        self.leader_hint = None;
        self.reset_election_timer();
        let req = RequestVote {
            view: self.view,
            candidate: self.id.clone(),
            last_signature: self.last_sig,
        };
        for peer in self.peers() {
            self.outbox.push((peer, Message::RequestVote(req.clone())));
        }
        self.check_election_won();
    }

    fn check_election_won(&mut self) {
        if self.role != Role::Candidate {
            return;
        }
        for config in &self.active_configs {
            if config.nodes.is_empty() {
                continue;
            }
            let votes_in = config.nodes.iter().filter(|n| self.votes.contains(*n)).count();
            if votes_in < quorum(config.nodes.len()) {
                return;
            }
        }
        self.become_primary();
    }

    fn become_primary(&mut self) {
        if let Some(m) = &self.metrics {
            m.elections_won.inc();
            m.reg.flight(m.node, "election", "won", None, self.view, self.last_seqno());
        }
        // Discard everything after the last signature transaction (§4.2).
        self.truncate_to(self.last_sig.seqno.max(self.commit_seqno));
        self.role = Role::Primary;
        self.leader_hint = Some(self.id.clone());
        self.events.push(Event::BecamePrimary { view: self.view });
        let last = self.last_seqno();
        self.next_seqno.clear();
        self.match_seqno.clear();
        self.last_ack.clear();
        for peer in self.peers() {
            self.next_seqno.insert(peer.clone(), last + 1);
            self.match_seqno.insert(peer.clone(), 0);
            self.last_ack.insert(peer.clone(), self.now);
        }
        // The new view begins with a signature transaction (§4.2), which
        // becomes committable as soon as a quorum replicates it.
        self.unsigned_since_sig = 1; // force emission even right after a sig
        self.emit_signature();
        self.next_heartbeat = self.now + self.cfg.heartbeat_interval;
    }

    fn become_backup(&mut self, view: View, _reason: &str) {
        let was_leaderish = matches!(self.role, Role::Primary | Role::Candidate | Role::Retiring);
        if view > self.view {
            self.view = view;
            self.voted_for = None;
        }
        if self.role != Role::Retired && self.role != Role::Pending {
            self.role = Role::Backup;
        }
        if was_leaderish {
            self.events.push(Event::BecameBackup { view: self.view });
        }
        self.votes.clear();
        self.reset_election_timer();
    }

    /// Discards all ledger entries after `seqno`. Returns `false` — and
    /// leaves the log untouched — if that would roll back committed
    /// entries: commit is a durability promise (§4.1), so the guard must
    /// hold in release builds, not only under `debug_assert!`.
    fn truncate_to(&mut self, seqno: Seqno) -> bool {
        if seqno < self.commit_seqno {
            if let Some(m) = &self.metrics {
                m.invariant_rejections.inc();
                m.reg.flight(m.node, "invariant", "rejected", None, seqno, self.commit_seqno);
            }
            self.events.push(Event::InvariantRejected {
                reason: format!(
                    "truncate to {seqno} would roll back committed prefix {}",
                    self.commit_seqno
                ),
            });
            return false;
        }
        if seqno >= self.last_seqno() {
            return true;
        }
        if let Some(m) = &self.metrics {
            m.rollbacks.inc();
            m.rollback_entries.observe(self.last_seqno() - seqno);
            m.reg.flight(m.node, "rollback", "truncate", None, seqno, self.last_seqno() - seqno);
        }
        self.drop_rolled_back_traces(seqno);
        self.ledger.truncate((seqno - self.base_seqno) as usize);
        self.merkle.truncate(seqno);
        // Roll back active configurations introduced after the cut (§4.4);
        // the current configuration (seqno <= commit) always survives.
        self.active_configs.retain(|c| c.seqno <= seqno);
        debug_assert!(!self.active_configs.is_empty());
        // Roll back view history.
        self.view_history.retain(|&(_, start)| start <= seqno);
        // Recompute last signature from the surviving prefix.
        self.last_sig = self
            .ledger
            .iter()
            .rev()
            .find(|e| e.entry.kind == EntryKind::Signature)
            .map(|e| e.entry.txid)
            .unwrap_or(if self.base_seqno > 0 { self.base_txid } else { TxId::ZERO });
        self.unsigned_since_sig = self
            .ledger
            .iter()
            .rev()
            .take_while(|e| e.entry.kind != EntryKind::Signature)
            .count() as u64;
        self.events.push(Event::RolledBack { seqno });
        true
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Processes an incoming consensus message.
    pub fn receive(&mut self, from: &NodeId, msg: Message) {
        if self.role == Role::Retired {
            return;
        }
        match msg {
            Message::AppendEntries(m) => self.on_append_entries(from, m),
            Message::AppendEntriesResponse(m) => self.on_append_entries_response(m),
            Message::RequestVote(m) => self.on_request_vote(m),
            Message::RequestVoteResponse(m) => self.on_request_vote_response(m),
            Message::InstallSnapshot(m) => self.on_install_snapshot(m),
        }
    }

    fn on_append_entries(&mut self, from: &NodeId, m: AppendEntries) {
        if m.view < self.view {
            // Stale primary: reply negatively with our view (§4.2).
            self.outbox.push((
                from.clone(),
                Message::AppendEntriesResponse(AppendEntriesResponse {
                    view: self.view,
                    from: self.id.clone(),
                    success: false,
                    last_seqno: self.last_seqno(),
                    traces: Vec::new(),
                }),
            ));
            return;
        }
        if m.view > self.view || matches!(self.role, Role::Primary | Role::Candidate) {
            self.become_backup(m.view, "append_entries from current/newer primary");
        }
        if self.role == Role::Pending {
            // First contact from the service: we are now receiving the
            // ledger, though not yet participating in elections.
            self.role = Role::Backup;
        }
        self.leader_hint = Some(m.leader.clone());
        self.reset_election_timer();

        // Consistency check on the previous transaction ID (§4.1).
        let prev_ok = if m.prev.seqno < self.base_seqno {
            // The primary is sending from before our snapshot base; ask it
            // to fast-forward to our base.
            self.outbox.push((
                from.clone(),
                Message::AppendEntriesResponse(AppendEntriesResponse {
                    view: self.view,
                    from: self.id.clone(),
                    success: false,
                    last_seqno: self.base_seqno,
                    traces: Vec::new(),
                }),
            ));
            return;
        } else {
            self.txid_at(m.prev.seqno) == Some(m.prev)
        };
        if !prev_ok {
            // Mismatch: report our best guess at the latest common point.
            let hint = self.last_seqno().min(m.prev.seqno.saturating_sub(1));
            self.outbox.push((
                from.clone(),
                Message::AppendEntriesResponse(AppendEntriesResponse {
                    view: self.view,
                    from: self.id.clone(),
                    success: false,
                    last_seqno: hint,
                    traces: Vec::new(),
                }),
            ));
            return;
        }

        // Append, resolving conflicts in the primary's favour (§4.2).
        let mut appended_traces: Vec<TraceId> = Vec::new();
        for re in m.entries {
            let s = re.entry.txid.seqno;
            if s <= self.base_seqno {
                // Below our snapshot base: already covered by durable
                // state, nothing to compare against.
                continue;
            }
            match self.txid_at(s) {
                Some(local) if local == re.entry.txid => continue, // duplicate
                Some(_) if s <= self.commit_seqno => {
                    // An entry conflicting with our *committed* prefix can
                    // only come from a Byzantine or corrupted primary —
                    // quorum intersection guarantees an honest one extends
                    // what we committed. Refuse the whole message (§4.1);
                    // truncate_to would also refuse, but rejecting here
                    // records the violation before touching any state.
                    if let Some(m) = &self.metrics {
                        m.invariant_rejections.inc();
                        let peer = m.reg.node_ref(from);
                        m.reg.flight(m.node, "invariant", "rejected", Some(peer), s, self.commit_seqno);
                    }
                    self.events.push(Event::InvariantRejected {
                        reason: format!(
                            "append entries from {from} conflict at {s} below commit {}",
                            self.commit_seqno
                        ),
                    });
                    self.outbox.push((
                        from.clone(),
                        Message::AppendEntriesResponse(AppendEntriesResponse {
                            view: self.view,
                            from: self.id.clone(),
                            success: false,
                            last_seqno: self.commit_seqno,
                            traces: Vec::new(),
                        }),
                    ));
                    return;
                }
                Some(_) => {
                    // Conflicting uncommitted suffix: delete ours, then
                    // append. truncate_to refuses (returning false) if it
                    // would cross the commit point.
                    if !self.truncate_to(s - 1) {
                        self.outbox.push((
                            from.clone(),
                            Message::AppendEntriesResponse(AppendEntriesResponse {
                                view: self.view,
                                from: self.id.clone(),
                                success: false,
                                last_seqno: self.commit_seqno,
                                traces: Vec::new(),
                            }),
                        ));
                        return;
                    }
                    appended_traces.extend_from_slice(&re.traces);
                    self.append_local(re);
                }
                None => {
                    if s != self.last_seqno() + 1 {
                        // Gapped batch: the prev check passed but the
                        // entries skip ahead of our log. The old
                        // `debug_assert_eq!` vanished in release and we
                        // appended entries with holes below them; instead
                        // reply failure with our last seqno as the
                        // retransmission hint.
                        self.outbox.push((
                            from.clone(),
                            Message::AppendEntriesResponse(AppendEntriesResponse {
                                view: self.view,
                                from: self.id.clone(),
                                success: false,
                                last_seqno: self.last_seqno(),
                                traces: Vec::new(),
                            }),
                        ));
                        return;
                    }
                    appended_traces.extend_from_slice(&re.traces);
                    self.append_local(re);
                }
            }
        }

        // Advance commit from the primary's commit seqno, floored to the
        // newest signature transaction we hold: the commit point only ever
        // rests on signature transactions (§4.1), and when the primary's
        // commit outruns the entries delivered so far, the raw
        // `min(last_seqno)` could land mid-unsigned-block.
        let new_commit = m.commit_seqno.min(self.last_sig.seqno.max(self.base_seqno));
        if new_commit > self.commit_seqno {
            self.advance_commit_backup(new_commit);
        }

        self.outbox.push((
            from.clone(),
            Message::AppendEntriesResponse(AppendEntriesResponse {
                view: self.view,
                from: self.id.clone(),
                success: true,
                last_seqno: self.last_seqno(),
                traces: appended_traces,
            }),
        ));
    }

    /// Commit advancement on backups: same config pruning as the primary
    /// path, without the quorum search.
    fn advance_commit_backup(&mut self, seqno: Seqno) {
        self.commit_seqno = seqno;
        self.note_commit(seqno);
        self.close_committed_traces(seqno);
        self.events.push(Event::Committed { seqno });
        let was_in_current = self
            .active_configs
            .first()
            .is_some_and(|c| c.nodes.contains(&self.id));
        let newest_committed = self
            .active_configs
            .iter()
            .rev()
            .find(|c| c.seqno <= seqno)
            .map(|c| c.seqno);
        if let Some(newest) = newest_committed {
            self.active_configs.retain(|c| c.seqno >= newest);
        }
        let in_current = self
            .active_configs
            .first()
            .is_some_and(|c| c.nodes.contains(&self.id));
        if was_in_current
            && !in_current
            && self.active_configs.first().is_some_and(|c| c.seqno <= seqno)
        {
            self.events.push(Event::RetirementCommitted);
        }
    }

    fn on_append_entries_response(&mut self, m: AppendEntriesResponse) {
        if m.view > self.view {
            self.become_backup(m.view, "response from newer view");
            return;
        }
        if !matches!(self.role, Role::Primary | Role::Retiring) || m.view < self.view {
            return;
        }
        self.last_ack.insert(m.from.clone(), self.now);
        if m.success {
            let matched = self.match_seqno.entry(m.from.clone()).or_insert(0);
            *matched = (*matched).max(m.last_seqno);
            self.next_seqno.insert(m.from.clone(), m.last_seqno + 1);
            self.try_advance_commit();
            // Stream further entries if the peer is still behind.
            if m.last_seqno < self.last_seqno() {
                self.send_entries_to(&m.from.clone());
            }
        } else {
            if let Some(mm) = &self.metrics {
                mm.negative_acks.inc();
                mm.retransmits.inc();
            }
            // Jump straight to the peer's hint (§4.2) — in either
            // direction. The hint is the peer's last matching seqno (or
            // its snapshot base), so `hint + 1` is the exact next entry it
            // needs: a peer that truncated a conflicting suffix needs us
            // lower, while a freshly snapshot-restored follower reports a
            // base far *ahead* of our probe. The previous code clamped to
            // `current - 1`, degenerating to one-seqno-per-round-trip
            // catch-up (O(log length) round trips instead of O(1)).
            let next = (m.last_seqno + 1).min(self.last_seqno() + 1).max(1);
            self.next_seqno.insert(m.from.clone(), next);
            self.send_entries_to(&m.from.clone());
        }
    }

    fn on_request_vote(&mut self, m: RequestVote) {
        if m.view > self.view {
            self.become_backup(m.view, "vote request from newer view");
        }
        let up_to_date = m.last_signature.view > self.last_sig.view
            || (m.last_signature.view == self.last_sig.view
                && m.last_signature.seqno >= self.last_sig.seqno);
        let granted = m.view >= self.view
            && up_to_date
            && self.voted_for.as_ref().is_none_or(|v| v == &m.candidate);
        if granted {
            self.voted_for = Some(m.candidate.clone());
            self.reset_election_timer();
        }
        self.outbox.push((
            m.candidate.clone(),
            Message::RequestVoteResponse(RequestVoteResponse {
                view: self.view,
                from: self.id.clone(),
                granted,
            }),
        ));
    }

    fn on_request_vote_response(&mut self, m: RequestVoteResponse) {
        if m.view > self.view {
            self.become_backup(m.view, "vote response from newer view");
            return;
        }
        if self.role != Role::Candidate || m.view < self.view || !m.granted {
            return;
        }
        self.votes.insert(m.from);
        self.check_election_won();
    }

    fn on_install_snapshot(&mut self, m: InstallSnapshot) {
        if m.view < self.view {
            return;
        }
        if m.view > self.view || matches!(self.role, Role::Primary | Role::Candidate) {
            self.become_backup(m.view, "snapshot from current/newer primary");
        }
        if self.role == Role::Pending {
            self.role = Role::Backup;
        }
        self.leader_hint = Some(m.leader.clone());
        self.reset_election_timer();
        if m.snapshot.last_txid.seqno <= self.last_seqno() {
            // We already have everything the snapshot covers.
            self.outbox.push((
                m.leader.clone(),
                Message::AppendEntriesResponse(AppendEntriesResponse {
                    view: self.view,
                    from: self.id.clone(),
                    success: true,
                    last_seqno: self.last_seqno(),
                    traces: Vec::new(),
                }),
            ));
            return;
        }
        self.install_snapshot_internal(m.snapshot, false);
        let commit = m.commit_seqno.min(self.last_seqno());
        if commit > self.commit_seqno {
            self.commit_seqno = commit;
            self.note_commit(commit);
            self.events.push(Event::Committed { seqno: commit });
        }
        self.outbox.push((
            m.leader.clone(),
            Message::AppendEntriesResponse(AppendEntriesResponse {
                view: self.view,
                from: self.id.clone(),
                success: true,
                last_seqno: self.last_seqno(),
                traces: Vec::new(),
            }),
        ));
    }

    fn install_snapshot_internal(&mut self, snapshot: Snapshot, at_boot: bool) {
        self.ledger.clear();
        // Traced entries the snapshot replaces were committed elsewhere;
        // this node's view of them ends here (tokens die unexited).
        self.inflight_traces.clear();
        self.base_seqno = snapshot.last_txid.seqno;
        self.base_txid = snapshot.last_txid;
        self.merkle = MerkleTree::new();
        if let Some(m) = &self.metrics {
            m.snapshots_installed.inc();
            m.reg.flight(m.node, "snapshot", "installed", None, self.view, self.base_seqno);
            // The fresh tree must keep reporting into the same registry.
            self.merkle.set_registry(&m.reg);
        }
        for leaf in &snapshot.merkle_leaves {
            self.merkle.append_digest(*leaf);
        }
        self.active_configs = snapshot.configs.clone();
        self.view_history = snapshot.view_history.clone();
        // Never regress below the snapshot's views (fresh TxIds must sort
        // after everything the snapshot covers — e.g. disaster recovery).
        if let Some(&(max_view, _)) = self.view_history.last() {
            self.view = self.view.max(max_view);
        }
        self.last_sig = snapshot.last_txid;
        self.unsigned_since_sig = 0;
        self.commit_seqno = if at_boot { snapshot.last_txid.seqno } else { self.commit_seqno };
        self.participating = self
            .active_configs
            .iter()
            .any(|c| c.nodes.contains(&self.id));
        if self.participating && self.role == Role::Pending {
            // A snapshot that already includes this node's configuration
            // makes it a full participant (e.g. disaster recovery).
            self.role = Role::Backup;
            self.reset_election_timer();
        }
        self.events.push(Event::SnapshotInstalled { snapshot });
        if at_boot && self.commit_seqno > 0 {
            self.note_commit(self.commit_seqno);
            self.events.push(Event::Committed { seqno: self.commit_seqno });
        }
    }

    /// Builds a snapshot descriptor of the current committed prefix; the
    /// node layer supplies the serialized kv state matching `commit_seqno`.
    /// Returns None until the last committed entry is a signature tx (it
    /// always is, §4.1, except before the first signature).
    pub fn snapshot_descriptor(&self, kv_state: Vec<u8>) -> Option<Snapshot> {
        if self.commit_seqno == 0 {
            return None;
        }
        let last = self.txid_at(self.commit_seqno)?;
        let leaves = (0..self.commit_seqno)
            .map(|i| self.merkle.leaf(i).copied())
            .collect::<Option<Vec<_>>>()?;
        Some(Snapshot {
            last_txid: last,
            kv_state,
            merkle_leaves: leaves,
            configs: self
                .active_configs
                .iter()
                .filter(|c| c.seqno <= self.commit_seqno)
                .cloned()
                .collect(),
            view_history: self
                .view_history
                .iter()
                .filter(|&&(_, s)| s <= self.commit_seqno)
                .copied()
                .collect(),
        })
    }
}
