//! The chaos run loop, and its consensus-level target: [`run_chaos`]
//! applies a seeded [`FaultSchedule`] to any [`ChaosTarget`] while
//! checking safety invariants after every step; [`Cluster`] is the
//! consensus-level target, `ccf-core`'s service cluster the other.
//!
//! Everything — cluster timeouts, network latency, the fault schedule —
//! derives from the one seed, so `run_consensus_chaos(seed, …)` is a pure
//! function: a failing seed replays bit-for-bit, and schedule shrinking
//! (re-running with events removed) is meaningful.

use crate::harness::Cluster;
use crate::invariants::{forensics, Forensics, InvariantChecker, Violation};
use crate::replica::ReplicaConfig;
use crate::{Config, NodeId, Seqno};
use ccf_sim::nemesis::{FaultSchedule, NemesisOp};
use ccf_sim::{NetConfig, Time};

/// Outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the run (cluster + schedule) derives from.
    pub seed: u64,
    /// Simulation steps executed.
    pub steps: u64,
    /// Highest commit seqno reached on any node.
    pub max_commit: Seqno,
    /// Client transactions successfully proposed.
    pub proposals: u64,
    /// Fault events actually applied.
    pub faults_applied: usize,
    /// Invariant violations (empty = run passed).
    pub violations: Vec<Violation>,
    /// End-of-run observability snapshot (deterministic in the seed:
    /// same-seed runs produce `==` snapshots and byte-identical JSON).
    pub metrics: ccf_obs::Snapshot,
    /// Crash-forensics bundle (flight-recorder tail + critical paths of
    /// affected traces), assembled only when an invariant tripped.
    pub forensics: Option<Forensics>,
}

impl ChaosReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replica timing used by chaos runs: aggressive signature cadence so the
/// commit point keeps moving even between client bursts.
pub fn chaos_replica_config() -> ReplicaConfig {
    ReplicaConfig {
        election_timeout: (150, 300),
        heartbeat_interval: 20,
        leadership_ack_window: 400,
        signature_interval: 4,
        signature_interval_ms: 25,
        max_batch: 64,
    }
}

/// Network parameters chaos runs start from (the schedule mutates
/// latency/drop/duplication as it goes).
pub fn chaos_net_config() -> NetConfig {
    NetConfig { latency: (1, 10), drop_probability: 0.0 }
}

/// Nodes a consensus chaos run starts with. Nodes never leave the
/// cluster's map, so the number added so far is `replicas.len()` minus
/// this.
const CHAOS_NODES: usize = 5;

/// A cluster a chaos run can drive: everything [`run_chaos`] needs beyond
/// the simulator itself, which each target reaches through its own
/// [`ccf_sim::SimNet`].
pub trait ChaosTarget {
    /// Current virtual time (ms).
    fn now(&self) -> Time;
    /// Advances the target by one simulation step.
    fn step(&mut self);
    /// Feeds the target's new state and events to `checker`.
    fn check(&mut self, checker: &mut InvariantChecker);
    /// Applies one fault event. `report.faults_applied` already counts it;
    /// the op may add proposals or violations.
    fn apply(&mut self, op: &NemesisOp, report: &mut ChaosReport);
    /// End-of-run bookkeeping: sets `report.max_commit` and runs any
    /// target-specific final checks.
    fn finish(&mut self, report: &mut ChaosReport);
    /// The registry shared by every node and the network.
    fn obs(&self) -> &ccf_obs::Registry;
}

/// Drives `target` under `schedule` for `horizon` virtual ms past its
/// current time, checking invariants after every step; on the first
/// violation it stops and bundles forensics. Event times in `schedule`
/// are offsets from the target's start time. Deterministic in the
/// target's seed, `schedule` and `horizon`.
pub fn run_chaos(
    target: &mut impl ChaosTarget,
    seed: u64,
    schedule: &FaultSchedule,
    horizon: Time,
) -> ChaosReport {
    let mut checker = InvariantChecker::new();
    let mut report = ChaosReport {
        seed,
        steps: 0,
        max_commit: 0,
        proposals: 0,
        faults_applied: 0,
        violations: Vec::new(),
        metrics: ccf_obs::Snapshot::default(),
        forensics: None,
    };
    let start = target.now();
    let mut events = schedule.events.iter().peekable();
    while target.now() - start < horizon {
        let offset = target.now() - start;
        while let Some(event) = events.next_if(|e| e.at <= offset) {
            report.faults_applied += 1;
            target.apply(&event.op, &mut report);
        }
        target.step();
        report.steps += 1;
        target.check(&mut checker);
        if !checker.ok() {
            report.forensics = Some(forensics(target.obs(), 64, 4));
            break;
        }
    }
    target.finish(&mut report);
    report.violations.extend(checker.violations().iter().cloned());
    if !report.violations.is_empty() && report.forensics.is_none() {
        // Violations `apply` or `finish` found surface outside the loop.
        report.forensics = Some(forensics(target.obs(), 64, 4));
    }
    report.metrics = target.obs().snapshot();
    report
}

/// Runs a 5-node cluster under `schedule` for `horizon` virtual ms,
/// checking invariants after every step. Deterministic in `(seed,
/// schedule, horizon)`.
pub fn run_consensus_chaos(seed: u64, schedule: &FaultSchedule, horizon: Time) -> ChaosReport {
    let mut cluster = Cluster::new(CHAOS_NODES, chaos_replica_config(), chaos_net_config(), seed);
    run_chaos(&mut cluster, seed, schedule, horizon)
}

impl ChaosTarget for Cluster {
    fn now(&self) -> Time {
        Cluster::now(self)
    }

    fn step(&mut self) {
        Cluster::step(self)
    }

    fn check(&mut self, checker: &mut InvariantChecker) {
        checker.check_cluster(self);
    }

    fn apply(&mut self, op: &NemesisOp, report: &mut ChaosReport) {
        let ids: Vec<NodeId> = self.replicas.keys().cloned().collect();
        let (live, primary) = (self.live_ids(), self.primary());
        if op.apply_to_net(&mut self.net, &ids, &live, primary.as_ref()) {
            return;
        }
        match op {
            NemesisOp::ClientBurst(k) => {
                for i in 0..*k {
                    let payload = format!("chaos-{}-{}", report.faults_applied, i);
                    if self.propose(payload.as_bytes()).is_ok() {
                        report.proposals += 1;
                    }
                }
            }
            NemesisOp::AddNode => {
                // Cap growth; every other join bootstraps from a snapshot
                // of the current primary (snapshot-join under churn).
                if self.replicas.len() >= 9 {
                    return;
                }
                let added = self.replicas.len() - CHAOS_NODES;
                let id = format!("c{added}");
                let snapshot = if (added + 1).is_multiple_of(2) {
                    self.primary().and_then(|p| {
                        let snap = self.replicas[&p].snapshot_descriptor(Vec::new());
                        if let Some(s) = snap.clone() {
                            self.replicas.get_mut(&p).unwrap().set_latest_snapshot(s);
                        }
                        snap
                    })
                } else {
                    None
                };
                self.add_node(id.clone(), chaos_replica_config(), snapshot);
                if let Some(p) = self.primary() {
                    let mut config: Config = self.replicas[&p].config_union();
                    config.insert(id);
                    let _ = self.propose_reconfig(&config);
                }
            }
            NemesisOp::RemoveNode(slot) => {
                if let Some(p) = self.primary() {
                    let config: Config = self.replicas[&p].config_union();
                    if config.len() > 2 {
                        let ids: Vec<NodeId> = config.iter().cloned().collect();
                        let victim = ids[slot % ids.len()].clone();
                        let remaining: Config =
                            config.into_iter().filter(|n| n != &victim).collect();
                        let _ = self.propose_reconfig(&remaining);
                    }
                }
            }
            _ => unreachable!("apply_to_net applies every other op"),
        }
    }

    fn finish(&mut self, report: &mut ChaosReport) {
        report.max_commit = self.replicas.values().map(|r| r.commit_seqno()).max().unwrap_or(0);
    }

    fn obs(&self) -> &ccf_obs::Registry {
        Cluster::obs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_runs_produce_identical_metrics_snapshots() {
        let schedule = FaultSchedule::generate(11, 5_000, 10);
        let a = run_consensus_chaos(11, &schedule, 5_000);
        let b = run_consensus_chaos(11, &schedule, 5_000);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        // And the run actually exercised the instrumented paths.
        let commits = a.metrics.counters.get("consensus.commits").copied().unwrap_or(0);
        assert!(commits > 0, "chaos run produced no commits: {:?}", a.metrics.counters);
        assert!(a.metrics.counters.get("net.messages_sent").copied().unwrap_or(0) > 0);
    }
}
