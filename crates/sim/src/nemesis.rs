//! Seeded fault-schedule generation ("nemesis") for chaos testing.
//!
//! CCF itself is validated with model checking plus structured fuzzing
//! (the follow-up "Smart Casual Verification" paper); this module is the
//! native equivalent for our deterministic simulator. A [`FaultSchedule`]
//! is a list of timed fault operations drawn from one seeded generator,
//! so any run — and any failure — replays bit-for-bit from its seed.
//!
//! The schedule is *harness-agnostic*: operations name nodes by abstract
//! slot index, which the consensus- and service-level drivers resolve
//! against their live membership at application time. That keeps one
//! schedule meaningful for both harnesses and keeps schedules valid under
//! shrinking (removing an event never invalidates later ones).

use crate::{NodeId, SimNet, Time};
use ccf_crypto::chacha::ChaChaRng;

/// One fault operation. Node references are abstract slot indices,
/// resolved modulo the harness's current node count when applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NemesisOp {
    /// Crash whichever node currently believes it is primary (if any).
    KillPrimary,
    /// Crash the node at this slot.
    KillNode(usize),
    /// Restart a previously crashed node (no-op if none are down).
    RestartNode(usize),
    /// Split the cluster in two: slots `< left` on one side, rest on the
    /// other (degenerate splits become no-ops at application time).
    Partition {
        /// Number of slots in the first group.
        left: usize,
    },
    /// Block the directed link `from → to` only (asymmetric partition).
    OneWayBlock {
        /// Sender slot whose messages are dropped.
        from: usize,
        /// Receiver slot that stops hearing `from`.
        to: usize,
    },
    /// Clear all partitions and one-way blocks.
    Heal,
    /// Set message-duplication probability, in percent.
    SetDuplication(u8),
    /// Set message-drop probability, in percent.
    SetDrop(u8),
    /// Set the latency window (wider window ⇒ more reordering).
    SetLatency {
        /// Minimum latency (ms).
        lo: Time,
        /// Maximum latency (ms, exclusive).
        hi: Time,
    },
    /// Submit a burst of client transactions at the current primary.
    ClientBurst(usize),
    /// Start adding a fresh node to the configuration (reconfiguration
    /// race fodder — may land mid-election). Drivers that cannot add
    /// nodes treat it as a no-op.
    AddNode,
    /// Start removing the node at this slot from the configuration.
    RemoveNode(usize),
}

impl NemesisOp {
    /// Applies an infrastructure fault (a kill, restart, partition,
    /// one-way block, heal, or a duplication, drop or latency setting) to
    /// `net` and returns `true`. Returns `false`, changing nothing, for the
    /// ops only a driver can apply: [`NemesisOp::ClientBurst`],
    /// [`NemesisOp::AddNode`] and [`NemesisOp::RemoveNode`].
    ///
    /// `ids` are all of the driver's nodes in slot order, `live` the ones a
    /// kill may pick, and `primary` the node [`NemesisOp::KillPrimary`]
    /// crashes. A kill never takes down the last live node.
    pub fn apply_to_net<M: Eq + Clone>(
        &self,
        net: &mut SimNet<M>,
        ids: &[NodeId],
        live: &[NodeId],
        primary: Option<&NodeId>,
    ) -> bool {
        match self {
            NemesisOp::KillPrimary => {
                if let Some(p) = primary.filter(|_| live.len() > 1) {
                    net.crash(p);
                }
            }
            NemesisOp::KillNode(slot) => {
                if live.len() > 1 {
                    net.crash(&live[slot % live.len()]);
                }
            }
            NemesisOp::RestartNode(slot) => {
                let down: Vec<&NodeId> = ids.iter().filter(|id| net.is_crashed(id)).collect();
                if !down.is_empty() {
                    net.restart(down[slot % down.len()]);
                }
            }
            NemesisOp::Partition { left } => {
                if ids.len() > 1 {
                    let (a, b) = ids.split_at((*left).clamp(1, ids.len() - 1));
                    net.partition(vec![a.iter().cloned().collect(), b.iter().cloned().collect()]);
                }
            }
            NemesisOp::OneWayBlock { from, to } => {
                let (f, t) = (&ids[from % ids.len()], &ids[to % ids.len()]);
                if f != t {
                    net.block_link(f, t);
                }
            }
            NemesisOp::Heal => net.heal(),
            NemesisOp::SetDuplication(p) => net.set_duplicate_probability(f64::from(*p) / 100.0),
            NemesisOp::SetDrop(p) => net.set_drop_probability(f64::from(*p) / 100.0),
            NemesisOp::SetLatency { lo, hi } => net.set_latency(*lo, *hi),
            NemesisOp::ClientBurst(_) | NemesisOp::AddNode | NemesisOp::RemoveNode(_) => {
                return false
            }
        }
        true
    }
}

/// A fault operation pinned to a virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (ms) at which the driver applies the op.
    pub at: Time,
    /// The operation.
    pub op: NemesisOp,
}

/// A generated, replayable schedule of fault events (sorted by time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed the schedule was generated from (0 for hand-built ones).
    pub seed: u64,
    /// Events in non-decreasing time order.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Generates a mixed schedule of `max_events` faults spread over
    /// `[0, horizon)` virtual ms, deterministically from `seed`.
    ///
    /// Generation uses its own RNG stream (derived from the seed but
    /// separate from the execution RNG), so two runs of the same seed see
    /// the same schedule even if the harnesses consume different amounts
    /// of execution randomness.
    pub fn generate(seed: u64, horizon: Time, max_events: usize) -> FaultSchedule {
        let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x4e45_4d45_5349_5321); // "NEMESIS!"
        let mut events = Vec::with_capacity(max_events);
        for _ in 0..max_events {
            let at = rng.gen_range(horizon.max(1));
            let op = match rng.gen_range(13) {
                0 | 1 => NemesisOp::KillPrimary,
                2 => NemesisOp::KillNode(rng.gen_range(8) as usize),
                3 => NemesisOp::RestartNode(rng.gen_range(8) as usize),
                4 => NemesisOp::Partition { left: 1 + rng.gen_range(4) as usize },
                5 => NemesisOp::OneWayBlock {
                    from: rng.gen_range(8) as usize,
                    to: rng.gen_range(8) as usize,
                },
                6 | 7 => NemesisOp::Heal,
                8 => NemesisOp::SetDuplication(rng.gen_range(30) as u8),
                9 => NemesisOp::SetDrop(rng.gen_range(20) as u8),
                10 => {
                    let lo = 1 + rng.gen_range(5);
                    NemesisOp::SetLatency { lo, hi: lo + 1 + rng.gen_range(40) }
                }
                11 => NemesisOp::ClientBurst(1 + rng.gen_range(8) as usize),
                _ => {
                    if rng.gen_bool(0.5) {
                        NemesisOp::AddNode
                    } else {
                        NemesisOp::RemoveNode(rng.gen_range(8) as usize)
                    }
                }
            };
            events.push(FaultEvent { at, op });
        }
        events.sort_by_key(|e| e.at);
        FaultSchedule { seed, events }
    }

    /// Shrinks this schedule to a locally minimal one that still makes
    /// `still_fails` return true (delta debugging: drop halves, then
    /// quarters, … then single events). The input schedule must itself
    /// fail; the result is a subsequence of it.
    pub fn shrink(&self, still_fails: &mut dyn FnMut(&FaultSchedule) -> bool) -> FaultSchedule {
        let mut current = self.clone();
        let mut chunk = (current.events.len() / 2).max(1);
        loop {
            let mut progressed = false;
            let mut start = 0;
            while start < current.events.len() {
                let end = (start + chunk).min(current.events.len());
                let mut candidate = current.clone();
                candidate.events.drain(start..end);
                if still_fails(&candidate) {
                    current = candidate;
                    progressed = true;
                    // Retry the same offset: the next chunk slid into it.
                } else {
                    start = end;
                }
            }
            if chunk == 1 && !progressed {
                return current;
            }
            if !progressed {
                chunk = (chunk / 2).max(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultSchedule::generate(42, 60_000, 24);
        let b = FaultSchedule::generate(42, 60_000, 24);
        assert_eq!(a, b);
        let c = FaultSchedule::generate(43, 60_000, 24);
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_time_sorted_and_bounded() {
        let s = FaultSchedule::generate(7, 10_000, 50);
        assert_eq!(s.events.len(), 50);
        for w in s.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(s.events.iter().all(|e| e.at < 10_000));
    }

    #[test]
    fn shrink_finds_single_culprit() {
        // Failure iff the schedule still contains a KillPrimary event.
        let s = FaultSchedule::generate(11, 10_000, 40);
        assert!(s.events.iter().any(|e| e.op == NemesisOp::KillPrimary));
        let shrunk = s.shrink(&mut |c: &FaultSchedule| {
            c.events.iter().any(|e| e.op == NemesisOp::KillPrimary)
        });
        assert_eq!(shrunk.events.len(), 1);
        assert_eq!(shrunk.events[0].op, NemesisOp::KillPrimary);
    }

    #[test]
    fn shrink_preserves_failing_pairs() {
        // Failure needs both a Heal and a ClientBurst — shrink must keep
        // one of each and nothing else.
        let s = FaultSchedule::generate(13, 10_000, 60);
        let fails = |c: &FaultSchedule| {
            c.events.iter().any(|e| e.op == NemesisOp::Heal)
                && c.events.iter().any(|e| matches!(e.op, NemesisOp::ClientBurst(_)))
        };
        assert!(fails(&s));
        let shrunk = s.shrink(&mut |c| fails(c));
        assert_eq!(shrunk.events.len(), 2);
    }

    fn ids(names: &[&str]) -> Vec<NodeId> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn net() -> SimNet<u32> {
        SimNet::new(crate::NetConfig { latency: (1, 2), drop_probability: 0.0 }, 1)
    }

    /// Sends one message from `a` to `b` and reports whether it arrived.
    fn reaches(net: &mut SimNet<u32>, a: &str, b: &str) -> bool {
        net.send(&a.to_string(), &b.to_string(), 0);
        !net.deliveries_until(net.now() + 100).is_empty()
    }

    #[test]
    fn kills_and_restarts_pick_their_slots() {
        let all = ids(&["a", "b", "c"]);
        let mut net = net();
        assert!(NemesisOp::KillPrimary.apply_to_net(&mut net, &all, &all, Some(&all[1])));
        assert!(net.is_crashed("b"));
        let live = ids(&["a", "c"]);
        assert!(NemesisOp::KillNode(3).apply_to_net(&mut net, &all, &live, None));
        assert!(net.is_crashed("c") && !net.is_crashed("a"));
        // Down nodes in slot order are [b, c]: slot 3 picks c.
        assert!(NemesisOp::RestartNode(3).apply_to_net(&mut net, &all, &ids(&["a"]), None));
        assert!(net.is_crashed("b") && !net.is_crashed("c"));
    }

    #[test]
    fn kills_never_take_down_the_last_live_node() {
        let all = ids(&["a", "b"]);
        let live = ids(&["a"]);
        let mut net = net();
        net.crash("b");
        assert!(NemesisOp::KillPrimary.apply_to_net(&mut net, &all, &live, Some(&live[0])));
        assert!(NemesisOp::KillNode(0).apply_to_net(&mut net, &all, &live, None));
        assert!(!net.is_crashed("a"));
    }

    #[test]
    fn partitions_blocks_and_heal_shape_reachability() {
        let all = ids(&["a", "b", "c"]);
        let mut net = net();
        assert!(NemesisOp::Partition { left: 1 }.apply_to_net(&mut net, &all, &all, None));
        assert!(!reaches(&mut net, "a", "b"));
        assert!(reaches(&mut net, "b", "c"));
        assert!(NemesisOp::Heal.apply_to_net(&mut net, &all, &all, None));
        assert!(reaches(&mut net, "a", "b"));
        // Slots wrap: from 3 is a, to 4 is b.
        assert!(NemesisOp::OneWayBlock { from: 3, to: 4 }.apply_to_net(&mut net, &all, &all, None));
        assert!(!reaches(&mut net, "a", "b"));
        assert!(reaches(&mut net, "b", "a"));
        assert!(NemesisOp::Heal.apply_to_net(&mut net, &all, &all, None));
        assert!(reaches(&mut net, "a", "b"));
    }

    #[test]
    fn link_settings_reach_the_net() {
        let all = ids(&["a", "b"]);
        let mut net = net();
        assert!(NemesisOp::SetDuplication(100).apply_to_net(&mut net, &all, &all, None));
        net.send(&all[0], &all[1], 1);
        assert_eq!(net.deliveries_until(100).len(), 2);
        assert!(NemesisOp::SetDuplication(0).apply_to_net(&mut net, &all, &all, None));
        assert!(NemesisOp::SetLatency { lo: 7, hi: 8 }.apply_to_net(&mut net, &all, &all, None));
        net.send(&all[0], &all[1], 2);
        let d = net.deliveries_until(net.now() + 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, 107);
        assert!(NemesisOp::SetDrop(100).apply_to_net(&mut net, &all, &all, None));
        assert!(!reaches(&mut net, "a", "b"));
    }

    #[test]
    fn driver_ops_are_left_to_the_driver() {
        let all = ids(&["a", "b", "c"]);
        let mut net = net();
        for op in [NemesisOp::ClientBurst(3), NemesisOp::AddNode, NemesisOp::RemoveNode(1)] {
            assert!(!op.apply_to_net(&mut net, &all, &all, Some(&all[0])));
        }
        assert!(all.iter().all(|id| !net.is_crashed(id)));
        assert!(reaches(&mut net, "a", "b"));
    }
}
