//! A deterministic discrete-event network simulator.
//!
//! The paper evaluates CCF on Azure VMs; this reproduction substitutes a
//! simulator for the experiments that need *controlled fault timing* —
//! primary kills, partitions, message loss, reconfiguration races
//! (Figure 9 and the consensus test-suite). Time is virtual, every delay
//! and drop decision comes from one seeded generator, and therefore every
//! run replays bit-for-bit from its seed.
//!
//! The simulator is generic over the message type: `ccf-consensus` drives
//! it with consensus RPCs, `ccf-core` with full node-to-node traffic.
//!
//! [`SimNet`] is the one simulator core under both cluster harnesses: it
//! owns the virtual clock and the set of crashed nodes, and
//! [`SimNet::step`] is the step loop. Each call advances time by 1 ms,
//! hands every message now due to its recipient as [`Input::Message`],
//! then ticks each live node with [`Input::Tick`], and sends whatever
//! each call returns from the node it was made for. The harness supplies
//! the nodes as a closure, so one loop drives consensus replicas and full
//! service nodes alike. [`nemesis::NemesisOp::apply_to_net`] is the one
//! applier of infrastructure faults (crashes, partitions, link faults).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod nemesis;

use ccf_crypto::chacha::ChaChaRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, BTreeSet, HashSet};

/// Virtual time in milliseconds.
pub type Time = u64;

/// A node identifier (matches `ccf_consensus::NodeId`).
pub type NodeId = String;

/// Link behaviour parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Message latency range [min, max) in ms.
    pub latency: (Time, Time),
    /// Probability of silently dropping any message.
    pub drop_probability: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { latency: (1, 5), drop_probability: 0.0 }
    }
}

#[derive(PartialEq, Eq)]
struct Scheduled<M> {
    deliver_at: Time,
    seq: u64, // FIFO tiebreak for equal times — determinism
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M: Eq> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl<M: Eq> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What [`SimNet::step`] hands a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input<M> {
    /// A message from the given sender, due now.
    Message(NodeId, M),
    /// The per-step timer tick, carrying the new virtual time.
    Tick(Time),
}

/// A message delivered by [`SimNet::deliveries_until`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Virtual delivery time.
    pub at: Time,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// The message.
    pub msg: M,
}

/// The simulated network: a priority queue of in-flight messages plus
/// fault state (crashed nodes, partitions).
pub struct SimNet<M> {
    cfg: NetConfig,
    rng: ChaChaRng,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
    now: Time,
    crashed: HashSet<NodeId>,
    /// Partition groups: nodes in different groups cannot communicate.
    /// Empty = fully connected.
    partition_groups: Vec<BTreeSet<NodeId>>,
    /// Directional blocks: `(from, to)` pairs whose messages are dropped
    /// even when the partition groups would allow them (asymmetric /
    /// one-way partitions, the classic "A hears B but B not A" fault).
    blocked_links: HashSet<(NodeId, NodeId)>,
    /// Probability of scheduling a second, independently delayed copy of
    /// any message (duplication fault; 0 = off).
    duplicate_probability: f64,
    sent: u64,
    dropped: u64,
    /// Mirrors of `sent`/`dropped` in an attached observability registry
    /// (`net.messages_sent` / `net.messages_dropped`), if any.
    metrics: Option<(ccf_obs::Counter, ccf_obs::Counter)>,
    /// The attached registry itself, for flight-recorder events.
    reg: Option<ccf_obs::Registry>,
    /// Classifies messages into short static tags ("append_entries",
    /// "request_vote", …) for the flight recorder. A plain `fn` pointer
    /// keeps the simulator dependency-free and `SimNet` comparable.
    tagger: Option<fn(&M) -> &'static str>,
}

impl<M: Eq + Clone> SimNet<M> {
    /// Creates a network with the given behaviour and seed.
    pub fn new(cfg: NetConfig, seed: u64) -> SimNet<M> {
        SimNet {
            cfg,
            rng: ChaChaRng::seed_from_u64(seed ^ 0x5157_0000_0000_0000),
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            crashed: HashSet::new(),
            partition_groups: Vec::new(),
            blocked_links: HashSet::new(),
            duplicate_probability: 0.0,
            sent: 0,
            dropped: 0,
            metrics: None,
            reg: None,
            tagger: None,
        }
    }

    /// Attaches observability counters (`net.messages_sent`,
    /// `net.messages_dropped`) from `reg`; they track the same totals as
    /// [`SimNet::sent_count`] / [`SimNet::dropped_count`] from this point
    /// on.
    pub fn set_registry(&mut self, reg: &ccf_obs::Registry) {
        self.metrics = Some((reg.counter("net.messages_sent"), reg.counter("net.messages_dropped")));
        self.reg = Some(reg.clone());
    }

    /// Enables flight-recorder events for network activity: every
    /// send/drop/recv is logged to the attached registry's bounded flight
    /// ring, tagged by `tagger` (e.g. `Message::kind`). Requires
    /// [`SimNet::set_registry`]; without a tagger, no net events are
    /// recorded (protocol layers still record their own).
    pub fn set_flight_tagger(&mut self, tagger: fn(&M) -> &'static str) {
        self.tagger = Some(tagger);
    }

    /// Records a net flight event if a registry and tagger are attached.
    fn flight(&self, kind: &'static str, from: &NodeId, to: &NodeId, msg: &M, at: Time) {
        if let (Some(reg), Some(tagger)) = (&self.reg, self.tagger) {
            let f = reg.node_ref(from);
            let t = reg.node_ref(to);
            reg.flight(f, kind, tagger(msg), Some(t), at, 0);
        }
    }

    fn count_sent(&mut self) {
        self.sent += 1;
        if let Some((sent, _)) = &self.metrics {
            sent.inc();
        }
    }

    fn count_dropped(&mut self) {
        self.dropped += 1;
        if let Some((_, dropped)) = &self.metrics {
            dropped.inc();
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total messages offered to the network.
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Messages lost to drops, crashes, or partitions.
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Whether a message from `a` can currently reach `b` (directional:
    /// one-way blocks apply to the `(a, b)` direction only).
    fn can_communicate(&self, a: &NodeId, b: &NodeId) -> bool {
        if self.blocked_links.contains(&(a.clone(), b.clone())) {
            return false;
        }
        if self.partition_groups.is_empty() {
            return true;
        }
        let group_of = |n: &NodeId| self.partition_groups.iter().position(|g| g.contains(n));
        match (group_of(a), group_of(b)) {
            (Some(ga), Some(gb)) => ga == gb,
            // Nodes not mentioned in any group are unreachable during a
            // partition only if the other side is grouped elsewhere; treat
            // ungrouped nodes as a separate implicit group.
            (None, None) => true,
            _ => false,
        }
    }

    /// True when a message queued from `s.from` to `s.to` would be dropped
    /// rather than delivered if it came due right now.
    fn undeliverable(&self, to: &NodeId, from: &NodeId) -> bool {
        self.crashed.contains(to) || !self.can_communicate(from, to)
    }

    /// Sends `msg` from `from` to `to`, subject to faults and latency.
    pub fn send(&mut self, from: &NodeId, to: &NodeId, msg: M) {
        self.count_sent();
        self.flight("send", from, to, &msg, self.now);
        if self.crashed.contains(from) || self.crashed.contains(to) {
            self.count_dropped();
            self.flight("drop", from, to, &msg, self.now);
            return;
        }
        if !self.can_communicate(from, to) {
            self.count_dropped();
            self.flight("drop", from, to, &msg, self.now);
            return;
        }
        if self.cfg.drop_probability > 0.0 && self.rng.gen_bool(self.cfg.drop_probability) {
            self.count_dropped();
            self.flight("drop", from, to, &msg, self.now);
            return;
        }
        let (lo, hi) = self.cfg.latency;
        let delay = self.rng.gen_range_in(lo, hi.max(lo + 1));
        // Duplication fault: occasionally schedule a second copy with an
        // independent delay, so the receiver sees the same message twice,
        // possibly out of order with its neighbours.
        let duplicate = self.duplicate_probability > 0.0
            && self.rng.gen_bool(self.duplicate_probability);
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            deliver_at: self.now + delay,
            seq: self.seq,
            from: from.clone(),
            to: to.clone(),
            msg: msg.clone(),
        }));
        if duplicate {
            let delay2 = self.rng.gen_range_in(lo, hi.max(lo + 1) * 2);
            self.seq += 1;
            self.queue.push(Reverse(Scheduled {
                deliver_at: self.now + delay2,
                seq: self.seq,
                from: from.clone(),
                to: to.clone(),
                msg,
            }));
        }
    }

    /// Pops every message due at or before `t`, advancing time to `t`.
    /// Messages to nodes that crashed after sending are dropped at
    /// delivery time.
    pub fn deliveries_until(&mut self, t: Time) -> Vec<Delivery<M>> {
        self.now = self.now.max(t);
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.deliver_at > t {
                break;
            }
            let Reverse(s) = self.queue.pop().unwrap();
            if self.undeliverable(&s.to, &s.from) {
                self.count_dropped();
                self.flight("drop", &s.from, &s.to, &s.msg, s.deliver_at);
                continue;
            }
            self.flight("recv", &s.from, &s.to, &s.msg, s.deliver_at);
            out.push(Delivery { at: s.deliver_at, from: s.from, to: s.to, msg: s.msg });
        }
        out
    }

    /// Advances virtual time by 1 ms and drives the nodes through it.
    ///
    /// Sets the attached registry's clock, hands each message now due to
    /// its recipient as [`Input::Message`], then calls `node` with
    /// [`Input::Tick`] for each live node in `ids` order. Whatever a call
    /// returns is sent from the node it was made for. Crashed nodes get
    /// neither messages nor ticks.
    pub fn step(
        &mut self,
        ids: &[NodeId],
        mut node: impl FnMut(&NodeId, Input<M>) -> Vec<(NodeId, M)>,
    ) {
        let now = self.now + 1;
        if let Some(reg) = &self.reg {
            reg.set_now(now);
        }
        for d in self.deliveries_until(now) {
            for (to, msg) in node(&d.to, Input::Message(d.from, d.msg)) {
                self.send(&d.to, &to, msg);
            }
        }
        for id in ids {
            if self.crashed.contains(id) {
                continue;
            }
            for (to, msg) in node(id, Input::Tick(now)) {
                self.send(id, &to, msg);
            }
        }
    }

    /// Marks a node as crashed: it sends and receives nothing, and
    /// [`SimNet::step`] stops ticking it.
    pub fn crash(&mut self, node: &str) {
        self.crashed.insert(node.to_string());
    }

    /// Revives a crashed node: it is ticked and reachable again, with
    /// whatever state its harness kept.
    pub fn restart(&mut self, node: &str) {
        self.crashed.remove(node);
    }

    /// True if the node is currently crashed.
    pub fn is_crashed(&self, node: &str) -> bool {
        self.crashed.contains(node)
    }

    /// Imposes a partition: nodes can only reach others in their group.
    pub fn partition(&mut self, groups: Vec<BTreeSet<NodeId>>) {
        self.partition_groups = groups;
    }

    /// Removes any partition and all one-way blocks.
    pub fn heal(&mut self) {
        self.partition_groups.clear();
        self.blocked_links.clear();
    }

    /// Blocks the directed link `from → to` (asymmetric partition): `to`
    /// stops hearing `from`, while the reverse direction still works.
    pub fn block_link(&mut self, from: &NodeId, to: &NodeId) {
        self.blocked_links.insert((from.clone(), to.clone()));
    }

    /// Sets the probability that a sent message is scheduled twice.
    pub fn set_duplicate_probability(&mut self, p: f64) {
        self.duplicate_probability = p.clamp(0.0, 1.0);
    }

    /// Sets the drop probability at runtime (lossy-window faults).
    pub fn set_drop_probability(&mut self, p: f64) {
        self.cfg.drop_probability = p.clamp(0.0, 1.0);
    }

    /// Sets the latency range at runtime (reordering widens the window).
    pub fn set_latency(&mut self, lo: Time, hi: Time) {
        self.cfg.latency = (lo, hi.max(lo + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> NodeId {
        s.to_string()
    }

    #[test]
    fn delivers_in_time_order() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig { latency: (1, 10), drop_probability: 0.0 }, 1);
        for i in 0..50 {
            net.send(&n("a"), &n("b"), i);
        }
        let deliveries = net.deliveries_until(100);
        assert_eq!(deliveries.len(), 50);
        let times: Vec<_> = deliveries.iter().map(|d| d.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        // All 50 payloads arrive exactly once.
        let mut payloads: Vec<_> = deliveries.iter().map(|d| d.msg).collect();
        payloads.sort();
        assert_eq!(payloads, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_from_seed() {
        let run = |seed| {
            let mut net: SimNet<u32> =
                SimNet::new(NetConfig { latency: (1, 20), drop_probability: 0.3 }, seed);
            for i in 0..100 {
                net.send(&n("a"), &n("b"), i);
            }
            net.deliveries_until(1000)
                .into_iter()
                .map(|d| (d.at, d.msg))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn crash_blocks_traffic() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig::default(), 1);
        net.send(&n("a"), &n("b"), 1);
        net.crash(&n("b"));
        // In-flight message to a crashed node is dropped at delivery.
        assert!(net.deliveries_until(100).is_empty());
        net.send(&n("a"), &n("b"), 2);
        net.send(&n("b"), &n("a"), 3);
        assert!(net.deliveries_until(200).is_empty());
        net.restart(&n("b"));
        net.send(&n("a"), &n("b"), 4);
        let d = net.deliveries_until(300);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, 4);
    }

    #[test]
    fn partitions_block_cross_group_traffic() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig::default(), 1);
        net.partition(vec![
            BTreeSet::from([n("a"), n("b")]),
            BTreeSet::from([n("c")]),
        ]);
        net.send(&n("a"), &n("b"), 1);
        net.send(&n("a"), &n("c"), 2);
        let d = net.deliveries_until(100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, 1);
        net.heal();
        net.send(&n("a"), &n("c"), 3);
        assert_eq!(net.deliveries_until(200).len(), 1);
        assert_eq!(net.dropped_count(), 1);
    }

    #[test]
    fn drop_probability_loses_roughly_that_fraction() {
        let mut net: SimNet<u32> =
            SimNet::new(NetConfig { latency: (1, 2), drop_probability: 0.25 }, 3);
        for i in 0..4000 {
            net.send(&n("a"), &n("b"), i);
        }
        let delivered = net.deliveries_until(100).len();
        assert!((2700..3300).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn one_way_block_is_directional() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig::default(), 1);
        net.block_link(&n("a"), &n("b"));
        net.send(&n("a"), &n("b"), 1); // blocked direction
        net.send(&n("b"), &n("a"), 2); // reverse still open
        let d = net.deliveries_until(100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, 2);
        assert_eq!(net.dropped_count(), 1);
        // heal() clears one-way blocks too.
        net.heal();
        net.send(&n("a"), &n("b"), 3);
        assert_eq!(net.deliveries_until(200).len(), 1);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig { latency: (1, 2), drop_probability: 0.0 }, 9);
        net.set_duplicate_probability(1.0);
        for i in 0..10 {
            net.send(&n("a"), &n("b"), i);
        }
        let d = net.deliveries_until(100);
        assert_eq!(d.len(), 20);
        for i in 0..10 {
            assert_eq!(d.iter().filter(|x| x.msg == i).count(), 2);
        }
    }

    /// Runs `steps` [`SimNet::step`]s over `ids`, recording every input
    /// each node receives; `reply` decides what a node sends back for a
    /// message.
    fn record_steps(
        net: &mut SimNet<u32>,
        ids: &[NodeId],
        steps: usize,
        reply: impl Fn(&NodeId, &NodeId, u32) -> Vec<(NodeId, u32)>,
    ) -> Vec<(NodeId, Input<u32>)> {
        let mut seen = Vec::new();
        for _ in 0..steps {
            net.step(ids, |id, input| {
                seen.push((id.clone(), input.clone()));
                match input {
                    Input::Message(from, msg) => reply(id, &from, msg),
                    Input::Tick(_) => Vec::new(),
                }
            });
        }
        seen
    }

    #[test]
    fn step_skips_crashed_nodes() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig::default(), 1);
        net.send(&n("a"), &n("b"), 1);
        net.crash("b");
        let seen = record_steps(&mut net, &[n("a"), n("b")], 20, |_, _, _| Vec::new());
        assert!(seen.iter().all(|(id, _)| id == "a"), "{seen:?}");
        assert_eq!(seen.len(), 20);
        assert_eq!(net.dropped_count(), 1);
    }

    #[test]
    fn step_ticks_follow_ids_order() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig::default(), 1);
        let ids = [n("b"), n("a"), n("c")];
        let seen = record_steps(&mut net, &ids, 2, |_, _, _| Vec::new());
        let expected: Vec<(NodeId, Input<u32>)> = [1, 2]
            .into_iter()
            .flat_map(|t| ids.iter().map(move |id| (id.clone(), Input::Tick(t))))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn step_sends_replies_from_the_recipient() {
        let mut net: SimNet<u32> = SimNet::new(NetConfig::default(), 1);
        net.send(&n("a"), &n("b"), 7);
        let seen = record_steps(&mut net, &[n("a"), n("b")], 20, |id, from, msg| {
            if id == "b" { vec![(from.clone(), msg + 1)] } else { Vec::new() }
        });
        let messages: Vec<_> =
            seen.into_iter().filter(|(_, i)| matches!(i, Input::Message(..))).collect();
        assert_eq!(
            messages,
            vec![(n("b"), Input::Message(n("a"), 7)), (n("a"), Input::Message(n("b"), 8))]
        );
    }

    #[test]
    fn step_advances_the_registry_clock_with_the_net() {
        let reg = ccf_obs::Registry::new();
        let mut net: SimNet<u32> = SimNet::new(NetConfig::default(), 1);
        net.set_registry(&reg);
        for t in 1..=5 {
            net.step(&[n("a")], |_, _| Vec::new());
            assert_eq!(net.now(), t);
            assert_eq!(reg.now(), net.now());
        }
    }
}
