//! The repository's benchmark: commit latency, write capacity, and read
//! and receipt latency of the CCF node on 1- and 3-node clusters, with a
//! per-call layer profile.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Load comes from one process with two threads: this thread generates
//! the operations and calls `handle_request`; the driver thread
//! (`driver.rs`) delivers consensus messages, ticks the nodes and asks for
//! signatures. An untraced run prints the end-to-end metrics. A traced run
//! makes an untraced pass and then a traced pass of the same workload and
//! seed, times every call into the node, writes the spans to
//! `.bench_trace/<workload>.tsv` and prints the per-layer metrics. The last
//! line of standard output is one JSON object; the command exits non-zero
//! when an output check fails.

mod driver;
mod load;
mod stats;
mod trace;

use ccf_bench::{bench_opts, logging_app};
use ccf_consensus::{NodeId, TxStatus};
use ccf_core::app::{Caller, Request, Response};
use ccf_core::node::CcfNode;
use ccf_core::service::ServiceCluster;
use ccf_ledger::{Receipt, TxId};
use driver::{Cluster, CommitEvent};
use load::{message, op_at, Kind, Mix, Op, KEYS, PREFILL};
use stats::{host_steal_seconds, percentile, process_cpu_seconds, sliced_percentile, Shipping};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Name, Span, Tracer, DRIVER, GENERATOR};

/// A traffic mix. Parameters are constants; the seed is the only input.
struct Workload {
    name: &'static str,
    nodes: usize,
    mix: Mix,
    /// Open loop at this many ops/s; `None` is a closed loop that keeps at
    /// most [`MAX_INFLIGHT`] writes uncommitted.
    rate: Option<f64>,
}

/// Every workload also reads and fetches receipts, so each run reports
/// every end-to-end metric.
const WORKLOADS: [Workload; 3] = [
    // The whole primary write path (execute, OCC, encode, seal, Merkle
    // append, a signature every 10 writes) without replication: the
    // single-node baseline. 16 closed-loop users; 2% reads and 0.4%
    // receipts give each latency over 1,000 samples in a 20 s run.
    Workload {
        name: "write_1node",
        nodes: 1,
        mix: Mix {
            write: 976,
            read: 20,
        },
        rate: None,
    },
    // Replication, backup decode/decrypt/apply, acks and commit: 1,000
    // writes/s on a fixed schedule, timed from when each op was due, with
    // 150 reads/s and 100 receipts/s on the backups beside them. At 2,000
    // writes/s runs fall into the replication collapse of KNOWN_DEFECTS.md.
    Workload {
        name: "write_3node",
        nodes: 3,
        mix: Mix {
            write: 800,
            read: 120,
        },
        rate: Some(1_250.0),
    },
    // The read path and Merkle-proof receipts on the backups, with writes
    // beside them: a write-path gain that costs reads shows here, and so
    // does a receipt holding a backup's lock and stalling replication.
    // Not in BENCHMARK.json: its commit latency and write rate follow the
    // host's steal time too closely to hold a bound (see README.md).
    Workload {
        name: "mixed_3node",
        nodes: 3,
        mix: Mix {
            write: 50,
            read: 900,
        },
        rate: None,
    },
];

/// Closed-loop users: writes allowed uncommitted at once.
const MAX_INFLIGHT: usize = 16;
/// Bootstraps per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Load run before the measured window so caches fill.
const WARMUP: Duration = Duration::from_secs(1);
/// How long the end of a run waits for writes to commit everywhere.
const GRACE: Duration = Duration::from_secs(5);
/// Set-up gives up after this long.
const SETUP_LIMIT: Duration = Duration::from_secs(60);

fn user() -> Caller {
    Caller::User("user0".into())
}

/// Latency samples and counts from the measured window.
#[derive(Default)]
struct Samples {
    reply_us: Vec<f64>,
    commit_ms: Vec<f64>,
    read_us: Vec<f64>,
    receipt_ms: Vec<f64>,
    send_lag_ms: Vec<f64>,
    committed: u64,
    ops: u64,
    cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor gave to other guests.
    steal_share: f64,
}

struct Pending {
    seqno: u64,
    start: Instant,
    measured: bool,
}

/// The load generator, run on the calling thread.
struct Generator<'a> {
    w: &'a Workload,
    seed: u64,
    cluster: &'a Cluster<'a>,
    primary: usize,
    /// Nodes that serve reads and receipts, in round-robin order.
    readers: Vec<usize>,
    next_reader: usize,
    commits: Receiver<CommitEvent>,
    tracer: Tracer,
    committed: u64,
    inflight: VecDeque<Pending>,
    acked: Vec<TxId>,
    /// The id of the last acknowledged write to each key.
    expected: Vec<u64>,
    prefill: Vec<TxId>,
    receipts: Vec<(u64, Vec<u8>)>,
    window: (Instant, Instant),
    cpu_at_start: Option<(f64, f64)>,
    samples: Samples,
    attempted: u64,
    failed: u64,
}

impl Generator<'_> {
    fn node(&self, i: usize) -> &CcfNode {
        &self.cluster.nodes[i]
    }

    fn in_window(&self, t: Instant) -> bool {
        t >= self.window.0 && t < self.window.1
    }

    fn fail(&mut self, what: &str) {
        if self.failed < 5 {
            eprintln!("perfbench: check failed: {what}");
        }
        self.failed += 1;
    }

    fn resolve(&mut self, commit: u64, at: Instant) {
        self.committed = self.committed.max(commit);
        while self.inflight.front().is_some_and(|p| p.seqno <= commit) {
            let p = self.inflight.pop_front().expect("front exists");
            if p.measured {
                self.samples
                    .commit_ms
                    .push(at.saturating_duration_since(p.start).as_secs_f64() * 1e3);
            }
            if self.in_window(at) {
                self.samples.committed += 1;
            }
        }
    }

    fn drain_commits(&mut self) {
        while let Ok((c, at)) = self.commits.try_recv() {
            self.resolve(c, at);
        }
    }

    /// Blocks until the driver reports a commit advance or `deadline`.
    fn wait_commit(&mut self, deadline: Instant) {
        let t0 = self.tracer.now();
        let got = self
            .commits
            .recv_timeout(deadline.saturating_duration_since(Instant::now()));
        self.tracer.end(Name::Idle, self.primary, t0, 1, 0);
        match got {
            Ok((c, at)) => self.resolve(c, at),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => panic!("driver thread ended early"),
        }
    }

    fn call(&mut self, name: Name, node: usize, req: &Request) -> (Response, Duration) {
        let t0 = self.tracer.now();
        let started = Instant::now();
        let resp = self.node(node).handle_request(req);
        let took = started.elapsed();
        let seq = resp.txid.map_or(0, |t| t.seqno);
        self.tracer.end(name, node, t0, seq, seq);
        (resp, took)
    }

    fn next_reader(&mut self) -> usize {
        let r = self.readers[self.next_reader % self.readers.len()];
        self.next_reader += 1;
        r
    }

    /// Submits one operation; `start` is when it was due (open loop) or
    /// sent (closed loop).
    fn submit(&mut self, op: Op, start: Instant) {
        let measured = self.in_window(start);
        if measured && self.cpu_at_start.is_none() {
            self.cpu_at_start = Some((process_cpu_seconds(), host_steal_seconds()));
        }
        if op.id >= PREFILL {
            self.attempted += 1;
        }
        match op.kind {
            Kind::Write => {
                let body = format!("{}={}", op.key, message(op.id));
                let req = Request::new("POST", "/log", user(), body.as_bytes());
                let (resp, took) = self.call(Name::Write, self.primary, &req);
                match resp.txid {
                    Some(txid) if resp.status == 200 => {
                        if measured {
                            self.samples.reply_us.push(took.as_secs_f64() * 1e6);
                        }
                        self.inflight.push_back(Pending {
                            seqno: txid.seqno,
                            start,
                            measured,
                        });
                        self.acked.push(txid);
                        self.expected[op.key as usize] = op.id;
                        if op.id < PREFILL {
                            self.prefill.push(txid);
                        }
                        if self.cluster.nodes.len() == 1 {
                            // On one node a write can itself commit (it may
                            // append a signature); read commit right after.
                            self.drain_commits();
                            let t0 = self.tracer.now();
                            let c = self.node(self.primary).commit_seqno();
                            self.tracer.end(Name::LockWait, self.primary, t0, c, c);
                            if c > self.committed {
                                self.resolve(c, Instant::now());
                            }
                        }
                    }
                    _ => self.fail(&format!("write {} returned {}", op.id, resp.status)),
                }
            }
            Kind::Read => {
                let node = self.next_reader();
                let req = Request::new("GET", &format!("/log?id={}", op.key), user(), b"");
                let (resp, took) = self.call(Name::Read, node, &req);
                if resp.status == 200
                    && load::value_matches_key(self.seed, self.w.mix, op.key, &resp.body)
                {
                    if measured {
                        self.samples.read_us.push(took.as_secs_f64() * 1e6);
                    }
                } else {
                    self.fail(&format!(
                        "read of key {} returned {} {}",
                        op.key,
                        resp.status,
                        resp.text()
                    ));
                }
            }
            Kind::Receipt => {
                let node = self.next_reader();
                let txid = self.prefill[op.target as usize];
                let path = format!("/node/receipt?view={}&seqno={}", txid.view, txid.seqno);
                let req = Request::new("GET", &path, user(), b"");
                let (resp, took) = self.call(Name::Receipt, node, &req);
                if resp.status == 200 {
                    if measured {
                        self.samples.receipt_ms.push(took.as_secs_f64() * 1e3);
                    }
                    self.receipts.push((op.target, resp.body));
                } else {
                    self.fail(&format!("receipt for {txid:?} returned {}", resp.status));
                }
            }
        }
        if measured {
            self.samples.ops += 1;
        }
    }

    /// Closed loop over ids `from..to` until `end`: reads and receipts are
    /// synchronous; a write waits while [`MAX_INFLIGHT`] are uncommitted.
    /// Returns the next id.
    fn closed_loop(&mut self, from: u64, to: u64, end: Instant) -> u64 {
        let mut id = from;
        while id < to {
            self.drain_commits();
            let now = Instant::now();
            if now >= end {
                break;
            }
            let op = op_at(self.seed, self.w.mix, id);
            if op.kind == Kind::Write && self.inflight.len() >= MAX_INFLIGHT {
                self.wait_commit(end);
                continue;
            }
            self.submit(op, now);
            id += 1;
        }
        id
    }

    /// Open loop from id `from`: op `k` is due `k / rate` s after `begin`.
    fn open_loop(&mut self, from: u64, rate: f64, begin: Instant, end: Instant) {
        for k in 0u64.. {
            self.drain_commits();
            let due = begin + Duration::from_secs_f64(k as f64 / rate);
            if due >= end {
                break;
            }
            let now = Instant::now();
            if due > now {
                let t0 = self.tracer.now();
                std::thread::sleep(due - now);
                self.tracer.end(Name::Idle, self.primary, t0, 1, 0);
            }
            if self.in_window(due) {
                let lag = Instant::now().saturating_duration_since(due);
                self.samples.send_lag_ms.push(lag.as_secs_f64() * 1e3);
            }
            self.submit(op_at(self.seed, self.w.mix, from + k), due);
        }
    }

    /// Waits until every acknowledged write has committed on the primary
    /// and every node's commit has reached it, or until `deadline`.
    fn settle(&mut self, deadline: Instant) {
        while !self.inflight.is_empty() && Instant::now() < deadline {
            self.wait_commit(deadline);
        }
        let target = self.acked.last().map_or(0, |t| t.seqno);
        while Instant::now() < deadline
            && !self
                .cluster
                .nodes
                .iter()
                .all(|n| n.commit_seqno() >= target)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The output checks, made after the driver has stopped.
    fn check(&mut self, identity: &ccf_core::prelude::VerifyingKey) {
        let primary = self.primary;
        let uncommitted = self
            .acked
            .iter()
            .filter(|t| self.node(primary).tx_status(**t) != TxStatus::Committed)
            .count();
        for _ in 0..uncommitted {
            self.fail("an acknowledged write did not commit");
        }
        for node in 0..self.cluster.nodes.len() {
            for key in 0..KEYS {
                let req = Request::new("GET", &format!("/log?id={key}"), user(), b"");
                let resp = self.node(node).handle_request(&req);
                let want = message(self.expected[key as usize]);
                if resp.status != 200 || resp.body != want.as_bytes() {
                    self.fail(&format!(
                        "node {node} key {key}: {} instead of {want}",
                        resp.text()
                    ));
                }
            }
        }
        for (target, body) in std::mem::take(&mut self.receipts) {
            let ok = Receipt::decode(&body).is_ok_and(|r| {
                r.txid == self.prefill[target as usize] && r.verify(identity).is_ok()
            });
            if !ok {
                self.fail("a receipt did not verify");
            }
        }
    }
}

/// What one bootstrap and (optionally) one measured run produced.
struct Outcome {
    setup_s: f64,
    samples: Samples,
    window_s: f64,
    spans: Vec<Span>,
    window_ns: (u64, u64),
    obs: BTreeMap<String, u64>,
    writes: u64,
    attempted: u64,
    failed: u64,
}

fn obs_delta(before: &ccf_obs::Snapshot, after: &ccf_obs::Snapshot) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), v - before.counters.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Stops the driver when dropped, so that a failed check on the generator
/// thread ends the run instead of waiting for the driver forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Bootstraps `w`'s cluster, prefills it, and, when `seconds` is given,
/// runs the workload and checks its outputs.
fn run_cluster(w: &Workload, seed: u64, seconds: Option<u64>, traced: bool) -> Outcome {
    let setup_start = Instant::now();
    let mut service = ServiceCluster::start(bench_opts(w.nodes, seed), Arc::new(logging_app()));
    service.open_service();
    let identity = service.service_identity();
    let nodes: Vec<Arc<CcfNode>> = service.nodes.values().cloned().collect();
    let ids: Vec<NodeId> = service.nodes.keys().cloned().collect();
    let cluster = Cluster {
        nodes: &nodes,
        ids: &ids,
        base_ms: service.now(),
    };
    drop(service);
    let primary = nodes
        .iter()
        .position(|n| n.is_primary())
        .expect("the service has a primary");
    let readers: Vec<usize> = if nodes.len() == 1 {
        vec![0]
    } else {
        (0..nodes.len()).filter(|&i| i != primary).collect()
    };

    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let (tx, rx) = channel();
    std::thread::scope(|s| {
        let (cl, st) = (&cluster, &stop);
        let drv =
            s.spawn(move || driver::run(cl, primary, st, tx, Tracer::new(origin, DRIVER, traced)));
        let stop_driver = StopOnDrop(&stop);
        let far = Instant::now() + Duration::from_secs(3600);
        let mut g = Generator {
            w,
            seed,
            cluster: &cluster,
            primary,
            readers,
            next_reader: 0,
            commits: rx,
            tracer: Tracer::new(origin, GENERATOR, traced),
            committed: 0,
            inflight: VecDeque::new(),
            acked: Vec::new(),
            expected: vec![0; KEYS as usize],
            prefill: Vec::new(),
            receipts: Vec::new(),
            window: (far, far),
            cpu_at_start: None,
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
        };
        // Set-up: commit-gated prefill, until every node has committed it.
        let limit = setup_start + SETUP_LIMIT;
        g.closed_loop(0, PREFILL, limit);
        g.settle(limit);
        assert!(
            g.failed == 0 && g.prefill.len() == PREFILL as usize && g.inflight.is_empty(),
            "set-up did not commit the prefill on the primary"
        );
        let last = g.prefill.last().expect("prefill is not empty").seqno;
        assert!(
            nodes.iter().all(|n| n.commit_seqno() >= last),
            "set-up did not commit the prefill on every node"
        );
        let setup_s = setup_start.elapsed().as_secs_f64();

        let mut out = Outcome {
            setup_s,
            samples: Samples::default(),
            window_s: 0.0,
            spans: Vec::new(),
            window_ns: (0, 0),
            obs: BTreeMap::new(),
            writes: 0,
            attempted: 0,
            failed: 0,
        };
        let Some(seconds) = seconds else {
            drop(stop_driver);
            drv.join().expect("driver thread panicked");
            return out;
        };
        let obs_before = nodes[0].obs().snapshot();
        let acked_before = g.acked.len();
        let begin = Instant::now();
        g.window = (
            begin + WARMUP,
            begin + WARMUP + Duration::from_secs(seconds),
        );
        match w.rate {
            Some(rate) => g.open_loop(PREFILL, rate, begin, g.window.1),
            None => {
                g.closed_loop(PREFILL, u64::MAX, g.window.1);
            }
        }
        let end = (process_cpu_seconds(), host_steal_seconds());
        let start = g.cpu_at_start.unwrap_or(end);
        out.window_s = seconds as f64;
        g.samples.cpu_s = end.0 - start.0;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        g.samples.steal_share = (end.1 - start.1) / (cpus * out.window_s);
        g.settle(Instant::now() + GRACE);
        drop(stop_driver);
        let drv_tracer = drv.join().expect("driver thread panicked");
        out.obs = obs_delta(&obs_before, &nodes[0].obs().snapshot());
        out.writes = (g.acked.len() - acked_before) as u64;
        g.check(&identity);

        out.window_ns = (
            (g.window.0 - origin).as_nanos() as u64,
            (g.window.1 - origin).as_nanos() as u64,
        );
        out.spans = g.tracer.into_spans();
        out.spans.extend(drv_tracer.into_spans());
        out.spans.sort_by_key(|s| s.start);
        out.samples = g.samples;
        out.attempted = g.attempted;
        out.failed = g.failed;
        out
    })
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn cpu_us_per_op(o: &Outcome) -> f64 {
    o.samples.cpu_s * 1e6 / o.samples.ops.max(1) as f64
}

/// The end-to-end metrics. Their tails are printed beside them but left
/// out of the result: on three nodes the p99s move 25-50% between runs, and
/// the commit p90 follows the hypervisor's steal time (6 ms at 5% steal, 9-10
/// ms at 16%), more than any bound the benchmark can hold. The traced run
/// reports the same p99s as `node.{write,read,receipt}.us_p99`.
fn end_to_end(setups: &mut [f64], o: &Outcome) -> Metrics {
    let s = &o.samples;
    eprintln!(
        "perfbench: not in the result: write_commit_p90 {:.3} ms; p99 write_reply {:.1} us, \
         read {:.1} us, receipt {:.3} ms; host steal {:.1}% of CPU",
        sliced_percentile(&s.commit_ms, 0.90),
        sliced_percentile(&s.reply_us, 0.99),
        sliced_percentile(&s.read_us, 0.99),
        sliced_percentile(&s.receipt_ms, 0.99),
        s.steal_share * 100.0,
    );
    vec![
        ("setup_s", "s", percentile(setups, 0.5)),
        (
            "committed_writes_per_s",
            "1/s",
            s.committed as f64 / o.window_s,
        ),
        (
            "write_reply_p50_us",
            "us",
            sliced_percentile(&s.reply_us, 0.50),
        ),
        (
            "write_commit_p50_ms",
            "ms",
            sliced_percentile(&s.commit_ms, 0.50),
        ),
        ("read_p50_us", "us", sliced_percentile(&s.read_us, 0.50)),
        (
            "receipt_p50_ms",
            "ms",
            sliced_percentile(&s.receipt_ms, 0.50),
        ),
        ("cpu_us_per_op", "us", cpu_us_per_op(o)),
    ]
}

fn per_layer(o: &Outcome, untraced_cpu_us_per_op: f64) -> Metrics {
    let (w0, w1) = o.window_ns;
    let writes = o.samples.committed.max(1) as f64;
    let window = (w1 - w0) as f64;
    let mut shipping = Shipping::new(vec![0; 256]);
    let mut window_started = false;
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut msgs, mut appends, mut bytes) = (0u64, 0u64, 0u64);
    let mut idle = [0f64; 2];
    let mut busy = [0f64; 2];
    let mut queued = Vec::new();
    for s in &o.spans {
        if s.start >= w0 && !window_started {
            window_started = true;
            shipping.restart();
        }
        if s.start >= w1 {
            break;
        }
        match s.name {
            Name::Append => shipping.ship(s.hi - s.lo + 1),
            Name::Ack if s.lo <= s.hi => shipping.ack(s.peer as usize, s.hi),
            _ => {}
        }
        if s.start < w0 {
            continue;
        }
        durations.entry(s.name.label()).or_default().push(s.us());
        if s.name == Name::Idle {
            idle[s.thread as usize] += (s.end - s.start) as f64;
        } else {
            busy[s.thread as usize] += (s.end - s.start) as f64;
        }
        if s.name.is_message() {
            msgs += 1;
            queued.push(s.queued as f64 / 1e3);
        }
        if s.name == Name::Append {
            appends += 1;
            bytes += s.bytes;
        }
    }
    let p = |label: &str, q: f64| {
        durations
            .get(label)
            .map_or(0.0, |v| sliced_percentile(v, q))
    };
    let per_write =
        |label: &str| durations.get(label).map_or(0.0, |v| v.iter().sum::<f64>()) / writes;
    let obs = |k: &str| o.obs.get(k).copied().unwrap_or(0) as f64;
    let obs_writes = o.writes.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = obs("ledger.merkle_root_cache_hits");
    let nonidle = 2.0 * window - idle[0] - idle[1];
    vec![
        ("node.write.us_p50", "us", p("write", 0.50)),
        ("node.write.us_p99", "us", p("write", 0.99)),
        ("node.read.us_p50", "us", p("read", 0.50)),
        ("node.read.us_p99", "us", p("read", 0.99)),
        ("node.receipt.us_p50", "us", p("receipt", 0.50)),
        ("node.receipt.us_p99", "us", p("receipt", 0.99)),
        ("node.append.us_p50", "us", p("append", 0.50)),
        ("node.append.us_p99", "us", p("append", 0.99)),
        ("node.append.us_per_write", "us", per_write("append")),
        ("node.ack.us_p50", "us", p("ack", 0.50)),
        ("node.ack.us_per_write", "us", per_write("ack")),
        ("node.tick.us_per_write", "us", per_write("tick")),
        ("node.sign.us_p50", "us", p("sign", 0.50)),
        ("node.lock_wait.us_p50", "us", p("lock_wait", 0.50)),
        ("node.lock_wait.us_p99", "us", p("lock_wait", 0.99)),
        ("consensus.msgs_per_write", "count", msgs as f64 / writes),
        (
            "consensus.entries_shipped_per_entry",
            "ratio",
            shipping.ratio(),
        ),
        (
            "consensus.bytes_shipped_per_write",
            "B",
            bytes as f64 / writes,
        ),
        (
            "consensus.entries_per_append",
            "count",
            ratio(shipping.shipped as f64, appends as f64),
        ),
        (
            "consensus.queue_wait.us_p50",
            "us",
            sliced_percentile(&queued, 0.50),
        ),
        (
            "consensus.queue_wait.us_p99",
            "us",
            sliced_percentile(&queued, 0.99),
        ),
        (
            "consensus.signatures_per_write",
            "count",
            obs("consensus.signature_txs") / obs_writes,
        ),
        (
            "consensus.elections",
            "count",
            obs("consensus.elections_started"),
        ),
        ("consensus.rollbacks", "count", obs("consensus.rollbacks")),
        (
            "ledger.sealed_bytes_per_write",
            "B",
            obs("crypto.gcm_sealed_bytes") / obs_writes,
        ),
        (
            "ledger.opened_per_sealed",
            "ratio",
            ratio(
                obs("crypto.gcm_opened_bytes"),
                obs("crypto.gcm_sealed_bytes"),
            ),
        ),
        (
            "ledger.merkle_appends_per_write",
            "count",
            obs("ledger.merkle_appends") / obs_writes,
        ),
        (
            "ledger.root_cache_hit_share",
            "ratio",
            ratio(hits, hits + obs("ledger.merkle_root_cache_misses")),
        ),
        (
            "bench.send_lag.ms_p99",
            "ms",
            sliced_percentile(&o.samples.send_lag_ms, 0.99),
        ),
        (
            "bench.driver_idle_share",
            "ratio",
            idle[DRIVER as usize] / window,
        ),
        (
            "bench.gen_idle_share",
            "ratio",
            idle[GENERATOR as usize] / window,
        ),
        (
            "bench.accounted_share",
            "ratio",
            ratio(busy[0] + busy[1], nonidle),
        ),
        (
            "bench.trace_overhead",
            "ratio",
            ratio(cpu_us_per_op(o), untraced_cpu_us_per_op),
        ),
        (
            "bench.failed_share",
            "ratio",
            ratio(o.failed as f64, o.attempted as f64),
        ),
        ("bench.steal_share", "ratio", o.samples.steal_share),
    ]
}

fn print_result(attempted: u64, failed: u64, metrics: &Metrics) {
    for (name, unit, value) in metrics {
        eprintln!("  {name:<40} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                flags.insert(k, v);
            }
            _ => return Err(format!("unexpected argument {:?}", pair[0])),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let args = Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        std::process::exit(2);
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {} ({} cores)",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (attempted, failed, metrics) = if args.trace {
        let untraced = run_cluster(w, args.seed, Some(args.seconds), false);
        let traced = run_cluster(w, args.seed, Some(args.seconds), true);
        let path = std::path::PathBuf::from(format!(".bench_trace/{}.tsv", w.name));
        if let Err(e) = trace::write_spans(&path, &traced.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        let metrics = per_layer(&traced, cpu_us_per_op(&untraced));
        (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            metrics,
        )
    } else {
        let mut setups: Vec<f64> = (1..SETUPS)
            .map(|_| run_cluster(w, args.seed, None, false).setup_s)
            .collect();
        let run = run_cluster(w, args.seed, Some(args.seconds), false);
        setups.push(run.setup_s);
        let metrics = end_to_end(&mut setups, &run);
        (run.attempted, run.failed, metrics)
    };
    print_result(attempted, failed, &metrics);
    if failed > 0 {
        std::process::exit(1);
    }
}
