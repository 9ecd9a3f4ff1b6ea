//! Shared harness for the paper-reproduction benchmarks.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§7); see EXPERIMENTS.md for the index and
//! paper-vs-measured results. This library provides the closed-loop
//! client machinery they share.

#![forbid(unsafe_code)]

use ccf_consensus::TxStatus;
use ccf_core::app::{AppResult, Application, Caller, EndpointDef, Request};
use ccf_core::rt::RtCluster;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_crypto::chacha::ChaChaRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's evaluation application (§7): a logging app where messages
/// with identifiers are posted (private, 20 characters) and retrieved
/// with read-only transactions.
pub fn logging_app() -> Application {
    Application::new("bench logging v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(Vec::new())
        }))
        .endpoint(EndpointDef::read("GET", "/log", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("msgs", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("missing"),
            }
        }))
}

/// A 20-character message, as in the paper's setup.
pub const MESSAGE: &str = "twenty.characters.xx";

/// Key space for the workload (pre-filled so reads hit).
pub const KEY_SPACE: u64 = 1_000;

/// Bootstraps an open service in virtual time and converts it to a
/// threaded real-time cluster.
pub fn start_rt(opts: ServiceOpts, app: Application) -> RtCluster {
    let mut service = ServiceCluster::start(opts, Arc::new(app));
    service.open_service();
    RtCluster::from_service(service)
}

/// Pre-fills the key space through the primary and waits until the last
/// write is committed on every node, so that reads hit on backups too
/// (a read of a key a backup has not applied yet is a 404, which the
/// read counters leave out).
pub fn prefill(cluster: &RtCluster, keys: u64) {
    let primary = cluster.primary().expect("primary");
    let mut last = None;
    for k in 0..keys {
        let req = Request::new(
            "POST",
            "/log",
            Caller::User("user0".into()),
            format!("{k}={MESSAGE}").as_bytes(),
        );
        let resp = primary.handle_request(&req);
        assert_eq!(resp.status, 200, "prefill failed: {}", resp.text());
        last = resp.txid;
    }
    let txid = last.expect("prefill wrote no key");
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster.nodes.values().any(|n| n.tx_status(txid) != TxStatus::Committed) {
        assert!(Instant::now() < deadline, "prefill {txid} did not commit on every node");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Throughput measurement results.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Successful writes per second.
    pub writes_per_sec: f64,
    /// Successful reads per second.
    pub reads_per_sec: f64,
    /// All successful requests per second.
    pub total_per_sec: f64,
    /// Requests that failed (conflicts, forwarding).
    pub errors: u64,
}

/// Runs `clients` closed-loop client threads for `duration` against the
/// cluster: a fraction `read_ratio` of requests are reads (served by all
/// nodes round-robin); writes go directly to the primary, as in the
/// paper's setup ("the user directly writes to the primary").
pub fn measure(
    cluster: &RtCluster,
    clients: usize,
    duration: Duration,
    read_ratio: f64,
    seed: u64,
) -> Throughput {
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let nodes: Vec<_> = cluster.nodes.values().cloned().collect();
    let primary = cluster.primary().expect("primary");

    let mut handles = Vec::new();
    for c in 0..clients {
        let stop = stop.clone();
        let writes = writes.clone();
        let reads = reads.clone();
        let errors = errors.clone();
        let nodes = nodes.clone();
        let primary = primary.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = ChaChaRng::seed_from_u64(seed * 1000 + c as u64);
            let mut i = c; // stagger read round-robin start per client
            while !stop.load(Ordering::Relaxed) {
                let key = rng.gen_range(KEY_SPACE);
                if rng.gen_f64() < read_ratio {
                    // Reads spread across all nodes (any node serves them).
                    let node = &nodes[i % nodes.len()];
                    i += 1;
                    let req = Request::new(
                        "GET",
                        &format!("/log?id={key}"),
                        Caller::User("user0".into()),
                        b"",
                    );
                    let resp = node.handle_request(&req);
                    if resp.status == 200 {
                        reads.fetch_add(1, Ordering::Relaxed);
                    } else {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    let req = Request::new(
                        "POST",
                        "/log",
                        Caller::User("user0".into()),
                        format!("{key}={MESSAGE}").as_bytes(),
                    );
                    let resp = primary.handle_request(&req);
                    if resp.status == 200 {
                        writes.fetch_add(1, Ordering::Relaxed);
                    } else {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let secs = start.elapsed().as_secs_f64();
    let w = writes.load(Ordering::Relaxed) as f64 / secs;
    let r = reads.load(Ordering::Relaxed) as f64 / secs;
    Throughput {
        writes_per_sec: w,
        reads_per_sec: r,
        total_per_sec: w + r,
        errors: errors.load(Ordering::Relaxed),
    }
}

/// Measures read-only throughput against ONE node in isolation (used to
/// compute aggregate read capacity on shared-core hosts, where the
/// paper's one-VM-per-node read scaling cannot be exhibited with
/// concurrent threads).
pub fn measure_reads_on(
    node: &Arc<ccf_core::node::CcfNode>,
    clients: usize,
    duration: Duration,
    seed: u64,
) -> Throughput {
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for c in 0..clients {
        let stop = stop.clone();
        let reads = reads.clone();
        let errors = errors.clone();
        let node = node.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = ChaChaRng::seed_from_u64(seed * 131 + c as u64);
            while !stop.load(Ordering::Relaxed) {
                let key = rng.gen_range(KEY_SPACE);
                let req = Request::new(
                    "GET",
                    &format!("/log?id={key}"),
                    Caller::User("user0".into()),
                    b"",
                );
                if node.handle_request(&req).status == 200 {
                    reads.fetch_add(1, Ordering::Relaxed);
                } else {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let secs = start.elapsed().as_secs_f64();
    let r = reads.load(Ordering::Relaxed) as f64 / secs;
    Throughput {
        writes_per_sec: 0.0,
        reads_per_sec: r,
        total_per_sec: r,
        errors: errors.load(Ordering::Relaxed),
    }
}

/// Human formatting: 64.8 K style, as in the paper's Table 5.
pub fn fmt_rate(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.2} M", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1} K", v / 1_000.0)
    } else {
        format!("{v:.0}")
    }
}

/// The paper's CScript logging app (Table 5's "JS" rows).
pub fn logging_script_source() -> &'static str {
    ccf_core::app::logging_script_app()
}

/// Default service options for throughput benches.
pub fn bench_opts(nodes: usize, seed: u64) -> ServiceOpts {
    ServiceOpts {
        nodes,
        members: 1,
        users: 1,
        seed,
        snapshot_interval: 0,
        ..ServiceOpts::default()
    }
}

/// A simple text bar for console "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    "█".repeat(n.min(width))
}

/// Index of the `q`-quantile element in a sorted sample of `len` items,
/// rounding half-up instead of truncating (so the p99 of 1000 samples is
/// element 989, not 988 — truncation systematically under-reports tail
/// latency). `q` is in `[0, 1]`.
pub fn percentile_index(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let idx = ((len - 1) as f64 * q + 0.5) as usize;
    idx.min(len - 1)
}

/// Nearest-rank percentile over histogram buckets, in pure integer
/// arithmetic (deterministic across platforms). `q_num / q_den` is the
/// quantile (e.g. 99/100 for p99). Returns the inclusive upper bound of
/// the bucket containing that rank; observations past the last bound live
/// in the overflow bucket, reported as `2 * last_bound` to keep the value
/// finite and obviously saturated. Returns 0 for an empty histogram.
pub fn hist_percentile(h: &ccf_obs::HistogramSnapshot, q_num: u64, q_den: u64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = (h.count * q_num).div_ceil(q_den).max(1);
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return match h.bounds.get(i) {
                Some(&b) => b,
                None => h.bounds.last().copied().unwrap_or(0) * 2,
            };
        }
    }
    h.bounds.last().copied().unwrap_or(0) * 2
}

/// Writes an observability snapshot to `OBS_<name>.json` in the current
/// directory (a generated artifact — gitignored) and returns the path.
/// Failures are reported but not fatal: metrics never break a bench run.
pub fn write_obs(name: &str, snapshot: &ccf_obs::Snapshot) -> std::path::PathBuf {
    let path = std::path::PathBuf::from(format!("OBS_{name}.json"));
    match std::fs::write(&path, snapshot.to_json()) {
        Ok(()) => println!("metrics snapshot written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    path
}
