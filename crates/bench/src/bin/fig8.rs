//! Figure 8: impact of signature transactions on response time (left &
//! center) and on write throughput (right).
//!
//! Run with: `cargo run --release -p ccf-bench --bin fig8`
//!
//! Paper setup: one node, one user, signature interval 100. Shapes to
//! reproduce: a steady response-time floor with a spike roughly every
//! 100th request (the request that triggers the Merkle-root signature),
//! and write throughput that grows and then plateaus as the signature
//! interval increases (the §6.4 commit-latency/throughput trade-off).

use ccf_bench::{bar, bench_opts, fmt_rate, logging_app, measure, percentile_index, start_rt, MESSAGE};
use ccf_core::app::{Caller, Request};
use std::time::{Duration, Instant};

fn main() {
    let n_requests = 1000usize;
    println!("=== Figure 8 (paper §7): cost of signature transactions ===\n");

    // ---- Left/center: response-time trace with signature interval 100 ----
    // Bootstrap with default signing, then switch to count-only signing at
    // exactly 100 ("most other sources of latency variance removed").
    let cluster = start_rt(bench_opts(1, 800), logging_app());
    let primary = cluster.primary().unwrap();
    primary.set_signature_policy(100, 0);
    // Count-only signing emits the signature inside the request that
    // crosses the interval: a request signed if the counter moved across it.
    let signature_txs = cluster.obs().unwrap().counter("consensus.signature_txs");
    let mut latencies_us = Vec::with_capacity(n_requests);
    let mut signing_requests = Vec::new(); // indices of the requests that signed
    for i in 0..n_requests {
        let req = Request::new(
            "POST",
            "/log",
            Caller::User("user0".into()),
            format!("{i}={MESSAGE}").as_bytes(),
        );
        let signed_before = signature_txs.get();
        let start = Instant::now();
        let resp = primary.handle_request(&req);
        assert_eq!(resp.status, 200);
        latencies_us.push(start.elapsed().as_nanos() as f64 / 1000.0);
        if signature_txs.get() != signed_before {
            signing_requests.push(i);
        }
    }
    cluster.stop();

    let all = sorted(latencies_us.iter().copied());
    let (signers, others): (Vec<_>, Vec<_>) =
        latencies_us.iter().enumerate().partition(|(i, _)| signing_requests.contains(i));
    let signers = sorted(signers.into_iter().map(|(_, &l)| l));
    let others = sorted(others.into_iter().map(|(_, &l)| l));
    let p = |q: f64| at(&all, q);
    println!("Figure 8 (left): response time of {n_requests} sequential writes, signature every 100");
    println!("  p50 {:.1} µs   p90 {:.1} µs   p99 {:.1} µs   max {:.1} µs", p(0.5), p(0.9), p(0.99), p(1.0));
    let gaps: Vec<usize> = signing_requests.windows(2).map(|w| w[1] - w[0]).collect();
    println!(
        "  {} requests emitted a signature (consensus.signature_txs), gaps {:?} requests",
        signing_requests.len(),
        gaps
    );
    println!(
        "  signing requests p50 {:.1} µs   other requests p50 {:.1} µs   p90 {:.1} µs",
        at(&signers, 0.5),
        at(&others, 0.5),
        at(&others, 0.9)
    );
    let spikes = signing_requests.len() >= n_requests / 100 - 1
        && gaps.iter().all(|&g| g == 100)
        && at(&signers, 0.5) > at(&others, 0.9);
    let median = p(0.5);
    println!("\nFigure 8 (center): latency histogram (µs)");
    let buckets = [
        (0.0, median * 1.25),
        (median * 1.25, median * 2.0),
        (median * 2.0, median * 4.0),
        (median * 4.0, f64::INFINITY),
    ];
    let labels = ["~median", "1.25-2x", "2-4x", ">4x"];
    let counts: Vec<usize> = buckets
        .iter()
        .map(|(lo, hi)| latencies_us.iter().filter(|&&l| l >= *lo && l < *hi).count())
        .collect();
    let cmax = *counts.iter().max().unwrap() as f64;
    for (label, &count) in labels.iter().zip(&counts) {
        println!("  {label:>18}: {count:>5}  {}", bar(count as f64, cmax, 36));
    }

    // ---- Right: write throughput vs signature interval ----
    println!("\nFigure 8 (right): write throughput vs signature interval");
    let duration = Duration::from_millis(
        std::env::var("CCF_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(1500),
    );
    let intervals = [1u64, 2, 5, 10, 50, 100, 500, 1000];
    let mut rates = Vec::new();
    let mut signing = Vec::new(); // (writes, signatures) per interval
    let mut last_obs = None;
    for (i, &interval) in intervals.iter().enumerate() {
        let cluster = start_rt(bench_opts(1, 900 + i as u64), logging_app());
        cluster.primary().unwrap().set_signature_policy(interval, 0);
        // On one node every appended entry is a write or a signature.
        let obs = cluster.obs().unwrap();
        let (entries, signatures) =
            (obs.counter("node.entries_applied"), obs.counter("consensus.signature_txs"));
        let (entries0, signatures0) = (entries.get(), signatures.get());
        let t = measure(&cluster, 4, duration, 0.0, 7);
        let signed = signatures.get() - signatures0;
        let written = entries.get() - entries0 - signed;
        last_obs = Some(obs.snapshot());
        cluster.stop();
        rates.push(t.writes_per_sec);
        signing.push((written, signed));
    }
    if let Some(snapshot) = &last_obs {
        ccf_bench::write_obs("fig8", snapshot);
    }
    let rmax = rates.iter().cloned().fold(0.0, f64::max);
    println!("{:>10} | {:>10} | {:>10} |", "interval", "writes/s", "writes/sig");
    for (i, &interval) in intervals.iter().enumerate() {
        println!(
            "{interval:>10} | {:>10} | {:>10.1} | {}",
            fmt_rate(rates[i]),
            signing[i].0 as f64 / signing[i].1.max(1) as f64,
            bar(rates[i], rmax, 40)
        );
    }
    println!("\nshape checks:");
    println!(
        "  signing requests every 100th and slower:    {}",
        if spikes { "PASS" } else { "MARGINAL" }
    );
    // A count-only policy signs once per `interval` writes: whatever is
    // left unsigned at the end of the window is less than one interval.
    let count_only = intervals
        .iter()
        .zip(&signing)
        .all(|(&interval, &(written, signed))| written.abs_diff(signed * interval) <= interval);
    println!(
        "  signatures follow the count-only policy:     {}",
        if count_only { "PASS" } else { "FAIL" }
    );
    let grows = rates[intervals.len() - 1] > rates[0] * 1.2;
    println!(
        "  throughput grows with signature interval:    {}",
        if grows { "PASS" } else { "MARGINAL" }
    );
    if !count_only {
        std::process::exit(1);
    }
}

fn sorted(latencies: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = latencies.collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

/// The `q` percentile of sorted `v` (NaN if empty).
fn at(v: &[f64], q: f64) -> f64 {
    v.get(percentile_index(v.len(), q)).copied().unwrap_or(f64::NAN)
}
