//! Table 5: throughput (tx/s) for writes/reads on a five-node service,
//! {native app, script app} × {simulated SGX, virtual mode}.
//!
//! Run with: `cargo run --release -p ccf-bench --bin table5`
//!
//! The paper's table (absolute numbers from their Azure SGX testbed):
//!
//! |     | SGX             | Virtual        |
//! |-----|-----------------|----------------|
//! | C++ | 64.8 K / 881 K  | 118 K / 1.24 M |
//! | JS  | 15.7 K / 90.7 K | 33.7 K / 219 K |
//!
//! Shapes to reproduce: native ≫ script (the paper's ~4-6x), and virtual >
//! SGX (the paper's ~1.8-2.4x — here *injected* by the `SgxSim` cost
//! model, see DESIGN.md's substitution table; the native-vs-script ratio
//! is genuinely measured).

use ccf_bench::{bench_opts, fmt_rate, logging_app, logging_script_source, measure, prefill, start_rt};
use ccf_core::app::Application;
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_tee::TeePlatform;
use std::sync::Arc;
use std::time::Duration;

fn start_with(
    platform: TeePlatform,
    script: bool,
    seed: u64,
) -> ccf_core::rt::RtCluster {
    let opts = ServiceOpts { platform, ..bench_opts(5, seed) };
    if !script {
        start_rt(opts, logging_app())
    } else {
        // Script mode: an (empty-route) native app plus the script app
        // installed by governance — requests route to the interpreter.
        let mut service =
            ServiceCluster::start(opts, Arc::new(Application::new("bench logging v1")));
        let state = service.propose_and_accept(Proposal::single(
            "set_js_app",
            Value::obj([("app".to_string(), Value::str(logging_script_source()))]),
        ));
        assert_eq!(state, ProposalState::Accepted);
        service.open_service();
        ccf_core::rt::RtCluster::from_service(service)
    }
}

fn main() {
    let duration = Duration::from_millis(
        std::env::var("CCF_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(2000),
    );
    let clients = std::env::var("CCF_BENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize);
    println!("=== Table 5 (paper §7): writes/reads, app runtime x platform ===");
    println!("five-node service, window {duration:?}, {clients} clients\n");

    let mut results = Vec::new();
    for (label, script) in [("native", false), ("script", true)] {
        for (plat_label, platform) in
            [("sgx-sim", TeePlatform::sgx_default()), ("virtual", TeePlatform::Virtual)]
        {
            let cluster = start_with(platform, script, 500);
            prefill(&cluster, ccf_bench::KEY_SPACE);
            let w = measure(&cluster, clients, duration, 0.0, 3);
            let r = measure(&cluster, clients, duration, 1.0, 4);
            assert_eq!(r.errors, 0, "{label}/{plat_label} reads failed");
            cluster.stop();
            results.push((label, plat_label, w.writes_per_sec, r.reads_per_sec));
        }
    }

    println!("{:>8} | {:>16} | {:>16}", "", "sgx-sim", "virtual");
    for runtime in ["native", "script"] {
        let sgx = results.iter().find(|(l, p, _, _)| *l == runtime && *p == "sgx-sim").unwrap();
        let virt = results.iter().find(|(l, p, _, _)| *l == runtime && *p == "virtual").unwrap();
        println!(
            "{:>8} | {:>7}/{:>8} | {:>7}/{:>8}",
            runtime,
            fmt_rate(sgx.2),
            fmt_rate(sgx.3),
            fmt_rate(virt.2),
            fmt_rate(virt.3),
        );
    }
    println!("          (cells are writes/reads in tx/s, as in the paper)\n");

    // Shape checks against the paper's ratios.
    let native_virt = results.iter().find(|(l, p, _, _)| *l == "native" && *p == "virtual").unwrap();
    let script_virt = results.iter().find(|(l, p, _, _)| *l == "script" && *p == "virtual").unwrap();
    let native_sgx = results.iter().find(|(l, p, _, _)| *l == "native" && *p == "sgx-sim").unwrap();
    let runtime_ratio = native_virt.2 / script_virt.2.max(1.0);
    let platform_ratio = native_virt.2 / native_sgx.2.max(1.0);
    println!("shape checks:");
    println!(
        "  native/script write ratio: {runtime_ratio:.1}x (paper: 118/33.7 = 3.5x)  {}",
        if runtime_ratio > 1.5 { "PASS (native wins)" } else { "MARGINAL" }
    );
    println!(
        "  virtual/sgx write ratio:   {platform_ratio:.1}x (paper: 118/64.8 = 1.8x) {}",
        if platform_ratio > 1.2 { "PASS (virtual wins; factor injected)" } else { "MARGINAL" }
    );
    println!(
        "  reads >> writes everywhere: {}",
        if results.iter().all(|(_, _, w, r)| r > w) { "PASS" } else { "MARGINAL" }
    );
}
