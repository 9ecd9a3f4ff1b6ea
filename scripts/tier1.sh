#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every PR.
#   build (release) + full test suite + benches compile + lint-clean
# Usage: scripts/tier1.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Committed results (BENCH_*.json) are rewritten only by full bench runs;
# nothing in this gate may touch them.
bench_sums() { sha256sum BENCH_*.json; }
bench_before=$(bench_sums)

echo "== tier1: cargo build --release"
cargo build --release

echo "== tier1: cargo test"
cargo test -q

echo "== tier1: cargo bench --no-run"
cargo bench --no-run -q

echo "== tier1: replica hardening regressions (release)"
# Two of the fixed bugs were debug_assert!s that compiled away under
# --release; the regression tests must exercise the release path.
cargo test -q --release -p ccf-consensus --test replica_hardening

echo "== tier1: bounded chaos sweep (release, fixed seeds)"
cargo run -q --release -p ccf-bench --bin chaos -- --seeds 25

echo "== tier1: chaos determinism (a second sweep, byte-identical OBS_chaos.json)"
cp OBS_chaos.json OBS_chaos.first.json
cargo run -q --release -p ccf-bench --bin chaos -- --seeds 25 > /dev/null
cmp OBS_chaos.json OBS_chaos.first.json
rm -f OBS_chaos.first.json

echo "== tier1: symmetric fast-path smoke (fast == reference, emits JSON)"
cargo run -q --release -p ccf-bench --bin bench_symmetric -- --smoke

echo "== tier1: receipt proof smoke (level store == recursive oracle, emits JSON)"
cargo run -q --release -p ccf-bench --bin bench_receipts -- --smoke

echo "== tier1: trace determinism (two same-seed bench_latency runs, byte-identical)"
cargo run -q --release -p ccf-bench --bin bench_latency -- --smoke > /dev/null
cp OBS_latency.json OBS_latency.first.json
cargo run -q --release -p ccf-bench --bin bench_latency -- --smoke > /dev/null
cmp OBS_latency.json OBS_latency.first.json
rm -f OBS_latency.first.json

echo "== tier1: threaded-runtime figures (fig7, fig8 with 200 ms windows; fig8 fails if signing ignores its count-only policy)"
CCF_BENCH_MS=200 timeout 600 cargo run -q --release -p ccf-bench --bin fig7
CCF_BENCH_MS=200 timeout 600 cargo run -q --release -p ccf-bench --bin fig8

echo "== tier1: examples (each runs once and asserts its own outcome: recovery, offline audit, receipts, governance)"
for example in quickstart banking logging_audit governance_tour disaster_recovery; do
    cargo run -q --release -p ccf-core --example "$example" > /dev/null
done

echo "== tier1: perfbench build + tests (release; catches API changes the benchmark uses)"
cargo build -q --release --manifest-path perfbench/Cargo.toml
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== tier1: clippy -D warnings (whole workspace, all targets)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== tier1: rustdoc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier1: committed BENCH_*.json untouched"
if [ "$(bench_sums)" != "$bench_before" ]; then
    echo "tier1: a BENCH_*.json changed during the run:"
    diff <(echo "$bench_before") <(bench_sums) || true
    exit 1
fi

echo "== tier1: OK"
