#!/usr/bin/env bash
# Full offline verification: release build, complete test suite, lints.
#
# Everything runs --offline — external dependencies are vendored as
# stubs under vendor/ (see Cargo.toml), so no network is required.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> discsp-lint (workspace invariants: determinism, metrics, panic safety, schema sync)"
cargo run --release --offline -q -p discsp-lint -- --timing --max-millis 1000

echo "==> fault-injection soak (seed sweep over lossy/delayed/reordering links)"
soak_traces="target/fault-soak-traces"
soak_replay="target/fault-soak-replay"
rm -rf "$soak_traces" "$soak_replay"
TRACE_DIR="$soak_traces" \
  cargo run --release --offline -q --example lossy_links -- "${FAULT_SWEEP_SEEDS:-10}"

echo "==> soak determinism (a second sweep must write byte-identical traces)"
TRACE_DIR="$soak_replay" \
  cargo run --release --offline -q --example lossy_links -- "${FAULT_SWEEP_SEEDS:-10}" > /dev/null
diff -r "$soak_traces" "$soak_replay" \
  || { echo "soak determinism: traces differ between two identical sweeps"; exit 1; }

echo "==> discsp-trace audit (independently recompute metrics from every soak trace)"
cargo run --release --offline -q -p discsp-trace -- audit "$soak_traces"/*.jsonl

echo "==> explore smoke (fault-schedule campaign, fixed seed, all algorithms)"
cargo run --release --offline -q -p discsp-explore -- --algo all --trials 200 --seed 1

echo "==> explore smoke on the sharded executor (100 schedules, 4 workers)"
cargo run --release --offline -q -p discsp-explore -- --algo awc-rslv --trials 100 --seed 1 --sharded 4

echo "==> service smoke (discsp-load fixed-seed matrix; every session trace re-audited)"
service_traces="target/service-traces"
rm -rf "$service_traces"
for active in 4 32; do
  cargo run --release --offline -q -p discsp-service --bin discsp-load -- \
    --sessions 64 --seed 7 --active "$active" --budget 48 \
    --trace-dir "$service_traces/active-$active" > /dev/null
done
cargo run --release --offline -q -p discsp-trace -- audit "$service_traces"/active-*/*.jsonl

echo "==> net smoke (coordinator + agent processes over loopback TCP)"
timeout 120 cargo test -q --release --offline -p discsp-net --test net_loopback

echo "==> bench smoke (store benches, reduced matrix; snapshot untouched)"
bench_out=$(DISCSP_BENCH_SMOKE=1 cargo bench --offline -p discsp-bench --bench nogood_check 2>&1) \
  || { echo "$bench_out"; echo "bench smoke: FAILED"; exit 1; }
echo "$bench_out" | grep -q "benchmarks completed" \
  || { echo "$bench_out"; echo "bench smoke: missing completion marker"; exit 1; }
echo "$bench_out" | tail -3

echo "==> scale smoke (sharded executor, 10^4 agents; snapshot untouched)"
scale_out=$(DISCSP_BENCH_SMOKE=1 cargo bench --offline -p discsp-bench --bench scale 2>&1) \
  || { echo "$scale_out"; echo "scale smoke: FAILED"; exit 1; }
echo "$scale_out" | grep -q "benchmarks completed" \
  || { echo "$scale_out"; echo "scale smoke: missing completion marker"; exit 1; }
echo "$scale_out" | tail -4

echo "==> perf smoke (one traced pass of every benchmark workload; replays checked bit for bit)"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --workload all --seed 1 --trace 1

echo "verify: OK"
