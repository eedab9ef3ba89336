#!/usr/bin/env bash
# Full offline verification: tier-1 (build + tests) plus lint gates.
# Everything resolves against the vendored compat/ crates, so this runs
# without network access; --offline makes that explicit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format (rustfmt drift) =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --offline

# Every test runs exactly once, here; tests/README.md indexes what the
# suite covers (goldens, parity oracles, determinism, chaos, tenancy).
echo "== tests (workspace) =="
cargo test -q --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (deny warnings: no broken or ambiguous intra-doc link; --lib because the juggler binary and library share one doc page) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "== run isolation under the parallel test runner (4 test threads, even on one core) =="
cargo test -q --offline --test metrics_registry --test doctor_golden --test chaos --test malformed_inputs -- --test-threads=4

echo "== JSON throughput (>=1.3x f64 text speedup; records results/BENCH_json_throughput.json) =="
cargo bench --offline -p bench --bench json_throughput

echo "== hash throughput (>=3x SHA-NI speedup at 5.5 KB where the CPU has it; records results/BENCH_hash_throughput.json) =="
cargo bench --offline -p bench --bench hash_throughput

echo "== sim throughput (best seconds per scenario; perf-report holds each to a multiple of the committed baseline; records results/BENCH_sim_throughput.json) =="
cargo bench --offline -p bench --bench sim_throughput

echo "== training allocations (heap allocator calls per one-thread training of each paper family, counted by a global allocator; records results/BENCH_training_allocs.json, whose counts perf-report holds to ceilings) =="
cargo bench --offline -p bench --bench training_allocs

echo "== evict throughput (tenants_tight + 4 pressured policy runs; records results/BENCH_evict_throughput.json and fails only on unstable digests) =="
cargo bench --offline -p bench --bench evict_throughput

echo "== overhead (paired median ratio; every budgeted row ≤ its limit; records results/BENCH_overhead.json) =="
cargo bench --offline -p bench --bench overhead

echo "== figure artifacts (regenerating fig01/02/12/14 reproduces the committed results/fig*.json) =="
for fig in fig01_lir_caching fig02_svm_areas fig12_prediction_accuracy fig14_cluster_config; do
    cargo bench --offline -q -p bench --bench "$fig" >/dev/null
done
git diff --exit-code -- 'results/fig*.json'

echo "== benchmark self-test (printed metrics match BENCHMARK.json; corrupted references fail) =="
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --self-test

echo "== perf report (fresh BENCH_*.json vs results/baselines/) =="
cargo run -q --release --offline --bin juggler -- perf-report

echo "all checks passed"
