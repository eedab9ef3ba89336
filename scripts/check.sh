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

echo "== tests (workspace) =="
cargo test -q --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (deny warnings: no broken or ambiguous intra-doc link; --lib because the juggler binary and library share one doc page) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "== compat JSON: round-trip, serde attributes, depth limit, JSON reader strictness (RFC 8259: leading zeros, a point without digits on both sides and raw control bytes in strings are errors), malformed input, old artifacts, profile parity, number-text parity with std; >=1.3x f64 text speedup (records results/BENCH_json_throughput.json) =="
cargo test -q --offline -p serde -p serde_json -p serde_derive
cargo test -q --offline --test malformed_inputs --test old_artifacts
cargo test -q --offline -p obs --lib -- prof::tests::committed_profile_round_trips_byte_identically
cargo bench --offline -p bench --bench json_throughput

echo "== profiling fold (database fold == hash-map oracle; streamed fold == collect then ingest; watched size runs == full runs; shared planner == fresh plans; sized grid points == fresh builds; instrumentation fidelity) =="
cargo test -q --offline -p instrument
cargo test -q --offline --test instrumentation_fidelity --test streamed_layouts --test lineage_sizing

echo "== trace golden (Chrome trace_event export is byte-stable) =="
cargo test -q --offline --test trace_golden

echo "== metrics registry (concurrent exactness; run isolation; thread-count-stable exports) =="
cargo test -q --offline --test metrics_registry

echo "== run isolation under the parallel test runner (4 test threads, even on one core) =="
cargo test -q --offline --test metrics_registry --test doctor_golden --test chaos --test malformed_inputs -- --test-threads=4

echo "== doctor golden (diagnostics report is byte-stable) =="
cargo test -q --offline --test doctor_golden

echo "== hash parity, artifact digest golden and ledger determinism (SHA-NI and portable SHA-256 agree; paper-scale training artifacts and menus are bit-identical; manifest hash is thread-count-stable) =="
cargo test -q --offline -p obs --lib -- hash::
cargo test -q --offline --test ledger_determinism --test artifact_digest_golden

echo "== hash throughput (>=3x SHA-NI speedup at 5.5 KB where the CPU has it; records results/BENCH_hash_throughput.json) =="
cargo bench --offline -p bench --bench hash_throughput

echo "== chaos matrix (workload x fault plan x seed recovery invariants) =="
cargo test -q --offline --test chaos

echo "== chaos golden (drill report is byte-stable) =="
cargo test -q --offline --test chaos_golden

echo "== sim throughput (best seconds per scenario; perf-report holds each to a multiple of the committed baseline; records results/BENCH_sim_throughput.json) =="
cargo bench --offline -p bench --bench sim_throughput

echo "== training allocations (heap allocator calls per one-thread training of each paper family, counted by a global allocator; records results/BENCH_training_allocs.json, whose counts perf-report holds to ceilings) =="
cargo bench --offline -p bench --bench training_allocs

echo "== tenants matrix (workload pair x weight ratio x memory pressure x seed invariants) =="
cargo test -q --offline --test tenants

echo "== tenants golden (two-tenant contention drill report is byte-stable) =="
cargo test -q --offline --test tenants_golden

echo "== evict-heavy golden + victim oracle (three-tenant 2 GB run and every eviction policy are bit-identical; single-pass victim == slice oracle on roomy, pressured and tenancy stores (the victim filter runs all three); evict throughput records results/BENCH_evict_throughput.json and fails only on unstable digests) =="
cargo test -q --offline --test evict_heavy_golden
cargo test -q --offline -p cluster-sim --lib -- victim eviction:: re_evicted
cargo bench --offline -p bench --bench evict_throughput

echo "== tenancy parity (a lone active tenant next to a weightless one is the plain engine, quiet and traced under faults; one stats view) =="
cargo test -q --offline -p cluster-sim --lib -- tenant:: active_stats
cargo test -q --offline -p cluster-sim --test proptest_tenants

echo "== profile determinism (call-tree structure digest is thread-count-stable) =="
cargo test -q --offline --test profile_determinism

echo "== profile golden (structure-only phase tree is byte-stable) =="
cargo test -q --offline --test profile_golden

echo "== health determinism (fold digest is thread-count-stable) =="
cargo test -q --offline --test health_determinism

echo "== health golden (drift drill names the onset run; tree is byte-stable; health files no report beside the ledger's manifests and sample cache) =="
cargo test -q --offline --test health_golden

echo "== ledger read path (runs list/watch/health see only verified runs; atomic re-record; sample cache stays put; profile --diff reads a saved --format json profile) =="
cargo test -q --offline --test ledger_cli --test profile_cli
cargo test -q --offline -p obs --lib -- ledger::

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
