#!/bin/sh
# Tier-1 verification, run three ways: a plain build, a build instrumented
# with AddressSanitizer + UndefinedBehaviorSanitizer (the durability layer
# does enough raw file and lifetime juggling that the sanitizers earn
# their keep), and a ThreadSanitizer pass over the concurrent subsystems
# (the OVSDB service thread, the gateway, HA recovery and failover).  Then
# a Release -O2 bench smoke: every JSON-emitting bench must run at a small
# scale and produce its BENCH_<name>.json.  Last, the full-stack
# benchmark's traced runs check every workload's outputs.
#   scripts/ci.sh [jobs]
set -eu
JOBS="${1:-$(nproc)}"

run_suite() {
  build_dir="$1"; shift
  echo "=== configure $build_dir ($*) ==="
  cmake -B "$build_dir" -S . "$@"
  echo "=== build $build_dir ==="
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== test $build_dir ==="
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

# -Werror=format: a format string that does not match its arguments fails
# the plain build.
run_suite build-ci -DCMAKE_CXX_FLAGS=-Werror=format

# Static analysis gates, both layers:
#   * nerpa_check: the full-stack analyzer must pass clean over every stack
#     the repository ships (snvs + all example programs).
#   * clang-tidy over src/tools/bench (skips with a notice when the binary
#     is absent; the GitHub runner installs it).
echo "=== nerpa_check (all shipped stacks) ==="
for stack in $(./build-ci/tools/nerpa_check --list-builtins); do
  echo "--- nerpa_check --builtin $stack --werror ---"
  ./build-ci/tools/nerpa_check --builtin "$stack" --werror
done
echo "=== clang-tidy ==="
./scripts/lint.sh "$JOBS"

# _GLIBCXX_ASSERTIONS bounds-checks std::vector indexing: the interpreter's
# flat per-packet state indexes vectors by resolved slot, and an index past
# size() but within capacity is invisible to ASan.
run_suite build-ci-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS"

# TSan is incompatible with ASan, so it gets its own build; restrict the run
# to the suites that actually exercise threads (the single-thread dispatch
# claim of test_controller's recording clients, OVSDB TCP service thread,
# HTTP gateway event loop + workers, HA restart and hot-standby failover,
# chaos fault storms — including the seeded failover soak in test_chaos —
# snvs integration end to end, and the dlog differential suite: the engine
# now runs on its caller's thread, and the suite stays here so that any
# thread it grows again runs under TSan from the start) to keep the wall
# clock sane.
echo "=== configure build-ci-tsan ==="
cmake -B build-ci-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
echo "=== build build-ci-tsan ==="
cmake --build build-ci-tsan -j "$JOBS" \
  --target test_controller test_ha test_ha_restart test_common \
  test_ovsdb_rpc test_gateway test_chaos test_snvs_integration \
  test_dlog_differential
echo "=== test build-ci-tsan (concurrency suites) ==="
ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
  -R 'test_controller|test_ha|test_ha_restart|test_common|test_ovsdb_rpc|test_gateway|test_chaos|test_snvs_integration|test_dlog_differential'

# The gateway's epoll loop + worker pool also gets a UBSan-only pass:
# ASan shifts object layout and TSan rewrites the memory model, so a
# plain-layout UBSan build is the one that catches misaligned casts and
# integer overflow in the HTTP parser as they ship.
echo "=== configure build-ci-ubsan (gateway) ==="
cmake -B build-ci-ubsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all"
echo "=== build build-ci-ubsan (test_gateway) ==="
cmake --build build-ci-ubsan -j "$JOBS" --target test_gateway
echo "=== test build-ci-ubsan (test_gateway) ==="
ctest --test-dir build-ci-ubsan --output-on-failure -R 'test_gateway'

# Chaos soak: the pinned seeds in tests/test_chaos.cc each drive 50+
# faults across all four seams (device write failures, transport drops,
# torn/corrupted durability files, and lease storms — expiry, clock skew,
# zombie leaders — against the hot-standby pair) and must converge
# byte-identically with every stale-epoch write fenced at the switch.
# Run explicitly under the ASan/UBSan build so any latent lifetime bug in
# the recovery paths fails the job, not just a divergence.
echo "=== chaos soak (ASan/UBSan, pinned seeds) ==="
./build-ci-asan/tests/test_chaos --gtest_filter='ChaosSoak.*'

# Nightly long-soak (NERPA_NIGHTLY=1, cron-only): widen the seed matrix
# well past the pinned three and run the full soak — fault storms, lease
# storms (expiry/skew/zombies), and the stall-fault deadline-park drain —
# under both the ASan/UBSan build and the TSan build, so a race or
# lifetime bug that only one seed in fifty tickles still fails a job
# within a day instead of shipping.
if [ "${NERPA_NIGHTLY:-0}" = "1" ]; then
  echo "=== nightly long-soak (extended seeds, ASan/UBSan + TSan) ==="
  NIGHTLY_SEEDS="${NERPA_NIGHTLY_SEEDS:-101,211,307,401,503,601,701,809,907,1013}"
  NERPA_SOAK_EXTRA_SEEDS="$NIGHTLY_SEEDS" \
    ./build-ci-asan/tests/test_chaos --gtest_filter='ChaosSoak.*'
  NERPA_SOAK_EXTRA_SEEDS="$NIGHTLY_SEEDS" \
    ./build-ci-tsan/tests/test_chaos --gtest_filter='ChaosSoak.*'
fi

# Bench smoke: the perf claims in README/EXPERIMENTS come from Release
# binaries, so the smoke must prove the Release build runs and emits the
# canonical JSON — not that the numbers hit their targets (CI machines vary).
echo "=== bench smoke (Release -O2) ==="
cmake -B build-ci-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci-bench -j "$JOBS" --target \
  bench_dlog_hotpath bench_port_scaling bench_incremental_vs_full \
  bench_lb_coldstart bench_reachability
mkdir -p build-ci-bench/bench-out
for b in dlog_hotpath port_scaling incremental_vs_full lb_coldstart \
    reachability; do
  echo "--- bench_$b --scale=0.05 ---"
  "build-ci-bench/bench/bench_$b" --scale=0.05 \
    --out=build-ci-bench/bench-out >/dev/null
  test -s "build-ci-bench/bench-out/BENCH_$b.json" || {
    echo "bench_$b produced no BENCH_$b.json" >&2; exit 1; }
done

# The ablation (A1) is the one Release run of the scan joins that
# use_arrangements = false selects; it exits non-zero when the indexed and
# scan variants derive different J rows.
echo "--- bench_ablation (indexed and scan joins agree) ---"
cmake --build build-ci-bench -j "$JOBS" --target bench_ablation
build-ci-bench/bench/bench_ablation >/dev/null

# The google-benchmark micro-benchmarks (E7) must run every case without
# an error (e.g. a write case that overflows its table); the timings are
# not gated.
echo "--- bench_transactions --benchmark_min_time=0.05 (no case errors) ---"
cmake --build build-ci-bench -j "$JOBS" --target bench_transactions
build-ci-bench/bench/bench_transactions --benchmark_min_time=0.05 \
  --benchmark_out=build-ci-bench/bench-out/BENCH_transactions.json \
  --benchmark_out_format=json >/dev/null
python3 - build-ci-bench/bench-out/BENCH_transactions.json <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["benchmarks"]
failed = sorted({r["name"] for r in runs if r.get("error_occurred")})
if not runs or failed:
    sys.exit("bench_transactions: no runs" if not runs else
             "bench_transactions errors in: " + ", ".join(failed))
EOF

# Gateway bench is also a perf gate: it compares sustained req/s against
# the checked-in baseline floor and exits nonzero on a >30% regression.
echo "--- bench_gateway --scale=0.1 (regression gate) ---"
cmake --build build-ci-bench -j "$JOBS" --target bench_gateway
build-ci-bench/bench/bench_gateway --scale=0.1 \
  --baseline=bench/baselines/BENCH_gateway_baseline.json \
  --out=build-ci-bench/bench-out >/dev/null
test -s build-ci-bench/bench-out/BENCH_gateway.json || {
  echo "bench_gateway produced no BENCH_gateway.json" >&2; exit 1; }

# Cold-start bench is a perf gate too, on machine-independent ratios: the
# dlog/imperative CPU ratio must not blow past the checked-in ceiling
# (bootstrap fast path regressed) and checkpoint restore must stay
# decisively faster than recomputation.  Full scale — the ratios are
# noisy below ~40 LBs.
echo "--- bench_lb_coldstart --scale=1 (regression gate) ---"
build-ci-bench/bench/bench_lb_coldstart --scale=1 \
  --baseline=bench/baselines/BENCH_lb_coldstart_baseline.json \
  --out=build-ci-bench/bench-out >/dev/null

# Restart bench: drives Checkpoint(), warm restarts and the snapshot
# fallback end to end, and exits non-zero when a corrupt snapshot does not
# trigger the fallback.  It writes BENCH_recovery.json to its working
# directory.
echo "--- bench_recovery --corrupt (restart + snapshot-fallback gate) ---"
cmake --build build-ci-bench -j "$JOBS" --target bench_recovery
rm -f build-ci-bench/bench-out/BENCH_recovery.json
(cd build-ci-bench/bench-out && ../bench/bench_recovery --corrupt >/dev/null)
test -s build-ci-bench/bench-out/BENCH_recovery.json || {
  echo "bench_recovery produced no BENCH_recovery.json" >&2; exit 1; }

# Failover bench is a correctness gate first (zero stale-epoch writes may
# reach the data plane during the zombie phase, enforced unconditionally)
# and an RTO gate second: the p95 lease-expiry-to-first-write time must
# stay under the checked-in ceiling.
echo "--- bench_failover --scale=0.3 (fencing + RTO gate) ---"
cmake --build build-ci-bench -j "$JOBS" --target bench_failover
build-ci-bench/bench/bench_failover --scale=0.3 \
  --baseline=bench/baselines/BENCH_failover_baseline.json \
  --out=build-ci-bench/bench-out >/dev/null
test -s build-ci-bench/bench-out/BENCH_failover.json || {
  echo "bench_failover produced no BENCH_failover.json" >&2; exit 1; }

# Overload bench is both a correctness gate (zero responses served past
# their propagated deadline plus grace, enforced unconditionally) and a
# robustness gate: goodput at 4x offered load must hold the checked-in
# fraction of the 1x plateau (congestion-collapse detector) and
# health-probe p99 at 8x must stay under its ceiling.
echo "--- bench_overload --scale=0.3 (deadline + goodput-plateau gate) ---"
cmake --build build-ci-bench -j "$JOBS" --target bench_overload
build-ci-bench/bench/bench_overload --scale=0.3 \
  --baseline=bench/baselines/BENCH_overload_baseline.json \
  --out=build-ci-bench/bench-out >/dev/null
test -s build-ci-bench/bench-out/BENCH_overload.json || {
  echo "bench_overload produced no BENCH_overload.json" >&2; exit 1; }

# Full-stack benchmark correctness gates (perfbench/, a Release build of
# its own).  A traced run checks every change's device writes against a
# shadow engine, then rebuilds the stack from the final OVSDB rows (tables
# and multicast groups byte-identical, resync write-free) and probes the
# packet path; any failed check exits non-zero.  The timings are not
# gated here.
for w in port_churn bulk_reconfig packet_learn; do
  echo "--- perfbench $w --trace 1 (correctness gate) ---"
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 1
done

echo "CI: all suites passed"
