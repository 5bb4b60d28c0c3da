#!/usr/bin/env sh
# Tier-1 CI for the Eden repo:
#
#   1. Configure + build the default (RelWithDebInfo) tree and run the whole
#      test suite (the `check` target).
#   2. Configure + build an ASan+UBSan tree at build-asan and run the suite
#      there too (catches lifetime bugs the fast build hides). UBSan runs
#      with -fno-sanitize-recover, so a report fails the test instead of
#      printing and exiting 0, and libstdc++'s assertions are on. This tree
#      also treats compiler warnings as errors, so a new warning fails CI.
#   3. Smoke-run the storage benchmark (--quick) so the perf harness itself
#      stays green; the JSON export lands in the asan build dir and is
#      discarded.
#   4-9. Gated smoke steps, one row each in the table below. A row runs its
#      suite on its own under the ASan tree when it names one, re-runs a
#      seeded chaos case on the fast build when it names one, then runs its
#      bench --quick and gates the export against
#      bench/baselines/BENCH_<bench>.json with perf_compare.py --gate 10 (a
#      histogram mean or p99 that grew by more than 10% fails). The gated
#      histograms are virtual-time, so the gate is machine-independent.
#      Regenerate a baseline with
#        build/bench/<bench> --quick --json=bench/baselines/BENCH_<bench>.json
#      when the behaviour it gates intentionally changes. Why each row:
#        chaos       recovery latency and availability under the seeded fault matrix (E13)
#        tracing     a span collector must add no simulated work (E14)
#        location    broadcast vs directory cold-resolve and Zipf-churn series (E15)
#        lease       hot-object read mix with leases off/on, plus the recall round (E17)
#        membership  drain evacuation and rolling-restart p99, zero lost invocations (E18)
#        telemetry   telemetry must add no simulated work; bundles are byte-identical (E19)
#  10. Parallel-engine smoke: build the sharded-engine determinism suite and
#      the telemetry suite under TSan at build-tsan and run them (the threaded
#      RunUntil windows, the SPSC channels and the horizon protocol are the
#      only concurrent code in the repo — a data race there silently breaks
#      the determinism oracle — and telemetry's per-shard scrape chains run on
#      the shard threads), then smoke-run bench_throughput --quick, whose
#      BM_ShardedSaturated series sweeps 1/2/4/8 shards at 64 and 256 nodes.
#      The sweep's wall-clock speedup is NOT gated: it depends on host core
#      count (a 1-core CI box legitimately measures ~1x). The determinism
#      gate is the ctest suite.
#  11. Benchmark smoke: one short untraced run of every edenbench workload
#      (edenbench/README.md). Host timings are not gated here; the point is
#      the benchmark's own output checks, any of which fails the run:
#      pass-to-pass digest and counter reproduction, 1- vs 2-shard per-node
#      digests, exactly-once counter sums and the reincarnation check. Each
#      workload's seed-1 model_digest must also equal its pinned value, so a
#      change meant to cut host time cannot change the modelled system
#      unnoticed; re-pin a value only when the model is meant to change.
#      Then build edenbench_test in the tree run.py configured and run it:
#      the percentile rule, Zipf determinism, metric names, the ledger sum
#      and the rollup check.
#
#   scripts/ci.sh [jobs]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 4)}

echo "== tier-1 build + tests =="
cmake -B "$repo_root/build" -S "$repo_root"
cmake --build "$repo_root/build" -j "$jobs"
cmake --build "$repo_root/build" --target check

echo "== ASan+UBSan build + tests =="
cmake -B "$repo_root/build-asan" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS -fno-omit-frame-pointer" \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$repo_root/build-asan" -j "$jobs"
(cd "$repo_root/build-asan" && ctest --output-on-failure)

echo "== bench smoke (storage fast path) =="
"$repo_root/build/bench/bench_storage" --quick \
  --json="$repo_root/build/BENCH_bench_storage_smoke.json"

# Steps 4-9: banner | ASan test | fast-build test | its gtest filter | bench
while IFS='|' read -r banner asan_test fast_test fast_filter bench <&3; do
  echo "== $banner =="
  if [ -n "$asan_test" ]; then
    "$repo_root/build-asan/tests/$asan_test"
  fi
  if [ -n "$fast_test" ]; then
    "$repo_root/build/tests/$fast_test" --gtest_filter="$fast_filter"
  fi
  "$repo_root/build/bench/$bench" --quick \
    --json="$repo_root/build/BENCH_$bench.json"
  "$repo_root/scripts/perf_compare.py" \
    "$repo_root/bench/baselines/BENCH_$bench.json" \
    "$repo_root/build/BENCH_$bench.json" --gate 10
done 3<<'EOF'
chaos smoke (fault matrix + recovery-latency gate)||fault_test|Storms/FaultMatrix.*:FaultDeterminism.*|bench_chaos
tracing smoke (span suite under ASan + disabled-overhead gate)|trace_test|||bench_tracing
location smoke (directory backend under ASan + scaling gate)|location_test|||bench_location
lease smoke (read-cache suite under ASan + throughput gate)|lease_test|||bench_lease
membership smoke (elastic membership under ASan + restart-SLO gate)|membership_test|membership_test|RollingRestartChaos.*|bench_membership
telemetry smoke (pipeline under ASan + flight-recorder gate)|telemetry_test|telemetry_test|TelemetryChaos.*|bench_observability
EOF

echo "== TSan build + parallel determinism and telemetry suites =="
cmake -B "$repo_root/build-tsan" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build "$repo_root/build-tsan" -j "$jobs" \
  --target parallel_sim_test telemetry_test
"$repo_root/build-tsan/tests/parallel_sim_test"
"$repo_root/build-tsan/tests/telemetry_test"

echo "== sharded engine smoke (shard sweep, quick) =="
"$repo_root/build/bench/bench_throughput" --quick \
  --json="$repo_root/build/BENCH_bench_throughput_smoke.json"

echo "== benchmark smoke (edenbench output checks, every workload) =="
# workload | its pinned seed-1 model_digest
while IFS='|' read -r workload pinned <&3; do
  status=0
  report=$(cd "$repo_root" && python3 edenbench/run.py --workload "$workload" \
    --seed 1 --seconds 1 --trace 0) || status=$?
  printf '%s\n' "$report"
  [ "$status" -eq 0 ] || exit "$status"
  digest=$(printf '%s\n' "$report" | python3 -c 'import json, sys
print(json.loads(sys.stdin.readline())["edenbench_report"]["model_digest"])')
  if [ "$digest" != "$pinned" ]; then
    echo "$workload: model_digest $digest, pinned $pinned" >&2
    exit 1
  fi
done 3<<'EOF'
ring_csma|e68af865f4f16abe
zipf_lease|c4e081a5799e8856
durable_mirror|6436611582c75446
sharded_ring|5099ef26e0226ecd
EOF
# run.py's tree: $CARGO_TARGET_DIR (relative to the root unless absolute) or
# .bench_build, then edenbench/.
bench_base=${CARGO_TARGET_DIR:-.bench_build}
case $bench_base in
  /*) ;;
  *) bench_base="$repo_root/$bench_base" ;;
esac
cmake --build "$bench_base/edenbench" --target edenbench_test -j "$jobs"
"$bench_base/edenbench/edenbench_test"

echo "CI OK"
