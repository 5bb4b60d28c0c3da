#!/usr/bin/env sh
# Tier-1 CI for the Eden repo:
#
#   1. Configure + build the default (RelWithDebInfo) tree and run the whole
#      test suite (the `check` target).
#   2. Configure + build an ASan+UBSan tree at build-asan and run the suite
#      there too (catches lifetime bugs the fast build hides).
#   3. Smoke-run the storage benchmark (--quick) so the perf harness itself
#      stays green; the JSON export lands in the asan build dir and is
#      discarded.
#   4. Chaos smoke: re-run the seeded fault-matrix shard on its own, then run
#      bench_chaos --quick and gate its recovery/availability histograms
#      against the committed baseline (bench/baselines/BENCH_bench_chaos.json;
#      virtual-time metrics, so the comparison is machine-independent).
#      Regenerate the baseline with
#        build/bench/bench_chaos --quick --json=bench/baselines/BENCH_bench_chaos.json
#      when a change intentionally moves recovery latency.
#   5. Tracing smoke: run trace_test under the ASan tree on its own (the span
#      collector is the newest lifetime-heavy code), then bench_tracing
#      --quick gated against bench/baselines/BENCH_bench_tracing.json. The
#      gated histograms are invocations-per-segment with tracing off/on —
#      virtual-time counts that the determinism suite pins to be identical
#      with and without a collector, so any drift means the tracing layer
#      started doing simulated work (the "disabled overhead" contract).
#      Regenerate with
#        build/bench/bench_tracing --quick --json=bench/baselines/BENCH_bench_tracing.json
#      when the workload itself intentionally changes.
#   6. Location smoke: run location_test under the ASan tree on its own (the
#      directory backend is the newest kernel code), then bench_location
#      --quick gated against bench/baselines/BENCH_bench_location.json. The
#      gated histograms are the cold-resolve and Zipf-churn virtual-time
#      series for both backends — the broadcast-vs-directory ablation of
#      EXPERIMENTS.md E15. Regenerate with
#        build/bench/bench_location --quick --json=bench/baselines/BENCH_bench_location.json
#      when locate behavior intentionally changes.
#   7. Lease smoke: run lease_test under the ASan tree on its own (the lease
#      cache and recall coroutine paths are the newest lifetime-heavy kernel
#      code), then bench_lease --quick gated against
#      bench/baselines/BENCH_bench_lease.json. The gated histograms are the
#      hot-object read-mix virtual-time series with leases off/on plus the
#      recall round — the caching win and its write-side cost from
#      EXPERIMENTS.md E17. Regenerate with
#        build/bench/bench_lease --quick --json=bench/baselines/BENCH_bench_lease.json
#      when lease behavior intentionally changes.
#   8. Membership smoke: run membership_test under the ASan tree on its own
#      (the drain/rebalance coroutines and the directory handoff path are the
#      newest lifetime-heavy kernel code), re-run the seeded rolling-restart
#      chaos case on the fast build (zero lost/duplicated invocations under
#      wire faults, bit-identical across two same-seed runs), then
#      bench_membership --quick gated against
#      bench/baselines/BENCH_bench_membership.json. The gated histograms are
#      drain evacuation time and the steady-state vs rolling-restart workload
#      p99 — the SLO numbers of EXPERIMENTS.md E18. Regenerate with
#        build/bench/bench_membership --quick --json=bench/baselines/BENCH_bench_membership.json
#      when drain pacing or restart behavior intentionally changes.
#   9. Telemetry smoke: run telemetry_test under the ASan tree on its own
#      (the scrape chain, SLO engine and bundle builder are the newest
#      lifetime-heavy code), re-run the seeded chaos flight-recorder case on
#      the fast build (a fault storm under closed-loop traffic must produce
#      byte-identical diagnostic bundles across two same-seed runs), then
#      bench_observability --quick gated against
#      bench/baselines/BENCH_bench_observability.json. The gated histograms
#      are invocations-per-segment with telemetry off/on (identical by the
#      zero-perturbation contract) plus the window-export and bundle document
#      sizes (deterministic virtual-metrics documents). Regenerate with
#        build/bench/bench_observability --quick --json=bench/baselines/BENCH_bench_observability.json
#      when the export schema intentionally changes.
#  10. Parallel-engine smoke: build the sharded-engine determinism suite under
#      TSan at build-tsan and run it (the threaded RunUntil windows, the SPSC
#      channels and the horizon protocol are the only concurrent code in the
#      repo — a data race there silently breaks the determinism oracle), then
#      smoke-run bench_throughput --quick, whose BM_ShardedSaturated series
#      sweeps 1/2/4/8 shards at 64 and 256 nodes. The sweep's wall-clock
#      speedup is NOT gated: it depends on host core count (a 1-core CI box
#      legitimately measures ~1x). The determinism gate is the ctest suite.
#  11. Benchmark smoke: one short untraced run of every edenbench workload
#      (edenbench/README.md). Host timings are not gated here; the point is
#      the benchmark's own output checks, any of which fails the run:
#      pass-to-pass digest and counter reproduction, 1- vs 2-shard per-node
#      digests, exactly-once counter sums and the reincarnation check.
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
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
cmake --build "$repo_root/build-asan" -j "$jobs"
(cd "$repo_root/build-asan" && ctest --output-on-failure)

echo "== bench smoke (storage fast path) =="
"$repo_root/build/bench/bench_storage" --quick \
  --json="$repo_root/build/BENCH_bench_storage_smoke.json"

echo "== chaos smoke (fault matrix + recovery-latency gate) =="
"$repo_root/build/tests/fault_test" \
  --gtest_filter='Storms/FaultMatrix.*:FaultDeterminism.*'
"$repo_root/build/bench/bench_chaos" --quick \
  --json="$repo_root/build/BENCH_bench_chaos.json"
"$repo_root/scripts/perf_compare.py" \
  "$repo_root/bench/baselines/BENCH_bench_chaos.json" \
  "$repo_root/build/BENCH_bench_chaos.json" --gate 10

echo "== tracing smoke (span suite under ASan + disabled-overhead gate) =="
"$repo_root/build-asan/tests/trace_test"
"$repo_root/build/bench/bench_tracing" --quick \
  --json="$repo_root/build/BENCH_bench_tracing.json"
"$repo_root/scripts/perf_compare.py" \
  "$repo_root/bench/baselines/BENCH_bench_tracing.json" \
  "$repo_root/build/BENCH_bench_tracing.json" --gate 10

echo "== location smoke (directory backend under ASan + scaling gate) =="
"$repo_root/build-asan/tests/location_test"
"$repo_root/build/bench/bench_location" --quick \
  --json="$repo_root/build/BENCH_bench_location.json"
"$repo_root/scripts/perf_compare.py" \
  "$repo_root/bench/baselines/BENCH_bench_location.json" \
  "$repo_root/build/BENCH_bench_location.json" --gate 10

echo "== lease smoke (read-cache suite under ASan + throughput gate) =="
"$repo_root/build-asan/tests/lease_test"
"$repo_root/build/bench/bench_lease" --quick \
  --json="$repo_root/build/BENCH_bench_lease.json"
"$repo_root/scripts/perf_compare.py" \
  "$repo_root/bench/baselines/BENCH_bench_lease.json" \
  "$repo_root/build/BENCH_bench_lease.json" --gate 10

echo "== membership smoke (elastic membership under ASan + restart-SLO gate) =="
"$repo_root/build-asan/tests/membership_test"
"$repo_root/build/tests/membership_test" \
  --gtest_filter='RollingRestartChaos.*'
"$repo_root/build/bench/bench_membership" --quick \
  --json="$repo_root/build/BENCH_bench_membership.json"
"$repo_root/scripts/perf_compare.py" \
  "$repo_root/bench/baselines/BENCH_bench_membership.json" \
  "$repo_root/build/BENCH_bench_membership.json" --gate 10

echo "== telemetry smoke (pipeline under ASan + flight-recorder gate) =="
"$repo_root/build-asan/tests/telemetry_test"
"$repo_root/build/tests/telemetry_test" \
  --gtest_filter='TelemetryChaos.*'
"$repo_root/build/bench/bench_observability" --quick \
  --json="$repo_root/build/BENCH_bench_observability.json"
"$repo_root/scripts/perf_compare.py" \
  "$repo_root/bench/baselines/BENCH_bench_observability.json" \
  "$repo_root/build/BENCH_bench_observability.json" --gate 10

echo "== TSan build + parallel determinism suite =="
cmake -B "$repo_root/build-tsan" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build "$repo_root/build-tsan" -j "$jobs" --target parallel_sim_test
"$repo_root/build-tsan/tests/parallel_sim_test"

echo "== sharded engine smoke (shard sweep, quick) =="
"$repo_root/build/bench/bench_throughput" --quick \
  --json="$repo_root/build/BENCH_bench_throughput_smoke.json"

echo "== benchmark smoke (edenbench output checks, every workload) =="
for workload in ring_csma zipf_lease durable_mirror sharded_ring; do
  (cd "$repo_root" && python3 edenbench/run.py --workload "$workload" \
    --seed 1 --seconds 1 --trace 0)
done

echo "CI OK"
