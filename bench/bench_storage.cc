// E12 — Storage & checkpoint fast path (DESIGN.md §10).
//
// Two families, each with a slow-path ablation as benchmark argument 0 and
// the fast path as argument 1:
//
//   BM_StoreSaturatedWrites/mode   64 concurrent writes against one raw
//       StableStore. mode 0 = strict FIFO, no batching (the pre-§10 write
//       path); mode 1 = C-LOOK elevator + group commit. Exports per-op write
//       latency histograms (bench.storage.writes_{fifo,fast}.write_latency)
//       and an ops/virtual-second rate.
//
//   BM_CheckpointSaturated/mode    48 live objects (16 KB cold + 64 B hot
//       segment) on one node checkpointing concurrently, round after round.
//       mode 0 = full-record checkpoints on the FIFO disk; mode 1 = delta
//       chains + elevator + group commit. Reports checkpoints/virtual-second
//       and bytes written per checkpoint.
//
// Run with --quick for a CI smoke (fewer iterations); --json=<path> to move
// the metrics export.
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/storage/stable_store.h"

namespace eden {
namespace {

DiskConfig SlowPathDisk() {
  DiskConfig config;
  config.elevator = false;
  config.max_batch_ops = 1;
  return config;
}

void BM_StoreSaturatedWrites(benchmark::State& state) {
  bool fast = state.range(0) == 1;
  const std::string series =
      fast ? "storage.writes_fast" : "storage.writes_fifo";
  Histogram& latency =
      BenchMetrics().histogram("bench." + series + ".write_latency");

  constexpr int kOps = 64;
  uint64_t total_ops = 0;
  for (auto _ : state) {
    Simulation sim;
    StableStore store(sim, fast ? DiskConfig{} : SlowPathDisk());
    SimTime start = sim.now();
    std::vector<Future<Status>> writes;
    writes.reserve(kOps);
    for (int i = 0; i < kOps; i++) {
      // Mostly checkpoint-delta-sized records with periodic large bases.
      size_t bytes = (i % 8 == 0) ? 32 * 1024 : 2 * 1024;
      Future<Status> put = store.Put("rec" + std::to_string(i),
                                     Bytes(bytes, static_cast<uint8_t>(i)));
      put.OnReady([&latency, &sim, start] { latency.Record(sim.now() - start); });
      writes.push_back(std::move(put));
    }
    for (auto& put : writes) {
      sim.RunWhile([&] { return !put.ready(); });
    }
    SetVirtualTime(state, sim.now() - start, series);
    total_ops += kOps;
  }
  state.counters["ops_per_vsec"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StoreSaturatedWrites)->Arg(0)->Arg(1)->UseManualTime();

void BM_CheckpointSaturated(benchmark::State& state) {
  bool fast = state.range(0) == 1;
  const std::string series = fast ? "storage.ckpt_fast" : "storage.ckpt_full";

  SystemConfig config;
  config.seed = 42;
  if (!fast) {
    config.kernel.checkpoint_deltas = false;
    config.disk = SlowPathDisk();
  }
  EdenSystem system(config);
  MetricsExportScope export_scope(system);
  RegisterStandardTypes(system);
  system.AddNodes(1);

  constexpr int kObjects = 48;
  std::vector<Capability> caps;
  for (int i = 0; i < kObjects; i++) {
    Representation rep;
    rep.set_data(0, Bytes(16 * 1024, static_cast<uint8_t>(i)));  // cold
    rep.set_data(1, Bytes(64, 0));                               // hot
    auto cap = system.node(0).CreateObject("std.data", rep);
    caps.push_back(cap.value_or(Capability()));
  }

  uint64_t round = 0;
  uint64_t total_checkpoints = 0;
  auto run_round = [&] {
    round++;
    for (int i = 0; i < kObjects; i++) {
      auto object = system.node(0).FindActive(caps[i].name());
      object->core->rep.set_data(
          1, Bytes(64, static_cast<uint8_t>(round + static_cast<uint64_t>(i))));
    }
    std::vector<Future<Status>> checkpoints;
    checkpoints.reserve(kObjects);
    for (int i = 0; i < kObjects; i++) {
      checkpoints.push_back(system.node(0).CheckpointObject(caps[i].name()));
    }
    for (auto& ckpt : checkpoints) {
      system.Await(std::move(ckpt));
    }
  };
  // Warm-up: the first checkpoint of every object is a full base record in
  // both modes; the steady state is what the benchmark times.
  run_round();

  const MetricsRegistry& metrics = system.node(0).metrics();
  uint64_t bytes_before = metrics.CounterValue("store.written_bytes");
  for (auto _ : state) {
    SimTime start = system.sim().now();
    run_round();
    SetVirtualTime(state, system.sim().now() - start, series);
    total_checkpoints += kObjects;
  }
  uint64_t bytes_written =
      metrics.CounterValue("store.written_bytes") - bytes_before;
  state.counters["ckpt_per_vsec"] = benchmark::Counter(
      static_cast<double>(total_checkpoints), benchmark::Counter::kIsRate);
  state.counters["bytes_per_ckpt"] = benchmark::Counter(
      total_checkpoints == 0
          ? 0.0
          : static_cast<double>(bytes_written) /
                static_cast<double>(total_checkpoints));
}
BENCHMARK(BM_CheckpointSaturated)->Arg(0)->Arg(1)->UseManualTime();

}  // namespace
}  // namespace eden

// Custom main: EDEN_BENCH_MAIN plus a --quick flag (CI smoke) that caps the
// per-benchmark virtual-time budget.
int main(int argc, char** argv) {
  std::string json_path =
      ::eden::ConsumeJsonFlag(&argc, argv, "BENCH_bench_storage.json");
  bool quick = false;
  int kept = 1;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  std::vector<char*> args(argv, argv + argc);
  static char min_time[] = "--benchmark_min_time=0.01";
  if (quick) {
    args.push_back(min_time);
  }
  int run_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&run_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(run_argc, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!::eden::WriteBenchJson("bench_storage", json_path)) {
    return 1;
  }
  return 0;
}
