// Shared helpers for the Eden benchmark harness.
//
// All benchmarks report *virtual* time: each iteration runs a scenario inside
// the discrete-event simulation and feeds the elapsed simulated seconds to
// google-benchmark via SetIterationTime (benchmarks use ->UseManualTime()).
// Results are therefore deterministic and describe the modeled 1981 system
// (10 Mb/s Ethernet, ~1 MB/s disks, era processor budgets), not the host.
//
// Besides the google-benchmark console report, every binary exports its
// metrics as JSON. The process-wide BenchMetrics() registry accumulates
//   * bench.iteration.virtual_time — one Histogram sample per timed
//     iteration (every SetVirtualTime call), and
//   * the full kernel/store/transport/lan rollup of every EdenSystem built
//     through MakeBenchSystem (folded in when the system is destroyed:
//     counters add and histograms merge across systems, while each gauge
//     keeps the largest level any one system reported).
// EDEN_BENCH_MAIN(name) then writes BENCH_<name>.json next to the binary
// (override with --json=<path>) after the benchmarks run.
#ifndef EDEN_BENCH_BENCH_UTIL_H_
#define EDEN_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/kernel/eden_system.h"
#include "src/metrics/metrics.h"
#include "src/types/standard_types.h"

namespace eden {

// Process-wide registry the JSON export reads. Benchmarks normally touch it
// only through SetVirtualTime and the MakeBenchSystem deleter.
inline MetricsRegistry& BenchMetrics() {
  static MetricsRegistry registry;
  return registry;
}

// Folds one finished system's rollup into BenchMetrics(). A gauge is a level
// within one installation, so summing it over every system a benchmark built
// would report e.g. thousands of members; the largest level seen is kept.
inline void FoldIntoBenchMetrics(const MetricsRegistry& rollup) {
  MetricsRegistry& bench = BenchMetrics();
  for (const auto& [name, counter] : rollup.counters()) {
    bench.counter(name).Increment(counter->value());
  }
  for (const auto& [name, gauge] : rollup.gauges()) {
    const Gauge* seen = bench.FindGauge(name);
    int64_t level = seen == nullptr ? gauge->value()
                                    : std::max(seen->value(), gauge->value());
    bench.gauge(name).Set(level);
  }
  for (const auto& [name, histogram] : rollup.histograms()) {
    bench.histogram(name).MergeFrom(*histogram);
  }
}

// Deleter that folds the dying system's metrics rollup into BenchMetrics(),
// so the exported JSON covers every system a benchmark built — including
// the throwaway per-iteration ones in cold-path benchmarks.
struct BenchSystemDeleter {
  void operator()(EdenSystem* system) const {
    if (system != nullptr) {
      FoldIntoBenchMetrics(system->Rollup());
      delete system;
    }
  }
};

using BenchSystem = std::unique_ptr<EdenSystem, BenchSystemDeleter>;

// Same export for benchmarks that build EdenSystem on the stack: declare one
// of these right after the system and its rollup is merged at scope exit.
struct MetricsExportScope {
  explicit MetricsExportScope(EdenSystem& system) : system_(system) {}
  MetricsExportScope(const MetricsExportScope&) = delete;
  MetricsExportScope& operator=(const MetricsExportScope&) = delete;
  ~MetricsExportScope() { FoldIntoBenchMetrics(system_.Rollup()); }

 private:
  EdenSystem& system_;
};

inline BenchSystem MakeBenchSystem(size_t nodes, uint64_t seed = 42) {
  SystemConfig config;
  config.seed = seed;
  BenchSystem system(new EdenSystem(config));
  RegisterStandardTypes(*system);
  system->AddNodes(nodes);
  return system;
}

// Runs `future` to completion and returns the virtual time it took.
template <typename T>
SimDuration TimeAwait(EdenSystem& system, Future<T> future) {
  SimTime start = system.sim().now();
  system.Await(std::move(future));
  return system.sim().now() - start;
}

// Reports one iteration's virtual time to google-benchmark and records it in
// the exported bench.iteration.virtual_time histogram. Pass `series` to
// additionally record under bench.<series>.virtual_time when a binary wants
// separately exported distributions per scenario.
inline void SetVirtualTime(benchmark::State& state, SimDuration elapsed,
                           const std::string& series = "") {
  state.SetIterationTime(ToSeconds(elapsed));
  BenchMetrics().histogram("bench.iteration.virtual_time").Record(elapsed);
  if (!series.empty()) {
    BenchMetrics().histogram("bench." + series + ".virtual_time").Record(elapsed);
  }
}

// A std.data object with `bytes` of content on `node`.
inline Capability MakeDataObject(EdenSystem& system, size_t node, size_t bytes,
                                 uint8_t fill = 0x5a) {
  Representation rep;
  rep.set_data(0, Bytes(bytes, fill));
  auto cap = system.node(node).CreateObject("std.data", rep);
  return cap.value_or(Capability());
}

// Writes {"bench":<name>,"schema":...,"metrics":<registry>} to `path`.
// Returns false (with a message on stderr) if the file cannot be written.
inline bool WriteBenchJson(const std::string& bench_name,
                           const std::string& path) {
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String(bench_name);
  json.Key("schema").String("eden-bench-v1");
  json.Key("metrics");
  BenchMetrics().WriteJson(json);
  json.EndObject();

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.str().c_str(), out);
  std::fputc('\n', out);
  std::fclose(out);
  return true;
}

// Pulls --json / --json=<path> out of argv (google-benchmark rejects flags
// it does not know) and returns the export path: <path> if given, the
// default otherwise. Mutates argc/argv in place.
inline std::string ConsumeJsonFlag(int* argc, char** argv,
                                   const std::string& default_path) {
  std::string path = default_path;
  int kept = 1;
  for (int i = 1; i < *argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0) {
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  return path;
}

}  // namespace eden

// Replaces BENCHMARK_MAIN(): runs the registered benchmarks, then exports
// the accumulated metrics registry as BENCH_<name>.json in the working
// directory (or wherever --json=<path> points).
#define EDEN_BENCH_MAIN(name)                                                \
  int main(int argc, char** argv) {                                          \
    std::string json_path = ::eden::ConsumeJsonFlag(                         \
        &argc, argv, std::string("BENCH_") + #name + ".json");               \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    if (!::eden::WriteBenchJson(#name, json_path)) return 1;                 \
    return 0;                                                                \
  }

#endif  // EDEN_BENCH_BENCH_UTIL_H_
