// E2/E15 — Object location: the broadcast protocol of paper section 4.3
// against the partitioned directory of DESIGN.md §13, over growing networks.
//
// Series (backend 0 = broadcast, 1 = directory):
//   BM_LocateCacheHit                   hint cache points straight at the host
//   BM_LocateColdResolve/backend/nodes  one cold resolution; exports
//                                       msgs_per_locate, the per-receiver
//                                       frame deliveries the round cost
//   BM_LocateZipfChurn/backend/nodes    Zipf-skewed population under
//                                       move churn: stale caches, forward
//                                       hints, directory updates/fallbacks
//   BM_LocateForwardingChain/hops       invocation chasing a chain of
//                                       forwarding addresses left by moves
//
// Expected shape: a cold broadcast touches every node, so msgs_per_locate
// grows linearly with the network; the directory asks one home node and gets
// one reply, so it stays O(1) at 64 nodes — that constant-vs-linear split is
// the acceptance number for ISSUE 6 (tabulated in EXPERIMENTS.md E15).
//
// Run with --quick for a CI smoke (fewer iterations); --json=<path> to move
// the metrics export.
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace eden {
namespace {

const char* BackendTag(int backend) {
  return backend == 0 ? "broadcast" : "directory";
}

BenchSystem MakeLocationSystem(size_t nodes, int backend, uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  config.kernel.locate.backend =
      backend == 0 ? LocationBackend::kBroadcast : LocationBackend::kDirectory;
  BenchSystem system(new EdenSystem(config));
  RegisterStandardTypes(*system);
  system->AddNodes(nodes);
  return system;
}

// Deterministic xorshift64* draw in [0,1), so benchmark runs are replayable.
double NextUniform(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return static_cast<double>((x * 0x2545f4914f6cdd1dULL) >> 11) /
         static_cast<double>(1ULL << 53);
}

// Zipf(s=1) CDF over `count` ranks: rank 0 is the hot object.
std::vector<double> ZipfCdf(size_t count) {
  std::vector<double> cdf(count);
  double total = 0;
  for (size_t k = 0; k < count; k++) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }
  return cdf;
}

size_t ZipfPick(uint64_t* state, const std::vector<double>& cdf) {
  double u = NextUniform(state);
  for (size_t k = 0; k < cdf.size(); k++) {
    if (u <= cdf[k]) {
      return k;
    }
  }
  return cdf.size() - 1;
}

void BM_LocateCacheHit(benchmark::State& state) {
  auto system = MakeBenchSystem(5);
  Capability data = MakeDataObject(*system, 0, 16);
  system->Await(system->node(2).Invoke(data, "size"));  // prime
  for (auto _ : state) {
    SimDuration elapsed =
        TimeAwait(*system, system->node(2).Invoke(data, "size"));
    SetVirtualTime(state, elapsed);
  }
  state.counters["cache_hits"] = static_cast<double>(
      system->node(2).metrics().CounterValue("kernel.locate.cache_hits"));
}
BENCHMARK(BM_LocateCacheHit)->UseManualTime();

// One cold resolution per iteration: how long it takes and how many
// per-receiver frame deliveries the locate round costs as the network grows.
void BM_LocateColdResolve(benchmark::State& state) {
  const int backend = static_cast<int>(state.range(0));
  const size_t nodes = static_cast<size_t>(state.range(1));
  const std::string series = std::string("location.cold.") + BackendTag(backend);
  uint64_t frames = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = MakeLocationSystem(nodes, backend, 7 + state.iterations());
    Capability data = MakeDataObject(*system, 0, 16);
    system->RunFor(Milliseconds(5));  // creation's directory update lands
    NodeKernel& invoker = system->node(nodes - 1);
    uint64_t frames_before = system->lan().stats().frames_delivered;
    state.ResumeTiming();
    SimDuration elapsed = TimeAwait(*system, invoker.Invoke(data, "size"));
    SetVirtualTime(state, elapsed, series);
    frames += system->lan().stats().frames_delivered - frames_before;
    queries +=
        invoker.metrics().CounterValue("kernel.locate.queries.broadcast") +
        invoker.metrics().CounterValue("kernel.locate.queries.directory");
  }
  // Includes the invoke request/reply pair (constant in both modes), so the
  // broadcast-vs-directory gap is purely the locate round's fan-out.
  state.counters["msgs_per_locate"] =
      queries == 0 ? 0.0
                   : static_cast<double>(frames) / static_cast<double>(queries);
}
BENCHMARK(BM_LocateColdResolve)
    ->ArgsProduct({{0, 1}, {8, 16, 32, 64}})
    ->UseManualTime();

// A Zipf-skewed object population under move churn: cold resolutions, cache
// hits on the hot ranks, stale-host forwards after each move, and (directory
// mode) versioned updates flowing to the homes.
void BM_LocateZipfChurn(benchmark::State& state) {
  const int backend = static_cast<int>(state.range(0));
  const size_t nodes = static_cast<size_t>(state.range(1));
  const size_t kObjects = 64;
  const size_t kQueries = 4 * nodes;
  const std::string series = std::string("location.zipf.") + BackendTag(backend);
  const std::vector<double> cdf = ZipfCdf(kObjects);
  uint64_t frames = 0;
  uint64_t ops = 0;
  uint64_t fallbacks = 0;
  uint64_t stale_forwards = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = MakeLocationSystem(nodes, backend, 1981 + state.iterations());
    std::vector<Capability> population;
    population.reserve(kObjects);
    for (size_t i = 0; i < kObjects; i++) {
      population.push_back(MakeDataObject(*system, i % nodes, 16));
    }
    system->RunFor(Milliseconds(5));
    uint64_t rng = 0x9e3779b97f4a7c15ULL ^
                   static_cast<uint64_t>(state.iterations() + 1);
    uint64_t frames_before = system->lan().stats().frames_delivered;
    state.ResumeTiming();

    SimTime start = system->sim().now();
    for (size_t q = 0; q < kQueries; q++) {
      size_t rank = ZipfPick(&rng, cdf);
      NodeKernel& invoker = system->node((q * 7 + rank) % nodes);
      system->Await(invoker.Invoke(population[rank], "size"));
      ops++;
      if (q % 8 == 7) {
        // Move a hot object to a rotating destination: its cached locations
        // everywhere go stale and the next queries pay forwards/updates.
        size_t hot = ZipfPick(&rng, cdf) % 8;
        const ObjectName& name = population[hot].name();
        for (size_t n = 0; n < nodes; n++) {
          auto object = system->node(n).FindActive(name);
          if (object != nullptr) {
            system->Await(system->node(n).MoveObject(
                object, system->node((n + q) % nodes).station()));
            break;
          }
        }
        system->RunFor(Milliseconds(2));
      }
    }
    SetVirtualTime(state, system->sim().now() - start, series);

    state.PauseTiming();
    frames += system->lan().stats().frames_delivered - frames_before;
    for (size_t n = 0; n < nodes; n++) {
      const MetricsRegistry& m = system->node(n).metrics();
      fallbacks += m.CounterValue("kernel.directory.fallbacks");
      stale_forwards += m.CounterValue("kernel.directory.stale_forwards");
    }
    state.ResumeTiming();
  }
  state.counters["msgs_per_op"] =
      ops == 0 ? 0.0 : static_cast<double>(frames) / static_cast<double>(ops);
  state.counters["fallbacks"] = static_cast<double>(fallbacks);
  state.counters["stale_forwards"] = static_cast<double>(stale_forwards);
}
BENCHMARK(BM_LocateZipfChurn)
    ->ArgsProduct({{0, 1}, {8, 16, 32, 64}})
    ->UseManualTime();

void BM_LocateForwardingChain(benchmark::State& state) {
  // The object moves `hops` times after the invoker cached its location; the
  // next invocation follows the whole redirect chain.
  int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto system = MakeBenchSystem(static_cast<size_t>(hops) + 3,
                                  11 + state.iterations());
    Capability data = MakeDataObject(*system, 0, 16);
    NodeKernel& invoker = system->node(static_cast<size_t>(hops) + 2);
    system->Await(invoker.Invoke(data, "size"));  // cache -> node 0
    for (int h = 1; h <= hops; h++) {
      auto object = system->NodeAt(static_cast<StationId>(h - 1))
                        ->FindActive(data.name());
      system->Await(system->node(static_cast<size_t>(h) - 1)
                        .MoveObject(object, system->node(static_cast<size_t>(h))
                                                .station()));
      system->RunFor(Milliseconds(5));
    }
    state.ResumeTiming();
    SimDuration elapsed = TimeAwait(*system, invoker.Invoke(data, "size"));
    SetVirtualTime(state, elapsed);

    // The cache healed: the next call goes straight to the final host.
    SimDuration healed = TimeAwait(*system, invoker.Invoke(data, "size"));
    state.counters["healed_us"] = ToMicroseconds(healed);
  }
}
BENCHMARK(BM_LocateForwardingChain)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime();

}  // namespace
}  // namespace eden

// Custom main: EDEN_BENCH_MAIN plus a --quick flag (CI smoke) that caps the
// per-benchmark budget.
int main(int argc, char** argv) {
  std::string json_path =
      ::eden::ConsumeJsonFlag(&argc, argv, "BENCH_bench_location.json");
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
  if (!::eden::WriteBenchJson("bench_location", json_path)) {
    return 1;
  }
  return 0;
}
