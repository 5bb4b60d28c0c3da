// E17 — Lease-based read caching of hot mutable objects (DESIGN.md §15):
// aggregate read throughput on one hot counter as the network and the write
// mix grow, leases on vs off.
//
// Series (leases 0 = off, 1 = on):
//   BM_LeaseHotReadMix/leases/nodes/write_pct
//       every node but the home reads the hot object each round, all at
//       once; with probability write_pct a round is instead an update round
//       (one station writes, the rest read), so write_pct is the object's
//       mutation rate relative to read bursts. Exports reads_per_vsec
//       (aggregate virtual-time read throughput), local_read_fraction, and
//       the grant/recall/renewal traffic the mix generated.
//   BM_LeaseRecallWriteLatency/holders
//       one write against `holders` outstanding read leases: the full
//       recall -> release -> commit round, i.e. what a writer pays for the
//       readers' fast path.
//
// Expected shape: with 0-10% writes a leased read is a local dispatch, so
// reads_per_vsec grows with the node count instead of flatlining at the
// home's round-trip rate — the >=3x-at-16-nodes split is the acceptance
// number for ISSUE 8 (tabulated in EXPERIMENTS.md E17). At 50% writes the
// recalls eat the benefit: leases hover near the no-lease line, which is the
// honest cost side of the trade.
//
// Run with --quick for a CI smoke (fewer iterations); --json=<path> to move
// the metrics export.
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace eden {
namespace {

// Deterministic xorshift64* draw in [0,1), so benchmark runs are replayable
// and the leases-on/off workloads are op-for-op identical.
double NextUniform(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return static_cast<double>((x * 0x2545f4914f6cdd1dULL) >> 11) /
         static_cast<double>(1ULL << 53);
}

BenchSystem MakeLeaseSystem(size_t nodes, bool leases, uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  config.kernel.lease_reads = leases;
  BenchSystem system(new EdenSystem(config));
  RegisterStandardTypes(*system);
  system->AddNodes(nodes);
  return system;
}

void BM_LeaseHotReadMix(benchmark::State& state) {
  const bool leases = state.range(0) != 0;
  const size_t nodes = static_cast<size_t>(state.range(1));
  const int write_pct = static_cast<int>(state.range(2));
  const size_t kRounds = 24;
  const std::string series =
      std::string("lease.mix.") + (leases ? "on" : "off");
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t local_reads = 0;
  uint64_t grants = 0;
  uint64_t recalls = 0;
  uint64_t renewals = 0;
  double vseconds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = MakeLeaseSystem(nodes, leases, 1981 + state.iterations());
    auto cap = system->node(0).CreateObject("std.counter", Representation{});
    system->RunFor(Milliseconds(5));  // creation's directory update lands
    // Same seed for both modes: the on/off op sequences are identical, so
    // the throughput split is purely the lease machinery.
    uint64_t rng = 0x9e3779b97f4a7c15ULL ^
                   static_cast<uint64_t>(state.iterations() + 1);
    state.ResumeTiming();

    SimTime start = system->sim().now();
    for (size_t r = 0; r < kRounds; r++) {
      // Aggregate load: every station fires its op for this round at once
      // (leases let the reads proceed in parallel on their own processors;
      // without them every read funnels through the home kernel). A round
      // mutates the object with probability write_pct — one station writes,
      // recalling whatever leases the read bursts built up.
      size_t writer = 0;  // station 0 never plays, so 0 = read-only round
      if (NextUniform(&rng) * 100.0 < static_cast<double>(write_pct)) {
        writer = 1 + static_cast<size_t>(NextUniform(&rng) *
                                         static_cast<double>(nodes - 1));
      }
      std::vector<Future<InvokeResult>> round;
      round.reserve(nodes - 1);
      for (size_t n = 1; n < nodes; n++) {
        if (n == writer) {
          round.push_back(system->node(n).Invoke(*cap, "increment"));
          writes++;
        } else {
          round.push_back(system->node(n).Invoke(*cap, "read"));
          reads++;
        }
      }
      for (Future<InvokeResult>& op : round) {
        system->Await(std::move(op));
      }
    }
    SimDuration elapsed = system->sim().now() - start;
    SetVirtualTime(state, elapsed, series);
    vseconds += ToSeconds(elapsed);

    state.PauseTiming();
    for (size_t n = 0; n < nodes; n++) {
      const MetricsRegistry& m = system->node(n).metrics();
      local_reads += m.CounterValue("kernel.lease.local_reads");
      grants += m.CounterValue("kernel.lease.grants");
      recalls += m.CounterValue("kernel.lease.recalls");
      renewals += m.CounterValue("kernel.lease.renewals");
    }
    state.ResumeTiming();
  }
  state.counters["reads_per_vsec"] =
      vseconds == 0 ? 0.0 : static_cast<double>(reads) / vseconds;
  state.counters["local_read_fraction"] =
      reads == 0 ? 0.0
                 : static_cast<double>(local_reads) / static_cast<double>(reads);
  state.counters["writes"] = static_cast<double>(writes);
  state.counters["grants"] = static_cast<double>(grants);
  state.counters["recalls"] = static_cast<double>(recalls);
  state.counters["renewals"] = static_cast<double>(renewals);
}
BENCHMARK(BM_LeaseHotReadMix)
    ->ArgsProduct({{0, 1}, {8, 16, 32, 64}, {0, 10, 50}})
    ->UseManualTime();

// The writer's bill: one write-class invocation against `holders` live
// leases pays a recall round before it may commit.
void BM_LeaseRecallWriteLatency(benchmark::State& state) {
  const size_t holders = static_cast<size_t>(state.range(0));
  uint64_t recalls = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto system =
        MakeLeaseSystem(holders + 2, /*leases=*/true, 7 + state.iterations());
    auto cap = system->node(0).CreateObject("std.counter", Representation{});
    system->RunFor(Milliseconds(5));
    for (size_t h = 1; h <= holders; h++) {
      system->Await(system->node(h).Invoke(*cap, "read"));
    }
    system->RunFor(Milliseconds(5));  // every grant lands
    state.ResumeTiming();
    SimDuration elapsed = TimeAwait(
        *system, system->node(holders + 1).Invoke(*cap, "increment"));
    SetVirtualTime(state, elapsed, "lease.recall");
    recalls += system->node(0).metrics().CounterValue("kernel.lease.recalls");
  }
  state.counters["recalls"] = static_cast<double>(recalls);
}
BENCHMARK(BM_LeaseRecallWriteLatency)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(48)
    ->UseManualTime();

}  // namespace
}  // namespace eden

// Custom main: EDEN_BENCH_MAIN plus a --quick flag (CI smoke) that caps the
// per-benchmark budget.
int main(int argc, char** argv) {
  std::string json_path =
      ::eden::ConsumeJsonFlag(&argc, argv, "BENCH_bench_lease.json");
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
  if (!::eden::WriteBenchJson("bench_lease", json_path)) {
    return 1;
  }
  return 0;
}
