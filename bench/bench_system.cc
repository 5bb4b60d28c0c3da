// E10 — Whole-system workload: a "day in Eden". Not tied to one mechanism;
// this is the integrated behavior the paper's architecture promises, measured
// end-to-end on the Figure 1 installation (five nodes, one file server).
//
// Mix (closed-loop clients on four workstation nodes):
//   45%  counter increments  (shared service object)
//   25%  directory lookups   (naming traffic)
//   20%  mailbox deposits    (write-through durable mail)
//   10%  data reads of a frozen 4 KB object, served from leased local copies
//
//   BM_MixedWorkload/clients          steady state, sweep client count
//   BM_MixedWorkloadWithFailure       same mix while a node fails and
//                                     restarts mid-run: availability and the
//                                     latency tail show the recovery cost
//
// Reported: throughput (ops per virtual second), mean and ~p99 latency,
// availability (% of invocations answered OK).
#include "bench/bench_util.h"
#include "src/workload/workload.h"

namespace eden {
namespace {

constexpr SimDuration kWindow = Seconds(5);

struct MixObjects {
  Capability counter;
  Capability directory;
  Capability mailbox;
  Capability frozen_data;
};

MixObjects SetUpMix(EdenSystem& system) {
  MixObjects mix;
  mix.counter = *system.node(0).CreateObject("std.counter", Representation{});
  mix.directory = *system.node(4).CreateObject("std.directory", Representation{});
  mix.mailbox = *system.node(1).CreateObject("std.mailbox", Representation{});
  Representation data;
  data.set_data(0, Bytes(4096, 0x42));
  mix.frozen_data = *system.node(2).CreateObject("std.data", data);
  system.Await(system.node(2).Invoke(mix.frozen_data, "freeze"));

  // Seed the directory with bindings the workload will look up.
  for (int i = 0; i < 8; i++) {
    system.Await(system.node(4).Invoke(
        mix.directory, "bind",
        InvokeArgs{}.AddString("svc" + std::to_string(i)).AddCapability(
            mix.counter)));
  }
  return mix;
}

WorkFactory MakeMixFactory(const MixObjects& mix) {
  return [mix](size_t client, uint64_t seq) -> WorkItem {
    uint64_t roll = (client * 7919 + seq * 104729) % 100;
    if (roll < 45) {
      return WorkItem{mix.counter, "increment", InvokeArgs{}.AddU64(1)};
    }
    if (roll < 70) {
      return WorkItem{mix.directory, "lookup",
                      InvokeArgs{}.AddString("svc" + std::to_string(seq % 8))};
    }
    if (roll < 90) {
      return WorkItem{mix.mailbox, "deposit",
                      InvokeArgs{}
                          .AddString("client" + std::to_string(client))
                          .AddString("message " + std::to_string(seq))};
    }
    return WorkItem{mix.frozen_data, "get", InvokeArgs{}};
  };
}

void ReportStats(benchmark::State& state, const WorkloadStats& stats,
                 SimDuration window) {
  state.counters["ops_per_virt_sec"] = stats.ThroughputPerVirtualSecond(window);
  state.counters["mean_latency_us"] = ToMicroseconds(stats.latency.mean());
  state.counters["p99_latency_us"] =
      ToMicroseconds(stats.latency.Percentile(0.99));
  state.counters["availability_pct"] = stats.AvailabilityPercent();
}

void BM_MixedWorkload(benchmark::State& state) {
  size_t clients = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SystemConfig config;
    config.seed = 900 + clients;
    EdenSystem system(config);
    MetricsExportScope export_scope(system);
    RegisterStandardTypes(system);
    system.AddNodes(5);
    MixObjects mix = SetUpMix(system);
    std::vector<size_t> client_nodes;
    for (size_t c = 0; c < clients; c++) {
      client_nodes.push_back(c % 4);  // workstations 0-3; node 4 = file server
    }
    state.ResumeTiming();

    SimTime start = system.sim().now();
    WorkloadStats stats = RunClosedLoop(system, client_nodes,
                                        MakeMixFactory(mix), kWindow,
                                        Milliseconds(20));
    SetVirtualTime(state, system.sim().now() - start);
    ReportStats(state, stats, kWindow);
  }
}
BENCHMARK(BM_MixedWorkload)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseManualTime()
    ->Iterations(1);

void BM_MixedWorkloadWithFailure(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SystemConfig config;
    config.seed = 1234;
    // Fast dead-host abandonment keeps the failure window's latency tail
    // bounded (see bench_ablation attempt-timeout sweep).
    config.kernel.attempt_timeout = Milliseconds(500);
    EdenSystem system(config);
    MetricsExportScope export_scope(system);
    RegisterStandardTypes(system);
    system.AddNodes(5);
    MixObjects mix = SetUpMix(system);
    // Everything the failing node hosts must be recoverable: checkpoint the
    // counter (node 0) so it reincarnates at its checksite... which is node 0
    // itself, so bind the checksite to the file server first.
    auto counter_object = system.node(0).FindActive(mix.counter.name());
    counter_object->policy =
        CheckpointPolicy{system.node(4).station(), ReliabilityLevel::kLocal, 0};
    system.Await(system.node(0).CheckpointObject(mix.counter.name()));

    // Node 0 fails 1.5 s in and returns at 3 s.
    system.sim().Schedule(Milliseconds(1500),
                          [&system] { system.node(0).FailNode(); });
    system.sim().Schedule(Milliseconds(3000),
                          [&system] { system.node(0).RestartNode(); });

    std::vector<size_t> client_nodes = {1, 2, 3, 1, 2, 3, 1, 2};
    state.ResumeTiming();

    SimTime start = system.sim().now();
    WorkloadStats stats = RunClosedLoop(system, client_nodes,
                                        MakeMixFactory(mix), kWindow,
                                        Milliseconds(20), Seconds(4));
    SetVirtualTime(state, system.sim().now() - start);
    ReportStats(state, stats, kWindow);
  }
}
BENCHMARK(BM_MixedWorkloadWithFailure)->UseManualTime()->Iterations(1);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN(bench_system);
