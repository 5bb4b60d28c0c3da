// E6 — Frozen-object replication (paper section 4.3: a frozen object "can be
// replicated and cached at several sites in order to save the overhead of
// remote invocations. Many traditional operating system utilities, such as
// compilers, will have this property.")
//
// Workload: `clients` nodes each issue a stream of reads against one shared
// 8 KB object for a fixed virtual duration. Two configurations:
//   BM_ReadMutableRemote/clients   object mutable: every read crosses the
//                                  wire and serializes at the owner
//   BM_ReadFrozenCached/clients    object frozen: after the first read each
//                                  node serves from its local copy, a read
//                                  lease that never expires
//
// Reported: aggregate reads completed per virtual second.
//
// Expected shape: mutable-remote throughput saturates (shared Ethernet + the
// owner's dispatch capacity); frozen-cached throughput scales ~linearly with
// the number of clients.
#include "bench/bench_util.h"

namespace eden {
namespace {

constexpr SimDuration kWindow = Seconds(2);

// One client: sequential reads until the deadline. All state is passed as
// parameters (copied into the coroutine frame); a capturing lambda would
// dangle once this helper returns.
Task<void> ReadClientLoop(NodeKernel* node, Capability target, SimTime deadline,
                          std::shared_ptr<uint64_t> completed,
                          std::shared_ptr<int> live) {
  while (node->sim().now() < deadline) {
    InvokeResult result = co_await node->Invoke(target, "get");
    if (result.ok()) {
      (*completed)++;
    }
  }
  (*live)--;
}

// Each client loops sequential reads until the deadline; returns total reads.
uint64_t RunReadClients(EdenSystem& system, const Capability& target,
                        size_t clients) {
  auto completed = std::make_shared<uint64_t>(0);
  auto deadline = system.sim().now() + kWindow;
  auto live = std::make_shared<int>(static_cast<int>(clients));

  for (size_t c = 0; c < clients; c++) {
    Spawn(ReadClientLoop(&system.node(c + 1), target, deadline, completed, live));
  }
  system.sim().RunWhile([live] { return *live > 0; });
  return *completed;
}

void RunThroughput(benchmark::State& state, bool frozen) {
  size_t clients = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto system = MakeBenchSystem(clients + 1, 5 + clients);
    Capability data = MakeDataObject(*system, 0, 8 * 1024);
    if (frozen) {
      system->Await(system->node(0).Invoke(data, "freeze"));
      // Warm every client's lease cache with a never-expiring copy.
      for (size_t c = 0; c < clients; c++) {
        system->Await(system->node(c + 1).Invoke(data, "get"));
      }
      system->RunFor(Milliseconds(500));
    }
    state.ResumeTiming();
    SimTime start = system->sim().now();
    uint64_t reads = RunReadClients(*system, data, clients);
    SimDuration elapsed = system->sim().now() - start;
    SetVirtualTime(state, elapsed);
    state.counters["reads_per_virt_sec"] =
        static_cast<double>(reads) / ToSeconds(elapsed);
    state.counters["replica_reads"] = 0;
    for (size_t c = 0; c < clients; c++) {
      state.counters["replica_reads"] += static_cast<double>(
          system->node(c + 1).metrics().CounterValue(
              "kernel.lease.local_reads"));
    }
  }
}

void BM_ReadMutableRemote(benchmark::State& state) {
  RunThroughput(state, /*frozen=*/false);
}
BENCHMARK(BM_ReadMutableRemote)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(1);

void BM_ReadFrozenCached(benchmark::State& state) {
  RunThroughput(state, /*frozen=*/true);
}
BENCHMARK(BM_ReadFrozenCached)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(1);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN(bench_frozen);
