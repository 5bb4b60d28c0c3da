// Ablation studies for the design choices DESIGN.md calls out. Each series
// turns one mechanism off (or sweeps its key constant) and measures what it
// buys — or costs.
//
//   BM_AblatePassiveReplyDelay/us    the delay passive checkpoint holders add
//                                    before answering locate queries. Safety
//                                    mechanism (active hosts must win); the
//                                    sweep shows its latency cost on the
//                                    reincarnation path.
//   BM_AblateRetransmitTimeout/ms    transport retransmit timer under 15%
//                                    frame loss: too small wastes the wire,
//                                    too large stalls invocations.
//   BM_AblateReplyCache/capacity     server-side at-most-once cache. With it
//                                    disabled, lost replies cause duplicate
//                                    executions (counted, not just timed).
//   BM_AblateAttemptTimeout/ms       per-host attempt timer: how fast an
//                                    invoker abandons a dead host and
//                                    re-locates (failure-recovery latency).
#include "bench/bench_util.h"

namespace eden {
namespace {

void BM_AblatePassiveReplyDelay(benchmark::State& state) {
  SimDuration delay = Milliseconds(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SystemConfig config;
    config.seed = 31 + static_cast<uint64_t>(state.range(0));
    config.kernel.locate.passive_reply_delay = delay;
    EdenSystem system(config);
    MetricsExportScope export_scope(system);
    RegisterStandardTypes(system);
    system.AddNodes(4);
    Capability data = MakeDataObject(system, 0, 4096);
    system.Await(system.node(0).CheckpointObject(data.name()));
    system.Await(system.node(0).Invoke(data, "crash"));
    state.ResumeTiming();
    // Cold invocation of a passive object from another node: broadcast
    // locate -> delayed passive reply -> reincarnation -> dispatch.
    SimDuration elapsed = TimeAwait(system, system.node(2).Invoke(data, "size"));
    SetVirtualTime(state, elapsed);
  }
}
BENCHMARK(BM_AblatePassiveReplyDelay)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->UseManualTime();

void BM_AblateRetransmitTimeout(benchmark::State& state) {
  SystemConfig config;
  config.seed = 77;
  config.lan.loss_probability = 0.15;
  config.transport.retransmit_timeout = Milliseconds(state.range(0));
  EdenSystem system(config);
  MetricsExportScope export_scope(system);
  RegisterStandardTypes(system);
  system.AddNodes(3);
  Capability data = MakeDataObject(system, 0, 2048);
  system.Await(system.node(2).Invoke(data, "size"));  // prime cache
  uint64_t failures = 0;
  for (auto _ : state) {
    SimTime start = system.sim().now();
    InvokeResult result = system.Await(system.node(2).Invoke(data, "get"));
    SimDuration elapsed = system.sim().now() - start;
    SetVirtualTime(state, elapsed);
    if (!result.ok()) {
      failures++;
    }
  }
  state.counters["failures"] = static_cast<double>(failures);
  state.counters["retransmits"] = static_cast<double>(
      system.node(2).metrics().CounterValue("transport.retransmits"));
}
BENCHMARK(BM_AblateRetransmitTimeout)
    ->Arg(5)
    ->Arg(20)
    ->Arg(80)
    ->Arg(320)
    ->UseManualTime();

void BM_AblateReplyCache(benchmark::State& state) {
  size_t capacity = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SystemConfig config;
    config.seed = 123;
    // Make the KERNEL do the retrying: the transport sends each message
    // exactly once (no link-level retransmission), so a lost reply forces
    // the invoking kernel to re-send the request under the same invocation
    // id after its attempt timeout. Without the reply cache, that re-sent
    // request executes again.
    config.lan.loss_probability = 0.2;
    config.transport.max_retransmits = 0;
    config.kernel.attempt_timeout = Milliseconds(150);
    config.kernel.locate.timeout = Milliseconds(30);
    config.kernel.reply_cache_capacity = capacity;
    EdenSystem system(config);
    MetricsExportScope export_scope(system);
    RegisterStandardTypes(system);
    system.AddNodes(3);
    auto counter = system.node(0).CreateObject("std.counter", Representation{});
    state.ResumeTiming();

    constexpr int kCalls = 40;
    int ok_count = 0;
    SimTime start = system.sim().now();
    for (int i = 0; i < kCalls; i++) {
      if (system.Await(system.node(1 + i % 2).Invoke(*counter, "increment"))
              .ok()) {
        ok_count++;
      }
    }
    SetVirtualTime(state, system.sim().now() - start);
    system.lan().set_loss_probability(0.0);
    InvokeResult read = system.Await(system.node(0).Invoke(*counter, "read"));
    double value = static_cast<double>(read.results.U64At(0).value_or(0));
    // With the cache, value == ok_count (exactly-once). Without it, lost
    // replies make retransmitted requests execute again.
    state.counters["extra_executions"] = value - ok_count;
    state.counters["duplicates_suppressed"] = static_cast<double>(
        system.node(0).metrics().CounterValue("kernel.duplicate_requests"));
  }
}
BENCHMARK(BM_AblateReplyCache)->Arg(0)->Arg(4096)->UseManualTime()->Iterations(1);

void BM_AblateAttemptTimeout(benchmark::State& state) {
  SimDuration attempt_timeout = Milliseconds(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SystemConfig config;
    config.seed = 17 + static_cast<uint64_t>(state.range(0));
    config.kernel.attempt_timeout = attempt_timeout;
    EdenSystem system(config);
    MetricsExportScope export_scope(system);
    RegisterStandardTypes(system);
    system.AddNodes(4);
    Capability data = MakeDataObject(system, 0, 1024);
    // Checkpoint at node 3 (the checksite), then let node 2 cache node 0.
    auto object = system.node(0).FindActive(data.name());
    object->policy = CheckpointPolicy{system.node(3).station(),
                                      ReliabilityLevel::kLocal, 0};
    system.Await(system.node(0).CheckpointObject(data.name()));
    system.Await(system.node(2).Invoke(data, "size"));
    // The host dies; node 2 still points at it.
    system.node(0).FailNode();
    state.ResumeTiming();

    // Recovery latency: stale cache -> attempt timeout -> re-locate ->
    // reincarnation at the checksite.
    SimDuration elapsed = TimeAwait(system, system.node(2).Invoke(data, "size"));
    SetVirtualTime(state, elapsed);
  }
}
BENCHMARK(BM_AblateAttemptTimeout)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(8000)
    ->UseManualTime();

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN(bench_ablation);
