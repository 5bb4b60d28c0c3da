// Determinism regression tests for the scheduler and message-path fast
// paths: equal seeds must produce bit-identical executions, fingerprinted by
// Simulation::trace() — a digest of every executed event's (when, seq) pair.
// Any reordering introduced by the slot-pool event queue, the zero-copy
// fragment path, or ACK coalescing (e.g. iterating an unordered container to
// produce wire traffic) shows up here as a digest mismatch.
//
// The two workloads mirror the shapes of bench_invocation and
// bench_migration: a multi-node invocation mix over a lossy wire (exercising
// fragmentation, retransmission and coalesced ACKs), and an object that
// migrates between nodes while being invoked (exercising transfer,
// redirection and cache healing).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/kernel/eden_system.h"
#include "src/sim/simulation.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"
#include "src/workload/workload.h"

namespace eden {
namespace {

// Execution-order digest plus end-state counters: the trace digest alone
// proves event ordering, the stats prove the runs also did the same work.
uint64_t Fingerprint(EdenSystem& system) {
  Digest digest = system.sim().trace();
  digest.Mix(static_cast<uint64_t>(system.sim().now()));
  digest.Mix(system.sim().events_executed());
  for (size_t n = 0; n < system.node_count(); n++) {
    const MetricsRegistry& m = system.node(n).metrics();
    digest.Mix(m.CounterValue("kernel.invoke.started"));
    digest.Mix(m.CounterValue("kernel.invoke.remote"));
    digest.Mix(m.CounterValue("kernel.dispatches"));
  }
  digest.Mix(system.lan().stats().frames_sent);
  digest.Mix(system.lan().stats().bytes_on_wire);
  return digest.value();
}

// bench_invocation-shaped: closed-loop clients on four nodes invoking one
// remote std.data object with mixed argument sizes (the 4 KB puts fragment
// across several frames), over a lossy wire so retransmission, duplicate
// suppression and delayed/piggybacked ACK paths all run.
uint64_t RunInvocationWorkload(uint64_t seed, bool traced = false) {
  SystemConfig config;
  config.seed = seed;
  config.lan.loss_probability = 0.05;
  SpanCollector spans;
  EdenSystem system(config);
  if (traced) {
    system.set_span_collector(&spans);
  }
  RegisterStandardTypes(system);
  system.AddNodes(5);

  Representation rep;
  rep.set_data(0, Bytes(64, 0x5a));
  auto cap = system.node(0).CreateObject("std.data", rep);
  EXPECT_TRUE(cap.ok());

  RunClosedLoop(
      system, {1, 2, 3, 4},
      [&](size_t client, uint64_t seq) {
        size_t arg_bytes = (seq % 3 == 0) ? 4096 : (client % 2 == 0 ? 64 : 512);
        return WorkItem{*cap, "put",
                        InvokeArgs{}.AddBytes(Bytes(arg_bytes, 0x33))};
      },
      /*duration=*/Milliseconds(40), /*mean_think_time=*/Microseconds(200));
  return Fingerprint(system);
}

// bench_migration-shaped: an object hops around the ring while other nodes
// keep invoking it through stale location caches.
uint64_t RunMigrationWorkload(uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(4);

  Representation rep;
  rep.set_data(0, Bytes(2048, 0x77));
  auto cap = system.node(0).CreateObject("std.data", rep);
  EXPECT_TRUE(cap.ok());

  size_t host = 0;
  for (int round = 0; round < 12; round++) {
    // Invoke from a non-host node (warms/stales its cache), then move.
    size_t invoker = (host + 2) % 4;
    EXPECT_TRUE(system.Await(system.node(invoker).Invoke(*cap, "size")).ok());
    auto object = system.node(host).FindActive(cap->name());
    EXPECT_TRUE(object != nullptr) << "round " << round;
    if (object == nullptr) {
      return 0;
    }
    size_t next = (host + 1) % 4;
    EXPECT_TRUE(
        system
            .Await(system.node(host).MoveObject(object,
                                                system.node(next).station()))
            .ok());
    host = next;
    // Chase the now-stale cache entry.
    EXPECT_TRUE(system.Await(system.node(invoker).Invoke(*cap, "get")).ok());
  }
  system.RunFor(Milliseconds(5));
  return Fingerprint(system);
}

// Storage-path shaped: several objects on one node checkpoint concurrently
// (delta chains + group commit on the shared disk arm), then the node fails
// and every object reincarnates from base + replayed deltas. Exercises the
// elevator scheduler, batched flushes and chain restore deterministically.
uint64_t RunCheckpointWorkload(uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  config.disk.commit_interval = Microseconds(500);
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(3);

  std::vector<Capability> caps;
  for (int i = 0; i < 6; i++) {
    Representation rep;
    rep.set_data(0, Bytes(1024 + 256 * i, static_cast<uint8_t>(i)));
    auto cap = system.node(0).CreateObject("std.data", rep);
    EXPECT_TRUE(cap.ok());
    caps.push_back(*cap);
  }
  for (int round = 0; round < 4; round++) {
    std::vector<Future<Status>> checkpoints;
    for (size_t i = 0; i < caps.size(); i++) {
      EXPECT_TRUE(system
                      .Await(system.node(1).Invoke(
                          caps[i], "put",
                          InvokeArgs{}.AddBytes(Bytes(
                              512, static_cast<uint8_t>(round * 16 + i)))))
                      .ok());
      checkpoints.push_back(system.node(0).CheckpointObject(caps[i].name()));
    }
    for (auto& f : checkpoints) {
      EXPECT_TRUE(system.Await(std::move(f)).ok());
    }
  }
  system.node(0).FailNode();
  system.node(0).RestartNode();
  for (const Capability& cap : caps) {
    EXPECT_TRUE(system.Await(system.node(2).Invoke(cap, "size")).ok());
  }
  system.RunFor(Milliseconds(5));
  return Fingerprint(system);
}

// Chaos-shaped: the standard fault storm (wire corruption/duplication/delay,
// flaky disks, crash-restart cycles, a partition/heal pair) over a live
// cross-node workload. Every fault decision draws from rngs forked off the
// simulation seed, so the digest must stay exactly as seed-stable as a clean
// run — this is the acceptance check that the chaos layer (DESIGN.md §11)
// never consults an unseeded source.
uint64_t RunChaosWorkload(uint64_t seed, bool traced = false) {
  SystemConfig config;
  config.seed = seed;
  config.lan.loss_probability = 0.02;
  SpanCollector spans;
  EdenSystem system(config);
  if (traced) {
    system.set_span_collector(&spans);
  }
  RegisterStandardTypes(system);
  system.AddNodes(5);
  system.EnableFaults(
      FaultPlan::StandardStorm(5, 2, Milliseconds(1), Seconds(2)));

  Representation rep;
  rep.set_data(0, Bytes(512, 0x42));
  auto cap = system.node(0).CreateObject("std.data", rep);
  EXPECT_TRUE(cap.ok());
  EXPECT_TRUE(system.Await(system.node(0).CheckpointObject(cap->name())).ok());

  for (int round = 0; round < 30; round++) {
    size_t invoker = 3 + (round % 2);  // the two non-flaky nodes drive
    system.Await(system.node(invoker).Invoke(
        *cap, "put", InvokeArgs{}.AddBytes(Bytes(256, uint8_t(round))),
        InvokeOptions::WithTimeout(Seconds(10))));
    system.RunFor(Milliseconds(60));
  }
  Digest digest;
  digest.Mix(Fingerprint(system));
  const MetricsRegistry& faults = system.metrics();
  digest.Mix(faults.CounterValue("fault.wire.corrupt"));
  digest.Mix(faults.CounterValue("fault.wire.duplicate"));
  digest.Mix(faults.CounterValue("fault.wire.delay"));
  digest.Mix(faults.CounterValue("fault.disk.write_error"));
  digest.Mix(faults.CounterValue("fault.disk.torn_write"));
  digest.Mix(faults.CounterValue("fault.disk.latent_corruption"));
  digest.Mix(faults.CounterValue("fault.node.fail") +
             faults.CounterValue("fault.node.restart"));
  return digest.value();
}

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismTest, InvocationWorkloadDigestIsSeedStable) {
  EXPECT_EQ(RunInvocationWorkload(GetParam()), RunInvocationWorkload(GetParam()));
}

TEST_P(DeterminismTest, MigrationWorkloadDigestIsSeedStable) {
  EXPECT_EQ(RunMigrationWorkload(GetParam()), RunMigrationWorkload(GetParam()));
}

TEST_P(DeterminismTest, CheckpointWorkloadDigestIsSeedStable) {
  EXPECT_EQ(RunCheckpointWorkload(GetParam()), RunCheckpointWorkload(GetParam()));
}

TEST_P(DeterminismTest, ChaosWorkloadDigestIsSeedStable) {
  EXPECT_EQ(RunChaosWorkload(GetParam()), RunChaosWorkload(GetParam()));
}

// The span layer's determinism contract (span.h): attaching a SpanCollector
// must not change the execution by one event. SpanContext rides fixed-width
// in every message (zeros when disabled), span ids come from a collector-
// private counter, and the collector never schedules simulation work — so a
// traced run and an untraced run of the same seed are bit-identical, even
// under packet loss and the full chaos storm.
TEST_P(DeterminismTest, TracingDoesNotPerturbTheInvocationWorkload) {
  EXPECT_EQ(RunInvocationWorkload(GetParam(), /*traced=*/false),
            RunInvocationWorkload(GetParam(), /*traced=*/true));
}

TEST_P(DeterminismTest, TracingDoesNotPerturbTheChaosWorkload) {
  EXPECT_EQ(RunChaosWorkload(GetParam(), /*traced=*/false),
            RunChaosWorkload(GetParam(), /*traced=*/true));
}

// Golden fingerprints, recorded from the lazy-deletion binary-heap queue with
// byte-at-a-time CRC-32 and the node-based dedup set. The tests above only
// compare two runs of one binary, so a queue or wire-path rewrite that pops
// one same-instant pair in a different order would still pass them; these
// pin the values themselves. A change that moves one must explain why.
struct PinnedDigests {
  uint64_t seed;
  uint64_t invocation;
  uint64_t migration;
  uint64_t checkpoint;
  uint64_t chaos;
};

constexpr PinnedDigests kPinned[] = {
    {1, 0xfaf69f2a81f6f537ull, 0xf9557cbb566ed0f0ull, 0x7a98c57297b5ee79ull,
     0xbf5258e635ada16full},
    {42, 0xbd2df8d8b3f7e724ull, 0x90fabc54012862bbull, 0xee776f6b586e05aaull,
     0x64db497f98bba1c5ull},
    {1981, 0x6fa924ab8a990233ull, 0xaa670ee79c80ee15ull, 0x3c1d492f874e9d92ull,
     0xe299a61ee73eee85ull},
    {0xede, 0x9a413ff1e0c82742ull, 0x2d614bfe0241e9e6ull, 0x0c547a342c990529ull,
     0x9d6deb79d35bbf83ull},
};

TEST_P(DeterminismTest, WorkloadDigestsMatchPinnedValues) {
  const PinnedDigests* pinned = nullptr;
  for (const PinnedDigests& entry : kPinned) {
    if (entry.seed == GetParam()) {
      pinned = &entry;
    }
  }
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(RunInvocationWorkload(GetParam()), pinned->invocation);
  EXPECT_EQ(RunMigrationWorkload(GetParam()), pinned->migration);
  EXPECT_EQ(RunCheckpointWorkload(GetParam()), pinned->checkpoint);
  EXPECT_EQ(RunChaosWorkload(GetParam()), pinned->chaos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1, 42, 1981, 0xede));

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity: the fingerprint actually depends on the execution, so the
  // equal-seed assertions above are not vacuous.
  EXPECT_NE(RunInvocationWorkload(7), RunInvocationWorkload(8));
}

TEST(DeterminismTest, TraceDigestCapturesEventOrder) {
  // Two bare simulations running identical schedules agree...
  auto run = [](SimDuration second_delay) {
    Simulation sim;
    int fired = 0;
    sim.Schedule(Microseconds(10), [&] { fired++; });
    sim.Schedule(second_delay, [&] { fired++; });
    EventId doomed = sim.Schedule(Microseconds(30), [&] { fired += 100; });
    sim.Cancel(doomed);
    sim.Run();
    EXPECT_EQ(fired, 2);
    return sim.trace().value();
  };
  EXPECT_EQ(run(Microseconds(20)), run(Microseconds(20)));
  // ...and a schedule that differs only in one event's timestamp does not.
  EXPECT_NE(run(Microseconds(20)), run(Microseconds(21)));
}

}  // namespace
}  // namespace eden
