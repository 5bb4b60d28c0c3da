// Gates for the parallel sharded engine (DESIGN.md §14).
//
// The acceptance bar is the determinism oracle: a sharded run must execute,
// per node, the bit-identical message history as the single-shard run of the
// same seed — fingerprinted by NodeKernel::digest(), which mixes (arrival
// time, sender, payload hash) at every OnMessage. The tests here compare
// those digests across shard counts, across pinned placements (tie-ordering),
// and across the two drive modes (threaded vs round-robin), plus unit checks
// for the SPSC channel and the lookahead bound.
//
// Tracing stays off in every digest comparison: span ids ride inside wire
// bytes and are collector-local, so traced runs are only self-consistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/kernel/eden_system.h"
#include "src/sim/spsc_queue.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"
#include "src/workload/workload.h"

namespace eden {
namespace {

TEST(SpscQueue, FifoOrderAndEmptiness) {
  SpscQueue<int> queue;
  EXPECT_TRUE(queue.Empty());
  int out = 0;
  EXPECT_FALSE(queue.Pop(out));
  for (int i = 0; i < 100; i++) {
    queue.Push(i);
  }
  EXPECT_FALSE(queue.Empty());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(queue.Pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(queue.Empty());
}

// One producer thread, one consumer thread; every value must arrive once and
// in order. Mostly valuable under the TSan CI job.
TEST(SpscQueue, ConcurrentProducerConsumer) {
  SpscQueue<uint64_t> queue;
  constexpr uint64_t kCount = 100000;
  std::thread producer([&queue] {
    for (uint64_t i = 0; i < kCount; i++) {
      queue.Push(i);
    }
  });
  uint64_t expected = 0;
  uint64_t value = 0;
  while (expected < kCount) {
    if (queue.Pop(value)) {
      ASSERT_EQ(value, expected);
      expected++;
    }
  }
  producer.join();
  EXPECT_TRUE(queue.Empty());
}

std::vector<uint64_t> NodeDigests(EdenSystem& system) {
  std::vector<uint64_t> digests;
  for (size_t n = 0; n < system.node_count(); n++) {
    digests.push_back(system.node(n).digest().value());
  }
  return digests;
}

struct ScenarioResult {
  std::vector<uint64_t> digests;
  uint64_t completed = 0;
  uint64_t failed = 0;
};

// The main oracle scenario: eight nodes, closed-loop clients on all of them,
// targets on nodes 0 and 5 so traffic crosses every shard boundary under
// every tested layout. `think` > 0 additionally exercises the per-client
// workload rngs (draw sequences must not depend on the layout either).
ScenarioResult RunMixedScenario(uint64_t seed, size_t shards,
                                SimDuration think) {
  SystemConfig config;
  config.seed = seed;
  config.shards = shards;
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(8);
  Capability low = *system.node(0).CreateObject("std.counter", Representation{});
  Capability high =
      *system.node(5).CreateObject("std.counter", Representation{});
  WorkFactory factory = [low, high](size_t client, uint64_t seq) {
    const Capability& target = ((client + seq) % 2 == 0) ? low : high;
    return WorkItem{target, "increment", InvokeArgs{}.AddU64(1)};
  };
  WorkloadStats stats = RunClosedLoop(system, {0, 1, 2, 3, 4, 5, 6, 7},
                                      factory, Milliseconds(40), think);
  ScenarioResult result;
  result.digests = NodeDigests(system);
  result.completed = stats.completed;
  result.failed = stats.failed;
  return result;
}

TEST(ParallelSim, DigestsMatchAcrossShardCounts) {
  for (uint64_t seed : {3u, 11u}) {
    ScenarioResult oracle = RunMixedScenario(seed, 1, Microseconds(200));
    EXPECT_GT(oracle.completed, 0u);
    for (size_t shards : {2u, 4u, 8u}) {
      ScenarioResult parallel = RunMixedScenario(seed, shards,
                                                 Microseconds(200));
      EXPECT_EQ(parallel.digests, oracle.digests)
          << "seed " << seed << ", " << shards << " shards";
      EXPECT_EQ(parallel.completed, oracle.completed);
      EXPECT_EQ(parallel.failed, oracle.failed);
    }
  }
}

// The comparisons above hold between layouts of one binary; this pins the
// 2-shard per-node digests themselves (recorded from the lazy-deletion
// binary-heap queue), so a queue rewrite that reorders pops in every layout
// alike still fails.
TEST(ParallelSim, ShardedDigestFoldIsPinned) {
  ScenarioResult result = RunMixedScenario(3, 2, Microseconds(200));
  Digest fold;
  for (uint64_t digest : result.digests) {
    fold.Mix(digest);
  }
  fold.Mix(result.completed);
  fold.Mix(result.failed);
  EXPECT_EQ(fold.value(), 0xcab9c3782b2fff12ull);
}

TEST(ParallelSim, DigestsMatchWithoutThinkTime) {
  // think == 0 keeps every client saturated: the densest tie pattern.
  ScenarioResult oracle = RunMixedScenario(29, 1, 0);
  ScenarioResult parallel = RunMixedScenario(29, 4, 0);
  EXPECT_GT(oracle.completed, 0u);
  EXPECT_EQ(parallel.digests, oracle.digests);
  EXPECT_EQ(parallel.completed, oracle.completed);
}

// Fan-in scenario driven by explicit futures and a fixed RunUntil deadline,
// so the serial and sharded drives execute exactly the same closed event set.
// `shards == 0` runs the switched LAN under the plain single-threaded
// simulation — the pass-through oracle for the one-shard engine.
std::vector<uint64_t> RunFanInDigest(size_t shards) {
  SystemConfig config;
  config.seed = 21;
  config.shards = shards;
  EdenSystem system(config);
  if (shards == 0) {
    system.lan().EnableSwitched();
  }
  RegisterStandardTypes(system);
  system.AddNodes(4);
  Capability cap = *system.node(0).CreateObject("std.counter", Representation{});
  std::vector<Future<InvokeResult>> futures;
  for (size_t i = 1; i < 4; i++) {
    for (int k = 0; k < 5; k++) {
      futures.push_back(system.node(i).Invoke(cap, "increment"));
    }
  }
  system.RunUntil(Milliseconds(500));
  for (auto& future : futures) {
    EXPECT_TRUE(future.ready());
  }
  return NodeDigests(system);
}

TEST(ParallelSim, ShardCountOnePassesThroughToSerialSwitched) {
  EXPECT_EQ(RunFanInDigest(1), RunFanInDigest(0));
}

// Both drive modes chunk the same per-shard event sequences; only the window
// boundaries differ.
std::vector<uint64_t> RunFanOutDigest(bool threaded) {
  SystemConfig config;
  config.seed = 9;
  config.shards = 4;
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(8);
  Capability cap = *system.node(2).CreateObject("std.counter", Representation{});
  std::vector<Future<InvokeResult>> futures;
  for (size_t i = 0; i < 8; i++) {
    if (i == 2) {
      continue;
    }
    for (int k = 0; k < 2; k++) {
      futures.push_back(system.node(i).Invoke(cap, "increment"));
    }
  }
  system.engine()->RunUntil(Milliseconds(500), threaded);
  for (auto& future : futures) {
    EXPECT_TRUE(future.ready());
  }
  return NodeDigests(system);
}

TEST(ParallelSim, ThreadedMatchesRoundRobin) {
  EXPECT_EQ(RunFanOutDigest(true), RunFanOutDigest(false));
}

// Two saturated senders racing identical-size frames at one receiver: the
// receiver's merge order must come from the canonical (receiver, sender,
// pair-seq) delivery keys, not from which shard each sender happens to
// occupy.
std::vector<uint64_t> RunPinnedLayout(uint32_t shard_a, uint32_t shard_b) {
  SystemConfig config;
  config.seed = 17;
  config.shards = 2;
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNode("receiver").WithShard(0);
  system.AddNode("a").WithShard(shard_a);
  system.AddNode("b").WithShard(shard_b);
  Capability cap = *system.node(0).CreateObject("std.counter", Representation{});
  WorkFactory factory = [cap](size_t, uint64_t) {
    return WorkItem{cap, "increment", InvokeArgs{}.AddU64(1)};
  };
  WorkloadStats stats =
      RunClosedLoop(system, {1, 2}, factory, Milliseconds(30), 0);
  EXPECT_GT(stats.completed, 0u);
  return NodeDigests(system);
}

TEST(ParallelSim, TieOrderingIndependentOfPlacement) {
  EXPECT_EQ(RunPinnedLayout(0, 1), RunPinnedLayout(1, 0));
}

TEST(ParallelSim, LookaheadMatchesMinimumWireLatency) {
  SystemConfig config;
  config.shards = 2;
  EdenSystem system(config);
  EXPECT_GT(system.lan().lookahead(), 0);
  EXPECT_EQ(system.engine()->lookahead(), system.lan().lookahead());
  EXPECT_GE(system.lan().lookahead(), system.config().lan.propagation_delay);
}

// A cross-shard invocation leaves its root on the client's collector and a
// fragment on the server's; MergeSpans must reunite them into one tree.
TEST(ParallelSim, CrossShardSpansRejoinOnMerge) {
  SystemConfig config;
  config.seed = 5;
  config.shards = 2;
  EdenSystem system(config);
  SpanCollector spans;
  system.set_span_collector(&spans);
  RegisterStandardTypes(system);
  system.AddNode("client").WithShard(0);
  system.AddNode("server").WithShard(1);
  Capability cap = *system.node(1).CreateObject("std.counter", Representation{});
  for (int k = 0; k < 3; k++) {
    ASSERT_TRUE(system.Await(system.node(0).Invoke(cap, "increment")).ok());
  }
  system.MergeSpans();
  EXPECT_GT(spans.stats().traces_completed, 0u);
  bool cross_shard_tree = false;
  for (const TraceTree& tree : spans.completed()) {
    bool on_client = false;
    bool on_server = false;
    for (const Span& span : tree.spans) {
      on_client |= span.node == system.node(0).station();
      on_server |= span.node == system.node(1).station();
    }
    cross_shard_tree |= on_client && on_server;
  }
  EXPECT_TRUE(cross_shard_tree);
}

}  // namespace
}  // namespace eden
