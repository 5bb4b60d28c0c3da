// Chaos-layer tests (DESIGN.md §11): the standard fault storm must never
// lose acknowledged checkpointed state, every request must eventually
// complete once the storm passes, peer health must walk its state machine
// deterministically, and a chaotic run must be exactly as reproducible as a
// clean one.
#include <gtest/gtest.h>

#include "src/fault/fault.h"
#include "src/kernel/eden_system.h"
#include "src/types/standard_types.h"
#include "tests/test_util.h"

namespace eden {
namespace {

// Write-through log type (same idiom as failure_test.cc): every accepted
// append is checkpointed before the reply, so an acknowledged append must
// survive anything the chaos layer throws at the system.
std::shared_ptr<TypeManager> MakeWalType() {
  auto type = std::make_shared<AbstractType>("wal", StdObjectType());
  type->AddClass("writers", 1);
  type->AddOperation(AbstractOperation{
      .name = "append",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        auto entry = ctx.args().U64At(0);
        if (!entry.ok()) {
          co_return InvokeResult::Error(entry.status());
        }
        Bytes& log = ctx.rep().mutable_data(0);
        BufferWriter writer;
        writer.WriteU64(*entry);
        log.insert(log.end(), writer.buffer().begin(), writer.buffer().end());
        Status durable = co_await ctx.Checkpoint();
        if (!durable.ok()) {
          co_return InvokeResult::Error(durable);
        }
        co_return InvokeResult::Ok(InvokeArgs{}.AddU64(log.size() / 8));
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kWrite),
      .invocation_class = "writers",
  });
  type->AddOperation(AbstractOperation{
      .name = "entries",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        Bytes log = ctx.rep().data_segment_count() ? ctx.rep().data(0) : Bytes{};
        InvokeArgs out;
        BufferReader reader(log);
        while (!reader.AtEnd()) {
          auto entry = reader.ReadU64();
          if (!entry.ok()) {
            break;
          }
          out.AddU64(*entry);
        }
        co_return InvokeResult::Ok(std::move(out));
      },
      .read_only = true,
  });
  return type->BuildTypeManager();
}

// The acceptance storm: wire corruption/duplication/delay on every link plus
// base loss, flaky disks under the primary and its crash-restart cycles, one
// partition/heal epoch. Acked appends must all survive; once the storm ends
// the system must return to 100% service.
class FaultMatrix : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultMatrix, StandardStormLosesNoAckedStateAndFullyRecovers) {
  SystemConfig config;
  config.seed = GetParam();
  config.lan.loss_probability = 0.02;
  EdenSystem system(config);
  system.RegisterType(MakeWalType());
  constexpr size_t kNodes = 6;
  system.AddNodes(kNodes);
  // Flaky disks + crashes on nodes 0-2, partition clips the highest station.
  // Node 4 stays clean: it drives the workload and holds the mirror.
  const SimTime storm_end = Seconds(8);
  system.EnableFaults(FaultPlan::StandardStorm(kNodes, 3, Milliseconds(50),
                                               storm_end));

  auto log = system.node(0).CreateObject("wal", Representation{});
  ASSERT_TRUE(log.ok());
  auto object = system.node(0).FindActive(log->name());
  object->policy = CheckpointPolicy{system.node(0).station(),
                                    ReliabilityLevel::kMirrored,
                                    system.node(4).station()};
  ASSERT_TRUE(system.Await(system.node(0).CheckpointObject(log->name())).ok());

  std::vector<uint64_t> acknowledged;
  uint64_t next_entry = 1;
  for (int round = 0; round < 40; round++) {
    uint64_t entry = next_entry++;
    InvokeResult result = system.Await(
        system.node(4).Invoke(*log, "append", InvokeArgs{}.AddU64(entry),
                              InvokeOptions::WithTimeout(Seconds(30))));
    if (result.ok()) {
      acknowledged.push_back(entry);
    }
    system.RunFor(Milliseconds(150));
  }

  // Let the storm blow itself out, then bring everything back.
  while (system.sim().now() < storm_end) {
    system.RunFor(Milliseconds(500));
  }
  for (size_t n = 0; n < kNodes; n++) {
    if (system.node(n).failed()) {
      system.node(n).RestartNode();
    }
  }
  system.RunFor(Seconds(2));

  // 100% eventual completion: with the faults quiet, appends succeed again.
  for (int i = 0; i < 3; i++) {
    uint64_t entry = next_entry++;
    InvokeResult result = system.Await(
        system.node(4).Invoke(*log, "append", InvokeArgs{}.AddU64(entry),
                              InvokeOptions::WithTimeout(Seconds(30))));
    ASSERT_TRUE(result.ok()) << "post-storm append failed (seed " << GetParam()
                             << "): " << result.status;
    acknowledged.push_back(entry);
  }

  InvokeResult final_log = system.Await(
      system.node(4).Invoke(*log, "entries", {},
                            InvokeOptions::WithTimeout(Seconds(30))));
  ASSERT_TRUE(final_log.ok()) << final_log.status;
  std::vector<uint64_t> persisted;
  for (size_t i = 0; i < final_log.results.data.size(); i++) {
    persisted.push_back(final_log.results.U64At(i).value());
  }

  // Every acknowledged append survived; the log never duplicated or
  // reordered an entry.
  size_t cursor = 0;
  for (uint64_t entry : acknowledged) {
    bool found = false;
    for (; cursor < persisted.size(); cursor++) {
      if (persisted[cursor] == entry) {
        found = true;
        cursor++;
        break;
      }
    }
    ASSERT_TRUE(found) << "acknowledged entry " << entry
                       << " missing after the storm (seed " << GetParam()
                       << ")";
  }
  for (size_t i = 1; i < persisted.size(); i++) {
    EXPECT_LT(persisted[i - 1], persisted[i]);
  }

  // The storm actually happened.
  const MetricsRegistry& faults = system.metrics();
  EXPECT_GT(faults.CounterValue("fault.wire.corrupt") +
                faults.CounterValue("fault.wire.duplicate") +
                faults.CounterValue("fault.wire.delay"),
            0u);
  EXPECT_GT(faults.CounterValue("fault.node.fail"), 0u);
  EXPECT_EQ(faults.CounterValue("fault.node.fail"),
            faults.CounterValue("fault.node.restart"));
  EXPECT_EQ(faults.CounterValue("fault.partition.epoch"), 2u);  // split + heal
}

INSTANTIATE_TEST_SUITE_P(Storms, FaultMatrix,
                         ::testing::Values(11, 23, 42, 71, 97, 131));

// A chaotic run is exactly as reproducible as a clean one: same seed + same
// plan => same injected faults and same final state.
TEST(FaultDeterminism, SameSeedSameStormSameOutcome) {
  auto run = [](uint64_t seed) {
    SystemConfig config;
    config.seed = seed;
    config.lan.loss_probability = 0.02;
    EdenSystem system(config);
    system.RegisterType(MakeCounterType());
    system.AddNodes(4);
    system.EnableFaults(
        FaultPlan::StandardStorm(4, 2, Milliseconds(10), Seconds(3)));
    // Cross-node traffic through the faulty wire, object on a flaky disk.
    auto cap = system.node(0).CreateObject("counter", CounterRep());
    EXPECT_TRUE(cap.ok());
    EXPECT_TRUE(system.Await(system.node(0).CheckpointObject(cap->name())).ok());
    uint64_t last = 0;
    for (int i = 0; i < 25; i++) {
      InvokeResult result = system.Await(
          system.node(3).Invoke(*cap, "increment", InvokeArgs{}.AddU64(1),
                                InvokeOptions::WithTimeout(Seconds(10))));
      if (result.ok()) {
        last = result.results.U64At(0).value_or(last);
      }
      system.RunFor(Milliseconds(100));
    }
    const MetricsRegistry& faults = system.metrics();
    return std::tuple(last, system.sim().now(),
                      faults.CounterValue("fault.wire.corrupt"),
                      faults.CounterValue("fault.wire.duplicate"),
                      faults.CounterValue("fault.wire.delay"),
                      faults.CounterValue("fault.disk.write_error"),
                      faults.CounterValue("fault.disk.torn_write"),
                      faults.CounterValue("fault.node.fail"));
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed genuinely matters
}

// --- Peer health state machine ----------------------------------------------

// Peer health is about a *node* dying under many objects: each object's
// first post-failure attempt burns a timeout against the dead host, and the
// per-peer failure streak is what lets later attempts skip that cost. The
// fixture therefore spreads several counters over node 1 and warms node 0's
// location cache for all of them.
class PeerHealthFixture : public ::testing::Test {
 protected:
  static constexpr int kObjects = 6;

  PeerHealthFixture() {
    system_.RegisterType(MakeCounterType());
    system_.AddNodes(4);
    for (int i = 0; i < kObjects; i++) {
      auto cap = system_.node(1).CreateObject("counter", CounterRep());
      EXPECT_TRUE(cap.ok());
      system_.Await(
          system_.node(1).Invoke(*cap, "increment", InvokeArgs{}.AddU64(9)));
      EXPECT_TRUE(
          system_.Await(system_.node(1).CheckpointObject(cap->name())).ok());
      // Node 0 learns where the object lives (location cache warm-up).
      EXPECT_TRUE(system_.Await(system_.node(0).Invoke(*cap, "read", {})).ok());
      caps_.push_back(*cap);
    }
  }

  // Reads cached objects from node 0 until node 1 crosses the suspicion
  // threshold (or the cache runs out). Returns how many reads it spent.
  int ReadUntilSuspect() {
    const StationId peer = system_.node(1).station();
    int spent = 0;
    while (spent < kObjects - 1 && !system_.node(0).PeerSuspect(peer)) {
      system_.Await(system_.node(0).Invoke(
          caps_[spent++], "read", {}, InvokeOptions::WithTimeout(Seconds(60))));
    }
    return spent;
  }

  EdenSystem system_;
  std::vector<Capability> caps_;
};

TEST_F(PeerHealthFixture, ConsecutiveFailuresMarkPeerSuspectThenProbeRecovers) {
  const StationId peer = system_.node(1).station();
  EXPECT_FALSE(system_.node(0).PeerSuspect(peer));

  // Node 1 goes dark. Attempts against cached locations fail one after
  // another until the peer crosses the suspicion threshold.
  system_.node(1).FailNode();
  ReadUntilSuspect();
  EXPECT_TRUE(system_.node(0).PeerSuspect(peer));
  EXPECT_GE(system_.node(0).PeerConsecutiveFailures(peer), 3);
  EXPECT_EQ(system_.node(0).metrics().counter("kernel.peer.suspects").value(),
            1u);

  // Probes keep walking their backoff ladder while the peer stays dark.
  system_.RunFor(Seconds(5));
  EXPECT_GE(system_.node(0).metrics().counter("kernel.peer.probes").value(),
            1u);
  EXPECT_TRUE(system_.node(0).PeerSuspect(peer));

  // The peer returns; the next probe's transport-level ack clears suspicion
  // without any application traffic.
  system_.node(1).RestartNode();
  system_.RunFor(Seconds(15));
  EXPECT_FALSE(system_.node(0).PeerSuspect(peer));
  EXPECT_EQ(
      system_.node(0).metrics().counter("kernel.peer.recoveries").value(), 1u);

  // Normal traffic resumes and the checkpointed state survived the outage.
  // (Sends abandoned during the outage may still report a few stale failures
  // after recovery; a fresh success resets the streak — so the failure count
  // is checked after it, and it must never have re-crossed the threshold.)
  InvokeResult result = system_.Await(
      system_.node(0).Invoke(caps_[0], "read", {},
                             InvokeOptions::WithTimeout(Seconds(30))));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 9u);
  EXPECT_FALSE(system_.node(0).PeerSuspect(peer));
  EXPECT_EQ(system_.node(0).PeerConsecutiveFailures(peer), 0);
}

TEST_F(PeerHealthFixture, SuspectPeerFastFailsWithoutWaitingForTimeout) {
  const StationId peer = system_.node(1).station();
  system_.node(1).FailNode();
  int spent = ReadUntilSuspect();
  ASSERT_TRUE(system_.node(0).PeerSuspect(peer));
  ASSERT_LT(spent, kObjects);  // at least one cached location left unspent

  // The next cached location still routes at node 1, but the suspect state
  // refuses the attempt up front instead of burning a full attempt timeout.
  uint64_t fast_fails_before =
      system_.node(0).metrics().counter("kernel.peer.fast_fails").value();
  SimTime before = system_.sim().now();
  InvokeResult result = system_.Await(system_.node(0).Invoke(
      caps_[spent], "read", {}, InvokeOptions::WithTimeout(Seconds(60))));
  EXPECT_FALSE(result.ok());
  // Far quicker than the 2s attempt timeout the earlier reads each paid.
  EXPECT_LT(system_.sim().now() - before, Seconds(2));
  EXPECT_GT(system_.node(0).metrics().counter("kernel.peer.fast_fails").value(),
            fast_fails_before);
}

TEST_F(PeerHealthFixture, PeerHealthCanBeDisabled) {
  SystemConfig config;
  config.kernel.peer_health = false;
  EdenSystem system(config);
  system.RegisterType(MakeCounterType());
  system.AddNodes(2);
  auto cap = system.node(1).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system.Await(system.node(0).Invoke(*cap, "read", {})).ok());
  system.node(1).FailNode();
  for (int i = 0; i < 4; i++) {
    system.Await(system.node(0).Invoke(
        *cap, "read", {}, InvokeOptions::WithTimeout(Seconds(60))));
  }
  EXPECT_FALSE(system.node(0).PeerSuspect(system.node(1).station()));
  EXPECT_EQ(system.node(0).metrics().counter("kernel.peer.suspects").value(),
            0u);
}

}  // namespace
}  // namespace eden
