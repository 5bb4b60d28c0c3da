// Tests for paper section 4.4: checkpoint, checksite, crash, reincarnation,
// and node failure/recovery.
#include <gtest/gtest.h>

#include "src/kernel/eden_system.h"
#include "tests/test_util.h"

namespace eden {
namespace {

class ReliabilityFixture : public ::testing::Test {
 protected:
  ReliabilityFixture() {
    system_.RegisterType(MakeCounterType());
    system_.AddNodes(4);
  }

  InvokeResult Call(NodeKernel& from, const Capability& cap, const std::string& op,
                    InvokeArgs args = {}) {
    return system_.Await(from.Invoke(cap, op, std::move(args)));
  }

  // Creates a counter on node 0, increments to `value`, checkpoints it.
  Capability MakeCheckpointedCounter(uint64_t value) {
    auto cap = system_.node(0).CreateObject("counter", CounterRep());
    EXPECT_TRUE(cap.ok());
    if (value > 0) {
      Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(value));
    }
    Status status = system_.Await(system_.node(0).CheckpointObject(cap->name()));
    EXPECT_TRUE(status.ok()) << status;
    return *cap;
  }

  EdenSystem system_;
};

TEST_F(ReliabilityFixture, CheckpointWritesToStableStore) {
  Capability cap = MakeCheckpointedCounter(5);
  EXPECT_TRUE(system_.node(0).HasCheckpoint(cap.name()));
  EXPECT_GT(system_.node(0).metrics().CounterValue("store.writes"), 0u);
}

TEST_F(ReliabilityFixture, CrashWithoutCheckpointLosesObject) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Call(system_.node(0), *cap, "increment");
  InvokeResult result = Call(system_.node(0), *cap, "crash");
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(system_.node(0).IsActive(cap->name()));
  // Never checkpointed: the object is simply gone.
  result = Call(system_.node(1), *cap, "read");
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST_F(ReliabilityFixture, CrashedObjectReincarnatesFromCheckpoint) {
  Capability cap = MakeCheckpointedCounter(7);
  // Mutate past the checkpoint; this increment will be lost.
  Call(system_.node(0), cap, "increment", InvokeArgs{}.AddU64(100));
  InvokeResult result = Call(system_.node(0), cap, "crash");
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(system_.node(0).IsActive(cap.name()));

  // Next invocation reincarnates the object from the last checkpoint:
  // the checkpointed 7 survives, the un-checkpointed 100 does not.
  result = Call(system_.node(1), cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 7u);
  EXPECT_TRUE(system_.node(0).IsActive(cap.name()));
  EXPECT_GT(system_.node(0).metrics().CounterValue("kernel.activations"), 0u);
}

TEST_F(ReliabilityFixture, NodeFailureThenRestartRecoversCheckpointedState) {
  Capability cap = MakeCheckpointedCounter(3);
  system_.node(0).FailNode();
  EXPECT_FALSE(system_.node(0).IsActive(cap.name()));

  // While the node is down the object is unreachable.
  InvokeResult result = system_.Await(
      system_.node(1).Invoke(cap, "read", {}, InvokeOptions::WithTimeout(Milliseconds(500))));
  EXPECT_FALSE(result.ok());

  system_.node(0).RestartNode();
  result = Call(system_.node(1), cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 3u);
}

TEST_F(ReliabilityFixture, RemoteChecksiteHoldsTheLongTermState) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  // Bind the checksite to node 2, then checkpoint through type code.
  auto object = system_.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  object->policy = CheckpointPolicy{system_.node(2).station(),
                                    ReliabilityLevel::kLocal, 0};
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(9));
  Status status = system_.Await(system_.node(0).CheckpointObject(cap->name()));
  ASSERT_TRUE(status.ok()) << status;

  EXPECT_FALSE(system_.node(0).HasCheckpoint(cap->name()));
  EXPECT_TRUE(system_.node(2).HasCheckpoint(cap->name()));

  // Node 0 (execution site) dies; the object reincarnates at its checksite.
  system_.node(0).FailNode();
  InvokeResult result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 9u);
  EXPECT_TRUE(system_.node(2).IsActive(cap->name()));
}

TEST_F(ReliabilityFixture, MirroredCheckpointWritesBothSites) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  auto object = system_.node(0).FindActive(cap->name());
  object->policy = CheckpointPolicy{system_.node(0).station(),
                                    ReliabilityLevel::kMirrored,
                                    system_.node(3).station()};
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(11));
  Status status = system_.Await(system_.node(0).CheckpointObject(cap->name()));
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(system_.node(0).HasCheckpoint(cap->name()));
  // The mirror holds a copy but does NOT answer locate queries for it.
  EXPECT_FALSE(system_.node(3).HasCheckpoint(cap->name()));
  EXPECT_GT(system_.node(3).store().record_count(), 0u);
}

TEST_F(ReliabilityFixture, MirrorPromotesAutomaticallyAfterPermanentPrimaryLoss) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  auto object = system_.node(0).FindActive(cap->name());
  object->policy = CheckpointPolicy{system_.node(0).station(),
                                    ReliabilityLevel::kMirrored,
                                    system_.node(3).station()};
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(21));
  ASSERT_TRUE(system_.Await(system_.node(0).CheckpointObject(cap->name())).ok());

  // Node 0 (execution site AND primary checksite) is permanently lost. The
  // mirror holder answers the locate (after active and primary-passive
  // sites had their chance), promotes its mirror chain, and reincarnates
  // the object — no administrative intervention (DESIGN.md §11).
  system_.node(0).FailNode();
  InvokeResult result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 21u);
  EXPECT_TRUE(system_.node(3).IsActive(cap->name()));
  EXPECT_TRUE(system_.node(3).HasCheckpoint(cap->name()));
  EXPECT_EQ(
      system_.node(3).metrics().counter("kernel.restore.fallbacks").value(),
      1u);
}

TEST(ReliabilityNoFallback, ManualMirrorPromotionStillRecovers) {
  // With the automatic fallback disabled, permanent primary loss leaves the
  // object unavailable until an administrator promotes the mirror.
  SystemConfig config;
  config.kernel.restore_fallback = false;
  EdenSystem system(config);
  system.RegisterType(MakeCounterType());
  system.AddNodes(4);

  auto cap = system.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  auto object = system.node(0).FindActive(cap->name());
  object->policy = CheckpointPolicy{system.node(0).station(),
                                    ReliabilityLevel::kMirrored,
                                    system.node(3).station()};
  system.Await(
      system.node(0).Invoke(*cap, "increment", InvokeArgs{}.AddU64(21)));
  ASSERT_TRUE(system.Await(system.node(0).CheckpointObject(cap->name())).ok());

  system.node(0).FailNode();
  InvokeResult result = system.Await(system.node(1).Invoke(
      *cap, "read", {}, InvokeOptions::WithTimeout(Milliseconds(500))));
  EXPECT_FALSE(result.ok());

  Status promoted = system.Await(system.node(3).PromoteMirror(cap->name()));
  ASSERT_TRUE(promoted.ok()) << promoted;
  result = system.Await(system.node(1).Invoke(*cap, "read", {}));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 21u);
  EXPECT_TRUE(system.node(3).IsActive(cap->name()));
}

TEST_F(ReliabilityFixture, CheckpointToUnreachableChecksiteFails) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  auto object = system_.node(0).FindActive(cap->name());
  object->policy = CheckpointPolicy{system_.node(2).station(),
                                    ReliabilityLevel::kLocal, 0};
  system_.node(2).FailNode();
  Status status = system_.Await(system_.node(0).CheckpointObject(cap->name()));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(ReliabilityFixture, ReincarnationHandlerRunsBeforeDispatch) {
  // A type whose reincarnation handler rebuilds a short-term marker that the
  // operation then reads: proves ordering (handler before queued invocation).
  auto type = std::make_shared<TypeManager>("phoenix");
  type->SetReincarnation([](InvokeContext& ctx) -> Task<Status> {
    ctx.rep().SetDataFromString(1, "reborn");
    co_return OkStatus();
  });
  type->AddOperation(OperationSpec{
      .name = "marker",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_return InvokeResult::Ok(
            InvokeArgs{}.AddString(ctx.rep().DataAsString(1)));
      },
  });
  type->AddOperation(OperationSpec{
      .name = "prepare",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        Status status = co_await ctx.Checkpoint();
        ctx.Crash();
        co_return InvokeResult{status, {}};
      },
  });
  system_.RegisterType(type);

  auto cap = system_.node(0).CreateObject("phoenix", Representation{});
  ASSERT_TRUE(cap.ok());
  // Fresh object: marker segment empty.
  InvokeResult result = Call(system_.node(0), *cap, "marker");
  EXPECT_EQ(result.results.StringAt(0).value(), "");
  // Checkpoint + crash, then reincarnate.
  ASSERT_TRUE(Call(system_.node(0), *cap, "prepare").ok());
  result = Call(system_.node(1), *cap, "marker");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.StringAt(0).value(), "reborn");
}

TEST_F(ReliabilityFixture, CrashWakesBlockedInvocationsWithAbort) {
  // One invocation blocks on a semaphore; crashing the object must wake it
  // (short-term state destruction) rather than leaving it suspended forever.
  auto type = std::make_shared<TypeManager>("blocker");
  size_t parallel = type->AddClass("parallel", 8);
  type->AddOperation(OperationSpec{
      .name = "block",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        Status status = co_await ctx.semaphore("gate", 0).P();
        co_return InvokeResult{status, {}};
      },
      .invocation_class = parallel,
  });
  type->AddOperation(OperationSpec{
      .name = "crash",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        ctx.Crash();
        co_return InvokeResult::Ok();
      },
      .invocation_class = parallel,
  });
  system_.RegisterType(type);

  auto cap = system_.node(0).CreateObject("blocker", Representation{});
  ASSERT_TRUE(cap.ok());
  Future<InvokeResult> blocked = system_.node(1).Invoke(*cap, "block");
  system_.RunFor(Milliseconds(50));
  EXPECT_FALSE(blocked.ready());

  InvokeResult crash_result = Call(system_.node(2), *cap, "crash");
  EXPECT_TRUE(crash_result.ok());
  InvokeResult result = system_.Await(std::move(blocked));
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
}

TEST_F(ReliabilityFixture, DestroyErasesLongTermStateEverywhere) {
  auto type = std::make_shared<TypeManager>("mortal");
  type->AddOperation(OperationSpec{
      .name = "retire",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_await ctx.Checkpoint();
        ctx.Destroy();
        co_return InvokeResult::Ok();
      },
  });
  system_.RegisterType(type);
  auto cap = system_.node(0).CreateObject("mortal", Representation{});
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "retire").ok());
  EXPECT_FALSE(system_.node(0).HasCheckpoint(cap->name()));
  InvokeResult result = Call(system_.node(1), *cap, "retire");
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST_F(ReliabilityFixture, StaleForwardingToDeadNodeFallsBackToChecksite) {
  // An object is created (and checkpointed) on node 0, migrates to node 1,
  // keeps checkpointing to node 0, and then node 1 dies. The forwarding
  // address on node 0 points at a corpse; invokers must discover this and
  // reincarnate the object from node 0's checkpoint.
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(5));
  ASSERT_TRUE(system_.Await(system_.node(0).CheckpointObject(cap->name())).ok());

  // Migrate to node 1 (keep the checksite at node 0), update the checkpoint.
  auto object = system_.node(0).FindActive(cap->name());
  Future<Status> move_done =
      system_.node(0).MoveObject(object, system_.node(1).station());
  ASSERT_TRUE(system_.Await(std::move(move_done)).ok());
  system_.RunFor(Milliseconds(10));
  ASSERT_TRUE(system_.node(1).IsActive(cap->name()));
  Call(system_.node(2), *cap, "increment", InvokeArgs{}.AddU64(2));
  ASSERT_TRUE(system_.Await(system_.node(1).CheckpointObject(cap->name())).ok());

  // The new host dies. The invocation takes the slow path (dead-host
  // discovery + re-locate + checksite reincarnation) but succeeds.
  system_.node(1).FailNode();
  InvokeResult result = Call(system_.node(2), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 7u);
  EXPECT_TRUE(system_.node(0).IsActive(cap->name()));
}

TEST_F(ReliabilityFixture, RepeatedCheckpointCrashCyclesConverge) {
  Capability cap = MakeCheckpointedCounter(0);
  for (uint64_t round = 1; round <= 5; round++) {
    InvokeResult result = Call(system_.node(1), cap, "increment");
    ASSERT_TRUE(result.ok()) << result.status;
    EXPECT_EQ(result.results.U64At(0).value(), round);
    ASSERT_TRUE(Call(system_.node(1), cap, "checkpoint").ok());
    ASSERT_TRUE(Call(system_.node(1), cap, "crash").ok());
  }
  InvokeResult result = Call(system_.node(3), cap, "read");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), 5u);
}

}  // namespace
}  // namespace eden
