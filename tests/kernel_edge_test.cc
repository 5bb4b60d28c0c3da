// Edge cases of the kernel: flow-control refusals, deep invocation chains,
// frozen-object lifecycle across checkpoint/move, corrupt checkpoint records,
// checksite validation, and destroy semantics.
#include <gtest/gtest.h>

#include "src/common/log.h"
#include "src/kernel/eden_system.h"
#include "src/types/standard_types.h"
#include "tests/test_util.h"

namespace eden {
namespace {

class KernelEdgeFixture : public ::testing::Test {
 protected:
  KernelEdgeFixture() {
    RegisterStandardTypes(system_);
    system_.AddNodes(4);
  }

  InvokeResult Call(size_t node, const Capability& cap, const std::string& op,
                    InvokeArgs args = {}) {
    return system_.Await(system_.node(node).Invoke(cap, op, std::move(args)));
  }

  EdenSystem system_;
};

TEST_F(KernelEdgeFixture, InvocationClassQueueOverflowIsRefused) {
  // Class limit 1, queue limit 2: the 4th concurrent invocation is refused
  // with RESOURCE_EXHAUSTED — the "internal flow-control mechanism" of
  // section 4.2 pushing back instead of queueing without bound.
  auto type = std::make_shared<TypeManager>("throttled");
  size_t slow_class = type->AddClass("slow", 1, /*queue_limit=*/2);
  type->AddOperation(OperationSpec{
      .name = "slow",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_await ctx.Sleep(Milliseconds(100));
        co_return InvokeResult::Ok();
      },
      .invocation_class = slow_class,
  });
  system_.RegisterType(type);
  auto cap = system_.node(0).CreateObject("throttled", Representation{});
  ASSERT_TRUE(cap.ok());

  std::vector<Future<InvokeResult>> futures;
  for (int i = 0; i < 5; i++) {
    futures.push_back(system_.node(1).Invoke(*cap, "slow"));
  }
  int ok_count = 0, refused = 0;
  for (auto& future : futures) {
    InvokeResult result = system_.Await(std::move(future));
    if (result.ok()) {
      ok_count++;
    } else if (result.status.code() == StatusCode::kResourceExhausted) {
      refused++;
    }
  }
  EXPECT_EQ(ok_count, 3);  // 1 running + 2 queued
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(system_.node(0).metrics().CounterValue("kernel.queue_refusals"),
            2u);
}

TEST_F(KernelEdgeFixture, DeepNestedInvocationChain) {
  // 24 objects spread across nodes, each invoking the next: coroutine frames
  // stack safely and the result propagates all the way back.
  auto type = std::make_shared<TypeManager>("chain");
  type->AddClass("fwd", 2);
  type->AddOperation(OperationSpec{
      .name = "depth",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        if (ctx.rep().capability_count() == 0) {
          co_return InvokeResult::Ok(InvokeArgs{}.AddU64(1));
        }
        InvokeResult nested =
            co_await ctx.Invoke(ctx.rep().capability(0), "depth");
        if (!nested.ok()) {
          co_return nested;
        }
        co_return InvokeResult::Ok(
            InvokeArgs{}.AddU64(nested.results.U64At(0).value() + 1));
      },
      .invocation_class = 1,
  });
  system_.RegisterType(type);

  Capability next;
  for (int i = 0; i < 24; i++) {
    Representation rep;
    if (!next.IsNull()) {
      rep.AddCapability(next);
    }
    next = *system_.node(static_cast<size_t>(i) % 4).CreateObject("chain", rep);
  }
  InvokeResult result = Call(0, next, "depth");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 24u);
}

TEST_F(KernelEdgeFixture, FrozenObjectStaysFrozenAcrossReincarnation) {
  auto cap = system_.node(0).CreateObject("std.data", Representation{});
  ASSERT_TRUE(cap.ok());
  Call(0, *cap, "put", InvokeArgs{}.AddString("iced"));
  ASSERT_TRUE(Call(0, *cap, "freeze").ok());
  ASSERT_TRUE(Call(0, *cap, "checkpoint").ok());
  ASSERT_TRUE(Call(0, *cap, "crash").ok());

  // Reincarnated object must still refuse mutation.
  InvokeResult result = Call(1, *cap, "put", InvokeArgs{}.AddString("thaw?"));
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  result = Call(1, *cap, "get");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToString(result.results.BytesAt(0).value()), "iced");
}

TEST_F(KernelEdgeFixture, FrozenObjectStaysFrozenAcrossMove) {
  auto cap = system_.node(0).CreateObject("std.data", Representation{});
  Call(0, *cap, "put", InvokeArgs{}.AddString("solid"));
  ASSERT_TRUE(Call(0, *cap, "freeze").ok());
  auto object = system_.node(0).FindActive(cap->name());
  ASSERT_TRUE(
      system_.Await(system_.node(0).MoveObject(object, system_.node(2).station()))
          .ok());
  system_.RunFor(Milliseconds(10));
  InvokeResult result = Call(1, *cap, "put", InvokeArgs{}.AddString("melted?"));
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(KernelEdgeFixture, CorruptCheckpointRecordYieldsDataLoss) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(Call(0, *cap, "checkpoint").ok());
  ASSERT_TRUE(Call(0, *cap, "crash").ok());
  // Vandalize the stored record.
  std::string key = "ckpt/" + cap->name().ToKey();
  system_.Await(system_.node(0).store().Put(key, Bytes{0xde, 0xad}));

  InvokeResult result = Call(1, *cap, "read");
  EXPECT_EQ(result.status.code(), StatusCode::kDataLoss);
}

TEST_F(KernelEdgeFixture, ChecksiteValidationRejectsSelfMirror) {
  auto type = std::make_shared<TypeManager>("policy_probe");
  type->AddOperation(OperationSpec{
      .name = "bind_checksite",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        CheckpointPolicy policy;
        policy.primary_site = static_cast<StationId>(*ctx.args().U64At(0));
        policy.level = ReliabilityLevel::kMirrored;
        policy.mirror_site = static_cast<StationId>(*ctx.args().U64At(1));
        co_return InvokeResult{ctx.SetChecksite(policy), {}};
      },
  });
  system_.RegisterType(type);
  auto cap = system_.node(0).CreateObject("policy_probe", Representation{});
  InvokeResult result =
      Call(0, *cap, "bind_checksite", InvokeArgs{}.AddU64(1).AddU64(1));
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  result = Call(0, *cap, "bind_checksite", InvokeArgs{}.AddU64(1).AddU64(2));
  EXPECT_TRUE(result.ok());
}

TEST_F(KernelEdgeFixture, DestroyFromRemoteNodeEliminatesTheObject) {
  auto cap = system_.node(0).CreateObject("std.data", Representation{});
  Call(1, *cap, "put", InvokeArgs{}.AddString("doomed"));
  ASSERT_TRUE(Call(1, *cap, "checkpoint").ok());
  ASSERT_TRUE(Call(2, *cap, "destroy").ok());
  EXPECT_FALSE(system_.node(0).IsActive(cap->name()));
  EXPECT_FALSE(system_.node(0).HasCheckpoint(cap->name()));
  InvokeResult result = Call(3, *cap, "get");
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST_F(KernelEdgeFixture, DestroyRightIsRequired) {
  auto cap = system_.node(0).CreateObject("std.data", Representation{});
  Capability no_destroy = cap->Restrict(
      Rights(Rights::kInvoke | Rights::kRead | Rights::kWrite));
  InvokeResult result = Call(1, no_destroy, "destroy");
  EXPECT_EQ(result.status.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(system_.node(0).IsActive(cap->name()));
}

TEST_F(KernelEdgeFixture, CreateOptionsBindTheInitialChecksite) {
  CreateOptions options;
  options.policy = CheckpointPolicy{system_.node(3).station(),
                                    ReliabilityLevel::kLocal, 0};
  auto cap =
      system_.node(0).CreateObject("std.counter", Representation{}, options);
  ASSERT_TRUE(cap.ok());
  Call(0, *cap, "increment", InvokeArgs{}.AddU64(4));
  ASSERT_TRUE(Call(0, *cap, "checkpoint").ok());
  // The long-term state landed at the requested checksite, not the creator.
  EXPECT_FALSE(system_.node(0).HasCheckpoint(cap->name()));
  EXPECT_TRUE(system_.node(3).HasCheckpoint(cap->name()));
  // And recovery happens there after the creator dies.
  system_.node(0).FailNode();
  InvokeResult result = Call(1, *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 4u);
  EXPECT_TRUE(system_.node(3).IsActive(cap->name()));
}

TEST(KernelEdge, CheckpointToANonexistentChecksiteFails) {
  // The checksite names no station. Its checkpoint frames go out and are
  // dropped as unreachable, in either medium, and the checkpoint fails.
  for (size_t shards : {0u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    SystemConfig config;
    config.shards = shards;
    EdenSystem system(config);
    RegisterStandardTypes(system);
    system.AddNodes(4);
    CreateOptions options;
    options.policy = CheckpointPolicy{
        static_cast<StationId>(system.node_count() + 3),
        ReliabilityLevel::kLocal, 0};
    auto cap =
        system.node(0).CreateObject("std.counter", Representation{}, options);
    ASSERT_TRUE(cap.ok());
    InvokeResult result =
        system.Await(system.node(0).Invoke(*cap, "checkpoint"));
    EXPECT_EQ(result.status.code(), StatusCode::kUnavailable) << result.status;
    LanStats lan = system.lan().stats();
    EXPECT_GT(lan.frames_dropped_partition, 0u);
    EXPECT_EQ(lan.frames_delivered, 0u);
  }
}

TEST_F(KernelEdgeFixture, StatsAccountForTheBasicFlows) {
  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  Call(0, *cap, "increment");                       // local
  Call(1, *cap, "increment");                       // remote + locate
  Call(1, *cap, "increment");                       // remote, cache hit
  const MetricsRegistry& local = system_.node(0).metrics();
  const MetricsRegistry& remote = system_.node(1).metrics();
  EXPECT_EQ(local.CounterValue("kernel.invoke.local"), 1u);
  EXPECT_EQ(remote.CounterValue("kernel.invoke.remote"), 2u);
  EXPECT_EQ(LocateQueries(system_.node(1)), 1u);
  EXPECT_EQ(remote.CounterValue("kernel.locate.cache_hits"), 1u);
  EXPECT_EQ(local.CounterValue("kernel.dispatches"), 3u);
}

TEST_F(KernelEdgeFixture, SelfInvocationThroughOwnCapability) {
  // An object invoking an operation on ITSELF through its own capability:
  // must not deadlock as long as the operations are in classes with capacity.
  auto type = std::make_shared<TypeManager>("reflexive");
  size_t outer = type->AddClass("outer", 1);
  size_t inner = type->AddClass("inner", 1);
  type->AddOperation(OperationSpec{
      .name = "outer_op",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        InvokeResult nested =
            co_await ctx.Invoke(ctx.SelfCapability(), "inner_op");
        co_return nested;
      },
      .invocation_class = outer,
  });
  type->AddOperation(OperationSpec{
      .name = "inner_op",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_return InvokeResult::Ok(InvokeArgs{}.AddString("inner ran"));
      },
      .invocation_class = inner,
  });
  system_.RegisterType(type);
  auto cap = system_.node(0).CreateObject("reflexive", Representation{});
  InvokeResult result = Call(1, *cap, "outer_op");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.StringAt(0).value(), "inner ran");
}

TEST_F(KernelEdgeFixture, UndecodableMessagesAreLoggedAndDropped) {
  // A retired kind tag, and a known tag whose body is truncated: the dispatch
  // rejects both with one warning each, and the node keeps serving.
  std::vector<std::string> warnings;
  Logger::Get().set_sink(
      [&](LogLevel level, std::string_view, std::string_view message) {
        if (level == LogLevel::kWarning) {
          warnings.emplace_back(message);
        }
      });
  Transport& sender = system_.node(1).transport();
  StationId target = system_.node(0).station();
  sender.SendReliable(target, Bytes{11, 0});
  sender.SendReliable(target,
                      Bytes{static_cast<uint8_t>(MessageKind::kInvokeRequest), 1});
  system_.RunFor(Milliseconds(50));
  Logger::Get().set_sink(nullptr);
  ASSERT_EQ(warnings.size(), 2u);
  for (const std::string& warning : warnings) {
    EXPECT_NE(warning.find("undecodable message"), std::string::npos);
  }

  auto cap = system_.node(0).CreateObject("std.counter", Representation{});
  ASSERT_TRUE(cap.ok());
  EXPECT_TRUE(Call(1, *cap, "increment").ok());
}

}  // namespace
}  // namespace eden
