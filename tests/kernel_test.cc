// Unit tests for the Eden kernel basics: names, capabilities,
// representations, type managers, creation and the invocation happy paths.
#include <gtest/gtest.h>

#include <vector>

#include "src/kernel/eden_system.h"
#include "tests/test_util.h"

namespace eden {
namespace {

TEST(ObjectNameTest, RoundTripsThroughCodec) {
  ObjectName name(7, 42, 0xdeadbeef);
  BufferWriter writer;
  name.Encode(writer);
  Bytes encoded = writer.Take();
  BufferReader reader(encoded);
  auto decoded = ObjectName::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, name);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ObjectNameTest, OrderingIsTotal) {
  ObjectName a(1, 1, 1), b(1, 2, 1), c(2, 1, 1);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_FALSE(a < a);
}

TEST(ObjectNameTest, NullIsDetectable) {
  EXPECT_TRUE(ObjectName::Null().IsNull());
  EXPECT_FALSE(ObjectName(1, 0, 0).IsNull());
}

TEST(CapabilityTest, RestrictOnlyRemovesRights) {
  Capability cap(ObjectName(1, 1, 1), Rights::All());
  Capability restricted = cap.Restrict(Rights(Rights::kInvoke | Rights::kRead));
  EXPECT_TRUE(restricted.rights().Has(Rights::kRead));
  EXPECT_FALSE(restricted.rights().Has(Rights::kWrite));
  // Restricting again with a superset must not re-add rights.
  Capability again = restricted.Restrict(Rights::All());
  EXPECT_EQ(again.rights().bits(), restricted.rights().bits());
}

TEST(CapabilityTest, CodecRoundTrip) {
  Capability cap(ObjectName(3, 9, 27), Rights(Rights::kInvoke | Rights::kWrite));
  BufferWriter writer;
  cap.Encode(writer);
  Bytes encoded = writer.Take();
  BufferReader reader(encoded);
  auto decoded = Capability::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, cap);
}

TEST(RepresentationTest, CodecRoundTripPreservesEverything) {
  Representation rep;
  rep.SetDataFromString(0, "hello");
  rep.set_data(2, Bytes{1, 2, 3});
  rep.AddCapability(Capability(ObjectName(1, 2, 3), Rights::All()));
  rep.AddCapability(Capability(ObjectName(4, 5, 6), Rights(Rights::kRead)));

  BufferWriter writer;
  rep.Encode(writer);
  Bytes encoded = writer.Take();
  BufferReader reader(encoded);
  auto decoded = Representation::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rep);
  EXPECT_EQ(decoded->DigestValue(), rep.DigestValue());
}

TEST(RepresentationTest, DecodeRejectsTruncation) {
  Representation rep;
  rep.SetDataFromString(0, "some state");
  BufferWriter writer;
  rep.Encode(writer);
  Bytes encoded = writer.Take();
  encoded.resize(encoded.size() / 2);
  BufferReader reader(encoded);
  EXPECT_FALSE(Representation::Decode(reader).ok());
}

TEST(TypeManagerTest, DefaultClassGivesMutualExclusion) {
  TypeManager type("t");
  ASSERT_EQ(type.classes().size(), 1u);
  EXPECT_EQ(type.classes()[0].concurrency_limit, 1);
}

TEST(TypeManagerTest, FindOperationByName) {
  auto type = MakeCounterType();
  EXPECT_NE(type->FindOperation("increment"), nullptr);
  EXPECT_NE(type->FindOperation("read"), nullptr);
  EXPECT_EQ(type->FindOperation("nonexistent"), nullptr);
  EXPECT_TRUE(type->FindOperation("read")->read_only);
  EXPECT_FALSE(type->FindOperation("increment")->read_only);
}

class KernelFixture : public ::testing::Test {
 protected:
  KernelFixture() {
    system_.RegisterType(MakeCounterType());
    system_.AddNodes(3);
  }

  InvokeResult Call(NodeKernel& from, const Capability& cap, const std::string& op,
                    InvokeArgs args = {}) {
    return system_.Await(from.Invoke(cap, op, std::move(args)));
  }

  EdenSystem system_;
};

TEST_F(KernelFixture, CreateObjectReturnsOwnerCapability) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  EXPECT_FALSE(cap->IsNull());
  EXPECT_TRUE(cap->rights().Has(Rights::kOwner));
  EXPECT_TRUE(system_.node(0).IsActive(cap->name()));
  EXPECT_EQ(cap->name().birth_node(), system_.node(0).station());
}

TEST_F(KernelFixture, CreateObjectOfUnknownTypeFails) {
  auto cap = system_.node(0).CreateObject("no-such-type", Representation{});
  EXPECT_FALSE(cap.ok());
  EXPECT_EQ(cap.status().code(), StatusCode::kNotFound);
}

TEST_F(KernelFixture, LocalInvocationRunsOperation) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep(10));
  ASSERT_TRUE(cap.ok());
  InvokeResult result = Call(system_.node(0), *cap, "increment",
                             InvokeArgs{}.AddU64(5));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 15u);
}

TEST_F(KernelFixture, RemoteInvocationIsLocationTransparent) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  // Node 2 has never heard of this object: the kernel locates it by
  // broadcast and forwards the invocation (paper section 4.2).
  InvokeResult result = Call(system_.node(2), *cap, "increment");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 1u);
  // Second invocation hits the location cache.
  uint64_t broadcasts_before =
      system_.node(2).metrics().CounterValue("kernel.locate.queries.broadcast");
  result = Call(system_.node(2), *cap, "increment");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), 2u);
  EXPECT_EQ(
      system_.node(2).metrics().CounterValue("kernel.locate.queries.broadcast"),
      broadcasts_before);
}

TEST_F(KernelFixture, RightsAreEnforcedPerOperation) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Capability read_only = cap->Restrict(Rights(Rights::kInvoke | Rights::kRead));
  // Reads are allowed.
  InvokeResult result = Call(system_.node(1), read_only, "read");
  EXPECT_TRUE(result.ok()) << result.status;
  // Writes are not.
  result = Call(system_.node(1), read_only, "increment");
  EXPECT_EQ(result.status.code(), StatusCode::kPermissionDenied);
  // And the object was not modified.
  result = Call(system_.node(1), read_only, "read");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), 0u);
}

TEST_F(KernelFixture, UnknownOperationIsUnimplemented) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  InvokeResult result = Call(system_.node(0), *cap, "frobnicate");
  EXPECT_EQ(result.status.code(), StatusCode::kUnimplemented);
}

TEST_F(KernelFixture, InvokingMissingObjectIsUnavailable) {
  Capability bogus(ObjectName(99, 1234, 1), Rights::All());
  InvokeResult result = Call(system_.node(0), bogus, "read");
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST_F(KernelFixture, NullCapabilityIsRejected) {
  InvokeResult result = Call(system_.node(0), Capability::Null(), "read");
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(KernelFixture, InvocationTimeoutFires) {
  // An unreachable object with a short user-supplied timeout: the kernel
  // notifies the invoker (paper: "the invoker wishes to be notified if the
  // invocation is not completed within some time limit").
  Capability bogus(ObjectName(99, 1234, 1), Rights::All());
  Future<InvokeResult> future =
      system_.node(0).Invoke(bogus, "read", {}, InvokeOptions::WithTimeout(Milliseconds(5)));
  InvokeResult result = system_.Await(future);
  // Either the locate gives up (Unavailable) or the timeout fires first.
  EXPECT_FALSE(result.ok());
}

TEST_F(KernelFixture, NestedInvocationAcrossNodes) {
  // An object on node 0 invokes a counter on node 1 from within its own
  // operation handler (object-to-object invocation).
  auto inner = system_.node(1).CreateObject("counter", CounterRep());
  ASSERT_TRUE(inner.ok());

  auto proxy_type = std::make_shared<TypeManager>("proxy");
  proxy_type->AddOperation(OperationSpec{
      .name = "bump_other",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        auto target = ctx.args().CapabilityAt(0);
        if (!target.ok()) {
          co_return InvokeResult::Error(target.status());
        }
        InvokeResult nested = co_await ctx.Invoke(*target, "increment",
                                                  InvokeArgs{}.AddU64(7));
        co_return nested;
      },
  });
  system_.RegisterType(proxy_type);

  auto proxy = system_.node(0).CreateObject("proxy", Representation{});
  ASSERT_TRUE(proxy.ok());
  InvokeResult result = Call(system_.node(2), *proxy, "bump_other",
                             InvokeArgs{}.AddCapability(*inner));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 7u);
}

TEST_F(KernelFixture, ManySequentialInvocationsAreStable) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  for (int i = 1; i <= 50; i++) {
    InvokeResult result = Call(system_.node(i % 3), *cap, "increment");
    ASSERT_TRUE(result.ok()) << "iteration " << i << ": " << result.status;
    EXPECT_EQ(result.results.U64At(0).value(), static_cast<uint64_t>(i));
  }
}

// A failing node fails its pending invocations in invocation-id order: each
// failure runs its invoker's callbacks at once, so the order is observable
// whatever container holds the pending table.
TEST_F(KernelFixture, FailNodeFailsPendingInvocationsInIdOrder) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  // Warm node 1's location cache, so each invocation below goes out at once.
  ASSERT_TRUE(Call(system_.node(1), *cap, "read").ok());
  constexpr int kPending = 12;
  std::vector<int> failed;
  for (int i = 0; i < kPending; i++) {
    system_.node(1).Invoke(*cap, "increment").OnReadyValue(
        [&failed, i](const InvokeResult& result) {
          EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
          failed.push_back(i);
        });
  }
  EXPECT_TRUE(failed.empty());
  system_.node(1).FailNode();
  // Invocation ids rise in the order the invocations started.
  std::vector<int> expected;
  for (int i = 0; i < kPending; i++) {
    expected.push_back(i);
  }
  EXPECT_EQ(failed, expected);
}

TEST(KernelConfigTest, SeededRunsAreDeterministic) {
  auto run_once = [](uint64_t seed) {
    SystemConfig config;
    config.seed = seed;
    EdenSystem system(config);
    system.RegisterType(MakeCounterType());
    system.AddNodes(3);
    auto cap = system.node(0).CreateObject("counter", CounterRep());
    uint64_t last = 0;
    for (int i = 0; i < 10; i++) {
      InvokeResult result =
          system.Await(system.node(i % 3).Invoke(*cap, "increment"));
      last = result.results.U64At(0).value_or(0);
    }
    return std::make_pair(system.sim().now(), last);
  };
  auto a = run_once(42);
  auto b = run_once(42);
  auto c = run_once(43);
  EXPECT_EQ(a, b);
  // Different seeds may differ in timing (collision backoff draws).
  EXPECT_EQ(a.second, c.second);  // but not in semantics
}

}  // namespace
}  // namespace eden
