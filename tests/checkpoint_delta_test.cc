// Delta-checkpoint tests (DESIGN.md §10): chain growth, compaction,
// byte-for-byte equivalence with full-record checkpoints across crash and
// reincarnation, mirrored chains, and the move/remote-checksite paths.
#include <gtest/gtest.h>

#include <string>

#include "src/kernel/eden_system.h"
#include "tests/test_util.h"

namespace eden {
namespace {

std::string BaseKey(const Capability& cap) { return "ckpt/" + cap.name().ToKey(); }
std::string MirrorBaseKey(const Capability& cap) {
  return "mirror/" + cap.name().ToKey();
}
std::string DeltaKey(const Capability& cap, uint64_t k) {
  return BaseKey(cap) + "#d" + std::to_string(k);
}
std::string MirrorDeltaKey(const Capability& cap, uint64_t k) {
  return MirrorBaseKey(cap) + "#d" + std::to_string(k);
}

class CheckpointDeltaFixture : public ::testing::Test {
 protected:
  explicit CheckpointDeltaFixture(SystemConfig config = {}) : system_(config) {
    system_.RegisterType(MakeCounterType());
    system_.AddNodes(4);
  }

  InvokeResult Call(NodeKernel& from, const Capability& cap,
                    const std::string& op, InvokeArgs args = {}) {
    return system_.Await(from.Invoke(cap, op, std::move(args)));
  }

  EdenSystem system_;
};

TEST_F(CheckpointDeltaFixture, SecondCheckpointWritesADeltaLink) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  EXPECT_TRUE(system_.node(0).store().Contains(BaseKey(*cap)));
  EXPECT_FALSE(system_.node(0).store().Contains(DeltaKey(*cap, 1)));

  Call(system_.node(0), *cap, "increment");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  EXPECT_TRUE(system_.node(0).store().Contains(DeltaKey(*cap, 1)));
}

TEST_F(CheckpointDeltaFixture, DeltaRestoreMatchesFullRestoreAtEveryStep) {
  // Two installations run the identical mutation/checkpoint/crash/reincarnate
  // schedule; A uses delta chains, B full records. After every reincarnation
  // the counter values and representation digests must agree.
  SystemConfig full_config;
  full_config.kernel.checkpoint_deltas = false;
  EdenSystem full(full_config);
  full.RegisterType(MakeCounterType());
  full.AddNodes(4);

  auto cap_a = system_.node(0).CreateObject("counter", CounterRep());
  auto cap_b = full.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap_a.ok() && cap_b.ok());

  auto step = [&](EdenSystem& sys, const Capability& cap,
                  uint64_t round) -> uint64_t {
    // Mutate a rotating extra segment directly (multi-segment dirty
    // tracking) plus the counter segment through the type code.
    auto object = sys.node(0).FindActive(cap.name());
    EXPECT_NE(object, nullptr);
    object->core->rep.set_data(1 + (round % 3),
                               Bytes(100 + round, static_cast<uint8_t>(round)));
    InvokeResult inc = sys.Await(
        sys.node(0).Invoke(cap, "increment", InvokeArgs{}.AddU64(round)));
    EXPECT_TRUE(inc.ok()) << inc.status;
    EXPECT_TRUE(sys.Await(sys.node(0).Invoke(cap, "checkpoint", {})).ok());
    EXPECT_TRUE(sys.Await(sys.node(0).Invoke(cap, "crash", {})).ok());
    // Reincarnate (base + replayed deltas for A, full record for B).
    InvokeResult read = sys.Await(sys.node(1).Invoke(cap, "read", {}));
    EXPECT_TRUE(read.ok()) << read.status;
    return read.results.U64At(0).value_or(~0ull);
  };

  uint64_t expected = 0;
  for (uint64_t round = 1; round <= 6; round++) {
    expected += round;
    uint64_t value_a = step(system_, *cap_a, round);
    uint64_t value_b = step(full, *cap_b, round);
    EXPECT_EQ(value_a, expected) << "round " << round;
    EXPECT_EQ(value_b, expected) << "round " << round;

    auto object_a = system_.node(0).FindActive(cap_a->name());
    auto object_b = full.node(0).FindActive(cap_b->name());
    ASSERT_NE(object_a, nullptr);
    ASSERT_NE(object_b, nullptr);
    EXPECT_EQ(object_a->core->rep.DigestValue(),
              object_b->core->rep.DigestValue())
        << "representations diverged at round " << round;
  }
  // The delta installation actually used delta links along the way.
  EXPECT_TRUE(system_.node(0).store().Contains(DeltaKey(*cap_a, 1)));
  EXPECT_FALSE(full.node(0).store().Contains(DeltaKey(*cap_b, 1)));
}

TEST_F(CheckpointDeltaFixture, DeltaCheckpointsWriteFarFewerBytes) {
  // Large cold segment + small hot segment: a delta checkpoint should write
  // a small fraction of what the base wrote.
  Representation rep = CounterRep();
  rep.set_data(1, Bytes(64 * 1024, 0xab));
  auto cap = system_.node(0).CreateObject("counter", rep);
  ASSERT_TRUE(cap.ok());

  Call(system_.node(0), *cap, "increment");
  const MetricsRegistry& metrics = system_.node(0).metrics();
  uint64_t before = metrics.CounterValue("store.written_bytes");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  uint64_t base_bytes = metrics.CounterValue("store.written_bytes") - before;

  Call(system_.node(0), *cap, "increment");
  before = metrics.CounterValue("store.written_bytes");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  uint64_t delta_bytes = metrics.CounterValue("store.written_bytes") - before;

  EXPECT_GT(base_bytes, 64u * 1024u);
  EXPECT_LT(delta_bytes * 8, base_bytes)
      << "delta=" << delta_bytes << " base=" << base_bytes;
}

class CheckpointDeltaLimitFixture : public CheckpointDeltaFixture {
 protected:
  static SystemConfig LimitConfig() {
    SystemConfig config;
    config.kernel.checkpoint_delta_limit = 3;
    return config;
  }
  CheckpointDeltaLimitFixture() : CheckpointDeltaFixture(LimitConfig()) {}
};

TEST_F(CheckpointDeltaLimitFixture, ChainCompactsAtDeltaLimit) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  const StableStore& store = system_.node(0).store();

  // Checkpoint 1: base. 2..4: deltas #d1..#d3.
  for (int k = 0; k < 4; k++) {
    Call(system_.node(0), *cap, "increment");
    ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  }
  EXPECT_TRUE(store.Contains(DeltaKey(*cap, 1)));
  EXPECT_TRUE(store.Contains(DeltaKey(*cap, 3)));

  // Checkpoint 5 hits the limit: new base, chain erased.
  Call(system_.node(0), *cap, "increment");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  EXPECT_TRUE(store.Contains(BaseKey(*cap)));
  EXPECT_FALSE(store.Contains(DeltaKey(*cap, 1)));
  EXPECT_FALSE(store.Contains(DeltaKey(*cap, 3)));

  // The compacted state restores correctly.
  ASSERT_TRUE(Call(system_.node(0), *cap, "crash").ok());
  InvokeResult read = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(read.ok()) << read.status;
  EXPECT_EQ(read.results.U64At(0).value(), 5u);
}

TEST_F(CheckpointDeltaFixture, MirroredChainPromotesAndRestores) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  auto object = system_.node(0).FindActive(cap->name());
  object->policy = CheckpointPolicy{system_.node(0).station(),
                                    ReliabilityLevel::kMirrored,
                                    system_.node(3).station()};
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(10));
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(5));
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());

  // Primary chain on node 0, mirror chain on node 3.
  EXPECT_TRUE(system_.node(0).store().Contains(BaseKey(*cap)));
  EXPECT_TRUE(system_.node(0).store().Contains(DeltaKey(*cap, 1)));
  EXPECT_TRUE(system_.node(3).store().Contains(MirrorBaseKey(*cap)));
  EXPECT_TRUE(system_.node(3).store().Contains(MirrorDeltaKey(*cap, 1)));

  // Primary site permanently lost: promote the mirror, chain and all.
  system_.node(0).FailNode();
  ASSERT_TRUE(system_.Await(system_.node(3).PromoteMirror(cap->name())).ok());
  EXPECT_TRUE(system_.node(3).store().Contains(BaseKey(*cap)));
  EXPECT_TRUE(system_.node(3).store().Contains(DeltaKey(*cap, 1)));
  InvokeResult read = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(read.ok()) << read.status;
  EXPECT_EQ(read.results.U64At(0).value(), 15u);
}

TEST_F(CheckpointDeltaFixture, MoveForcesAFreshBaseAtTheChecksite) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Call(system_.node(0), *cap, "increment");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  Call(system_.node(0), *cap, "increment");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  ASSERT_TRUE(system_.node(0).store().Contains(DeltaKey(*cap, 1)));

  // Migrate; the checksite stays node 0 but the new host has no base yet,
  // so its first checkpoint must be a full record that clears the old chain.
  auto object = system_.node(0).FindActive(cap->name());
  ASSERT_TRUE(system_
                  .Await(system_.node(0).MoveObject(object,
                                                    system_.node(1).station()))
                  .ok());
  system_.RunFor(Milliseconds(10));
  ASSERT_TRUE(system_.node(1).IsActive(cap->name()));
  Call(system_.node(2), *cap, "increment");
  ASSERT_TRUE(Call(system_.node(2), *cap, "checkpoint").ok());
  EXPECT_TRUE(system_.node(0).store().Contains(BaseKey(*cap)));
  EXPECT_FALSE(system_.node(0).store().Contains(DeltaKey(*cap, 1)));

  ASSERT_TRUE(Call(system_.node(2), *cap, "crash").ok());
  InvokeResult read = Call(system_.node(2), *cap, "read");
  ASSERT_TRUE(read.ok()) << read.status;
  EXPECT_EQ(read.results.U64At(0).value(), 3u);
}

TEST_F(CheckpointDeltaFixture, RemoteChecksiteAccumulatesTheChain) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  auto object = system_.node(0).FindActive(cap->name());
  object->policy = CheckpointPolicy{system_.node(2).station(),
                                    ReliabilityLevel::kLocal, 0};
  for (int k = 0; k < 3; k++) {
    Call(system_.node(0), *cap, "increment");
    ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  }
  EXPECT_TRUE(system_.node(2).store().Contains(BaseKey(*cap)));
  EXPECT_TRUE(system_.node(2).store().Contains(DeltaKey(*cap, 1)));
  EXPECT_TRUE(system_.node(2).store().Contains(DeltaKey(*cap, 2)));
  EXPECT_FALSE(system_.node(0).store().Contains(BaseKey(*cap)));

  // Execution site dies; the chain replays at the checksite.
  system_.node(0).FailNode();
  InvokeResult read = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(read.ok()) << read.status;
  EXPECT_EQ(read.results.U64At(0).value(), 3u);
  EXPECT_TRUE(system_.node(2).IsActive(cap->name()));
}

TEST_F(CheckpointDeltaFixture, CorruptDeltaLinkFallsBackToIntactPrefix) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  Call(system_.node(0), *cap, "increment");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "crash").ok());

  // Garbage over delta link 1: reincarnation restores the longest intact
  // prefix — the base record's state — instead of declaring data loss
  // (DESIGN.md §11).
  system_.Await(
      system_.node(0).store().Put(DeltaKey(*cap, 1), Bytes{0xde, 0xad}));
  InvokeResult result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 0u);
  // The unusable tail was dropped, so the on-disk chain matches the
  // restored state, and the fallback was counted.
  EXPECT_FALSE(system_.node(0).store().Contains(DeltaKey(*cap, 1)));
  EXPECT_EQ(
      system_.node(0).metrics().counter("kernel.restore.fallbacks").value(),
      1u);
}

TEST_F(CheckpointDeltaFixture, CorruptDeltaLinkWithFallbackDisabledIsDataLoss) {
  SystemConfig config;
  config.kernel.restore_fallback = false;
  EdenSystem strict(config);
  strict.RegisterType(MakeCounterType());
  strict.AddNodes(2);

  auto cap = strict.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(strict.Await(strict.node(0).Invoke(*cap, "checkpoint", {})).ok());
  strict.Await(strict.node(0).Invoke(*cap, "increment", {}));
  ASSERT_TRUE(strict.Await(strict.node(0).Invoke(*cap, "checkpoint", {})).ok());
  ASSERT_TRUE(strict.Await(strict.node(0).Invoke(*cap, "crash", {})).ok());

  strict.Await(
      strict.node(0).store().Put(DeltaKey(*cap, 1), Bytes{0xde, 0xad}));
  InvokeResult result = strict.Await(strict.node(1).Invoke(*cap, "read", {}));
  EXPECT_EQ(result.status.code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointDeltaFixture, CorruptBaseWithoutMirrorIsDataLoss) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  Call(system_.node(0), *cap, "increment");
  ASSERT_TRUE(Call(system_.node(0), *cap, "checkpoint").ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "crash").ok());

  // The base itself is unreadable and there is no mirror: nothing to fall
  // back to.
  system_.Await(system_.node(0).store().Put(BaseKey(*cap), Bytes{0xde, 0xad}));
  InvokeResult result = Call(system_.node(1), *cap, "read");
  EXPECT_EQ(result.status.code(), StatusCode::kDataLoss);
  // The unusable chain was quarantined so later locates stop landing here.
  EXPECT_FALSE(system_.node(0).store().Contains(BaseKey(*cap)));
  EXPECT_FALSE(system_.node(0).store().Contains(DeltaKey(*cap, 1)));
  EXPECT_EQ(
      system_.node(0).metrics().counter("kernel.restore.quarantines").value(),
      1u);
}

}  // namespace
}  // namespace eden
