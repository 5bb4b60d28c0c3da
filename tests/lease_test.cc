// Lease-based read caching of hot mutable objects (DESIGN.md §15).
//
// The home of an active object grants time-bounded read leases alongside
// read-class replies; holders serve later read-class invocations from a
// local cached representation with zero network round-trips. Write-class
// invocations route to the home, which recalls (or waits out) every
// outstanding lease before mutating — so a committed write is never
// concurrent with a lease that could serve the pre-write state. Crashes and
// partitions bound staleness by the lease term instead of breaking safety.
#include <gtest/gtest.h>

#include "src/kernel/eden_system.h"
#include "tests/test_util.h"

namespace eden {
namespace {

SystemConfig LeaseConfig(uint64_t seed = 1) {
  SystemConfig config;
  config.seed = seed;
  config.kernel.lease_reads = true;
  return config;
}

// The test counter plus "freeze". Like any write-class operation, freezing
// recalls every outstanding lease before it runs.
std::shared_ptr<TypeManager> MakeFreezableCounterType() {
  auto type = MakeCounterType();
  type->AddOperation(OperationSpec{
      .name = "freeze",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_return InvokeResult{ctx.Freeze(), {}};
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kOwner),
  });
  return type;
}

class LeaseFixture : public ::testing::Test {
 protected:
  LeaseFixture() : system_(LeaseConfig()) {
    system_.RegisterType(MakeFreezableCounterType());
    system_.AddNodes(5);
  }

  InvokeResult Call(NodeKernel& from, const Capability& cap,
                    const std::string& op, InvokeArgs args = {}) {
    return system_.Await(from.Invoke(cap, op, std::move(args)));
  }

  EdenSystem system_;
};

TEST_F(LeaseFixture, RemoteReadGrantsLeaseAndLaterReadsAreLocal) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep(7));
  ASSERT_TRUE(cap.ok());

  // The first remote read pays the round-trip and triggers a grant.
  InvokeResult result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 7u);
  system_.RunFor(Milliseconds(5));  // let the grant land
  EXPECT_GE(system_.node(0).metrics().CounterValue("kernel.lease.grants"), 1u);

  // Subsequent reads dispatch into the leased copy: no remote traffic.
  uint64_t remote_before =
      system_.node(1).metrics().CounterValue("kernel.invoke.remote");
  uint64_t local_before =
      system_.node(1).metrics().CounterValue("kernel.lease.local_reads");
  for (int i = 0; i < 3; i++) {
    result = Call(system_.node(1), *cap, "read");
    ASSERT_TRUE(result.ok()) << result.status;
    EXPECT_EQ(result.results.U64At(0).value(), 7u);
  }
  EXPECT_EQ(system_.node(1).metrics().CounterValue("kernel.invoke.remote"),
            remote_before);
  EXPECT_EQ(system_.node(1).metrics().CounterValue("kernel.lease.local_reads"),
            local_before + 3);

  // A leased copy never serves write-class invocations: the increment
  // routes to the home and commits there.
  result = Call(system_.node(1), *cap, "increment");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 8u);
}

TEST_F(LeaseFixture, ReadNearExpiryRoutesHomeAndRenewalRidesTheReply) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep(3));
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(1), *cap, "read").ok());
  system_.RunFor(Milliseconds(5));
  ASSERT_GE(system_.node(0).metrics().CounterValue("kernel.lease.grants"), 1u);

  // Advance to within the renewal margin of expiry: the next read goes to
  // the home (so it cannot observe a post-expiry stale copy) and the reply
  // piggybacks an extension.
  const KernelConfig& kc = system_.config().kernel;
  system_.RunFor(kc.lease_duration - kc.lease_renew_margin);
  uint64_t renewals_before =
      system_.node(0).metrics().CounterValue("kernel.lease.renewals");
  InvokeResult result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_GT(system_.node(0).metrics().CounterValue("kernel.lease.renewals"),
            renewals_before);

  // The extension re-arms the local fast path without a new grant message.
  uint64_t local_before =
      system_.node(1).metrics().CounterValue("kernel.lease.local_reads");
  result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 3u);
  EXPECT_GT(system_.node(1).metrics().CounterValue("kernel.lease.local_reads"),
            local_before);
}

TEST_F(LeaseFixture, WriteRecallsEveryHolderAndNoStaleReadSurvivesIt) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "increment").ok());  // value 1

  // Two distinct holders.
  ASSERT_TRUE(Call(system_.node(1), *cap, "read").ok());
  ASSERT_TRUE(Call(system_.node(2), *cap, "read").ok());
  system_.RunFor(Milliseconds(5));
  ASSERT_GE(system_.node(0).metrics().CounterValue("kernel.lease.grants"), 2u);

  // The write blocks on the recall round, not on lease expiry: both holders
  // release promptly, so the commit lands within a few round-trips.
  SimTime before = system_.sim().now();
  uint64_t recalls_before =
      system_.node(0).metrics().CounterValue("kernel.lease.recalls");
  InvokeResult result = Call(system_.node(3), *cap, "increment");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 2u);
  EXPECT_GT(system_.node(0).metrics().CounterValue("kernel.lease.recalls"),
            recalls_before);
  EXPECT_LT(system_.sim().now() - before, Milliseconds(100));

  // After the commit the recalled copies are gone: both ex-holders observe
  // the new value (their reads route to the home and re-acquire).
  result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), 2u);
  result = Call(system_.node(2), *cap, "read");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), 2u);
}

TEST_F(LeaseFixture, MoveWaitsOutLeasesAndHoldersNeverServeTheOldHome) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep(5));
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(1), *cap, "read").ok());
  system_.RunFor(Milliseconds(5));
  ASSERT_GE(system_.node(0).metrics().CounterValue("kernel.lease.grants"), 1u);

  auto object = system_.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  uint64_t recalls_before =
      system_.node(0).metrics().CounterValue("kernel.lease.recalls");
  Status moved = system_.Await(
      system_.node(0).MoveObject(object, system_.node(2).station()));
  ASSERT_TRUE(moved.ok()) << moved;
  EXPECT_GT(system_.node(0).metrics().CounterValue("kernel.lease.recalls"),
            recalls_before);
  system_.RunFor(Milliseconds(10));
  EXPECT_TRUE(system_.node(2).IsActive(cap->name()));

  // The recall invalidated the holder's copy; its next read finds the new
  // residence and the state that travelled with it.
  InvokeResult result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 5u);
  // And the new home accepts writes immediately (no leases outlived the move).
  SimTime before = system_.sim().now();
  result = Call(system_.node(3), *cap, "increment");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 6u);
  EXPECT_LT(system_.sim().now() - before, Milliseconds(100));
}

TEST_F(LeaseFixture, RebornHomeQuiescesWritesForAFullLeaseTerm) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep(3));
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(system_.Await(system_.node(0).CheckpointObject(cap->name())).ok());
  ASSERT_TRUE(Call(system_.node(1), *cap, "read").ok());
  system_.RunFor(Milliseconds(5));
  ASSERT_GE(system_.node(0).metrics().CounterValue("kernel.lease.grants"), 1u);

  // The home dies and reincarnates. It cannot know what its predecessor
  // granted, so the first write waits out a full lease term from the
  // reactivation (Gray & Cheriton's recovering-server rule).
  system_.node(0).FailNode();
  system_.node(0).RestartNode();
  SimTime before = system_.sim().now();
  InvokeResult result = system_.Await(
      system_.node(2).Invoke(*cap, "increment", InvokeArgs{}.AddU64(1),
                             InvokeOptions::WithTimeout(Seconds(10))));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 4u);
  EXPECT_GE(system_.sim().now() - before, system_.config().kernel.lease_duration);

  // With the quiesce paid and every pre-crash lease expired, the ex-holder
  // observes the committed value.
  result = system_.Await(system_.node(1).Invoke(
      *cap, "read", {}, InvokeOptions::WithTimeout(Seconds(10))));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 4u);
}

TEST_F(LeaseFixture, FreezingRecallsTheLeaseAndTheNextGrantNeverExpires) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep(4));
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(1), *cap, "read").ok());
  system_.RunFor(Milliseconds(5));
  ASSERT_TRUE(system_.node(1).HasReplica(cap->name()));

  // Freezing is a write: the reader's lease is recalled before it runs.
  uint64_t recalls_before =
      system_.node(0).metrics().CounterValue("kernel.lease.recalls");
  ASSERT_TRUE(Call(system_.node(0), *cap, "freeze").ok());
  EXPECT_GT(system_.node(0).metrics().CounterValue("kernel.lease.recalls"),
            recalls_before);
  EXPECT_FALSE(system_.node(1).HasReplica(cap->name()));

  // The next read brings back a copy of the frozen state that never expires.
  uint64_t grants_before =
      system_.node(0).metrics().CounterValue("kernel.lease.grants");
  InvokeResult result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 4u);
  system_.RunFor(Milliseconds(5));
  EXPECT_EQ(system_.node(0).metrics().CounterValue("kernel.lease.grants"),
            grants_before + 1);
  EXPECT_TRUE(system_.node(1).HasReplica(cap->name()));

  // Ten lease terms later every read is still local: no renewal, no remote
  // invocation.
  system_.RunFor(10 * system_.config().kernel.lease_duration);
  uint64_t renewals_before =
      system_.node(0).metrics().CounterValue("kernel.lease.renewals");
  uint64_t remote_before =
      system_.node(1).metrics().CounterValue("kernel.invoke.remote");
  uint64_t local_before =
      system_.node(1).metrics().CounterValue("kernel.lease.local_reads");
  for (int i = 0; i < 3; i++) {
    result = Call(system_.node(1), *cap, "read");
    ASSERT_TRUE(result.ok()) << result.status;
    EXPECT_EQ(result.results.U64At(0).value(), 4u);
  }
  EXPECT_EQ(system_.node(0).metrics().CounterValue("kernel.lease.renewals"),
            renewals_before);
  EXPECT_EQ(system_.node(1).metrics().CounterValue("kernel.invoke.remote"),
            remote_before);
  EXPECT_EQ(system_.node(1).metrics().CounterValue("kernel.lease.local_reads"),
            local_before + 3);

  // The frozen grant recorded no holder, so a move opens no recall, and the
  // reader keeps reading its copy.
  auto object = system_.node(0).FindActive(cap->name());
  ASSERT_NE(object, nullptr);
  recalls_before =
      system_.node(0).metrics().CounterValue("kernel.lease.recalls");
  Status moved = system_.Await(
      system_.node(0).MoveObject(object, system_.node(2).station()));
  ASSERT_TRUE(moved.ok()) << moved;
  EXPECT_EQ(system_.node(0).metrics().CounterValue("kernel.lease.recalls"),
            recalls_before);
  system_.RunFor(Milliseconds(10));
  EXPECT_TRUE(system_.node(2).IsActive(cap->name()));
  local_before =
      system_.node(1).metrics().CounterValue("kernel.lease.local_reads");
  result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 4u);
  EXPECT_EQ(system_.node(1).metrics().CounterValue("kernel.invoke.remote"),
            remote_before);
  EXPECT_EQ(system_.node(1).metrics().CounterValue("kernel.lease.local_reads"),
            local_before + 1);
}

// Chaos case: the recall is lost to a wire partition. The writer must block
// until the marooned holder's lease expires on its own — never commit under
// a live lease — and once it commits, no read anywhere observes the old
// value. Seeded and fully deterministic.
TEST(LeaseChaos, RecallLostUnderPartitionResolvesByExpiryNeverStaleWrites) {
  EdenSystem system(LeaseConfig(/*seed=*/42));
  system.RegisterType(MakeCounterType());
  system.AddNodes(4);
  auto cap = system.node(0).CreateObject("counter", CounterRep(1));
  ASSERT_TRUE(cap.ok());

  ASSERT_TRUE(system.Await(system.node(1).Invoke(*cap, "read")).ok());
  system.RunFor(Milliseconds(5));
  ASSERT_GE(system.node(0).metrics().CounterValue("kernel.lease.grants"), 1u);

  // The holder drops off the wire; the recall (and its retransmits) are lost.
  system.lan().SetPartitionGroup(system.node(1).station(), 1);
  SimTime write_start = system.sim().now();
  Future<InvokeResult> write = system.node(0).Invoke(
      *cap, "increment", {}, InvokeOptions::WithTimeout(Seconds(10)));
  system.RunFor(Milliseconds(100));
  // Still blocked: the home has not heard a release and the lease is live.
  EXPECT_FALSE(write.ready());

  // The marooned holder legitimately serves the pre-write state from its
  // cached copy (zero network) while the write is still uncommitted —
  // that is linearizable, not stale.
  InvokeResult reading = system.Await(system.node(1).Invoke(*cap, "read"));
  ASSERT_TRUE(reading.ok()) << reading.status;
  EXPECT_EQ(reading.results.U64At(0).value(), 1u);

  // The write commits only once the lease must have expired everywhere.
  InvokeResult committed = system.Await(std::move(write));
  ASSERT_TRUE(committed.ok()) << committed.status;
  EXPECT_EQ(committed.results.U64At(0).value(), 2u);
  SimDuration blocked = system.sim().now() - write_start;
  EXPECT_GE(blocked, system.config().kernel.lease_duration - Milliseconds(20));
  EXPECT_GE(system.node(0).metrics().CounterValue("kernel.lease.expiries"), 1u);

  // Post-commit, the ex-holder's lease has expired: its copy is dead and the
  // healed read observes the committed value. No stale read is ever served
  // after the commit.
  system.lan().ClearPartitions();
  InvokeResult healed = system.Await(system.node(1).Invoke(
      *cap, "read", {}, InvokeOptions::WithTimeout(Seconds(10))));
  ASSERT_TRUE(healed.ok()) << healed.status;
  EXPECT_EQ(healed.results.U64At(0).value(), 2u);
}

// The tentpole's determinism gate. One read-heavy workload with occasional
// writes, run three ways:
//   - leases on, same seed, twice  -> bit-identical executions
//   - leases on vs leases off     -> identical observed values and identical
//                                     object state at quiesce (leases change
//                                     which node serves a read, never what
//                                     the read returns)
struct LeaseWorkloadResult {
  uint64_t run_digest = 0;    // full execution fingerprint
  uint64_t values_digest = 0; // every value every invocation returned
  uint64_t rep_digest = 0;    // the object's representation at quiesce
  uint64_t local_reads = 0;
};

LeaseWorkloadResult RunLeaseWorkload(uint64_t seed, bool leases) {
  SystemConfig config;
  config.seed = seed;
  config.kernel.lease_reads = leases;
  EdenSystem system(config);
  system.RegisterType(MakeCounterType());
  system.AddNodes(4);
  auto cap = system.node(0).CreateObject("counter", CounterRep());
  EXPECT_TRUE(cap.ok());

  LeaseWorkloadResult out;
  Digest values;
  for (int round = 0; round < 12; round++) {
    for (size_t reader = 1; reader < 4; reader++) {
      InvokeResult r = system.Await(system.node(reader).Invoke(*cap, "read"));
      EXPECT_TRUE(r.ok()) << r.status;
      values.Mix(r.results.U64At(0).value_or(~0ull));
    }
    if (round % 3 == 2) {
      InvokeResult w = system.Await(
          system.node(static_cast<size_t>(round) % 4).Invoke(*cap, "increment"));
      EXPECT_TRUE(w.ok()) << w.status;
      values.Mix(w.results.U64At(0).value_or(~0ull));
    }
    // Let some leases age toward (and past) renewal and expiry.
    system.RunFor(Milliseconds(round % 4 == 3 ? 600 : 40));
  }
  system.RunFor(Seconds(1));  // quiesce: all grants/recalls/acks drained

  out.values_digest = values.value();
  auto object = system.node(0).FindActive(cap->name());
  EXPECT_NE(object, nullptr);
  if (object != nullptr) {
    out.rep_digest = object->core->rep.DigestValue();
  }
  Digest run;
  run.Mix(system.sim().trace().value());
  run.Mix(system.sim().events_executed());
  run.Mix(values.value());
  out.run_digest = run.value();
  for (size_t n = 0; n < system.node_count(); n++) {
    out.local_reads +=
        system.node(n).metrics().CounterValue("kernel.lease.local_reads");
  }
  return out;
}

TEST(LeaseDeterminism, SameSeedBitIdenticalAndLeasesNeverChangeObservedState) {
  for (uint64_t seed : {7ull, 1981ull}) {
    LeaseWorkloadResult on = RunLeaseWorkload(seed, true);
    LeaseWorkloadResult again = RunLeaseWorkload(seed, true);
    EXPECT_EQ(on.run_digest, again.run_digest) << "seed " << seed;
    EXPECT_GT(on.local_reads, 0u) << "leases never engaged (seed " << seed << ")";

    LeaseWorkloadResult off = RunLeaseWorkload(seed, false);
    EXPECT_EQ(off.local_reads, 0u);
    // Leases change the wire traffic, so the executions differ...
    EXPECT_NE(on.run_digest, off.run_digest) << "seed " << seed;
    // ...but never the values served or the object state at quiesce.
    EXPECT_EQ(on.values_digest, off.values_digest) << "seed " << seed;
    EXPECT_EQ(on.rep_digest, off.rep_digest) << "seed " << seed;
  }
}

}  // namespace
}  // namespace eden
