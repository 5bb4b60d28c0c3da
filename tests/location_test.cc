// Tests for paper section 4.3: the node abstraction, object location,
// mobility (move), and frozen-object replication/caching — plus the
// partitioned directory backend of DESIGN.md §13 (homes, epochs, stale
// forwarding, crash reconstruction, broadcast/directory equivalence).
#include <gtest/gtest.h>

#include "src/kernel/eden_system.h"
#include "src/trace/span.h"
#include "tests/test_util.h"

namespace eden {
namespace {

// A counter type extended with a "move_to" operation that relocates the
// object, and a "freeze" operation.
std::shared_ptr<TypeManager> MakeMobileCounterType() {
  auto type = MakeCounterType();
  type->AddOperation(OperationSpec{
      .name = "move_to",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        auto station = ctx.args().U64At(0);
        if (!station.ok()) {
          co_return InvokeResult::Error(station.status());
        }
        Status status =
            co_await ctx.RequestMove(static_cast<StationId>(*station));
        co_return InvokeResult{status, {}};
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kMove),
  });
  type->AddOperation(OperationSpec{
      .name = "freeze",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_return InvokeResult{ctx.Freeze(), {}};
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kOwner),
  });
  type->AddOperation(OperationSpec{
      .name = "destroy",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        ctx.Destroy();
        co_return InvokeResult::Ok();
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kDestroy),
  });
  type->AddOperation(OperationSpec{
      .name = "where",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_return InvokeResult::Ok(InvokeArgs{}.AddU64(ctx.node()));
      },
      .required_rights = Rights(Rights::kInvoke),
      .read_only = true,
  });
  return type;
}

class LocationFixture : public ::testing::Test {
 protected:
  LocationFixture() {
    system_.RegisterType(MakeMobileCounterType());
    system_.AddNodes(5);
  }

  InvokeResult Call(NodeKernel& from, const Capability& cap, const std::string& op,
                    InvokeArgs args = {}) {
    return system_.Await(from.Invoke(cap, op, std::move(args)));
  }

  EdenSystem system_;
};

TEST_F(LocationFixture, MoveRelocatesTheObject) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(5));

  InvokeResult result = Call(
      system_.node(0), *cap, "move_to",
      InvokeArgs{}.AddU64(system_.node(2).station()));
  ASSERT_TRUE(result.ok()) << result.status;
  system_.RunFor(Milliseconds(10));

  EXPECT_FALSE(system_.node(0).IsActive(cap->name()));
  EXPECT_TRUE(system_.node(2).IsActive(cap->name()));

  // State travelled with the object.
  result = Call(system_.node(3), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 5u);
  result = Call(system_.node(3), *cap, "where");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), system_.node(2).station());
}

TEST_F(LocationFixture, StaleCacheIsHealedByForwarding) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  // Prime node 4's location cache.
  ASSERT_TRUE(Call(system_.node(4), *cap, "increment").ok());
  // Move the object away.
  ASSERT_TRUE(Call(system_.node(0), *cap, "move_to",
                   InvokeArgs{}.AddU64(system_.node(1).station()))
                  .ok());
  system_.RunFor(Milliseconds(10));

  // Node 4 still points at node 0; the invocation follows the forwarding
  // address transparently.
  uint64_t redirects_before =
      system_.node(4).metrics().CounterValue("kernel.redirects_followed");
  InvokeResult result = Call(system_.node(4), *cap, "increment");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 2u);
  EXPECT_GT(system_.node(4).metrics().CounterValue("kernel.redirects_followed"),
            redirects_before);

  // The healed cache goes straight to node 1 now.
  uint64_t redirects_after =
      system_.node(4).metrics().CounterValue("kernel.redirects_followed");
  ASSERT_TRUE(Call(system_.node(4), *cap, "increment").ok());
  EXPECT_EQ(system_.node(4).metrics().CounterValue("kernel.redirects_followed"),
            redirects_after);
}

TEST_F(LocationFixture, ChainedMovesAreFollowed) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(4), *cap, "increment").ok());  // prime cache

  // Move 0 -> 1 -> 2 -> 3.
  for (size_t hop = 1; hop <= 3; hop++) {
    ASSERT_TRUE(Call(system_.node(0), *cap, "move_to",
                     InvokeArgs{}.AddU64(system_.node(hop).station()))
                    .ok());
    system_.RunFor(Milliseconds(10));
  }
  EXPECT_TRUE(system_.node(3).IsActive(cap->name()));

  InvokeResult result = Call(system_.node(4), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 1u);
}

TEST_F(LocationFixture, MoveToUnreachableNodeAbortsAndRecovers) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(3));
  system_.node(2).FailNode();

  InvokeResult result = Call(
      system_.node(0), *cap, "move_to",
      InvokeArgs{}.AddU64(system_.node(2).station()));
  EXPECT_FALSE(result.ok());

  // The object still serves at its original home.
  EXPECT_TRUE(system_.node(0).IsActive(cap->name()));
  result = Call(system_.node(1), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 3u);
}

TEST_F(LocationFixture, MoveWaitsForRunningInvocationsToDrain) {
  // A slow operation is in flight when the move is requested; the move only
  // completes after it drains, and the slow invocation still gets its reply.
  auto type = std::make_shared<TypeManager>("slowpoke");
  size_t parallel = type->AddClass("parallel", 4);
  type->AddOperation(OperationSpec{
      .name = "slow",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_await ctx.Sleep(Milliseconds(200));
        co_return InvokeResult::Ok(InvokeArgs{}.AddString("slept"));
      },
      .invocation_class = parallel,
  });
  type->AddOperation(OperationSpec{
      .name = "go",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        auto station = ctx.args().U64At(0);
        Status status =
            co_await ctx.RequestMove(static_cast<StationId>(*station));
        co_return InvokeResult{status, {}};
      },
      .invocation_class = parallel,
  });
  system_.RegisterType(type);

  auto cap = system_.node(0).CreateObject("slowpoke", Representation{});
  ASSERT_TRUE(cap.ok());
  Future<InvokeResult> slow = system_.node(1).Invoke(*cap, "slow");
  system_.RunFor(Milliseconds(20));  // let it start
  Future<InvokeResult> move = system_.node(1).Invoke(
      *cap, "go", InvokeArgs{}.AddU64(system_.node(2).station()));

  InvokeResult slow_result = system_.Await(std::move(slow));
  EXPECT_TRUE(slow_result.ok()) << slow_result.status;
  EXPECT_EQ(slow_result.results.StringAt(0).value(), "slept");
  InvokeResult move_result = system_.Await(std::move(move));
  EXPECT_TRUE(move_result.ok()) << move_result.status;
  system_.RunFor(Milliseconds(10));
  EXPECT_TRUE(system_.node(2).IsActive(cap->name()));
}

TEST_F(LocationFixture, FrozenObjectRejectsMutation) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(9));
  ASSERT_TRUE(Call(system_.node(0), *cap, "freeze").ok());

  InvokeResult result = Call(system_.node(0), *cap, "increment");
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  result = Call(system_.node(0), *cap, "read");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), 9u);
}

TEST_F(LocationFixture, FrozenObjectIsCachedAndServedLocally) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  Call(system_.node(0), *cap, "increment", InvokeArgs{}.AddU64(9));
  ASSERT_TRUE(Call(system_.node(0), *cap, "freeze").ok());

  // The first remote read draws a lease grant that never expires: the home
  // pushes a copy of the frozen state to the invoking kernel.
  InvokeResult result = Call(system_.node(3), *cap, "read");
  ASSERT_TRUE(result.ok());
  system_.RunFor(Milliseconds(50));
  EXPECT_TRUE(system_.node(3).HasReplica(cap->name()));

  // Subsequent reads are served from the local copy: no remote traffic.
  uint64_t remote_before =
      system_.node(3).metrics().CounterValue("kernel.invoke.remote");
  uint64_t local_reads_before =
      system_.node(3).metrics().CounterValue("kernel.lease.local_reads");
  result = Call(system_.node(3), *cap, "read");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.results.U64At(0).value(), 9u);
  EXPECT_EQ(system_.node(3).metrics().CounterValue("kernel.invoke.remote"),
            remote_before);
  EXPECT_GT(system_.node(3).metrics().CounterValue("kernel.lease.local_reads"),
            local_reads_before);
}

TEST_F(LocationFixture, ReplicaDoesNotServeMutations) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "freeze").ok());
  Call(system_.node(3), *cap, "read");
  system_.RunFor(Milliseconds(50));
  ASSERT_TRUE(system_.node(3).HasReplica(cap->name()));

  // A mutating operation is routed to the (frozen) authoritative copy and
  // refused there, not silently applied to the local copy.
  InvokeResult result = Call(system_.node(3), *cap, "increment");
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(LocationFixture, PartitionMakesObjectUnavailableThenHeals) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(Call(system_.node(3), *cap, "increment").ok());

  // Partition node 3 away from node 0.
  system_.lan().SetPartitionGroup(system_.node(3).station(), 1);
  InvokeResult result = system_.Await(
      system_.node(3).Invoke(*cap, "read", {}, InvokeOptions::WithTimeout(Milliseconds(500))));
  EXPECT_FALSE(result.ok());

  system_.lan().ClearPartitions();
  result = Call(system_.node(3), *cap, "read");
  EXPECT_TRUE(result.ok()) << result.status;
}

// --- Partitioned directory (DESIGN.md §13) ---------------------------------

TEST_F(LocationFixture, DirectoryHomeTracksResidenceAcrossMoves) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  const ObjectName& name = cap->name();

  // All nodes agree on the home, and creation already registered there.
  std::vector<StationId> homes = system_.node(0).location().HomesOf(name);
  ASSERT_EQ(homes.size(), 1u);
  EXPECT_EQ(homes, system_.node(3).location().HomesOf(name));
  NodeKernel* home = system_.NodeAt(homes[0]);
  ASSERT_NE(home, nullptr);
  system_.RunFor(Milliseconds(5));  // let the creation update land
  const ResidenceRecord* entry = home->location().DirectoryEntry(name);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->host, system_.node(0).station());
  EXPECT_TRUE(entry->active);
  uint64_t create_epoch = entry->epoch;
  EXPECT_GT(create_epoch, 0u);

  // After a move the home points at the destination with a newer epoch.
  ASSERT_TRUE(Call(system_.node(0), *cap, "move_to",
                   InvokeArgs{}.AddU64(system_.node(2).station()))
                  .ok());
  system_.RunFor(Milliseconds(10));
  entry = home->location().DirectoryEntry(name);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->host, system_.node(2).station());
  EXPECT_GT(entry->epoch, create_epoch);

  // A cold invoker resolves through the home — one directory query, no
  // broadcast — and lands directly on the new host.
  size_t cold = 4;
  if (homes[0] == system_.node(cold).station()) {
    cold = 3;  // don't pick the home itself: its lookup is purely local
  }
  InvokeResult result = Call(system_.node(cold), *cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  const MetricsRegistry& m = system_.node(cold).metrics();
  EXPECT_EQ(m.CounterValue("kernel.locate.queries.directory"), 1u);
  EXPECT_EQ(m.CounterValue("kernel.locate.queries.broadcast"), 0u);
  EXPECT_EQ(m.CounterValue("kernel.directory.fallbacks"), 0u);

  // Destruction leaves a tombstone: the home forgets the record.
  ASSERT_TRUE(Call(system_.node(2), *cap, "destroy").ok());
  system_.RunFor(Milliseconds(10));
  EXPECT_EQ(home->location().DirectoryEntry(name), nullptr);
}

TEST_F(LocationFixture, StaleHostForwardsWithVersionedHint) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  // Prime node 4's cache at the old residence, then move the object away.
  ASSERT_TRUE(Call(system_.node(4), *cap, "increment").ok());
  ASSERT_TRUE(Call(system_.node(0), *cap, "move_to",
                   InvokeArgs{}.AddU64(system_.node(1).station()))
                  .ok());
  system_.RunFor(Milliseconds(10));

  // The stale invocation lands on node 0, which answers with a
  // version-stamped forward hint instead of re-broadcasting.
  uint64_t stale_before =
      system_.node(0).metrics().CounterValue("kernel.directory.stale_forwards");
  InvokeResult result = Call(system_.node(4), *cap, "increment");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.results.U64At(0).value(), 2u);
  EXPECT_GT(
      system_.node(0).metrics().CounterValue("kernel.directory.stale_forwards"),
      stale_before);
  // Following the hint required no extra locate round on the invoker.
  EXPECT_LE(LocateQueries(system_.node(4)), 1u);
}

TEST_F(LocationFixture, StaleEpochUpdateIsRejectedByTheHome) {
  auto cap = system_.node(0).CreateObject("counter", CounterRep());
  ASSERT_TRUE(cap.ok());
  const ObjectName& name = cap->name();
  system_.RunFor(Milliseconds(5));
  NodeKernel* home = system_.NodeAt(system_.node(0).location().HomesOf(name)[0]);
  ASSERT_NE(home, nullptr);
  const ResidenceRecord* entry = home->location().DirectoryEntry(name);
  ASSERT_NE(entry, nullptr);
  uint64_t fresh_epoch = entry->epoch;
  uint64_t stale_before =
      home->metrics().CounterValue("kernel.directory.stale_updates");

  // A delayed update from an older residence (epoch behind) must not clobber
  // the newer record.
  DirectoryUpdateMsg stale;
  stale.name = name;
  stale.host = system_.node(3).station();
  stale.epoch = fresh_epoch - 1;
  stale.active = true;
  home->location().HandleDirectoryUpdate(system_.node(3).station(), stale);
  entry = home->location().DirectoryEntry(name);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->host, system_.node(0).station());
  EXPECT_EQ(entry->epoch, fresh_epoch);
  EXPECT_EQ(home->metrics().CounterValue("kernel.directory.stale_updates"),
            stale_before + 1);

  // Same epoch but passive also loses to the active record.
  DirectoryUpdateMsg passive;
  passive.name = name;
  passive.host = system_.node(3).station();
  passive.epoch = fresh_epoch;
  passive.active = false;
  home->location().HandleDirectoryUpdate(system_.node(3).station(), passive);
  EXPECT_EQ(home->location().DirectoryEntry(name)->host,
            system_.node(0).station());

  // A removal tombstone older than the record is ignored too.
  DirectoryUpdateMsg tombstone;
  tombstone.name = name;
  tombstone.epoch = fresh_epoch - 1;
  tombstone.removal = true;
  home->location().HandleDirectoryUpdate(system_.node(3).station(), tombstone);
  EXPECT_NE(home->location().DirectoryEntry(name), nullptr);
}

TEST_F(LocationFixture, HomeCrashFallsBackAndReconstructsTheDirectory) {
  // Pick an object whose home is neither its host (node 0) nor the invokers
  // (nodes 3 and 4), so killing the home hits only the directory.
  Capability cap;
  NodeKernel* home = nullptr;
  for (int attempt = 0; attempt < 32; attempt++) {
    auto candidate = system_.node(0).CreateObject("counter", CounterRep());
    ASSERT_TRUE(candidate.ok());
    StationId home_station =
        system_.node(0).location().HomesOf(candidate->name())[0];
    if (home_station != system_.node(0).station() &&
        home_station != system_.node(3).station() &&
        home_station != system_.node(4).station()) {
      cap = *candidate;
      home = system_.NodeAt(home_station);
      break;
    }
  }
  ASSERT_NE(home, nullptr) << "no name hashed to nodes 1/2 in 32 tries";
  system_.RunFor(Milliseconds(5));
  ASSERT_NE(home->location().DirectoryEntry(cap.name()), nullptr);

  // Home dies, taking its partition with it. A cold invoker's lookup round
  // times out, falls back to one broadcast, and still resolves.
  home->FailNode();
  InvokeResult result = Call(system_.node(3), cap, "increment");
  ASSERT_TRUE(result.ok()) << result.status;
  const MetricsRegistry& m3 = system_.node(3).metrics();
  EXPECT_GE(m3.CounterValue("kernel.directory.fallbacks"), 1u);
  EXPECT_GE(m3.CounterValue("kernel.locate.queries.broadcast"), 1u);

  // After the home restarts (empty partition), the next fallback pushes the
  // learned residence back: the directory reconstructs itself lazily from
  // the host's own inventory.
  home->RestartNode();
  EXPECT_EQ(home->location().directory_entries(), 0u);
  result = Call(system_.node(4), cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_GE(system_.node(4).metrics().CounterValue("kernel.directory.repairs"),
            1u);
  system_.RunFor(Milliseconds(10));
  const ResidenceRecord* entry = home->location().DirectoryEntry(cap.name());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->host, system_.node(0).station());

  // And with the directory healed, a third cold node needs no fallback.
  InvokeResult healed = Call(system_.node(1), cap, "read");
  if (home != &system_.node(1)) {
    ASSERT_TRUE(healed.ok()) << healed.status;
    EXPECT_EQ(system_.node(1).metrics().CounterValue(
                  "kernel.directory.fallbacks"),
              0u);
  }
}

TEST_F(LocationFixture, RestartRepublishHealsTheDirectoryWithoutFallback) {
  // An object hosted (and checkpointed) on node 0 whose directory home is a
  // different node — and neither is node 3, the cold invoker at the end.
  Capability cap;
  NodeKernel* home = nullptr;
  for (int attempt = 0; attempt < 32; attempt++) {
    auto candidate = system_.node(0).CreateObject("counter", CounterRep());
    ASSERT_TRUE(candidate.ok());
    StationId home_station =
        system_.node(0).location().HomesOf(candidate->name())[0];
    if (home_station != system_.node(0).station() &&
        home_station != system_.node(3).station()) {
      cap = *candidate;
      home = system_.NodeAt(home_station);
      break;
    }
  }
  ASSERT_NE(home, nullptr) << "no name hashed away from nodes 0/3 in 32 tries";
  ASSERT_TRUE(system_.Await(system_.node(0).CheckpointObject(cap.name())).ok());
  system_.RunFor(Milliseconds(5));

  // Host and directory home both die: the record is gone with the home's
  // partition, and the host's active copy is gone with the host.
  home->FailNode();
  system_.node(0).FailNode();
  home->RestartNode();
  ASSERT_EQ(home->location().directory_entries(), 0u);

  // The host's restart proactively re-publishes a passive residence record
  // for every checkpoint base in its store — the directory heals without
  // waiting for a locate to miss first.
  system_.node(0).RestartNode();
  system_.RunFor(Milliseconds(10));
  const ResidenceRecord* entry = home->location().DirectoryEntry(cap.name());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->host, system_.node(0).station());
  EXPECT_FALSE(entry->active);

  // So a cold invoker resolves through the directory alone: one lookup, no
  // broadcast fallback round.
  InvokeResult result = Call(system_.node(3), cap, "read");
  ASSERT_TRUE(result.ok()) << result.status;
  const MetricsRegistry& m3 = system_.node(3).metrics();
  EXPECT_EQ(m3.CounterValue("kernel.directory.fallbacks"), 0u);
  EXPECT_EQ(m3.CounterValue("kernel.locate.queries.broadcast"), 0u);
}

// One workload, both backends: same results, and per-seed deterministic
// digests whether or not a span collector is attached.
uint64_t RunLocateWorkload(uint64_t seed, LocationBackend backend,
                           bool traced) {
  SystemConfig config;
  config.seed = seed;
  config.kernel.locate.backend = backend;
  SpanCollector spans;
  EdenSystem system(config);
  if (traced) {
    system.set_span_collector(&spans);
  }
  system.RegisterType(MakeMobileCounterType());
  system.AddNodes(6);

  std::vector<Capability> caps;
  for (int i = 0; i < 4; i++) {
    auto cap = system.node(static_cast<size_t>(i) % 3).CreateObject(
        "counter", CounterRep());
    EXPECT_TRUE(cap.ok());
    caps.push_back(*cap);
  }
  uint64_t total = 0;
  for (int round = 0; round < 6; round++) {
    for (size_t i = 0; i < caps.size(); i++) {
      size_t invoker = (static_cast<size_t>(round) + i) % 6;
      InvokeResult result =
          system.Await(system.node(invoker).Invoke(caps[i], "increment"));
      EXPECT_TRUE(result.ok()) << result.status;
      total += result.results.U64At(0).value();
    }
    // Keep caches and the directory churning.
    size_t mover = static_cast<size_t>(round) % caps.size();
    system.Await(system.node(5).Invoke(
        caps[mover], "move_to",
        InvokeArgs{}.AddU64(
            system.node(static_cast<size_t>(round + 1) % 6).station())));
    system.RunFor(Milliseconds(10));
  }
  Digest digest;
  digest.Mix(system.sim().trace().value());
  digest.Mix(system.sim().events_executed());
  digest.Mix(total);
  for (size_t n = 0; n < system.node_count(); n++) {
    digest.Mix(LocateQueries(system.node(n)));
    digest.Mix(
        system.node(n).metrics().CounterValue("kernel.directory.updates"));
  }
  return digest.value();
}

TEST_F(LocationFixture, BackendsAgreeAndDigestsAreSeedStable) {
  for (uint64_t seed : {7ull, 1981ull}) {
    // Same seed, same backend: bit-identical executions, traced or not.
    uint64_t directory =
        RunLocateWorkload(seed, LocationBackend::kDirectory, false);
    EXPECT_EQ(directory,
              RunLocateWorkload(seed, LocationBackend::kDirectory, false));
    EXPECT_EQ(directory,
              RunLocateWorkload(seed, LocationBackend::kDirectory, true));
    uint64_t broadcast =
        RunLocateWorkload(seed, LocationBackend::kBroadcast, false);
    EXPECT_EQ(broadcast,
              RunLocateWorkload(seed, LocationBackend::kBroadcast, false));
    EXPECT_EQ(broadcast,
              RunLocateWorkload(seed, LocationBackend::kBroadcast, true));
    // The backends do different wire work, so their digests differ — the
    // equality checks above are not vacuous.
    EXPECT_NE(directory, broadcast);
  }
}

TEST_F(LocationFixture, InvocationClassLimitSerializesWriters) {
  // Two slow writers on a limit-1 class must not overlap; with a limit-4
  // class they do. We detect overlap through virtual completion times.
  auto type = std::make_shared<TypeManager>("serialized");
  type->AddOperation(OperationSpec{
      .name = "work",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        co_await ctx.Sleep(Milliseconds(100));
        co_return InvokeResult::Ok(InvokeArgs{}.AddU64(
            static_cast<uint64_t>(ctx.sim().now())));
      },
  });  // default class, limit 1
  system_.RegisterType(type);
  auto cap = system_.node(0).CreateObject("serialized", Representation{});
  ASSERT_TRUE(cap.ok());

  Future<InvokeResult> first = system_.node(1).Invoke(*cap, "work");
  Future<InvokeResult> second = system_.node(2).Invoke(*cap, "work");
  InvokeResult r1 = system_.Await(std::move(first));
  InvokeResult r2 = system_.Await(std::move(second));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  int64_t t1 = static_cast<int64_t>(r1.results.U64At(0).value());
  int64_t t2 = static_cast<int64_t>(r2.results.U64At(0).value());
  // Completions at least one full work-period apart: strictly serialized.
  EXPECT_GE(std::abs(t2 - t1), Milliseconds(100));
}

}  // namespace
}  // namespace eden
