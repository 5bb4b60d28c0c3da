// Unit tests for the simulated stable store (the per-node disk): basic
// record semantics, the C-LOOK elevator scheduler, group commit, read
// fairness, and capacity accounting.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/sim/task.h"
#include "src/storage/stable_store.h"

namespace eden {
namespace {

template <typename T>
T Await(Simulation& sim, Future<T> future) {
  sim.RunWhile([&] { return !future.ready(); });
  EXPECT_TRUE(future.ready());
  return future.Get();
}

// Probes generated keys until one lands on a track satisfying `pred`
// (TrackOf is a pure hash, so this is deterministic).
std::string KeyWithTrack(const StableStore& store,
                         const std::function<bool(uint32_t)>& pred, int salt) {
  for (int i = 0;; i++) {
    std::string key = "k" + std::to_string(salt) + "_" + std::to_string(i);
    if (pred(store.TrackOf(key))) {
      return key;
    }
  }
}

TEST(StableStoreTest, PutThenGetReturnsValue) {
  Simulation sim;
  StableStore store(sim);
  ASSERT_TRUE(Await(sim, store.Put("key", ToBytes("value"))).ok());
  auto read = Await(sim, store.Get("key"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(read->view()), "value");
}

TEST(StableStoreTest, GetMissingIsNotFound) {
  Simulation sim;
  StableStore store(sim);
  auto read = Await(sim, store.Get("missing"));
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(StableStoreTest, GetSnapshotsValueAtCallTime) {
  // An overwrite issued while a read is queued must not alter what the read
  // returns (the read snapshots the record refcounted at enqueue).
  Simulation sim;
  StableStore store(sim);
  ASSERT_TRUE(Await(sim, store.Put("k", ToBytes("old"))).ok());
  Future<StatusOr<SharedBytes>> read = store.Get("k");
  store.Put("k", ToBytes("new"));
  auto value = Await(sim, read);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(value->view()), "old");
}

TEST(StableStoreTest, OverwriteReplacesAndAccountsBytes) {
  Simulation sim;
  StableStore store(sim);
  ASSERT_TRUE(Await(sim, store.Put("k", Bytes(1000))).ok());
  EXPECT_EQ(store.bytes_used(), 1000u);
  ASSERT_TRUE(Await(sim, store.Put("k", Bytes(10))).ok());
  EXPECT_EQ(store.bytes_used(), 10u);
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(StableStoreTest, DeleteRemovesRecord) {
  Simulation sim;
  StableStore store(sim);
  ASSERT_TRUE(Await(sim, store.Put("k", ToBytes("x"))).ok());
  EXPECT_TRUE(store.Contains("k"));
  ASSERT_TRUE(Await(sim, store.Delete("k")).ok());
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.bytes_used(), 0u);
  // Deleting again is OK (idempotent).
  EXPECT_TRUE(Await(sim, store.Delete("k")).ok());
}

TEST(StableStoreTest, ServiceTimeIncludesSeekAndTransfer) {
  Simulation sim;
  DiskConfig config;
  config.average_seek = Milliseconds(30);
  config.rotational_latency = Milliseconds(8);
  config.transfer_bytes_per_sec = 1e6;
  StableStore store(sim, config);

  SimTime start = sim.now();
  ASSERT_TRUE(Await(sim, store.Put("k", Bytes(100000))).ok());
  SimDuration elapsed = sim.now() - start;
  // 38 ms access (cold arm pays the average seek) + 100 ms transfer.
  EXPECT_NEAR(static_cast<double>(elapsed), 138e6, 2e6);
}

TEST(StableStoreTest, ReadsSerializeThroughOneArm) {
  // Reads are never batched: two concurrent reads are two arm services.
  Simulation sim;
  StableStore store(sim);
  ASSERT_TRUE(Await(sim, store.Put("k", Bytes(10000))).ok());

  Future<StatusOr<SharedBytes>> first = store.Get("k");
  Future<StatusOr<SharedBytes>> second = store.Get("k");
  SimTime first_done = 0;
  first.OnReady([&] { first_done = sim.now(); });
  Await(sim, second);
  EXPECT_TRUE(first.ready());
  EXPECT_GT(sim.now(), first_done);
}

TEST(StableStoreTest, GroupCommitCoalescesQueuedWrites) {
  Simulation sim;
  MetricsRegistry metrics;
  StableStore store(sim);
  store.set_metrics(&metrics);
  SimTime start = sim.now();
  // The first write spins the arm up alone; the other three arrive while it
  // is busy and must share a single durable flush.
  Future<Status> w1 = store.Put("w1", Bytes(1000));
  Future<Status> w2 = store.Put("w2", Bytes(1000));
  Future<Status> w3 = store.Put("w3", Bytes(1000));
  Future<Status> w4 = store.Put("w4", Bytes(1000));
  Await(sim, w4);
  EXPECT_TRUE(w1.ready() && w2.ready() && w3.ready());
  EXPECT_EQ(metrics.CounterValue("store.batch_flushes"), 2u);
  EXPECT_EQ(metrics.CounterValue("store.batched_writes"), 3u);
  // Far cheaper than four cold accesses in the FIFO model.
  EXPECT_LT(sim.now() - start, 4 * Milliseconds(38));
}

TEST(StableStoreTest, CommitIntervalHoldsIdleWritesForBatching) {
  Simulation sim;
  DiskConfig config;
  config.commit_interval = Milliseconds(5);
  MetricsRegistry metrics;
  StableStore store(sim, config);
  store.set_metrics(&metrics);

  Future<Status> w1 = store.Put("w1", Bytes(100));
  // Arrives during the hold-off window: joins w1's flush.
  Future<Status> w2 = store.Put("w2", Bytes(100));
  SimTime w1_done = 0;
  w1.OnReady([&] { w1_done = sim.now(); });
  Await(sim, w2);
  EXPECT_EQ(sim.now(), w1_done);  // one flush, one completion instant
  EXPECT_EQ(metrics.CounterValue("store.batch_flushes"), 1u);
  EXPECT_EQ(metrics.CounterValue("store.batched_writes"), 2u);
  EXPECT_GE(sim.now(), Milliseconds(5));  // the hold-off actually happened
}

TEST(StableStoreTest, ElevatorServicesReadsInTrackOrder) {
  Simulation sim;
  DiskConfig config;
  StableStore store(sim, config);

  // Park the arm at a known low track, then queue reads whose tracks are
  // ahead of it at increasing distances, enqueued out of order.
  std::string anchor =
      KeyWithTrack(store, [](uint32_t t) { return t < 100; }, 0);
  uint32_t arm = store.TrackOf(anchor);
  auto ahead = [&](uint32_t lo, uint32_t hi, int salt) {
    return KeyWithTrack(
        store, [&, lo, hi](uint32_t t) { return t > arm + lo && t <= arm + hi; },
        salt);
  };
  std::string key_lo = ahead(10, 100, 1);
  std::string key_mid = ahead(150, 250, 2);
  std::string key_hi = ahead(300, 400, 3);
  for (const std::string& key : {anchor, key_lo, key_mid, key_hi}) {
    ASSERT_TRUE(Await(sim, store.Put(key, Bytes(10))).ok());
  }
  // Reposition the arm at the anchor's track.
  ASSERT_TRUE(Await(sim, store.Get(anchor)).ok());

  std::vector<std::string> order;
  auto track_completion = [&](const std::string& label,
                              Future<StatusOr<SharedBytes>> f) {
    f.OnReady([&order, label] { order.push_back(label); });
  };
  // Busy the arm (travel 0), then enqueue hi, lo, mid.
  Future<StatusOr<SharedBytes>> busy = store.Get(anchor);
  track_completion("hi", store.Get(key_hi));
  Future<StatusOr<SharedBytes>> lo_read = store.Get(key_lo);
  track_completion("lo", lo_read);
  track_completion("mid", store.Get(key_mid));
  sim.Run();
  ASSERT_EQ(order.size(), 3u);
  // C-LOOK sweeps ascending from the arm, not in arrival order.
  EXPECT_EQ(order[0], "lo");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "hi");
}

TEST(StableStoreTest, FifoModeServicesInArrivalOrder) {
  Simulation sim;
  DiskConfig config;
  config.elevator = false;
  StableStore store(sim, config);

  std::string anchor =
      KeyWithTrack(store, [](uint32_t t) { return t < 100; }, 0);
  uint32_t arm = store.TrackOf(anchor);
  auto ahead = [&](uint32_t lo, uint32_t hi, int salt) {
    return KeyWithTrack(
        store, [&, lo, hi](uint32_t t) { return t > arm + lo && t <= arm + hi; },
        salt);
  };
  std::string key_lo = ahead(10, 100, 1);
  std::string key_hi = ahead(300, 400, 3);
  for (const std::string& key : {anchor, key_lo, key_hi}) {
    ASSERT_TRUE(Await(sim, store.Put(key, Bytes(10))).ok());
  }
  ASSERT_TRUE(Await(sim, store.Get(anchor)).ok());

  std::vector<std::string> order;
  Future<StatusOr<SharedBytes>> busy = store.Get(anchor);
  Future<StatusOr<SharedBytes>> hi_read = store.Get(key_hi);
  hi_read.OnReady([&] { order.push_back("hi"); });
  Future<StatusOr<SharedBytes>> lo_read = store.Get(key_lo);
  lo_read.OnReady([&] { order.push_back("lo"); });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "hi");  // arrival order, ignoring tracks
  EXPECT_EQ(order[1], "lo");
}

TEST(StableStoreTest, BatchRespectsMaxBatchBytes) {
  Simulation sim;
  DiskConfig config;
  config.max_batch_bytes = 250 * 1000;
  MetricsRegistry metrics;
  StableStore store(sim, config);
  store.set_metrics(&metrics);

  std::vector<Future<Status>> writes;
  for (int i = 0; i < 5; i++) {
    writes.push_back(store.Put("w" + std::to_string(i), Bytes(100 * 1000)));
  }
  for (auto& w : writes) {
    EXPECT_TRUE(Await(sim, w).ok());
  }
  // {w0} dispatches alone; the four queued 100 KB writes split into two
  // flushes of two (a third member would exceed max_batch_bytes).
  EXPECT_EQ(metrics.CounterValue("store.batch_flushes"), 3u);
  EXPECT_EQ(metrics.CounterValue("store.batched_writes"), 4u);
}

TEST(StableStoreTest, MaxBatchOpsOneDisablesBatching) {
  Simulation sim;
  DiskConfig config;
  config.max_batch_ops = 1;
  MetricsRegistry metrics;
  StableStore store(sim, config);
  store.set_metrics(&metrics);
  Future<Status> w1 = store.Put("a", Bytes(10));
  Future<Status> w2 = store.Put("b", Bytes(10));
  Await(sim, w2);
  EXPECT_EQ(metrics.CounterValue("store.batch_flushes"), 2u);
  EXPECT_EQ(metrics.CounterValue("store.batched_writes"), 0u);
}

TEST(StableStoreTest, PendingReadPreemptsWritesAfterFairnessCap) {
  Simulation sim;
  DiskConfig config;
  config.elevator = false;  // FIFO keeps the schedule obvious
  config.max_batch_ops = 1;
  config.max_writes_per_pass = 2;
  StableStore store(sim, config);
  ASSERT_TRUE(Await(sim, store.Put("r", Bytes(10))).ok());
  // Reset the per-pass write counter (it only resets when a read services).
  ASSERT_TRUE(Await(sim, store.Get("r")).ok());

  std::vector<std::string> order;
  Future<Status> w1 = store.Put("w1", Bytes(1000));  // dispatches immediately
  for (int i = 2; i <= 5; i++) {
    std::string label = "w" + std::to_string(i);
    Future<Status> w = store.Put(label, Bytes(1000));
    w.OnReady([&order, label] { order.push_back(label); });
  }
  Future<StatusOr<SharedBytes>> read = store.Get("r");
  read.OnReady([&order] { order.push_back("read"); });
  sim.Run();
  ASSERT_EQ(order.size(), 5u);
  // w1 (in flight) + w2 exhaust the two-writes-per-pass budget, then the
  // read cuts ahead of w3..w5.
  EXPECT_EQ(order[0], "w2");
  EXPECT_EQ(order[1], "read");
  EXPECT_EQ(order[2], "w3");
}

TEST(StableStoreTest, CapacityIsEnforced) {
  Simulation sim;
  DiskConfig config;
  config.capacity_bytes = 1000;
  StableStore store(sim, config);
  EXPECT_TRUE(Await(sim, store.Put("fits", Bytes(900))).ok());
  Status status = Await(sim, store.Put("overflow", Bytes(200)));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // A failed put leaves no trace in the index or the accounting.
  EXPECT_FALSE(store.Contains("overflow"));
  EXPECT_EQ(store.bytes_used(), 900u);
  // Replacing the existing record within capacity is fine.
  EXPECT_TRUE(Await(sim, store.Put("fits", Bytes(990))).ok());
}

TEST(StableStoreTest, DeleteAndOverwriteReclaimCapacity) {
  // Regression: the overwrite and delete paths must reclaim capacity
  // immediately, and a rejected oversized overwrite must leave the original
  // record intact.
  Simulation sim;
  DiskConfig config;
  config.capacity_bytes = 1000;
  StableStore store(sim, config);
  ASSERT_TRUE(Await(sim, store.Put("a", Bytes(600))).ok());
  EXPECT_EQ(Await(sim, store.Put("b", Bytes(600))).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(Await(sim, store.Delete("a")).ok());
  EXPECT_TRUE(Await(sim, store.Put("b", Bytes(600))).ok());
  // Shrinking an existing record frees the difference...
  ASSERT_TRUE(Await(sim, store.Put("b", Bytes(100))).ok());
  EXPECT_TRUE(Await(sim, store.Put("c", Bytes(800))).ok());
  EXPECT_EQ(store.bytes_used(), 900u);
  // ...and growing one past capacity is rejected without corrupting it.
  EXPECT_EQ(Await(sim, store.Put("c", Bytes(950))).code(),
            StatusCode::kResourceExhausted);
  auto read = Await(sim, store.Get("c"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 800u);
}

TEST(StableStoreTest, DeltaSuffixedKeysShareTheBaseTrack) {
  Simulation sim;
  StableStore store(sim);
  EXPECT_EQ(store.TrackOf("ckpt/obj"), store.TrackOf("ckpt/obj#d1"));
  EXPECT_EQ(store.TrackOf("ckpt/obj"), store.TrackOf("ckpt/obj#d12"));
}

TEST(StableStoreTest, KeysListsEverythingSorted) {
  Simulation sim;
  StableStore store(sim);
  Await(sim, store.Put("b", Bytes(1)));
  Await(sim, store.Put("a", Bytes(1)));
  Await(sim, store.Put("c", Bytes(1)));
  auto keys = store.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
  EXPECT_EQ(keys[2], "c");
}

TEST(StableStoreTest, StatsAccumulate) {
  Simulation sim;
  MetricsRegistry metrics;
  StableStore store(sim);
  store.set_metrics(&metrics);
  Await(sim, store.Put("k", Bytes(500)));
  Await(sim, store.Get("k"));
  Await(sim, store.Delete("k"));
  EXPECT_EQ(metrics.CounterValue("store.writes"), 1u);
  EXPECT_EQ(metrics.CounterValue("store.reads"), 1u);
  EXPECT_EQ(metrics.CounterValue("store.deletes"), 1u);
  EXPECT_EQ(metrics.CounterValue("store.written_bytes"), 500u);
  EXPECT_EQ(metrics.CounterValue("store.read_bytes"), 500u);
  EXPECT_GT(store.stats().busy_time, 0);
}

}  // namespace
}  // namespace eden
