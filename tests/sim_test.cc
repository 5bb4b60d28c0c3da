// Unit tests for the discrete-event simulation core: clock, event queue,
// cancellation, RNG determinism, the coroutine task/future layer, and the
// byte codec and CRC-32 beneath every wire frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace eden {
namespace {

TEST(SimulationTest, EventsRunInTimestampOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Milliseconds(30));
}

TEST(SimulationTest, SameTimestampIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim.Schedule(Milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.Schedule(Milliseconds(5), [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulationTest, CancelAfterFireIsHarmless) {
  Simulation sim;
  EventId id = sim.Schedule(0, [] {});
  sim.Run();
  sim.Cancel(id);  // no crash, no effect
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulationTest, RunUntilAdvancesClockToDeadline) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Milliseconds(10), [&] { fired++; });
  sim.Schedule(Milliseconds(100), [&] { fired++; });
  sim.RunUntil(Milliseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Milliseconds(50));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      sim.Schedule(Milliseconds(1), recurse);
    }
  };
  sim.Schedule(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), Milliseconds(9));
}

// Drives a Simulation with random Schedule / ScheduleAtKeyed / Cancel / Step
// / RunUntil sequences and mirrors every operation in a reference ordered map
// keyed by the canonical (when, domain, stream, seq) order. Every fired event
// must be the reference's minimum, and the live count and next-event time
// must agree after every operation, including inside callbacks.
class QueueModel {
 public:
  explicit QueueModel(uint64_t seed) : rng_(seed) {}

  void RunRandomOps(int ops) {
    for (int i = 0; i < ops; i++) {
      uint64_t pick = rng_.NextBelow(100);
      if (pick < 35) {
        ScheduleUnkeyed();
      } else if (pick < 55) {
        ScheduleKeyed();
      } else if (pick < 65) {
        CancelLive();
      } else if (pick < 70) {
        CancelDead();
      } else if (pick < 73) {
        sim_.Cancel(UnknownId());
      } else if (pick < 95) {
        bool has_event = !pending_.empty();
        EXPECT_EQ(sim_.Step(), has_event);
      } else {
        sim_.RunUntil(sim_.now() + static_cast<SimDuration>(rng_.NextBelow(3)));
      }
      Check();
    }
    while (sim_.Step()) {
      Check();
    }
    EXPECT_TRUE(pending_.empty());
  }

  uint64_t fired() const { return fired_; }

 private:
  struct Key {
    SimTime when;
    uint32_t domain;
    uint32_t stream;
    uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };

  void Check() {
    ASSERT_EQ(sim_.pending_events(), pending_.size());
    SimTime next =
        pending_.empty() ? kSimTimeNever : pending_.begin()->first.when;
    ASSERT_EQ(sim_.PeekNextEventTime(), next);
  }

  // Delays of 0..3 ns: most instants hold several events.
  SimTime When() {
    return sim_.now() + static_cast<SimDuration>(rng_.NextBelow(4));
  }

  // Unkeyed events inherit the running event's domain and draw its counter.
  void ScheduleUnkeyed() {
    Key key{When(), current_domain_, 0, domain_seq_[current_domain_]++};
    pending_[key] = sim_.Schedule(key.when - sim_.now(), [this, key] { Fire(key); });
  }

  // Keyed events use streams 1..2, so their keys never collide with unkeyed
  // ones (stream 0); seq is monotone per (domain, stream).
  void ScheduleKeyed() {
    uint32_t domain = static_cast<uint32_t>(rng_.NextBelow(3));
    uint32_t stream = 1 + static_cast<uint32_t>(rng_.NextBelow(2));
    Key key{When(), domain, stream, keyed_seq_[{domain, stream}]++};
    pending_[key] = sim_.ScheduleAtKeyed(key.when, key.domain, key.stream,
                                         key.seq, [this, key] { Fire(key); });
  }

  void CancelLive() {
    if (pending_.empty()) {
      return;
    }
    auto it = std::next(pending_.begin(),
                        static_cast<long>(rng_.NextBelow(pending_.size())));
    sim_.Cancel(it->second);
    dead_.push_back(it->second);
    pending_.erase(it);
  }

  // A fired or already-cancelled id: a no-op.
  void CancelDead() {
    if (!dead_.empty()) {
      sim_.Cancel(dead_[rng_.NextBelow(dead_.size())]);
    }
  }

  // Never issued: a slot index past the pool, or the invalid id.
  EventId UnknownId() {
    return rng_.NextBelow(2) == 0 ? kInvalidEventId
                                  : (EventId{1} << 32) | 0x7fffffffu;
  }

  void Fire(const Key& key) {
    ASSERT_FALSE(pending_.empty());
    ASSERT_TRUE(pending_.begin()->first == key)
        << "popped (" << key.when << "," << key.domain << "," << key.stream
        << "," << key.seq << ") out of order";
    EXPECT_EQ(sim_.now(), key.when);
    EventId self = pending_.begin()->second;
    pending_.erase(pending_.begin());
    dead_.push_back(self);
    fired_++;
    Check();
    current_domain_ = key.domain;
    if (rng_.NextBelow(4) == 0) {
      sim_.Cancel(self);  // already fired: a no-op
      Check();
    }
    for (uint64_t n = rng_.NextBelow(3); n > 0; n--) {
      CancelLive();
      Check();
    }
    if (rng_.NextBelow(2) == 0) {
      ScheduleUnkeyed();
      Check();
    }
    current_domain_ = 0;
  }

  Simulation sim_;
  Rng rng_;
  std::map<Key, EventId> pending_;  // the reference queue, in pop order
  std::vector<EventId> dead_;       // fired or cancelled ids
  uint32_t current_domain_ = 0;
  std::map<uint32_t, uint64_t> domain_seq_{{0, 1}, {1, 1}, {2, 1}};
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> keyed_seq_;
  uint64_t fired_ = 0;
};

TEST(SimulationTest, QueueMatchesReferenceOrderUnderRandomCancels) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    SCOPED_TRACE(seed);
    QueueModel model(seed);
    model.RunRandomOps(3000);
    EXPECT_GT(model.fired(), 500u);
  }
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DoubleIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, ExponentialHasRoughlyTheRequestedMean) {
  Rng rng(99);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; i++) {
    sum += rng.NextExponential(5.0);
  }
  double mean = sum / kSamples;
  EXPECT_NEAR(mean, 5.0, 0.2);
}

TEST(RngTest, NextInRangeIsInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; i++) {
    int64_t value = rng.NextInRange(2, 4);
    EXPECT_GE(value, 2);
    EXPECT_LE(value, 4);
    saw_lo |= (value == 2);
    saw_hi |= (value == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(FutureTest, ReadyValuePropagates) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  EXPECT_FALSE(future.ready());
  promise.Set(42);
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.Get(), 42);
}

TEST(FutureTest, CallbacksFireOnSetAndImmediatelyWhenLate) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  int calls = 0;
  future.OnReady([&] { calls++; });
  promise.Set(1);
  EXPECT_EQ(calls, 1);
  future.OnReady([&] { calls++; });  // already set: fires immediately
  EXPECT_EQ(calls, 2);
}

TEST(TaskTest, CoroutineAwaitsFutureAndResumes) {
  Simulation sim;
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  int observed = -1;

  auto coro = [&](Future<int> f) -> Task<void> {
    observed = co_await f;
  };
  Spawn(coro(future));
  EXPECT_EQ(observed, -1);  // suspended
  promise.Set(7);
  EXPECT_EQ(observed, 7);
}

TEST(TaskTest, SleepForAdvancesVirtualTime) {
  Simulation sim;
  SimTime woke_at = -1;
  auto coro = [&]() -> Task<void> {
    co_await SleepFor(sim, Milliseconds(25));
    woke_at = sim.now();
  };
  Spawn(coro());
  sim.Run();
  EXPECT_EQ(woke_at, Milliseconds(25));
}

TEST(TaskTest, NestedTasksChainResults) {
  Simulation sim;
  auto inner = [&]() -> Task<int> {
    co_await SleepFor(sim, Milliseconds(1));
    co_return 10;
  };
  auto outer = [&]() -> Task<int> {
    int a = co_await inner();
    int b = co_await inner();
    co_return a + b;
  };
  Future<int> result = Launch(outer());
  sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_EQ(result.Get(), 20);
  EXPECT_EQ(sim.now(), Milliseconds(2));
}

TEST(TaskTest, MultipleWaitersAllResume) {
  Simulation sim;
  Promise<Unit> promise;
  Future<Unit> future = promise.GetFuture();
  std::vector<std::string> resumed;
  auto waiter = [&](Future<Unit> f, int index) -> Task<void> {
    co_await f;
    resumed.push_back("waiter " + std::to_string(index));
  };
  Spawn(waiter(future, 0));
  // Registered after the first waiter, yet callbacks run before any waiter.
  future.OnReady([&] { resumed.push_back("callback"); });
  for (int i = 1; i < 5; i++) {
    Spawn(waiter(future, i));
  }
  EXPECT_TRUE(resumed.empty());
  promise.Set(Unit{});
  EXPECT_EQ(resumed, (std::vector<std::string>{"callback", "waiter 0",
                                               "waiter 1", "waiter 2",
                                               "waiter 3", "waiter 4"}));
}

TEST(TaskTest, LaunchExposesTaskResultAsFuture) {
  Simulation sim;
  auto work = [&]() -> Task<std::string> {
    co_await SleepFor(sim, Microseconds(10));
    co_return "done";
  };
  Future<std::string> future = Launch(work());
  EXPECT_FALSE(future.ready());
  sim.Run();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.Get(), "done");
}

TEST(BytesTest, WriterReaderRoundTripAllTypes) {
  BufferWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU16(0x1234);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteI64(-42);
  writer.WriteVarint(300);
  writer.WriteString("hello");
  writer.WriteBool(true);
  writer.WriteDouble(3.25);
  Bytes buffer = writer.Take();

  // Fixed-width fields are little-endian whatever the host byte order.
  const Bytes fixed_width = {0x34, 0x12,                    // u16
                             0xef, 0xbe, 0xad, 0xde,        // u32
                             0xef, 0xcd, 0xab, 0x89,        // u64
                             0x67, 0x45, 0x23, 0x01};
  ASSERT_GE(buffer.size(), 1 + fixed_width.size());
  EXPECT_EQ(Bytes(buffer.begin() + 1, buffer.begin() + 1 + fixed_width.size()),
            fixed_width);

  BufferReader reader(buffer);
  EXPECT_EQ(reader.ReadU8().value(), 0xab);
  EXPECT_EQ(reader.ReadU16().value(), 0x1234);
  EXPECT_EQ(reader.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_EQ(reader.ReadVarint().value(), 300u);
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_EQ(reader.ReadBool().value(), true);
  EXPECT_EQ(reader.ReadDouble().value(), 3.25);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, TruncatedReadsFailCleanly) {
  BufferWriter writer;
  writer.WriteU64(1);
  Bytes buffer = writer.Take();
  buffer.resize(3);
  BufferReader reader(buffer);
  EXPECT_FALSE(reader.ReadU64().ok());
}

TEST(BytesTest, VarintBoundaries) {
  for (uint64_t value : {0ull, 127ull, 128ull, 16383ull, 16384ull,
                         0xffffffffffffffffull}) {
    BufferWriter writer;
    writer.WriteVarint(value);
    BufferReader reader(writer.buffer());
    EXPECT_EQ(reader.ReadVarint().value(), value);
  }
}

TEST(BytesTest, MalformedVarintRejected) {
  Bytes evil(11, 0x80);  // continuation bits forever
  BufferReader reader(evil);
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(BytesTest, Crc32CheckValue) {
  EXPECT_EQ(Crc32(ToBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// Bit-serial reflected CRC-32 over one byte at a time: the definition the
// table-driven code must reproduce.
uint32_t ReferenceCrc32Update(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int bit = 0; bit < 8; bit++) {
    state = (state >> 1) ^ ((state & 1u) ? 0xEDB88320u : 0u);
  }
  return state;
}

TEST(BytesTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLength = 2048;
  Rng rng(2048);
  Bytes source(kMaxLength);
  for (uint8_t& byte : source) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  Bytes buffer(kMaxLength + 8);
  for (size_t align = 0; align < 8; align++) {
    uint8_t* data = buffer.data() + align;
    std::copy(source.begin(), source.end(), data);
    uint32_t reference = Crc32Begin();  // state over data[0, length)
    for (size_t length = 0; length <= kMaxLength; length++) {
      if (length > 0) {
        reference = ReferenceCrc32Update(reference, data[length - 1]);
      }
      uint32_t expected = Crc32End(reference);
      ASSERT_EQ(Crc32(data, length), expected)
          << "length " << length << ", alignment " << align;
      // Three updates split at uneven points, so chunk boundaries land at
      // every offset within an 8-byte step.
      size_t first = length % 13;
      size_t second = std::max(first, length - length % 11);
      uint32_t state = Crc32Update(Crc32Begin(), data, first);
      state = Crc32Update(state, data + first, second - first);
      state = Crc32Update(state, data + second, length - second);
      ASSERT_EQ(Crc32End(state), expected)
          << "length " << length << ", alignment " << align << ", split "
          << first << "/" << second;
    }
  }
}

TEST(StatusTest, MacrosPropagateErrors) {
  auto inner = []() -> StatusOr<int> { return NotFoundError("nope"); };
  auto outer = [&]() -> StatusOr<int> {
    EDEN_ASSIGN_OR_RETURN(int value, inner());
    return value + 1;
  };
  auto result = outer();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(OkStatus().ToString(), "OK");
  EXPECT_EQ(TimeoutError("too slow").ToString(), "TIMEOUT: too slow");
}

}  // namespace
}  // namespace eden
