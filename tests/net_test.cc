// Unit tests for the simulated Ethernet and the reliable transport.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/net/lan.h"
#include "src/net/transport.h"
#include "src/sim/simulation.h"

namespace eden {
namespace {

TEST(LanTest, UnicastFrameIsDeliveredWithWireDelay) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();

  bool delivered = false;
  b->SetReceiveHandler([&](const Frame& frame) {
    delivered = true;
    EXPECT_EQ(frame.src, a->id());
    EXPECT_EQ(ToString(frame.header), "ping");
  });
  a->Send(Frame{.dst = b->id(), .header = ToBytes("ping")});
  sim.Run();
  EXPECT_TRUE(delivered);
  // 64-byte minimum frame at 10 Mb/s = 51.2 us + 5 us propagation.
  EXPECT_GE(sim.now(), Microseconds(56));
  EXPECT_LT(sim.now(), Microseconds(80));
  EXPECT_EQ(lan.stats().frames_sent, 1u);
  EXPECT_EQ(lan.stats().frames_delivered, 1u);
}

TEST(LanTest, BroadcastReachesEveryoneButSender) {
  Simulation sim;
  Lan lan(sim);
  Station* sender = lan.AttachStation();
  int received = 0;
  for (int i = 0; i < 4; i++) {
    Station* s = lan.AttachStation();
    s->SetReceiveHandler([&received](const Frame&) { received++; });
  }
  sender->SetReceiveHandler([&received](const Frame&) { received += 100; });
  sender->Send(Frame{.dst = kBroadcastStation, .header = ToBytes("hello all")});
  sim.Run();
  EXPECT_EQ(received, 4);
}

TEST(LanTest, FramesFromOneStationStayOrdered) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  std::vector<std::string> seen;
  b->SetReceiveHandler(
      [&](const Frame& frame) { seen.push_back(ToString(frame.header)); });
  for (int i = 0; i < 10; i++) {
    a->Send(Frame{.dst = b->id(), .header = ToBytes("m" + std::to_string(i))});
  }
  sim.Run();
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(seen[i], "m" + std::to_string(i));
  }
}

TEST(LanTest, ContendingStationsAllEventuallyTransmit) {
  Simulation sim;
  Lan lan(sim);
  constexpr int kStations = 8;
  Station* sink = lan.AttachStation();
  int received = 0;
  sink->SetReceiveHandler([&](const Frame&) { received++; });
  std::vector<Station*> stations;
  for (int i = 0; i < kStations; i++) {
    stations.push_back(lan.AttachStation());
  }
  // Everyone transmits "simultaneously": collisions + backoff must resolve.
  for (Station* s : stations) {
    s->Send(Frame{.dst = sink->id(), .header = Bytes(512)});
  }
  sim.Run();
  EXPECT_EQ(received, kStations);
  EXPECT_EQ(lan.stats().transmit_failures, 0u);
}

TEST(LanTest, LossInjectionDropsFrames) {
  Simulation sim;
  LanConfig config;
  config.loss_probability = 1.0;
  Lan lan(sim, config);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  bool delivered = false;
  b->SetReceiveHandler([&](const Frame&) { delivered = true; });
  a->Send(Frame{.dst = b->id(), .header = ToBytes("doomed")});
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(lan.stats().frames_lost, 1u);
}

TEST(LanTest, PartitionBlocksCrossGroupTraffic) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  Station* c = lan.AttachStation();
  int b_got = 0, c_got = 0;
  b->SetReceiveHandler([&](const Frame&) { b_got++; });
  c->SetReceiveHandler([&](const Frame&) { c_got++; });

  lan.SetPartitionGroup(c->id(), 1);
  a->Send(Frame{.dst = kBroadcastStation, .header = ToBytes("hi")});
  sim.Run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);

  lan.ClearPartitions();
  a->Send(Frame{.dst = c->id(), .header = ToBytes("hi again")});
  sim.Run();
  EXPECT_EQ(c_got, 1);
}

TEST(LanTest, DetachedStationIsUnreachable) {
  Simulation sim;
  Lan lan(sim);
  Station* a = lan.AttachStation();
  Station* b = lan.AttachStation();
  int received = 0;
  b->SetReceiveHandler([&](const Frame&) { received++; });
  lan.DetachStation(b->id());
  a->Send(Frame{.dst = b->id(), .header = ToBytes("void")});
  sim.Run();
  EXPECT_EQ(received, 0);
  lan.ReattachStation(b->id());
  a->Send(Frame{.dst = b->id(), .header = ToBytes("back")});
  sim.Run();
  EXPECT_EQ(received, 1);
}

TEST(LanTest, FrameTimeScalesWithSize) {
  Simulation sim;
  Lan lan(sim);
  SimDuration small = lan.FrameTime(64);
  SimDuration big = lan.FrameTime(1500);
  EXPECT_GT(big, small);
  // 1500+38 bytes at 10 Mb/s = ~1230 us.
  EXPECT_NEAR(static_cast<double>(big), 1230.4e3, 1e3);
}

class TransportFixture : public ::testing::Test {
 protected:
  TransportFixture() : lan_(sim_) {}

  // Gives `transport` a registry of its own, as NodeKernel gives each node
  // one: a transport counts only into its transport.* counters.
  const MetricsRegistry& MetricsFor(Transport& transport) {
    MetricsRegistry& registry = registries_.emplace_back();
    transport.set_metrics(&registry);
    return registry;
  }

  Simulation sim_;
  Lan lan_;
  std::deque<MetricsRegistry> registries_;
};

TEST_F(TransportFixture, SmallMessageRoundTrip) {
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  std::string received;
  b.SetHandler([&](StationId src, BytesView message) {
    EXPECT_EQ(src, a.station_id());
    received = ToString(message);
  });
  a.SendReliable(b.station_id(), ToBytes("kernel message"));
  sim_.Run();
  EXPECT_EQ(received, "kernel message");
  EXPECT_EQ(b_metrics.CounterValue("transport.messages_delivered"), 1u);
}

TEST_F(TransportFixture, LargeMessageIsFragmentedAndReassembled) {
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  Bytes big(100 * 1024);
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  Bytes received;
  b.SetHandler([&](StationId, BytesView message) { received = message.ToBytes(); });
  a.SendReliable(b.station_id(), big);
  sim_.Run();
  EXPECT_EQ(received, big);
  // ~1.5 KB MTU.
  EXPECT_GT(a_metrics.CounterValue("transport.fragments_sent"), 60u);
}

TEST_F(TransportFixture, LossyWireIsSurvivedByRetransmission) {
  lan_.set_loss_probability(0.2);
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 20; i++) {
    a.SendReliable(b.station_id(), Bytes(3000));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 20);
  EXPECT_GT(a_metrics.CounterValue("transport.retransmits"), 0u);
}

TEST_F(TransportFixture, DuplicatesAreSuppressedExactlyOnceDelivery) {
  // Drop many frames so acks get lost and retransmissions duplicate.
  lan_.set_loss_probability(0.3);
  Transport a(sim_, lan_), b(sim_, lan_);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 30; i++) {
    a.SendReliable(b.station_id(), ToBytes("msg" + std::to_string(i)));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 30);  // never more than once each
}

TEST_F(TransportFixture, BestEffortBroadcastReachesAll) {
  Transport a(sim_, lan_), b(sim_, lan_), c(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  int received = 0;
  b.SetHandler([&](StationId, BytesView) { received++; });
  c.SetHandler([&](StationId, BytesView) { received++; });
  a.SendBestEffort(kBroadcastStation, ToBytes("who has object 42?"));
  sim_.Run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(a_metrics.CounterValue("transport.acks_sent"), 0u);
  EXPECT_EQ(b_metrics.CounterValue("transport.acks_sent"), 0u);
}

TEST_F(TransportFixture, GivesUpAfterMaxRetransmits) {
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  lan_.DetachStation(b.station_id());
  a.SendReliable(b.station_id(), ToBytes("into the void"));
  sim_.Run();
  EXPECT_EQ(a_metrics.CounterValue("transport.send_failures"), 1u);
  EXPECT_EQ(b_metrics.CounterValue("transport.messages_delivered"), 0u);
}

// --- ACK coalescing ----------------------------------------------------------

TEST_F(TransportFixture, PiggybackedAckSuppressesStandaloneAckAndRetransmit) {
  // ACK delay far beyond the retransmit timeout: if the ACK had to wait for
  // its own frame, the sender would retransmit. Reverse data traffic carries
  // it in time instead.
  TransportConfig config;
  config.ack_delay = Milliseconds(50);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  std::string reply;
  b.SetHandler([&](StationId src, BytesView) {
    b.SendReliable(src, ToBytes("reply"));
  });
  a.SetHandler([&](StationId, BytesView message) { reply = ToString(message); });
  a.SendReliable(b.station_id(), ToBytes("request"));
  sim_.RunFor(Milliseconds(10));  // before a's 20 ms retransmit deadline

  EXPECT_EQ(reply, "reply");
  // The ACK rode b's reply frame; no standalone ACK frame went out.
  EXPECT_EQ(b_metrics.CounterValue("transport.acks_piggybacked"), 1u);
  EXPECT_EQ(b_metrics.CounterValue("transport.acks_sent"), 0u);
  EXPECT_EQ(a_metrics.CounterValue("transport.retransmits"), 0u);

  // a has no reverse traffic for b's reply: its ACK goes standalone, delayed
  // (past b's retransmit timeout here, so b may retransmit — harmless).
  sim_.Run();
  EXPECT_GE(a_metrics.CounterValue("transport.acks_sent"), 1u);
  EXPECT_EQ(b_metrics.CounterValue("transport.send_failures"), 0u);
}

TEST_F(TransportFixture, DelayedAcksBatchIntoOneFrame) {
  TransportConfig config;
  config.ack_delay = Milliseconds(5);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 10; i++) {
    a.SendReliable(b.station_id(), ToBytes("m" + std::to_string(i)));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 10);
  // All ten land well inside one ack_delay window: one ACK frame, and with
  // no retransmit and no reverse data to ride, it carried all ten ids.
  EXPECT_EQ(b_metrics.CounterValue("transport.acks_sent"), 1u);
  EXPECT_EQ(a_metrics.CounterValue("transport.retransmits"), 0u);
}

TEST_F(TransportFixture, DelayedAckFiresOnTimer) {
  TransportConfig config;
  config.ack_delay = Milliseconds(2);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  b.SetHandler([](StationId, BytesView) {});
  a.SendReliable(b.station_id(), ToBytes("ping"));
  sim_.RunFor(Milliseconds(1));  // delivered (~60 us), ACK still waiting
  EXPECT_EQ(b_metrics.CounterValue("transport.messages_delivered"), 1u);
  EXPECT_EQ(b_metrics.CounterValue("transport.acks_sent"), 0u);
  sim_.RunFor(Milliseconds(3));  // past delivery + ack_delay
  EXPECT_EQ(b_metrics.CounterValue("transport.acks_sent"), 1u);
}

TEST_F(TransportFixture, DedupWindowStillHonoredWithBatchedAcks) {
  // ACK delay beyond the retransmit timeout forces duplicate data frames;
  // the receiver must deliver exactly once and re-ACK the duplicates.
  TransportConfig config;
  config.ack_delay = Milliseconds(50);
  config.retransmit_timeout = Milliseconds(10);
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  a.SendReliable(b.station_id(), ToBytes("exactly once"));
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(a_metrics.CounterValue("transport.retransmits"), 1u);
  EXPECT_GE(b_metrics.CounterValue("transport.duplicates_suppressed"), 1u);
  EXPECT_EQ(a_metrics.CounterValue("transport.send_failures"), 0u);
}

TEST_F(TransportFixture, ZeroAckDelayAcksImmediately) {
  TransportConfig config;
  config.ack_delay = 0;
  Transport a(sim_, lan_, config), b(sim_, lan_, config);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  b.SetHandler([](StationId, BytesView) {});
  a.SendReliable(b.station_id(), ToBytes("now"));
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(b_metrics.CounterValue("transport.acks_sent"), 1u);
  EXPECT_EQ(a_metrics.CounterValue("transport.retransmits"), 0u);
}

// Builds a frame in the transport's wire format: the kind byte, a CRC-32
// over the kind, the rest of the header and the body, then the rest of the
// header (`rest`).
Frame SealedFrame(StationId dst, uint8_t kind, const BufferWriter& rest,
                  SharedBytes body) {
  uint32_t crc = Crc32Begin();
  crc = Crc32Update(crc, &kind, 1);
  crc = Crc32Update(crc, rest.buffer().data(), rest.size());
  crc = Crc32Update(crc, body.data(), body.size());
  BufferWriter header;
  header.WriteU8(kind);
  header.WriteU32(Crc32End(crc));
  header.WriteRaw(rest.buffer().data(), rest.size());
  Frame frame;
  frame.dst = dst;
  frame.header = header.Take();
  frame.body = std::move(body);
  return frame;
}

// A single-fragment reliable data frame with body "m<msg_id>": msg id,
// reliable flag, fragment index and count, then the piggybacked-ACK block
// (count, then one u64 per id). Lets a test resend an exact message id.
Frame DataFrame(StationId dst, uint64_t msg_id,
                const std::vector<uint64_t>& acks = {}) {
  BufferWriter rest;
  rest.WriteU64(msg_id);
  rest.WriteBool(true);
  rest.WriteVarint(0);
  rest.WriteVarint(1);
  rest.WriteVarint(acks.size());
  for (uint64_t id : acks) {
    rest.WriteU64(id);
  }
  return SealedFrame(dst, 1, rest,
                     SharedBytes(ToBytes("m" + std::to_string(msg_id))));
}

// A standalone ACK frame: the ACK block alone, with no body.
Frame AckFrame(StationId dst, const std::vector<uint64_t>& acks) {
  BufferWriter rest;
  rest.WriteVarint(acks.size());
  for (uint64_t id : acks) {
    rest.WriteU64(id);
  }
  return SealedFrame(dst, 2, rest, SharedBytes());
}

// The sender side of the wire format: a data frame the transport sealed
// with a piggybacked-ACK block, and a standalone ACK frame, are byte for
// byte the frames the helpers above build by hand.
TEST_F(TransportFixture, SealedFramesMatchTheWireFormat) {
  Transport a(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  Station* peer = lan_.AttachStation();
  std::vector<Frame> heard;
  peer->SetReceiveHandler([&](const Frame& frame) { heard.push_back(frame); });

  // Message ids count up from a random start: learn it from a first send,
  // then retire that message with an ACK.
  uint64_t first = a.SendReliable(peer->id(), ToBytes("first"));
  sim_.RunFor(Microseconds(200));
  peer->Send(AckFrame(a.station_id(), {first}));
  sim_.RunFor(Microseconds(200));

  // Two deliveries queue two ACKs at `a`; the next data frame to the peer
  // leaves inside ack_delay and carries both.
  peer->Send(DataFrame(a.station_id(), 101));
  peer->Send(DataFrame(a.station_id(), 102));
  sim_.RunFor(Microseconds(300));
  uint64_t id =
      a.SendReliable(peer->id(), ToBytes("m" + std::to_string(first + 1)));
  ASSERT_EQ(id, first + 1);
  sim_.RunFor(Microseconds(200));
  ASSERT_EQ(heard.size(), 2u);
  EXPECT_EQ(heard[1].header,
            DataFrame(peer->id(), id, {101, 102}).header);
  EXPECT_EQ(a_metrics.CounterValue("transport.acks_piggybacked"), 2u);

  // A delivery with no data frame to ride goes out alone after ack_delay.
  peer->Send(AckFrame(a.station_id(), {id}));
  peer->Send(DataFrame(a.station_id(), 103));
  sim_.RunFor(Milliseconds(2));
  ASSERT_EQ(heard.size(), 3u);
  EXPECT_EQ(heard[2].header, AckFrame(peer->id(), {103}).header);
  EXPECT_TRUE(heard[2].body.empty());
  EXPECT_EQ(a_metrics.CounterValue("transport.acks_sent"), 1u);
  EXPECT_EQ(a_metrics.CounterValue("transport.retransmits"), 0u);
}

TEST_F(TransportFixture, DedupWindowHoldsEachPeersLastWDeliveries) {
  TransportConfig config;
  config.dedup_window = 4;
  Transport b(sim_, lan_, config);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  Station* peer = lan_.AttachStation();
  Station* other = lan_.AttachStation();
  std::vector<std::pair<StationId, std::string>> delivered;
  b.SetHandler([&](StationId src, BytesView message) {
    delivered.emplace_back(src, ToString(message));
  });
  // Sends one frame and runs to quiescence; true when b delivered it.
  auto resend = [&](Station* from, uint64_t msg_id) {
    size_t before = delivered.size();
    from->Send(DataFrame(b.station_id(), msg_id));
    sim_.Run();
    return delivered.size() > before;
  };

  for (uint64_t id = 1; id <= 4; id++) {
    EXPECT_TRUE(resend(peer, id));
  }
  // Window {1,2,3,4}: every id in it is suppressed (and re-ACKed).
  for (uint64_t id = 1; id <= 4; id++) {
    EXPECT_FALSE(resend(peer, id)) << id;
  }
  EXPECT_EQ(b_metrics.CounterValue("transport.duplicates_suppressed"), 4u);
  // 5 pushes 1 out of the window, so 1 is delivered again; that pushes out
  // 2, which is delivered again in turn and pushes out 3.
  EXPECT_TRUE(resend(peer, 5));
  EXPECT_TRUE(resend(peer, 1));
  EXPECT_TRUE(resend(peer, 2));
  for (uint64_t id : {4, 5, 1, 2}) {  // window {4,5,1,2}
    EXPECT_FALSE(resend(peer, id)) << id;
  }
  EXPECT_TRUE(resend(peer, 3));  // window {5,1,2,3}

  // Peers are independent: `other` may use the same ids, and its deliveries
  // never push `peer`'s ids out of `peer`'s window.
  for (uint64_t id : {5, 1, 2, 3, 6, 7}) {
    EXPECT_TRUE(resend(other, id)) << id;
  }
  for (uint64_t id : {5, 1, 2, 3}) {
    EXPECT_FALSE(resend(peer, id)) << id;
  }
  EXPECT_FALSE(resend(other, 7));

  // A reset node has no memory: every id is new again.
  b.Reset();
  EXPECT_TRUE(resend(peer, 3));
  EXPECT_TRUE(resend(other, 7));
  EXPECT_FALSE(resend(peer, 3));
  EXPECT_EQ(delivered.front(), std::make_pair(peer->id(), std::string("m1")));
  EXPECT_EQ(b_metrics.CounterValue("transport.messages_delivered"),
            delivered.size());
}

TEST_F(TransportFixture, ResetDropsPendingState) {
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  lan_.DetachStation(b.station_id());
  a.SendReliable(b.station_id(), ToBytes("doomed"));
  sim_.RunFor(Milliseconds(5));
  a.Reset();
  sim_.Run();
  // After reset nothing is retransmitted and no failure is recorded for it.
  EXPECT_EQ(a_metrics.CounterValue("transport.send_failures"), 0u);
}

// --- Frame checksums vs. wire corruption (chaos hook) ------------------------

// Scripted fault hook: corrupts the next `n` deliveries, passes the rest.
// Like the chaos injector, it counts the faults it injects.
class CorruptNextN : public WireFaultHook {
 public:
  explicit CorruptNextN(int n) : remaining_(n) {}
  Decision OnDeliver(StationId, StationId, size_t) override {
    Decision decision;
    if (remaining_ > 0) {
      remaining_--;
      corrupted_++;
      decision.corrupt = true;
    }
    return decision;
  }
  uint64_t corrupted() const { return corrupted_; }

 private:
  int remaining_;
  uint64_t corrupted_ = 0;
};

TEST_F(TransportFixture, CorruptedFrameIsDroppedAndRetransmitted) {
  CorruptNextN hook(1);  // the first delivery (the data frame) gets a bit flip
  lan_.set_fault_hook(&hook);
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  std::string received;
  b.SetHandler([&](StationId, BytesView message) { received = ToString(message); });
  a.SendReliable(b.station_id(), ToBytes("checksummed"));
  sim_.Run();
  // The CRC caught the flip, the receiver dropped the frame without acking,
  // and the retransmit delivered the payload intact — exactly once.
  EXPECT_EQ(received, "checksummed");
  EXPECT_EQ(hook.corrupted(), 1u);
  EXPECT_GE(b_metrics.CounterValue("transport.frames_corrupt_dropped"), 1u);
  EXPECT_GT(a_metrics.CounterValue("transport.retransmits"), 0u);
  EXPECT_EQ(b_metrics.CounterValue("transport.messages_delivered"), 1u);
}

// Corrupt every third delivery — data frames, fragments and acks alike. The
// checksums must turn corruption into loss, and the retransmit machinery must
// turn loss into exactly-once delivery.
class CorruptEveryThird : public WireFaultHook {
 public:
  Decision OnDeliver(StationId, StationId, size_t) override {
    Decision decision;
    decision.corrupt = (++count_ % 3) == 0;
    corrupted_ += decision.corrupt ? 1 : 0;
    return decision;
  }
  uint64_t corrupted() const { return corrupted_; }

 private:
  int count_ = 0;
  uint64_t corrupted_ = 0;
};

TEST_F(TransportFixture, CorruptionStormStillDeliversExactlyOnce) {
  CorruptEveryThird hook;
  lan_.set_fault_hook(&hook);
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  int delivered = 0;
  b.SetHandler([&](StationId, BytesView) { delivered++; });
  for (int i = 0; i < 30; i++) {
    a.SendReliable(b.station_id(), ToBytes("msg" + std::to_string(i)));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 30);  // nothing lost, nothing doubled
  EXPECT_GT(hook.corrupted(), 0u);
  // Every corrupted frame was caught by a checksum — including flips that
  // landed on the kind tag itself — and dropped by exactly one receiver.
  EXPECT_EQ(a_metrics.CounterValue("transport.frames_corrupt_dropped") +
                b_metrics.CounterValue("transport.frames_corrupt_dropped"),
            hook.corrupted());
}

TEST_F(TransportFixture, CorruptedFragmentOnlyCostsThatFragment) {
  CorruptNextN hook(1);
  lan_.set_fault_hook(&hook);
  Transport a(sim_, lan_), b(sim_, lan_);
  const MetricsRegistry& a_metrics = MetricsFor(a);
  const MetricsRegistry& b_metrics = MetricsFor(b);
  Bytes big(20 * 1024);
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<uint8_t>(i * 13);
  }
  Bytes received;
  b.SetHandler([&](StationId, BytesView message) { received = message.ToBytes(); });
  a.SendReliable(b.station_id(), big);
  sim_.Run();
  // Reassembly still succeeds byte-for-byte; only the corrupted fragment was
  // retransmitted, not the whole message.
  EXPECT_EQ(received, big);
  EXPECT_EQ(b_metrics.CounterValue("transport.frames_corrupt_dropped"), 1u);
  EXPECT_EQ(a_metrics.CounterValue("transport.retransmits"), 1u);
}

}  // namespace
}  // namespace eden
