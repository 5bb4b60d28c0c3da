// Simulated Ethernet local area network (paper section 3: "the Ethernet
// jointly specified by Digital, Intel and Xerox was the logical choice").
//
// The model is a single shared medium with:
//   * transmission time = frame bytes / bandwidth,
//   * end-to-end propagation delay,
//   * 1-persistent CSMA/CD: stations sense the carrier, defer while busy, and
//     two stations that begin transmitting within one propagation window
//     collide; colliders jam and retry with binary exponential backoff
//     (slot time 51.2 us, as in the 10 Mb/s specification),
//   * seeded probabilistic frame loss and explicit partitions for failure
//     injection.
//
// This is the substrate substitution documented in DESIGN.md section 2.2: it
// exercises the same kernel code paths as real hardware (retransmission,
// duplicate suppression, broadcast location) with era-appropriate timing.
#ifndef EDEN_SRC_NET_LAN_H_
#define EDEN_SRC_NET_LAN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/metrics/metrics.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace eden {

// Identifies a network interface on the LAN.
using StationId = uint32_t;
constexpr StationId kBroadcastStation = 0xffffffffu;

struct LanConfig {
  // 10 Mb/s Ethernet (the 1980 DIX specification).
  double bandwidth_bits_per_sec = 10e6;
  SimDuration propagation_delay = Microseconds(5);
  SimDuration slot_time = Nanoseconds(51200);
  // 9.6 us interframe gap: a station that just transmitted yields the wire
  // before contending again.
  SimDuration interframe_gap = Nanoseconds(9600);
  // Preamble + addresses + type + CRC + interframe gap, amortized per frame.
  size_t frame_overhead_bytes = 38;
  size_t min_frame_bytes = 64;
  size_t max_payload_bytes = 1500;
  // Independent per-frame loss (bit-error stand-in). 0 = perfect wire.
  double loss_probability = 0.0;
  int max_transmit_attempts = 16;
  // Switched full-duplex mode (set via Lan::EnableSwitched, required for
  // sharding): no shared medium, no CSMA/CD. Each station serializes its own
  // egress (frame time + interframe gap per frame) and a frame's delivery
  // time is computable from the send alone — which is what gives the sharded
  // engine its lookahead. Collisions never happen; loss/partition/detach
  // still apply. The chaos fault hook is CSMA-mode only.
  bool switched = false;
};

// A frame is carried in two parts, scatter-gather style (real NICs do the
// same with DMA descriptors): a small frame-local `header` owned by the
// frame, and an optional refcounted `body` that is a zero-copy slice of the
// sender's message buffer. The wire cost is header.size() + body.size();
// receivers parse the header and hand the body on without copying it.
struct Frame {
  StationId src = 0;
  StationId dst = 0;  // kBroadcastStation for broadcast
  Bytes header;
  SharedBytes body = {};  // optional: empty unless the sender attaches one
  // Stamped by Station::Send; drives the lan.queue_delay histogram (time the
  // frame waited behind the sender's queue and the busy medium).
  SimTime enqueued_at = 0;

  size_t wire_size() const { return header.size() + body.size(); }
};

// The LAN's record of what happened on the wire. Each station keeps its own
// share (see Station::stats_) and Lan::stats() sums them; SyncMetrics()
// publishes the counters to lan.*. Injected wire faults (corruption,
// duplication, delay, fault drops) are counted by the injector as fault.*.
struct LanStats {
  uint64_t frames_sent = 0;       // successfully placed on the wire
  uint64_t frames_delivered = 0;  // per-receiver deliveries
  uint64_t frames_lost = 0;       // dropped by loss injection
  uint64_t frames_dropped_partition = 0;  // unreachable receiver
  uint64_t collisions = 0;
  uint64_t transmit_failures = 0;  // gave up after max attempts
  uint64_t bytes_on_wire = 0;      // includes per-frame overhead
  SimDuration busy_time = 0;       // total time the medium carried bits
};

class Lan;

// Per-delivery fault decision, consulted by the Lan between the loss model
// and the receiver (i.e. the frame survived partitions and base loss).
// Implemented by the chaos harness (src/fault); the Lan itself applies the
// decision — flips a seeded bit, schedules the duplicate or the delay — so
// the hook stays a pure policy object and rng draw order stays with the Lan.
class WireFaultHook {
 public:
  virtual ~WireFaultHook() = default;

  struct Decision {
    bool drop = false;       // swallow the frame (not counted as base loss)
    bool corrupt = false;    // flip one random bit before delivery
    bool duplicate = false;  // deliver a second copy one slot later
    SimDuration extra_delay = 0;  // defer delivery (reorders against others)
  };
  virtual Decision OnDeliver(StationId src, StationId dst,
                             size_t wire_bytes) = 0;
};

// One network interface attached to the LAN. Owned by the Lan.
class Station {
 public:
  using ReceiveHandler = std::function<void(const Frame&)>;

  StationId id() const { return id_; }
  void SetReceiveHandler(ReceiveHandler handler) { handler_ = std::move(handler); }

  // Queues a frame for transmission; frames from one station go out in FIFO
  // order. The payload must be at most max_payload_bytes. A frame for a
  // station that does not exist still goes out on the wire and is then
  // dropped as unreachable (frames_dropped_partition), like a partitioned one.
  void Send(Frame frame);

  size_t queue_depth() const { return queue_.size(); }

 private:
  friend class Lan;
  Station(Lan* lan, StationId id, Simulation* sim)
      : lan_(lan), id_(id), sim_(sim) {}

  void Deliver(const Frame& frame);
  void TransmitComplete();

  Lan* lan_;
  StationId id_;
  // Owner shard's simulation: the clock for this station's sends and the
  // queue its inbound deliveries are scheduled into. The Lan's own sim when
  // unsharded.
  Simulation* sim_;
  uint32_t shard_ = 0;
  ReceiveHandler handler_;
  std::deque<Frame> queue_;
  bool transmitting_or_waiting_ = false;
  int attempt_ = 0;
  // Switched-mode state, all owner-thread-only.
  SimTime egress_free_at_ = 0;
  std::vector<uint64_t> pair_seq_;  // per-destination frame counters
  Rng loss_rng_{1};
  // This station's share of the LAN's counts: what it sent (and its
  // collisions and give-ups), and what was delivered to it or dropped on the
  // way. Thread-safety by ownership: a station's sends and the deliveries
  // *to* it both run on its owner shard's thread, so no locks are needed.
  LanStats stats_;
};

class Lan {
 public:
  Lan(Simulation& sim, LanConfig config = {});
  ~Lan();

  Lan(const Lan&) = delete;
  Lan& operator=(const Lan&) = delete;

  // Creates a new interface. The pointer remains valid for the Lan lifetime.
  // `owner` is the simulation that drives the station (its shard's clock and
  // event queue); nullptr means the Lan's own simulation.
  Station* AttachStation(Simulation* owner = nullptr);

  Station* station(StationId id);
  size_t station_count() const { return stations_.size(); }

  // Partition control: stations only hear stations in the same group.
  // Everyone starts in group 0.
  void SetPartitionGroup(StationId station, int group);
  void ClearPartitions();
  // A detached station hears nothing and reaches nobody (node failure).
  void DetachStation(StationId station);
  void ReattachStation(StationId station);

  void set_loss_probability(double p) { config_.loss_probability = p; }

  // Installs (or clears, with nullptr) the chaos harness's per-delivery fault
  // hook. The hook must outlive this Lan.
  void set_fault_hook(WireFaultHook* hook) { fault_hook_ = hook; }

  const LanConfig& config() const { return config_; }
  // Sums the per-station counts. Under the sharded engine, call only while
  // the shards are quiescent.
  LanStats stats() const;
  Simulation& sim() { return sim_; }

  // --- Switched full-duplex mode (sharding substrate) ---

  // Flips the LAN into switched mode (see LanConfig::switched). Must be
  // called before any traffic; seeds per-station loss streams from one draw
  // on the Lan rng so serial and sharded layouts see identical loss
  // sequences per receiver.
  void EnableSwitched();

  // Minimum send-to-delivery latency in switched mode: every frame arrives
  // at least FrameTime(0) + propagation_delay after its Send. This is the
  // sharded engine's lookahead.
  SimDuration lookahead() const {
    return config_.propagation_delay + FrameTime(0);
  }

  // Routes deliveries whose destination lives on another shard into the
  // engine's channels instead of scheduling directly.
  using CrossShardSink =
      std::function<void(uint32_t from_shard, uint32_t to_shard,
                         CrossShardMsg msg)>;
  void set_cross_shard_sink(CrossShardSink sink) {
    cross_shard_sink_ = std::move(sink);
  }
  void SetStationShard(StationId station, uint32_t shard);

  // The engine's deliver callback: runs on the destination shard's thread,
  // schedules the (keyed) delivery into that shard's simulation.
  void DeliverRouted(const CrossShardMsg& msg);

  // Publishes the LanStats counters accrued since the last call to the
  // lan.* counters (counters are not thread-safe, so stations never bump
  // them). EdenSystem::PublishLanCounts calls it; under the sharded engine,
  // call only while the shards are quiescent.
  void SyncMetrics() const;

  // Attaches the registry SyncMetrics publishes to, and records per-frame
  // queueing delay into lan.queue_delay as frames go out. The registry must
  // outlive this Lan; nullptr detaches.
  void set_metrics(MetricsRegistry* registry);

  // Time to clock one frame of `payload_bytes` onto the wire.
  SimDuration FrameTime(size_t payload_bytes) const;

 private:
  friend class Station;

  struct Transmission {
    StationId src;
    SimTime started;
    EventId completion_event;
  };

  struct LanMetrics {
    Counter* frames_sent = nullptr;
    Counter* frames_delivered = nullptr;
    Counter* frames_lost = nullptr;
    Counter* collisions = nullptr;
    Counter* transmit_failures = nullptr;
    Counter* bytes_on_wire = nullptr;
    Histogram* queue_delay = nullptr;
  };

  static void Bump(Counter* counter, uint64_t n = 1) {
    if (counter != nullptr) {
      counter->Increment(n);
    }
  }

  // Station wants the wire; called when a frame reaches its queue head.
  void Attempt(Station* station);
  void BeginTransmission(Station* station);
  void FinishTransmission(Station* station, Frame frame);
  void HandleCollision(Station* first, Station* second);
  void ScheduleRetry(Station* station, bool after_collision);
  bool Reachable(StationId from, StationId to) const;
  // Counts a frame that !Reachable(src, dst) dropped, into the receiving
  // station, or into the sender when `dst` names no station.
  void CountUnreachable(StationId src, StationId dst);
  // Switched-mode path: compute the delivery time from the sender's egress
  // serialization, then route each (src, dst) copy by shard.
  void SwitchedSend(Station* station, Frame frame);
  void RouteSwitched(Station* src, StationId dst, SimTime deliver_at,
                     const std::shared_ptr<Frame>& frame);
  // Runs on the destination's owner thread at the delivery instant.
  void SwitchedDeliver(StationId dst, const Frame& frame);
  // Applies the fault hook's decision (bit flip, duplicate, delay) and hands
  // the (possibly mutated copy of the) frame to the destination station.
  void DeliverWithFaults(StationId dst, const Frame& frame,
                         const WireFaultHook::Decision& decision);

  Simulation& sim_;
  LanConfig config_;
  LanMetrics metrics_;
  std::vector<std::unique_ptr<Station>> stations_;
  std::vector<int> partition_group_;   // index by StationId
  std::vector<bool> detached_;
  SimTime busy_until_ = 0;
  std::optional<Transmission> current_;
  WireFaultHook* fault_hook_ = nullptr;
  Rng rng_;
  uint64_t switched_seed_ = 0;  // base for per-station loss streams
  CrossShardSink cross_shard_sink_;
  mutable LanStats synced_;  // the totals SyncMetrics last published
};

}  // namespace eden

#endif  // EDEN_SRC_NET_LAN_H_
