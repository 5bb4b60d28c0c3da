#include "src/net/lan.h"

#include <algorithm>
#include <cassert>

#include "src/common/log.h"

namespace eden {

void Station::Send(Frame frame) {
  assert(frame.wire_size() <= lan_->config().max_payload_bytes &&
         "payload exceeds LAN MTU; use the transport layer to fragment");
  frame.src = id_;
  if (lan_->config().switched) {
    lan_->SwitchedSend(this, std::move(frame));
    return;
  }
  frame.enqueued_at = lan_->sim().now();
  queue_.push_back(std::move(frame));
  if (!transmitting_or_waiting_) {
    transmitting_or_waiting_ = true;
    attempt_ = 0;
    lan_->Attempt(this);
  }
}

void Station::Deliver(const Frame& frame) {
  if (handler_) {
    handler_(frame);
  }
}

Lan::Lan(Simulation& sim, LanConfig config)
    : sim_(sim), config_(config), rng_(sim.rng().Fork()) {}

void Lan::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = LanMetrics{};
    return;
  }
  metrics_.frames_sent = &registry->counter("lan.frames_sent");
  metrics_.frames_delivered = &registry->counter("lan.frames_delivered");
  metrics_.frames_lost = &registry->counter("lan.frames_lost");
  metrics_.collisions = &registry->counter("lan.collisions");
  metrics_.transmit_failures = &registry->counter("lan.transmit_failures");
  metrics_.bytes_on_wire = &registry->counter("lan.bytes_on_wire");
  metrics_.queue_delay = &registry->histogram("lan.queue_delay");
}

Lan::~Lan() = default;

Station* Lan::AttachStation(Simulation* owner) {
  auto id = static_cast<StationId>(stations_.size());
  stations_.push_back(std::unique_ptr<Station>(
      new Station(this, id, owner != nullptr ? owner : &sim_)));
  partition_group_.push_back(0);
  detached_.push_back(false);
  if (config_.switched) {
    stations_.back()->loss_rng_ =
        Rng(switched_seed_ ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
  }
  return stations_.back().get();
}

Station* Lan::station(StationId id) {
  assert(id < stations_.size());
  return stations_[id].get();
}

void Lan::SetPartitionGroup(StationId station, int group) {
  assert(station < partition_group_.size());
  partition_group_[station] = group;
}

void Lan::ClearPartitions() {
  std::fill(partition_group_.begin(), partition_group_.end(), 0);
}

void Lan::DetachStation(StationId station) {
  assert(station < detached_.size());
  detached_[station] = true;
}

void Lan::ReattachStation(StationId station) {
  assert(station < detached_.size());
  detached_[station] = false;
}

void Lan::EnableSwitched() {
  assert(stats().frames_sent == 0 && "switch modes before any traffic");
  if (config_.switched) {
    return;
  }
  config_.switched = true;
  // One draw from the (otherwise now-unused) CSMA rng seeds every station's
  // loss stream. Each receiver's draws then follow its own canonical
  // delivery order, so loss decisions are identical across shard layouts.
  switched_seed_ = rng_.NextU64();
  for (auto& st : stations_) {
    st->loss_rng_ = Rng(switched_seed_ ^ (0x9e3779b97f4a7c15ULL * (st->id_ + 1)));
  }
}

void Lan::SetStationShard(StationId station, uint32_t shard) {
  assert(station < stations_.size());
  stations_[station]->shard_ = shard;
}

void Lan::SwitchedSend(Station* station, Frame frame) {
  Simulation& owner = *station->sim_;
  frame.enqueued_at = owner.now();
  if (detached_[station->id_]) {
    station->stats_.transmit_failures++;
    return;
  }
  SimDuration frame_time = FrameTime(frame.wire_size());
  size_t wire_bytes = std::max(frame.wire_size() + config_.frame_overhead_bytes,
                               config_.min_frame_bytes);
  // Full duplex: the only contention is the sender's own egress port.
  SimTime start = std::max(owner.now(), station->egress_free_at_);
  station->egress_free_at_ = start + frame_time + config_.interframe_gap;
  station->stats_.frames_sent++;
  station->stats_.bytes_on_wire += wire_bytes;
  station->stats_.busy_time += frame_time;
  // wire_bytes >= min_frame_bytes, so deliver_at >= now + lookahead() always
  // — the invariant the conservative synchronizer relies on.
  SimTime deliver_at = start + frame_time + config_.propagation_delay;
  auto shared = std::make_shared<Frame>(std::move(frame));
  if (shared->dst == kBroadcastStation) {
    for (StationId id = 0; id < stations_.size(); id++) {
      if (id != station->id_) {
        RouteSwitched(station, id, deliver_at, shared);
      }
    }
  } else if (shared->dst < stations_.size()) {
    RouteSwitched(station, shared->dst, deliver_at, shared);
  } else {
    CountUnreachable(station->id_, shared->dst);
  }
}

void Lan::RouteSwitched(Station* src, StationId dst, SimTime deliver_at,
                        const std::shared_ptr<Frame>& frame) {
  assert(dst < stations_.size());
  if (dst >= src->pair_seq_.size()) {
    src->pair_seq_.resize(stations_.size(), 0);
  }
  // Canonical delivery key: (receiver, sender, per-pair frame count). All
  // three are properties of the simulated system, not of the shard layout,
  // so same-instant deliveries merge identically however the nodes are
  // partitioned. +1 keeps keyed events disjoint from the unkeyed domain 0.
  uint64_t seq = ++src->pair_seq_[dst];
  Station* dst_station = stations_[dst].get();
  if (src->shard_ == dst_station->shard_) {
    dst_station->sim_->ScheduleAtKeyed(
        deliver_at, dst + 1, src->id_ + 1, seq,
        [this, dst, frame] { SwitchedDeliver(dst, *frame); });
  } else {
    assert(cross_shard_sink_ && "cross-shard traffic with no engine sink");
    CrossShardMsg msg;
    msg.deliver_at = deliver_at;
    msg.dst_entity = dst;
    msg.src_entity = src->id_;
    msg.seq = seq;
    msg.payload = frame;
    cross_shard_sink_(src->shard_, dst_station->shard_, std::move(msg));
  }
}

void Lan::DeliverRouted(const CrossShardMsg& msg) {
  StationId dst = msg.dst_entity;
  auto frame = std::static_pointer_cast<Frame>(msg.payload);
  stations_[dst]->sim_->ScheduleAtKeyed(
      msg.deliver_at, dst + 1, msg.src_entity + 1, msg.seq,
      [this, dst, frame] { SwitchedDeliver(dst, *frame); });
}

void Lan::SwitchedDeliver(StationId dst, const Frame& frame) {
  if (!Reachable(frame.src, dst)) {
    CountUnreachable(frame.src, dst);
    return;
  }
  Station* station = stations_[dst].get();
  if (config_.loss_probability > 0.0 &&
      station->loss_rng_.NextBool(config_.loss_probability)) {
    station->stats_.frames_lost++;
    return;
  }
  station->stats_.frames_delivered++;
  station->Deliver(frame);
}

LanStats Lan::stats() const {
  LanStats total;
  for (const auto& st : stations_) {
    const LanStats& s = st->stats_;
    total.frames_sent += s.frames_sent;
    total.frames_delivered += s.frames_delivered;
    total.frames_lost += s.frames_lost;
    total.frames_dropped_partition += s.frames_dropped_partition;
    total.collisions += s.collisions;
    total.transmit_failures += s.transmit_failures;
    total.bytes_on_wire += s.bytes_on_wire;
    total.busy_time += s.busy_time;
  }
  return total;
}

void Lan::SyncMetrics() const {
  LanStats s = stats();
  Bump(metrics_.frames_sent, s.frames_sent - synced_.frames_sent);
  Bump(metrics_.frames_delivered,
       s.frames_delivered - synced_.frames_delivered);
  Bump(metrics_.frames_lost, s.frames_lost - synced_.frames_lost);
  Bump(metrics_.collisions, s.collisions - synced_.collisions);
  Bump(metrics_.transmit_failures,
       s.transmit_failures - synced_.transmit_failures);
  Bump(metrics_.bytes_on_wire, s.bytes_on_wire - synced_.bytes_on_wire);
  synced_ = s;
}

SimDuration Lan::FrameTime(size_t payload_bytes) const {
  size_t wire_bytes =
      std::max(payload_bytes + config_.frame_overhead_bytes, config_.min_frame_bytes);
  double seconds =
      static_cast<double>(wire_bytes) * 8.0 / config_.bandwidth_bits_per_sec;
  return static_cast<SimDuration>(seconds * 1e9);
}

void Lan::CountUnreachable(StationId src, StationId dst) {
  // A station that does not exist has no share to count into.
  StationId at = dst < stations_.size() ? dst : src;
  stations_[at]->stats_.frames_dropped_partition++;
}

bool Lan::Reachable(StationId from, StationId to) const {
  if (from >= stations_.size() || to >= stations_.size()) {
    return false;
  }
  if (detached_[from] || detached_[to]) {
    return false;
  }
  return partition_group_[from] == partition_group_[to];
}

void Lan::Attempt(Station* station) {
  assert(!station->queue_.empty());
  SimTime now = sim_.now();

  if (detached_[station->id_]) {
    // A failed node's pending output evaporates.
    station->stats_.transmit_failures++;
    station->queue_.pop_front();
    station->attempt_ = 0;
    if (station->queue_.empty()) {
      station->transmitting_or_waiting_ = false;
    } else {
      sim_.Schedule(0, [this, station] { Attempt(station); });
    }
    return;
  }

  if (current_.has_value()) {
    if (now < current_->started + config_.propagation_delay) {
      // The other transmission has not propagated to us yet: we sense an idle
      // carrier, transmit, and collide.
      HandleCollision(stations_[current_->src].get(), station);
      return;
    }
    // Carrier sensed busy: defer until the wire goes idle (1-persistent).
    SimTime retry_at = std::max(busy_until_, now);
    sim_.ScheduleAt(retry_at, [this, station] {
      if (!station->queue_.empty()) {
        Attempt(station);
      }
    });
    return;
  }

  if (now < busy_until_) {
    // Jam period after a collision.
    sim_.ScheduleAt(busy_until_, [this, station] {
      if (!station->queue_.empty()) {
        Attempt(station);
      }
    });
    return;
  }

  BeginTransmission(station);
}

void Lan::BeginTransmission(Station* station) {
  const Frame& frame = station->queue_.front();
  SimDuration duration = FrameTime(frame.wire_size());
  busy_until_ = sim_.now() + duration;
  EventId completion = sim_.Schedule(duration, [this, station] {
    Frame frame = std::move(station->queue_.front());
    FinishTransmission(station, std::move(frame));
  });
  current_ = Transmission{station->id_, sim_.now(), completion};
}

void Lan::HandleCollision(Station* first, Station* second) {
  second->stats_.collisions++;  // once, by the station that collided
  sim_.Cancel(current_->completion_event);
  current_.reset();
  // Jam signal occupies the wire for one slot.
  busy_until_ = sim_.now() + config_.slot_time;
  ScheduleRetry(first, /*after_collision=*/true);
  ScheduleRetry(second, /*after_collision=*/true);
}

void Lan::ScheduleRetry(Station* station, bool after_collision) {
  station->attempt_++;
  if (station->attempt_ >= config_.max_transmit_attempts) {
    // Expected at saturation, and lan.transmit_failures counts it.
    EDEN_LOG(kDebug, "lan") << "station " << station->id_
                            << " dropped frame after excessive collisions";
    station->stats_.transmit_failures++;
    station->queue_.pop_front();
    station->attempt_ = 0;
    if (station->queue_.empty()) {
      station->transmitting_or_waiting_ = false;
      return;
    }
  }
  // Binary exponential backoff, capped at 2^10 slots.
  int exponent = std::min(station->attempt_, 10);
  uint64_t slots = rng_.NextBelow(1ull << exponent);
  SimTime retry_at =
      std::max(busy_until_, sim_.now()) + static_cast<SimDuration>(slots) *
                                              config_.slot_time;
  sim_.ScheduleAt(retry_at, [this, station] {
    if (!station->queue_.empty()) {
      Attempt(station);
    }
  });
}

void Lan::FinishTransmission(Station* station, Frame frame) {
  SimDuration duration = FrameTime(frame.wire_size());
  size_t wire_bytes = std::max(frame.wire_size() + config_.frame_overhead_bytes,
                               config_.min_frame_bytes);
  current_.reset();
  station->stats_.frames_sent++;
  station->stats_.bytes_on_wire += wire_bytes;
  station->stats_.busy_time += duration;
  if (metrics_.queue_delay != nullptr) {
    // Time from Send() to the start of the successful transmission: queueing
    // behind the sender's own backlog plus deferral/backoff on a busy medium.
    metrics_.queue_delay->Record(sim_.now() - duration - frame.enqueued_at);
  }
  station->queue_.pop_front();
  station->attempt_ = 0;

  // Deliver after the propagation delay, independently per receiver.
  auto deliver_to = [this](StationId src, StationId dst, const Frame& f) {
    if (!Reachable(src, dst)) {
      CountUnreachable(src, dst);
      return;
    }
    Station* station = stations_[dst].get();
    if (config_.loss_probability > 0.0 && rng_.NextBool(config_.loss_probability)) {
      station->stats_.frames_lost++;
      return;
    }
    if (fault_hook_ != nullptr) {
      WireFaultHook::Decision decision =
          fault_hook_->OnDeliver(src, dst, f.wire_size());
      if (decision.drop) {
        return;
      }
      if (decision.corrupt || decision.duplicate || decision.extra_delay > 0) {
        DeliverWithFaults(dst, f, decision);
        return;
      }
    }
    station->stats_.frames_delivered++;
    station->Deliver(f);
  };

  // The frame rides inside the event (EventFn holds it inline).
  sim_.Schedule(config_.propagation_delay,
                [this, frame = std::move(frame), deliver_to] {
                  if (frame.dst == kBroadcastStation) {
                    for (StationId id = 0; id < stations_.size(); id++) {
                      if (id != frame.src) {
                        deliver_to(frame.src, id, frame);
                      }
                    }
                  } else {
                    deliver_to(frame.src, frame.dst, frame);
                  }
                });

  if (!station->queue_.empty()) {
    sim_.Schedule(config_.interframe_gap, [this, station] {
      if (!station->queue_.empty()) {
        Attempt(station);
      }
    });
  } else {
    station->transmitting_or_waiting_ = false;
  }
}

void Lan::DeliverWithFaults(StationId dst, const Frame& frame,
                            const WireFaultHook::Decision& decision) {
  Frame copy;
  copy.src = frame.src;
  copy.dst = frame.dst;
  copy.header = frame.header;
  copy.body = frame.body;
  copy.enqueued_at = frame.enqueued_at;

  if (decision.corrupt && copy.wire_size() > 0) {
    // One random bit flips somewhere in the frame. The body is a zero-copy
    // slice of the sender's retransmit buffer, so a body hit must flatten
    // the whole frame into a private header first — never mutate the shared
    // buffer the sender will retransmit from.
    size_t bit = rng_.NextBelow(copy.wire_size() * 8);
    size_t byte = bit / 8;
    if (byte >= copy.header.size()) {
      Bytes flat = copy.header;
      flat.insert(flat.end(), copy.body.data(),
                  copy.body.data() + copy.body.size());
      copy.header = std::move(flat);
      copy.body = SharedBytes();
    }
    copy.header[byte] ^= static_cast<uint8_t>(1u << (bit % 8));
  }

  auto deliver_copy = [this, dst](const Frame& f) {
    if (!Reachable(f.src, dst)) {
      CountUnreachable(f.src, dst);
      return;
    }
    Station* station = stations_[dst].get();
    station->stats_.frames_delivered++;
    station->Deliver(f);
  };

  if (decision.extra_delay > 0) {
    sim_.Schedule(decision.extra_delay,
                  [copy, deliver_copy] { deliver_copy(copy); });
  } else {
    deliver_copy(copy);
  }

  if (decision.duplicate) {
    sim_.Schedule(decision.extra_delay + config_.slot_time,
                  [copy = std::move(copy), deliver_copy] { deliver_copy(copy); });
  }
}

}  // namespace eden
