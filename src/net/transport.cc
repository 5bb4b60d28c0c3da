#include "src/net/transport.h"

#include <algorithm>
#include <cassert>

#include "src/common/log.h"

namespace eden {

namespace {
// Every frame leads with kind (1) + CRC32 (4) over the rest of the header
// plus the body — the simulated equivalent of the Ethernet FCS the LAN
// model only charges as overhead bytes.
constexpr size_t kFrameChecksumBytes = 5;
// Per-fragment header budget inside one LAN frame: kind + CRC (5) + msg id
// (8) + reliable (1) + index/count varints (<=10) + empty ACK block (1),
// rounded up. Full-size fragments leave no slack, so ACKs only piggyback on
// frames with room to spare.
constexpr size_t kFragmentHeaderBytes = 28;
// Worst-case wire cost of one piggybacked ACK id (u64, plus varint growth).
constexpr size_t kAckIdBytes = 9;

// Opens a frame header of at most `capacity` bytes: the kind tag, then a
// CRC placeholder that SealFrame fills in once the fields are written.
BufferWriter StartFrame(uint8_t kind, size_t capacity) {
  BufferWriter header(capacity);
  header.WriteU8(kind);
  header.WriteU32(0);
  return header;
}

// Checksums the kind tag, the header bytes after the CRC and `body`, writes
// the CRC into its placeholder and returns the completed header. The kind
// byte must be covered: a flip there would otherwise route the frame to the
// wrong (or no) handler while the rest of the checksum still verifies.
Bytes SealFrame(BufferWriter& header, const SharedBytes& body) {
  const Bytes& bytes = header.buffer();
  uint32_t crc = Crc32Begin();
  crc = Crc32Update(crc, bytes.data(), 1);
  crc = Crc32Update(crc, bytes.data() + kFrameChecksumBytes,
                    bytes.size() - kFrameChecksumBytes);
  crc = Crc32Update(crc, body.data(), body.size());
  header.PatchU32(1, Crc32End(crc));
  return header.Take();
}
}  // namespace

Transport::Transport(Simulation& sim, Lan& lan, TransportConfig config,
                     Rng* id_rng)
    : sim_(sim),
      lan_(lan),
      station_(lan.AttachStation(&sim)),
      config_(config),
      id_rng_(id_rng != nullptr ? id_rng : &sim.rng()) {
  // Randomized so a restarted node never reuses a predecessor's ids (the
  // peer's duplicate-suppression history would silently eat new messages).
  next_msg_id_ = id_rng_->NextU64() | 1;
  station_->SetReceiveHandler([this](const Frame& frame) { OnFrame(frame); });
}

void Transport::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    counters_ = TransportCounters{};
    return;
  }
  counters_.messages_sent = &registry->counter("transport.messages_sent");
  counters_.messages_delivered = &registry->counter("transport.messages_delivered");
  counters_.duplicates_suppressed =
      &registry->counter("transport.duplicates_suppressed");
  counters_.retransmits = &registry->counter("transport.retransmits");
  counters_.send_failures = &registry->counter("transport.send_failures");
  counters_.acks_sent = &registry->counter("transport.acks_sent");
  counters_.acks_piggybacked = &registry->counter("transport.acks_piggybacked");
  counters_.fragments_sent = &registry->counter("transport.fragments_sent");
  counters_.frames_corrupt_dropped =
      &registry->counter("transport.frames_corrupt_dropped");
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

uint64_t Transport::SendReliable(StationId dst, Bytes message,
                                 const SpanContext& parent) {
  assert(dst != kBroadcastStation && "reliable broadcast is not supported");
  uint64_t msg_id = next_msg_id_++;
  PendingSend pending;
  pending.dst = dst;
  pending.msg_id = msg_id;
  pending.message = SharedBytes(std::move(message));
  pending.reliable = true;
  if (spans_ != nullptr && parent.valid()) {
    pending.span =
        spans_->StartSpan(parent, SpanKind::kWire, station_->id(), ObjectName{},
                          "to node" + std::to_string(dst), sim_.now());
  }
  Bump(counters_.messages_sent);
  auto [it, inserted] = pending_.emplace(msg_id, std::move(pending));
  assert(inserted);
  TransmitFragments(it->second);
  ScheduleRetry(it->second, sim_.now() + config_.retransmit_timeout);
  return msg_id;
}

void Transport::SendBestEffort(StationId dst, Bytes message) {
  PendingSend once;
  once.dst = dst;
  once.msg_id = next_msg_id_++;
  once.message = SharedBytes(std::move(message));
  once.reliable = false;
  Bump(counters_.messages_sent);
  TransmitFragments(once);
}

void Transport::TransmitFragments(PendingSend& pending) {
  size_t max_chunk = lan_.config().max_payload_bytes - kFragmentHeaderBytes;
  size_t size = pending.message.size();
  size_t count = size == 0 ? 1 : (size + max_chunk - 1) / max_chunk;
  auto acks = pending_acks_.find(pending.dst);
  std::vector<uint64_t>* ack_ids =
      acks == pending_acks_.end() ? nullptr : &acks->second;
  for (size_t i = 0; i < count; i++) {
    size_t offset = i * max_chunk;
    size_t len = std::min(max_chunk, size - offset);
    size_t ack_room = 0;
    if (ack_ids != nullptr) {
      ack_room = std::min(ack_ids->size(), config_.max_acks_per_frame);
    }
    BufferWriter header =
        StartFrame(kData, kFragmentHeaderBytes + ack_room * kAckIdBytes);
    header.WriteU64(pending.msg_id);
    header.WriteBool(pending.reliable);
    header.WriteVarint(i);
    header.WriteVarint(count);
    AppendPiggybackAcks(header, ack_ids, len);
    Frame frame;
    frame.dst = pending.dst;
    frame.body = pending.message.Slice(offset, len);
    frame.header = SealFrame(header, frame.body);
    station_->Send(std::move(frame));
    Bump(counters_.fragments_sent);
  }
}

// ---------------------------------------------------------------------------
// Retransmission: one timer, a deadline heap, lazy invalidation
// ---------------------------------------------------------------------------

void Transport::ScheduleRetry(PendingSend& pending, SimTime at) {
  pending.next_retry = at;
  retry_queue_.push({at, pending.msg_id});
  ArmRetryTimer();
}

void Transport::ArmRetryTimer() {
  // Shed stale heads (acknowledged messages, superseded deadlines) so the
  // timer is armed for a real deadline.
  while (!retry_queue_.empty()) {
    const auto& [at, msg_id] = retry_queue_.top();
    auto it = pending_.find(msg_id);
    if (it == pending_.end() || it->second.next_retry != at) {
      retry_queue_.pop();
      continue;
    }
    break;
  }
  if (retry_queue_.empty()) {
    if (retry_timer_ != kInvalidEventId) {
      sim_.Cancel(retry_timer_);
      retry_timer_ = kInvalidEventId;
    }
    return;
  }
  SimTime next = retry_queue_.top().first;
  if (retry_timer_ != kInvalidEventId) {
    if (retry_timer_at_ <= next) {
      return;  // already armed early enough; OnRetryTimer re-arms for later
    }
    sim_.Cancel(retry_timer_);
  }
  retry_timer_at_ = next;
  retry_timer_ = sim_.ScheduleAt(next, [this] { OnRetryTimer(); });
}

void Transport::OnRetryTimer() {
  retry_timer_ = kInvalidEventId;
  SimTime now = sim_.now();
  while (!retry_queue_.empty() && retry_queue_.top().first <= now) {
    auto [at, msg_id] = retry_queue_.top();
    retry_queue_.pop();
    auto it = pending_.find(msg_id);
    if (it == pending_.end() || it->second.next_retry != at) {
      continue;  // acknowledged or rescheduled since this entry was pushed
    }
    PendingSend& pending = it->second;
    if (pending.retransmits >= config_.max_retransmits) {
      EDEN_LOG(kDebug, "transport")
          << "station " << station_->id() << " gave up on message " << msg_id;
      Bump(counters_.send_failures);
      StationId dst = pending.dst;
      if (spans_ != nullptr && pending.span.valid()) {
        spans_->EndSpan(pending.span, now, "gave_up");
      }
      pending_.erase(it);
      if (on_send_outcome_) {
        on_send_outcome_(dst, /*delivered=*/false);
      }
      continue;
    }
    pending.retransmits++;
    Bump(counters_.retransmits);
    if (spans_ != nullptr && pending.span.valid()) {
      spans_->Annotate(pending.span, now,
                       "retransmit#" + std::to_string(pending.retransmits));
    }
    TransmitFragments(pending);
    // Exponential backoff.
    pending.next_retry = now + (config_.retransmit_timeout << pending.retransmits);
    retry_queue_.push({pending.next_retry, msg_id});
  }
  ArmRetryTimer();
}

// ---------------------------------------------------------------------------
// ACK coalescing: piggyback on data frames, else delay and batch
// ---------------------------------------------------------------------------

void Transport::AppendPiggybackAcks(BufferWriter& header,
                                    std::vector<uint64_t>* ids,
                                    size_t body_bytes) {
  size_t n = 0;
  if (ids != nullptr && !ids->empty()) {
    // +1: the count varint.
    size_t used = header.size() + body_bytes + 1;
    size_t max_payload = lan_.config().max_payload_bytes;
    size_t slack = max_payload > used ? max_payload - used : 0;
    n = std::min(
        {ids->size(), config_.max_acks_per_frame, slack / kAckIdBytes});
  }
  header.WriteVarint(n);
  if (n == 0) {
    return;
  }
  for (size_t j = 0; j < n; j++) {
    header.WriteU64((*ids)[j]);
  }
  ids->erase(ids->begin(), ids->begin() + static_cast<ptrdiff_t>(n));
  pending_ack_total_ -= n;
  Bump(counters_.acks_piggybacked, n);
  MaybeCancelAckTimer();
}

void Transport::QueueAck(StationId peer, uint64_t msg_id) {
  std::vector<uint64_t>& ids = pending_acks_[peer];
  ids.push_back(msg_id);
  pending_ack_total_++;
  if (config_.ack_delay == 0 || ids.size() >= config_.max_acks_per_frame) {
    FlushPeerAcks(peer, ids);
    MaybeCancelAckTimer();
    return;
  }
  if (ack_timer_ == kInvalidEventId) {
    ack_timer_ = sim_.Schedule(config_.ack_delay, [this] {
      ack_timer_ = kInvalidEventId;
      FlushAllAcks();
    });
  }
}

void Transport::FlushPeerAcks(StationId peer, std::vector<uint64_t>& ids) {
  for (size_t start = 0; start < ids.size();
       start += config_.max_acks_per_frame) {
    size_t n = std::min(config_.max_acks_per_frame, ids.size() - start);
    // +1 id's worth of room for the count varint.
    BufferWriter header =
        StartFrame(kAck, kFrameChecksumBytes + (n + 1) * kAckIdBytes);
    header.WriteVarint(n);
    for (size_t j = 0; j < n; j++) {
      header.WriteU64(ids[start + j]);
    }
    Frame ack;
    ack.dst = peer;
    ack.header = SealFrame(header, ack.body);
    station_->Send(std::move(ack));
    Bump(counters_.acks_sent);
  }
  pending_ack_total_ -= ids.size();
  ids.clear();
}

void Transport::FlushAllAcks() {
  for (auto& [peer, ids] : pending_acks_) {
    FlushPeerAcks(peer, ids);
  }
}

void Transport::MaybeCancelAckTimer() {
  if (pending_ack_total_ == 0 && ack_timer_ != kInvalidEventId) {
    sim_.Cancel(ack_timer_);
    ack_timer_ = kInvalidEventId;
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Transport::OnFrame(const Frame& frame) {
  BufferReader reader(frame.header);
  auto kind = reader.ReadU8();
  auto crc = kind.ok() ? reader.ReadU32() : StatusOr<uint32_t>(kind.status());
  if (!crc.ok()) {
    Bump(counters_.frames_corrupt_dropped);
    return;
  }
  // Verify before trusting any field — a flipped bit may sit anywhere,
  // including the kind tag itself. A corrupt frame is indistinguishable from
  // a lost one: drop it and let the sender's retransmission recover.
  uint32_t actual = Crc32Begin();
  actual = Crc32Update(actual, frame.header.data(), 1);  // the kind tag
  size_t checked = reader.position();
  actual = Crc32Update(actual, frame.header.data() + checked,
                       frame.header.size() - checked);
  actual = Crc32Update(actual, frame.body.data(), frame.body.size());
  if (Crc32End(actual) != *crc) {
    Bump(counters_.frames_corrupt_dropped);
    EDEN_LOG(kDebug, "transport")
        << "station " << station_->id() << " dropped corrupt frame from "
        << frame.src;
    return;
  }
  switch (*kind) {
    case kData:
      HandleData(frame, reader);
      break;
    case kAck:
      HandleAck(reader);
      break;
    default:
      EDEN_LOG(kWarning, "transport") << "unknown frame kind " << int{*kind};
  }
}

void Transport::HandleAck(BufferReader& reader) {
  auto count = reader.ReadVarint();
  if (!count.ok()) {
    return;
  }
  for (uint64_t i = 0; i < *count; i++) {
    auto msg_id = reader.ReadU64();
    if (!msg_id.ok()) {
      return;
    }
    AckMsgId(*msg_id);
  }
}

void Transport::AckMsgId(uint64_t msg_id) {
  // The retry heap entry goes stale and is skipped when it surfaces; no
  // simulation event needs cancelling.
  auto it = pending_.find(msg_id);
  if (it == pending_.end()) {
    return;  // duplicate ACK
  }
  StationId dst = it->second.dst;
  bool reliable = it->second.reliable;
  if (spans_ != nullptr && it->second.span.valid()) {
    spans_->EndSpan(it->second.span, sim_.now());
  }
  pending_.erase(it);
  if (reliable && on_send_outcome_) {
    on_send_outcome_(dst, /*delivered=*/true);
  }
}

void Transport::DeliverFastPath(const Frame& frame, uint64_t msg_id,
                                bool reliable) {
  RecordDelivered(frame.src, msg_id);
  if (reliable) {
    QueueAck(frame.src, msg_id);
  }
  Bump(counters_.messages_delivered);
  if (handler_) {
    handler_(frame.src, frame.body.view());
  }
}

void Transport::HandleData(const Frame& frame, BufferReader& reader) {
  auto msg_id = reader.ReadU64();
  auto reliable = msg_id.ok() ? reader.ReadBool() : StatusOr<bool>(msg_id.status());
  auto index = reliable.ok() ? reader.ReadVarint() : StatusOr<uint64_t>(reliable.status());
  auto count = index.ok() ? reader.ReadVarint() : index;
  if (!count.ok() || *count == 0 || *index >= *count) {
    EDEN_LOG(kWarning, "transport") << "malformed data frame dropped";
    return;
  }
  // Piggybacked ACKs ride even on duplicates; process them first.
  HandleAck(reader);

  if (AlreadyDelivered(frame.src, *msg_id)) {
    Bump(counters_.duplicates_suppressed);
    if (*reliable) {
      // The sender missed our ack; repeat it.
      QueueAck(frame.src, *msg_id);
    }
    return;
  }

  if (*count == 1) {
    // Common case: the whole message fits one frame. No reassembly-table
    // touch, no payload copy — the handler reads the sender's buffer.
    DeliverFastPath(frame, *msg_id, *reliable);
    return;
  }

  auto key = std::make_pair(frame.src, *msg_id);
  auto [it, inserted] = reassembly_.try_emplace(key);
  Reassembly& assembly = it->second;
  if (inserted) {
    assembly.fragments.resize(*count);
    ArmReassemblySweep();
  }
  if (assembly.fragments.size() != *count) {
    EDEN_LOG(kWarning, "transport") << "inconsistent fragment count; dropped";
    return;
  }
  if (assembly.fragments[*index].empty()) {
    assembly.fragments[*index] = frame.body;  // refcounted slice, no copy
    assembly.received++;
  }
  assembly.last_progress = sim_.now();

  if (assembly.received < *count) {
    return;
  }

  // All fragments present. They are normally contiguous slices of the
  // sender's one message buffer, so reassembly is a slice widening; only if
  // retransmission produced mixed buffers do we concatenate.
  SharedBytes message = assembly.fragments[0];
  bool contiguous = true;
  for (size_t i = 1; i < assembly.fragments.size(); i++) {
    if (!message.Precedes(assembly.fragments[i])) {
      contiguous = false;
      break;
    }
    message.ExtendOver(assembly.fragments[i]);
  }
  if (!contiguous) {
    Bytes flat;
    size_t total = 0;
    for (const SharedBytes& fragment : assembly.fragments) {
      total += fragment.size();
    }
    flat.reserve(total);
    for (const SharedBytes& fragment : assembly.fragments) {
      flat.insert(flat.end(), fragment.data(), fragment.data() + fragment.size());
    }
    message = SharedBytes(std::move(flat));
  }
  reassembly_.erase(it);
  RecordDelivered(frame.src, *msg_id);
  if (*reliable) {
    QueueAck(frame.src, *msg_id);
  }
  Bump(counters_.messages_delivered);
  if (handler_) {
    handler_(frame.src, message.view());
  }
}

// ---------------------------------------------------------------------------
// Reassembly garbage collection: periodic sweep, armed only while needed
// ---------------------------------------------------------------------------

void Transport::ArmReassemblySweep() {
  if (sweep_timer_ != kInvalidEventId) {
    return;
  }
  sweep_timer_ = sim_.Schedule(config_.reassembly_timeout, [this] {
    sweep_timer_ = kInvalidEventId;
    for (auto stale = reassembly_.begin(); stale != reassembly_.end();) {
      if (sim_.now() - stale->second.last_progress >= config_.reassembly_timeout) {
        stale = reassembly_.erase(stale);
      } else {
        ++stale;
      }
    }
    if (!reassembly_.empty()) {
      ArmReassemblySweep();
    }
  });
}

// ---------------------------------------------------------------------------
// Duplicate suppression
// ---------------------------------------------------------------------------

bool Transport::AlreadyDelivered(StationId src, uint64_t msg_id) const {
  auto it = history_.find(src);
  return it != history_.end() && it->second.Contains(msg_id);
}

void Transport::RecordDelivered(StationId src, uint64_t msg_id) {
  history_[src].Insert(msg_id, config_.dedup_window);
}

size_t Transport::PeerHistory::Home(uint64_t msg_id) const {
  // Fibonacci hashing: a sender's ids are consecutive, and the multiply
  // spreads consecutive ids across the whole index.
  return static_cast<size_t>((msg_id * 0x9E3779B97F4A7C15ull) >>
                             (64 - index_bits_));
}

bool Transport::PeerHistory::Contains(uint64_t msg_id) const {
  if (msg_id > highest_ || index_.empty()) {
    return false;
  }
  size_t mask = index_.size() - 1;
  for (size_t i = Home(msg_id);; i = (i + 1) & mask) {
    if (index_[i] == kEmpty) {
      return false;
    }
    if (ring_[index_[i] - 1] == msg_id) {
      return true;
    }
  }
}

void Transport::PeerHistory::Insert(uint64_t msg_id, size_t window) {
  if (window == 0) {
    return;
  }
  assert(!Contains(msg_id) && "a window holds each id at most once");
  highest_ = std::max(highest_, msg_id);
  if (ring_.size() < window) {
    ring_.push_back(msg_id);
    if (2 * ring_.size() > index_.size()) {
      GrowIndex();  // reindexes every position, the new one included
    } else {
      IndexPosition(static_cast<uint32_t>(ring_.size() - 1));
    }
    return;
  }
  uint32_t pos = static_cast<uint32_t>(oldest_);
  UnindexPosition(pos);
  ring_[pos] = msg_id;
  IndexPosition(pos);
  oldest_ = (oldest_ + 1) % ring_.size();
}

void Transport::PeerHistory::IndexPosition(uint32_t pos) {
  size_t mask = index_.size() - 1;
  size_t i = Home(ring_[pos]);
  while (index_[i] != kEmpty) {
    i = (i + 1) & mask;
  }
  index_[i] = pos + 1;
}

void Transport::PeerHistory::UnindexPosition(uint32_t pos) {
  size_t mask = index_.size() - 1;
  size_t hole = Home(ring_[pos]);
  while (index_[hole] != pos + 1) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later members of the probe run into the
  // hole when their home slot allows it, so no tombstones are needed.
  for (size_t next = (hole + 1) & mask; index_[next] != kEmpty;
       next = (next + 1) & mask) {
    size_t home = Home(ring_[index_[next] - 1]);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kEmpty;
}

void Transport::PeerHistory::GrowIndex() {
  index_bits_ = std::max(index_bits_ + 1, 4);
  index_.assign(size_t{1} << index_bits_, kEmpty);
  for (uint32_t pos = 0; pos < ring_.size(); pos++) {
    IndexPosition(pos);
  }
}

void Transport::Reset() {
  if (spans_ != nullptr) {
    // Close wire spans of discarded in-flight messages in a deterministic
    // (msg-id) order — pending_ itself iterates in hash order.
    std::vector<const PendingSend*> doomed;
    for (const auto& [msg_id, pending] : pending_) {
      if (pending.span.valid()) {
        doomed.push_back(&pending);
      }
    }
    std::sort(doomed.begin(), doomed.end(),
              [](const PendingSend* a, const PendingSend* b) {
                return a->msg_id < b->msg_id;
              });
    for (const PendingSend* pending : doomed) {
      spans_->EndSpan(pending->span, sim_.now(), "reset");
    }
  }
  pending_.clear();
  retry_queue_ = {};
  if (retry_timer_ != kInvalidEventId) {
    sim_.Cancel(retry_timer_);
    retry_timer_ = kInvalidEventId;
  }
  pending_acks_.clear();
  pending_ack_total_ = 0;
  if (ack_timer_ != kInvalidEventId) {
    sim_.Cancel(ack_timer_);
    ack_timer_ = kInvalidEventId;
  }
  reassembly_.clear();
  if (sweep_timer_ != kInvalidEventId) {
    sim_.Cancel(sweep_timer_);
    sweep_timer_ = kInvalidEventId;
  }
  history_.clear();
  next_msg_id_ = id_rng_->NextU64() | 1;
}

}  // namespace eden
