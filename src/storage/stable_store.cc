#include "src/storage/stable_store.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace eden {

StableStore::StableStore(Simulation& sim, DiskConfig config)
    : sim_(sim), config_(config) {
  if (config_.track_count == 0) {
    config_.track_count = 1;
  }
  if (config_.max_batch_ops == 0) {
    config_.max_batch_ops = 1;
  }
  if (config_.max_writes_per_pass == 0) {
    config_.max_writes_per_pass = 1;
  }
}

void StableStore::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = StoreMetrics{};
    return;
  }
  metrics_.reads = &registry->counter("store.reads");
  metrics_.writes = &registry->counter("store.writes");
  metrics_.deletes = &registry->counter("store.deletes");
  metrics_.read_bytes = &registry->counter("store.read_bytes");
  metrics_.written_bytes = &registry->counter("store.written_bytes");
  metrics_.batched_writes = &registry->counter("store.batched_writes");
  metrics_.batch_flushes = &registry->counter("store.batch_flushes");
  metrics_.bytes_used = &registry->gauge("store.bytes_used");
  metrics_.read_latency = &registry->histogram("store.read.latency");
  metrics_.write_latency = &registry->histogram("store.write.latency");
  metrics_.arm_travel = &registry->histogram("store.arm_travel_tracks");
  metrics_.checksum_failures = &registry->counter("store.checksum_failures");
  UpdateBytesUsedGauge();
}

uint32_t StableStore::TrackOf(const std::string& key) const {
  // Records that differ only in a '#'-suffix (checkpoint delta links,
  // "<base>#d<k>") share the base record's track — the cylinder-group
  // placement a real filesystem gives an extent chain. Sequential chain
  // appends and replays therefore pay settle-only seeks.
  std::string_view placed(key);
  size_t hash_pos = placed.find('#');
  if (hash_pos != std::string_view::npos) {
    placed = placed.substr(0, hash_pos);
  }
  return static_cast<uint32_t>(Fnv1a64(placed) % config_.track_count);
}

Future<Status> StableStore::Put(const std::string& key, SharedBytes value,
                                const SpanContext& parent) {
  uint64_t new_bytes = value.size();
  auto existing = records_.find(key);
  uint64_t replaced =
      existing == records_.end() ? 0 : existing->second.value.size();
  if (bytes_used_ - replaced + new_bytes > config_.capacity_bytes) {
    Promise<Status> promise;
    promise.Set(ResourceExhaustedError(
        "disk full: " + std::to_string(bytes_used_) + " used of " +
        std::to_string(config_.capacity_bytes) + ", record needs " +
        std::to_string(new_bytes) + " (replacing " + std::to_string(replaced) +
        ")"));
    return promise.GetFuture();
  }
  // The record becomes visible in the index immediately (the kernel issues
  // dependent operations only after the completion future), but durability is
  // only signalled once its flush retires.
  bytes_used_ = bytes_used_ - replaced + new_bytes;
  Record& record = records_[key];
  record.crc = Crc32(value.view());
  record.value = std::move(value);
  record.version = next_version_++;
  if (metrics_.writes != nullptr) {
    metrics_.writes->Increment();
    metrics_.written_bytes->Increment(new_bytes);
    UpdateBytesUsedGauge();
  }

  PendingOp op;
  op.kind = PendingOp::kWrite;
  op.track = TrackOf(key);
  op.bytes = new_bytes;
  op.key = key;
  op.version = record.version;
  if (spans_ != nullptr && parent.valid()) {
    op.span = spans_->StartSpan(parent, SpanKind::kStoreWrite, span_node_,
                                ObjectName{}, key, sim_.now());
  }
  Future<Status> done = op.done.GetFuture();
  Enqueue(std::move(op));
  return done;
}

Future<StatusOr<SharedBytes>> StableStore::Get(const std::string& key,
                                               const SpanContext& parent) {
  auto it = records_.find(key);
  if (it == records_.end()) {
    Promise<StatusOr<SharedBytes>> promise;
    promise.Set(NotFoundError("no such record: " + key));
    return promise.GetFuture();
  }
  if (metrics_.reads != nullptr) {
    metrics_.reads->Increment();
    metrics_.read_bytes->Increment(it->second.value.size());
  }

  PendingOp op;
  op.kind = PendingOp::kRead;
  op.track = TrackOf(key);
  op.bytes = it->second.value.size();
  op.key = key;
  op.value = it->second.value;  // refcounted snapshot at enqueue time
  op.crc = it->second.crc;
  if (spans_ != nullptr && parent.valid()) {
    op.span = spans_->StartSpan(parent, SpanKind::kStoreRead, span_node_,
                                ObjectName{}, key, sim_.now());
  }
  Future<StatusOr<SharedBytes>> done = op.read_done.GetFuture();
  Enqueue(std::move(op));
  return done;
}

Future<Status> StableStore::Delete(const std::string& key,
                                   const SpanContext& parent) {
  auto it = records_.find(key);
  if (it != records_.end()) {
    bytes_used_ -= it->second.value.size();
    records_.erase(it);
    if (metrics_.deletes != nullptr) {
      metrics_.deletes->Increment();
      UpdateBytesUsedGauge();
    }
  }
  // A delete still costs a (zero-transfer) directory write; it joins write
  // flushes like any other durable mutation.
  PendingOp op;
  op.kind = PendingOp::kDelete;
  op.track = TrackOf(key);
  op.bytes = 0;
  op.key = key;
  if (spans_ != nullptr && parent.valid()) {
    op.span = spans_->StartSpan(parent, SpanKind::kStoreWrite, span_node_,
                                ObjectName{}, "delete " + key, sim_.now());
  }
  Future<Status> done = op.done.GetFuture();
  Enqueue(std::move(op));
  return done;
}

std::vector<std::string> StableStore::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(records_.size());
  for (const auto& [key, value] : records_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void StableStore::Enqueue(PendingOp op) {
  op.seq = next_op_seq_++;
  op.enqueued = sim_.now();
  bool is_read = op.kind == PendingOp::kRead;
  if (is_read) {
    reads_pending_++;
  }
  pending_.push_back(std::move(op));
  if (busy_) {
    return;
  }
  // A read always spins the arm up immediately (and flushes any held
  // writes along the way, per the scheduler's pick order). A write may be
  // held for commit_interval so immediate followers can join its flush.
  if (is_read || config_.commit_interval == 0) {
    if (hold_timer_ != kInvalidEventId) {
      sim_.Cancel(hold_timer_);
      hold_timer_ = kInvalidEventId;
    }
    StartService();
  } else if (hold_timer_ == kInvalidEventId) {
    hold_timer_ = sim_.Schedule(config_.commit_interval, [this] {
      hold_timer_ = kInvalidEventId;
      StartService();
    });
  }
}

size_t StableStore::PickNext() const {
  // Fairness: once max_writes_per_pass write services have run with a read
  // waiting, the next service must be a read.
  bool reads_only =
      reads_pending_ > 0 && writes_since_read_ >= config_.max_writes_per_pass;

  size_t best = pending_.size();
  if (!config_.elevator) {
    // FIFO: oldest eligible op.
    for (size_t i = 0; i < pending_.size(); i++) {
      if (reads_only && pending_[i].kind != PendingOp::kRead) continue;
      if (best == pending_.size() || pending_[i].seq < pending_[best].seq) {
        best = i;
      }
    }
    return best;
  }
  // C-LOOK: smallest track at or ahead of the arm; if none, wrap to the
  // smallest track overall. Ties (same track) go to arrival order.
  auto better = [&](size_t a, size_t b) {  // is a better than b
    if (b == pending_.size()) return true;
    bool a_ahead = pending_[a].track >= arm_track_;
    bool b_ahead = pending_[b].track >= arm_track_;
    if (a_ahead != b_ahead) return a_ahead;
    if (pending_[a].track != pending_[b].track) {
      return pending_[a].track < pending_[b].track;
    }
    return pending_[a].seq < pending_[b].seq;
  };
  for (size_t i = 0; i < pending_.size(); i++) {
    if (reads_only && pending_[i].kind != PendingOp::kRead) continue;
    if (better(i, best)) {
      best = i;
    }
  }
  return best;
}

SimDuration StableStore::SeekTo(uint32_t track, uint32_t* travel_out) const {
  if (arm_parked_) {
    // No position knowledge after an idle spin-down: classic average seek.
    *travel_out = config_.track_count / 2;
    return config_.average_seek;
  }
  uint32_t travel;
  if (config_.elevator) {
    // C-LOOK: forward travel, or a full return stroke plus forward travel.
    travel = track >= arm_track_
                 ? track - arm_track_
                 : (config_.track_count - arm_track_) + track;
  } else {
    travel = track >= arm_track_ ? track - arm_track_ : arm_track_ - track;
  }
  *travel_out = travel;
  if (travel == 0) {
    return config_.seek_settle;
  }
  return config_.seek_settle +
         static_cast<SimDuration>(
             static_cast<double>(config_.seek_full_stroke) * travel /
             config_.track_count);
}

void StableStore::StartService() {
  if (busy_ || pending_.empty()) {
    return;
  }
  size_t lead = PickNext();
  if (lead == pending_.size()) {
    return;  // unreachable: pending_ non-empty always yields a pick
  }
  busy_ = true;

  uint32_t travel = 0;
  SimDuration seek = SeekTo(pending_[lead].track, &travel);

  // Membership of this service: the lead op alone for reads; for writes and
  // deletes, every other queued write/delete in pick order until a cap hits.
  std::vector<size_t> members{lead};
  uint64_t batch_bytes = pending_[lead].bytes;
  if (pending_[lead].kind != PendingOp::kRead && config_.max_batch_ops > 1) {
    // Remaining fairness budget bounds how many writes this flush may retire
    // while a read waits.
    size_t budget = config_.max_batch_ops;
    if (reads_pending_ > 0) {
      size_t pass_left =
          config_.max_writes_per_pass > writes_since_read_
              ? config_.max_writes_per_pass - writes_since_read_
              : 1;
      budget = std::min(budget, pass_left);
    }
    if (budget > members.size()) {
      // Candidates in (track, seq) order starting from the lead's track so
      // the arm keeps sweeping forward through the batch.
      std::vector<size_t> candidates;
      candidates.reserve(pending_.size());
      for (size_t i = 0; i < pending_.size(); i++) {
        if (i == lead || pending_[i].kind == PendingOp::kRead) continue;
        candidates.push_back(i);
      }
      uint32_t origin = pending_[lead].track;
      uint32_t tracks = config_.track_count;
      std::sort(candidates.begin(), candidates.end(),
                [&](size_t a, size_t b) {
                  uint32_t da = (pending_[a].track + tracks - origin) % tracks;
                  uint32_t db = (pending_[b].track + tracks - origin) % tracks;
                  if (da != db) return da < db;
                  return pending_[a].seq < pending_[b].seq;
                });
      for (size_t i : candidates) {
        if (members.size() >= budget) break;
        if (batch_bytes + pending_[i].bytes > config_.max_batch_bytes &&
            !members.empty()) {
          // Caps the flush transfer; oversized stragglers wait their turn.
          continue;
        }
        batch_bytes += pending_[i].bytes;
        members.push_back(i);
      }
    }
  }

  double transfer_sec =
      static_cast<double>(batch_bytes) / config_.transfer_bytes_per_sec;
  SimDuration service = seek + config_.rotational_latency +
                        static_cast<SimDuration>(transfer_sec * 1e9);
  if (fault_hook_ != nullptr) {
    // Soft read errors: the controller retries in place, paying one extra
    // platter revolution per retry. Reads are serviced alone, so only the
    // lead op can be a read.
    if (pending_[lead].kind == PendingOp::kRead) {
      int retries = fault_hook_->ReadRetries(pending_[lead].key);
      if (retries > 0) {
        service += static_cast<SimDuration>(retries) *
                   config_.rotational_latency;
        if (spans_ != nullptr && pending_[lead].span.valid()) {
          spans_->Annotate(pending_[lead].span, sim_.now(),
                           "fault:read_retry x" + std::to_string(retries));
        }
      }
    }
    // Degraded mechanics: the whole service (seek + rotation + transfer)
    // slows by the hook's factor.
    double factor = fault_hook_->ServiceFactor();
    if (factor > 1.0) {
      service = static_cast<SimDuration>(static_cast<double>(service) * factor);
    }
  }
  stats_.busy_time += service;
  if (metrics_.arm_travel != nullptr) {
    metrics_.arm_travel->Record(static_cast<int64_t>(travel));
  }

  // The arm finishes at the last member's track (members are in sweep order).
  arm_track_ = pending_[members.back()].track;
  arm_parked_ = false;

  // Bookkeeping for fairness and batching stats.
  if (pending_[lead].kind == PendingOp::kRead) {
    reads_pending_--;
    writes_since_read_ = 0;
  } else {
    writes_since_read_ += members.size();
    if (metrics_.batch_flushes != nullptr) {
      metrics_.batch_flushes->Increment();
    }
    if (members.size() > 1) {
      if (metrics_.batched_writes != nullptr) {
        metrics_.batched_writes->Increment(
            static_cast<uint64_t>(members.size()));
      }
    }
  }

  // Extract members from the queue (descending index order keeps the
  // remaining indices valid), restoring sweep order for completion.
  std::sort(members.begin(), members.end());
  std::vector<PendingOp> service_ops;
  service_ops.reserve(members.size());
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    service_ops.push_back(std::move(pending_[*it]));
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(*it));
  }
  std::sort(service_ops.begin(), service_ops.end(),
            [](const PendingOp& a, const PendingOp& b) { return a.seq < b.seq; });

  sim_.Schedule(service, [this, ops = std::move(service_ops)]() mutable {
    CompleteOps(std::move(ops));
  });
}

void StableStore::RecordOpLatency(const PendingOp& op) {
  SimDuration latency = sim_.now() - op.enqueued;
  Histogram* histogram = op.kind == PendingOp::kRead ? metrics_.read_latency
                                                     : metrics_.write_latency;
  if (histogram != nullptr) {
    histogram->Record(latency);
  }
}

void StableStore::CompleteOps(std::vector<PendingOp> ops) {
  // Promises may resume coroutines that immediately issue new store ops;
  // those just queue behind busy_ and are dispatched by the StartService
  // below, keeping a single dispatch point.
  for (PendingOp& op : ops) {
    RecordOpLatency(op);
    bool span_live = spans_ != nullptr && op.span.valid();
    if (op.kind == PendingOp::kRead) {
      if (config_.verify_checksums && Crc32(op.value.view()) != op.crc) {
        if (metrics_.checksum_failures != nullptr) {
          metrics_.checksum_failures->Increment();
        }
        if (span_live) {
          spans_->EndSpan(op.span, sim_.now(), "checksum_failure");
        }
        op.read_done.Set(StatusOr<SharedBytes>(
            DataLossError("checksum mismatch reading record: " + op.key)));
      } else {
        if (span_live) {
          spans_->EndSpan(op.span, sim_.now());
        }
        op.read_done.Set(StatusOr<SharedBytes>(std::move(op.value)));
      }
      continue;
    }
    DiskFaultHook::WriteFault fault;
    if (fault_hook_ != nullptr && op.kind == PendingOp::kWrite) {
      fault = fault_hook_->OnWriteFlush(op.key);
      if (fault.error || fault.torn) {
        // The platter holds a partial record either way; only `error` tells
        // the caller. A torn-but-acked write is the nastier fault — the CRC
        // catches it at the next read.
        TearRecordVersion(op.key, op.version);
        if (!fault.error && span_live) {
          spans_->Annotate(op.span, sim_.now(), "fault:torn_write");
        }
      } else if (fault_hook_->CorruptAtRest(op.key)) {
        CorruptRecord(op.key, /*bit=*/op.version % 64);
        if (span_live) {
          spans_->Annotate(op.span, sim_.now(), "fault:latent_corruption");
        }
      }
    }
    if (span_live) {
      spans_->EndSpan(op.span, sim_.now(),
                      fault.error ? "fault:write_error" : "");
    }
    op.done.Set(fault.error
                    ? InternalError("injected disk write error: " + op.key)
                    : OkStatus());
  }
  busy_ = false;
  StartService();
}

void StableStore::TearRecordVersion(const std::string& key, uint64_t version) {
  auto it = records_.find(key);
  if (it == records_.end() || it->second.value.empty()) {
    return;
  }
  // A later Put may have already replaced the generation this flush carried;
  // tearing would then damage good data the newer flush will make durable.
  if (version != 0 && it->second.version != version) {
    return;
  }
  size_t keep = it->second.value.size() / 2;
  bytes_used_ -= it->second.value.size() - keep;
  it->second.value = it->second.value.Slice(0, keep);
  UpdateBytesUsedGauge();
}

void StableStore::TearRecord(const std::string& key) {
  TearRecordVersion(key, 0);
}

void StableStore::CorruptRecord(const std::string& key, size_t bit) {
  auto it = records_.find(key);
  if (it == records_.end() || it->second.value.empty()) {
    return;
  }
  Bytes damaged = it->second.value.ToBytes();
  size_t index = (bit / 8) % damaged.size();
  damaged[index] ^= static_cast<uint8_t>(1u << (bit % 8));
  it->second.value = SharedBytes(std::move(damaged));
}

}  // namespace eden
