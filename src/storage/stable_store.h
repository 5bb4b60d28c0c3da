// Simulated stable storage: one Winchester-class disk per node machine
// (paper section 3: a 300 MB disk on the file-server node; smaller disks
// elsewhere). StableStore is the "reliable storage medium" of section 4.4:
// its contents survive node failures; only the service *time* is simulated.
//
// The write path models the mechanisms a real 1981 disk subsystem would use
// to survive checkpoint-heavy load (DESIGN.md §10 "Storage path"):
//
//   * Request scheduler: pending operations carry a track (a deterministic
//     hash of the record key) and are serviced in C-LOOK elevator order —
//     the arm sweeps toward higher tracks, then returns — instead of strict
//     FIFO. Seek time is charged per track travelled (`seek_settle` +
//     proportional share of `seek_full_stroke`); an idle ("parked") arm pays
//     the classic `average_seek`. `elevator = false` restores FIFO for
//     ablation baselines.
//   * Group commit: writes (and deletes) that queue up while the arm is busy
//     are coalesced into one batched durable flush — a single seek +
//     rotational latency + the summed transfer — bounded by
//     `max_batch_ops` / `max_batch_bytes`. `commit_interval` optionally
//     holds a write that arrives at an idle arm, so immediately following
//     writes can join its flush. Every operation keeps its own completion
//     future and latency sample.
//   * Read fairness: at most `max_writes_per_pass` write services may run
//     while a read is waiting; then the elevator must pick a read. Reads are
//     never batched (each wants its own rotational positioning).
//
// Capacity is enforced synchronously at Put time (ResourceExhausted), and
// Delete / overwrite reclaim their bytes immediately — the in-core record
// index is authoritative, as any real filesystem's would be.
#ifndef EDEN_SRC_STORAGE_STABLE_STORE_H_
#define EDEN_SRC_STORAGE_STABLE_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/metrics/metrics.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/trace/span.h"

namespace eden {

struct DiskConfig {
  // 1981-era Winchester drive.
  SimDuration average_seek = Milliseconds(30);  // cold seek from a parked arm
  SimDuration rotational_latency = Milliseconds(8);
  double transfer_bytes_per_sec = 1.0e6;
  uint64_t capacity_bytes = 300ull << 20;

  // --- Request scheduler -----------------------------------------------
  // C-LOOK elevator over `track_count` tracks; false = strict FIFO.
  bool elevator = true;
  uint32_t track_count = 512;
  SimDuration seek_settle = Milliseconds(4);       // track-to-track minimum
  SimDuration seek_full_stroke = Milliseconds(52); // end-to-end arm travel

  // --- Group commit ------------------------------------------------------
  // Hold-off before servicing a write that arrives at an idle arm, letting
  // immediately following writes join its flush (0 = start at once; reads
  // always start the arm immediately).
  SimDuration commit_interval = 0;
  // Per-flush coalescing caps. max_batch_ops = 1 disables batching.
  size_t max_batch_ops = 32;
  uint64_t max_batch_bytes = 256 * 1024;
  // Read fairness: write services allowed while a read waits.
  size_t max_writes_per_pass = 8;

  // --- Integrity ---------------------------------------------------------
  // Every record carries a CRC32 computed at Put time; reads verify it at
  // service completion and fail with kDataLoss on mismatch (torn writes and
  // at-rest bit rot become *detected* faults instead of silent corruption).
  // false = trust the platter (ablation baseline).
  bool verify_checksums = true;
};

// The store's one figure with no counter twin: how long the arm was busy.
// Everything the store counts lives in its registry (see set_metrics).
struct StoreStats {
  SimDuration busy_time = 0;
};

// Consulted by the store at its fault-injection points. Implemented by the
// chaos harness (src/fault); every method is called in deterministic
// simulation order, so a seeded hook keeps runs reproducible.
class DiskFaultHook {
 public:
  virtual ~DiskFaultHook() = default;

  struct WriteFault {
    bool error = false;  // the flush fails; the completion future errors and
                         // the durable copy is torn (a detected bad write)
    bool torn = false;   // the durable copy is truncated but the flush still
                         // acks OK — a silent torn write, caught by CRC later
  };
  // One consult per write/delete op, at flush-completion time.
  virtual WriteFault OnWriteFlush(const std::string& key) = 0;
  // True = flip a bit in the durable copy after an otherwise clean flush
  // (latent sector rot, detected only by a later read's checksum).
  virtual bool CorruptAtRest(const std::string& key) = 0;
  // Transparent retries a read service needs (soft read errors); each retry
  // costs one extra rotational latency.
  virtual int ReadRetries(const std::string& key) = 0;
  // Service-time multiplier for the next arm movement (degraded mechanics;
  // values <= 1 mean healthy).
  virtual double ServiceFactor() = 0;
};

class StableStore {
 public:
  StableStore(Simulation& sim, DiskConfig config = {});

  StableStore(const StableStore&) = delete;
  StableStore& operator=(const StableStore&) = delete;

  // Writes (or overwrites) a record. The record is visible in the in-core
  // index immediately; the future completes when the data is durable.
  // Capacity overflow fails synchronously with ResourceExhausted and leaves
  // any existing record untouched. The payload is refcounted, never copied.
  // A valid `parent` span context opens a kStoreWrite span (queueing + seek +
  // transfer) closed when the op retires; injected faults annotate it.
  Future<Status> Put(const std::string& key, SharedBytes value,
                     const SpanContext& parent = {});
  Future<Status> Put(const std::string& key, Bytes value,
                     const SpanContext& parent = {}) {
    return Put(key, SharedBytes(std::move(value)), parent);
  }

  // Reads a record; NotFound if absent (synchronously). The returned bytes
  // are a refcounted snapshot taken at call time. A valid `parent` opens a
  // kStoreRead span for the service.
  Future<StatusOr<SharedBytes>> Get(const std::string& key,
                                    const SpanContext& parent = {});

  // Removes a record; OK even if absent. Bytes are reclaimed immediately.
  Future<Status> Delete(const std::string& key, const SpanContext& parent = {});

  // Fault/test surface: damages the durable copy of `key` without updating
  // its stored checksum, so its next read fails verification (kDataLoss).
  // CorruptRecord flips one bit; TearRecord truncates to half length (a torn
  // write). Both are no-ops if the key is absent.
  void CorruptRecord(const std::string& key, size_t bit = 0);
  void TearRecord(const std::string& key);

  // Installs (or clears, with nullptr) the chaos harness's fault hook. The
  // hook must outlive this store.
  void set_fault_hook(DiskFaultHook* hook) { fault_hook_ = hook; }

  // Synchronous in-core directory checks (the kernel keeps the record index
  // in memory, as any real filesystem would).
  bool Contains(const std::string& key) const { return records_.count(key) > 0; }
  size_t record_count() const { return records_.size(); }
  uint64_t bytes_used() const { return bytes_used_; }
  // Sorted view: the index itself is an unordered map, but callers observe
  // this listing (tests, shells), so it stays deterministic.
  std::vector<std::string> Keys() const;

  // Scheduler introspection (tests, benches).
  size_t queue_depth() const { return pending_.size(); }
  // The track a key's record lives on (deterministic key-hash placement;
  // a '#'-suffixed key shares its base key's track, so delta chains sit in
  // one cylinder group).
  uint32_t TrackOf(const std::string& key) const;

  const StoreStats& stats() const { return stats_; }
  const DiskConfig& config() const { return config_; }

  // Counts reads, writes, deletes, their bytes, batched flushes and checksum
  // failures into `registry` under store.* names, records per-operation
  // latency (queueing + seek + transfer) into store.read.latency /
  // store.write.latency, and arm travel (in tracks, not nanoseconds) into
  // store.arm_travel_tracks; with no registry the store counts nothing.
  // Injected disk faults are counted by the injector, as fault.disk.*. The
  // registry must outlive this store; nullptr detaches.
  void set_metrics(MetricsRegistry* registry);

  // Attaches the shared span collector for store-request spans (DESIGN.md
  // §12); `node` is the owning node's station id, recorded on the spans. The
  // collector must outlive this store; nullptr detaches.
  void set_spans(SpanCollector* spans, StationId node) {
    spans_ = spans;
    span_node_ = node;
  }

 private:
  struct StoreMetrics {
    Counter* reads = nullptr;
    Counter* writes = nullptr;
    Counter* deletes = nullptr;
    Counter* read_bytes = nullptr;
    Counter* written_bytes = nullptr;
    // Write/delete ops that shared a durable flush with at least one other.
    Counter* batched_writes = nullptr;
    // Durable write flushes (each one seek + one rotational + summed transfer).
    Counter* batch_flushes = nullptr;
    Gauge* bytes_used = nullptr;
    Histogram* read_latency = nullptr;
    Histogram* write_latency = nullptr;
    Histogram* arm_travel = nullptr;
    Counter* checksum_failures = nullptr;
  };

  // A durable record: the bytes plus the CRC computed when they were Put.
  // `version` bumps on every overwrite so asynchronous fault effects (a torn
  // flush completing after a newer Put) never damage the wrong generation.
  struct Record {
    SharedBytes value;
    uint32_t crc = 0;
    uint64_t version = 0;
  };

  struct PendingOp {
    enum Kind : uint8_t { kRead, kWrite, kDelete };
    Kind kind = kWrite;
    uint32_t track = 0;
    uint64_t bytes = 0;   // transfer size
    uint64_t seq = 0;     // arrival order (FIFO mode + tie-break)
    SimTime enqueued = 0;
    std::string key;
    uint64_t version = 0;                      // written generation (writes)
    uint32_t crc = 0;                          // snapshot checksum (reads)
    Promise<Status> done;                      // write / delete
    Promise<StatusOr<SharedBytes>> read_done;  // read
    SharedBytes value;                         // read snapshot
    SpanContext span;                          // invalid when tracing is off
  };

  void Enqueue(PendingOp op);
  // Dispatches the next service (single read, or a coalesced write flush)
  // if the arm is free and work is pending.
  void StartService();
  // Elevator / FIFO / fairness selection of the next op to service.
  size_t PickNext() const;
  // Seek cost of moving the arm to `track`, and the travel distance charged.
  SimDuration SeekTo(uint32_t track, uint32_t* travel_out) const;
  void CompleteOps(std::vector<PendingOp> ops);
  void RecordOpLatency(const PendingOp& op);
  // Truncates the durable copy of `key` (leaving its checksum stale) if the
  // record still holds generation `version`; 0 = whatever is current.
  void TearRecordVersion(const std::string& key, uint64_t version);

  void UpdateBytesUsedGauge() {
    if (metrics_.bytes_used != nullptr) {
      metrics_.bytes_used->Set(static_cast<int64_t>(bytes_used_));
    }
  }

  Simulation& sim_;
  DiskConfig config_;
  StoreStats stats_;
  StoreMetrics metrics_;
  DiskFaultHook* fault_hook_ = nullptr;
  SpanCollector* spans_ = nullptr;
  StationId span_node_ = 0;
  std::unordered_map<std::string, Record> records_;
  uint64_t bytes_used_ = 0;
  uint64_t next_version_ = 1;

  std::vector<PendingOp> pending_;
  bool busy_ = false;
  bool arm_parked_ = true;  // no position knowledge until the first service
  uint32_t arm_track_ = 0;
  uint64_t next_op_seq_ = 1;
  size_t reads_pending_ = 0;
  size_t writes_since_read_ = 0;
  EventId hold_timer_ = kInvalidEventId;
};

}  // namespace eden

#endif  // EDEN_SRC_STORAGE_STABLE_STORE_H_
