// Chaos layer: declarative, seeded fault injection (DESIGN.md §11).
//
// A FaultPlan describes *what* can go wrong — wire corruption/duplication/
// delay probabilities, per-node disk fault mixes, a partition timeline and a
// crash-restart schedule. A FaultInjector turns the plan into the hook
// objects the Lan (WireFaultHook) and each node's StableStore (DiskFaultHook)
// consult on their normal paths, drawing every decision from rngs forked off
// the simulation seed, so a chaotic run is exactly as reproducible as a
// clean one. EdenSystem::EnableFaults installs the hooks and schedules the
// plan's timelines; the injector itself never reaches above the storage/net
// layer, which keeps the dependency graph acyclic (the kernel links fault,
// not the other way around).
//
// Everything injected is counted once, as fault.<kind> in the registry given
// to set_metrics (EdenSystem passes its own), and optionally narrated through
// an event sink so traces show faults interleaved with the recoveries they
// provoke.
#ifndef EDEN_SRC_FAULT_FAULT_H_
#define EDEN_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/net/lan.h"
#include "src/sim/simulation.h"
#include "src/storage/stable_store.h"

namespace eden {

// Per-delivery wire fault probabilities, applied after the Lan's base loss
// model (so they compose with LanConfig::loss_probability).
struct WireFaultConfig {
  double corrupt_probability = 0.0;    // one bit flips in flight
  double duplicate_probability = 0.0;  // frame delivered twice
  double delay_probability = 0.0;      // frame deferred (reorder jitter)
  SimDuration max_extra_delay = Milliseconds(2);
  double drop_probability = 0.0;       // extra loss beyond the base model
};

// One step in the partition timeline: at `at`, move the listed stations into
// their groups (everyone unlisted returns to group 0). An empty `groups`
// list is a full heal.
struct PartitionEpoch {
  SimTime at = 0;
  std::vector<std::pair<StationId, int>> groups;
};

// Per-node disk fault mix.
struct DiskFaultConfig {
  double write_error_probability = 0.0;   // flush fails, record torn, detected
  double torn_write_probability = 0.0;    // record torn, flush acks OK (silent)
  double read_soft_error_probability = 0.0;  // transparent retry, extra spin
  double latent_corruption_probability = 0.0;  // bit rot after a clean flush
  double degraded_probability = 0.0;      // this service runs on a tired arm
  double degraded_factor = 3.0;           // service-time multiplier when it does

  bool any() const {
    return write_error_probability > 0 || torn_write_probability > 0 ||
           read_soft_error_probability > 0 ||
           latent_corruption_probability > 0 || degraded_probability > 0;
  }
};

// One crash-restart cycle for a node (by EdenSystem node index).
struct CrashEvent {
  size_t node = 0;
  SimTime fail_at = 0;
  SimDuration down_for = Milliseconds(500);
};

struct FaultPlan {
  // Probabilistic faults fire only inside [start, end).
  SimTime start = 0;
  SimTime end = kSimTimeNever;

  WireFaultConfig wire;
  DiskFaultConfig disk;  // default mix for nodes without an override
  std::map<size_t, DiskFaultConfig> disk_overrides;  // by node index
  std::vector<PartitionEpoch> partitions;
  std::vector<CrashEvent> crashes;

  // The standardized fault storm the acceptance criteria and bench_chaos
  // measure against: wire corruption + duplication + delay on every link,
  // the full disk fault mix on the first `flaky_disks` nodes (leave mirrors
  // on clean disks so torn primaries stay recoverable), staggered
  // crash-restart cycles over the flaky nodes, and one partition/heal epoch
  // pair. Deterministic for a given argument tuple.
  static FaultPlan StandardStorm(size_t nodes, size_t flaky_disks,
                                 SimTime start, SimTime end);
};

class FaultInjector : public WireFaultHook {
 public:
  FaultInjector(Simulation& sim, FaultPlan plan);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // WireFaultHook: one decision per frame delivery, seeded.
  Decision OnDeliver(StationId src, StationId dst, size_t wire_bytes) override;

  // The disk hook for node `node` (its config, the shared injector rng).
  // The pointer stays valid for the injector's lifetime.
  DiskFaultHook* DiskHookFor(size_t node);

  // True while the plan's probabilistic window is open.
  bool ActiveNow() const {
    SimTime now = sim_.now();
    return now >= plan_.start && now < plan_.end;
  }

  // Counts each injected fault into `registry` as fault.<kind> (the sink's
  // kind tag, e.g. fault.wire.corrupt); with no registry nothing is counted.
  // nullptr detaches.
  void set_metrics(MetricsRegistry* registry);

  // Optional narration: called once per injected fault with a short kind tag
  // ("wire.corrupt", "disk.torn", "node.fail", ...) and the affected station
  // or node (kNoFaultSite when not applicable). EdenSystem routes this into
  // Telemetry::OnFault, which keys flight-recorder bundles off it.
  static constexpr uint32_t kNoFaultSite = 0xffffffffu;
  using EventSink = std::function<void(const char* kind, uint32_t site)>;
  void set_event_sink(EventSink sink) { sink_ = std::move(sink); }

  // Timeline bookkeeping: EdenSystem applies the partition/crash schedules
  // (it owns the Lan and the kernels) and reports each application here so
  // the counters and the sink see one coherent stream.
  void RecordPartitionEpoch();
  void RecordNodeFailure(size_t node);
  void RecordNodeRestart(size_t node);

  const FaultPlan& plan() const { return plan_; }

 private:
  class NodeDiskHook;

  void Emit(const char* kind, uint32_t site);
  Counter* FaultCounter(const char* name);

  Simulation& sim_;
  FaultPlan plan_;
  Rng wire_rng_;
  Rng disk_rng_;
  MetricsRegistry* registry_ = nullptr;
  EventSink sink_;
  std::vector<std::unique_ptr<NodeDiskHook>> disk_hooks_;
};

}  // namespace eden

#endif  // EDEN_SRC_FAULT_FAULT_H_
