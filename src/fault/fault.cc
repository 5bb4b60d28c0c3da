#include "src/fault/fault.h"

namespace eden {

FaultPlan FaultPlan::StandardStorm(size_t nodes, size_t flaky_disks,
                                   SimTime start, SimTime end) {
  FaultPlan plan;
  plan.start = start;
  plan.end = end;

  // The acceptance storm's wire mix rides on top of the caller's base loss
  // (conventionally LanConfig::loss_probability = 0.02).
  plan.wire.corrupt_probability = 0.01;
  plan.wire.duplicate_probability = 0.01;
  plan.wire.delay_probability = 0.03;
  plan.wire.max_extra_delay = Milliseconds(2);

  DiskFaultConfig flaky;
  flaky.write_error_probability = 0.05;
  flaky.torn_write_probability = 0.02;
  flaky.read_soft_error_probability = 0.05;
  flaky.latent_corruption_probability = 0.01;
  flaky.degraded_probability = 0.10;
  flaky.degraded_factor = 3.0;
  // Flaky disks on the first `flaky_disks` nodes only: a deployment keeps
  // mirrors on different (here: clean) spindles, which is what makes torn
  // primary records recoverable rather than fatal.
  for (size_t i = 0; i < flaky_disks && i < nodes; i++) {
    plan.disk_overrides[i] = flaky;
  }

  SimDuration window = end == kSimTimeNever ? Seconds(10) : end - start;
  // One crash-restart cycle per flaky node, staggered across the window, so
  // reincarnation happens while the wire and disks are still misbehaving.
  for (size_t k = 0; k < flaky_disks && k < nodes; k++) {
    CrashEvent crash;
    crash.node = k;
    crash.fail_at =
        start + static_cast<SimDuration>(window * (k + 1) /
                                         (flaky_disks + 1));
    crash.down_for = Milliseconds(300);
    plan.crashes.push_back(crash);
  }

  // One partition/heal pair: the highest node drops out of the main group
  // for a sixth of the window.
  if (nodes >= 2) {
    PartitionEpoch split;
    split.at = start + window / 3;
    split.groups.emplace_back(static_cast<StationId>(nodes - 1), 1);
    plan.partitions.push_back(split);
    PartitionEpoch heal;
    heal.at = start + window / 2;
    plan.partitions.push_back(heal);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Per-node disk hook
// ---------------------------------------------------------------------------

class FaultInjector::NodeDiskHook : public DiskFaultHook {
 public:
  NodeDiskHook(FaultInjector* owner, size_t node, DiskFaultConfig config)
      : owner_(owner), node_(static_cast<uint32_t>(node)), config_(config) {}

  WriteFault OnWriteFlush(const std::string&) override {
    WriteFault fault;
    if (!Armed()) {
      return fault;
    }
    Rng& rng = owner_->disk_rng_;
    if (config_.write_error_probability > 0 &&
        rng.NextBool(config_.write_error_probability)) {
      fault.error = true;
      owner_->Emit("disk.write_error", node_);
    } else if (config_.torn_write_probability > 0 &&
               rng.NextBool(config_.torn_write_probability)) {
      fault.torn = true;
      owner_->Emit("disk.torn_write", node_);
    }
    return fault;
  }

  bool CorruptAtRest(const std::string&) override {
    if (!Armed() || config_.latent_corruption_probability <= 0 ||
        !owner_->disk_rng_.NextBool(config_.latent_corruption_probability)) {
      return false;
    }
    owner_->Emit("disk.latent_corruption", node_);
    return true;
  }

  int ReadRetries(const std::string&) override {
    if (!Armed() || config_.read_soft_error_probability <= 0 ||
        !owner_->disk_rng_.NextBool(config_.read_soft_error_probability)) {
      return 0;
    }
    owner_->Emit("disk.read_soft_error", node_);
    return 1 + static_cast<int>(owner_->disk_rng_.NextBelow(3));
  }

  double ServiceFactor() override {
    if (!Armed() || config_.degraded_probability <= 0 ||
        !owner_->disk_rng_.NextBool(config_.degraded_probability)) {
      return 1.0;
    }
    owner_->Emit("disk.degraded", node_);
    return config_.degraded_factor;
  }

 private:
  bool Armed() const { return owner_->ActiveNow() && config_.any(); }

  FaultInjector* owner_;
  uint32_t node_;
  DiskFaultConfig config_;
};

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(Simulation& sim, FaultPlan plan)
    : sim_(sim),
      plan_(std::move(plan)),
      wire_rng_(sim.rng().Fork()),
      disk_rng_(sim.rng().Fork()) {}

FaultInjector::~FaultInjector() = default;

void FaultInjector::set_metrics(MetricsRegistry* registry) {
  registry_ = registry;
}

Counter* FaultInjector::FaultCounter(const char* name) {
  if (registry_ == nullptr) {
    return nullptr;
  }
  return &registry_->counter(std::string("fault.") + name);
}

void FaultInjector::Emit(const char* kind, uint32_t site) {
  if (Counter* counter = FaultCounter(kind)) {
    counter->Increment();
  }
  if (sink_) {
    sink_(kind, site);
  }
}

WireFaultHook::Decision FaultInjector::OnDeliver(StationId, StationId dst,
                                                size_t) {
  Decision decision;
  if (!ActiveNow()) {
    return decision;
  }
  const WireFaultConfig& wire = plan_.wire;
  if (wire.drop_probability > 0 && wire_rng_.NextBool(wire.drop_probability)) {
    decision.drop = true;
    Emit("wire.drop", dst);
    return decision;
  }
  if (wire.corrupt_probability > 0 &&
      wire_rng_.NextBool(wire.corrupt_probability)) {
    decision.corrupt = true;
    Emit("wire.corrupt", dst);
  }
  if (wire.duplicate_probability > 0 &&
      wire_rng_.NextBool(wire.duplicate_probability)) {
    decision.duplicate = true;
    Emit("wire.duplicate", dst);
  }
  if (wire.delay_probability > 0 && wire.max_extra_delay > 0 &&
      wire_rng_.NextBool(wire.delay_probability)) {
    decision.extra_delay =
        1 + static_cast<SimDuration>(
                wire_rng_.NextBelow(static_cast<uint64_t>(wire.max_extra_delay)));
    Emit("wire.delay", dst);
  }
  return decision;
}

DiskFaultHook* FaultInjector::DiskHookFor(size_t node) {
  if (disk_hooks_.size() <= node) {
    disk_hooks_.resize(node + 1);
  }
  if (disk_hooks_[node] == nullptr) {
    auto it = plan_.disk_overrides.find(node);
    DiskFaultConfig config =
        it != plan_.disk_overrides.end() ? it->second : plan_.disk;
    disk_hooks_[node] = std::make_unique<NodeDiskHook>(this, node, config);
  }
  return disk_hooks_[node].get();
}

void FaultInjector::RecordPartitionEpoch() {
  Emit("partition.epoch", kNoFaultSite);
}

void FaultInjector::RecordNodeFailure(size_t node) {
  Emit("node.fail", static_cast<uint32_t>(node));
}

void FaultInjector::RecordNodeRestart(size_t node) {
  Emit("node.restart", static_cast<uint32_t>(node));
}

}  // namespace eden
