#include "src/kernel/eden_system.h"

#include <algorithm>

#include "src/common/log.h"

namespace eden {

EdenSystem::EdenSystem(SystemConfig config)
    : config_(config), sim_(config.seed), lan_(sim_, config.lan) {
  lan_.set_metrics(&metrics_);
  placement_ = Placement::Create(config_.membership.placement);
  rebalancer_ =
      std::make_unique<Rebalancer>(*this, config_.membership.rebalance);
  if (config_.shards > 0) {
    WithShards(config_.shards);
  }
  if (config_.telemetry.enabled) {
    EnableTelemetry();
  }
}

Telemetry& EdenSystem::EnableTelemetry() {
  if (telemetry_ == nullptr) {
    config_.telemetry.enabled = true;
    telemetry_ = std::make_unique<Telemetry>(this, config_.telemetry);
  }
  telemetry_->Start();
  return *telemetry_;
}

EdenSystem& EdenSystem::WithShards(size_t n) {
  if (fault_injector_ != nullptr) {
    FatalError(
        "WithShards: the chaos layer is armed, and fault injection requires "
        "the single-threaded CSMA world (EnableFaults + WithShards cannot be "
        "combined)");
  }
  assert(n >= 1);
  assert(engine_ == nullptr && "WithShards may be called only once");
  assert(nodes_.empty() && "call WithShards before adding nodes");
  config_.shards = n;
  // Sharding requires the switched LAN: delivery times must be computable at
  // send time for the engine's lookahead to hold.
  lan_.EnableSwitched();
  for (size_t k = 1; k < n; k++) {
    // Shard rngs deliberately diverge from the primary's stream; nothing
    // layout-sensitive draws from them (see the randomness notes on
    // NodeKernel's constructor).
    extra_sims_.push_back(std::make_unique<Simulation>(
        config_.seed ^ (0x9e3779b97f4a7c15ULL * k)));
  }
  std::vector<Simulation*> sims;
  sims.push_back(&sim_);
  for (auto& s : extra_sims_) {
    sims.push_back(s.get());
  }
  engine_ = std::make_unique<ShardedEngine>(std::move(sims), lan_.lookahead());
  engine_->set_deliver(
      [this](const CrossShardMsg& msg) { lan_.DeliverRouted(msg); });
  lan_.set_cross_shard_sink(
      [this](uint32_t from, uint32_t to, CrossShardMsg msg) {
        engine_->Push(from, to, std::move(msg));
      });
  if (telemetry_ != nullptr) {
    // Telemetry was enabled before sharding: the new shards need their own
    // scrape chains (shard 0's chain is already running).
    telemetry_->Start();
  }
  return *this;
}

uint64_t EdenSystem::total_events() const {
  uint64_t total = sim_.events_executed();
  for (const auto& s : extra_sims_) {
    total += s->events_executed();
  }
  return total;
}

NodeBuilder::NodeBuilder(EdenSystem* system, std::string name)
    : system_(system),
      name_(std::move(name)),
      kernel_(system->config().kernel),
      disk_(system->config().disk),
      transport_(system->config().transport) {}

NodeKernel& NodeBuilder::Build() {
  if (node_ == nullptr) {
    node_ = &system_->AddNodeWithConfig(name_, kernel_, disk_, transport_,
                                        shard_);
  }
  return *node_;
}

NodeBuilder EdenSystem::AddNode(const std::string& name) {
  return NodeBuilder(this, name);
}

NodeKernel& EdenSystem::AddNodeWithConfig(const std::string& name,
                                          KernelConfig kernel, DiskConfig disk,
                                          TransportConfig transport,
                                          int shard) {
  uint32_t s = 0;
  Simulation* shard_sim_ptr = nullptr;
  if (engine_ != nullptr) {
    size_t count = engine_->shard_count();
    s = shard >= 0 ? static_cast<uint32_t>(shard)
                   : next_shard_rr_++ % static_cast<uint32_t>(count);
    if (s >= count) {
      FatalError("WithShard: shard index " + std::to_string(s) +
                 " is out of range for " + std::to_string(count) + " shards");
    }
    shard_sim_ptr = &shard_sim(s);
  }
  nodes_.push_back(std::make_unique<NodeKernel>(*this, name, kernel, disk,
                                                transport, shard_sim_ptr));
  node_shard_.push_back(s);
  if (engine_ != nullptr) {
    lan_.SetStationShard(nodes_.back()->station(), s);
  }
  if (fault_injector_ != nullptr) {
    nodes_.back()->store().set_fault_hook(
        fault_injector_->DiskHookFor(nodes_.size() - 1));
  }
  if (span_collector_ != nullptr) {
    nodes_.back()->set_spans(ShardCollectorFor(s));
  }
  lifecycle_.push_back(NodeLifecycle::kActive);
  if (telemetry_ != nullptr) {
    // Eager sampler creation, always from the main thread: shard ticks only
    // ever read the sampler vector.
    telemetry_->OnNodeAdded(nodes_.size() - 1);
  }
  RebuildMembers();
  return *nodes_.back();
}

SpanCollector* EdenSystem::ShardCollectorFor(uint32_t s) {
  if (engine_ == nullptr) {
    return span_collector_;
  }
  if (span_collector_ == nullptr) {
    return nullptr;
  }
  if (shard_spans_.empty()) {
    shard_spans_.resize(engine_->shard_count());
    shard_span_metrics_.resize(engine_->shard_count());
  }
  if (shard_spans_[s] == nullptr) {
    shard_spans_[s] = std::make_unique<SpanCollector>();
    // Partitioned id space (ids never collide across shards) and fragment
    // mode (a cross-shard child records locally; MergeSpans rejoins it).
    shard_spans_[s]->set_id_base((static_cast<uint64_t>(s) << 56) | 1);
    shard_spans_[s]->set_fragments_enabled(true);
    shard_span_metrics_[s] = std::make_unique<MetricsRegistry>();
    shard_spans_[s]->set_metrics(shard_span_metrics_[s].get());
  }
  return shard_spans_[s].get();
}

void EdenSystem::set_span_collector(SpanCollector* spans) {
  span_collector_ = spans;
  if (spans != nullptr) {
    spans->set_metrics(&metrics_);
  }
  if (spans == nullptr) {
    shard_spans_.clear();
    shard_span_metrics_.clear();
  }
  for (size_t i = 0; i < nodes_.size(); i++) {
    nodes_[i]->set_spans(spans == nullptr ? nullptr
                                          : ShardCollectorFor(node_shard_[i]));
  }
}

void EdenSystem::MergeSpans() {
  if (span_collector_ == nullptr) {
    return;
  }
  for (auto& shard_collector : shard_spans_) {
    if (shard_collector != nullptr) {
      span_collector_->Absorb(*shard_collector);
    }
  }
}

void EdenSystem::EnableFaults(const FaultPlan& plan) {
  if (engine_ != nullptr) {
    FatalError(
        "EnableFaults: fault injection requires the single-threaded CSMA "
        "world (WithShards + EnableFaults cannot be combined)");
  }
  assert(fault_injector_ == nullptr && "EnableFaults may be called only once");
  fault_injector_ = std::make_unique<FaultInjector>(sim_, plan);
  FaultInjector* injector = fault_injector_.get();
  injector->set_metrics(&metrics_);
  // Always install the sink: telemetry may be enabled after the faults are,
  // and the flight recorder keys diagnostic bundles off injected faults.
  injector->set_event_sink([this](const char* kind, uint32_t site) {
    if (telemetry_ != nullptr) {
      telemetry_->OnFault(kind, site);
    }
  });
  lan_.set_fault_hook(injector);
  for (size_t i = 0; i < nodes_.size(); i++) {
    nodes_[i]->store().set_fault_hook(injector->DiskHookFor(i));
  }

  for (const PartitionEpoch& epoch : plan.partitions) {
    sim_.ScheduleAt(std::max(epoch.at, sim_.now()),
                    [this, groups = epoch.groups] {
                      if (groups.empty()) {
                        lan_.ClearPartitions();
                      } else {
                        for (const auto& [station, group] : groups) {
                          lan_.SetPartitionGroup(station, group);
                        }
                      }
                      fault_injector_->RecordPartitionEpoch();
                    });
  }
  for (const CrashEvent& crash : plan.crashes) {
    sim_.ScheduleAt(std::max(crash.fail_at, sim_.now()), [this, crash] {
      if (crash.node >= nodes_.size() || nodes_[crash.node]->failed()) {
        return;
      }
      nodes_[crash.node]->FailNode();
      fault_injector_->RecordNodeFailure(crash.node);
      sim_.Schedule(crash.down_for, [this, node = crash.node] {
        // A test may have restarted (or re-failed) the node itself; only
        // undo the failure this schedule caused.
        if (node < nodes_.size() && nodes_[node]->failed()) {
          nodes_[node]->RestartNode();
          fault_injector_->RecordNodeRestart(node);
        }
      });
    });
  }
}

void EdenSystem::AddNodes(size_t count) {
  for (size_t i = 0; i < count; i++) {
    int shard = -1;
    if (engine_ != nullptr) {
      // Contiguous blocks: node i -> shard i*S/count, so ring/neighbor
      // workloads keep most traffic shard-local.
      shard = static_cast<int>((i * engine_->shard_count()) / count);
    }
    AddNodeWithConfig("node" + std::to_string(node_count()), config_.kernel,
                      config_.disk, config_.transport, shard);
  }
}

NodeKernel* EdenSystem::NodeAt(StationId station) {
  for (auto& node : nodes_) {
    if (node->station() == station) {
      return node.get();
    }
  }
  return nullptr;
}

// --- Elastic membership (DESIGN.md §16) --------------------------------------

void EdenSystem::RequireMembershipOp(const char* op, size_t index) const {
  if (engine_ != nullptr) {
    FatalError(std::string(op) +
               ": elastic membership requires the single-threaded world "
               "(shards == 0)");
  }
  if (index >= nodes_.size()) {
    FatalError(std::string(op) + ": node index out of range");
  }
}

void EdenSystem::SetLifecycle(size_t index, NodeLifecycle lifecycle) {
  lifecycle_[index] = lifecycle;
  metrics_.counter("membership.transitions").Increment();
}

void EdenSystem::RebuildMembers() {
  members_.clear();
  for (size_t i = 0; i < nodes_.size(); i++) {
    if (lifecycle_[i] == NodeLifecycle::kJoining ||
        lifecycle_[i] == NodeLifecycle::kActive) {
      members_.push_back(Member{i, nodes_[i]->station()});
    }
  }
  ++membership_epoch_;
  placement_->OnMembershipChange(members_);
  // Every location service re-checks which directory partitions it homes;
  // records whose home set changed are handed off here (epoch-monotone, so a
  // straggling hand-off can never clobber a newer publish). Failed nodes are
  // included: their in-memory directory is already empty, so it's a no-op.
  for (auto& node : nodes_) {
    node->location().OnMembershipChange();
  }
  metrics_.gauge("membership.members")
      .Set(static_cast<int64_t>(members_.size()));
}

NodeKernel& EdenSystem::JoinNode(const std::string& name) {
  if (engine_ != nullptr) {
    FatalError(
        "JoinNode: elastic membership requires the single-threaded world "
        "(shards == 0)");
  }
  NodeKernel& node =
      AddNodeWithConfig(name, config_.kernel, config_.disk, config_.transport);
  size_t index = nodes_.size() - 1;
  // AddNodeWithConfig already rebuilt the member set with this node in it;
  // joining nodes are members too, so flip the lifecycle without a second
  // rebuild.
  lifecycle_[index] = NodeLifecycle::kJoining;
  sim_.Schedule(config_.membership.join_warmup, [this, index] {
    if (lifecycle_[index] == NodeLifecycle::kJoining) {
      SetLifecycle(index, NodeLifecycle::kActive);
    }
  });
  rebalancer_->EnsureRunning();
  return node;
}

Status EdenSystem::RejoinNode(size_t index) {
  RequireMembershipOp("RejoinNode", index);
  if (lifecycle_[index] != NodeLifecycle::kDeparted) {
    return FailedPreconditionError("RejoinNode: node is not departed");
  }
  NodeKernel& node = *nodes_[index];
  if (node.failed()) {
    // Reattaches to the wire and re-publishes this store's checkpointed
    // objects (passive, epoch 0 — fills only empty directory slots).
    node.RestartNode();
  }
  node.set_draining(false);
  SetLifecycle(index, NodeLifecycle::kJoining);
  RebuildMembers();
  sim_.Schedule(config_.membership.join_warmup, [this, index] {
    if (lifecycle_[index] == NodeLifecycle::kJoining) {
      SetLifecycle(index, NodeLifecycle::kActive);
    }
  });
  rebalancer_->EnsureRunning();
  return OkStatus();
}

Future<Status> EdenSystem::LeaveNode(size_t index, bool drain) {
  RequireMembershipOp("LeaveNode", index);
  Promise<Status> done;
  Future<Status> result = done.GetFuture();
  if (lifecycle_[index] == NodeLifecycle::kDraining ||
      lifecycle_[index] == NodeLifecycle::kDeparted) {
    done.Set(FailedPreconditionError("LeaveNode: node is already leaving"));
    return result;
  }
  SetLifecycle(index, NodeLifecycle::kDraining);
  nodes_[index]->set_draining(true);
  if (drain) {
    // A permanent departure also evacuates the node's passive state: its
    // checkpointed objects reactivate here and move off, and chains anchored
    // at this station resite elsewhere.
    evacuate_passive_.insert(index);
  }
  RebuildMembers();
  if (!drain || nodes_[index]->failed()) {
    FinishDepart(index);
    done.Set(OkStatus());
    return result;
  }
  rebalancer_->EnsureRunning();
  RunDrain(index, std::move(done));
  return result;
}

Future<Status> EdenSystem::GracefulRestart(size_t index, SimDuration down_for) {
  RequireMembershipOp("GracefulRestart", index);
  Promise<Status> done;
  Future<Status> result = done.GetFuture();
  if (lifecycle_[index] != NodeLifecycle::kActive &&
      lifecycle_[index] != NodeLifecycle::kJoining) {
    done.Set(FailedPreconditionError("GracefulRestart: node is not a member"));
    return result;
  }
  // Drain WITHOUT evacuating passive state: checkpoints stay on this store
  // across the restart, and the restart scan re-publishes them.
  SetLifecycle(index, NodeLifecycle::kDraining);
  nodes_[index]->set_draining(true);
  RebuildMembers();
  rebalancer_->EnsureRunning();
  RunGracefulRestart(index, down_for, std::move(done));
  return result;
}

Task<Status> EdenSystem::AwaitDrain(size_t index) {
  SimTime deadline = sim_.now() + config_.membership.drain_timeout;
  while (true) {
    if (nodes_[index]->failed()) {
      // Crashed out from under the drain: the volatile state is already
      // gone, and whatever survives in checkpoints reincarnates elsewhere
      // on demand. Nothing left to wait for.
      co_return OkStatus();
    }
    if (rebalancer_->DrainComplete(index)) {
      co_return OkStatus();
    }
    if (sim_.now() >= deadline) {
      co_return TimeoutError(
          "drain deadline passed; node departs with residual state");
    }
    co_await SleepFor(sim_, config_.membership.drain_poll);
  }
}

DetachedTask EdenSystem::RunDrain(size_t index, Promise<Status> done) {
  Status status = co_await AwaitDrain(index);
  FinishDepart(index);
  done.Set(status);
}

DetachedTask EdenSystem::RunGracefulRestart(size_t index, SimDuration down_for,
                                            Promise<Status> done) {
  Status drained = co_await AwaitDrain(index);
  FinishDepart(index);
  co_await SleepFor(sim_, down_for);
  Status rejoined = RejoinNode(index);
  done.Set(drained.ok() ? rejoined : drained);
}

void EdenSystem::FinishDepart(size_t index) {
  evacuate_passive_.erase(index);
  SetLifecycle(index, NodeLifecycle::kDeparted);
  if (!nodes_[index]->failed()) {
    // Detach from the wire. After a clean drain this loses nothing: the
    // kernel reported DrainIdle, so there is no volatile state left to shed.
    nodes_[index]->FailNode();
  }
  metrics_.counter("membership.departures").Increment();
}

void EdenSystem::RegisterType(std::shared_ptr<TypeManager> type) {
  assert(type != nullptr);
  types_[type->name()] = std::move(type);
}

std::shared_ptr<TypeManager> EdenSystem::FindType(const std::string& type_name) const {
  auto it = types_.find(type_name);
  if (it == types_.end()) {
    return nullptr;
  }
  return it->second;
}

void EdenSystem::PublishLanCounts() const { lan_.SyncMetrics(); }

MetricsRegistry EdenSystem::Rollup() const {
  PublishLanCounts();
  MetricsRegistry rollup;
  rollup.MergeFrom(metrics_);
  for (const auto& node : nodes_) {
    rollup.MergeFrom(node->metrics());
  }
  for (const auto& shard_registry : shard_span_metrics_) {
    if (shard_registry != nullptr) {
      rollup.MergeFrom(*shard_registry);
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->ContributeTo(rollup);
  }
  return rollup;
}

std::string EdenSystem::MetricsJson() const { return Rollup().ToJson(); }

}  // namespace eden
