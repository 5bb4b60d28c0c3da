#include "src/kernel/rebalancer.h"

#include <cstdint>
#include <vector>

#include "src/kernel/eden_system.h"
#include "src/kernel/node_kernel.h"
#include "src/kernel/object.h"

namespace eden {

Rebalancer::Rebalancer(EdenSystem& system, RebalanceConfig config)
    : system_(system), config_(config) {}

void Rebalancer::EnsureRunning() {
  if (running_) {
    return;
  }
  running_ = true;
  Tick();
}

void Rebalancer::Tick() {
  bool worked = RunOnePass();
  bool drains_pending = false;
  for (size_t i = 0; i < system_.node_count(); i++) {
    if (system_.lifecycle(i) == NodeLifecycle::kDraining) {
      drains_pending = true;
      break;
    }
  }
  // The count-based spread only diverges through object churn that some
  // membership event accompanies, so parking until the next EnsureRunning is
  // safe. The rate-ranked spread watches *load*, which diverges without any
  // membership event — keep the tick alive while it is armed.
  bool spread_watching = config_.spread_by_load && config_.spread_gap > 0 &&
                         system_.telemetry() != nullptr;
  if (!worked && !drains_pending && !spread_watching && moves_in_flight_ == 0 &&
      resites_in_flight_.empty()) {
    // Parked; the next membership change re-arms via EnsureRunning.
    running_ = false;
    return;
  }
  system_.sim().Schedule(config_.tick, [this] { Tick(); });
}

bool Rebalancer::RunOnePass() {
  bool worked = false;
  for (size_t i = 0; i < system_.node_count(); i++) {
    if (system_.lifecycle(i) != NodeLifecycle::kDraining) {
      continue;
    }
    worked |= EvacuateActives(i);
    if (system_.drain_evacuates_passive(i)) {
      worked |= ReactivatePassives(i);
    }
  }
  worked |= ResiteCheckpoints();
  worked |= SpreadLoad();
  return worked;
}

bool Rebalancer::EvacuateActives(size_t index) {
  NodeKernel& node = system_.node(index);
  if (node.failed()) {
    return false;
  }
  bool worked = false;
  for (const ObjectName& name : node.ActiveObjects()) {
    if (moves_in_flight_ >= config_.max_moves_in_flight) {
      break;
    }
    StationId target =
        system_.placement().TargetFor(name, system_.members(), node.station());
    if (target == kNoStation) {
      break;  // no other member to take anything; retry next tick
    }
    worked |= StartMove(index, name, target);
  }
  return worked;
}

bool Rebalancer::ReactivatePassives(size_t index) {
  NodeKernel& node = system_.node(index);
  if (node.failed()) {
    return false;
  }
  bool worked = false;
  int budget = config_.max_activations_per_tick;
  for (const ObjectName& name : node.CheckpointInventory()) {
    if (budget <= 0) {
      break;
    }
    if (resites_in_flight_.count(name) > 0) {
      continue;  // chain rewrite in flight; erasure may be about to land
    }
    // Never reincarnate a second active copy: if the object is live (or
    // coming live) anywhere, the resite pass pulls its chain off this store
    // instead.
    bool live_somewhere = false;
    for (size_t j = 0; j < system_.node_count(); j++) {
      NodeKernel& other = system_.node(j);
      if (!other.failed() && (other.IsActive(name) || other.IsActivating(name))) {
        live_somewhere = true;
        break;
      }
    }
    if (live_somewhere || node.IsActivating(name)) {
      continue;
    }
    node.Reactivate(name);
    system_.metrics().counter("rebalance.reactivations").Increment();
    budget--;
    worked = true;
  }
  return worked;
}

bool Rebalancer::ResiteCheckpoints() {
  // Stations whose stores are being evacuated: chains referencing them must
  // be rewritten at their objects' current hosts.
  std::set<StationId> evacuating;
  for (size_t i = 0; i < system_.node_count(); i++) {
    if (system_.lifecycle(i) == NodeLifecycle::kDraining &&
        system_.drain_evacuates_passive(i)) {
      evacuating.insert(system_.node(i).station());
    }
  }
  if (evacuating.empty()) {
    return false;
  }
  bool worked = false;
  int budget = config_.max_resites_per_tick;
  for (size_t j = 0; j < system_.node_count() && budget > 0; j++) {
    if (system_.lifecycle(j) != NodeLifecycle::kActive &&
        system_.lifecycle(j) != NodeLifecycle::kJoining) {
      continue;  // objects still on a drainer move off first, resite after
    }
    NodeKernel& host = system_.node(j);
    if (host.failed()) {
      continue;
    }
    for (StationId site : evacuating) {
      if (budget <= 0) {
        break;
      }
      for (const ObjectName& name : host.ActiveObjectsWithPolicySite(site)) {
        if (budget <= 0) {
          break;
        }
        if (resites_in_flight_.count(name) > 0) {
          continue;
        }
        auto object = host.FindActive(name);
        if (!object || object->moving || object->activating) {
          continue;
        }
        // Re-anchor the chain at the current host; keep a healthy mirror if
        // the old one still qualifies, otherwise pick another member (or
        // degrade to local when this is the last one standing).
        CheckpointPolicy policy = object->policy;
        policy.primary_site = host.station();
        if (policy.level == ReliabilityLevel::kMirrored) {
          bool mirror_ok = policy.mirror_site != policy.primary_site &&
                           evacuating.count(policy.mirror_site) == 0;
          if (mirror_ok) {
            mirror_ok = false;
            for (const Member& m : system_.members()) {
              if (m.station == policy.mirror_site) {
                mirror_ok = true;
                break;
              }
            }
          }
          if (!mirror_ok) {
            StationId mirror = system_.placement().TargetFor(
                name, system_.members(), policy.primary_site);
            if (mirror == kNoStation || mirror == policy.primary_site) {
              policy.level = ReliabilityLevel::kLocal;
              policy.mirror_site = 0;
            } else {
              policy.mirror_site = mirror;
            }
          }
        }
        resites_in_flight_.insert(name);
        system_.metrics().counter("rebalance.resites").Increment();
        host.ResiteCheckpoint(name, policy)
            .OnReadyValue([this, name](const Status& status) {
              resites_in_flight_.erase(name);
              if (!status.ok()) {
                system_.metrics()
                    .counter("rebalance.resite_failures")
                    .Increment();
              }
            });
        budget--;
        worked = true;
      }
    }
  }
  return worked;
}

bool Rebalancer::SpreadLoad() {
  if (config_.spread_gap <= 0) {
    return false;
  }
  if (config_.spread_by_load && system_.telemetry() != nullptr) {
    return SpreadByLoad();
  }
  // Fullest vs leanest active member (ties to the lower node index — keeps
  // the pass deterministic).
  const std::vector<Member>& members = system_.members();
  size_t fullest = SIZE_MAX, leanest = SIZE_MAX;
  for (const Member& m : members) {
    NodeKernel& node = system_.node(m.node);
    if (node.failed() || node.draining()) {
      continue;
    }
    size_t count = node.active_count();
    if (fullest == SIZE_MAX || count > system_.node(fullest).active_count()) {
      fullest = m.node;
    }
    if (leanest == SIZE_MAX || count < system_.node(leanest).active_count()) {
      leanest = m.node;
    }
  }
  if (fullest == SIZE_MAX || leanest == SIZE_MAX || fullest == leanest) {
    return false;
  }
  NodeKernel& from = system_.node(fullest);
  NodeKernel& to = system_.node(leanest);
  if (from.active_count() <=
      to.active_count() + static_cast<size_t>(config_.spread_gap)) {
    return false;
  }
  for (const ObjectName& name : from.ActiveObjects()) {
    if (StartMove(fullest, name, to.station())) {
      system_.metrics().counter("rebalance.spread_moves").Increment();
      return true;  // one leveling move per tick
    }
  }
  return false;
}

bool Rebalancer::SpreadByLoad() {
  Telemetry& telemetry = *system_.telemetry();
  const std::vector<Member>& members = system_.members();
  // Hottest vs coolest member by windowed dispatch rate; members_ is sorted
  // by node index and the comparisons are strict, so ties break to the lower
  // index like the count-based pass.
  size_t fullest = SIZE_MAX, leanest = SIZE_MAX;
  double fullest_rate = 0, leanest_rate = 0;
  for (const Member& m : members) {
    NodeKernel& node = system_.node(m.node);
    if (node.failed() || node.draining()) {
      continue;
    }
    double rate = telemetry.WindowSum(m.node, "kernel.dispatches.delta",
                                      config_.spread_rate_window);
    if (fullest == SIZE_MAX || rate > fullest_rate) {
      fullest = m.node;
      fullest_rate = rate;
    }
    if (leanest == SIZE_MAX || rate < leanest_rate) {
      leanest = m.node;
      leanest_rate = rate;
    }
  }
  if (fullest == SIZE_MAX || leanest == SIZE_MAX || fullest == leanest) {
    return false;
  }
  if (fullest_rate <= leanest_rate + config_.spread_rate_gap) {
    return false;
  }
  NodeKernel& from = system_.node(fullest);
  NodeKernel& to = system_.node(leanest);
  for (const ObjectName& name : from.ActiveObjects()) {
    if (StartMove(fullest, name, to.station())) {
      system_.metrics().counter("rebalance.spread_moves").Increment();
      system_.metrics().counter("rebalance.spread_moves_by_load").Increment();
      return true;  // one leveling move per tick
    }
  }
  return false;
}

bool Rebalancer::StartMove(size_t from_index, const ObjectName& name,
                           StationId destination) {
  if (moves_in_flight_ >= config_.max_moves_in_flight) {
    return false;
  }
  NodeKernel& node = system_.node(from_index);
  auto object = node.FindActive(name);
  if (!object || object->moving || object->activating || !object->core->alive) {
    return false;
  }
  moves_in_flight_++;
  system_.metrics().counter("rebalance.moves").Increment();
  node.MoveObject(object, destination)
      .OnReadyValue([this](const Status& status) {
        moves_in_flight_--;
        if (!status.ok()) {
          system_.metrics().counter("rebalance.move_failures").Increment();
        }
      });
  return true;
}

bool Rebalancer::DrainComplete(size_t index) const {
  NodeKernel& node = system_.node(index);
  if (node.failed()) {
    return true;  // nothing volatile left to lose
  }
  if (!node.DrainIdle()) {
    return false;
  }
  if (node.transport().pending_reliable_sends() > 0) {
    // Departure fails the node, which would silently discard unacked
    // reliable sends — including the directory-partition handoffs issued
    // when the drain began. Wait for the acks.
    return false;
  }
  if (system_.drain_evacuates_passive(index) &&
      !node.CheckpointInventory().empty()) {
    return false;
  }
  return true;
}

}  // namespace eden
