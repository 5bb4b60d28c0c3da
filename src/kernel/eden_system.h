// EdenSystem: the whole simulated installation of Figure 1 — one Ethernet,
// a set of node machines, and the system-wide type registry.
//
// In the paper, type managers are themselves objects; here the registry is a
// process-global table shared by every kernel, standing in for "on a single
// node, the type code can be shared by several instances of the type"
// (section 4.1) without simulating code shipping. DESIGN.md section 2.2
// records the substitution.
#ifndef EDEN_SRC_KERNEL_EDEN_SYSTEM_H_
#define EDEN_SRC_KERNEL_EDEN_SYSTEM_H_

#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/kernel/node_kernel.h"
#include "src/kernel/placement.h"
#include "src/kernel/rebalancer.h"
#include "src/metrics/metrics.h"
#include "src/net/lan.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/telemetry/telemetry.h"

namespace eden {

class EdenSystem;

// Elastic membership (DESIGN.md §16): how joins warm up, how drains pace
// themselves, and which placement policy assigns homes and move targets.
struct MembershipConfig {
  PlacementPolicyKind placement = PlacementPolicyKind::kModulo;
  // A joining node serves directory traffic immediately but is only marked
  // active (eligible as a rebalance/spread target) after this warmup.
  SimDuration join_warmup = Milliseconds(50);
  // Drain progress poll period and overall deadline. A drain that cannot
  // finish by the deadline departs anyway and reports TimeoutError.
  SimDuration drain_poll = Milliseconds(5);
  SimDuration drain_timeout = Seconds(30);
  RebalanceConfig rebalance;
};

struct SystemConfig {
  uint64_t seed = 1;
  LanConfig lan;
  KernelConfig kernel;
  DiskConfig disk;
  TransportConfig transport;
  MembershipConfig membership;
  // Always-on telemetry (DESIGN.md §17). With enabled = true the system
  // starts the scrape/SLO/flight-recorder pipeline at construction;
  // EnableTelemetry() does the same on demand.
  TelemetryConfig telemetry;
  // 0 = the classic single-threaded CSMA/CD world (the default and the
  // correctness baseline). >= 1 = switched LAN + parallel sharded engine
  // (DESIGN.md §14) with this many worker shards; 1 is the sharded code path
  // with a single shard (pass-through, used as the sharded-mode oracle).
  // Equivalent builder-style knob: EdenSystem::WithShards before AddNode.
  size_t shards = 0;
};

// Fluent per-node configuration, returned by EdenSystem::AddNode:
//
//   NodeKernel& server = system.AddNode("fileserver")
//                            .WithDisk(big_disk);
//
// Each With* overrides the system-wide default from SystemConfig for this
// node only. The node is created when Build() runs — explicitly, via the
// NodeKernel& conversion, or (for a bare `system.AddNode("x");` statement)
// when the builder goes out of scope at the end of the statement. Station
// ids are therefore assigned in statement order, as before.
class NodeBuilder {
 public:
  NodeBuilder(const NodeBuilder&) = delete;
  NodeBuilder& operator=(const NodeBuilder&) = delete;

  ~NodeBuilder() {
    if (node_ == nullptr) {
      Build();
    }
  }

  NodeBuilder& WithKernel(KernelConfig config) {
    kernel_ = config;
    return *this;
  }
  NodeBuilder& WithDisk(DiskConfig config) {
    disk_ = config;
    return *this;
  }
  NodeBuilder& WithTransport(TransportConfig config) {
    transport_ = config;
    return *this;
  }
  // Selects the location backend (DESIGN.md §13) — or overrides the whole
  // locate configuration — for this node only.
  NodeBuilder& WithLocation(LocationBackend backend) {
    kernel_.locate.backend = backend;
    return *this;
  }
  NodeBuilder& WithLocation(const LocateConfig& locate) {
    kernel_.locate = locate;
    return *this;
  }
  // Pins this node to a specific shard (sharded systems only; the default is
  // round-robin placement).
  NodeBuilder& WithShard(uint32_t shard) {
    shard_ = static_cast<int>(shard);
    return *this;
  }

  // Creates the node (idempotent).
  NodeKernel& Build();
  operator NodeKernel&() { return Build(); }

 private:
  friend class EdenSystem;
  NodeBuilder(EdenSystem* system, std::string name);

  EdenSystem* system_;
  std::string name_;
  KernelConfig kernel_;
  DiskConfig disk_;
  TransportConfig transport_;
  int shard_ = -1;  // -1 = auto placement
  NodeKernel* node_ = nullptr;
};

class EdenSystem {
 public:
  explicit EdenSystem(SystemConfig config = {});

  EdenSystem(const EdenSystem&) = delete;
  EdenSystem& operator=(const EdenSystem&) = delete;

  // The primary simulation (shard 0 under the parallel engine). Setup-time
  // randomness (node rng forks, transport ids, object nonces) always draws
  // from this one so it is independent of the shard layout.
  Simulation& sim() { return sim_; }
  Lan& lan() { return lan_; }
  const SystemConfig& config() const { return config_; }

  // --- Parallel sharded engine (DESIGN.md §14) -------------------------------
  // Equivalent to SystemConfig::shards = n: flips the LAN into switched mode
  // and partitions subsequently-added nodes across n worker shards, each
  // with its own Simulation, synchronized conservatively with the LAN's
  // minimum wire latency as lookahead. Call before adding any node.
  EdenSystem& WithShards(size_t n);
  bool sharded() const { return engine_ != nullptr; }
  size_t shard_count() const { return engine_ ? engine_->shard_count() : 1; }
  // Simulation driving shard `s` (s == 0 is sim()).
  Simulation& shard_sim(size_t s) {
    return s == 0 ? sim_ : *extra_sims_[s - 1];
  }
  // Shard that owns node `index` (0 when unsharded).
  uint32_t node_shard(size_t index) const {
    return index < node_shard_.size() ? node_shard_[index] : 0;
  }
  ShardedEngine* engine() { return engine_.get(); }
  // Events executed across every shard (== sim().events_executed() when
  // unsharded).
  uint64_t total_events() const;

  // Adds a node machine to the installation, configured with the system-wide
  // defaults unless the returned builder overrides them.
  NodeBuilder AddNode(const std::string& name);
  // Adds `count` default-configured nodes named "node0".."node<count-1>".
  // Under the sharded engine, the batch is placed in contiguous blocks
  // (node i -> shard i*S/count) so ring/neighbor traffic stays shard-local.
  void AddNodes(size_t count);

  NodeKernel& node(size_t index) {
    assert(index < nodes_.size());
    return *nodes_[index];
  }
  size_t node_count() const { return nodes_.size(); }
  NodeKernel* NodeAt(StationId station);

  // --- Fault injection (chaos layer, DESIGN.md §11) ---------------------------
  // Arms `plan`: installs the injector's wire hook on the Lan and its disk
  // hooks on every node's stable store (nodes added later are hooked as they
  // are built), schedules the plan's partition and crash-restart timelines,
  // and counts each injected fault once, as fault.<kind> in metrics(). Every
  // injected fault is also reported to the telemetry flight recorder, when
  // telemetry is on. Call at most once.
  void EnableFaults(const FaultPlan& plan);
  FaultInjector* faults() { return fault_injector_.get(); }

  // --- Always-on telemetry (DESIGN.md §17) -----------------------------------
  // Builds the telemetry pipeline from config().telemetry and starts a
  // deterministic scrape chain on every shard. Idempotent; called by the
  // constructor when config.telemetry.enabled and re-run by WithShards so
  // late-created shards get chains too. Scrape ticks are ordered after all
  // same-instant events, so node digests and wire traffic are unchanged by
  // enabling telemetry (only the sim's internal event trace shifts).
  Telemetry& EnableTelemetry();
  // Null until EnableTelemetry has run.
  Telemetry* telemetry() { return telemetry_.get(); }
  const Telemetry* telemetry() const { return telemetry_.get(); }

  // --- Causal tracing (DESIGN.md §12) ----------------------------------------
  // Attaches one shared SpanCollector to every node kernel (present and
  // future), wiring it into the system metrics registry so trace.phase.*
  // histograms appear in Rollup(). Spans never schedule simulation events or
  // consume simulation randomness, so enabling tracing cannot change a run's
  // execution. nullptr detaches. The collector must outlive this system or be
  // detached first.
  void set_span_collector(SpanCollector* spans);
  SpanCollector* span_collector() { return span_collector_; }

  // --- Type registry ---------------------------------------------------------
  void RegisterType(std::shared_ptr<TypeManager> type);
  std::shared_ptr<TypeManager> FindType(const std::string& type_name) const;

  // --- Metrics ---------------------------------------------------------------
  // The system-wide registry: the lan.* and fault.* instruments live here.
  // The LAN counts per station, so its lan.* counters are current only after
  // PublishLanCounts() (which Rollup() and each unsharded telemetry scrape
  // call); lan.queue_delay is recorded as frames go out.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Publishes the LAN's per-station counts accrued since the last call to
  // the lan.* counters of metrics(), in both media. Under the sharded
  // engine, call it only between runs (shards quiescent).
  void PublishLanCounts() const;

  // Aggregates the system registry plus every node's registry into one
  // snapshot: counters and gauges sum, histograms merge bucket-wise. It
  // first publishes the LAN's counts (PublishLanCounts) and, under the
  // sharded engine, folds the per-shard span-phase registries; call it only
  // between runs (shards quiescent).
  MetricsRegistry Rollup() const;

  // JSON rendering of Rollup() (see MetricsRegistry::ToJson for the shape).
  std::string MetricsJson() const;

  // Folds every shard's span collector into the one passed to
  // set_span_collector, so post-run span analysis (critical paths,
  // exemplars) sees the whole installation. No-op when unsharded. Call
  // between runs.
  void MergeSpans();

  // --- Drive helpers (tests, examples, benchmarks) -----------------------------
  // Runs the simulation until the future resolves. Aborts if the event queue
  // drains first (a deadlock in the scenario under test).
  template <typename T>
  T Await(Future<T> future) {
    auto pending = [&future] { return !future.ready(); };
    bool done = engine_ != nullptr ? engine_->DriveWhile(pending)
                                   : sim_.RunWhile(pending);
    assert(done && "simulation deadlocked while awaiting a future");
    (void)done;
    return future.Get();
  }

  void RunFor(SimDuration duration) { RunUntil(sim_.now() + duration); }
  // Advances the whole installation (every shard, in parallel when sharded)
  // to exactly `deadline`.
  void RunUntil(SimTime deadline) {
    if (engine_ != nullptr) {
      engine_->RunUntil(deadline);
    } else {
      sim_.RunUntil(deadline);
    }
  }
  // Runs conservative single-threaded rounds while `pending()` is true (the
  // sharded counterpart of Simulation::RunWhile); plain RunWhile when
  // unsharded. Returns false if the world drained with `pending` still true.
  bool DriveWhile(const std::function<bool()>& pending) {
    return engine_ != nullptr ? engine_->DriveWhile(pending)
                              : sim_.RunWhile(pending);
  }

  // --- Elastic membership (DESIGN.md §16) ------------------------------------
  // Every node has a lifecycle: joining -> active -> draining -> departed.
  // The *member set* — the nodes that home directory partitions and are
  // eligible rebalance targets — is the joining + active nodes, recomputed on
  // every transition. A crashed node stays a member (crash != leave: its
  // directory slice is repaired by broadcast fallback and its objects
  // reincarnate from checkpoints); a draining node leaves the member set
  // immediately so its directory partitions hand off up front.
  //
  // All membership operations require the single-threaded world (shards == 0);
  // calling them on a sharded system is a FatalError.
  NodeLifecycle lifecycle(size_t index) const {
    assert(index < lifecycle_.size());
    return lifecycle_[index];
  }
  // Bumped on every member-set recomputation; directory handoffs and caches
  // are keyed monotonically by it.
  uint64_t membership_epoch() const { return membership_epoch_; }
  // Current members (joining + active), sorted by node index.
  const std::vector<Member>& members() const { return members_; }
  Placement& placement() { return *placement_; }
  Rebalancer& rebalancer() { return *rebalancer_; }
  // True while a LeaveNode drain must also evacuate the node's *passive*
  // state (checkpointed objects reactivate here, then move off; chains
  // anchored at this station resite). GracefulRestart drains without this —
  // checkpoints stay put and are re-published by the restart scan.
  bool drain_evacuates_passive(size_t index) const {
    return evacuate_passive_.count(index) > 0;
  }

  // Adds a node to a *running* installation. It serves directory traffic and
  // invocations immediately, and becomes an eligible rebalance/spread target
  // once the join warmup elapses.
  NodeKernel& JoinNode(const std::string& name);
  // Brings a departed node back: restarts it if crashed (checkpoint scan
  // re-publishes its passive objects), then runs the join warmup.
  Status RejoinNode(size_t index);
  // Removes a node. With drain (the default): hands off its directory
  // partitions now, then streams active objects off via the rebalancer,
  // reactivates + evacuates its checkpointed state, waits for in-flight
  // protocol work to settle, and only then detaches it from the wire —
  // zero lost invocations. Resolves OK when drained (TimeoutError if the
  // drain deadline passes first; the node departs regardless). Without
  // drain: immediate hard departure (equivalent to a crash that nobody
  // will restart).
  Future<Status> LeaveNode(size_t index, bool drain = true);
  // Rolling-restart primitive: drain (keeping checkpoints in place), depart,
  // stay down for `down_for`, then restart + rejoin.
  Future<Status> GracefulRestart(size_t index, SimDuration down_for);

 private:
  friend class NodeBuilder;

  NodeKernel& AddNodeWithConfig(const std::string& name, KernelConfig kernel,
                                DiskConfig disk, TransportConfig transport,
                                int shard = -1);
  // The collector nodes of shard `s` should record into: the user's
  // collector when unsharded, a lazily-created shard-local collector (with
  // a partitioned id space) otherwise.
  SpanCollector* ShardCollectorFor(uint32_t s);

  // FatalError unless this system can run membership transitions (unsharded,
  // node index valid).
  void RequireMembershipOp(const char* op, size_t index) const;
  void SetLifecycle(size_t index, NodeLifecycle lifecycle);
  // Recomputes members_, bumps the epoch, and notifies the placement policy
  // and every node's location service (directory partitions hand off here).
  void RebuildMembers();
  // Polls the rebalancer until node `index` is fully drained (or the drain
  // deadline passes, or the node crashes out from under the drain).
  Task<Status> AwaitDrain(size_t index);
  DetachedTask RunDrain(size_t index, Promise<Status> done);
  DetachedTask RunGracefulRestart(size_t index, SimDuration down_for,
                                  Promise<Status> done);
  // Final step of every departure: the node leaves the world (FailNode
  // detaches it from the wire) and is marked departed.
  void FinishDepart(size_t index);

  SystemConfig config_;
  Simulation sim_;
  // Holds lan.* instruments; must outlive (so precede) lan_.
  MetricsRegistry metrics_;
  Lan lan_;
  // Shards 1..S-1 (shard 0 is sim_). Unique_ptrs so Simulation needn't move.
  std::vector<std::unique_ptr<Simulation>> extra_sims_;
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<uint32_t> node_shard_;  // by node index
  uint32_t next_shard_rr_ = 0;        // round-robin cursor for single AddNode
  // Per-shard span collectors and the registries their phase histograms
  // record into; MergeSpans/Rollup fold them into the user-visible ones.
  std::vector<std::unique_ptr<SpanCollector>> shard_spans_;
  std::vector<std::unique_ptr<MetricsRegistry>> shard_span_metrics_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<Telemetry> telemetry_;
  SpanCollector* span_collector_ = nullptr;
  std::vector<std::unique_ptr<NodeKernel>> nodes_;
  std::map<std::string, std::shared_ptr<TypeManager>> types_;
  // --- Elastic membership state (DESIGN.md §16) ------------------------------
  std::vector<NodeLifecycle> lifecycle_;  // by node index
  std::vector<Member> members_;           // joining + active, by node index
  uint64_t membership_epoch_ = 0;
  std::unique_ptr<Placement> placement_;
  std::unique_ptr<Rebalancer> rebalancer_;
  std::set<size_t> evacuate_passive_;  // indices of evacuating drains
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_EDEN_SYSTEM_H_
