// NodeKernel: the per-node Eden kernel (paper section 4). It supplies the
// primitives of section 4.5 — object/type creation, location-independent
// invocation, preservation of long-term state over failures, and intra-object
// communication — on top of the simulated LAN and stable store.
//
// One NodeKernel is one "node" in the paper's sense: an abstraction supplying
// virtual memory for active objects' segments and virtual processors for
// their invocations. A physical machine may host several node objects; in the
// simulation, several NodeKernels simply share the Lan.
#ifndef EDEN_SRC_KERNEL_NODE_KERNEL_H_
#define EDEN_SRC_KERNEL_NODE_KERNEL_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/kernel/context.h"
#include "src/kernel/location.h"
#include "src/kernel/message.h"
#include "src/kernel/object.h"
#include "src/kernel/type_manager.h"
#include "src/metrics/metrics.h"
#include "src/net/transport.h"
#include "src/sim/rng.h"
#include "src/storage/stable_store.h"
#include "src/trace/span.h"

namespace eden {

class EdenSystem;

struct KernelConfig {
  // Kernel-level costs, modeled on early-80s processor budgets (the paper
  // itself flags GDP invocation performance as "something of a question
  // mark"; these knobs are what bench_invocation sweeps).
  SimDuration dispatch_overhead = Microseconds(200);    // validate + dispatch
  SimDuration local_invoke_overhead = Microseconds(150);// same-node shortcut
  SimDuration remote_receive_overhead = Microseconds(250);  // network kernel path
  SimDuration serialize_per_kb = Microseconds(40);      // parameter copying
  SimDuration activation_overhead = Microseconds(500);  // build address space

  // End-to-end invocation management.
  SimDuration default_invoke_timeout = Seconds(30);
  SimDuration attempt_timeout = Seconds(2);  // per-host try before re-locate
  // Resolution attempts (locate rounds). Each round can heal one stale hop
  // of a forwarding chain, so this bounds the chain length that remains
  // recoverable after the node at the chain's end dies.
  int max_attempts = 5;
  int max_redirects = 8;

  // Location protocol (DESIGN.md §13): backend selection plus every locate
  // knob, gathered in one struct (builder: WithLocation).
  LocateConfig locate;

  // At-most-once server-side reply cache.
  size_t reply_cache_capacity = 4096;

  // Delta checkpoints (DESIGN.md §10). When enabled, a checkpoint of an
  // object whose base record is already durable writes only the dirty
  // segments; after checkpoint_delta_limit deltas (or whenever every segment
  // is dirty anyway) the chain is folded into a fresh base record.
  bool checkpoint_deltas = true;
  uint64_t checkpoint_delta_limit = 8;

  // Invocation attempt backoff (DESIGN.md §11). Attempt k waits
  // attempt_timeout * attempt_backoff^k before giving up on the host, capped
  // at attempt_timeout_max, with ±attempt_jitter (a fraction) of seeded
  // jitter so retry storms from many clients decorrelate.
  double attempt_backoff = 2.0;
  SimDuration attempt_timeout_max = Seconds(10);
  double attempt_jitter = 0.2;

  // Peer health (DESIGN.md §11). After suspect_after_failures consecutive
  // reliable-send failures to a peer, the peer is suspect: requests to it
  // fail fast into re-location while a cheap ping probe — retried with
  // probe_backoff up to probe_interval_max — gates its return to service.
  bool peer_health = true;
  int suspect_after_failures = 3;
  SimDuration probe_interval = Milliseconds(200);
  double probe_backoff = 2.0;
  SimDuration probe_interval_max = Seconds(5);

  // Activation fallback (DESIGN.md §11). When the primary checkpoint chain
  // is corrupt or torn, reincarnation tries the local mirror chain, then the
  // longest intact chain prefix, before declaring data loss; an unusable
  // chain is quarantined so locates stop landing on it.
  bool restore_fallback = true;

  // Lease-based read caching of mutable objects (DESIGN.md §15). Off by
  // default: leases change which node executes a read, so runs that pin
  // digests keep their exact traffic unless they opt in.
  bool lease_reads = false;
  // Lease term. Longer = fewer grants and renewals, but a lost recall (or a
  // crashed holder) blocks writers for up to this long.
  SimDuration lease_duration = Milliseconds(500);
  // A holder whose lease expires within this margin routes the read to the
  // home instead of serving it locally; the reply piggybacks a renewal.
  SimDuration lease_renew_margin = Milliseconds(100);
};

struct CreateOptions {
  // Default policy: long-term state at the creating node, kLocal level.
  std::optional<CheckpointPolicy> policy;
};

class NodeKernel {
 public:
  // `shard_sim` is the simulation that drives this node — its shard's event
  // queue and clock under the parallel engine; nullptr means the system's
  // primary simulation (the unsharded default).
  NodeKernel(EdenSystem& system, std::string node_name, KernelConfig config = {},
             DiskConfig disk = {}, TransportConfig transport = {},
             Simulation* shard_sim = nullptr);
  ~NodeKernel();

  NodeKernel(const NodeKernel&) = delete;
  NodeKernel& operator=(const NodeKernel&) = delete;

  StationId station() const { return transport_->station_id(); }
  const std::string& node_name() const { return node_name_; }

  // --- Object lifecycle -----------------------------------------------------
  // Creates an active object of a registered type with the given initial
  // representation. The object is immediately invokable; it has NO long-term
  // state until its first checkpoint.
  StatusOr<Capability> CreateObject(const std::string& type_name,
                                    Representation initial,
                                    CreateOptions options = {});

  // Forces a checkpoint of an active object (driver-side convenience; type
  // code uses InvokeContext::Checkpoint).
  Future<Status> CheckpointObject(const ObjectName& name);

  // Requests migration of an active object to another node. Normally invoked
  // from within the object (InvokeContext::RequestMove); exposed for policy
  // drivers and tests. A valid `parent` parents the kMove span; a driver call
  // without one mints a root move trace. `drain_threshold` is how many
  // invocations may still be running when the rep is serialized: 0 for
  // driver/rebalancer moves (full quiesce), 1 when the requesting invocation
  // itself is the caller (it is still counted as running).
  Future<Status> MoveObject(const std::shared_ptr<ActiveObject>& object,
                            StationId destination,
                            const SpanContext& parent = {},
                            int drain_threshold = 0);

  // --- Invocation (driver side) ----------------------------------------------
  // Location-independent invocation from outside any object (applications,
  // tests, benchmarks). Per-call knobs (timeout, trace label, metrics class)
  // travel in InvokeOptions, taken by const reference — see the note on
  // kDefaultInvokeOptions for why the default is a named constant.
  Future<InvokeResult> Invoke(const Capability& target, const std::string& op,
                              InvokeArgs args = {},
                              const InvokeOptions& options = kDefaultInvokeOptions);

  // --- Failure injection ------------------------------------------------------
  // Node failure: all volatile state (active objects, caches, in-flight
  // messages) is lost; the stable store survives.
  void FailNode();
  void RestartNode();
  bool failed() const { return failed_; }

  // Promotes a mirror checkpoint record to primary at THIS node, after the
  // original primary site is permanently lost (administrative recovery).
  Future<Status> PromoteMirror(const ObjectName& name);

  // --- Elastic membership / drain (DESIGN.md §16) ----------------------------
  // While draining, this kernel refuses new lease grants (so the drain is not
  // extended by freshly-minted holder state). Set by EdenSystem::LeaveNode.
  void set_draining(bool draining) { draining_ = draining; }
  bool draining() const { return draining_; }

  // True when departure would lose nothing volatile: no active objects (leased
  // copies excepted — their state is reconstructible, and recalls backstop by
  // expiry), no activations, and no in-flight client/move/ack protocol
  // entries originated here.
  bool DrainIdle() const;

  // Names of active objects (sorted; rebalancer evacuation set).
  std::vector<ObjectName> ActiveObjects() const;
  // Names of live active objects whose checkpoint policy writes to station
  // `site` (primary or mirror): the resite set when `site` drains.
  std::vector<ObjectName> ActiveObjectsWithPolicySite(StationId site) const;
  // Names behind base checkpoint records in this node's store (sorted). A
  // drain that must evacuate passively-stored state is complete only once
  // this is empty.
  std::vector<ObjectName> CheckpointInventory() const;

  // Reincarnates a passive object from this node's store so the rebalancer
  // can move it off (drain of passive state). No-op if already active or
  // activating here.
  void Reactivate(const ObjectName& name);

  // Rewrites an active object's checkpoint policy and forces a full base
  // checkpoint at the new site(s); once that lands, the chains at the old
  // sites are erased. Used by the rebalancer to pull long-term state off a
  // draining store. Returns the checkpoint future (ok once the new chain is
  // durable).
  Future<Status> ResiteCheckpoint(const ObjectName& name,
                                  const CheckpointPolicy& policy);

  // --- Introspection ------------------------------------------------------------
  bool IsActive(const ObjectName& name) const { return active_.count(name) > 0; }
  bool IsActivating(const ObjectName& name) const {
    return activating_.count(name) > 0;
  }
  // A leased read-only copy (DESIGN.md §15), a frozen object's included.
  bool HasReplica(const ObjectName& name) const { return lease_cache_.count(name) > 0; }
  bool HasCheckpoint(const ObjectName& name) const;
  // Peer-health introspection (tests, policy drivers): whether `peer` is
  // currently suspect, and its consecutive-failure count (0 when healthy —
  // healthy peers carry no state at all).
  bool PeerSuspect(StationId peer) const;
  int PeerConsecutiveFailures(StationId peer) const;
  std::shared_ptr<ActiveObject> FindActive(const ObjectName& name) const;
  size_t active_count() const { return active_.size(); }

  // Attaches the shared causal-span collector (DESIGN.md §12) and propagates
  // it to the owned transport and store. Spans never schedule simulation
  // events or consume simulation randomness, so attaching a collector cannot
  // change execution. The collector must outlive this kernel; nullptr
  // detaches.
  void set_spans(SpanCollector* spans) {
    spans_ = spans;
    transport_->set_spans(spans);
    store_->set_spans(spans, station());
  }

  StableStore& store() { return *store_; }
  Transport& transport() { return *transport_; }
  // The location backend this kernel resolves through (DESIGN.md §13).
  LocationService& location() { return *location_; }
  const LocationService& location() const { return *location_; }
  // This node's metrics: kernel.* counters and latency histograms, plus the
  // store.* and transport.* instruments of the owned subsystems.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const KernelConfig& config() const { return config_; }
  EdenSystem& system() { return system_; }
  // This node's driving simulation (its shard's under the parallel engine).
  Simulation& sim() { return *sim_; }

  // Order-sensitive digest of every message this node received: mixes
  // (arrival time, source, payload hash) per message. Because it is built
  // entirely from one node's inbound stream, it is the per-node determinism
  // oracle for parallel runs — serial and sharded executions of the same
  // seed must produce identical digests (tests/parallel_sim_test.cc).
  const Digest& digest() const { return digest_; }

 private:
  friend class InvokeContext;
  friend class BroadcastLocation;
  friend class DirectoryLocation;

  // --- Client-side invocation state machine ---------------------------------
  struct PendingInvocation {
    Promise<InvokeResult> promise;
    Capability target;
    std::string operation;
    InvokeArgs args;
    EventId user_timer = kInvalidEventId;
    EventId attempt_timer = kInvalidEventId;
    int attempts = 0;
    int redirects = 0;
    // Host the request was last sent to, and every host that proved dead or
    // ignorant so far (forwarded to target kernels as avoid_hosts).
    StationId current_host = kNoStation;
    std::set<StationId> dead_hosts;
    // Latency accounting: start time, whether the request ever left this
    // node, and the caller's metrics class (empty = unclassified).
    SimTime started = 0;
    bool went_remote = false;
    std::string metrics_class;
    // The kInvocation span covering this invocation end to end (a root when
    // the caller is a driver, a child of the calling invocation's dispatch
    // span otherwise; invalid when tracing is off).
    SpanContext span;
  };

  struct PendingLocate {
    ObjectName name;
    std::vector<uint64_t> waiting;  // invocation ids
    int attempts = 0;
    EventId timer = kInvalidEventId;
    SimTime started = 0;
    // kLocate span, child of the first waiting invocation's span.
    SpanContext span;
  };

  struct PendingAck {
    Promise<Status> promise;
    EventId timer = kInvalidEventId;
  };

  struct PendingMove {
    Promise<Status> promise;
    std::shared_ptr<ActiveObject> object;
    StationId destination = 0;
    EventId timer = kInvalidEventId;
    SpanContext span;  // kMove span, open until ack / timeout
  };

  // --- Causal spans (DESIGN.md §12) ------------------------------------------
  // StartSpan opens a child of `parent`, or a new root trace when `parent` is
  // invalid; ChildSpan additionally requires a valid parent (mid-path spans
  // must never mint root traces of their own). All three are no-ops without a
  // collector and return/accept invalid contexts freely, so call sites need
  // no guards.
  SpanContext StartSpan(const SpanContext& parent, SpanKind kind,
                        const ObjectName& object, std::string_view label) {
    if (spans_ == nullptr) {
      return {};
    }
    return spans_->StartSpan(parent, kind, station(), object, label,
                             sim().now());
  }
  SpanContext ChildSpan(const SpanContext& parent, SpanKind kind,
                        const ObjectName& object, std::string_view label) {
    if (spans_ == nullptr || !parent.valid()) {
      return {};
    }
    return spans_->StartSpan(parent, kind, station(), object, label,
                             sim().now());
  }
  void EndSpan(const SpanContext& ctx, std::string_view status = {}) {
    if (spans_ != nullptr && ctx.valid()) {
      spans_->EndSpan(ctx, sim().now(), status);
    }
  }
  void AnnotateSpan(const SpanContext& ctx, std::string_view note) {
    if (spans_ != nullptr && ctx.valid()) {
      spans_->Annotate(ctx, sim().now(), note);
    }
  }

  uint64_t NewInvocationId();
  uint64_t StartInvocation(const Capability& target, const std::string& op,
                           InvokeArgs args, const InvokeOptions& options,
                           Promise<InvokeResult> promise,
                           const SpanContext& parent_span);
  void TryResolve(uint64_t id);
  void SendRequestTo(uint64_t id, StationId host);
  void DispatchLocally(uint64_t id, std::shared_ptr<ActiveObject> object);
  void StartLocate(uint64_t id);
  void LocateAttempt(uint64_t query_id);
  // Shared locate machinery driven by the LocationService backends
  // (location.h). ResolveLocate completes the pending locate with a learned
  // residence; OnLocateRoundFailed counts a round against the budget and
  // either retries or gives up; RetryLocateNow short-circuits the round
  // timer (a directory miss falls back to broadcast without waiting).
  void ResolveLocate(uint64_t query_id, StationId host, uint64_t epoch,
                     bool active);
  void OnLocateRoundFailed(uint64_t query_id);
  void RetryLocateNow(uint64_t query_id);
  // Merges a residence sighting into the location cache: strictly newer
  // epoch wins, equal-epoch active beats passive, older is dropped.
  void CacheLocation(const ObjectName& name, const ResidenceRecord& record);
  // Stamps `object` as acquired now and publishes the residence to the
  // location backend. The epoch is returned (move acks carry it).
  uint64_t PublishResidenceHere(const std::shared_ptr<ActiveObject>& object);
  void CompleteInvocation(uint64_t id, InvokeResult result);
  void OnAttemptTimeout(uint64_t id);
  // Mark this attempt's host dead, count the attempt, and either re-locate
  // or complete with `give_up_message` if the attempt budget is spent.
  void FailAttempt(uint64_t id, StationId host, const char* give_up_message);
  // Per-host attempt timeout: exponential in `attempts` with seeded jitter.
  SimDuration AttemptTimeout(int attempts, size_t bytes);

  // --- Peer health (DESIGN.md §11) -------------------------------------------
  struct PeerState {
    enum class Mode { kHealthy, kSuspect };
    Mode mode = Mode::kHealthy;
    int consecutive_failures = 0;
    int probes_sent = 0;
    EventId probe_timer = kInvalidEventId;
  };
  void ReportPeerAlive(StationId peer);
  void ReportPeerFailure(StationId peer);
  void SchedulePeerProbe(StationId peer);
  void SendPeerProbe(StationId peer);

  // --- Message plumbing --------------------------------------------------------
  // OnMessage decodes each message as the type its kind names and calls the
  // Handle overload for that type.
  void OnMessage(StationId src, BytesView message);
  void Handle(StationId src, InvokeRequestMsg msg);
  void Handle(StationId src, InvokeReplyMsg msg);
  void Handle(StationId src, const InvokeRedirectMsg& msg);
  void Handle(StationId src, const LocateRequestMsg& msg);
  void Handle(StationId src, const LocateReplyMsg& msg);
  void Handle(StationId src, MoveTransferMsg msg);
  void Handle(StationId src, const MoveAckMsg& msg);
  void Handle(StationId src, CheckpointPutMsg msg);
  void Handle(StationId src, const CheckpointAckMsg& msg);
  void Handle(StationId src, const CheckpointEraseMsg& msg);
  // A health probe: the transport-level ack already answered it.
  void Handle(StationId src, const PingMsg& msg) {}
  void Handle(StationId src, const DirectoryUpdateMsg& msg) {
    location_->HandleDirectoryUpdate(src, msg);
  }
  void Handle(StationId src, const DirectoryLookupMsg& msg) {
    location_->HandleDirectoryLookup(src, msg);
  }
  void Handle(StationId src, const DirectoryReplyMsg& msg) {
    location_->HandleDirectoryReply(msg);
  }
  void Handle(StationId src, LeaseGrantMsg msg);
  void Handle(StationId src, const LeaseRecallMsg& msg);
  void Handle(StationId src, const LeaseReleaseMsg& msg);
  // Sends `encoded` reliably to `dst` once `delay`, its marshalling cost, has
  // passed, unless this node has failed by then. A reply pays the receive
  // overhead plus SerializeCost of its size. Requests, lease grants,
  // checkpoint puts and move transfers pay SerializeCost(0), one unit
  // whatever their size: every seeded pin was recorded with that cost, and
  // charging their true size moves each pin that sends 1 KB or more.
  void SendAfter(SimDuration delay, StationId dst, Bytes encoded,
                 const SpanContext& span = {});

  // --- Read leases (DESIGN.md §15) -------------------------------------------
  // Home side. MaybeGrantLease runs as a read-class invocation from station
  // `reader` completes: it grants a fresh lease (pushing a LeaseGrant with a
  // representation snapshot) or renews an existing one, and returns the
  // absolute expiry to piggyback on the reply (0 = no lease). A frozen object
  // gets a grant that never expires and records no holder: nothing can
  // invalidate its snapshot, so nothing is ever recalled. StartLeaseRecall
  // opens the recall window for a write-class dispatch `d` that hit live
  // leases (or the reincarnation quiesce); FinishLeaseRecall closes it —
  // normally on the last release, or from the backstop timer at the maximum
  // outstanding expiry when releases were lost.
  uint64_t MaybeGrantLease(const std::shared_ptr<ActiveObject>& object,
                           StationId reader);
  // Pushes a LeaseGrant of `object`'s current representation to `reader`
  // under the next lease version, and returns that version's seq.
  uint64_t SendLeaseGrant(const std::shared_ptr<ActiveObject>& object,
                          StationId reader, SimTime expiry);
  // True when a write-class dispatch must wait: live leases, a recall already
  // open, or the post-reincarnation quiesce window.
  bool LeaseWriteBlocked(const std::shared_ptr<ActiveObject>& object);
  // Opens the recall window without queueing a write (RunMove waits out
  // leases this way); StartLeaseRecall opens it for — and queues — a blocked
  // write-class dispatch.
  void OpenLeaseRecall(const std::shared_ptr<ActiveObject>& object,
                       const SpanContext& parent);
  void StartLeaseRecall(const std::shared_ptr<ActiveObject>& object,
                        PendingDispatch d);
  void FinishLeaseRecall(const std::shared_ptr<ActiveObject>& object,
                         std::string_view how);
  // Drops every lease granted by this home for `object` without recall
  // (crash/destroy/move teardown): cancels the backstop, fails or drains the
  // queued writes via `refuse` (null = re-admit through AcceptDispatch), and
  // resolves waiters.
  void TeardownLeases(const std::shared_ptr<ActiveObject>& object,
                      const Status* refuse);

  // --- Server-side dispatch (the coordinator) ------------------------------------
  void AcceptDispatch(const std::shared_ptr<ActiveObject>& object, PendingDispatch d);
  DetachedTask RunInvocation(std::shared_ptr<ActiveObject> object, PendingDispatch d,
                             const OperationSpec* op);
  void FinishDispatch(const std::shared_ptr<ActiveObject>& object, size_t class_index);
  void PumpQueues(const std::shared_ptr<ActiveObject>& object);
  void ReplyTo(const PendingDispatch& d, InvokeResult result,
               uint64_t lease_renew_expiry = 0);
  void RefuseDispatch(const PendingDispatch& d, Status status);
  void CacheReply(uint64_t invocation_id, const ObjectName& object,
                  const InvokeResult& result);
  SimDuration SerializeCost(size_t bytes) const;

  // --- Activation (reincarnation) -------------------------------------------------
  // `parent` (when valid) parents the kActivation span to whichever request
  // first forced the passive object back to life.
  void BeginActivation(const ObjectName& name, const SpanContext& parent = {});
  DetachedTask RunActivation(ObjectName name, SpanContext parent);
  // Result of replaying a checkpoint chain from the store. `corrupt_at` is
  // the first unusable delta link (base failures surface as a non-OK status
  // instead); links [1, corrupt_at) are already applied to `rep` when
  // `prefix_ok` is set, so a fallback can resume from that prefix.
  struct RestoredChain {
    std::string type_name;
    CheckpointPolicy policy;
    bool frozen = false;
    Representation rep;
    uint64_t chain_len = 0;
    uint64_t corrupt_at = 0;
    bool corrupt = false;
    bool prefix_ok = false;
  };
  // Reads base + delta chain for `name`. Non-OK when the base record is
  // missing (kNotFound) or unreadable/corrupt (kDataLoss); OK otherwise,
  // with `out.corrupt` flagging a bad delta link partway down the chain.
  Task<Status> ReadCheckpointChain(const ObjectName& name, RestoredChain& out,
                                   const SpanContext& parent = {});
  void StartBehaviors(const std::shared_ptr<ActiveObject>& object);
  Task<void> RunBehavior(std::shared_ptr<ActiveObject> object, std::string name,
                         BehaviorBody body);

  // --- Checkpoint / crash / destroy / move / freeze (via InvokeContext) ------------
  Future<Status> CheckpointForObject(const std::shared_ptr<ActiveObject>& object,
                                     const SpanContext& parent = {});
  Bytes EncodeCheckpointRecord(const ActiveObject& object,
                               CheckpointRecordKind kind) const;
  // delta_seq 0 writes a base record (and erases any stale delta chain);
  // k > 0 appends link k. The record rides refcounted — a mirrored local
  // write shares the same buffer.
  Future<Status> WriteCheckpoint(const ObjectName& name, SharedBytes record,
                                 uint64_t delta_seq,
                                 const CheckpointPolicy& policy,
                                 const SpanContext& parent = {});
  Future<Status> WriteLocalCheckpoint(const ObjectName& name, SharedBytes record,
                                      uint64_t delta_seq, bool is_mirror,
                                      const SpanContext& parent = {});
  Future<Status> SendRemoteCheckpoint(const ObjectName& name, SharedBytes record,
                                      uint64_t delta_seq, StationId site,
                                      bool is_mirror,
                                      const SpanContext& parent = {});
  // Deletes delta links `from_seq`, `from_seq`+1, ... while they exist.
  void EraseDeltaChain(const ObjectName& name, bool is_mirror,
                       uint64_t from_seq = 1);
  Task<Status> CopyMirrorChain(ObjectName name);
  void CrashObject(const std::shared_ptr<ActiveObject>& object, const Status& reason);
  void DestroyObject(const std::shared_ptr<ActiveObject>& object);
  DetachedTask RunMove(std::shared_ptr<ActiveObject> object, StationId destination,
                       Promise<Status> done, SpanContext parent,
                       int drain_threshold);

  static std::string CheckpointKey(const ObjectName& name) {
    return "ckpt/" + name.ToKey();
  }
  static std::string MirrorKey(const ObjectName& name) {
    return "mirror/" + name.ToKey();
  }
  // Delta link k of the (primary or mirror) chain: "<base key>#d<k>".
  static std::string DeltaKey(const ObjectName& name, uint64_t seq,
                              bool is_mirror) {
    return (is_mirror ? MirrorKey(name) : CheckpointKey(name)) + "#d" +
           std::to_string(seq);
  }

  // Cached Counter pointers into metrics_ for the kernel's hot paths (the
  // registry names are set in InitMetrics).
  struct KernelCounters {
    Counter* invocations_started = nullptr;
    Counter* invocations_local = nullptr;
    Counter* invocations_remote = nullptr;
    Counter* invocations_completed = nullptr;
    Counter* invocations_timed_out = nullptr;
    Counter* invocations_unavailable = nullptr;
    Counter* dispatches = nullptr;
    Counter* rights_denied = nullptr;
    Counter* queue_refusals = nullptr;
    // Backend-tagged locate query rounds (kernel.locate.queries.<backend>)
    // plus the directory.* instruments (DESIGN.md §13).
    Counter* locate_queries_broadcast = nullptr;
    Counter* locate_queries_directory = nullptr;
    Counter* locate_cache_hits = nullptr;
    Counter* directory_lookups = nullptr;
    Counter* directory_updates = nullptr;
    Counter* directory_stale_updates = nullptr;
    Counter* directory_stale_forwards = nullptr;
    Counter* directory_fallbacks = nullptr;
    Counter* directory_repairs = nullptr;
    Counter* directory_handoffs = nullptr;
    Counter* redirects_followed = nullptr;
    Counter* activations = nullptr;
    Counter* checkpoints = nullptr;
    Counter* checkpoint_bases = nullptr;
    Counter* checkpoint_deltas = nullptr;
    Counter* checkpoint_noops = nullptr;
    Counter* checkpoint_record_bytes = nullptr;
    Counter* crashes = nullptr;
    Counter* moves_out = nullptr;
    Counter* moves_in = nullptr;
    Counter* duplicate_requests = nullptr;
    Counter* lease_grants = nullptr;
    Counter* lease_recalls = nullptr;
    Counter* lease_renewals = nullptr;
    Counter* lease_expiries = nullptr;
    Counter* lease_local_reads = nullptr;
    Counter* peer_suspects = nullptr;
    Counter* peer_probes = nullptr;
    Counter* peer_recoveries = nullptr;
    Counter* suspect_fast_fails = nullptr;
    Counter* restore_fallbacks = nullptr;
    Counter* restore_quarantines = nullptr;
  };
  void InitMetrics();
  void RecordInvocationLatency(const PendingInvocation& pending, bool ok);
  void UpdateActiveGauge() {
    metrics_.gauge("kernel.objects.active")
        .Set(static_cast<int64_t>(active_.size()));
  }

  EdenSystem& system_;
  std::string node_name_;
  // The simulation this node schedules through (see the constructor).
  Simulation* sim_;
  Digest digest_;
  KernelConfig config_;
  // Kernel-private randomness (attempt jitter), forked from the simulation
  // seed so chaotic runs stay reproducible.
  Rng rng_;
  // Declared before the transport and store, which hold pointers into it.
  MetricsRegistry metrics_;
  KernelCounters counters_;
  Histogram* invoke_latency_local_ = nullptr;
  Histogram* invoke_latency_remote_ = nullptr;
  Histogram* locate_latency_ = nullptr;
  Histogram* checkpoint_latency_ = nullptr;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<StableStore> store_;
  // The pluggable location backend (DESIGN.md §13); constructed after the
  // transport it sends through.
  std::unique_ptr<LocationService> location_;
  bool failed_ = false;
  bool draining_ = false;

  // active_ stays ordered: FailNode's iteration completes promises, so its
  // order is observable in the execution trace (determinism_test).
  std::map<ObjectName, std::shared_ptr<ActiveObject>> active_;
  // Behavior coroutines, owned so a frame still suspended when the kernel is
  // torn down is destroyed instead of leaked (a behavior parked on a sleep or
  // checkpoint future holds its object alive). A behavior that observes
  // !alive() exits on its next resume; finished frames are reaped lazily in
  // StartBehaviors.
  std::vector<Task<void>> behaviors_;
  // Forwarding hints left behind by moves, stamped with the destination's
  // residence epoch (from its move ack) so redirects are versioned.
  std::map<ObjectName, ResidenceRecord> forwarding_;
  // Pure point-lookup table: never iterated where order is observable.
  // Entries merge by epoch (CacheLocation) — lazy invalidation.
  std::unordered_map<ObjectName, ResidenceRecord, ObjectNameHash>
      location_cache_;

  // Peers with recent consecutive send failures (healthy peers are absent).
  // Iterated only to cancel probe timers on node failure.
  std::unordered_map<StationId, PeerState> peers_;

  // The id tables on the request path are hashed. FailNode, the one loop
  // over pending_invocations_ whose order is observable, sorts by id.
  std::unordered_map<uint64_t, PendingInvocation> pending_invocations_;
  // Iterated only to cancel timers on node failure (order-insensitive).
  std::unordered_map<uint64_t, PendingLocate> pending_locates_;
  std::map<ObjectName, uint64_t> locate_by_name_;
  std::map<uint64_t, PendingAck> pending_acks_;
  std::map<uint64_t, PendingMove> pending_moves_;

  // Reincarnations in progress: invocations that arrived for the passive
  // object wait here until the reincarnation handler finishes.
  std::set<ObjectName> activating_;
  std::map<ObjectName, std::vector<uint64_t>> activation_local_waiters_;
  std::map<ObjectName, DispatchQueue> activation_remote_hold_;

  // --- Client-side lease cache (DESIGN.md §15) -------------------------------
  // One entry per object this node holds a read lease on. `replica` is a
  // frozen local copy built from the grant's representation snapshot;
  // read-class invocations dispatch into it with zero network traffic until
  // `expiry` (kSimTimeNever for a frozen object's copy). Never iterated
  // (FailNode only clears it); it stays an ordered map because hashing it
  // measured no faster.
  struct LeaseEntry {
    std::shared_ptr<ActiveObject> replica;
    SimTime expiry = 0;
    StationId home = kNoStation;
    uint64_t epoch = 0;
    uint64_t seq = 0;
  };
  std::map<ObjectName, LeaseEntry> lease_cache_;
  // Highest recall version answered (or grant dropped) per object: a grant
  // versioned <= this floor arrived late and is refused, so a recalled lease
  // can never resurrect. Bounded by the number of leased objects; entries
  // die with the node (leases are volatile state).
  std::map<ObjectName, std::pair<uint64_t, uint64_t>> lease_floor_;

  // Server-side at-most-once execution. Cached replies remember which object
  // produced them so a move can carry the object's entries to the new host
  // (a retry that lands post-move must re-reply, not re-execute). Both
  // tables are hashed; RunMove sorts the replies it carries by id, and
  // reply_cache_order_ keeps eviction FIFO.
  struct CachedReply {
    InvokeResult result;
    ObjectName object;
  };
  std::unordered_set<uint64_t> requests_in_progress_;
  std::unordered_map<uint64_t, CachedReply> reply_cache_;
  std::deque<uint64_t> reply_cache_order_;

  uint64_t next_invocation_seq_ = 1;
  uint64_t next_object_seq_ = 1;
  uint64_t next_query_id_ = 1;
  uint64_t next_request_id_ = 1;
  uint64_t next_transfer_id_ = 1;

  SpanCollector* spans_ = nullptr;
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_NODE_KERNEL_H_
