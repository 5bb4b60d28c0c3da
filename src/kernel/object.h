// In-memory structures for active objects. Mirrors Figure 4 of the paper: an
// object is (name, representation, type, short-term state). ObjectCore holds
// the name, representation and the crash-volatile short-term state;
// ActiveObject adds the kernel's per-object dispatch bookkeeping (the
// coordinator's view).
#ifndef EDEN_SRC_KERNEL_OBJECT_H_
#define EDEN_SRC_KERNEL_OBJECT_H_

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/checkpoint.h"
#include "src/kernel/message.h"
#include "src/kernel/representation.h"
#include "src/kernel/sync.h"
#include "src/kernel/type_manager.h"
#include "src/sim/simulation.h"

namespace eden {

// The object state reachable from running invocation handlers. Held by
// shared_ptr from every in-flight InvokeContext, so a crash (which marks the
// core dead and drops the kernel's reference) never dangles a suspended
// coroutine; post-crash writes land in a discarded core.
struct ObjectCore {
  ObjectName name;
  Representation rep;
  bool alive = true;
  // Bumped on every (re)activation; a reply produced by a stale incarnation
  // is discarded by the coordinator.
  uint64_t incarnation = 0;

  std::map<std::string, std::unique_ptr<Semaphore>> semaphores;
  std::map<std::string, std::unique_ptr<MessagePort>> ports;

  Semaphore& semaphore(const std::string& sem_name, int initial) {
    auto it = semaphores.find(sem_name);
    if (it == semaphores.end()) {
      it = semaphores.emplace(sem_name, std::make_unique<Semaphore>(initial)).first;
    }
    return *it->second;
  }

  MessagePort& port(const std::string& port_name) {
    auto it = ports.find(port_name);
    if (it == ports.end()) {
      it = ports.emplace(port_name, std::make_unique<MessagePort>()).first;
    }
    return *it->second;
  }

  // Crash: destroy short-term state. Every blocked P()/Receive() wakes with
  // `reason`; the representation is left in place for any still-running
  // handler but will never be checkpointed again.
  void Fail(const Status& reason) {
    alive = false;
    for (auto& [sem_name, sem] : semaphores) {
      sem->FailAll(reason);
    }
    for (auto& [port_name, port] : ports) {
      port->FailAll(reason);
    }
  }
};

// An invocation accepted by this node but not yet completed.
struct PendingDispatch {
  InvokeRequestMsg request;
  // True when the invoker is an object (or driver) on this same node: the
  // reply is completed in-process instead of transmitted.
  bool local = false;
  // The kDispatch span covering queueing + execution at this node (child of
  // the request's invocation span; invalid when tracing is off).
  SpanContext span;
  // Write-class dispatch counted in its object's lease_mutators_pending
  // (DESIGN.md §15); the count drops when this dispatch terminates.
  bool lease_mutator = false;
};

// A FIFO of dispatches. Most of these queues stay empty for their whole
// life, and a lease copy carries one per invocation class, so the container
// must allocate nothing while it is empty: a std::deque allocates a map and
// a node as soon as it is constructed.
using DispatchQueue = std::list<PendingDispatch>;

// Kernel bookkeeping for one active object (the coordinator's state).
struct ActiveObject {
  ObjectName name;
  std::shared_ptr<TypeManager> type;
  std::shared_ptr<ObjectCore> core;
  CheckpointPolicy policy;

  bool frozen = false;
  // True for a leased read-only copy (DESIGN.md §15), which lives in the
  // client's lease cache and never in active_; serves read-only operations.
  bool is_replica = false;
  // Reincarnation handler still running; arrivals wait in hold_queue.
  bool activating = false;
  // Move in progress; new arrivals wait in hold_queue, to be forwarded.
  bool moving = false;

  // Residence epoch (DESIGN.md §13): the simulation time this node acquired
  // the object (create, move-in, reincarnation). Stamped on every directory
  // update, locate reply and forwarding hint this host issues, so stale
  // location records lose to fresh ones everywhere they meet.
  uint64_t location_epoch = 0;

  // Per-invocation-class running counts and FIFO wait queues.
  std::vector<int> class_running;
  std::vector<DispatchQueue> class_queues;
  DispatchQueue hold_queue;

  int total_running = 0;
  uint64_t invocations_served = 0;

  // Delta-checkpoint chain bookkeeping (DESIGN.md §10). ckpt_has_base is
  // true once a full base record is durably placed at the primary site for
  // this activation; ckpt_chain_len counts the deltas written since. A fresh
  // arrival (create, move-in) starts with no base, forcing the first
  // checkpoint to write a full record.
  bool ckpt_has_base = false;
  uint64_t ckpt_chain_len = 0;
  // No-op checkpoint support: a checkpoint of an object whose representation
  // has no dirty bits — and whose policy/frozen flag match what the last
  // record captured — writes nothing and returns the last write's future
  // (durability is only claimed once that write lands).
  std::optional<Future<Status>> ckpt_pending;
  CheckpointPolicy ckpt_policy;
  bool ckpt_frozen = false;

  // Move support: RunMove waits here until running invocations drain down to
  // `drain_threshold` (1 = the invocation requesting the move itself).
  std::optional<Promise<Unit>> drain_waiter;
  int drain_threshold = 0;

  // --- Home-side lease state (DESIGN.md §15) -------------------------------
  struct LeaseHolder {
    SimTime expiry = 0;
    uint64_t seq = 0;
  };
  // A recall in flight: one write-class invocation hit live leases. Further
  // writes queue behind it; it resolves when every recalled holder releases
  // (and any reincarnation quiesce has passed) or the backstop timer fires
  // at the maximum outstanding expiry.
  struct LeaseRecall {
    uint64_t epoch = 0;
    uint64_t seq = 0;
    // Holders still owing a release (std::map: wire sends iterate this).
    std::map<StationId, LeaseHolder> waiting;
    EventId backstop_timer = kInvalidEventId;
    // The kLease span covering block -> cleared (child of the triggering
    // write's dispatch span; invalid when tracing is off).
    SpanContext span;
    // Write-class dispatches admitted only once the recall resolves.
    DispatchQueue write_queue;
    // Moves (and anything else) co_awaiting lease clearance.
    std::vector<Promise<Unit>> waiters;
  };
  // Stations holding an unexpired read lease (std::map: grant/recall sends
  // iterate this, so order must be deterministic).
  std::map<StationId, LeaseHolder> lease_holders;
  std::optional<LeaseRecall> lease_recall;
  // Per-object grant counter; (location_epoch, lease_seq) versions every
  // grant so late grants lose to recalls across moves and home crashes.
  uint64_t lease_seq = 0;
  // Write-class invocations admitted but not yet completed. While nonzero no
  // new lease is granted — a grant racing a queued or running mutation could
  // serve the pre-write state after the write commits.
  int lease_mutators_pending = 0;
  // Reincarnation quiesce (Gray & Cheriton's recovering-server rule): a
  // reborn home cannot know what leases its predecessor granted, so writes
  // wait until every pre-crash lease must have expired.
  SimTime lease_quiesce_until = 0;

  explicit ActiveObject(std::shared_ptr<TypeManager> type_manager)
      : type(std::move(type_manager)) {
    class_running.assign(type->classes().size(), 0);
    class_queues.resize(type->classes().size());
  }

  size_t QueuedCount() const {
    size_t total = hold_queue.size();
    for (const auto& queue : class_queues) {
      total += queue.size();
    }
    return total;
  }
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_OBJECT_H_
