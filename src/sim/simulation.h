// The discrete-event simulation driver. One Simulation instance is "a
// world": it owns virtual time and an event queue; node kernels, the LAN and
// stable stores all schedule work through it. Each instance is
// single-threaded and deterministic by construction; the parallel sharded
// engine (sharded_engine.h) runs several instances side by side, one per
// worker thread, and keeps them causally consistent with conservative
// lookahead synchronization.
//
// The event queue is allocation-free on the steady-state path: callbacks
// live in a free-list pool of generation-tagged slots (EventId = generation
// + slot index), and the queue itself is an indexed 4-ary min-heap of
// 32-byte keys. Each slot records its entry's heap position, so Cancel
// removes the entry at once (O(log n)) and the heap holds exactly the live
// events. Most timers never fire — a remote invocation cancels a 10 s
// invocation timer and a 2 s attempt timer — so skipping cancelled entries
// lazily would leave hundreds of stale entries per live one, and every push
// and pop would pay for them.
//
// Same-timestamp ordering is governed by a canonical key (domain, stream,
// seq) rather than a single global sequence number, so the order is a pure
// function of the simulated system's state and not of how the node set is
// partitioned across shards:
//   * Events scheduled without an explicit key inherit the domain of the
//     event currently executing (0 at top level) and draw a per-domain
//     sequence number. A purely serial run therefore keeps today's global
//     FIFO order bit-for-bit: everything is domain 0, and the domain-0
//     counter is the old global counter.
//   * Cross-entity handoffs that must order identically regardless of shard
//     layout (switched-LAN frame deliveries) are scheduled with an explicit
//     key: domain = receiver, stream = sender, seq = the sender's per-pair
//     frame count — all quantities independent of the partition.
// Trace digests are unchanged seed-for-seed for legacy (unkeyed) runs
// (tests/determinism_test.cc proves it).
#ifndef EDEN_SRC_SIM_SIMULATION_H_
#define EDEN_SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/sim/event_fn.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace eden {

// Identifies a scheduled event so it can be cancelled (e.g. invocation
// timeouts whose reply arrived in time). Encodes {generation, slot}; ids are
// never reused until a slot's 32-bit generation wraps.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `fn` to run at now() + delay (delay >= 0). Returns an id that
  // can be passed to Cancel. The event inherits the currently-executing
  // event's ordering domain (see the header comment). The schedule calls
  // take the callable by reference, so it is moved once, into its slot.
  EventId Schedule(SimDuration delay, EventFn&& fn);
  EventId ScheduleAt(SimTime when, EventFn&& fn);

  // Schedules with an explicit canonical order key. Same-timestamp events
  // order by (domain, stream, seq); the caller owns seq monotonicity within
  // its (domain, stream) pair. Used for cross-shard-safe handoffs whose
  // relative order must not depend on the shard layout.
  EventId ScheduleAtKeyed(SimTime when, uint32_t domain, uint32_t stream,
                          uint64_t seq, EventFn&& fn);

  // Cancels a pending event, removing it from the queue in O(log n).
  // Cancelling an already-fired, already-cancelled or unknown id is a no-op
  // (the common race: a timeout firing at the same instant the reply lands).
  void Cancel(EventId id);

  // Runs a single event. Returns false if the queue is empty.
  bool Step();

  // Runs events until the queue drains or `max_events` fire.
  void Run(uint64_t max_events = UINT64_MAX);

  // Runs events with timestamp <= deadline; clock ends at exactly `deadline`
  // if the queue drains or the next event is later.
  void RunUntil(SimTime deadline);
  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  // Runs events while `pending()` is true. Returns true when the wait
  // succeeded (pending became false); returns false when the event queue
  // drained with `pending` still true — the caller's condition can then
  // never be met (a deadlock in the scenario under test).
  bool RunWhile(const std::function<bool()>& pending);

  // Conservative-window primitive for the sharded engine: runs every event
  // with timestamp strictly BEFORE `bound` and leaves the clock at the last
  // executed event (never advanced to `bound` — later windows may still
  // ingest cross-shard deliveries inside this one).
  void RunEventsBefore(SimTime bound);

  // Timestamp of the next event, or kSimTimeNever if the queue is empty.
  SimTime PeekNextEventTime() const {
    return heap_.empty() ? kSimTimeNever : heap_.front().when;
  }

  uint64_t events_executed() const { return events_executed_; }
  // Live (scheduled, not cancelled, not fired) events: the heap's size.
  size_t pending_events() const { return heap_.size(); }

  // Trace digest: Step() mixes every executed event's (when, seq) — plus the
  // order key for keyed events — into this, and components may Mix()
  // additional state transitions. Determinism tests assert equal digests for
  // equal seeds.
  Digest& trace() { return trace_; }

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;
  // Children of heap position i sit at kArity*i + 1 .. kArity*i + kArity:
  // half the depth of a binary heap, and one sibling group spans two cache
  // lines of 32-byte entries.
  static constexpr size_t kArity = 4;

  // Callback storage, recycled through a free list. A slot's generation
  // bumps every time it is released, so an EventId of a fired or cancelled
  // event never matches its slot again.
  struct Slot {
    uint32_t generation = 1;
    uint32_t heap_pos = kNoSlot;  // kNoSlot unless the event is pending
    uint32_t next_free = kNoSlot;
    EventFn fn;
  };

  // One heap entry: 32 bytes, no callable. Keys are unique, so the pop
  // order is a total order that does not depend on the heap's shape.
  struct HeapEntry {
    SimTime when;
    uint64_t order;  // (domain << 32) | stream
    uint64_t seq;    // FIFO tiebreak within (when, domain, stream)
    uint32_t slot;

    bool Before(const HeapEntry& other) const {
      if (when != other.when) {
        return when < other.when;
      }
      if (order != other.order) {
        return order < other.order;
      }
      return seq < other.seq;
    }
  };

  static EventId MakeId(uint32_t generation, uint32_t slot) {
    return (static_cast<uint64_t>(generation) << 32) | slot;
  }

  uint32_t AllocSlot();
  void ReleaseSlot(uint32_t index);
  uint64_t NextDomainSeq(uint32_t domain);
  EventId Push(SimTime when, uint32_t domain, uint32_t stream, uint64_t seq,
               EventFn&& fn);
  void Execute(const HeapEntry& top);

  // Indexed-heap primitives; every move updates the slot's heap_pos.
  void Place(size_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos, HeapEntry entry);
  void SiftDown(size_t pos, HeapEntry entry);
  void RemoveAt(size_t pos);

  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  // Domain the currently-executing event belongs to; inherited by events it
  // schedules without an explicit key. 0 between events.
  uint32_t current_domain_ = 0;
  // Per-domain FIFO counters; index 0 is the legacy global counter.
  std::vector<uint64_t> domain_seq_;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  Rng rng_;
  Digest trace_;
};

}  // namespace eden

#endif  // EDEN_SRC_SIM_SIMULATION_H_
