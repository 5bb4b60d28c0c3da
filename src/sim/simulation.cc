#include "src/sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace eden {

std::string FormatDuration(SimDuration d) {
  char buf[32];
  if (d < Microseconds(1)) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(d));
  } else if (d < Milliseconds(1)) {
    std::snprintf(buf, sizeof(buf), "%.3fus", ToMicroseconds(d));
  } else if (d < Seconds(1)) {
    std::snprintf(buf, sizeof(buf), "%.3fms", ToMilliseconds(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", ToSeconds(d));
  }
  return buf;
}

Simulation::Simulation(uint64_t seed) : rng_(seed) {
  domain_seq_.push_back(1);  // domain 0: the legacy global FIFO counter
}

uint32_t Simulation::AllocSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulation::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.generation++;  // invalidates every outstanding id
  slot.heap_pos = kNoSlot;
  slot.next_free = free_head_;
  free_head_ = index;
}

uint64_t Simulation::NextDomainSeq(uint32_t domain) {
  if (domain >= domain_seq_.size()) {
    domain_seq_.resize(domain + 1, 1);
  }
  return domain_seq_[domain]++;
}

EventId Simulation::Schedule(SimDuration delay, EventFn&& fn) {
  assert(delay >= 0 && "cannot schedule into the past");
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulation::ScheduleAt(SimTime when, EventFn&& fn) {
  return Push(when, current_domain_, 0, NextDomainSeq(current_domain_),
              std::move(fn));
}

EventId Simulation::ScheduleAtKeyed(SimTime when, uint32_t domain,
                                    uint32_t stream, uint64_t seq,
                                    EventFn&& fn) {
  return Push(when, domain, stream, seq, std::move(fn));
}

EventId Simulation::Push(SimTime when, uint32_t domain, uint32_t stream,
                         uint64_t seq, EventFn&& fn) {
  assert(when >= now_ && "cannot schedule into the past");
  uint32_t index = AllocSlot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1,
         HeapEntry{when, (static_cast<uint64_t>(domain) << 32) | stream, seq,
                   index});
  return MakeId(slot.generation, index);
}

void Simulation::SiftUp(size_t pos, HeapEntry entry) {
  while (pos > 0) {
    size_t parent = (pos - 1) / kArity;
    if (!entry.Before(heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, entry);
}

void Simulation::SiftDown(size_t pos, HeapEntry entry) {
  size_t size = heap_.size();
  while (true) {
    size_t first = kArity * pos + 1;
    if (first >= size) {
      break;
    }
    size_t last = std::min(first + kArity, size);
    size_t best = first;
    for (size_t child = first + 1; child < last; child++) {
      if (heap_[child].Before(heap_[best])) {
        best = child;
      }
    }
    if (!heap_[best].Before(entry)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, entry);
}

// Fills the hole at `pos` with the last entry and restores heap order. The
// caller owns the removed entry's slot.
void Simulation::RemoveAt(size_t pos) {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // the hole was the last position
  }
  if (pos > 0 && last.Before(heap_[(pos - 1) / kArity])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void Simulation::Cancel(EventId id) {
  uint32_t index = static_cast<uint32_t>(id);
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size()) {
    return;
  }
  Slot& slot = slots_[index];
  if (slot.generation != generation || slot.heap_pos == kNoSlot) {
    return;  // already fired, already cancelled, or never existed
  }
  RemoveAt(slot.heap_pos);
  slot.fn.Reset();  // release captures now, not when the slot is reused
  ReleaseSlot(index);
}

void Simulation::Execute(const HeapEntry& top) {
  Slot& slot = slots_[top.slot];
  assert(top.when >= now_);
  now_ = top.when;
  // Fingerprint the execution order. Two runs with equal seeds must pop an
  // identical (when, key) sequence; mixing the sequence number catches a
  // same-timestamp FIFO swap that mixing the timestamp alone would miss.
  // Unkeyed events mix exactly (when, seq) as they always have; keyed events
  // additionally mix their (domain, stream) so distinct streams cannot alias.
  trace_.Mix(static_cast<uint64_t>(top.when));
  trace_.Mix(top.seq);
  if (top.order != 0) {
    trace_.Mix(top.order);
  }
  events_executed_++;
  // Free the slot before invoking so the callback can schedule into it;
  // the generation bump keeps this entry's id from resurrecting.
  EventFn fn = std::move(slot.fn);
  ReleaseSlot(top.slot);
  current_domain_ = static_cast<uint32_t>(top.order >> 32);
  fn();
  current_domain_ = 0;
}

bool Simulation::Step() {
  if (heap_.empty()) {
    return false;
  }
  HeapEntry top = heap_.front();
  RemoveAt(0);
  Execute(top);
  return true;
}

void Simulation::Run(uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; i++) {
    if (!Step()) {
      return;
    }
  }
}

void Simulation::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulation::RunEventsBefore(SimTime bound) {
  while (!heap_.empty() && heap_.front().when < bound) {
    Step();
  }
}

bool Simulation::RunWhile(const std::function<bool()>& pending) {
  while (pending()) {
    if (!Step()) {
      return !pending();
    }
  }
  return true;
}

}  // namespace eden
