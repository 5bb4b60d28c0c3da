// Representation: "the data and capability segments that form the object's
// long-term state" (paper section 4.1, Figure 4). This is the only part of an
// object that checkpoint writes to stable storage and that move transfers
// between nodes; short-term state never leaves the node.
//
// For delta checkpoints (DESIGN.md §10) the representation keeps one coarse
// dirty bit per data segment plus one for the whole capability segment:
// every mutator sets the corresponding bit, the kernel's checkpoint encoder
// reads and clears them. `mutable_data` marks conservatively — handing out a
// mutable reference counts as a write.
#ifndef EDEN_SRC_KERNEL_REPRESENTATION_H_
#define EDEN_SRC_KERNEL_REPRESENTATION_H_

#include <vector>

#include "src/common/bytes.h"
#include "src/kernel/capability.h"

namespace eden {

class Representation {
 public:
  Representation() = default;

  // --- Data segments ---------------------------------------------------
  size_t data_segment_count() const { return data_segments_.size(); }

  // Grows the data segment vector to at least `count` segments.
  void EnsureDataSegments(size_t count) {
    if (data_segments_.size() < count) {
      data_segments_.resize(count);
      data_dirty_.resize(count, true);  // fresh segments are dirty
    }
  }

  const Bytes& data(size_t index) const { return data_segments_.at(index); }
  Bytes& mutable_data(size_t index) {
    EnsureDataSegments(index + 1);
    data_dirty_[index] = true;
    return data_segments_[index];
  }
  void set_data(size_t index, Bytes bytes) {
    EnsureDataSegments(index + 1);
    data_dirty_[index] = true;
    data_segments_[index] = std::move(bytes);
  }

  // Convenience: segment as string.
  std::string DataAsString(size_t index) const {
    if (index >= data_segments_.size()) {
      return {};
    }
    return ToString(data_segments_[index]);
  }
  void SetDataFromString(size_t index, std::string_view text) {
    set_data(index, ToBytes(text));
  }

  // --- Capability segment ----------------------------------------------
  size_t capability_count() const { return capabilities_.size(); }
  const Capability& capability(size_t index) const { return capabilities_.at(index); }
  const std::vector<Capability>& capabilities() const { return capabilities_; }
  void AddCapability(const Capability& cap) {
    caps_dirty_ = true;
    capabilities_.push_back(cap);
  }
  void SetCapability(size_t index, const Capability& cap) {
    if (capabilities_.size() <= index) {
      capabilities_.resize(index + 1);
    }
    caps_dirty_ = true;
    capabilities_[index] = cap;
  }
  void ClearCapabilities() {
    if (!capabilities_.empty()) {
      caps_dirty_ = true;
    }
    capabilities_.clear();
  }

  // --- Dirty tracking ----------------------------------------------------
  bool data_dirty(size_t index) const {
    return index < data_dirty_.size() && data_dirty_[index];
  }
  bool caps_dirty() const { return caps_dirty_; }
  bool AnyDirty() const;
  size_t DirtySegmentCount() const;
  void MarkAllDirty();
  void ClearDirty();

  // --- Whole-representation operations ----------------------------------
  // Upper bound on the bytes Encode appends (for sizing a writer).
  size_t EncodedSizeBound() const;
  void Encode(BufferWriter& writer) const;
  static StatusOr<Representation> Decode(BufferReader& reader);

  // Delta record body: only the dirty data segments (index + bytes) and, if
  // dirty, the full capability segment. ApplyDelta replays one onto a base;
  // segment indices beyond the current count grow the representation.
  // Neither touches the dirty bits of the *target* beyond what set_data
  // implies — restore paths call ClearDirty() when done.
  void EncodeDelta(BufferWriter& writer) const;
  Status ApplyDelta(BufferReader& reader);

  // Approximate in-memory footprint (drives checkpoint/migration cost).
  size_t ByteSize() const;

  // Byte size of a delta record body for the current dirty set.
  size_t DirtyByteSize() const;

  // Content digest (replica integrity, round-trip property tests).
  uint64_t DigestValue() const;

  bool operator==(const Representation& other) const {
    return data_segments_ == other.data_segments_ &&
           capabilities_ == other.capabilities_;
  }

 private:
  std::vector<Bytes> data_segments_;
  std::vector<Capability> capabilities_;
  // Parallel to data_segments_; content equality ignores these.
  std::vector<bool> data_dirty_;
  bool caps_dirty_ = false;
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_REPRESENTATION_H_
