#include "src/kernel/representation.h"

#include <algorithm>

namespace eden {

bool Representation::AnyDirty() const {
  if (caps_dirty_) {
    return true;
  }
  return std::find(data_dirty_.begin(), data_dirty_.end(), true) !=
         data_dirty_.end();
}

size_t Representation::DirtySegmentCount() const {
  return static_cast<size_t>(
      std::count(data_dirty_.begin(), data_dirty_.end(), true));
}

void Representation::MarkAllDirty() {
  data_dirty_.assign(data_segments_.size(), true);
  caps_dirty_ = true;
}

void Representation::ClearDirty() {
  data_dirty_.assign(data_segments_.size(), false);
  caps_dirty_ = false;
}

size_t Representation::EncodedSizeBound() const {
  // ByteSize counts each capability at its encoded width; add the two counts
  // and one length prefix per segment.
  return ByteSize() + kMaxVarintBytes * (data_segments_.size() + 2);
}

void Representation::Encode(BufferWriter& writer) const {
  writer.WriteVarint(data_segments_.size());
  for (const Bytes& segment : data_segments_) {
    writer.WriteBytes(segment);
  }
  writer.WriteVarint(capabilities_.size());
  for (const Capability& cap : capabilities_) {
    cap.Encode(writer);
  }
}

StatusOr<Representation> Representation::Decode(BufferReader& reader) {
  Representation rep;
  EDEN_ASSIGN_OR_RETURN(uint64_t segment_count, reader.ReadVarint());
  if (segment_count > 1u << 20) {
    return InvalidArgumentError("implausible segment count");
  }
  rep.data_segments_.reserve(segment_count);
  for (uint64_t i = 0; i < segment_count; i++) {
    EDEN_ASSIGN_OR_RETURN(Bytes segment, reader.ReadBytes());
    rep.data_segments_.push_back(std::move(segment));
  }
  EDEN_ASSIGN_OR_RETURN(uint64_t cap_count, reader.ReadVarint());
  if (cap_count > 1u << 20) {
    return InvalidArgumentError("implausible capability count");
  }
  rep.capabilities_.reserve(cap_count);
  for (uint64_t i = 0; i < cap_count; i++) {
    EDEN_ASSIGN_OR_RETURN(Capability cap, Capability::Decode(reader));
    rep.capabilities_.push_back(cap);
  }
  // A decoded representation is a faithful stable copy: nothing to flush.
  rep.data_dirty_.assign(rep.data_segments_.size(), false);
  return rep;
}

void Representation::EncodeDelta(BufferWriter& writer) const {
  writer.WriteVarint(data_segments_.size());
  writer.WriteVarint(DirtySegmentCount());
  for (size_t i = 0; i < data_segments_.size(); i++) {
    if (i < data_dirty_.size() && data_dirty_[i]) {
      writer.WriteVarint(i);
      writer.WriteBytes(data_segments_[i]);
    }
  }
  writer.WriteBool(caps_dirty_);
  if (caps_dirty_) {
    writer.WriteVarint(capabilities_.size());
    for (const Capability& cap : capabilities_) {
      cap.Encode(writer);
    }
  }
}

Status Representation::ApplyDelta(BufferReader& reader) {
  EDEN_ASSIGN_OR_RETURN(uint64_t total_segments, reader.ReadVarint());
  if (total_segments > 1u << 20) {
    return InvalidArgumentError("implausible segment count in delta");
  }
  EnsureDataSegments(total_segments);
  EDEN_ASSIGN_OR_RETURN(uint64_t dirty_count, reader.ReadVarint());
  if (dirty_count > total_segments) {
    return InvalidArgumentError("delta dirty count exceeds segment count");
  }
  for (uint64_t i = 0; i < dirty_count; i++) {
    EDEN_ASSIGN_OR_RETURN(uint64_t index, reader.ReadVarint());
    if (index >= total_segments) {
      return InvalidArgumentError("delta segment index out of range");
    }
    EDEN_ASSIGN_OR_RETURN(Bytes segment, reader.ReadBytes());
    set_data(index, std::move(segment));
  }
  EDEN_ASSIGN_OR_RETURN(bool caps, reader.ReadBool());
  if (caps) {
    EDEN_ASSIGN_OR_RETURN(uint64_t cap_count, reader.ReadVarint());
    if (cap_count > 1u << 20) {
      return InvalidArgumentError("implausible capability count in delta");
    }
    std::vector<Capability> replaced;
    replaced.reserve(cap_count);
    for (uint64_t i = 0; i < cap_count; i++) {
      EDEN_ASSIGN_OR_RETURN(Capability cap, Capability::Decode(reader));
      replaced.push_back(cap);
    }
    capabilities_ = std::move(replaced);
    caps_dirty_ = true;
  }
  return OkStatus();
}

size_t Representation::ByteSize() const {
  size_t total = 0;
  for (const Bytes& segment : data_segments_) {
    total += segment.size();
  }
  total += capabilities_.size() * Capability::kEncodedSize;
  return total;
}

size_t Representation::DirtyByteSize() const {
  size_t total = 0;
  for (size_t i = 0; i < data_segments_.size(); i++) {
    if (i < data_dirty_.size() && data_dirty_[i]) {
      total += data_segments_[i].size();
    }
  }
  if (caps_dirty_) {
    total += capabilities_.size() * Capability::kEncodedSize;
  }
  return total;
}

uint64_t Representation::DigestValue() const {
  BufferWriter writer;
  Encode(writer);
  return Fnv1a64(writer.buffer());
}

}  // namespace eden
