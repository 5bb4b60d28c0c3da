// ObjectName: "a system-wide, unique-for-all-time binary identifier for the
// object; the name is location-independent, although it may indicate where
// the object was created" (paper section 4.1, Figure 4).
#ifndef EDEN_SRC_KERNEL_NAME_H_
#define EDEN_SRC_KERNEL_NAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace eden {

class ObjectName {
 public:
  constexpr ObjectName() = default;
  constexpr ObjectName(uint32_t birth_node, uint64_t sequence, uint32_t disambiguator)
      : birth_node_(birth_node), sequence_(sequence), disambiguator_(disambiguator) {}

  static constexpr ObjectName Null() { return ObjectName(); }

  bool IsNull() const {
    return birth_node_ == 0 && sequence_ == 0 && disambiguator_ == 0;
  }

  // The node on which the object was created: a *hint*, never authoritative
  // for location (objects move).
  uint32_t birth_node() const { return birth_node_; }
  uint64_t sequence() const { return sequence_; }
  uint32_t disambiguator() const { return disambiguator_; }

  bool operator==(const ObjectName& other) const {
    return birth_node_ == other.birth_node_ && sequence_ == other.sequence_ &&
           disambiguator_ == other.disambiguator_;
  }
  bool operator!=(const ObjectName& other) const { return !(*this == other); }
  bool operator<(const ObjectName& other) const {
    if (birth_node_ != other.birth_node_) {
      return birth_node_ < other.birth_node_;
    }
    if (sequence_ != other.sequence_) {
      return sequence_ < other.sequence_;
    }
    return disambiguator_ < other.disambiguator_;
  }

  static constexpr size_t kEncodedSize = 16;
  void Encode(BufferWriter& writer) const;
  static StatusOr<ObjectName> Decode(BufferReader& reader);

  // Stable string key for storage indices: "obj/<birth>/<seq>/<disamb>".
  std::string ToKey() const;
  // Inverse of ToKey. Rejects anything that is not exactly a base object key
  // (delta-chain suffixes like "#d3" fail), so store scans can recover the
  // names behind checkpoint keys.
  static StatusOr<ObjectName> FromKey(std::string_view key);
  // Human-readable: "obj-2.17".
  std::string ToString() const;

 private:
  uint32_t birth_node_ = 0;
  uint64_t sequence_ = 0;
  uint32_t disambiguator_ = 0;
};

// Hash functor for unordered containers keyed by ObjectName (kernel location
// cache and friends). FNV-style mix over the three fields; iteration order
// of such containers must never be observable (wire traffic, promise
// completion order) — keep a sorted structure where it is.
struct ObjectNameHash {
  size_t operator()(const ObjectName& name) const {
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(name.birth_node());
    mix(name.sequence());
    mix(name.disambiguator());
    return static_cast<size_t>(h);
  }
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_NAME_H_
