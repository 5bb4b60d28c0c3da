// Capability: the only way to refer to an Eden object. "Possession of a
// capability for an object implies the ability to manipulate that object's
// representation by invoking some subset of the operations defined for
// objects of that type" (paper section 2).
//
// Capabilities are data (they travel in messages and live in capability
// segments); forgery resistance is by convention, consistent with the paper's
// explicit non-goal of "extreme resistance to maliciousness".
#ifndef EDEN_SRC_KERNEL_CAPABILITY_H_
#define EDEN_SRC_KERNEL_CAPABILITY_H_

#include <string>

#include "src/common/rights.h"
#include "src/kernel/name.h"

namespace eden {

class Capability {
 public:
  Capability() = default;
  Capability(ObjectName name, Rights rights) : name_(name), rights_(rights) {}

  static Capability Null() { return Capability(); }

  const ObjectName& name() const { return name_; }
  Rights rights() const { return rights_; }
  bool IsNull() const { return name_.IsNull(); }

  // Produces a capability with a subset of this one's rights. Rights can only
  // ever shrink as capabilities are passed around.
  Capability Restrict(Rights mask) const {
    return Capability(name_, rights_.Restrict(mask));
  }

  bool operator==(const Capability& other) const {
    return name_ == other.name_ && rights_ == other.rights_;
  }

  // The name, then the rights bits as a u32.
  static constexpr size_t kEncodedSize = ObjectName::kEncodedSize + 4;
  void Encode(BufferWriter& writer) const;
  static StatusOr<Capability> Decode(BufferReader& reader);

  std::string ToString() const;

 private:
  ObjectName name_;
  Rights rights_;
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_CAPABILITY_H_
