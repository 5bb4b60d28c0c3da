// Checkpoint policy (paper section 4.4): "an object may specify, through the
// checksite primitive, which node is responsible for maintaining its
// long-term storage, and what level of reliability is required. Different
// reliability levels may cause different actions when a checkpoint is
// issued."
#ifndef EDEN_SRC_KERNEL_CHECKPOINT_H_
#define EDEN_SRC_KERNEL_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/lan.h"

namespace eden {

enum class ReliabilityLevel : uint8_t {
  // The representation is written to the primary checksite's disk only.
  kLocal = 0,
  // Written to the primary checksite and, synchronously, to a mirror site;
  // the checkpoint completes only when both are durable.
  kMirrored = 1,
};

// Leading tag byte of an on-disk checkpoint record (DESIGN.md §10). A base
// record carries the full representation; a delta carries only the segments
// dirtied since the previous record in the chain. Any other leading byte is
// treated as corruption (DataLoss on restore).
enum class CheckpointRecordKind : uint8_t {
  kBase = 1,
  kDelta = 2,
};

struct CheckpointPolicy {
  // Node whose stable store holds the authoritative long-term state. This is
  // also where the object reincarnates after a failure. It "need not be the
  // node responsible for supporting its active execution".
  StationId primary_site = 0;
  ReliabilityLevel level = ReliabilityLevel::kLocal;
  StationId mirror_site = 0;  // meaningful only for kMirrored

  static constexpr size_t kEncodedSize = 9;
  void Encode(BufferWriter& writer) const {
    writer.WriteU32(primary_site);
    writer.WriteU8(static_cast<uint8_t>(level));
    writer.WriteU32(mirror_site);
  }

  bool operator==(const CheckpointPolicy& other) const {
    return primary_site == other.primary_site && level == other.level &&
           mirror_site == other.mirror_site;
  }

  static StatusOr<CheckpointPolicy> Decode(BufferReader& reader) {
    CheckpointPolicy policy;
    EDEN_ASSIGN_OR_RETURN(policy.primary_site, reader.ReadU32());
    EDEN_ASSIGN_OR_RETURN(uint8_t level, reader.ReadU8());
    if (level > static_cast<uint8_t>(ReliabilityLevel::kMirrored)) {
      return InvalidArgumentError("bad reliability level");
    }
    policy.level = static_cast<ReliabilityLevel>(level);
    EDEN_ASSIGN_OR_RETURN(policy.mirror_site, reader.ReadU32());
    return policy;
  }
};

// The leading fields of every checkpoint record, in the field-list codec of
// src/kernel/wire.h. The body follows: the full Representation for a base
// record, Representation::EncodeDelta's segments for a delta. The restore
// path treats a `kind` other than the one it expects, or a delta whose
// `type_name` differs from its base's, as corruption.
struct CheckpointRecordHeader {
  CheckpointRecordKind kind = CheckpointRecordKind::kBase;
  std::string type_name;
  CheckpointPolicy policy;
  bool frozen = false;

  template <typename Self, typename Visit>
  static auto Fields(Self& h, Visit&& visit) {
    return visit(h.kind, h.type_name, h.policy, h.frozen);
  }
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_CHECKPOINT_H_
