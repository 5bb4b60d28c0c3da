// Kernel-to-kernel wire messages. A message is a one-byte kind tag followed
// by its fields. Each message type states its layout once, as a field list in
// wire order (src/kernel/wire.h), and its Encode, Decode and the encoder's
// size bound all derive from that list. VisitMessageType is the one map from
// kind tag to type. Everything rides the reliable (or, for location
// broadcasts, best-effort) transport.
#ifndef EDEN_SRC_KERNEL_MESSAGE_H_
#define EDEN_SRC_KERNEL_MESSAGE_H_

#include <string>
#include <type_traits>
#include <vector>

#include "src/common/bytes.h"
#include "src/kernel/capability.h"
#include "src/kernel/checkpoint.h"
#include "src/kernel/invoke.h"
#include "src/kernel/representation.h"
#include "src/kernel/wire.h"
#include "src/net/lan.h"
#include "src/trace/span.h"

namespace eden {

enum class MessageKind : uint8_t {
  kInvokeRequest = 1,
  kInvokeReply = 2,
  // "I don't host this object (any more); try `new_host`, or re-locate if I
  // have no forwarding address."
  kInvokeRedirect = 3,
  kLocateRequest = 4,   // broadcast
  kLocateReply = 5,
  kMoveTransfer = 6,
  kMoveAck = 7,
  kCheckpointPut = 8,   // remote write of long-term state to a checksite
  kCheckpointAck = 9,
  kCheckpointErase = 10,  // destroy: remove long-term state
  // Tags 11 and 12 are retired; PeekMessageKind rejects them.
  // Peer-health probe (DESIGN.md §11). Carries nothing: the transport-level
  // ack of this reliable send is the "peer is alive" answer, so no reply
  // message exists.
  kPing = 13,
  // Partitioned directory location service (DESIGN.md §13). All three ride
  // best-effort: a lost update or reply is repaired lazily by the broadcast
  // fallback, never retransmitted.
  kDirectoryUpdate = 14,  // residence publish to the object's home node(s)
  kDirectoryLookup = 15,
  kDirectoryReply = 16,
  // Lease-based read caching (DESIGN.md §15). The home node pushes a grant
  // (with a representation snapshot) to a reader; writes recall outstanding
  // leases, holders answer with a release. A frozen object's grant never
  // expires and is never recalled. All three ride the reliable transport — a
  // recall lost under a partition is bounded by the lease's expiry, never by
  // an unbounded retry.
  kLeaseGrant = 17,
  kLeaseRecall = 18,
  kLeaseRelease = 19,
};

// The codec every message type inherits: its kind, and an Encode and Decode
// derived from the type's field list. The encoder sizes its buffer from the
// same list, so an encoded message takes one allocation.
template <typename Msg, MessageKind kTag>
struct WireMessage {
  static constexpr MessageKind kKind = kTag;

  Bytes Encode() const {
    const Msg& msg = static_cast<const Msg&>(*this);
    BufferWriter writer(1 + FieldsSizeBound(msg));
    writer.WriteU8(static_cast<uint8_t>(kTag));
    WriteFields(writer, msg);
    return writer.Take();
  }

  // Rejects another kind's tag, truncation, and anything a field's type
  // rejects. Trailing bytes are ignored.
  static StatusOr<Msg> Decode(BytesView message) {
    BufferReader reader(message);
    EDEN_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadU8());
    if (tag != static_cast<uint8_t>(kTag)) {
      return InvalidArgumentError("unexpected message kind");
    }
    Msg msg;
    EDEN_RETURN_IF_ERROR(ReadFields(reader, msg));
    return msg;
  }
};

struct InvokeRequestMsg
    : WireMessage<InvokeRequestMsg, MessageKind::kInvokeRequest> {
  uint64_t invocation_id = 0;
  StationId reply_to = 0;
  Capability target;
  std::string operation;
  InvokeArgs args;
  // Hosts the invoker found dead or ignorant while chasing this object. The
  // receiving kernel invalidates any forwarding address pointing at one of
  // them (the active copy is gone; checkpoints are now authoritative).
  std::vector<StationId> avoid_hosts;
  // Causal context of the invoking client's span (DESIGN.md §12). Encoded
  // fixed-width — all-zero when tracing is off — so the message size never
  // depends on whether a collector is attached.
  SpanContext span;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.invocation_id, m.reply_to, m.target, m.operation, m.args,
                 List{m.avoid_hosts, 64}, m.span);
  }
};

struct InvokeReplyMsg : WireMessage<InvokeReplyMsg, MessageKind::kInvokeReply> {
  uint64_t invocation_id = 0;
  InvokeResult result;
  // Lease renewal piggyback (DESIGN.md §15): when nonzero, the home extends
  // the invoker's read lease on the target to this absolute expiry. Encoded
  // fixed-width — always present, zero when leases are off — so message
  // sizes never depend on the lease configuration.
  uint64_t lease_renew_expiry = 0;

  // The Reserved byte after the result is always zero. Dropping it would
  // shrink every reply by a byte, which shifts the timing of every seeded run
  // and so every pinned determinism digest.
  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.invocation_id, m.result, Reserved{},
                 m.lease_renew_expiry);
  }
};

constexpr StationId kNoStation = 0xfffffffeu;

struct InvokeRedirectMsg
    : WireMessage<InvokeRedirectMsg, MessageKind::kInvokeRedirect> {
  uint64_t invocation_id = 0;
  ObjectName name;
  // kNoStation when the sender has no forwarding address.
  StationId new_host = kNoStation;
  // Version stamp of the forwarding hint: the time `new_host` acquired the
  // object, as reported by its move ack. The invoker's location cache merges
  // by epoch (newer wins), so a hint older than what the cache already holds
  // is dropped rather than followed. 0 = unversioned.
  uint64_t epoch = 0;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.invocation_id, m.name, m.new_host, m.epoch);
  }
};

struct LocateRequestMsg
    : WireMessage<LocateRequestMsg, MessageKind::kLocateRequest> {
  uint64_t query_id = 0;
  StationId reply_to = 0;
  ObjectName name;
  // Causal context of the locate span driving this broadcast (fixed-width).
  SpanContext span;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.query_id, m.reply_to, m.name, m.span);
  }
};

struct LocateReplyMsg : WireMessage<LocateReplyMsg, MessageKind::kLocateReply> {
  uint64_t query_id = 0;
  ObjectName name;
  StationId host = 0;
  // True if the object is active at `host`; false if `host` merely holds its
  // checkpoint (and would reincarnate it on demand).
  bool active = false;
  // Residence-acquisition time at `host` (0 for passive holders): lets the
  // directory backend push a correctly-versioned repair to the home node
  // after a fallback broadcast.
  uint64_t epoch = 0;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.query_id, m.name, m.host, m.active, m.epoch);
  }
};

struct MoveTransferMsg
    : WireMessage<MoveTransferMsg, MessageKind::kMoveTransfer> {
  uint64_t transfer_id = 0;
  StationId source = 0;
  ObjectName name;
  std::string type_name;
  Representation representation;
  CheckpointPolicy policy;
  bool frozen = false;
  // Causal context of the source-side move span (fixed-width).
  SpanContext span;
  // The source's at-most-once reply cache entries for this object, carried
  // so a retried request that lands at the new home after the move is
  // re-replied there instead of re-executed.
  struct CachedReplyEntry {
    uint64_t invocation_id = 0;
    InvokeResult result;

    // The same always-zero Reserved byte as InvokeReplyMsg's, for the same
    // reason.
    template <typename Self, typename Visit>
    static auto Fields(Self& e, Visit&& visit) {
      return visit(e.invocation_id, e.result, Reserved{});
    }
  };
  std::vector<CachedReplyEntry> cached_replies;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.transfer_id, m.source, m.name, m.type_name,
                 m.representation, m.policy, m.frozen, m.span,
                 List{m.cached_replies, 8192});
  }
};

struct MoveAckMsg : WireMessage<MoveAckMsg, MessageKind::kMoveAck> {
  uint64_t transfer_id = 0;
  ObjectName name;
  bool accepted = false;
  // The residence epoch the destination minted at move-in (0 on refusal).
  // The source stamps its forwarding hint with this — not with its own
  // clock, which could overtake a later move's epoch and pin a stale hint.
  uint64_t epoch = 0;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.transfer_id, m.name, m.accepted, m.epoch);
  }
};

struct CheckpointPutMsg
    : WireMessage<CheckpointPutMsg, MessageKind::kCheckpointPut> {
  uint64_t request_id = 0;
  StationId reply_to = 0;
  ObjectName name;
  // Encoded checkpoint record: a base record (full representation) when
  // delta_seq == 0, else link `delta_seq` of the object's delta chain.
  // Refcounted so the receiving checksite stores it without another copy.
  SharedBytes record;
  // Mirror copies are redundancy only: they do not answer locate queries, so
  // a mirrored object still has a single authoritative passive home.
  bool is_mirror = false;
  // 0 = base record; k > 0 = k-th delta since the last base. The checksite
  // rejects a delta whose predecessor is missing, so stored chains are
  // always contiguous.
  uint64_t delta_seq = 0;
  // Causal context of the checkpoint span at the object's host, so the
  // checksite's store-write span links across nodes (fixed-width).
  SpanContext span;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.request_id, m.reply_to, m.name, m.record, m.is_mirror,
                 Varint{m.delta_seq}, m.span);
  }
};

struct CheckpointAckMsg
    : WireMessage<CheckpointAckMsg, MessageKind::kCheckpointAck> {
  uint64_t request_id = 0;
  bool ok = false;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.request_id, m.ok);
  }
};

struct CheckpointEraseMsg
    : WireMessage<CheckpointEraseMsg, MessageKind::kCheckpointErase> {
  ObjectName name;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.name);
  }
};

struct PingMsg : WireMessage<PingMsg, MessageKind::kPing> {
  template <typename Self, typename Visit>
  static auto Fields(Self&, Visit&& visit) {
    return visit();
  }
};

// Residence publish to a home node (DESIGN.md §13). Sent by the host that
// acquired the object (create, move-in, reincarnation), by a fallback
// resolver repairing the directory, or — with `removal` — by the destroyer.
struct DirectoryUpdateMsg
    : WireMessage<DirectoryUpdateMsg, MessageKind::kDirectoryUpdate> {
  ObjectName name;
  StationId host = kNoStation;
  // Residence-acquisition time at `host`; the home merges by epoch (strictly
  // newer wins, equal-epoch active beats passive, 0 only fills empty slots).
  uint64_t epoch = 0;
  bool active = false;
  // Tombstone: drop the record if its epoch is <= this update's epoch.
  bool removal = false;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.name, m.host, m.epoch, m.active, m.removal);
  }
};

struct DirectoryLookupMsg
    : WireMessage<DirectoryLookupMsg, MessageKind::kDirectoryLookup> {
  uint64_t query_id = 0;
  StationId reply_to = 0;
  ObjectName name;
  // Hosts the querying invocations proved dead: the home drops a record
  // pointing at one of them instead of returning the stale answer.
  std::vector<StationId> avoid_hosts;
  // Causal context of the locate round driving this lookup (fixed-width).
  SpanContext span;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.query_id, m.reply_to, m.name, List{m.avoid_hosts, 64},
                 m.span);
  }
};

// Read-lease grant pushed by an object's home node (DESIGN.md §15). Carries
// a snapshot of the representation; the holder installs it as a local cached
// copy and serves read-class invocations from it until `expiry`
// (kSimTimeNever for a frozen object).
struct LeaseGrantMsg : WireMessage<LeaseGrantMsg, MessageKind::kLeaseGrant> {
  ObjectName name;
  std::string type_name;
  Representation representation;
  // Absolute virtual-time expiry of the lease.
  uint64_t expiry = 0;
  // Lease version: (epoch, seq) compared lexicographically. `epoch` is the
  // home's residence epoch for the object (so grants from a pre-move or
  // pre-crash home lose to later recalls); `seq` is a per-object counter at
  // that home. A holder that released in answer to recall (e, s) refuses any
  // grant versioned <= (e, s) — a late grant can never resurrect a lease the
  // writer already believes recalled.
  uint64_t epoch = 0;
  uint64_t seq = 0;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.name, m.type_name, m.representation, m.expiry, m.epoch,
                 m.seq);
  }
};

// Home -> holder: give the lease back (a write is waiting). The holder drops
// its cached copy immediately and answers with LeaseRelease; if this message
// is lost (partition), the home's backstop timer waits out the lease expiry
// instead — the writer is delayed, never fed stale state.
struct LeaseRecallMsg : WireMessage<LeaseRecallMsg, MessageKind::kLeaseRecall> {
  ObjectName name;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  // Causal context of the home-side kLease span (fixed-width), so the
  // recall's wire legs and the holder-side handling link into the writing
  // invocation's trace.
  SpanContext span;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.name, m.epoch, m.seq, m.span);
  }
};

// Holder -> home: lease dropped. Sent in answer to a recall (echoing its
// version) and voluntarily when a holder discards an expired entry.
struct LeaseReleaseMsg
    : WireMessage<LeaseReleaseMsg, MessageKind::kLeaseRelease> {
  ObjectName name;
  StationId holder = kNoStation;
  uint64_t epoch = 0;
  uint64_t seq = 0;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.name, m.holder, m.epoch, m.seq);
  }
};

struct DirectoryReplyMsg
    : WireMessage<DirectoryReplyMsg, MessageKind::kDirectoryReply> {
  uint64_t query_id = 0;
  ObjectName name;
  // False when the home has no record: the querier falls back to one
  // broadcast round and repairs the home from whatever answers.
  bool known = false;
  StationId host = kNoStation;
  uint64_t epoch = 0;
  bool active = false;

  template <typename Self, typename Visit>
  static auto Fields(Self& m, Visit&& visit) {
    return visit(m.query_id, m.name, m.known, m.host, m.epoch, m.active);
  }
};

template <typename T>
constexpr std::type_identity<T> kType{};

// The one map from kind tag to message type: calls `visit` with
// std::type_identity<Msg> for the type `kind` names and returns its result,
// or returns false for a tag that names no kind (retired ones included). No
// default: -Wswitch flags a kind added without a type here.
template <typename Visit>
bool VisitMessageType(MessageKind kind, Visit&& visit) {
  switch (kind) {
    case MessageKind::kInvokeRequest: return visit(kType<InvokeRequestMsg>);
    case MessageKind::kInvokeReply: return visit(kType<InvokeReplyMsg>);
    case MessageKind::kInvokeRedirect: return visit(kType<InvokeRedirectMsg>);
    case MessageKind::kLocateRequest: return visit(kType<LocateRequestMsg>);
    case MessageKind::kLocateReply: return visit(kType<LocateReplyMsg>);
    case MessageKind::kMoveTransfer: return visit(kType<MoveTransferMsg>);
    case MessageKind::kMoveAck: return visit(kType<MoveAckMsg>);
    case MessageKind::kCheckpointPut: return visit(kType<CheckpointPutMsg>);
    case MessageKind::kCheckpointAck: return visit(kType<CheckpointAckMsg>);
    case MessageKind::kCheckpointErase: return visit(kType<CheckpointEraseMsg>);
    case MessageKind::kPing: return visit(kType<PingMsg>);
    case MessageKind::kDirectoryUpdate: return visit(kType<DirectoryUpdateMsg>);
    case MessageKind::kDirectoryLookup: return visit(kType<DirectoryLookupMsg>);
    case MessageKind::kDirectoryReply: return visit(kType<DirectoryReplyMsg>);
    case MessageKind::kLeaseGrant: return visit(kType<LeaseGrantMsg>);
    case MessageKind::kLeaseRecall: return visit(kType<LeaseRecallMsg>);
    case MessageKind::kLeaseRelease: return visit(kType<LeaseReleaseMsg>);
  }
  return false;
}

// Reads the kind tag without consuming the rest; a tag that names no
// MessageKind (retired ones included) is an error.
inline StatusOr<MessageKind> PeekMessageKind(BytesView message) {
  if (message.empty()) {
    return InvalidArgumentError("empty message");
  }
  auto kind = static_cast<MessageKind>(message[0]);
  if (!VisitMessageType(kind, [](auto) { return true; })) {
    return InvalidArgumentError("unknown message kind");
  }
  return kind;
}

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_MESSAGE_H_
