#include "src/kernel/message.h"

namespace eden {

namespace {

// Room for a message's fixed-width fields. Every message on the invocation,
// location, checkpoint and lease paths fits; the largest, an invoke
// request's, total 57 bytes.
constexpr size_t kFixedFieldBytes = 64;

// Opens a message whose variable-length parts (strings, byte blocks and
// lists, with their length prefixes) take at most `variable_bytes`, so the
// writer is allocated once.
BufferWriter StartMessage(MessageKind kind, size_t variable_bytes = 0) {
  BufferWriter writer(kFixedFieldBytes + variable_bytes);
  writer.WriteU8(static_cast<uint8_t>(kind));
  return writer;
}

// Consumes and validates the kind tag.
Status ExpectKind(BufferReader& reader, MessageKind kind) {
  EDEN_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadU8());
  if (tag != static_cast<uint8_t>(kind)) {
    return InvalidArgumentError("unexpected message kind");
  }
  return OkStatus();
}

}  // namespace

StatusOr<MessageKind> PeekMessageKind(BytesView message) {
  if (message.empty()) {
    return InvalidArgumentError("empty message");
  }
  // No default: -Wswitch flags a kind added without a case here.
  switch (auto kind = static_cast<MessageKind>(message[0])) {
    case MessageKind::kInvokeRequest:
    case MessageKind::kInvokeReply:
    case MessageKind::kInvokeRedirect:
    case MessageKind::kLocateRequest:
    case MessageKind::kLocateReply:
    case MessageKind::kMoveTransfer:
    case MessageKind::kMoveAck:
    case MessageKind::kCheckpointPut:
    case MessageKind::kCheckpointAck:
    case MessageKind::kCheckpointErase:
    case MessageKind::kPing:
    case MessageKind::kDirectoryUpdate:
    case MessageKind::kDirectoryLookup:
    case MessageKind::kDirectoryReply:
    case MessageKind::kLeaseGrant:
    case MessageKind::kLeaseRecall:
    case MessageKind::kLeaseRelease:
      return kind;
  }
  return InvalidArgumentError("unknown message kind");
}

Bytes InvokeRequestMsg::Encode() const {
  BufferWriter writer = StartMessage(
      MessageKind::kInvokeRequest,
      kMaxVarintBytes + operation.size() + args.EncodedSizeBound() +
          kMaxVarintBytes + 4 * avoid_hosts.size());
  writer.WriteU64(invocation_id);
  writer.WriteU32(reply_to);
  target.Encode(writer);
  writer.WriteString(operation);
  args.Encode(writer);
  writer.WriteVarint(avoid_hosts.size());
  for (StationId host : avoid_hosts) {
    writer.WriteU32(host);
  }
  span.Encode(writer);
  return writer.Take();
}

StatusOr<InvokeRequestMsg> InvokeRequestMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kInvokeRequest));
  InvokeRequestMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.invocation_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.target, Capability::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.operation, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(msg.args, InvokeArgs::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(uint64_t avoid_count, reader.ReadVarint());
  if (avoid_count > 64) {
    return InvalidArgumentError("implausible avoid-host count");
  }
  for (uint64_t i = 0; i < avoid_count; i++) {
    EDEN_ASSIGN_OR_RETURN(StationId host, reader.ReadU32());
    msg.avoid_hosts.push_back(host);
  }
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes InvokeReplyMsg::Encode() const {
  BufferWriter writer =
      StartMessage(MessageKind::kInvokeReply, result.EncodedSizeBound());
  writer.WriteU64(invocation_id);
  result.Encode(writer);
  writer.WriteU8(0);  // reserved
  writer.WriteU64(lease_renew_expiry);
  return writer.Take();
}

StatusOr<InvokeReplyMsg> InvokeReplyMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kInvokeReply));
  InvokeReplyMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.invocation_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.result, InvokeResult::Decode(reader));
  EDEN_RETURN_IF_ERROR(reader.ReadU8().status());  // reserved
  EDEN_ASSIGN_OR_RETURN(msg.lease_renew_expiry, reader.ReadU64());
  return msg;
}

Bytes InvokeRedirectMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kInvokeRedirect);
  writer.WriteU64(invocation_id);
  name.Encode(writer);
  writer.WriteU32(new_host);
  writer.WriteU64(epoch);
  return writer.Take();
}

StatusOr<InvokeRedirectMsg> InvokeRedirectMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kInvokeRedirect));
  InvokeRedirectMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.invocation_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.new_host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  return msg;
}

Bytes LocateRequestMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLocateRequest);
  writer.WriteU64(query_id);
  writer.WriteU32(reply_to);
  name.Encode(writer);
  span.Encode(writer);
  return writer.Take();
}

StatusOr<LocateRequestMsg> LocateRequestMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLocateRequest));
  LocateRequestMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes LocateReplyMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLocateReply);
  writer.WriteU64(query_id);
  name.Encode(writer);
  writer.WriteU32(host);
  writer.WriteBool(active);
  writer.WriteU64(epoch);
  return writer.Take();
}

StatusOr<LocateReplyMsg> LocateReplyMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLocateReply));
  LocateReplyMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.active, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  return msg;
}

Bytes MoveTransferMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kMoveTransfer);
  writer.WriteU64(transfer_id);
  writer.WriteU32(source);
  name.Encode(writer);
  writer.WriteString(type_name);
  representation.Encode(writer);
  policy.Encode(writer);
  writer.WriteBool(frozen);
  span.Encode(writer);
  writer.WriteVarint(cached_replies.size());
  for (const CachedReplyEntry& entry : cached_replies) {
    writer.WriteU64(entry.invocation_id);
    entry.result.Encode(writer);
    writer.WriteU8(0);  // reserved
  }
  return writer.Take();
}

StatusOr<MoveTransferMsg> MoveTransferMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kMoveTransfer));
  MoveTransferMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.transfer_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.source, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.type_name, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(msg.representation, Representation::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.policy, CheckpointPolicy::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.frozen, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(uint64_t reply_count, reader.ReadVarint());
  if (reply_count > 8192) {
    return InvalidArgumentError("implausible cached-reply count");
  }
  for (uint64_t i = 0; i < reply_count; i++) {
    MoveTransferMsg::CachedReplyEntry entry;
    EDEN_ASSIGN_OR_RETURN(entry.invocation_id, reader.ReadU64());
    EDEN_ASSIGN_OR_RETURN(entry.result, InvokeResult::Decode(reader));
    EDEN_RETURN_IF_ERROR(reader.ReadU8().status());  // reserved
    msg.cached_replies.push_back(std::move(entry));
  }
  return msg;
}

Bytes MoveAckMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kMoveAck);
  writer.WriteU64(transfer_id);
  name.Encode(writer);
  writer.WriteBool(accepted);
  writer.WriteU64(epoch);
  return writer.Take();
}

StatusOr<MoveAckMsg> MoveAckMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kMoveAck));
  MoveAckMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.transfer_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.accepted, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  return msg;
}

Bytes CheckpointPutMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kCheckpointPut,
                                     kMaxVarintBytes + record.size());
  writer.WriteU64(request_id);
  writer.WriteU32(reply_to);
  name.Encode(writer);
  writer.WriteBytes(record.view());
  writer.WriteBool(is_mirror);
  writer.WriteVarint(delta_seq);
  span.Encode(writer);
  return writer.Take();
}

StatusOr<CheckpointPutMsg> CheckpointPutMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kCheckpointPut));
  CheckpointPutMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.request_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(Bytes record, reader.ReadBytes());
  msg.record = SharedBytes(std::move(record));
  EDEN_ASSIGN_OR_RETURN(msg.is_mirror, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.delta_seq, reader.ReadVarint());
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes CheckpointAckMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kCheckpointAck);
  writer.WriteU64(request_id);
  writer.WriteBool(ok);
  return writer.Take();
}

StatusOr<CheckpointAckMsg> CheckpointAckMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kCheckpointAck));
  CheckpointAckMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.request_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.ok, reader.ReadBool());
  return msg;
}

Bytes CheckpointEraseMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kCheckpointErase);
  name.Encode(writer);
  return writer.Take();
}

StatusOr<CheckpointEraseMsg> CheckpointEraseMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kCheckpointErase));
  CheckpointEraseMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  return msg;
}

Bytes PingMsg::Encode() const {
  return StartMessage(MessageKind::kPing).Take();
}

StatusOr<PingMsg> PingMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kPing));
  return PingMsg{};
}

Bytes DirectoryUpdateMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kDirectoryUpdate);
  name.Encode(writer);
  writer.WriteU32(host);
  writer.WriteU64(epoch);
  writer.WriteBool(active);
  writer.WriteBool(removal);
  return writer.Take();
}

StatusOr<DirectoryUpdateMsg> DirectoryUpdateMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kDirectoryUpdate));
  DirectoryUpdateMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.active, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.removal, reader.ReadBool());
  return msg;
}

Bytes DirectoryLookupMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kDirectoryLookup);
  writer.WriteU64(query_id);
  writer.WriteU32(reply_to);
  name.Encode(writer);
  writer.WriteVarint(avoid_hosts.size());
  for (StationId host : avoid_hosts) {
    writer.WriteU32(host);
  }
  span.Encode(writer);
  return writer.Take();
}

StatusOr<DirectoryLookupMsg> DirectoryLookupMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kDirectoryLookup));
  DirectoryLookupMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.reply_to, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(uint64_t avoid_count, reader.ReadVarint());
  if (avoid_count > 64) {
    return InvalidArgumentError("implausible avoid-host count");
  }
  for (uint64_t i = 0; i < avoid_count; i++) {
    EDEN_ASSIGN_OR_RETURN(StationId host, reader.ReadU32());
    msg.avoid_hosts.push_back(host);
  }
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes LeaseGrantMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLeaseGrant);
  name.Encode(writer);
  writer.WriteString(type_name);
  representation.Encode(writer);
  writer.WriteU64(expiry);
  writer.WriteU64(epoch);
  writer.WriteU64(seq);
  return writer.Take();
}

StatusOr<LeaseGrantMsg> LeaseGrantMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLeaseGrant));
  LeaseGrantMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.type_name, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(msg.representation, Representation::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.expiry, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.seq, reader.ReadU64());
  return msg;
}

Bytes LeaseRecallMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLeaseRecall);
  name.Encode(writer);
  writer.WriteU64(epoch);
  writer.WriteU64(seq);
  span.Encode(writer);
  return writer.Take();
}

StatusOr<LeaseRecallMsg> LeaseRecallMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLeaseRecall));
  LeaseRecallMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.seq, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.span, SpanContext::Decode(reader));
  return msg;
}

Bytes LeaseReleaseMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kLeaseRelease);
  name.Encode(writer);
  writer.WriteU32(holder);
  writer.WriteU64(epoch);
  writer.WriteU64(seq);
  return writer.Take();
}

StatusOr<LeaseReleaseMsg> LeaseReleaseMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kLeaseRelease));
  LeaseReleaseMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.holder, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.seq, reader.ReadU64());
  return msg;
}

Bytes DirectoryReplyMsg::Encode() const {
  BufferWriter writer = StartMessage(MessageKind::kDirectoryReply);
  writer.WriteU64(query_id);
  name.Encode(writer);
  writer.WriteBool(known);
  writer.WriteU32(host);
  writer.WriteU64(epoch);
  writer.WriteBool(active);
  return writer.Take();
}

StatusOr<DirectoryReplyMsg> DirectoryReplyMsg::Decode(BytesView message) {
  BufferReader reader(message);
  EDEN_RETURN_IF_ERROR(ExpectKind(reader, MessageKind::kDirectoryReply));
  DirectoryReplyMsg msg;
  EDEN_ASSIGN_OR_RETURN(msg.query_id, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.name, ObjectName::Decode(reader));
  EDEN_ASSIGN_OR_RETURN(msg.known, reader.ReadBool());
  EDEN_ASSIGN_OR_RETURN(msg.host, reader.ReadU32());
  EDEN_ASSIGN_OR_RETURN(msg.epoch, reader.ReadU64());
  EDEN_ASSIGN_OR_RETURN(msg.active, reader.ReadBool());
  return msg;
}

}  // namespace eden
