// Codec tests for every kernel wire message: round trips, kind dispatch, and
// rejection of truncated/corrupted buffers (nothing a peer sends may crash a
// kernel).
#include <gtest/gtest.h>

#include "src/kernel/message.h"

namespace eden {
namespace {

Capability SampleCapability() {
  return Capability(ObjectName(3, 77, 0xabcd), Rights(Rights::kInvoke | Rights::kRead));
}

Representation SampleRepresentation() {
  Representation rep;
  rep.SetDataFromString(0, "state");
  rep.AddCapability(SampleCapability());
  return rep;
}

// Every decoder must reject every strict prefix of a valid encoding.
template <typename Msg>
void ExpectPrefixRejection(const Bytes& encoded) {
  for (size_t cut = 1; cut + 1 < encoded.size(); cut += 3) {
    Bytes truncated(encoded.begin(), encoded.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Msg::Decode(truncated).ok()) << "prefix length " << cut;
  }
}

TEST(MessageTest, InvokeRequestRoundTrip) {
  InvokeRequestMsg msg;
  msg.invocation_id = 0x123456789abcULL;
  msg.reply_to = 4;
  msg.target = SampleCapability();
  msg.operation = "put";
  msg.args.AddString("this is a new line").AddCapability(SampleCapability());
  msg.avoid_hosts = {9, 11};

  Bytes encoded = msg.Encode();
  EXPECT_EQ(PeekMessageKind(encoded).value(), MessageKind::kInvokeRequest);
  auto decoded = InvokeRequestMsg::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->invocation_id, msg.invocation_id);
  EXPECT_EQ(decoded->reply_to, msg.reply_to);
  EXPECT_EQ(decoded->target, msg.target);
  EXPECT_EQ(decoded->operation, "put");
  EXPECT_EQ(decoded->args.StringAt(0).value(), "this is a new line");
  EXPECT_EQ(decoded->avoid_hosts, (std::vector<StationId>{9, 11}));
  ExpectPrefixRejection<InvokeRequestMsg>(encoded);
}

TEST(MessageTest, InvokeReplyRoundTrip) {
  InvokeReplyMsg msg;
  msg.invocation_id = 42;
  msg.result.status = TimeoutError("too slow");
  msg.result.results.AddU64(7);

  Bytes encoded = msg.Encode();
  auto decoded = InvokeReplyMsg::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->result.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(decoded->result.status.message(), "too slow");
  EXPECT_EQ(decoded->result.results.U64At(0).value(), 7u);
  ExpectPrefixRejection<InvokeReplyMsg>(encoded);
}

TEST(MessageTest, InvokeRedirectRoundTrip) {
  InvokeRedirectMsg msg;
  msg.invocation_id = 5;
  msg.name = ObjectName(1, 2, 3);
  msg.new_host = kNoStation;
  msg.epoch = 0x1122334455ULL;
  auto decoded = InvokeRedirectMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->new_host, kNoStation);
  EXPECT_EQ(decoded->name, msg.name);
  EXPECT_EQ(decoded->epoch, msg.epoch);
}

TEST(MessageTest, LocateRoundTrips) {
  LocateRequestMsg request;
  request.query_id = 77;
  request.reply_to = 2;
  request.name = ObjectName(9, 9, 9);
  auto decoded_request = LocateRequestMsg::Decode(request.Encode());
  ASSERT_TRUE(decoded_request.ok());
  EXPECT_EQ(decoded_request->query_id, 77u);

  LocateReplyMsg reply;
  reply.query_id = 77;
  reply.name = request.name;
  reply.host = 3;
  reply.active = true;
  reply.epoch = 987654321u;
  auto decoded_reply = LocateReplyMsg::Decode(reply.Encode());
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_TRUE(decoded_reply->active);
  EXPECT_EQ(decoded_reply->host, 3u);
  EXPECT_EQ(decoded_reply->epoch, 987654321u);
}

TEST(MessageTest, MoveTransferRoundTripCarriesEverything) {
  MoveTransferMsg msg;
  msg.transfer_id = 8;
  msg.source = 1;
  msg.name = ObjectName(1, 5, 6);
  msg.type_name = "std.mailbox";
  msg.representation = SampleRepresentation();
  msg.policy = CheckpointPolicy{2, ReliabilityLevel::kMirrored, 3};
  msg.frozen = true;

  Bytes encoded = msg.Encode();
  auto decoded = MoveTransferMsg::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type_name, "std.mailbox");
  EXPECT_EQ(decoded->representation, msg.representation);
  EXPECT_EQ(decoded->policy.level, ReliabilityLevel::kMirrored);
  EXPECT_EQ(decoded->policy.mirror_site, 3u);
  EXPECT_TRUE(decoded->frozen);
  ExpectPrefixRejection<MoveTransferMsg>(encoded);
}

TEST(MessageTest, MoveAckRoundTrip) {
  MoveAckMsg msg;
  msg.transfer_id = 11;
  msg.name = ObjectName(4, 4, 4);
  msg.accepted = true;
  msg.epoch = 42424242u;
  auto decoded = MoveAckMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->accepted);
  EXPECT_EQ(decoded->epoch, 42424242u);
}

TEST(MessageTest, DirectoryMessagesRoundTrip) {
  DirectoryUpdateMsg update;
  update.name = ObjectName(6, 7, 8);
  update.host = 5;
  update.epoch = 0xdeadbeefULL;
  update.active = true;
  Bytes encoded = update.Encode();
  EXPECT_EQ(PeekMessageKind(encoded).value(), MessageKind::kDirectoryUpdate);
  auto decoded_update = DirectoryUpdateMsg::Decode(encoded);
  ASSERT_TRUE(decoded_update.ok());
  EXPECT_EQ(decoded_update->name, update.name);
  EXPECT_EQ(decoded_update->host, 5u);
  EXPECT_EQ(decoded_update->epoch, 0xdeadbeefULL);
  EXPECT_TRUE(decoded_update->active);
  EXPECT_FALSE(decoded_update->removal);
  ExpectPrefixRejection<DirectoryUpdateMsg>(encoded);

  DirectoryUpdateMsg removal;
  removal.name = update.name;
  removal.epoch = 99;
  removal.removal = true;
  auto decoded_removal = DirectoryUpdateMsg::Decode(removal.Encode());
  ASSERT_TRUE(decoded_removal.ok());
  EXPECT_TRUE(decoded_removal->removal);
  EXPECT_EQ(decoded_removal->epoch, 99u);

  DirectoryLookupMsg lookup;
  lookup.query_id = 31;
  lookup.reply_to = 2;
  lookup.name = update.name;
  lookup.avoid_hosts = {4, 12};
  Bytes lookup_encoded = lookup.Encode();
  EXPECT_EQ(PeekMessageKind(lookup_encoded).value(),
            MessageKind::kDirectoryLookup);
  auto decoded_lookup = DirectoryLookupMsg::Decode(lookup_encoded);
  ASSERT_TRUE(decoded_lookup.ok());
  EXPECT_EQ(decoded_lookup->query_id, 31u);
  EXPECT_EQ(decoded_lookup->reply_to, 2u);
  EXPECT_EQ(decoded_lookup->avoid_hosts, (std::vector<StationId>{4, 12}));
  ExpectPrefixRejection<DirectoryLookupMsg>(lookup_encoded);

  DirectoryReplyMsg reply;
  reply.query_id = 31;
  reply.name = update.name;
  reply.known = true;
  reply.host = 5;
  reply.epoch = 0xdeadbeefULL;
  reply.active = true;
  Bytes reply_encoded = reply.Encode();
  EXPECT_EQ(PeekMessageKind(reply_encoded).value(),
            MessageKind::kDirectoryReply);
  auto decoded_reply = DirectoryReplyMsg::Decode(reply_encoded);
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_TRUE(decoded_reply->known);
  EXPECT_EQ(decoded_reply->host, 5u);
  EXPECT_EQ(decoded_reply->epoch, 0xdeadbeefULL);
  EXPECT_TRUE(decoded_reply->active);
  ExpectPrefixRejection<DirectoryReplyMsg>(reply_encoded);
}

TEST(MessageTest, CheckpointMessagesRoundTrip) {
  CheckpointPutMsg put;
  put.request_id = 13;
  put.reply_to = 1;
  put.name = ObjectName(2, 3, 4);
  put.record = SharedBytes(ToBytes("record bytes"));
  put.is_mirror = true;
  put.delta_seq = 7;
  auto decoded_put = CheckpointPutMsg::Decode(put.Encode());
  ASSERT_TRUE(decoded_put.ok());
  EXPECT_TRUE(decoded_put->is_mirror);
  EXPECT_EQ(decoded_put->delta_seq, 7u);
  EXPECT_EQ(ToString(decoded_put->record.view()), "record bytes");

  CheckpointAckMsg ack;
  ack.request_id = 13;
  ack.ok = true;
  auto decoded_ack = CheckpointAckMsg::Decode(ack.Encode());
  ASSERT_TRUE(decoded_ack.ok());
  EXPECT_TRUE(decoded_ack->ok);

  CheckpointEraseMsg erase;
  erase.name = put.name;
  auto decoded_erase = CheckpointEraseMsg::Decode(erase.Encode());
  ASSERT_TRUE(decoded_erase.ok());
  EXPECT_EQ(decoded_erase->name, put.name);
}

TEST(MessageTest, LeaseMessagesRoundTrip) {
  LeaseGrantMsg grant;
  grant.name = ObjectName(7, 8, 9);
  grant.type_name = "std.data";
  grant.representation = SampleRepresentation();
  // A frozen object's grant: it never expires.
  grant.expiry = static_cast<uint64_t>(kSimTimeNever);
  grant.epoch = 0x5566778899ULL;
  grant.seq = 12;
  Bytes grant_encoded = grant.Encode();
  EXPECT_EQ(PeekMessageKind(grant_encoded).value(), MessageKind::kLeaseGrant);
  auto decoded_grant = LeaseGrantMsg::Decode(grant_encoded);
  ASSERT_TRUE(decoded_grant.ok());
  EXPECT_EQ(decoded_grant->name, grant.name);
  EXPECT_EQ(decoded_grant->type_name, "std.data");
  EXPECT_EQ(decoded_grant->representation, grant.representation);
  EXPECT_EQ(decoded_grant->expiry, grant.expiry);
  EXPECT_EQ(decoded_grant->epoch, grant.epoch);
  EXPECT_EQ(decoded_grant->seq, 12u);
  ExpectPrefixRejection<LeaseGrantMsg>(grant_encoded);

  LeaseRecallMsg recall;
  recall.name = grant.name;
  recall.epoch = grant.epoch;
  recall.seq = 13;
  Bytes recall_encoded = recall.Encode();
  EXPECT_EQ(PeekMessageKind(recall_encoded).value(), MessageKind::kLeaseRecall);
  auto decoded_recall = LeaseRecallMsg::Decode(recall_encoded);
  ASSERT_TRUE(decoded_recall.ok());
  EXPECT_EQ(decoded_recall->name, grant.name);
  EXPECT_EQ(decoded_recall->epoch, grant.epoch);
  EXPECT_EQ(decoded_recall->seq, 13u);
  ExpectPrefixRejection<LeaseRecallMsg>(recall_encoded);

  LeaseReleaseMsg release;
  release.name = grant.name;
  release.holder = 6;
  release.epoch = grant.epoch;
  release.seq = 13;
  Bytes release_encoded = release.Encode();
  EXPECT_EQ(PeekMessageKind(release_encoded).value(),
            MessageKind::kLeaseRelease);
  auto decoded_release = LeaseReleaseMsg::Decode(release_encoded);
  ASSERT_TRUE(decoded_release.ok());
  EXPECT_EQ(decoded_release->name, grant.name);
  EXPECT_EQ(decoded_release->holder, 6u);
  EXPECT_EQ(decoded_release->epoch, grant.epoch);
  EXPECT_EQ(decoded_release->seq, 13u);
  ExpectPrefixRejection<LeaseReleaseMsg>(release_encoded);

  // Each lease decoder refuses the other two kinds.
  EXPECT_FALSE(LeaseGrantMsg::Decode(recall_encoded).ok());
  EXPECT_FALSE(LeaseRecallMsg::Decode(release_encoded).ok());
  EXPECT_FALSE(LeaseReleaseMsg::Decode(grant_encoded).ok());
}

TEST(MessageTest, PeekRejectsGarbage) {
  EXPECT_FALSE(PeekMessageKind(Bytes{}).ok());
  EXPECT_FALSE(PeekMessageKind(Bytes{0x00}).ok());
  // Retired tags name no kind.
  EXPECT_FALSE(PeekMessageKind(Bytes{11}).ok());
  EXPECT_FALSE(PeekMessageKind(Bytes{12}).ok());
  EXPECT_FALSE(PeekMessageKind(Bytes{0xee, 0x01}).ok());
}

TEST(MessageTest, DecodersRejectWrongKind) {
  LocateRequestMsg locate;
  locate.query_id = 1;
  locate.reply_to = 0;
  locate.name = ObjectName(1, 1, 1);
  Bytes encoded = locate.Encode();
  EXPECT_FALSE(InvokeRequestMsg::Decode(encoded).ok());
  EXPECT_FALSE(MoveAckMsg::Decode(encoded).ok());
}

TEST(MessageTest, CheckpointPolicyRejectsBadLevel) {
  BufferWriter writer;
  writer.WriteU32(1);
  writer.WriteU8(99);  // invalid ReliabilityLevel
  writer.WriteU32(2);
  BufferReader reader(writer.buffer());
  EXPECT_FALSE(CheckpointPolicy::Decode(reader).ok());
}

// --- Golden wire encodings ---------------------------------------------------
//
// One fully populated message of each kind: every list and optional part is
// non-empty, every span context is set, and delta_seq needs a two-byte varint.
// The hex was captured from the hand-written per-message codecs that the
// field-list schema replaced; the model's timing (and so every determinism
// pin) depends on these bytes, so a codec change must reproduce them exactly.

SpanContext SampleSpan(uint64_t seed) {
  SpanContext span;
  span.trace_id = seed;
  span.span_id = seed + 1;
  span.parent_span_id = seed + 2;
  return span;
}

template <typename Msg>
Bytes Reencode(BytesView encoded) {
  auto decoded = Msg::Decode(encoded);
  return decoded.ok() ? decoded->Encode() : Bytes{};
}

template <typename Msg>
bool Accepts(BytesView encoded) {
  return Msg::Decode(encoded).ok();
}

struct GoldenMessage {
  const char* label;
  Bytes encoded;
  Bytes (*reencode)(BytesView);
  const char* hex;
};

template <typename Msg>
GoldenMessage Golden(const char* label, const Msg& msg, const char* hex) {
  return {label, msg.Encode(), &Reencode<Msg>, hex};
}

std::string Hex(BytesView bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t byte : bytes) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

std::vector<GoldenMessage> GoldenMessages() {
  const ObjectName name(5, 0x0102030405ULL, 0xbeef);
  std::vector<GoldenMessage> out;

  InvokeRequestMsg request;
  request.invocation_id = 0x0102030405060708ULL;
  request.reply_to = 4;
  request.target = SampleCapability();
  request.operation = "put";
  request.args.AddString("line").AddU64(9).AddCapability(SampleCapability());
  request.avoid_hosts = {9, 11};
  request.span = SampleSpan(0x10);
  out.push_back(Golden("InvokeRequest", request,
                      "01080706050403020104000000030000004d00000000000000cdab00"
                      "00030000000370757402046c696e6508090000000000000001030000"
                      "004d00000000000000cdab00000300000002090000000b0000001000"
                      "00000000000011000000000000001200000000000000"));

  InvokeReplyMsg reply;
  reply.invocation_id = 42;
  reply.result.status = TimeoutError("slow");
  reply.result.results.AddU64(7).AddCapability(SampleCapability());
  reply.lease_renew_expiry = 123456789;
  out.push_back(Golden("InvokeReply", reply,
                      "022a000000000000000404736c6f7701080700000000000000010300"
                      "00004d00000000000000cdab0000030000000015cd5b0700000000"));

  InvokeRedirectMsg redirect;
  redirect.invocation_id = 5;
  redirect.name = name;
  redirect.new_host = 7;
  redirect.epoch = 0x1122334455ULL;
  out.push_back(Golden("InvokeRedirect", redirect,
                      "030500000000000000050000000504030201000000efbe0000070000"
                      "005544332211000000"));

  LocateRequestMsg locate;
  locate.query_id = 77;
  locate.reply_to = 2;
  locate.name = name;
  locate.span = SampleSpan(0x20);
  out.push_back(Golden("LocateRequest", locate,
                      "044d0000000000000002000000050000000504030201000000efbe00"
                      "00200000000000000021000000000000002200000000000000"));

  LocateReplyMsg located;
  located.query_id = 77;
  located.name = name;
  located.host = 3;
  located.active = true;
  located.epoch = 987654321;
  out.push_back(Golden("LocateReply", located,
                      "054d00000000000000050000000504030201000000efbe0000030000"
                      "0001b168de3a00000000"));

  MoveTransferMsg transfer;
  transfer.transfer_id = 8;
  transfer.source = 1;
  transfer.name = name;
  transfer.type_name = "std.mailbox";
  transfer.representation = SampleRepresentation();
  transfer.representation.SetDataFromString(1, "more");
  transfer.policy = CheckpointPolicy{2, ReliabilityLevel::kMirrored, 3};
  transfer.frozen = true;
  transfer.span = SampleSpan(0x30);
  transfer.cached_replies.push_back(
      {100, InvokeResult::Ok(InvokeArgs().AddString("done"))});
  transfer.cached_replies.push_back(
      {101, InvokeResult::Error(NotFoundError("gone"))});
  out.push_back(Golden("MoveTransfer", transfer,
                      "06080000000000000001000000050000000504030201000000efbe00"
                      "000b7374642e6d61696c626f7802057374617465046d6f7265010300"
                      "00004d00000000000000cdab00000300000002000000010300000001"
                      "30000000000000003100000000000000320000000000000002640000"
                      "000000000000000104646f6e65000065000000000000000204676f6e"
                      "65000000"));

  MoveAckMsg move_ack;
  move_ack.transfer_id = 11;
  move_ack.name = name;
  move_ack.accepted = true;
  move_ack.epoch = 42424242;
  out.push_back(Golden("MoveAck", move_ack,
                      "070b00000000000000050000000504030201000000efbe000001b257"
                      "870200000000"));

  CheckpointPutMsg put;
  put.request_id = 13;
  put.reply_to = 1;
  put.name = name;
  put.record = SharedBytes(ToBytes("record bytes"));
  put.is_mirror = true;
  put.delta_seq = 300;
  put.span = SampleSpan(0x40);
  out.push_back(Golden("CheckpointPut", put,
                      "080d0000000000000001000000050000000504030201000000efbe00"
                      "000c7265636f726420627974657301ac024000000000000000410000"
                      "00000000004200000000000000"));

  CheckpointAckMsg ack;
  ack.request_id = 13;
  ack.ok = true;
  out.push_back(Golden("CheckpointAck", ack, "090d0000000000000001"));

  CheckpointEraseMsg erase;
  erase.name = name;
  out.push_back(Golden("CheckpointErase", erase,
                      "0a050000000504030201000000efbe0000"));

  out.push_back(Golden("Ping", PingMsg{}, "0d"));

  DirectoryUpdateMsg update;
  update.name = name;
  update.host = 5;
  update.epoch = 0xdeadbeefULL;
  update.active = true;
  update.removal = true;
  out.push_back(Golden("DirectoryUpdate", update,
                      "0e050000000504030201000000efbe000005000000efbeadde000000"
                      "000101"));

  DirectoryLookupMsg lookup;
  lookup.query_id = 31;
  lookup.reply_to = 2;
  lookup.name = name;
  lookup.avoid_hosts = {4, 12};
  lookup.span = SampleSpan(0x50);
  out.push_back(Golden("DirectoryLookup", lookup,
                      "0f1f0000000000000002000000050000000504030201000000efbe00"
                      "0002040000000c000000500000000000000051000000000000005200"
                      "000000000000"));

  DirectoryReplyMsg directory_reply;
  directory_reply.query_id = 31;
  directory_reply.name = name;
  directory_reply.known = true;
  directory_reply.host = 5;
  directory_reply.epoch = 0xdeadbeefULL;
  directory_reply.active = true;
  out.push_back(Golden("DirectoryReply", directory_reply,
                      "101f00000000000000050000000504030201000000efbe0000010500"
                      "0000efbeadde0000000001"));

  LeaseGrantMsg grant;
  grant.name = name;
  grant.type_name = "std.data";
  grant.representation = SampleRepresentation();
  grant.expiry = static_cast<uint64_t>(kSimTimeNever);
  grant.epoch = 0x5566778899ULL;
  grant.seq = 12;
  out.push_back(Golden("LeaseGrant", grant,
                      "11050000000504030201000000efbe0000087374642e646174610105"
                      "737461746501030000004d00000000000000cdab000003000000ffff"
                      "ffffffffff7f99887766550000000c00000000000000"));

  LeaseRecallMsg recall;
  recall.name = name;
  recall.epoch = 0x5566778899ULL;
  recall.seq = 13;
  recall.span = SampleSpan(0x60);
  out.push_back(Golden("LeaseRecall", recall,
                      "12050000000504030201000000efbe000099887766550000000d0000"
                      "00000000006000000000000000610000000000000062000000000000"
                      "00"));

  LeaseReleaseMsg release;
  release.name = name;
  release.holder = 6;
  release.epoch = 0x5566778899ULL;
  release.seq = 13;
  out.push_back(Golden("LeaseRelease", release,
                      "13050000000504030201000000efbe00000600000099887766550000"
                      "000d00000000000000"));
  return out;
}

TEST(MessageTest, GoldenWireEncodings) {
  std::vector<GoldenMessage> golden = GoldenMessages();
  ASSERT_EQ(golden.size(), 17u);  // one per MessageKind
  for (const GoldenMessage& g : golden) {
    SCOPED_TRACE(g.label);
    EXPECT_EQ(Hex(g.encoded), g.hex);
    EXPECT_EQ(g.reencode(g.encoded), g.encoded);
  }
}

// Every decoder against hostile variants of every golden buffer: each
// truncation, a trailing 0xff, and five byte values at each position. Nothing
// may crash (the CI sanitizer tree runs this), and the set of (input,
// decoder) pairs that decode must stay exactly what the hand-written codecs
// accepted, pinned as a digest.
TEST(MessageTest, HostileInputSweep) {
  using AcceptFn = bool (*)(BytesView);
  const AcceptFn decoders[] = {
      &Accepts<InvokeRequestMsg>,   &Accepts<InvokeReplyMsg>,
      &Accepts<InvokeRedirectMsg>,  &Accepts<LocateRequestMsg>,
      &Accepts<LocateReplyMsg>,     &Accepts<MoveTransferMsg>,
      &Accepts<MoveAckMsg>,         &Accepts<CheckpointPutMsg>,
      &Accepts<CheckpointAckMsg>,   &Accepts<CheckpointEraseMsg>,
      &Accepts<PingMsg>,            &Accepts<DirectoryUpdateMsg>,
      &Accepts<DirectoryLookupMsg>, &Accepts<DirectoryReplyMsg>,
      &Accepts<LeaseGrantMsg>,      &Accepts<LeaseRecallMsg>,
      &Accepts<LeaseReleaseMsg>,
  };
  Digest accepted_set;
  size_t inputs = 0;
  size_t accepted = 0;
  auto sweep = [&](BytesView input) {
    inputs++;
    for (AcceptFn decode : decoders) {
      bool ok = decode(input);
      accepted += ok ? 1 : 0;
      accepted_set.Mix(ok ? 1 : 0);
    }
  };
  for (const GoldenMessage& g : GoldenMessages()) {
    const Bytes& encoded = g.encoded;
    for (size_t cut = 0; cut < encoded.size(); cut++) {
      sweep(BytesView(encoded.data(), cut));
    }
    Bytes extended = encoded;
    extended.push_back(0xff);
    sweep(extended);
    for (size_t pos = 0; pos < encoded.size(); pos++) {
      for (uint8_t value : {0x00, 0x01, 0x7f, 0x80, 0xff}) {
        Bytes mutated = encoded;
        mutated[pos] = value;
        sweep(mutated);
      }
    }
  }
  EXPECT_EQ(inputs, 5225u);
  EXPECT_EQ(accepted, 4120u);
  EXPECT_EQ(accepted_set.value(), 3260483162559379845u);
}

TEST(MessageTest, EveryKindTagMapsToTheTypeCarryingIt) {
  int mapped = 0;
  for (int tag = 0; tag < 256; tag++) {
    auto kind = static_cast<MessageKind>(tag);
    bool known = VisitMessageType(kind, [&](auto type) {
      using Msg = typename decltype(type)::type;
      EXPECT_EQ(Msg::kKind, kind);
      EXPECT_EQ(Msg().Encode()[0], tag);
      return true;
    });
    EXPECT_EQ(known, PeekMessageKind(Bytes{static_cast<uint8_t>(tag)}).ok());
    mapped += known ? 1 : 0;
  }
  EXPECT_EQ(mapped, 17);
}

TEST(MessageTest, CheckpointRecordHeaderLayout) {
  // Kind byte, type name, policy, frozen flag: the layout every stored
  // checkpoint record starts with.
  CheckpointRecordHeader header{CheckpointRecordKind::kDelta, "std.data",
                                {2, ReliabilityLevel::kMirrored, 3}, true};
  BufferWriter expected;
  expected.WriteU8(static_cast<uint8_t>(CheckpointRecordKind::kDelta));
  expected.WriteString("std.data");
  header.policy.Encode(expected);
  expected.WriteBool(true);
  BufferWriter writer;
  WriteFields(writer, header);
  EXPECT_EQ(writer.buffer(), expected.buffer());
  EXPECT_LE(writer.size(), FieldsSizeBound(header));

  BufferReader reader(writer.buffer());
  CheckpointRecordHeader decoded;
  ASSERT_TRUE(ReadFields(reader, decoded).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded.kind, CheckpointRecordKind::kDelta);
  EXPECT_EQ(decoded.type_name, "std.data");
  EXPECT_EQ(decoded.policy, header.policy);
  EXPECT_TRUE(decoded.frozen);

  for (size_t cut = 0; cut < writer.size(); cut++) {
    BufferReader truncated(writer.buffer().data(), cut);
    CheckpointRecordHeader partial;
    EXPECT_FALSE(ReadFields(truncated, partial).ok()) << "prefix " << cut;
  }
}

}  // namespace
}  // namespace eden
