#include "src/kernel/invoke.h"

namespace eden {

InvokeArgs& InvokeArgs::AddU64(uint64_t value) {
  BufferWriter writer;
  writer.WriteU64(value);
  data.push_back(writer.Take());
  return *this;
}

StatusOr<std::string> InvokeArgs::StringAt(size_t index) const {
  if (index >= data.size()) {
    return InvalidArgumentError("missing data parameter");
  }
  return ToString(data[index]);
}

StatusOr<uint64_t> InvokeArgs::U64At(size_t index) const {
  if (index >= data.size()) {
    return InvalidArgumentError("missing data parameter");
  }
  BufferReader reader(data[index]);
  return reader.ReadU64();
}

StatusOr<int64_t> InvokeArgs::I64At(size_t index) const {
  EDEN_ASSIGN_OR_RETURN(uint64_t bits, U64At(index));
  return static_cast<int64_t>(bits);
}

StatusOr<Bytes> InvokeArgs::BytesAt(size_t index) const {
  if (index >= data.size()) {
    return InvalidArgumentError("missing data parameter");
  }
  return data[index];
}

StatusOr<Capability> InvokeArgs::CapabilityAt(size_t index) const {
  if (index >= caps.size()) {
    return InvalidArgumentError("missing capability parameter");
  }
  return caps[index];
}

size_t InvokeArgs::TotalBytes() const {
  size_t total = 0;
  for (const Bytes& item : data) {
    total += item.size();
  }
  total += caps.size() * Capability::kEncodedSize;
  return total;
}

size_t InvokeArgs::EncodedSizeBound() const {
  // TotalBytes counts each capability at its encoded width; add the two
  // counts and one length prefix per data item.
  return TotalBytes() + kMaxVarintBytes * (data.size() + 2);
}

void InvokeArgs::Encode(BufferWriter& writer) const {
  writer.WriteVarint(data.size());
  for (const Bytes& item : data) {
    writer.WriteBytes(item);
  }
  writer.WriteVarint(caps.size());
  for (const Capability& cap : caps) {
    cap.Encode(writer);
  }
}

StatusOr<InvokeArgs> InvokeArgs::Decode(BufferReader& reader) {
  InvokeArgs args;
  EDEN_ASSIGN_OR_RETURN(uint64_t data_count, reader.ReadVarint());
  if (data_count > 1u << 20) {
    return InvalidArgumentError("implausible parameter count");
  }
  for (uint64_t i = 0; i < data_count; i++) {
    EDEN_ASSIGN_OR_RETURN(Bytes item, reader.ReadBytes());
    args.data.push_back(std::move(item));
  }
  EDEN_ASSIGN_OR_RETURN(uint64_t cap_count, reader.ReadVarint());
  if (cap_count > 1u << 20) {
    return InvalidArgumentError("implausible capability count");
  }
  for (uint64_t i = 0; i < cap_count; i++) {
    EDEN_ASSIGN_OR_RETURN(Capability cap, Capability::Decode(reader));
    args.caps.push_back(cap);
  }
  return args;
}

size_t InvokeResult::EncodedSizeBound() const {
  return 1 + kMaxVarintBytes + status.message().size() +
         results.EncodedSizeBound();
}

void InvokeResult::Encode(BufferWriter& writer) const {
  writer.WriteU8(static_cast<uint8_t>(status.code()));
  writer.WriteString(status.message());
  results.Encode(writer);
}

StatusOr<InvokeResult> InvokeResult::Decode(BufferReader& reader) {
  EDEN_ASSIGN_OR_RETURN(uint8_t code, reader.ReadU8());
  EDEN_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  EDEN_ASSIGN_OR_RETURN(InvokeArgs results, InvokeArgs::Decode(reader));
  InvokeResult result;
  result.status = Status(static_cast<StatusCode>(code), std::move(message));
  result.results = std::move(results);
  return result;
}

}  // namespace eden
