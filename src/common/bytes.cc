#include "src/common/bytes.h"

#include <array>
#include <cassert>

namespace eden {

Bytes ToBytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string ToString(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

std::string ToString(BytesView bytes) {
  return std::string(bytes.begin(), bytes.end());
}

namespace {

// Spells the low N bytes of `value` into `out`, least significant first,
// whatever the host byte order.
template <size_t N>
void StoreLittleEndian(uint64_t value, uint8_t* out) {
  for (size_t i = 0; i < N; i++) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// Appends a fixed-width field with one capacity check.
template <size_t N>
void AppendLittleEndian(Bytes& buffer, uint64_t value) {
  uint8_t bytes[N];
  StoreLittleEndian<N>(value, bytes);
  buffer.insert(buffer.end(), bytes, bytes + N);
}

}  // namespace

void BufferWriter::WriteU8(uint8_t value) { buffer_.push_back(value); }

void BufferWriter::WriteU16(uint16_t value) {
  AppendLittleEndian<2>(buffer_, value);
}

void BufferWriter::WriteU32(uint32_t value) {
  AppendLittleEndian<4>(buffer_, value);
}

void BufferWriter::WriteU64(uint64_t value) {
  AppendLittleEndian<8>(buffer_, value);
}

void BufferWriter::WriteI64(int64_t value) {
  WriteU64(static_cast<uint64_t>(value));
}

void BufferWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  buffer_.push_back(static_cast<uint8_t>(value));
}

void BufferWriter::WriteBytes(const Bytes& bytes) {
  WriteVarint(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void BufferWriter::WriteBytes(BytesView bytes) {
  WriteVarint(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void BufferWriter::WriteString(std::string_view text) {
  WriteVarint(text.size());
  buffer_.insert(buffer_.end(), text.begin(), text.end());
}

void BufferWriter::WriteBool(bool value) { WriteU8(value ? 1 : 0); }

void BufferWriter::WriteDouble(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void BufferWriter::WriteRaw(const uint8_t* data, size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

void BufferWriter::PatchU32(size_t offset, uint32_t value) {
  assert(offset + 4 <= buffer_.size());
  StoreLittleEndian<4>(value, buffer_.data() + offset);
}

Status BufferReader::Need(size_t n) const {
  if (size_ - pos_ < n) {
    return InvalidArgumentError("truncated buffer");
  }
  return OkStatus();
}

StatusOr<uint8_t> BufferReader::ReadU8() {
  EDEN_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

StatusOr<uint16_t> BufferReader::ReadU16() {
  EDEN_RETURN_IF_ERROR(Need(2));
  uint16_t value = static_cast<uint16_t>(data_[pos_]) |
                   static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return value;
}

StatusOr<uint32_t> BufferReader::ReadU32() {
  EDEN_RETURN_IF_ERROR(Need(4));
  uint32_t value = 0;
  for (int i = 0; i < 4; i++) {
    value |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return value;
}

StatusOr<uint64_t> BufferReader::ReadU64() {
  EDEN_RETURN_IF_ERROR(Need(8));
  uint64_t value = 0;
  for (int i = 0; i < 8; i++) {
    value |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return value;
}

StatusOr<int64_t> BufferReader::ReadI64() {
  EDEN_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  return static_cast<int64_t>(bits);
}

StatusOr<uint64_t> BufferReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    EDEN_RETURN_IF_ERROR(Need(1));
    uint8_t byte = data_[pos_++];
    if (shift >= 63 && byte > 1) {
      return InvalidArgumentError("varint overflow");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
    shift += 7;
    if (shift > 63) {
      return InvalidArgumentError("varint too long");
    }
  }
}

StatusOr<Bytes> BufferReader::ReadBytes() {
  EDEN_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  EDEN_RETURN_IF_ERROR(Need(length));
  Bytes out(data_ + pos_, data_ + pos_ + length);
  pos_ += length;
  return out;
}

StatusOr<std::string> BufferReader::ReadString() {
  EDEN_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  EDEN_RETURN_IF_ERROR(Need(length));
  std::string out(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return out;
}

StatusOr<bool> BufferReader::ReadBool() {
  EDEN_ASSIGN_OR_RETURN(uint8_t byte, ReadU8());
  if (byte > 1) {
    return InvalidArgumentError("bad bool encoding");
  }
  return byte == 1;
}

StatusOr<double> BufferReader::ReadDouble() {
  EDEN_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; i++) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Fnv1a64(BytesView bytes) { return Fnv1a64(bytes.data(), bytes.size()); }

uint64_t Fnv1a64(std::string_view text) {
  return Fnv1a64(reinterpret_cast<const uint8_t*>(text.data()), text.size());
}

namespace {

// Slicing-by-8 tables for the reflected CRC-32, built at compile time.
// kCrc32Tables[0] is the classic byte-at-a-time table; kCrc32Tables[k][b] is
// the CRC contribution of byte b followed by k zero bytes, so eight lookups
// fold one 8-byte word into the state.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; k++) {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian load from any alignment; compiles to one mov on x86.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Begin() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t size) {
  const Crc32Tables& t = kCrc32Tables;
  for (; size >= 8; data += 8, size -= 8) {
    uint32_t lo = LoadLe32(data) ^ state;
    uint32_t hi = LoadLe32(data + 4);
    state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
            t[0][hi >> 24];
  }
  for (; size > 0; data++, size--) {
    state = (state >> 8) ^ t[0][(state ^ *data) & 0xffu];
  }
  return state;
}

uint32_t Crc32End(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32End(Crc32Update(Crc32Begin(), data, size));
}

uint32_t Crc32(BytesView bytes) { return Crc32(bytes.data(), bytes.size()); }

void Digest::Mix(uint64_t value) {
  for (int i = 0; i < 8; i++) {
    state_ ^= (value >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::Mix(std::string_view text) {
  for (char c : text) {
    state_ ^= static_cast<uint8_t>(c);
    state_ *= 0x100000001b3ULL;
  }
}

}  // namespace eden
