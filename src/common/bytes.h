// Bounds-checked binary codec used for every wire message, checkpoint record
// and representation segment in Eden. Encoding is little-endian with varint
// length prefixes; readers never trust lengths (a truncated or hostile buffer
// yields an error Status, never UB).
#ifndef EDEN_SRC_COMMON_BYTES_H_
#define EDEN_SRC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace eden {

using Bytes = std::vector<uint8_t>;

// A borrowed, non-owning view of a byte range (the uint8_t analogue of
// std::string_view). The hot message path hands decoders and transport
// handlers views instead of Bytes so a single-fragment message is never
// copied between the wire and the kernel's decode. A view is only valid
// while the underlying buffer lives; handlers that stash a payload must
// call ToBytes().
class BytesView {
 public:
  constexpr BytesView() = default;
  constexpr BytesView(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  BytesView(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : data_(bytes.data()), size_(bytes.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  BytesView subview(size_t offset, size_t length) const {
    return BytesView(data_ + offset, length);
  }

  // Explicit copy into an owned buffer.
  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// An immutable, reference-counted byte buffer plus an offset/length window
// into it. Copying or slicing a SharedBytes bumps a refcount; the underlying
// allocation is shared. The transport moves each outgoing message into one
// of these, fragments it by slicing, ships the slices inside LAN frames, and
// reassembles by re-slicing, so the payload bytes are never copied between
// the sender's encoder and the receiver's decoder. The wrap itself costs one
// allocation (the shared control block); each frame adds its own header.
class SharedBytes {
 public:
  SharedBytes() = default;

  // Takes ownership of `bytes` (one allocation, no copy).
  explicit SharedBytes(Bytes bytes)
      : buffer_(std::make_shared<const Bytes>(std::move(bytes))),
        offset_(0),
        length_(buffer_->size()) {}

  // A sub-window sharing this buffer. `offset + length` must be in range.
  SharedBytes Slice(size_t offset, size_t length) const {
    SharedBytes out;
    out.buffer_ = buffer_;
    out.offset_ = offset_ + offset;
    out.length_ = length;
    return out;
  }

  const uint8_t* data() const {
    return buffer_ == nullptr ? nullptr : buffer_->data() + offset_;
  }
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  BytesView view() const { return BytesView(data(), length_); }
  Bytes ToBytes() const { return Bytes(data(), data() + length_); }

  // True when `other` is the window immediately following this one in the
  // same underlying buffer (reassembly uses this to rebuild a fragmented
  // message by widening a slice instead of concatenating).
  bool Precedes(const SharedBytes& other) const {
    return buffer_ != nullptr && buffer_ == other.buffer_ &&
           offset_ + length_ == other.offset_;
  }

  // Widens this window to cover `other` as well (requires Precedes(other)).
  void ExtendOver(const SharedBytes& other) { length_ += other.length_; }

 private:
  std::shared_ptr<const Bytes> buffer_;
  size_t offset_ = 0;
  size_t length_ = 0;
};

// Converts between Bytes and std::string views for convenience.
Bytes ToBytes(std::string_view text);
std::string ToString(const Bytes& bytes);
std::string ToString(BytesView bytes);

// Longest encoding of WriteVarint: a 64-bit value at 7 bits per byte.
constexpr size_t kMaxVarintBytes = 10;

// Append-only encoder. All writes succeed (the buffer grows); the produced
// buffer is retrieved with Take() or buffer(). Fixed-width fields are
// appended little-endian in one step each.
class BufferWriter {
 public:
  BufferWriter() = default;
  // Reserves `capacity` bytes, so an encoder that knows (a bound on) its
  // output size writes it into a single allocation.
  explicit BufferWriter(size_t capacity) { buffer_.reserve(capacity); }

  void WriteU8(uint8_t value);
  void WriteU16(uint16_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  // Unsigned LEB128.
  void WriteVarint(uint64_t value);
  // Varint length prefix + raw bytes.
  void WriteBytes(const Bytes& bytes);
  void WriteBytes(BytesView bytes);
  void WriteString(std::string_view text);
  void WriteBool(bool value);
  void WriteDouble(double value);
  // Raw bytes with no length prefix (caller knows the framing).
  void WriteRaw(const uint8_t* data, size_t size);
  // Overwrites the four bytes at `offset`, which must already be written,
  // with `value` (a placeholder filled in once the value is known).
  void PatchU32(size_t offset, uint32_t value);

  const Bytes& buffer() const { return buffer_; }
  Bytes Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

// Bounds-checked decoder over a borrowed buffer. The buffer must outlive the
// reader. Every Read* returns an error on truncation or overflow.
class BufferReader {
 public:
  explicit BufferReader(BytesView buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  StatusOr<uint8_t> ReadU8();
  StatusOr<uint16_t> ReadU16();
  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<int64_t> ReadI64();
  StatusOr<uint64_t> ReadVarint();
  StatusOr<Bytes> ReadBytes();
  StatusOr<std::string> ReadString();
  StatusOr<bool> ReadBool();
  StatusOr<double> ReadDouble();

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// 64-bit FNV-1a, used for content digests (determinism tests, replica
// integrity checks). Not cryptographic; Eden's threat model excludes
// malicious users (paper section 2).
uint64_t Fnv1a64(const uint8_t* data, size_t size);
uint64_t Fnv1a64(BytesView bytes);
uint64_t Fnv1a64(std::string_view text);

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum a
// 1981-era controller would compute in hardware. Used to detect wire
// bit-flips on transport frames and at-rest corruption / torn writes on
// stable-store records. Not a defense against adversaries (see Fnv1a64
// note); it exists to make injected faults *detectable* instead of silent.
uint32_t Crc32(const uint8_t* data, size_t size);
uint32_t Crc32(BytesView bytes);
// Incremental form for multi-buffer frames (header + body): seed with
// Crc32Begin(), fold in each buffer, finish with Crc32End().
uint32_t Crc32Begin();
uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t size);
uint32_t Crc32End(uint32_t state);

// Incremental digest for hashing event traces.
class Digest {
 public:
  void Mix(uint64_t value);
  void Mix(std::string_view text);
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace eden

#endif  // EDEN_SRC_COMMON_BYTES_H_
