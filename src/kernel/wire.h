// Field-list codec for the kernel's wire messages and checkpoint record
// headers (DESIGN.md §2.1). A record type states its layout once, as a
// static Fields function that hands its fields, in wire order, to a visitor:
//
//   template <typename Self, typename Visit>
//   static auto Fields(Self& m, Visit&& visit) {
//     return visit(m.request_id, m.ok);
//   }
//
// FieldWriter, FieldReader and FieldSizer are the visitors, so the encoder,
// the decoder and the encoder's size bound all derive from that one list. A
// field encodes the way its type does: u64 and u32 fixed-width; bool as one
// byte, 0 or 1; std::string and SharedBytes as a varint length and the
// bytes; a one-byte enum as its byte, which the record's reader checks; a
// type with Fields as those fields; any other type through its own
// Encode(BufferWriter&) and Decode(BufferReader&), sized by its kEncodedSize
// or EncodedSizeBound(). Varint, List and Reserved wrap the fields whose
// encoding their type does not imply.
#ifndef EDEN_SRC_KERNEL_WIRE_H_
#define EDEN_SRC_KERNEL_WIRE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace eden {

// A u64 written as a varint instead of fixed-width.
template <typename T>
struct Varint {
  T& value;
};
template <typename T>
Varint(T&) -> Varint<T>;

// A varint element count, then the elements. Decode rejects a count above
// `cap` before it reads any element.
template <typename V>
struct List {
  V& items;
  size_t cap;
};
template <typename V>
List(V&, size_t) -> List<V>;

// One byte, written as zero and skipped, whatever its value, on decode.
struct Reserved {};

// A visitor that does nothing, so HasFields can test for a field list.
struct IgnoreFields {
  template <typename... Ts>
  void operator()(Ts&&...) const {}
};

template <typename T>
concept HasFields = requires(T& record) { T::Fields(record, IgnoreFields()); };

class FieldWriter {
 public:
  explicit FieldWriter(BufferWriter& writer) : writer_(writer) {}

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (Write(fields), ...);
  }

 private:
  template <typename T>
  void Write(const T& field) {
    if constexpr (std::is_same_v<T, uint64_t>) {
      writer_.WriteU64(field);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      writer_.WriteU32(field);
    } else if constexpr (std::is_same_v<T, bool>) {
      writer_.WriteBool(field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      writer_.WriteString(field);
    } else if constexpr (std::is_same_v<T, SharedBytes>) {
      writer_.WriteBytes(field.view());
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "only one-byte enums are fields");
      writer_.WriteU8(static_cast<uint8_t>(field));
    } else if constexpr (HasFields<T>) {
      T::Fields(field, *this);
    } else {
      field.Encode(writer_);
    }
  }
  template <typename T>
  void Write(const Varint<T>& field) {
    writer_.WriteVarint(field.value);
  }
  template <typename V>
  void Write(const List<V>& field) {
    writer_.WriteVarint(field.items.size());
    for (const auto& item : field.items) {
      Write(item);
    }
  }
  void Write(Reserved) { writer_.WriteU8(0); }

  BufferWriter& writer_;
};

// A visit returns false at the first field that fails to decode, and
// status() says why.
class FieldReader {
 public:
  explicit FieldReader(BufferReader& reader) : reader_(reader) {}

  template <typename... Ts>
  bool operator()(Ts&&... fields) {
    return (Read(fields) && ...);
  }

  const Status& status() const { return status_; }

 private:
  template <typename T, typename V>
  bool Take(StatusOr<V> value, T& field) {
    if (!value.ok()) {
      status_ = value.status();
      return false;
    }
    field = T(std::move(value).value());
    return true;
  }

  template <typename T>
  bool Read(T& field) {
    if constexpr (std::is_same_v<T, uint64_t>) {
      return Take(reader_.ReadU64(), field);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      return Take(reader_.ReadU32(), field);
    } else if constexpr (std::is_same_v<T, bool>) {
      return Take(reader_.ReadBool(), field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return Take(reader_.ReadString(), field);
    } else if constexpr (std::is_same_v<T, SharedBytes>) {
      return Take(reader_.ReadBytes(), field);
    } else if constexpr (std::is_enum_v<T>) {
      return Take(reader_.ReadU8(), field);
    } else if constexpr (HasFields<T>) {
      return T::Fields(field, *this);
    } else {
      return Take(T::Decode(reader_), field);
    }
  }
  template <typename T>
  bool Read(Varint<T>& field) {
    return Take(reader_.ReadVarint(), field.value);
  }
  template <typename V>
  bool Read(List<V>& field) {
    uint64_t count = 0;
    if (!Take(reader_.ReadVarint(), count)) {
      return false;
    }
    if (count > field.cap) {
      status_ = InvalidArgumentError("implausible list length");
      return false;
    }
    for (uint64_t i = 0; i < count; i++) {
      typename V::value_type item;
      if (!Read(item)) {
        return false;
      }
      field.items.push_back(std::move(item));
    }
    return true;
  }
  bool Read(Reserved) {
    uint8_t ignored = 0;
    return Take(reader_.ReadU8(), ignored);
  }

  BufferReader& reader_;
  Status status_;
};

// An upper bound on the bytes FieldWriter appends for the same fields.
class FieldSizer {
 public:
  template <typename... Ts>
  size_t operator()(const Ts&... fields) const {
    return (Bound(fields) + ... + size_t{0});
  }

 private:
  template <typename T>
  static size_t Bound(const T& field) {
    if constexpr (std::is_same_v<T, uint64_t>) {
      return 8;
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      return 4;
    } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      return 1;
    } else if constexpr (std::is_same_v<T, std::string> ||
                         std::is_same_v<T, SharedBytes>) {
      return kMaxVarintBytes + field.size();
    } else if constexpr (HasFields<T>) {
      return T::Fields(field, FieldSizer());
    } else if constexpr (requires { T::kEncodedSize; }) {
      return T::kEncodedSize;
    } else {
      return field.EncodedSizeBound();
    }
  }
  template <typename T>
  static size_t Bound(const Varint<T>&) {
    return kMaxVarintBytes;
  }
  template <typename V>
  static size_t Bound(const List<V>& field) {
    size_t total = kMaxVarintBytes;
    for (const auto& item : field.items) {
      total += Bound(item);
    }
    return total;
  }
  static size_t Bound(Reserved) { return 1; }
};

template <typename Record>
void WriteFields(BufferWriter& writer, const Record& record) {
  Record::Fields(record, FieldWriter(writer));
}

// The status of the first field that failed to decode, or OK.
template <typename Record>
Status ReadFields(BufferReader& reader, Record& record) {
  FieldReader fields(reader);
  Record::Fields(record, fields);
  return fields.status();
}

template <typename Record>
size_t FieldsSizeBound(const Record& record) {
  return Record::Fields(record, FieldSizer());
}

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_WIRE_H_
