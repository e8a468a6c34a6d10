#ifndef MASSBFT_PROTO_FIELD_CODEC_H_
#define MASSBFT_PROTO_FIELD_CODEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "common/status.h"
#include "proto/entry.h"

/// The one codec behind every wire message body (DESIGN.md §12). A body is
/// a plain struct that lists its members once, in wire order:
///
///   struct RaftCommit {
///     uint16_t gid = 0;
///     uint64_t seq = 0;
///     Certificate cert;
///     auto Fields() { return std::tie(gid, seq, cert); }
///   };
///
/// Encode, Decode and Size walk that list. Each member type has one layout:
///
///   uint8_t .. uint64_t    fixed width, little-endian
///   bool                   one byte, 0 or 1
///   std::array<uint8_t, N> N raw bytes (Digest, Signature)
///   Bytes                  varint length, then the bytes
///   std::vector<T>         varint count, then each element
///   EntryPtr               varint length, then the entry's canonical bytes
///   a struct with Fields() its fields in order
///   anything else          its own EncodeTo / DecodeFrom (Certificate,
///                          MerkleProof: they enforce canonical forms)
///
/// Decode accepts only what Encode writes: 0 or 1 for a bool, minimal
/// varints (BinaryReader), canonical certificates. So a message has exactly
/// one encoding, and a decoded frame re-encodes to itself.
namespace massbft::field {

template <class T>
concept Listed = requires(T& value) { value.Fields(); };

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIsByteArray = false;
template <size_t N>
inline constexpr bool kIsByteArray<std::array<uint8_t, N>> = true;

/// Appends `value` to `out`: a BinaryWriter, or a ByteCounter to size it.
template <class Sink, class T>
void Encode(Sink* out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out->PutU8(value ? 1 : 0);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    out->PutU8(value);
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    out->PutU16(value);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    out->PutU32(value);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    out->PutU64(value);
  } else if constexpr (kIsByteArray<T>) {
    out->PutRaw(value.data(), value.size());
  } else if constexpr (std::is_same_v<T, Bytes>) {
    out->PutBytes(value);
  } else if constexpr (kIsVector<T>) {
    out->PutVarint(value.size());
    for (const auto& element : value) Encode(out, element);
  } else if constexpr (std::is_same_v<T, EntryPtr>) {
    out->PutBytes(value->Encoded());
  } else if constexpr (Listed<T>) {
    // Fields() is non-const so that one list serves Decode as well; Encode
    // only reads through the references it returns.
    std::apply([out](const auto&... field) { (Encode(out, field), ...); },
               const_cast<T&>(value).Fields());
  } else {
    value.EncodeTo(out);
  }
}

/// Reads into `value` what Encode wrote. Never reads past the end of `in`,
/// and rejects any byte string Encode would not have written.
template <class T>
[[nodiscard]] Status Decode(BinaryReader* in, T* value) {
  if constexpr (std::is_same_v<T, bool>) {
    uint8_t byte = 0;
    MASSBFT_RETURN_IF_ERROR(in->GetU8(&byte));
    if (byte > 1) return Status::Corruption("bool is neither 0 nor 1");
    *value = byte == 1;
    return Status::OK();
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return in->GetU8(value);
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    return in->GetU16(value);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return in->GetU32(value);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    return in->GetU64(value);
  } else if constexpr (kIsByteArray<T>) {
    return in->GetRaw(value->data(), value->size());
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return in->GetBytes(value);
  } else if constexpr (kIsVector<T>) {
    uint64_t count = 0;
    MASSBFT_RETURN_IF_ERROR(in->GetVarint(&count));
    // Every element takes at least one byte: a larger count is a lie,
    // caught before it sizes an allocation.
    if (count > in->Remaining())
      return Status::Corruption("implausible element count");
    value->clear();
    value->reserve(count);
    for (uint64_t i = 0; i < count; ++i)
      MASSBFT_RETURN_IF_ERROR(Decode(in, &value->emplace_back()));
    return Status::OK();
  } else if constexpr (std::is_same_v<T, EntryPtr>) {
    Bytes blob;
    MASSBFT_RETURN_IF_ERROR(in->GetBytes(&blob));
    MASSBFT_ASSIGN_OR_RETURN(*value, Entry::Decode(std::move(blob)));
    return Status::OK();
  } else if constexpr (Listed<T>) {
    // Decodes the fields in order, stopping at the first error.
    Status status = Status::OK();
    std::apply(
        [in, &status](auto&... field) {
          (void)((status = Decode(in, &field)).ok() && ...);
        },
        value->Fields());
    return status;
  } else {
    MASSBFT_ASSIGN_OR_RETURN(*value, T::DecodeFrom(in));
    return Status::OK();
  }
}

/// Encoded size of `value`, counted by walking its fields without writing.
template <class T>
size_t Size(const T& value) {
  ByteCounter counter;
  Encode(&counter, value);
  return counter.size();
}

/// `value`'s encoding as a standalone byte string.
template <class T>
Bytes ToBytes(const T& value) {
  BinaryWriter w(Size(value));
  Encode(&w, value);
  return w.Release();
}

}  // namespace massbft::field

#endif  // MASSBFT_PROTO_FIELD_CODEC_H_
