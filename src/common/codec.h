#ifndef MASSBFT_COMMON_CODEC_H_
#define MASSBFT_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace massbft {

/// Encoded size of `v` as an unsigned LEB128 varint (1-10 bytes).
constexpr size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Append-only little-endian binary encoder. All wire messages in proto/
/// serialize through this so that the byte counts charged to simulated
/// links are the real encoded sizes.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLE(v, 2); }
  void PutU32(uint32_t v) { PutLE(v, 4); }
  void PutU64(uint64_t v) { PutLE(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// Unsigned LEB128; compact for the many small ids/counters on the wire.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Length-prefixed (varint) byte blob.
  void PutBytes(const Bytes& b) {
    PutVarint(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void PutString(const std::string& s) {
    PutVarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Raw bytes, no length prefix (fixed-size fields like digests).
  void PutRaw(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  /// Overwrites 4 already-written bytes at `offset` (little-endian).
  /// For frame fields whose value is only known after the payload is
  /// appended (body length, CRC) — the single-pass encoder writes a
  /// placeholder, appends, then patches.
  void PatchU32(size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_[offset + static_cast<size_t>(i)] =
          static_cast<uint8_t>(v >> (8 * i));
  }

  size_t size() const { return buf_.size(); }
  const Bytes& buffer() const { return buf_; }
  Bytes Release() { return std::move(buf_); }

 private:
  void PutLE(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  Bytes buf_;
};

/// Counts the bytes a BinaryWriter would append, writing nothing: running
/// an encoder against this sink gives the encoding's exact size.
class ByteCounter {
 public:
  void PutU8(uint8_t) { n_ += 1; }
  void PutU16(uint16_t) { n_ += 2; }
  void PutU32(uint32_t) { n_ += 4; }
  void PutU64(uint64_t) { n_ += 8; }
  void PutVarint(uint64_t v) { n_ += VarintSize(v); }
  void PutBytes(const Bytes& b) { n_ += VarintSize(b.size()) + b.size(); }
  void PutRaw(const uint8_t*, size_t len) { n_ += len; }

  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

/// Bounds-checked little-endian decoder over a borrowed buffer. Every getter
/// reports Corruption instead of reading past the end, so malformed (e.g.
/// tampered) messages are rejected rather than crashing the node.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t len)
      : data_(data), len_(len), pos_(0) {}
  explicit BinaryReader(const Bytes& b) : BinaryReader(b.data(), b.size()) {}

  Status GetU8(uint8_t* out) { return GetLE(out, 1); }
  Status GetU16(uint16_t* out) { return GetLE(out, 2); }
  Status GetU32(uint32_t* out) { return GetLE(out, 4); }
  Status GetU64(uint64_t* out) { return GetLE(out, 8); }
  Status GetI64(int64_t* out) {
    uint64_t u = 0;
    MASSBFT_RETURN_IF_ERROR(GetU64(&u));
    *out = static_cast<int64_t>(u);
    return Status::OK();
  }

  /// Accepts only what PutVarint writes: the minimal encoding (no 0x80
  /// padding before a final zero byte) of a value that fits in 64 bits.
  /// So one value has exactly one encoding.
  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ >= len_) return Status::Corruption("truncated varint");
      const uint8_t byte = data_[pos_++];
      if (shift == 63 && byte > 1)
        return Status::Corruption("varint exceeds 64 bits");
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift > 0)
          return Status::Corruption("non-minimal varint");
        break;
      }
    }
    *out = v;
    return Status::OK();
  }

  Status GetBytes(Bytes* out) {
    uint64_t n = 0;
    MASSBFT_RETURN_IF_ERROR(GetVarint(&n));
    if (n > Remaining()) return Status::Corruption("truncated blob");
    out->assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return Status::OK();
  }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    MASSBFT_RETURN_IF_ERROR(GetVarint(&n));
    if (n > Remaining()) return Status::Corruption("truncated string");
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  Status GetRaw(uint8_t* out, size_t len) {
    if (len > Remaining()) return Status::Corruption("truncated raw field");
    // memcpy's pointers must be non-null even for len 0; an empty field
    // may be decoded into an empty buffer whose data() is null.
    if (len > 0) std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  size_t Remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  template <typename T>
  Status GetLE(T* out, int n) {
    if (static_cast<size_t>(n) > Remaining())
      return Status::Corruption("truncated integer");
    uint64_t v = 0;
    for (int i = 0; i < n; ++i)
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += n;
    *out = static_cast<T>(v);
    return Status::OK();
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_;
};

}  // namespace massbft

#endif  // MASSBFT_COMMON_CODEC_H_
