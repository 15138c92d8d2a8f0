// Little byte-buffer codec for the snapshot records and the shard and
// store wire protocols: append-only writer, bounds-checked reader.
//
// The format is deliberately dumb — fixed-width host-endian integers
// and length-prefixed strings, no varints, no alignment tricks — because
// every consumer is this repository on machines of one byte order
// (snapshot records and every hello carry a byte-order marker, and a
// mismatch is refused rather than decoded). What matters is that a
// truncated or corrupted buffer NEVER crashes the reader: every Get*
// checks the remaining size first and latches a failure flag, so
// callers can decode an entire structure optimistically and test ok()
// once at the end (reads after a failure return zero values).
#ifndef OODBSEC_SNAPSHOT_BINIO_H_
#define OODBSEC_SNAPSHOT_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace oodbsec::snapshot {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof v); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof v); }
  void PutI32(int32_t v) { PutFixed(&v, sizeof v); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buffer_.append(s);
  }
  // Raw bytes, no length prefix (fixed-size fields like magic strings).
  void PutFixedString(std::string_view s) { buffer_.append(s); }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  void PutFixed(const void* v, size_t n) {
    // Host byte order: markers refuse foreign-endian peers and records.
    buffer_.append(reinterpret_cast<const char*>(v), n);
  }

  std::string buffer_;
};

// The byte-order marker's mirror image is how a foreign-endian peer or
// record is recognized (and refused).
inline constexpr uint32_t Bswap32(uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000ff00u) | ((v << 8) & 0x00ff0000u) |
         (v << 24);
}

// Unaligned host-order loads from raw record and pack bytes, and the
// 8-byte alignment both layouts pad their records to.
inline uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline constexpr uint64_t AlignUp8(uint64_t v) {
  return (v + 7) & ~uint64_t{7};
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() {
    uint8_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  int32_t GetI32() {
    int32_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  std::string GetString() {
    uint32_t n = GetU32();
    if (n > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  size_t remaining() const { return data_.size() - pos_; }
  // True while every read so far stayed in bounds.
  bool ok() const { return !failed_; }
  // True when the buffer was consumed exactly.
  bool exhausted() const { return ok() && remaining() == 0; }

 private:
  void GetFixed(void* v, size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return;
    }
    std::memcpy(v, data_.data() + pos_, n);
    pos_ += n;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// FNV-1a 64-bit: the checksum of snapshot payloads, the schema
// fingerprint accumulator, and the shard partitioner's signature hash.
// Stable across processes and runs by construction (no seeding).
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0xcbf29ce484222325ull) {
  uint64_t hash = seed;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_BINIO_H_
