// FNV-1a 64-bit: the checksum of snapshot payloads, pack indexes and
// frames, the schema content hash (schema::Schema::fingerprint), and
// the shard partitioner's signature hash. Stable across processes and
// runs by construction (no seeding).
//
// The state of FNV-1a is its hash, so passing a previous result as
// `seed` continues that hash: Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b).
// The snapshot tier relies on this to extend the schema's stored hash
// with the closure options.
#ifndef OODBSEC_COMMON_FNV_H_
#define OODBSEC_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace oodbsec::common {

inline uint64_t Fnv1a64(std::string_view data,
                        uint64_t seed = 0xcbf29ce484222325ull) {
  uint64_t hash = seed;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Extends `hash` with `field` and then the ASCII unit separator (0x1f),
// so a sequence of fields cannot hash like another split of the same
// bytes ("ab" + "c" vs "a" + "bc").
inline uint64_t Fnv1a64Field(std::string_view field, uint64_t hash) {
  return Fnv1a64(std::string_view("\x1f", 1), Fnv1a64(field, hash));
}

}  // namespace oodbsec::common

#endif  // OODBSEC_COMMON_FNV_H_
