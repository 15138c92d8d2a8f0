// PackedStore: the single-file snapshot storage engine (the store of
// record).
//
// PackedStore keeps every cached closure in ONE segment file with an
// on-disk index of far pointers (segment offset + length) keyed by the
// capability signature hash (SnapshotKeyHash), following the
// page/far-pointer idiom of Tokyo Cabinet's B-tree pager (see ROADMAP).
//
// File layout (all integers host-endian; a pack never crosses machines
// of different endianness — the mmap replay path aliases raw structs,
// so a foreign pack is refused):
//
//   header   "OODBPACK" | pack version u32 | byte-order marker u32
//            | reserved u64 x2                               (32 bytes)
//   records  at 8-aligned offsets, each:
//              key u64 | entry length u64 | entry | zero pad to 8
//   footer   index: per live record
//              key u64 | offset u64 | length u64
//              | fingerprint u64 | checksum u64              (40 bytes)
//            sorted by key, then trailer:
//              index offset u64 | entry count u64
//              | index checksum u64 (FNV-1a) | "OODBPIDX"    (32 bytes)
//
// Each entry is one format-v4 snapshot record (snapshot/snapshot.h),
// validated and replayed by DecodeEntry with its step array and
// premise arena aliased straight out of the mmap'd segment — no
// intermediate buffers.
//
// Durability: appends go record-first, footer-second, so a torn write
// loses at most the record being appended; Open falls back from an
// invalid trailer to scanning self-delimiting records from the top and
// keeps every record that validates (this covers both a truncated
// segment and a torn index). Retention sweeps compact online: live
// records of the current schema generation are rewritten into a fresh
// segment and swapped in by atomic tmp+rename.
//
// An LRU page cache keyed by signature holds hot decoded closures, so
// repeated Finds of one signature (e.g. the session cache and the
// service cache sharing a store) pay one replay.
//
// One writer: a pack is owned by one process. Shard workers, forked or
// remote, reach it through store frames on their shard connections,
// which the coordinator answers (service/tcp_shard.h), never by opening
// the file themselves.
#ifndef OODBSEC_SNAPSHOT_PACKED_STORE_H_
#define OODBSEC_SNAPSHOT_PACKED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::snapshot {

inline constexpr std::string_view kPackMagic = "OODBPACK";
inline constexpr std::string_view kPackIndexMagic = "OODBPIDX";
inline constexpr uint32_t kPackVersion = 1;

// Opens (creating if absent) the packed segment at `path`. Fails when
// the file exists but is not a pack, is a newer pack version, or was
// written on a machine of the opposite endianness. A torn footer or
// truncated tail is NOT an error — recovery keeps every record that
// validates. `page_cache_capacity` bounds the decoded-closure LRU
// (min 1).
common::Result<std::shared_ptr<SnapshotStore>> OpenPackedStore(
    std::string path, size_t page_cache_capacity = 64);

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_PACKED_STORE_H_
