// SnapshotStore: the persistence API behind the L2 closure-cache tier.
//
// The store abstracts the operations the closure cache needs — probe by
// capability signature, persist an entry, sweep stale generations,
// bulk-load, report stats — over the one record encoding
// (snapshot/snapshot.h). Two implementations exist:
//
//   * PackedStore — a single packed segment with an on-disk index, an
//     LRU page cache, and mmap in-place replay
//     (src/snapshot/packed_store.h). The store of record.
//   * RemoteSnapshotStore — a client of a StoreServer fronting some
//     other store over TCP (src/snapshot/remote_store.h). This is how
//     shard workers, forked or remote, reach the coordinator's store.
//
// A store is shared: one object serves the session's recheck cache, the
// service's closure cache, and — through the coordinator's
// StoreServer — every shard worker, so each store has exactly one
// writer process. Thread-safety: every operation may be called from any
// thread; implementations synchronize internally.
#ifndef OODBSEC_SNAPSHOT_SNAPSHOT_STORE_H_
#define OODBSEC_SNAPSHOT_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/closure_cache.h"
#include "obs/obs.h"
#include "schema/schema.h"

namespace oodbsec::snapshot {

// Value snapshot of a store's state and lifetime counters. Byte sizes
// are as-on-disk; the stale split is relative to the schema
// fingerprint the store last observed in a Save/Find/Sweep (stores are
// generation-stamped by fingerprint, not by wall clock).
struct StoreStats {
  std::string description;  // e.g. "packed:/var/oodb/cache.pack"
  uint64_t entries = 0;     // live records
  uint64_t file_bytes = 0;  // total on-disk footprint
  uint64_t live_bytes = 0;  // record bytes in the observed generation
  uint64_t stale_bytes = 0; // record bytes a Sweep would reclaim
  // Lifetime operation counters (this store object, not the file).
  uint64_t finds = 0;
  uint64_t saves = 0;
  uint64_t sweeps = 0;
  // Page-cache accounting; all zero for stores without one.
  uint64_t page_cache_hits = 0;
  uint64_t page_cache_misses = 0;
  uint64_t page_cache_evictions = 0;
};

// What one retention sweep did.
struct StoreSweepStats {
  uint64_t records_kept = 0;
  uint64_t records_swept = 0;
  uint64_t bytes_reclaimed = 0;  // on-disk footprint shrink
};

class SnapshotStore {
 public:
  virtual ~SnapshotStore() = default;

  // Probes the store for a closure over `roots` built under
  // (schema, options). Returns the replayed, digest-verified entry;
  // kNotFound when no record exists for the signature (an L2 miss);
  // kFailedPrecondition when a record exists but failed validation
  // (stale fingerprint, checksum, structural or digest mismatch — the
  // message says which). Never crashes on hostile bytes.
  virtual common::Result<std::shared_ptr<const core::CachedAnalysis>> Find(
      const schema::Schema& schema, const core::ClosureOptions& options,
      const std::vector<std::string>& roots,
      obs::Observability* obs = nullptr) = 0;

  // Persists `entry` (built under (schema, options)) durably and
  // atomically; concurrent savers of the same signature race benignly.
  virtual common::Status Save(const schema::Schema& schema,
                              const core::ClosureOptions& options,
                              const core::CachedAnalysis& entry) = 0;

  // Retention sweep: drops every record whose schema fingerprint
  // differs from `live_fingerprint` (see SchemaFingerprint) and
  // reclaims its bytes. Packed stores compact online: live records are
  // rewritten into a fresh segment swapped in atomically.
  virtual common::Result<StoreSweepStats> Sweep(uint64_t live_fingerprint) = 0;

  virtual StoreStats Stats() const = 0;

  // Bulk warm start: loads up to `limit` valid entries, in a
  // deterministic order, replaying each. Records that fail validation
  // are skipped and counted into *invalid (when non-null).
  virtual std::vector<std::shared_ptr<const core::CachedAnalysis>> LoadAll(
      const schema::Schema& schema, const core::ClosureOptions& options,
      size_t limit, size_t* invalid = nullptr,
      obs::Observability* obs = nullptr) = 0;
};

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_SNAPSHOT_STORE_H_
