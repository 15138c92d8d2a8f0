// ClosureCache: a subset-lattice cache of computed closures with
// warm-start reuse.
//
// The PR-1 service cache was an exact-signature map: a request either
// matched a cached root list byte-for-byte or paid a full cold fixpoint.
// Real populations don't change that way — capability lists overlap
// heavily and drift one grant at a time — so this cache treats its
// entries as points in the subset lattice of root sets:
//
//   * exact hit: the request's root list is cached — return it;
//   * otherwise one base is picked: the smallest cached *superset* of
//     the request close enough to shrink (at least half its roots
//     remain), else the largest cached *subset*, else none. The new
//     closure is built from it (core::Closure's `base`), which infers
//     the direction from the two root lists: a superset shrinks by DRed
//     retraction ("retract build"), a subset's derivation log is
//     replayed and only the delta derived ("warm build"), and without
//     a base the fixpoint runs in full ("cold build").
//
// Shrinking is copy-on-write: the superset entry is never mutated (it
// may be shared with concurrent readers); the shrunk closure becomes a
// brand-new entry under the reduced root list's key.
//
// Entries are handed out as shared_ptr<const CachedAnalysis>: the cache
// is LRU-bounded, and eviction must not invalidate entries that callers
// (or in-flight parallel builds using one as a warm base) still hold.
// A Closure never borrows from its warm base after construction, so an
// evicted base may be destroyed while closures derived from it live on.
//
// Warm-started closures derive the same fact set as a cold run over the
// same roots (Closure::FactSetDigest) but a different derivation log —
// callers that promise byte-identical derivation text must build cold.
//
// Snapshot tier (L2): when constructed with a snapshot::SnapshotStore,
// the cache persists entries through it (a packed segment file, or the
// coordinator's store over a shard connection — see
// snapshot/snapshot_store.h)
// and consults it
// between the exact-hit check and the build path:
//
//   exact hit (L1) → store probe (L2) → warm/cold build
//
// An L2 hit replays the persisted derivation log into a fresh closure —
// byte-identical to the one that was saved, at replay cost — and is
// inserted into L1 so the process pays the decode once. Invalid
// records (truncated, wrong schema fingerprint, wrong format version,
// corrupt) are counted and fall back to a build; they are never an
// error. Several caches may share one store, and shard workers reach
// the coordinator's over their shard connections: loads validate
// before trusting, so the store doubles as the cross-process cache the
// shard workers warm from.
//
// Thread-safety: like the service layer, the cache is a single-caller
// object — Find*/GetOrBuild/Insert must not race. BuildDetached is the
// exception: it is const, touches no cache state, and may run on many
// worker threads at once (the service's parallel build phase), each
// sharing cached entries as warm bases. Entries themselves may be
// shared across threads; see CachedAnalysis.
#ifndef OODBSEC_CORE_CLOSURE_CACHE_H_
#define OODBSEC_CORE_CLOSURE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/analyzer.h"
#include "core/capability.h"
#include "core/closure.h"
#include "core/requirement.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "unfold/unfolded.h"

namespace oodbsec::snapshot {
class SnapshotStore;  // snapshot/snapshot_store.h
}  // namespace oodbsec::snapshot

namespace oodbsec::core {

// One cached analysis unit: the root list that was unfolded, its
// program, the closed fixpoint, and the A(R) reports checked against
// it. The first four are immutable after construction and shared
// read-only; the report memo is the entry's one mutable part and is
// synchronized, so an entry may be shared across threads.
struct CachedAnalysis {
  std::vector<std::string> roots;         // unfold order
  std::vector<std::string> sorted_roots;  // subset-lattice key (unique'd)
  std::unique_ptr<unfold::UnfoldedSet> set;
  std::unique_ptr<Closure> closure;

  // CheckAgainstClosure(*set, *closure, requirement, obs, parent),
  // memoized per requirement shape: the function, each argument's
  // capability set by position, and the return capabilities. A(R)
  // reads nothing else of a requirement (not the user, not the
  // print-only arg_names), so every user of a role is served by one
  // check. The report equals a fresh check's in every field, with
  // `requirement` set to the caller's. A miss computes while holding
  // the entry's mutex, so exactly one check runs per (entry, shape)
  // whatever the scheduling ("analyzer.checks"); a hit records no
  // "check" span and counts "analyzer.check_hits". Errors are returned,
  // not stored. The memo lives as long as the entry and is not part of
  // its snapshot.
  common::Result<AnalysisReport> Check(const Requirement& requirement,
                                       obs::Observability* obs = nullptr,
                                       obs::SpanId parent = obs::kNoSpan) const;

 private:
  using Shape = std::tuple<std::string, std::vector<std::set<Capability>>,
                           std::set<Capability>>;
  mutable std::mutex memo_mutex_;
  // Guarded by memo_mutex_. Only ever inserted into, so a report's
  // address is stable for the entry's lifetime.
  mutable std::map<Shape, AnalysisReport, std::less<>> memo_;
};

// The subset-lattice key of a root list: sorted, duplicates dropped.
std::vector<std::string> SortedRootSet(std::vector<std::string> roots);

// Assembles one entry from an unfolded `set` and its `closure` (which
// borrows the set), keyed by SortedRootSet(roots).
std::shared_ptr<const CachedAnalysis> MakeCachedAnalysis(
    std::vector<std::string> roots, std::unique_ptr<unfold::UnfoldedSet> set,
    std::unique_ptr<Closure> closure);

class ClosureCache {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  struct Stats {
    uint64_t exact_hits = 0;
    uint64_t warm_builds = 0;  // grown from a cached subset's facts
    uint64_t cold_builds = 0;
    // Shrunk by DRed retraction from a cached superset (GetOrBuild's
    // superset base and RetractEntry's revoke fast path).
    uint64_t retract_builds = 0;
    uint64_t evictions = 0;
    // L2 accounting, all zero when no snapshot store is configured.
    // snapshot_hits counts closures served by replaying a persisted
    // derivation log — distinct from warm_builds, which replay another
    // *in-memory* entry and still run a delta fixpoint.
    uint64_t snapshot_hits = 0;
    uint64_t snapshot_misses = 0;   // probes with no stored record
    uint64_t snapshot_invalid = 0;  // records rejected by validation
  };

  // `schema` must outlive the cache. `obs` (optional) receives the
  // closure/unfold spans of every build plus "closure.cache.*" counters.
  // A non-null `store` arms the L2 tier (see the header comment); the
  // store may be shared with other caches and sessions.
  ClosureCache(const schema::Schema& schema, ClosureOptions options,
               size_t capacity = kDefaultCapacity,
               obs::Observability* obs = nullptr,
               std::shared_ptr<snapshot::SnapshotStore> store = nullptr);

  ClosureCache(const ClosureCache&) = delete;
  ClosureCache& operator=(const ClosureCache&) = delete;

  // Exact-root-list lookup; bumps the entry to most-recently-used.
  // Counts an exact hit. nullptr on miss.
  std::shared_ptr<const CachedAnalysis> FindExact(
      const std::vector<std::string>& roots);

  // The best warm-start base for `roots`: the cached entry with the
  // largest root set that is a *proper* subset of `roots` (ties broken
  // by key order, deterministically). nullptr when none qualifies.
  // Read-only: no LRU bump, no stats.
  std::shared_ptr<const CachedAnalysis> FindLargestSubset(
      const std::vector<std::string>& roots) const;

  // The best retraction base for `roots`: the cached entry with the
  // smallest root set that is a *proper* superset of `roots` AND shares
  // at least half its roots with the request (2·|request| ≥ |superset|,
  // on deduplicated sorted lists) — below that, deleting the cone costs
  // more than warm-starting up from a subset. Ties break toward the
  // lexicographically smallest root list. Read-only; nullptr when none
  // qualifies.
  std::shared_ptr<const CachedAnalysis> FindSmallestSuperset(
      const std::vector<std::string>& roots) const;

  // Unfolds `roots` and computes the closure from `base` when given:
  // grown from a subset, shrunk from a superset, cold otherwise (see
  // core::Closure). Never touches cache state; safe on worker threads.
  common::Result<std::shared_ptr<const CachedAnalysis>> BuildDetached(
      const std::vector<std::string>& roots,
      const CachedAnalysis* base = nullptr,
      obs::SpanId parent = obs::kNoSpan) const;

  // The revoke fast path: builds the entry for `new_roots` — a
  // sub-multiset of `old_roots` — from the resident entry for
  // `old_roots` (BuildDetached, so it shrinks), copy-on-write (the old
  // entry object stays immutable for concurrent holders; the new entry
  // is Insert()ed under its own key). Returns the already-resident
  // entry for `new_roots` when one exists (revoke-then-regrant churn
  // returns to a cached state — nothing to build). nullptr when
  // `old_roots` is not resident or `new_roots` does not unfold; the
  // caller falls back to the ordinary GetOrBuild path on next use.
  std::shared_ptr<const CachedAnalysis> RetractEntry(
      const std::vector<std::string>& old_roots,
      const std::vector<std::string>& new_roots);

  // Inserts a built entry, evicting the least-recently-used entry when
  // over capacity. Replaces an existing entry with the same roots.
  void Insert(std::shared_ptr<const CachedAnalysis> entry);

  // L2 probe: loads the snapshot persisted for `roots`, if any, and
  // counts a snapshot hit / miss / invalid. Does NOT insert into L1
  // (GetOrBuild does). nullptr when the tier is disabled, the record
  // is absent, or validation rejected it.
  std::shared_ptr<const CachedAnalysis> FindSnapshot(
      const std::vector<std::string>& roots);

  // Persists one entry to the snapshot store.
  // kFailedPrecondition when no snapshot store is configured.
  common::Status SaveCacheSnapshot(const CachedAnalysis& entry) const;

  // Persists every resident L1 entry, least-recently-used last so a
  // concurrent reader warms from the hottest signatures first. Returns
  // the first write error, after attempting every entry.
  common::Status SaveCacheSnapshot() const;

  // Bulk warm start: loads every valid record in the store into L1
  // (up to capacity) and returns how many were loaded. Invalid records
  // are counted and skipped. 0 when the tier is disabled.
  size_t LoadCacheSnapshot();

  // FindExact, else FindSnapshot (inserted into L1 on a hit), else
  // BuildDetached from one base — the smallest qualifying cached
  // superset, else the largest cached subset, else none — and Insert.
  // Counts accordingly.
  common::Result<std::shared_ptr<const CachedAnalysis>> GetOrBuild(
      const std::vector<std::string>& roots);

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }
  // Null when the snapshot tier is disabled.
  const std::shared_ptr<snapshot::SnapshotStore>& snapshot_store() const {
    return store_;
  }

 private:
  struct Slot {
    std::shared_ptr<const CachedAnalysis> entry;
    std::list<std::string>::iterator lru_it;  // position in lru_
  };

  static std::string KeyFor(const std::vector<std::string>& roots);
  // Counts a fresh build by the direction its closure took.
  void CountBuild(const Closure& closure);

  const schema::Schema& schema_;
  ClosureOptions options_;
  size_t capacity_;
  obs::Observability* obs_;
  std::shared_ptr<snapshot::SnapshotStore> store_;
  Stats stats_;
  // Most-recently-used at the front; Slot::lru_it points into this.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Slot> entries_;
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_CLOSURE_CACHE_H_
