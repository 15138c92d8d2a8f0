// AnalysisService: batch security analysis over a user population.
//
// The paper's Algorithm A(R) is per-user: unfold the capability list,
// compute the F(F) closure, enumerate invocation sites. A production
// deployment asks a different question — "check these hundred
// requirements across this organisation, nightly" — and the dominant
// structure of such a population is roles: most users carry one of a
// handful of grant bundles, so most of the per-user work is identical.
// The service exploits that twice:
//
//   * Subset-lattice closure cache (core::ClosureCache). Closures are
//     keyed by the canonical signature of (root list, ClosureOptions) —
//     see capability_signature.h — so every user of a role shares one
//     unfold + one fixpoint. Beyond exact hits, a miss whose root list
//     is a superset of a cached entry *warm-starts* from that entry's
//     fact set and derives only the delta, so overlapping roles pay
//     incremental cost, not full fixpoints; a miss whose root list is a
//     close subset of a cached entry shrinks that entry by DRed
//     instead. The cache is LRU-bounded (SessionOptions cache_capacity)
//     and persists across batches; entries are shared_ptr, so eviction
//     never invalidates in-flight work.
//   * Work-stealing parallelism. Distinct signatures' closures build
//     concurrently; then the requirements are checked concurrently
//     against the shared entries, whose report memo
//     (core::CachedAnalysis::Check) runs A(R) once per (closure,
//     requirement shape) and serves the role's other users from it.
//
// The service is a consumer of core::AnalysisSession: the session owns
// the semantic options, the users (its grant/revoke overlay included)
// and the observability bundle (tracer + metrics); the service adds the
// cache and the pool. Batches run under a "batch"
// span with plan / build / check phase children, and the cache
// accounting lives in the session's metrics registry ("service.*"
// counters) — ServiceStats is merely a value snapshot of those.
//
// Determinism contract: CheckBatch returns reports in input order,
// deterministically — thread count and scheduling never change any
// verdict, flaw site, metric (outside "pool.*"), or byte of output. A
// report's *verdict and flaw sites* always equal what the session's
// sequential core::AnalysisSession::Check produces for the same
// requirement — users resolve through the session, grants and revokes
// made there included; its fact_count and derivation text are
// additionally byte-identical whenever the serving closure was built
// cold (an exact-signature world, e.g. disjoint role bundles). A grown
// or shrunk closure derives the same fact set along a different route,
// so those two report fields may differ from the cold-run text — see
// core::ClosureCache. On failure the error returned is the one the
// *earliest failing requirement in input order* would have produced
// sequentially.
//
// Single-caller contract (the one authoritative statement — other
// layers reference this paragraph): the service parallelises
// internally but is itself a single-caller object. Do not invoke
// CheckBatch from two threads at once, and do not share the
// underlying AnalysisSession between concurrently-calling services.
// Stats()/cache_size() return value snapshots precisely so that no
// reference into service internals outlives a call.
#ifndef OODBSEC_SERVICE_ANALYSIS_SERVICE_H_
#define OODBSEC_SERVICE_ANALYSIS_SERVICE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "core/thread_pool.h"

namespace oodbsec::service {

// A value snapshot of the service's cache accounting (reads of the
// "service.*" counters in the session's metrics registry). Cheap to
// copy; no reference-returning accessor exists, by design — see the
// single-caller contract above.
//
// Hit accounting is two-level, because "hit rate" means two different
// things: `signature_hits` counts signature resolutions served by a
// pre-existing cache entry (one per distinct signature per batch — the
// build-vs-reuse ratio of fixpoint work), while `requirement_hits`
// counts requirements that reused a closure they did not themselves
// trigger building (the per-check amortisation). A warm batch of N
// same-role requirements scores signature_hits += 1 but
// requirement_hits += N.
struct ServiceStats {
  size_t closures_built = 0;    // signature misses: fixpoints computed
  size_t signature_hits = 0;    // signature resolutions served from cache
  size_t requirement_hits = 0;  // requirements that reused a closure
  size_t checks = 0;            // requirements checked (ok or not)
  // Of closures_built, how many warm-started from a cached subset
  // instead of running a cold fixpoint.
  size_t warm_starts = 0;
  // Of closures_built, how many were DRed-shrunk from a cached
  // superset — the shrink counterpart of warm_starts. Disjoint from
  // warm_starts.
  size_t retract_builds = 0;
  // Session-level revoke accounting, read from the shared registry's
  // "session.*" counters (satellite of the retraction work): every
  // RemoveCapability counts one revoke, and exactly one of
  // retractions_fast (the cached closure was shrunk in place, or the
  // post-revoke state was already cached) or retractions_fallback (no
  // resident pre-revoke closure — the next recheck pays a warm or cold
  // build). All 0 when no session-level revokes happened.
  size_t revokes = 0;
  size_t retractions_fast = 0;
  size_t retractions_fallback = 0;
  // Signature resolutions served by replaying a persisted snapshot
  // (the L2 tier) instead of building — disjoint from both
  // closures_built and signature_hits. Always 0 without a snapshot
  // store.
  size_t snapshot_hits = 0;

  // closures reused / closures resolved: how much fixpoint work the
  // cache saved.
  double SignatureHitRate() const {
    size_t total = closures_built + signature_hits;
    return total == 0 ? 0.0
                      : static_cast<double>(signature_hits) /
                            static_cast<double>(total);
  }
  // requirements served without a build of their own / all checks.
  double RequirementHitRate() const {
    return checks == 0 ? 0.0
                       : static_cast<double>(requirement_hits) /
                             static_cast<double>(checks);
  }
};

class AnalysisService {
 public:
  // Borrows `session` (must outlive the service; see the single-caller
  // contract above for sharing rules). The pool size is
  // session.options().threads unless `threads_override` > 0 — the
  // override exists for callers like the shell that re-run one session
  // at different widths.
  explicit AnalysisService(core::AnalysisSession& session,
                           int threads_override = 0);

  // Checks every requirement. Closure builds for distinct uncached
  // signatures run in parallel, then the per-requirement checks run in
  // parallel, one A(R) per (closure, requirement shape). See the
  // determinism contract above.
  common::Result<std::vector<core::AnalysisReport>> CheckBatch(
      const std::vector<core::Requirement>& requirements);

  // Value snapshot of the cache accounting; see ServiceStats.
  ServiceStats Stats() const;

  // Persists every resident cache entry to the snapshot store / warms
  // the cache from it. Thin forwards to core::ClosureCache;
  // kFailedPrecondition / 0 when no snapshot store is configured.
  common::Status SaveCacheSnapshot() const {
    return cache_.SaveCacheSnapshot();
  }
  size_t LoadCacheSnapshot() { return cache_.LoadCacheSnapshot(); }

  size_t cache_size() const { return cache_.size(); }
  int thread_count() const { return pool_.thread_count(); }
  core::AnalysisSession& session() { return *session_; }

 private:
  core::AnalysisSession* session_;
  core::ThreadPool pool_;
  // Subset-lattice LRU cache of (unfolded set, closure) entries, shared
  // as shared_ptr so eviction never invalidates in-flight work (see
  // core::ClosureCache). Lookups and inserts happen only in sequential
  // phases; the parallel build phase uses the const BuildDetached.
  core::ClosureCache cache_;

  // "service.*" (and session revoke) counter handles into the
  // session's registry.
  obs::Counter* closures_built_;
  obs::Counter* signature_hits_;
  obs::Counter* requirement_hits_;
  obs::Counter* checks_;
  obs::Counter* warm_starts_;
  obs::Counter* retract_builds_;
  obs::Counter* snapshot_hits_;
  obs::Counter* revokes_;
  obs::Counter* retractions_fast_;
  obs::Counter* retractions_fallback_;
};

}  // namespace oodbsec::service

#endif  // OODBSEC_SERVICE_ANALYSIS_SERVICE_H_
