// AnalysisSession: the one way into an analysis pipeline.
//
// The session owns the full configuration bundle:
//
//   (schema, users, SessionOptions{closure, threads}, Tracer, Metrics)
//
// and everything downstream borrows from it: BuildUser and the one-shot
// Check() here, service::AnalysisService for cached parallel batches,
// the shell for its `trace` command. The observability bundle lives
// exactly as long as the session, so spans and counters from every
// phase of every check accumulate in one place and dump together.
//
// Thread-safety: the session itself is a single-caller object (like the
// service); the Observability it hands out is safe to write from the
// worker threads the service spawns.
#ifndef OODBSEC_CORE_ANALYSIS_SESSION_H_
#define OODBSEC_CORE_ANALYSIS_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "schema/user.h"

namespace oodbsec::core {

struct SessionOptions {
  // Fixpoint semantics; flows into every closure the session builds and
  // into the service layer's cache keys (closure.closure_threads is
  // ignored, and excluded from cache keys and snapshot fingerprints).
  ClosureOptions closure;
  // Worker threads for layers that parallelise *across* closures
  // (service::AnalysisService reads this as its pool size); each
  // closure build runs on the one thread that starts it.
  int threads = 1;
  // Arms the tracer from construction. Metrics are always collected —
  // they are counters folded into reports and stats — while span
  // recording costs clock reads and is opt-in.
  bool tracing = false;
  // LRU bound for the subset-lattice closure cache behind
  // RecheckRequirements (and the service layer, which reads this as its
  // cache bound too).
  size_t cache_capacity = ClosureCache::kDefaultCapacity;
  // The persistent closure-snapshot tier (L2) behind every cache this
  // session's options configure — the session's recheck cache and the
  // service layer's cache alike, so borrowing layers share one store
  // and its page cache. Several sessions may share one store (see
  // snapshot/snapshot_store.h).
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
};

class AnalysisSession {
 public:
  // `schema` and `users` must outlive the session.
  AnalysisSession(const schema::Schema& schema,
                  const schema::UserRegistry& users,
                  SessionOptions options = {});

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  const schema::Schema& schema() const { return schema_; }
  const schema::UserRegistry& users() const { return users_; }
  const SessionOptions& options() const { return options_; }
  const ClosureOptions& closure_options() const { return options_.closure; }

  // The session's observability bundle. Stable address for the
  // session's lifetime; pass `&session.obs()` down to layers that take
  // an Observability*.
  obs::Observability& obs() { return *obs_; }
  const obs::Observability& obs() const { return *obs_; }
  obs::Tracer& tracer() { return obs_->tracer; }
  obs::MetricsRegistry& metrics() { return obs_->metrics; }

  // Unfolds `user`'s capability list (AnalysisRoots) and computes its
  // closure cold under the session's options, traced and counted. Check
  // requirements against it with CheckAgainstClosure.
  common::Result<std::unique_ptr<UserAnalysis>> BuildUser(
      const schema::User& user) const;

  // One-shot sequential A(R): resolve the requirement's user, build the
  // analysis, check. No caching — the service layer is the cached,
  // parallel consumer of this session. Sees session-local grant/revoke
  // edits (below).
  common::Result<AnalysisReport> Check(const Requirement& requirement);

  // --- grant/revoke re-audit -----------------------------------------
  //
  // Policy changes arrive one grant or revoke at a time, and each one
  // invalidates every affected user's closure. The session keeps its
  // own copy-on-write overlay over the (const) registry — the registry
  // itself is never mutated — plus a subset-lattice closure cache, so a
  // re-audit after a change costs only the delta:
  //
  //   * after AddCapability, the user's old root list is a subset of
  //     the new one: the cached closure seeds a warm-started build that
  //     derives just the new function's contribution;
  //   * after RemoveCapability, the user's cached closure is shrunk by
  //     DRed retraction (a Closure built from its superset) into a
  //     fresh cache entry,
  //     eagerly — the revoked capability's fact cone is deleted and
  //     alternate support re-derived, so the next recheck is an exact
  //     hit ("session.retractions_fast"). When the pre-revoke closure
  //     was never built or already evicted, the next recheck pays the
  //     ordinary subset-warm-start or cold path instead
  //     ("session.retractions_fallback").

  // The session's view of `name`: the overlay copy when the user has
  // been edited here, the registry's user otherwise. nullptr if unknown.
  const schema::User* FindUser(std::string_view name) const;

  // Grants `function` to `user` in the session overlay. Fails if the
  // user is unknown or the name resolves to nothing in the schema.
  common::Status AddCapability(std::string_view user, std::string function);

  // Revokes `function` from `user` in the session overlay. Fails if the
  // user is unknown or does not currently hold the capability.
  common::Status RemoveCapability(std::string_view user,
                                  std::string_view function);

  // Re-checks `requirements` against the current (overlay) capability
  // state, serving closures from the session's subset-lattice cache:
  // exact hit, else a build shrunk from a close cached superset or
  // grown from the largest cached subset, else cold
  // (ClosureCache::GetOrBuild). Reports come back in input order; the
  // first failing requirement's error wins. Because grown and shrunk
  // closures take different derivation routes than cold ones, reports'
  // fact_count and derivation text may differ from a cold Check() —
  // verdicts and flaw sites do not.
  common::Result<std::vector<AnalysisReport>> RecheckRequirements(
      const std::vector<Requirement>& requirements);

  // The cache behind RecheckRequirements (shared with no one else;
  // the service layer builds its own from the same options).
  const ClosureCache& recheck_cache() const { return *recheck_cache_; }

 private:
  const schema::Schema& schema_;
  const schema::UserRegistry& users_;
  SessionOptions options_;
  // unique_ptr: handed-out pointers survive a session move-construction
  // being added later, and keep the header light.
  std::unique_ptr<obs::Observability> obs_;
  // Copy-on-write user edits (AddCapability/RemoveCapability). Keyed by
  // user name; absent means "registry state".
  std::map<std::string, schema::User, std::less<>> overlay_users_;
  std::unique_ptr<ClosureCache> recheck_cache_;
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_ANALYSIS_SESSION_H_
