// Dynamic flaw detection (the paper's §5 future-work alternative:
// "develop a mechanism to dynamically detect security flaws during
// execution of queries").
//
// The static algorithm A(R) must assume the user will eventually combine
// *everything* on their capability list, so a grant set whose closure
// violates a requirement is condemned outright. The dynamic guard
// instead tracks the functions each session has actually invoked and
// checks, per incoming query,
//
//   closure( invoked-so-far  ∪  functions(query) )  |=  requirements?
//
// A query is DENIED exactly when executing it would, for the first
// time, let the session's accumulated function set derive a forbidden
// capability. The paper's trade-off is therefore observable: the clerk
// who only ever calls checkBudget keeps working under a grant set the
// static analyzer must reject, and the guard steps in precisely at the
// first query that mixes w_budget probes with checkBudget.
//
// Soundness note: once a session has invoked a set S, the user may
// already have learned/planted everything S's closure derives, so the
// guard checks the *union* before execution — detection can never lag
// one query behind.
//
// Serving-path architecture (DESIGN.md §14). The naive guard rebuilt a
// cold closure per distinct function set; this one serves decisions in
// three tiers, cheapest first:
//
//   1. Trigger pre-filter fast path: each session carries a *relevance
//      cone* — seeded from the user's requirement functions and grown
//      with the session — collecting every channel through which a new
//      root could feed facts into a requirement-relevant derivation:
//      shared attributes (the write/read equality rules), calls into
//      cone functions (let(f) sites), and — when the same-type argument
//      equality axiom is on — shared root-argument types. A query whose
//      new functions all fall outside the cone cannot fire any
//      alter/infer/pistar trigger reaching a requirement site, so it is
//      allowed without touching any closure: a set difference and a few
//      probes against precomputed per-function footprints. Inert
//      functions never enter the session's closure; when a later query
//      widens the cone (say, a write special bridging argument types),
//      previously-inert committed functions are re-scanned and pulled
//      into the recheck target, keeping the invariant that the checked
//      set is exactly the cone-closed slice of the committed set.
//   2. Signature-keyed cache: closures are keyed by their root list
//      (core::AnalysisRoots over the session's relevant subset) in a
//      shared core::ClosureCache — no collision-prone string memo. An
//      armed snapshot store doubles as the L2 tier, so a restarted
//      guard warms its sessions from disk instead of rebuilding.
//   3. Session-delta recheck: on a miss, the session's live closure is
//      the warm base — the query's new relevant functions are seeded as
//      a delta frontier into the semi-naive fixpoint via the premise
//      trigger index (core::Closure's base constructor), deriving only the
//      delta at O(delta) cost. Warm verdicts are digest-equal to cold
//      (Closure::FactSetDigest); dynamic_test asserts this across
//      randomized churn.
//
// Concurrency: sessions live in a sharded map with per-session mutexes,
// so decisions for different users proceed in parallel; the shared
// cache is guarded by its own mutex (builds run outside it through the
// const BuildDetached), and stats are atomics. One guard can therefore
// serve a thread pool of query frontends.
#ifndef OODBSEC_DYNAMIC_SESSION_GUARD_H_
#define OODBSEC_DYNAMIC_SESSION_GUARD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/analyzer.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "obs/obs.h"
#include "query/query.h"
#include "query/query_evaluator.h"
#include "schema/user.h"
#include "store/database.h"
#include "types/type.h"

namespace oodbsec::snapshot {
class SnapshotStore;  // snapshot/snapshot_store.h
}  // namespace oodbsec::snapshot

namespace oodbsec::dynamic {

// The outcome of guarding one query.
struct GuardDecision {
  bool allowed = true;
  // When denied: which requirement would become violated, and the
  // offending derivation (Figure-1 style).
  std::string violated_requirement;
  std::string derivation;
};

// Guard-wide configuration. The closure options must match whatever
// produced any snapshot store contents (the store validates).
struct GuardOptions {
  core::ClosureOptions closure;
  size_t cache_capacity = core::ClosureCache::kDefaultCapacity;
  // Arms the signature cache's L2 tier: session closures persist
  // through the store and warm a restarted guard (see SaveCacheSnapshot
  // / LoadCacheSnapshot). May be shared with analysis sessions.
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
  // Optional: "guard.*" counters and "guard.recheck" spans.
  obs::Observability* obs = nullptr;
};

// Value snapshot of the guard's counters (atomically maintained; the
// cache block is copied under the cache lock).
struct GuardStats {
  uint64_t decisions = 0;
  uint64_t fastpath_allows = 0;  // trigger pre-filter: no closure touched
  uint64_t session_hits = 0;     // query ⊆ session's exercised set
  uint64_t exact_hits = 0;       // signature cache / snapshot tier hit
  uint64_t delta_rechecks = 0;   // warm delta-frontier builds
  uint64_t cold_builds = 0;      // full fixpoints
  uint64_t denials = 0;
  core::ClosureCache::Stats cache;
};

// Per-user session state and enforcement. One guard serves many users;
// each user accumulates an invoked-function set. Decide/Run/
// CheckFunctions are safe to call from many threads.
class SessionGuard {
 public:
  SessionGuard(const schema::Schema& schema,
               const schema::UserRegistry& users,
               std::vector<core::Requirement> requirements,
               core::ClosureOptions options = {});
  SessionGuard(const schema::Schema& schema,
               const schema::UserRegistry& users,
               std::vector<core::Requirement> requirements,
               GuardOptions options);

  // Decides whether `user` may run the bound `query` now. Does not
  // execute anything and does not yet commit the query's functions to
  // the session (shared closures may still be cached).
  common::Result<GuardDecision> Decide(const schema::User& user,
                                       const query::SelectQuery& query);

  // Decides whether `user`'s session may add `functions` — the same
  // verdict Decide reaches for a query invoking exactly that set.
  // Commits nothing.
  common::Result<GuardDecision> CheckFunctions(
      const std::string& user, const std::set<std::string>& functions);

  // Convenience: decide, then (if allowed) execute through a
  // capability-checked QueryEvaluator and commit the query's functions
  // to the session. A denied query returns PermissionDenied carrying
  // the violated requirement.
  common::Result<query::QueryResult> Run(store::Database& db,
                                         const schema::User& user,
                                         const query::SelectQuery& query);

  // Functions `user` has successfully invoked so far in this guard.
  // The reference stays valid for the guard's lifetime; callers that
  // race against concurrent Run commits should quiesce first.
  const std::set<std::string>& SessionFunctions(
      const std::string& user) const;

  // Whether `function` can affect any requirement of `user` against a
  // fresh session (the trigger pre-filter's relevance test over the
  // requirement seed cone; a live session's cone may have grown wider).
  // An irrelevant function is allowed — and skipped — without a
  // closure.
  bool IsRelevant(const std::string& user, const std::string& function);

  // Introspection for tests and tooling: the session's committed set
  // and the root list / fact-set digest of its live incremental
  // closure (empty strings/lists when none was built yet).
  struct SessionProbe {
    bool exists = false;
    std::set<std::string> committed;
    std::set<std::string> checked;  // relevant subset the closure covers
    std::vector<std::string> roots;
    std::string digest;
  };
  SessionProbe Probe(const std::string& user) const;

  // Users with an open session, sorted.
  std::vector<std::string> SessionUsers() const;

  GuardStats Stats() const;

  // Number of closure computations performed (for the D1 experiment):
  // delta rechecks plus cold builds; cache hits and fast-path allows
  // do not count.
  int closure_evaluations() const {
    return static_cast<int>(delta_rechecks_.load() + cold_builds_.load());
  }

  // Snapshot-tier passthroughs (no-ops / errors when no store is
  // armed): persist the signature cache, or warm it from the store so
  // a restarted guard's first decisions skip the fixpoint entirely.
  common::Status SaveCacheSnapshot() const;
  size_t LoadCacheSnapshot();

  // The pre-incremental reference path: a cold closure over exactly
  // AnalysisRoots(schema, functions) (`functions` plus the integrity
  // constraints), checked against every requirement naming `user`. The
  // incremental guard's verdicts are asserted equal to this across
  // randomized churn (dynamic_test) and it is the baseline the guard
  // benches compare against.
  static common::Result<GuardDecision> ColdDecision(
      const schema::Schema& schema,
      const std::vector<core::Requirement>& requirements,
      const std::string& user, const std::set<std::string>& functions,
      core::ClosureOptions options = {});

 private:
  // What one root function's unfolded program can touch: the channels
  // through which it could feed facts into another root's derivation.
  struct Footprint {
    bool resolved = false;             // unresolvable names stay relevant
    std::set<std::string> attributes;  // read or written anywhere inside
    std::set<std::string> callees;     // transitively unfolded functions
    std::set<const types::Type*> arg_types;  // root argument types
  };
  // A relevance cone: the functions whose facts can reach a requirement
  // site, closed under attribute sharing, calls, and
  // (same_type_argument_equality) root-argument types. The per-user
  // seed cone absorbs only the requirement functions; each session then
  // grows a copy of it alongside its checked set.
  struct Cone {
    bool any_requirements = false;
    std::set<std::string> functions;
    std::set<std::string> attributes;
    std::set<const types::Type*> types;
  };

  struct Session {
    mutable std::mutex mu;
    // Functions successfully exercised (committed by Run).
    std::set<std::string> committed;
    // The cone-closed slice of `committed` the live closure ranges
    // over; inert functions never enter it.
    std::set<std::string> checked;
    // The session's relevance cone: the seed cone plus the channels of
    // everything in `checked`. Empty until the first decision.
    Cone cone;
    bool cone_init = false;
    // Verdict over `checked` is known allowed (set once a recheck of
    // exactly this set passes) — the fast path's precondition.
    bool base_allowed = false;
    // The session's live incremental closure: the warm base for the
    // next delta recheck.
    std::shared_ptr<const core::CachedAnalysis> analysis;
  };
  struct SessionShard {
    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<Session>, std::less<>> sessions;
  };

  static constexpr size_t kSessionShards = 16;

  SessionShard& ShardFor(const std::string& user) const;
  std::shared_ptr<Session> SessionFor(const std::string& user);
  std::shared_ptr<Session> FindSession(const std::string& user) const;

  // Relevance machinery; all take relevance_mu_ (AbsorbLocked and
  // ChannelsHitLocked expect it held by the caller).
  const Footprint& FootprintLocked(const std::string& function);
  const Cone& SeedConeFor(const std::string& user);
  void AbsorbLocked(Cone& cone, const std::string& function);
  bool ChannelsHitLocked(const Cone& cone, const std::string& function);
  // Expands `cone` with every function from `candidates` that hits one
  // of its channels, cascading until fixpoint; appends the absorbed
  // functions to `absorbed`. Takes relevance_mu_.
  void GrowCone(Cone& cone, const std::set<std::string>& candidates,
                std::set<std::string>& absorbed);

  // The decision core; `session.mu` must be held. With `commit`, an
  // allowed decision records the query's functions (and the refreshed
  // closure) into the session before returning.
  common::Result<GuardDecision> DecideSet(
      const std::string& user, Session& session,
      const std::set<std::string>& query_functions, bool commit);

  // Tier 2/3: serve the closure for `roots` from the cache (L1 then
  // snapshot), else delta-build it warm from `session_base` / the
  // largest cached subset. Inserts what it builds.
  common::Result<std::shared_ptr<const core::CachedAnalysis>> LookupOrBuild(
      const std::vector<std::string>& roots,
      const std::shared_ptr<const core::CachedAnalysis>& session_base);

  // Runs every requirement of `user` against one closure entry through
  // its report memo (CachedAnalysis::Check); first violation wins
  // (requirement declaration order).
  common::Result<GuardDecision> CheckEntry(
      const std::string& user, const core::CachedAnalysis& entry);

  void Count(std::atomic<uint64_t>& counter, obs::Counter* mirror);

  const schema::Schema& schema_;
  const schema::UserRegistry& users_;
  std::vector<core::Requirement> requirements_;
  GuardOptions options_;

  // Signature-keyed closure store shared by all sessions (and, through
  // the snapshot tier, across guard restarts). Guarded by cache_mu_;
  // builds run outside the lock via the const BuildDetached.
  mutable std::mutex cache_mu_;
  core::ClosureCache cache_;

  // Relevance tables, built lazily: per-function footprints and the
  // per-user requirement seed cones sessions start from.
  mutable std::mutex relevance_mu_;
  std::map<std::string, Footprint> footprints_;
  std::map<std::string, Cone> seed_cones_;

  mutable std::array<SessionShard, kSessionShards> shards_;

  std::atomic<uint64_t> decisions_{0};
  std::atomic<uint64_t> fastpath_allows_{0};
  std::atomic<uint64_t> session_hits_{0};
  std::atomic<uint64_t> exact_hits_{0};
  std::atomic<uint64_t> delta_rechecks_{0};
  std::atomic<uint64_t> cold_builds_{0};
  std::atomic<uint64_t> denials_{0};

  // Registry mirrors (null without obs).
  obs::Counter* ctr_decisions_ = nullptr;
  obs::Counter* ctr_fastpath_ = nullptr;
  obs::Counter* ctr_session_hits_ = nullptr;
  obs::Counter* ctr_exact_hits_ = nullptr;
  obs::Counter* ctr_delta_ = nullptr;
  obs::Counter* ctr_cold_ = nullptr;
  obs::Counter* ctr_denials_ = nullptr;
};

}  // namespace oodbsec::dynamic

#endif  // OODBSEC_DYNAMIC_SESSION_GUARD_H_
