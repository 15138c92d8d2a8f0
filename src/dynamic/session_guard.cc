#include "dynamic/session_guard.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"
#include "query/capability.h"
#include "unfold/unfolded.h"

namespace oodbsec::dynamic {

using common::Result;
using core::CachedAnalysis;

namespace {

template <typename T>
bool Intersects(const std::set<T>& a, const std::set<T>& b) {
  // Walk the smaller set, probe the larger.
  const std::set<T>& probe = a.size() <= b.size() ? a : b;
  const std::set<T>& table = a.size() <= b.size() ? b : a;
  for (const T& item : probe) {
    if (table.contains(item)) return true;
  }
  return false;
}

}  // namespace

SessionGuard::SessionGuard(const schema::Schema& schema,
                           const schema::UserRegistry& users,
                           std::vector<core::Requirement> requirements,
                           core::ClosureOptions options)
    : SessionGuard(
          schema, users, std::move(requirements),
          GuardOptions{.closure = options, .snapshot_store = nullptr}) {}

SessionGuard::SessionGuard(const schema::Schema& schema,
                           const schema::UserRegistry& users,
                           std::vector<core::Requirement> requirements,
                           GuardOptions options)
    : schema_(schema),
      users_(users),
      requirements_(std::move(requirements)),
      options_(std::move(options)),
      cache_(schema, options_.closure, options_.cache_capacity, options_.obs,
             options_.snapshot_store) {
  if (options_.obs != nullptr) {
    obs::MetricsRegistry& metrics = options_.obs->metrics;
    ctr_decisions_ = metrics.counter("guard.decisions");
    ctr_fastpath_ = metrics.counter("guard.fastpath_allows");
    ctr_session_hits_ = metrics.counter("guard.session_hits");
    ctr_exact_hits_ = metrics.counter("guard.exact_hits");
    ctr_delta_ = metrics.counter("guard.delta_rechecks");
    ctr_cold_ = metrics.counter("guard.cold_builds");
    ctr_denials_ = metrics.counter("guard.denials");
  }
}

void SessionGuard::Count(std::atomic<uint64_t>& counter,
                         obs::Counter* mirror) {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (mirror != nullptr) mirror->Increment();
}

SessionGuard::SessionShard& SessionGuard::ShardFor(
    const std::string& user) const {
  return shards_[std::hash<std::string_view>{}(user) % kSessionShards];
}

std::shared_ptr<SessionGuard::Session> SessionGuard::SessionFor(
    const std::string& user) {
  SessionShard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::shared_ptr<Session>& slot = shard.sessions[user];
  if (slot == nullptr) slot = std::make_shared<Session>();
  return slot;
}

std::shared_ptr<SessionGuard::Session> SessionGuard::FindSession(
    const std::string& user) const {
  SessionShard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(user);
  return it == shard.sessions.end() ? nullptr : it->second;
}

const std::set<std::string>& SessionGuard::SessionFunctions(
    const std::string& user) const {
  static const std::set<std::string> kEmpty;
  std::shared_ptr<Session> session = FindSession(user);
  if (session == nullptr) return kEmpty;
  std::lock_guard<std::mutex> lock(session->mu);
  return session->committed;
}

// ---------------------------------------------------------------------
// Relevance: the trigger pre-filter's sound over-approximation.
//
// Facts cross from one root's subtree into another's only through
//   (a) attribute occurrences: the write/read equality and alterability
//       rules connect all r_att/w_att occurrences of one attribute;
//   (b) invocation sites: a root whose unfold contains let(f) (or an
//       attribute occurrence, for special f) creates new sites of f;
//   (c) the pessimistic same-type axiom: outer-most argument variables
//       of equal type are equated across roots, merging their classes.
// Everything else (basic-function rules, let rules, pi* joins) is local
// to one call and so to one root. A cone closed under (a)-(c) over the
// requirement functions PLUS the session's checked set therefore
// contains every function whose addition could change a requirement
// verdict for that session; functions outside it are inert islands —
// their facts interact only among themselves — and are allowed without
// any fixpoint. The cone is session-local on purpose: channel (c)
// chains aggressively through shared primitive types (every write
// special carries its value type), so a static whole-schema fixpoint
// would condemn nearly everything, while a session that never commits
// the bridging function keeps its cone — and its closure — small.

const SessionGuard::Footprint& SessionGuard::FootprintLocked(
    const std::string& function) {
  auto it = footprints_.find(function);
  if (it != footprints_.end()) return it->second;
  Footprint fp;
  auto set = unfold::UnfoldedSet::Build(schema_, {function});
  if (set.ok()) {
    fp.resolved = true;
    const unfold::UnfoldedSet& program = *set.value();
    for (int id = 1; id <= program.node_count(); ++id) {
      const unfold::Node* node = program.node(id);
      if (node->kind == unfold::NodeKind::kReadAttr ||
          node->kind == unfold::NodeKind::kWriteAttr) {
        fp.attributes.insert(node->attribute);
      } else if (node->kind == unfold::NodeKind::kLet &&
                 !node->origin_function.empty()) {
        fp.callees.insert(node->origin_function);
      }
    }
    for (const unfold::Root& root : program.roots()) {
      for (int binder_id : root.arg_binder_ids) {
        fp.arg_types.insert(program.binder(binder_id).type);
      }
    }
  }
  return footprints_.emplace(function, std::move(fp)).first->second;
}

void SessionGuard::AbsorbLocked(Cone& cone, const std::string& function) {
  std::vector<std::string> worklist{function};
  while (!worklist.empty()) {
    std::string fn = std::move(worklist.back());
    worklist.pop_back();
    if (!cone.functions.insert(fn).second) continue;
    const Footprint& fp = FootprintLocked(fn);
    cone.attributes.insert(fp.attributes.begin(), fp.attributes.end());
    cone.types.insert(fp.arg_types.begin(), fp.arg_types.end());
    // Callees are absorbed in full: any of them may later be granted as
    // a root of its own, and its argument types then join the same-type
    // equality channel.
    for (const std::string& callee : fp.callees) worklist.push_back(callee);
  }
}

bool SessionGuard::ChannelsHitLocked(const Cone& cone,
                                     const std::string& function) {
  if (cone.functions.contains(function)) return true;
  const Footprint& fp = FootprintLocked(function);
  // Unresolvable names stay relevant: the recheck path surfaces the
  // resolution error properly instead of silently allowing.
  return !fp.resolved || Intersects(fp.attributes, cone.attributes) ||
         Intersects(fp.callees, cone.functions) ||
         (options_.closure.same_type_argument_equality &&
          Intersects(fp.arg_types, cone.types));
}

const SessionGuard::Cone& SessionGuard::SeedConeFor(const std::string& user) {
  std::lock_guard<std::mutex> lock(relevance_mu_);
  auto it = seed_cones_.find(user);
  if (it != seed_cones_.end()) return it->second;

  Cone cone;
  for (const core::Requirement& requirement : requirements_) {
    if (requirement.user != user) continue;
    cone.any_requirements = true;
    AbsorbLocked(cone, requirement.function);
  }
  return seed_cones_.emplace(user, std::move(cone)).first->second;
}

void SessionGuard::GrowCone(Cone& cone,
                            const std::set<std::string>& candidates,
                            std::set<std::string>& absorbed) {
  std::lock_guard<std::mutex> lock(relevance_mu_);
  // Absorbing one candidate can widen a channel another one needs, so
  // cascade to a fixpoint over the candidate set.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const std::string& fn : candidates) {
      if (cone.functions.contains(fn)) continue;
      if (ChannelsHitLocked(cone, fn)) {
        AbsorbLocked(cone, fn);
        absorbed.insert(fn);
        changed = true;
      }
    }
  }
}

bool SessionGuard::IsRelevant(const std::string& user,
                              const std::string& function) {
  const Cone& seed = SeedConeFor(user);
  if (!seed.any_requirements) return false;
  std::lock_guard<std::mutex> lock(relevance_mu_);
  return ChannelsHitLocked(seed, function);
}

// ---------------------------------------------------------------------
// The decision core.

Result<std::shared_ptr<const CachedAnalysis>> SessionGuard::LookupOrBuild(
    const std::vector<std::string>& roots,
    const std::shared_ptr<const CachedAnalysis>& session_base) {
  std::vector<std::string> sorted = core::SortedRootSet(roots);

  std::shared_ptr<const CachedAnalysis> base;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (std::shared_ptr<const CachedAnalysis> entry = cache_.FindExact(roots)) {
      Count(exact_hits_, ctr_exact_hits_);
      return entry;
    }
    // The session's live closure may cover exactly these roots even
    // when the LRU evicted the shared entry — republish it.
    if (session_base != nullptr && session_base->sorted_roots == sorted) {
      cache_.Insert(session_base);
      Count(exact_hits_, ctr_exact_hits_);
      return session_base;
    }
    // L2: a persisted session closure (possibly from a previous
    // process) replays in a fraction of even a warm fixpoint.
    if (std::shared_ptr<const CachedAnalysis> entry =
            cache_.FindSnapshot(roots)) {
      cache_.Insert(entry);
      Count(exact_hits_, ctr_exact_hits_);
      return entry;
    }
    base = cache_.FindLargestSubset(roots);
  }
  // Prefer the larger base: the smaller the delta frontier, the less
  // the semi-naive run re-derives. The session's own closure is always
  // a subset of the target (sessions only grow).
  if (session_base != nullptr &&
      (base == nullptr ||
       base->sorted_roots.size() < session_base->sorted_roots.size())) {
    base = session_base;
  }
  std::optional<obs::ScopedSpan> span;
  if (options_.obs != nullptr) {
    span.emplace(&options_.obs->tracer, "guard.recheck");
  }
  // BuildDetached is const and touches no cache state: concurrent
  // sessions may build in parallel, pinning their bases by shared_ptr.
  OODBSEC_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnalysis> entry,
                           cache_.BuildDetached(roots, base.get()));
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_.Insert(entry);
  }
  if (entry->closure->warm_started()) {
    Count(delta_rechecks_, ctr_delta_);
  } else {
    Count(cold_builds_, ctr_cold_);
  }
  return entry;
}

Result<GuardDecision> SessionGuard::CheckEntry(const std::string& user,
                                               const CachedAnalysis& entry) {
  GuardDecision decision;
  for (const core::Requirement& requirement : requirements_) {
    if (requirement.user != user) continue;
    OODBSEC_ASSIGN_OR_RETURN(core::AnalysisReport report,
                             entry.Check(requirement, options_.obs));
    if (!report.satisfied) {
      decision.allowed = false;
      decision.violated_requirement = requirement.ToString();
      decision.derivation = report.flaws[0].derivation;
      break;
    }
  }
  return decision;
}

Result<GuardDecision> SessionGuard::DecideSet(
    const std::string& user, Session& session,
    const std::set<std::string>& query_functions, bool commit) {
  Count(decisions_, ctr_decisions_);

  std::set<std::string> fresh;
  for (const std::string& fn : query_functions) {
    if (!session.committed.contains(fn)) fresh.insert(fn);
  }
  if (fresh.empty() && session.base_allowed) {
    // The union equals the already-validated session set.
    Count(session_hits_, ctr_session_hits_);
    return GuardDecision{};
  }

  const Cone& seed = SeedConeFor(user);
  if (!seed.any_requirements) {
    // No requirement names this user: every set is trivially allowed,
    // and no closure is ever built for the session.
    Count(fastpath_allows_, ctr_fastpath_);
    if (commit) {
      session.committed.insert(query_functions.begin(),
                               query_functions.end());
      session.base_allowed = true;
    }
    return GuardDecision{};
  }
  if (!session.cone_init) {
    session.cone = seed;
    session.cone_init = true;
  }

  // Trigger pre-filter: probe the new functions against the session's
  // cone. Invariant — everything in committed \ checked already missed
  // this cone (it only grows when a hit is absorbed), so only `fresh`
  // needs probing on the hot path.
  bool any_hit = false;
  {
    std::lock_guard<std::mutex> lock(relevance_mu_);
    for (const std::string& fn : fresh) {
      if (ChannelsHitLocked(session.cone, fn)) {
        any_hit = true;
        break;
      }
    }
  }
  if (!any_hit && session.base_allowed) {
    // Fast path: none of the new functions can fire a trigger reaching
    // a requirement site, so the verdict equals the session's already
    // validated one — allow at table-probe cost, closure untouched.
    Count(fastpath_allows_, ctr_fastpath_);
    if (commit) {
      session.committed.insert(query_functions.begin(),
                               query_functions.end());
    }
    return GuardDecision{};
  }

  // A hit widens the cone, and a wider cone can re-capture functions
  // that were inert when committed — cascade over both until fixpoint
  // so `checked` stays exactly the cone-closed slice of the session.
  Cone grown = session.cone;
  std::set<std::string> relevant_new;
  if (any_hit) {
    std::set<std::string> candidates = fresh;
    for (const std::string& fn : session.committed) {
      if (!session.checked.contains(fn)) candidates.insert(fn);
    }
    GrowCone(grown, candidates, relevant_new);
  }

  // Delta recheck: grow the session's relevant subset and serve its
  // closure from the signature cache, warm-started from the session's
  // live closure when a build is needed.
  std::set<std::string> target = session.checked;
  target.insert(relevant_new.begin(), relevant_new.end());
  std::vector<std::string> roots = core::AnalysisRoots(schema_, target);
  OODBSEC_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnalysis> entry,
                           LookupOrBuild(roots, session.analysis));
  OODBSEC_ASSIGN_OR_RETURN(GuardDecision decision, CheckEntry(user, *entry));
  if (!decision.allowed) {
    Count(denials_, ctr_denials_);
    return decision;
  }
  if (commit) {
    session.committed.insert(query_functions.begin(), query_functions.end());
    session.checked = std::move(target);
    session.cone = std::move(grown);
    session.analysis = std::move(entry);
    session.base_allowed = true;
  } else if (target == session.checked) {
    // No commitment needed to remember a fact about the set itself:
    // the session's current subset just re-validated as allowed.
    session.base_allowed = true;
    if (session.analysis == nullptr) session.analysis = std::move(entry);
  }
  return decision;
}

// ---------------------------------------------------------------------
// Public entry points.

Result<GuardDecision> SessionGuard::Decide(const schema::User& user,
                                           const query::SelectQuery& query) {
  if (!query.bound) {
    return common::FailedPreconditionError("query is not bound");
  }
  std::set<std::string> functions = query::CollectInvokedFunctions(query);
  std::shared_ptr<Session> session = SessionFor(user.name());
  std::lock_guard<std::mutex> lock(session->mu);
  return DecideSet(user.name(), *session, functions, /*commit=*/false);
}

Result<GuardDecision> SessionGuard::CheckFunctions(
    const std::string& user, const std::set<std::string>& functions) {
  std::shared_ptr<Session> session = SessionFor(user);
  std::lock_guard<std::mutex> lock(session->mu);
  return DecideSet(user, *session, functions, /*commit=*/false);
}

Result<query::QueryResult> SessionGuard::Run(store::Database& db,
                                             const schema::User& user,
                                             const query::SelectQuery& query) {
  if (!query.bound) {
    return common::FailedPreconditionError("query is not bound");
  }
  std::set<std::string> functions = query::CollectInvokedFunctions(query);
  GuardDecision decision;
  {
    std::shared_ptr<Session> session = SessionFor(user.name());
    std::lock_guard<std::mutex> lock(session->mu);
    // Commit BEFORE execution: a query that errors mid-way may already
    // have performed writes, so its functions count as exercised.
    OODBSEC_ASSIGN_OR_RETURN(
        decision, DecideSet(user.name(), *session, functions, /*commit=*/true));
  }
  if (!decision.allowed) {
    return common::PermissionDeniedError(common::StrCat(
        "query denied: executing it would violate ",
        decision.violated_requirement));
  }
  query::QueryEvaluator evaluator(db, &user);
  return evaluator.Run(query);
}

// ---------------------------------------------------------------------
// Introspection.

SessionGuard::SessionProbe SessionGuard::Probe(const std::string& user) const {
  SessionProbe probe;
  std::shared_ptr<Session> session = FindSession(user);
  if (session == nullptr) return probe;
  std::lock_guard<std::mutex> lock(session->mu);
  probe.exists = true;
  probe.committed = session->committed;
  probe.checked = session->checked;
  if (session->analysis != nullptr) {
    probe.roots = session->analysis->roots;
    probe.digest = session->analysis->closure->FactSetDigest();
  }
  return probe;
}

std::vector<std::string> SessionGuard::SessionUsers() const {
  std::vector<std::string> users;
  for (const SessionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, session] : shard.sessions) {
      users.push_back(name);
    }
  }
  std::sort(users.begin(), users.end());
  return users;
}

GuardStats SessionGuard::Stats() const {
  GuardStats stats;
  stats.decisions = decisions_.load(std::memory_order_relaxed);
  stats.fastpath_allows = fastpath_allows_.load(std::memory_order_relaxed);
  stats.session_hits = session_hits_.load(std::memory_order_relaxed);
  stats.exact_hits = exact_hits_.load(std::memory_order_relaxed);
  stats.delta_rechecks = delta_rechecks_.load(std::memory_order_relaxed);
  stats.cold_builds = cold_builds_.load(std::memory_order_relaxed);
  stats.denials = denials_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache_mu_);
  stats.cache = cache_.stats();
  return stats;
}

common::Status SessionGuard::SaveCacheSnapshot() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.SaveCacheSnapshot();
}

size_t SessionGuard::LoadCacheSnapshot() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.LoadCacheSnapshot();
}

// ---------------------------------------------------------------------
// The cold reference path.

Result<GuardDecision> SessionGuard::ColdDecision(
    const schema::Schema& schema,
    const std::vector<core::Requirement>& requirements,
    const std::string& user, const std::set<std::string>& functions,
    core::ClosureOptions options) {
  // The closure ranges over exactly the session's function set — what
  // was actually exercised, not the full grant list.
  OODBSEC_ASSIGN_OR_RETURN(
      std::unique_ptr<unfold::UnfoldedSet> set,
      unfold::UnfoldedSet::Build(schema,
                                 core::AnalysisRoots(schema, functions)));
  core::Closure closure(*set, options);
  GuardDecision decision;
  for (const core::Requirement& requirement : requirements) {
    if (requirement.user != user) continue;
    OODBSEC_ASSIGN_OR_RETURN(
        core::AnalysisReport report,
        core::CheckAgainstClosure(*set, closure, requirement));
    if (!report.satisfied) {
      decision.allowed = false;
      decision.violated_requirement = requirement.ToString();
      decision.derivation = report.flaws[0].derivation;
      break;
    }
  }
  return decision;
}

}  // namespace oodbsec::dynamic
