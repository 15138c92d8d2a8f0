#include "service/analysis_service.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"
#include "service/capability_signature.h"
#include "unfold/unfolded.h"

namespace oodbsec::service {

using core::CachedAnalysis;

AnalysisService::AnalysisService(core::AnalysisSession& session,
                                 int threads_override)
    : session_(&session),
      pool_(threads_override > 0 ? threads_override : session.options().threads,
            &session.obs()),
      // Reading the session's store shares it (and its page cache)
      // between the session's cache and this one.
      cache_(session.schema(), session.closure_options(),
             session.options().cache_capacity, &session.obs(),
             session.options().snapshot_store),
      closures_built_(session.metrics().counter("service.closures_built")),
      signature_hits_(session.metrics().counter("service.signature_hits")),
      requirement_hits_(session.metrics().counter("service.requirement_hits")),
      checks_(session.metrics().counter("service.checks")),
      warm_starts_(session.metrics().counter("service.warm_starts")),
      retract_builds_(session.metrics().counter("service.retract_builds")),
      snapshot_hits_(session.metrics().counter("service.snapshot_hits")),
      revokes_(session.metrics().counter("session.revokes")),
      retractions_fast_(
          session.metrics().counter("session.retractions_fast")),
      retractions_fallback_(
          session.metrics().counter("session.retractions_fallback")) {}

ServiceStats AnalysisService::Stats() const {
  ServiceStats stats;
  stats.closures_built = static_cast<size_t>(closures_built_->value());
  stats.signature_hits = static_cast<size_t>(signature_hits_->value());
  stats.requirement_hits = static_cast<size_t>(requirement_hits_->value());
  stats.checks = static_cast<size_t>(checks_->value());
  stats.warm_starts = static_cast<size_t>(warm_starts_->value());
  stats.retract_builds = static_cast<size_t>(retract_builds_->value());
  stats.snapshot_hits = static_cast<size_t>(snapshot_hits_->value());
  stats.revokes = static_cast<size_t>(revokes_->value());
  stats.retractions_fast = static_cast<size_t>(retractions_fast_->value());
  stats.retractions_fallback =
      static_cast<size_t>(retractions_fallback_->value());
  return stats;
}

common::Result<std::vector<core::AnalysisReport>> AnalysisService::CheckBatch(
    const std::vector<core::Requirement>& requirements) {
  const size_t n = requirements.size();
  obs::Tracer* tracer = &session_->tracer();
  obs::ScopedSpan batch_span(tracer, "batch");

  // Phase 1 (sequential): resolve users through the session (its
  // grant/revoke overlay included), derive signatures, and plan one
  // build per distinct uncached signature, pairing each with its base —
  // the smallest close cached superset, else the largest cached subset —
  // up front: lookups stay in this sequential phase, so the parallel
  // phase below never touches cache state. Unknown users are recorded,
  // not returned yet — the error surfaced at the end must belong to the
  // *earliest* failing requirement, which may instead fail later at
  // build or check time.
  struct Planned {
    const schema::User* user = nullptr;  // nullptr: unknown user
    std::string signature;
    // The serving closure when the signature was already cached.
    std::shared_ptr<const CachedAnalysis> entry;
  };
  struct Build {
    std::vector<std::string> roots;
    std::shared_ptr<const CachedAnalysis> base;  // may be null
    common::Result<std::shared_ptr<const CachedAnalysis>> result =
        common::InternalError("closure not built");
  };
  std::vector<Planned> planned(n);
  std::vector<Build> builds;
  std::unordered_map<std::string, size_t> build_index;
  {
    obs::ScopedSpan plan_span(tracer, "batch.plan");
    // A cached signature scores one signature hit per batch no matter
    // how many requirements resolve to it; each of those requirements
    // scores its own requirement hit (see ServiceStats).
    std::unordered_set<std::string> counted_signatures;
    for (size_t i = 0; i < n; ++i) {
      checks_->Increment();
      const schema::User* user = session_->FindUser(requirements[i].user);
      if (user == nullptr) continue;
      planned[i].user = user;
      std::vector<std::string> roots =
          core::AnalysisRoots(session_->schema(), *user);
      planned[i].signature =
          SignatureFromRoots(roots, session_->closure_options());
      planned[i].entry = cache_.FindExact(roots);
      if (planned[i].entry != nullptr) {
        requirement_hits_->Increment();
        if (counted_signatures.insert(planned[i].signature).second) {
          signature_hits_->Increment();
        }
        continue;
      }
      if (build_index.contains(planned[i].signature)) {
        // Reuses a closure another requirement in this batch is
        // building: a requirement-level hit, not a signature-level one.
        requirement_hits_->Increment();
        continue;
      }
      // L2 probe before planning a build: a valid persisted snapshot
      // replays straight into L1, and every later requirement of this
      // signature takes the exact-hit path above.
      planned[i].entry = cache_.FindSnapshot(roots);
      if (planned[i].entry != nullptr) {
        snapshot_hits_->Increment();
        counted_signatures.insert(planned[i].signature);
        cache_.Insert(planned[i].entry);
        continue;
      }
      closures_built_->Increment();
      build_index.emplace(planned[i].signature, builds.size());
      // Shrinking a close superset beats growing a subset (a role that
      // lost a capability).
      std::shared_ptr<const CachedAnalysis> base =
          cache_.FindSmallestSuperset(roots);
      if (base == nullptr) base = cache_.FindLargestSubset(roots);
      builds.push_back(Build{std::move(roots), std::move(base)});
    }
  }

  // Phase 2 (parallel): compute the distinct closures. Workers write to
  // disjoint pre-allocated slots; Wait() orders those writes before the
  // sequential phase below reads them. BuildDetached is const and the
  // bases are pinned by shared_ptr, so eviction elsewhere cannot
  // disturb a replay in progress.
  {
    obs::ScopedSpan build_span(tracer, "batch.build");
    obs::SpanId build_parent = build_span.id();
    for (Build& build : builds) {
      pool_.Submit([this, &build, build_parent] {
        build.result =
            cache_.BuildDetached(build.roots, build.base.get(), build_parent);
      });
    }
    pool_.Wait();
  }

  // Phase 3 (sequential): publish successful builds. Failures stay out
  // of the cache so a later batch retries them.
  for (Build& build : builds) {
    if (build.result.ok()) {
      const std::shared_ptr<const CachedAnalysis>& entry =
          build.result.value();
      if (entry->closure->retracted()) {
        retract_builds_->Increment();
      } else if (entry->closure->warm_started()) {
        warm_starts_->Increment();
      }
      cache_.Insert(entry);
    }
  }

  // Phase 4 (parallel): every requirement with a closure is checked
  // concurrently through its entry's report memo (CachedAnalysis::Check),
  // which computes each (entry, requirement shape) pair once under the
  // entry's lock, whatever the scheduling; the other requirements of
  // the pair are served the stored report.
  std::vector<std::optional<common::Result<core::AnalysisReport>>> outcomes(n);
  {
    obs::ScopedSpan check_span(tracer, "batch.check");
    obs::SpanId check_parent = check_span.id();
    obs::Observability* obs = &session_->obs();
    for (size_t i = 0; i < n; ++i) {
      if (planned[i].user == nullptr) continue;
      const CachedAnalysis* entry = planned[i].entry.get();
      if (entry == nullptr) {
        const Build& build = builds[build_index.at(planned[i].signature)];
        if (!build.result.ok()) continue;  // its build failed
        entry = build.result.value().get();
      }
      pool_.Submit([&outcomes, &requirements, entry, obs, check_parent, i] {
        outcomes[i].emplace(entry->Check(requirements[i], obs, check_parent));
      });
    }
    pool_.Wait();
  }

  // Phase 5 (sequential): assemble in input order; the first failure in
  // input order wins, exactly as a sequential loop would report it.
  std::vector<core::AnalysisReport> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (planned[i].user == nullptr) {
      return common::NotFoundError(
          common::StrCat("unknown user '", requirements[i].user, "'"));
    }
    if (!outcomes[i].has_value()) {
      return builds[build_index.at(planned[i].signature)].result.status();
    }
    if (!outcomes[i]->ok()) return outcomes[i]->status();
    reports.push_back(std::move(*outcomes[i]).value());
  }
  return reports;
}

}  // namespace oodbsec::service
