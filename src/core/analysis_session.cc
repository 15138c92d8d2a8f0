#include "core/analysis_session.h"

#include <utility>

#include "common/strings.h"

namespace oodbsec::core {

AnalysisSession::AnalysisSession(const schema::Schema& schema,
                                 const schema::UserRegistry& users,
                                 SessionOptions options)
    : schema_(schema),
      users_(users),
      options_(options),
      obs_(std::make_unique<obs::Observability>()) {
  if (options_.threads < 1) options_.threads = 1;
  obs_->tracer.set_enabled(options_.tracing);
  recheck_cache_ = std::make_unique<ClosureCache>(
      schema_, options_.closure, options_.cache_capacity, obs_.get(),
      options_.snapshot_store);
}

common::Result<std::unique_ptr<UserAnalysis>> AnalysisSession::BuildUser(
    const schema::User& user) const {
  return UserAnalysis::Build(schema_, user, options_.closure, obs_.get());
}

common::Result<AnalysisReport> AnalysisSession::Check(
    const Requirement& requirement) {
  obs::ScopedSpan span(&obs_->tracer, "check-requirement");
  obs_->metrics.counter("session.checks")->Increment();
  const schema::User* user = FindUser(requirement.user);
  if (user == nullptr) {
    return common::NotFoundError(
        common::StrCat("unknown user '", requirement.user, "'"));
  }
  OODBSEC_ASSIGN_OR_RETURN(std::unique_ptr<UserAnalysis> analysis,
                           BuildUser(*user));
  return CheckAgainstClosure(analysis->set(), analysis->closure(),
                             requirement, obs_.get());
}

const schema::User* AnalysisSession::FindUser(std::string_view name) const {
  auto it = overlay_users_.find(name);
  if (it != overlay_users_.end()) return &it->second;
  return users_.Find(name);
}

common::Status AnalysisSession::AddCapability(std::string_view user,
                                              std::string function) {
  const schema::User* current = FindUser(user);
  if (current == nullptr) {
    return common::NotFoundError(
        common::StrCat("unknown user '", user, "'"));
  }
  if (!schema_.ResolveCallable(function).ok()) {
    return common::NotFoundError(common::StrCat(
        "'", function, "' names no access or special function"));
  }
  obs_->metrics.counter("session.grants")->Increment();
  auto [it, inserted] =
      overlay_users_.try_emplace(std::string(user), *current);
  it->second.Grant(std::move(function));
  return common::Status();
}

common::Status AnalysisSession::RemoveCapability(std::string_view user,
                                                 std::string_view function) {
  const schema::User* current = FindUser(user);
  if (current == nullptr) {
    return common::NotFoundError(
        common::StrCat("unknown user '", user, "'"));
  }
  if (!current->MayInvoke(function)) {
    return common::FailedPreconditionError(common::StrCat(
        "user '", user, "' does not hold '", function, "'"));
  }
  obs_->metrics.counter("session.revokes")->Increment();
  std::vector<std::string> old_roots = AnalysisRoots(schema_, *current);
  auto [it, inserted] =
      overlay_users_.try_emplace(std::string(user), *current);
  it->second.Revoke(function);
  // Retraction fast path: shrink the user's cached closure in place
  // (copy-on-write — the superset entry stays immutable) instead of
  // leaving the next recheck to warm-start from some smaller subset.
  // The fallback counter makes the miss rate observable: it trips when
  // the user's pre-revoke closure was never built or already evicted.
  std::vector<std::string> new_roots = AnalysisRoots(schema_, it->second);
  if (recheck_cache_->RetractEntry(old_roots, new_roots) != nullptr) {
    obs_->metrics.counter("session.retractions_fast")->Increment();
  } else {
    obs_->metrics.counter("session.retractions_fallback")->Increment();
  }
  return common::Status();
}

common::Result<std::vector<AnalysisReport>>
AnalysisSession::RecheckRequirements(
    const std::vector<Requirement>& requirements) {
  obs::ScopedSpan span(&obs_->tracer, "session.recheck");
  std::vector<AnalysisReport> reports;
  reports.reserve(requirements.size());
  for (const Requirement& requirement : requirements) {
    obs_->metrics.counter("session.rechecks")->Increment();
    const schema::User* user = FindUser(requirement.user);
    if (user == nullptr) {
      return common::NotFoundError(
          common::StrCat("unknown user '", requirement.user, "'"));
    }
    std::vector<std::string> roots = AnalysisRoots(schema_, *user);
    OODBSEC_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnalysis> entry,
                             recheck_cache_->GetOrBuild(roots));
    OODBSEC_ASSIGN_OR_RETURN(
        AnalysisReport report,
        CheckAgainstClosure(*entry->set, *entry->closure, requirement,
                            obs_.get(), span.id()));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace oodbsec::core
