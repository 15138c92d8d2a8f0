// Algorithm A(R) (paper §4.1, Definition 6): decides whether a security
// requirement is satisfied by computing the F(F) closure over the
// program of every function in the user's capability list and looking
// for an invocation site of the requirement's function at which all
// listed capabilities are simultaneously derivable.
//
// Invocation sites of f in S(F):
//   * every let(f) occurrence (indirect invocation): arguments are the
//     bound expressions, the returned value is the let node;
//   * every r_att / w_att occurrence when f is a special function;
//   * the root itself when f is on the capability list: argument
//     capabilities hold trivially (the user passes the arguments), the
//     returned value is the unfolded body.
//
// The algorithm is sound (paper Theorem 1): if the requirement is
// actually violable, some site is reported. It is pessimistic: reported
// sites may be unrealizable (see the S2/pessimism experiment).
#ifndef OODBSEC_CORE_ANALYZER_H_
#define OODBSEC_CORE_ANALYZER_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/closure.h"
#include "core/requirement.h"
#include "schema/user.h"

namespace oodbsec::core {

// One invocation site at which every required capability is derivable.
struct FlawSite {
  // Occurrence id of the site; a root site carries its unfolded body's
  // id, so no site id is 0.
  int site_id = 0;
  bool is_root_site = false;
  std::string description;  // human-readable site label
  std::vector<FactId> supporting_facts;
  std::string derivation;   // Figure-1 style justification
};

struct AnalysisReport {
  Requirement requirement;
  bool satisfied = true;
  std::vector<FlawSite> flaws;

  // Closure statistics (for the scaling experiments).
  int node_count = 0;
  size_t fact_count = 0;

  std::string ToString() const;
};

// The roots whose unfolded program a user's closure runs over: the
// capability list (already sorted — capability sets are std::set) plus
// every integrity constraint not granted outright (paper §1.1).
// Deterministic: two users with permuted-equal grant sets produce equal
// root lists, which is what the service layer's capability-signature
// cache keys on.
std::vector<std::string> AnalysisRoots(const schema::Schema& schema,
                                       const schema::User& user);

// The same root list for a bare function set (no registry user): the
// sorted set plus every constraint it does not already contain. The
// dynamic session guard keys its incremental closures on this form —
// a session's exercised-function set is a transient capability list,
// and both overloads must produce identical lists for identical sets so
// guard closures and registry-user closures share cache entries.
std::vector<std::string> AnalysisRoots(const schema::Schema& schema,
                                       const std::set<std::string>& functions);

// Checks `requirement` against an already-computed closure, without
// validating the requirement's user name: the site enumeration and
// capability tests of A(R). This is the uncached primitive and the
// reference: AnalysisSession::Check calls it directly, while callers
// holding a cache entry go through CachedAnalysis::Check
// (core/closure_cache.h), which memoizes its reports per requirement
// shape. The requirement's function need not be on the capability
// list — indirect invocation sites still count. Read-only on
// `set`/`closure`; safe to call concurrently. With `obs`, the check
// runs under a "check" span (parented under `parent` when given — pass
// the submitting side's span id when the check runs on a pool worker)
// and site/flaw counts hit the registry.
common::Result<AnalysisReport> CheckAgainstClosure(
    const unfold::UnfoldedSet& set, const Closure& closure,
    const Requirement& requirement, obs::Observability* obs = nullptr,
    obs::SpanId parent = obs::kNoSpan);

// The per-user analysis context AnalysisSession::BuildUser returns: the
// unfolded capability-list program and its closure, reusable across
// many CheckAgainstClosure calls.
class UserAnalysis {
 public:
  UserAnalysis(std::unique_ptr<unfold::UnfoldedSet> set,
               std::unique_ptr<Closure> closure)
      : set_(std::move(set)), closure_(std::move(closure)) {}

  const unfold::UnfoldedSet& set() const { return *set_; }
  const Closure& closure() const { return *closure_; }

 private:
  std::unique_ptr<unfold::UnfoldedSet> set_;
  std::unique_ptr<Closure> closure_;
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_ANALYZER_H_
