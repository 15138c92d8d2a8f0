#include "core/analyzer.h"

#include <algorithm>

#include "common/strings.h"

namespace oodbsec::core {

using unfold::Node;
using unfold::NodeKind;

std::string AnalysisReport::ToString() const {
  std::string out = common::StrCat(
      "requirement ", requirement.ToString(), ": ",
      satisfied ? "SATISFIED" : "NOT SATISFIED (security flaw)", "\n");
  for (const FlawSite& flaw : flaws) {
    out += common::StrCat("  flaw at ", flaw.description, "\n");
  }
  return out;
}

std::vector<std::string> AnalysisRoots(const schema::Schema& schema,
                                       const schema::User& user) {
  return AnalysisRoots(schema, user.capabilities());
}

std::vector<std::string> AnalysisRoots(const schema::Schema& schema,
                                       const std::set<std::string>& functions) {
  std::vector<std::string> roots(functions.begin(), functions.end());
  // Integrity constraints (paper §1.1) are known-true to every user:
  // their unfolded bodies join the closure as observed results, so
  // constraint knowledge participates in inference even without a grant.
  for (const schema::FunctionDecl* constraint : schema.constraints()) {
    if (!functions.contains(constraint->name())) {
      roots.push_back(constraint->name());
    }
  }
  return roots;
}

namespace {

// Collects the supporting fact for capability `cap` on occurrence `id`;
// returns false when the capability is not derivable.
bool CapabilityHolds(const Closure& closure, Capability cap, int id,
                     std::vector<FactId>& supporting) {
  switch (cap) {
    case Capability::kTotalInferability:
      if (!closure.HasTi(id)) return false;
      supporting.push_back(closure.TiFact(id));
      return true;
    case Capability::kPartialInferability:
      if (!closure.HasPi(id)) return false;
      supporting.push_back(closure.PiFact(id));
      return true;
    case Capability::kTotalAlterability:
      if (!closure.HasTa(id)) return false;
      supporting.push_back(closure.TaFact(id));
      return true;
    case Capability::kPartialAlterability:
      if (!closure.HasPa(id)) return false;
      supporting.push_back(closure.PaFact(id));
      return true;
  }
  return false;
}

}  // namespace

common::Result<AnalysisReport> CheckAgainstClosure(
    const unfold::UnfoldedSet& set, const Closure& closure,
    const Requirement& requirement, obs::Observability* obs,
    obs::SpanId parent) {
  obs::ScopedSpan check_span(obs != nullptr ? &obs->tracer : nullptr,
                             "check", parent);
  schema::Callable callable =
      set.schema().ResolveCallable(requirement.function);
  if (!callable.ok()) {
    return common::NotFoundError(common::StrCat(
        "requirement names unknown function '", requirement.function, "'"));
  }
  if (!requirement.arg_caps.empty() &&
      requirement.arg_caps.size() != callable.param_types.size()) {
    return common::InvalidArgumentError(common::StrCat(
        "requirement lists ", requirement.arg_caps.size(),
        " argument(s) but '", requirement.function, "' takes ",
        callable.param_types.size()));
  }

  AnalysisReport report;
  report.requirement = requirement;
  report.node_count = set.node_count();
  report.fact_count = closure.fact_count();

  // Enumerate invocation sites: (argument ids, result id, description).
  struct Site {
    std::vector<int> arg_ids;  // id 0 = trivially-held root argument
    int result_id = 0;
    int site_id = 0;
    bool is_root = false;
    std::string description;
  };
  std::vector<Site> sites;

  if (callable.kind == schema::Callable::Kind::kAccess) {
    for (int i = 1; i <= set.node_count(); ++i) {
      const Node* node = set.node(i);
      if (node->is_let() &&
          node->origin_function == requirement.function) {
        Site site;
        for (size_t a = 0; a + 1 < node->children.size(); ++a) {
          site.arg_ids.push_back(node->children[a]->id);
        }
        site.result_id = node->id;
        site.site_id = node->id;
        site.description = common::StrCat("indirect invocation ",
                                          set.ShortLabel(node));
        sites.push_back(std::move(site));
      }
    }
    for (const unfold::Root& root : set.roots()) {
      if (root.function_name != requirement.function) continue;
      Site site;
      // Root arguments are supplied directly by the user: every
      // capability on them holds trivially (id 0 marks this).
      site.arg_ids.assign(root.arg_binder_ids.size(), 0);
      site.result_id = root.body->id;
      site.site_id = root.body->id;
      site.is_root = true;
      site.description = common::StrCat("direct invocation of ",
                                        requirement.function);
      sites.push_back(std::move(site));
    }
  } else {
    // Special function: every read/write occurrence on the attribute
    // (including those that are capability-list roots).
    const std::string& attribute = callable.attribute->name;
    const auto& occurrences =
        callable.kind == schema::Callable::Kind::kReadAttr
            ? set.reads(attribute)
            : set.writes(attribute);
    for (const Node* node : occurrences) {
      Site site;
      for (const Node* child : node->children) {
        site.arg_ids.push_back(child->id);
      }
      site.result_id = node->id;
      site.site_id = node->id;
      site.description =
          common::StrCat("operation ", set.ShortLabel(node));
      sites.push_back(std::move(site));
    }
  }

  for (const Site& site : sites) {
    std::vector<FactId> supporting;
    bool all_hold = true;
    for (size_t i = 0; i < requirement.arg_caps.size() && all_hold; ++i) {
      for (Capability cap : requirement.arg_caps[i]) {
        if (site.arg_ids[i] == 0) continue;  // root argument: trivial
        if (!CapabilityHolds(closure, cap, site.arg_ids[i], supporting)) {
          all_hold = false;
          break;
        }
      }
    }
    for (Capability cap : requirement.return_caps) {
      if (!all_hold) break;
      if (!CapabilityHolds(closure, cap, site.result_id, supporting)) {
        all_hold = false;
      }
    }
    if (!all_hold) continue;

    FlawSite flaw;
    flaw.site_id = site.site_id;
    flaw.is_root_site = site.is_root;
    flaw.description = site.description;
    flaw.supporting_facts = supporting;
    flaw.derivation = closure.ExplainFacts(supporting);
    report.flaws.push_back(std::move(flaw));
  }

  report.satisfied = report.flaws.empty();
  if (obs != nullptr) {
    obs->metrics.counter("analyzer.checks")->Increment();
    obs->metrics.counter("analyzer.sites_enumerated")
        ->Increment(sites.size());
    obs->metrics.counter("analyzer.flaws")->Increment(report.flaws.size());
  }
  return report;
}

}  // namespace oodbsec::core
