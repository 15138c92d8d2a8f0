#include "bench_util.h"

#include "core/analysis_session.h"
#include "core/closure.h"
#include "store/database.h"
#include "unfold/unfolded.h"

namespace oodbsec::bench {

std::array<AgreementCounts, 4> CompareAnalyzerWithOracle(uint32_t seed) {
  std::array<AgreementCounts, 4> counts{};

  // Small scope: 2 int attributes, 3 template functions, a capability
  // list of 2 functions + 1 attribute write, sequences up to length 2.
  RandomWorkload workload = MakeRandomWorkload(seed, 2, 3);
  const schema::Schema& schema = *workload.schema;
  std::mt19937 rng(seed ^ 0x9e3779b9u);

  std::vector<std::string> capabilities;
  {
    std::vector<std::string> pool = workload.function_names;
    std::shuffle(pool.begin(), pool.end(), rng);
    capabilities.assign(pool.begin(), pool.begin() + 2);
    capabilities.push_back(common::StrCat(
        "w_a", std::uniform_int_distribution<int>(0, 1)(rng)));
  }

  // The static side.
  schema::UserRegistry users(schema);
  if (!users.AddUser("u").ok()) std::abort();
  for (const std::string& cap : capabilities) {
    if (!users.Grant("u", cap).ok()) std::abort();
  }
  core::AnalysisSession session(schema, users);
  auto analysis = session.BuildUser(*users.Find("u"));
  if (!analysis.ok()) std::abort();
  const core::Closure& closure = analysis.value()->closure();
  const unfold::UnfoldedSet& set = analysis.value()->set();

  // The semantic side: one initial database with one object whose
  // attributes are seeded in {0, 1, 2}.
  std::vector<store::Database> dbs;
  {
    store::Database db(schema);
    auto oid = db.CreateObject("C");
    if (!oid.ok()) std::abort();
    for (const schema::AttributeDef& attr :
         schema.FindClass("C")->attributes()) {
      (void)db.WriteAttribute(
          *oid, attr.name,
          types::Value::Int(std::uniform_int_distribution<int>(0, 2)(rng)));
    }
    dbs.push_back(std::move(db));
  }
  // Inference domains are closed under the templates (two chained
  // writes of r+2 then *2+2 stay below 19); injection stays tiny.
  types::DomainMap inference_domains;
  inference_domains.Set(schema.pool().Int(),
                        types::Domain::IntRange(schema.pool().Int(), 0, 18));
  inference_domains.Set(schema.pool().Bool(),
                        types::Domain::Bools(schema.pool().Bool()));
  semantics::OracleOptions options;
  options.max_sequence_length = 2;
  types::DomainMap argument_domains;
  argument_domains.Set(schema.pool().Int(),
                       types::Domain::IntRange(schema.pool().Int(), 0, 2));
  argument_domains.Set(schema.pool().Bool(),
                       types::Domain::Bools(schema.pool().Bool()));
  options.argument_domains = std::move(argument_domains);
  semantics::Oracle oracle(schema, capabilities, std::move(dbs),
                           std::move(inference_domains), options);

  // Compare on every attribute-read occurrence of S(F).
  constexpr core::Capability kCaps[] = {
      core::Capability::kTotalInferability,
      core::Capability::kPartialInferability,
      core::Capability::kTotalAlterability,
      core::Capability::kPartialAlterability,
  };
  for (int id = 1; id <= set.node_count(); ++id) {
    if (set.node(id)->kind != unfold::NodeKind::kReadAttr) continue;
    semantics::Target target = semantics::Oracle::TargetFor(set, id);
    for (core::Capability cap : kCaps) {
      bool analyzer_says = false;
      switch (cap) {
        case core::Capability::kTotalInferability:
          analyzer_says = closure.HasTi(id);
          break;
        case core::Capability::kPartialInferability:
          analyzer_says = closure.HasPi(id);
          break;
        case core::Capability::kTotalAlterability:
          analyzer_says = closure.HasTa(id);
          break;
        case core::Capability::kPartialAlterability:
          analyzer_says = closure.HasPa(id);
          break;
      }
      auto oracle_says = oracle.Can(cap, target);
      if (!oracle_says.ok()) std::abort();
      AgreementCounts& bucket = counts[static_cast<size_t>(cap)];
      if (analyzer_says && oracle_says.value()) {
        ++bucket.both_yes;
      } else if (!analyzer_says && !oracle_says.value()) {
        ++bucket.both_no;
      } else if (analyzer_says) {
        ++bucket.analyzer_only;
      } else {
        ++bucket.oracle_only;
      }
    }
  }
  return counts;
}

}  // namespace oodbsec::bench
