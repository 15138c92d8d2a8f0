// The batch analysis service: capability-signature canonicalisation,
// closure cache hit/miss accounting, batch-vs-sequential determinism,
// error ordering, and the work-stealing pool itself.
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "obs/metrics.h"
#include "service/analysis_service.h"
#include "service/capability_signature.h"
#include "core/thread_pool.h"
#include "text/workspace.h"

namespace oodbsec {
namespace {

// Three users over the stockbroker schema; clerk1 and clerk2 carry the
// same grants in permuted declaration order (one role, two accounts),
// updater carries a different bundle.
constexpr const char* kRoleWorkspace = R"(
class Broker { name: string; salary: int; budget: int; profit: int; }

function checkBudget(broker: Broker): bool =
  r_budget(broker) >= 10 * r_salary(broker);

function calcSalary(budget: int, profit: int): int =
  budget / 10 + profit / 2;

function updateSalary(broker: Broker): null =
  w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)));

user clerk1 can checkBudget, w_budget, r_name;
user clerk2 can r_name, w_budget, checkBudget;
user updater can updateSalary, w_budget, w_profit, r_name;

require (clerk1, r_salary(x) : ti);
require (clerk2, r_salary(x) : ti);
require (updater, w_salary(a, v : ta));
)";

text::Workspace LoadRoleWorkspace() {
  auto workspace = text::LoadWorkspace(kRoleWorkspace);
  EXPECT_TRUE(workspace.ok()) << workspace.status();
  return std::move(workspace).value();
}

core::Requirement Req(const std::string& source) {
  auto requirement = core::ParseRequirementString(source);
  EXPECT_TRUE(requirement.ok()) << requirement.status();
  return std::move(requirement).value();
}

// A batch over the role workspace with many requirements per
// (signature, requirement shape) pair — clerk1 and clerk2 share a
// signature — so pool threads meet on one entry's report memo. The 32
// copies keep enough tasks queued that threads miss on one pair
// together: on a 4-core host, a memo that checked outside its lock
// failed ColdBatchChecksEachPairOnce in nearly all of its 50 runs (at 8
// copies, the whole test still passed about one time in eight).
constexpr uint64_t kRepeatedShapePairs = 3;
std::vector<core::Requirement> RepeatedShapes() {
  std::vector<core::Requirement> batch;
  for (int copy = 0; copy < 32; ++copy) {
    batch.push_back(Req("(clerk1, r_salary(x) : ti)"));
    batch.push_back(Req("(clerk2, r_salary(y) : ti)"));
    batch.push_back(Req("(updater, w_salary(a, v : ta))"));
    batch.push_back(Req("(updater, r_salary(x) : pi)"));
  }
  return batch;
}

TEST(CapabilitySignatureTest, PermutedGrantOrderSharesSignature) {
  text::Workspace workspace = LoadRoleWorkspace();
  const schema::User* clerk1 = workspace.users->Find("clerk1");
  const schema::User* clerk2 = workspace.users->Find("clerk2");
  const schema::User* updater = workspace.users->Find("updater");
  ASSERT_NE(clerk1, nullptr);
  ASSERT_NE(clerk2, nullptr);
  ASSERT_NE(updater, nullptr);

  core::ClosureOptions options;
  EXPECT_EQ(service::CapabilitySignature(*workspace.schema, *clerk1, options),
            service::CapabilitySignature(*workspace.schema, *clerk2, options));
  EXPECT_NE(service::CapabilitySignature(*workspace.schema, *clerk1, options),
            service::CapabilitySignature(*workspace.schema, *updater, options));
}

TEST(CapabilitySignatureTest, ClosureOptionsArePartOfTheKey) {
  text::Workspace workspace = LoadRoleWorkspace();
  const schema::User* clerk = workspace.users->Find("clerk1");
  ASSERT_NE(clerk, nullptr);

  core::ClosureOptions defaults;
  core::ClosureOptions weakened;
  weakened.same_type_argument_equality = false;
  EXPECT_NE(service::CapabilitySignature(*workspace.schema, *clerk, defaults),
            service::CapabilitySignature(*workspace.schema, *clerk, weakened));

  core::ClosureOptions strengthened;
  strengthened.read_object_total_alterability = true;
  EXPECT_NE(
      service::CapabilitySignature(*workspace.schema, *clerk, defaults),
      service::CapabilitySignature(*workspace.schema, *clerk, strengthened));
}

TEST(AnalysisServiceTest, PermutedUsersShareOneClosure) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::SessionOptions options;
  options.threads = 4;
  core::AnalysisSession session(*workspace.schema, *workspace.users, options);
  service::AnalysisService svc(session);

  auto reports = svc.CheckBatch(workspace.requirements);
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), 3u);

  // clerk1/clerk2 share a signature: two closures for three checks.
  // Nothing was in the cache when the batch started, so there are no
  // signature-level hits yet — clerk2 reusing the closure clerk1's
  // requirement triggered is a requirement-level hit only.
  service::ServiceStats cold = svc.Stats();
  EXPECT_EQ(cold.closures_built, 2u);
  EXPECT_EQ(cold.signature_hits, 0u);
  EXPECT_EQ(cold.requirement_hits, 1u);
  EXPECT_EQ(cold.checks, 3u);
  EXPECT_EQ(svc.cache_size(), 2u);

  // The same batch again is served entirely from cache: both distinct
  // signatures resolve against existing entries (one signature hit
  // each), and all three requirements reuse.
  auto again = svc.CheckBatch(workspace.requirements);
  ASSERT_TRUE(again.ok()) << again.status();
  service::ServiceStats warm = svc.Stats();
  EXPECT_EQ(warm.closures_built, 2u);
  EXPECT_EQ(warm.signature_hits, 2u);
  EXPECT_EQ(warm.requirement_hits, 4u);
  EXPECT_EQ(warm.checks, 6u);
  EXPECT_EQ(svc.cache_size(), 2u);
}

// The old single `HitRate()` divided cache hits by *checks*, silently
// conflating closure reuse with requirement traffic. The split rates
// answer the two questions separately — and each stays in [0, 1].
TEST(AnalysisServiceTest, HitRatesSeparateSignatureAndRequirementReuse) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::AnalysisSession session(*workspace.schema, *workspace.users);
  service::AnalysisService svc(session);

  // Fresh service: both rates are defined (0, not NaN).
  EXPECT_EQ(svc.Stats().SignatureHitRate(), 0.0);
  EXPECT_EQ(svc.Stats().RequirementHitRate(), 0.0);

  ASSERT_TRUE(svc.CheckBatch(workspace.requirements).ok());
  service::ServiceStats cold = svc.Stats();
  // 2 builds, 0 cached-signature resolutions; 1 of 3 requirements
  // reused a closure.
  EXPECT_DOUBLE_EQ(cold.SignatureHitRate(), 0.0);
  EXPECT_DOUBLE_EQ(cold.RequirementHitRate(), 1.0 / 3.0);

  ASSERT_TRUE(svc.CheckBatch(workspace.requirements).ok());
  service::ServiceStats warm = svc.Stats();
  // 2 builds vs 2 cached resolutions; 4 of 6 requirements reused.
  EXPECT_DOUBLE_EQ(warm.SignatureHitRate(), 0.5);
  EXPECT_DOUBLE_EQ(warm.RequirementHitRate(), 4.0 / 6.0);
  // The old formula would have reported 2 "hits" over 6 checks for the
  // signature question and had no answer at all for the requirement
  // question; both new rates are bounded.
  EXPECT_LE(warm.SignatureHitRate(), 1.0);
  EXPECT_LE(warm.RequirementHitRate(), 1.0);
}

// Single-requirement batch accounting: the first batch builds, later
// batches score one signature hit and one requirement hit each.
TEST(AnalysisServiceTest, SingleCheckAccounting) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::AnalysisSession session(*workspace.schema, *workspace.users);
  service::AnalysisService svc(session);
  core::Requirement requirement = Req("(clerk1, r_salary(x) : ti)");

  ASSERT_TRUE(svc.CheckBatch({requirement}).ok());
  ASSERT_TRUE(svc.CheckBatch({requirement}).ok());
  // clerk2 shares clerk1's signature, so it hits too.
  ASSERT_TRUE(svc.CheckBatch({Req("(clerk2, r_salary(x) : ti)")}).ok());

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.closures_built, 1u);
  EXPECT_EQ(stats.signature_hits, 2u);
  EXPECT_EQ(stats.requirement_hits, 2u);
  EXPECT_EQ(stats.checks, 3u);
}

TEST(AnalysisServiceTest, DifferentClosureOptionsDoNotShareClosures) {
  text::Workspace workspace = LoadRoleWorkspace();

  core::AnalysisSession default_session(*workspace.schema, *workspace.users);
  service::AnalysisService svc_default(default_session);
  core::SessionOptions weakened;
  weakened.closure.same_type_argument_equality = false;
  core::AnalysisSession weak_session(*workspace.schema, *workspace.users,
                                     weakened);
  service::AnalysisService svc_weak(weak_session);

  core::Requirement requirement = Req("(clerk1, r_salary(x) : ti)");
  auto strict = svc_default.CheckBatch({requirement});
  auto weak = svc_weak.CheckBatch({requirement});
  ASSERT_TRUE(strict.ok()) << strict.status();
  ASSERT_TRUE(weak.ok()) << weak.status();
  // Each service built its own closure — the signatures differ, so a
  // shared cache would also have kept them apart.
  EXPECT_EQ(svc_default.Stats().closures_built, 1u);
  EXPECT_EQ(svc_weak.Stats().closures_built, 1u);
  // Without same-type argument equality the clerk cannot link the
  // budget write to checkBudget's argument, so the flaw disappears:
  // the options reach the fixpoint, not just the cache key.
  EXPECT_FALSE((*strict)[0].satisfied);
  EXPECT_TRUE((*weak)[0].satisfied);
}

// The service resolves users through the session, so grants and
// revokes made there reach its batches: after a revoke on one user and
// a grant on another, every batch report reads exactly like the
// session's own sequential Check.
TEST(AnalysisServiceTest, BatchSeesSessionGrantsAndRevokes) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::AnalysisSession session(*workspace.schema, *workspace.users);
  service::AnalysisService svc(session);
  ASSERT_TRUE(session.RemoveCapability("clerk1", "w_budget").ok());
  ASSERT_TRUE(session.AddCapability("updater", "checkBudget").ok());

  for (const core::Requirement& requirement : workspace.requirements) {
    auto expected = session.Check(requirement);
    auto batch = svc.CheckBatch({requirement});
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ((*batch)[0].ToString(), expected->ToString());
    EXPECT_EQ((*batch)[0].node_count, expected->node_count)
        << requirement.ToString();
  }
  // The revoke closed clerk1's flaw; the registry still grants it.
  auto clerk1 = svc.CheckBatch({workspace.requirements[0]});
  ASSERT_TRUE(clerk1.ok());
  EXPECT_TRUE((*clerk1)[0].satisfied);
}

// The determinism contract: a parallel batch over the stockbroker
// workspace is byte-identical — verdicts, flaw sites, supporting facts,
// derivation texts — to one-requirement-at-a-time AnalysisSession::Check.
TEST(AnalysisServiceTest, BatchMatchesSequentialByteForByte) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::SessionOptions options;
  options.threads = 4;
  core::AnalysisSession session(*workspace.schema, *workspace.users, options);
  service::AnalysisService svc(session);

  auto batch = svc.CheckBatch(workspace.requirements);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), workspace.requirements.size());

  for (size_t i = 0; i < workspace.requirements.size(); ++i) {
    auto sequential = session.Check(workspace.requirements[i]);
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    const core::AnalysisReport& a = (*batch)[i];
    const core::AnalysisReport& b = *sequential;
    EXPECT_EQ(a.satisfied, b.satisfied) << i;
    EXPECT_EQ(a.node_count, b.node_count) << i;
    EXPECT_EQ(a.fact_count, b.fact_count) << i;
    EXPECT_EQ(a.ToString(), b.ToString()) << i;
    ASSERT_EQ(a.flaws.size(), b.flaws.size()) << i;
    for (size_t f = 0; f < a.flaws.size(); ++f) {
      EXPECT_EQ(a.flaws[f].site_id, b.flaws[f].site_id);
      EXPECT_EQ(a.flaws[f].description, b.flaws[f].description);
      EXPECT_EQ(a.flaws[f].supporting_facts, b.flaws[f].supporting_facts);
      EXPECT_EQ(a.flaws[f].derivation, b.flaws[f].derivation);
    }
  }
}

TEST(AnalysisServiceTest, BatchReportsEarliestFailureInInputOrder) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::SessionOptions options;
  options.threads = 2;
  core::AnalysisSession session(*workspace.schema, *workspace.users, options);
  service::AnalysisService svc(session);

  // Failure after success: the batch fails with requirement 1's error.
  {
    std::vector<core::Requirement> batch = {
        Req("(clerk1, r_salary(x) : ti)"), Req("(ghost, r_salary(x) : ti)")};
    auto reports = svc.CheckBatch(batch);
    ASSERT_FALSE(reports.ok());
    EXPECT_NE(reports.status().message().find("unknown user 'ghost'"),
              std::string::npos)
        << reports.status();
  }
  // Two failures: the earlier one (unknown function, a check-time
  // error) wins over the later unknown user, exactly as a sequential
  // loop would encounter them.
  {
    std::vector<core::Requirement> batch = {
        Req("(clerk1, noSuchFunction(x) : ti)"),
        Req("(ghost, r_salary(x) : ti)")};
    auto reports = svc.CheckBatch(batch);
    ASSERT_FALSE(reports.ok());
    EXPECT_NE(reports.status().message().find("noSuchFunction"),
              std::string::npos)
        << reports.status();
  }
  // Order flipped: now the unknown user is first and wins.
  {
    std::vector<core::Requirement> batch = {
        Req("(ghost, r_salary(x) : ti)"),
        Req("(clerk1, noSuchFunction(x) : ti)")};
    auto reports = svc.CheckBatch(batch);
    ASSERT_FALSE(reports.ok());
    EXPECT_NE(reports.status().message().find("unknown user 'ghost'"),
              std::string::npos)
        << reports.status();
  }
  // An empty batch is trivially fine.
  auto empty = svc.CheckBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// Every metric outside the "pool." namespace is documented as a
// deterministic function of the workload: scheduling may move work
// between threads but never changes what is derived or counted. Run the
// same two batches through a 1-thread and an 8-thread service and the
// non-pool snapshots must be identical, entry for entry.
TEST(AnalysisServiceTest, MetricsIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    text::Workspace workspace = LoadRoleWorkspace();
    core::SessionOptions options;
    options.threads = threads;
    core::AnalysisSession session(*workspace.schema, *workspace.users,
                                  options);
    service::AnalysisService svc(session);
    EXPECT_TRUE(svc.CheckBatch(RepeatedShapes()).ok());
    EXPECT_TRUE(svc.CheckBatch(workspace.requirements).ok());
    EXPECT_TRUE(svc.CheckBatch(workspace.requirements).ok());
    EXPECT_TRUE(svc.CheckBatch({Req("(updater, w_salary(a, v : ta))")}).ok());
    std::vector<obs::MetricSnapshot> metrics = session.metrics().Snapshot();
    std::erase_if(metrics, [](const obs::MetricSnapshot& m) {
      return m.name.starts_with("pool.");
    });
    return metrics;
  };

  std::vector<obs::MetricSnapshot> one = run(1);
  std::vector<obs::MetricSnapshot> eight = run(8);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], eight[i]) << one[i].name << " vs " << eight[i].name;
  }
  // And the run counted real work: closure facts were derived, and
  // requirements were served from report memos.
  bool saw_facts = false;
  bool saw_check_hits = false;
  for (const obs::MetricSnapshot& m : one) {
    if (m.name == "closure.facts.total") saw_facts = m.value > 0;
    if (m.name == "analyzer.check_hits") saw_check_hits = m.value > 0;
  }
  EXPECT_TRUE(saw_facts);
  EXPECT_TRUE(saw_check_hits);
}

// A report memo computes a missing report while holding its entry's
// lock, so a cold batch makes exactly one check per (signature, shape)
// pair however the pool interleaves. A memo that checked outside the
// lock would count a pair twice whenever two threads missed together.
TEST(CheckMemoTest, ColdBatchChecksEachPairOnce) {
  text::Workspace workspace = LoadRoleWorkspace();
  const std::vector<core::Requirement> batch = RepeatedShapes();
  for (int run = 0; run < 50; ++run) {
    core::SessionOptions options;
    options.threads = 8;
    core::AnalysisSession session(*workspace.schema, *workspace.users,
                                  options);
    service::AnalysisService svc(session);
    ASSERT_TRUE(svc.CheckBatch(batch).ok());
    EXPECT_EQ(session.metrics().counter("analyzer.checks")->value(),
              kRepeatedShapePairs)
        << "run " << run;
    EXPECT_EQ(session.metrics().counter("analyzer.check_hits")->value(),
              batch.size() - kRepeatedShapePairs)
        << "run " << run;
  }
}

// Every field of a report except its requirement: what the memo stores.
std::string ReportBody(const core::AnalysisReport& report) {
  std::string body = common::StrCat(report.satisfied, " ", report.node_count,
                                    " ", report.fact_count, "\n");
  for (const core::FlawSite& flaw : report.flaws) {
    body += common::StrCat(flaw.site_id, " ", flaw.is_root_site, " ",
                           flaw.description, " [");
    for (core::FactId fact : flaw.supporting_facts) {
      body += common::StrCat(fact, " ");
    }
    body += common::StrCat("]\n", flaw.derivation, "\n");
  }
  return body;
}

// `got` equals `want` in every field: the requirement (user and
// arg_names included) and the report body.
void ExpectSameReport(const common::Result<core::AnalysisReport>& got,
                      const common::Result<core::AnalysisReport>& want) {
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(got->requirement.user, want->requirement.user);
  EXPECT_EQ(got->requirement.arg_names, want->requirement.arg_names);
  EXPECT_EQ(got->requirement.ToString(), want->requirement.ToString());
  EXPECT_EQ(ReportBody(*got), ReportBody(*want));
}

// CachedAnalysis::Check returns, first time and from the memo, what
// CheckAgainstClosure returns on the same entry, with the caller's
// requirement: clerk2 is served the report clerk1's requirement
// stored, and a renamed argument list is served the same report.
TEST(CheckMemoTest, ReportsEqualTheUncachedCheck) {
  text::Workspace role = LoadRoleWorkspace();
  auto stockbroker = text::LoadWorkspaceFile(OODBSEC_STOCKBROKER_ODB);
  ASSERT_TRUE(stockbroker.ok()) << stockbroker.status();
  // Each workspace has two distinct (closure, shape) pairs; in the role
  // workspace, clerk1's and clerk2's requirements share one.
  constexpr uint64_t kPairs = 2;
  for (const text::Workspace* workspace : {&role, &stockbroker.value()}) {
    obs::Observability obs;
    core::ClosureCache cache(*workspace->schema, core::ClosureOptions{},
                             core::ClosureCache::kDefaultCapacity, &obs);
    for (const core::Requirement& requirement : workspace->requirements) {
      core::Requirement renamed = requirement;
      for (std::string& name : renamed.arg_names) name += "_renamed";
      auto entry = cache.GetOrBuild(core::AnalysisRoots(
          *workspace->schema, *workspace->users->Find(requirement.user)));
      ASSERT_TRUE(entry.ok()) << entry.status();
      const core::CachedAnalysis& analysis = *entry.value();
      for (const core::Requirement& caller :
           {requirement, requirement, renamed}) {
        SCOPED_TRACE(caller.ToString());
        ExpectSameReport(
            analysis.Check(caller, &obs),
            core::CheckAgainstClosure(*analysis.set, *analysis.closure,
                                      caller));
      }
    }
    const uint64_t calls = 3 * workspace->requirements.size();
    EXPECT_EQ(obs.metrics.counter("analyzer.checks")->value(), kPairs);
    EXPECT_EQ(obs.metrics.counter("analyzer.check_hits")->value(),
              calls - kPairs);
  }
}

// The memo key holds the function, each argument's capability set by
// position, and the return capabilities: on one entry, requirements
// differing in any of them get reports of their own. The six uncached
// reports differ pairwise, so a key that dropped a part would serve one
// of them another's report. Hits record no "check" span.
TEST(CheckMemoTest, KeyHoldsFunctionPositionsAndCapabilities) {
  text::Workspace workspace = LoadRoleWorkspace();
  obs::Observability obs;
  obs.tracer.set_enabled(true);
  core::ClosureCache cache(*workspace.schema, core::ClosureOptions{},
                           core::ClosureCache::kDefaultCapacity, &obs);
  // clerk1's and updater's grants together: both functions have sites.
  auto entry = cache.GetOrBuild(core::AnalysisRoots(
      *workspace.schema,
      std::set<std::string>{"checkBudget", "updateSalary", "w_budget",
                            "w_profit", "r_name"}));
  ASSERT_TRUE(entry.ok()) << entry.status();
  const core::CachedAnalysis& analysis = *entry.value();
  const std::vector<core::Requirement> shapes = {
      Req("(updater, w_salary(a, v : ta))"),
      Req("(updater, w_salary(a : ta, v))"),
      Req("(updater, w_salary(a, v : pa))"),
      Req("(updater, r_salary(x) : ti)"),
      Req("(updater, r_salary(x) : pi)"),
      Req("(updater, r_budget(x) : ti)"),
  };
  std::vector<std::string> bodies;
  for (const core::Requirement& requirement : shapes) {
    auto uncached = core::CheckAgainstClosure(*analysis.set,
                                              *analysis.closure, requirement);
    ASSERT_TRUE(uncached.ok()) << uncached.status();
    for (const std::string& other : bodies) {
      EXPECT_NE(ReportBody(*uncached), other) << requirement.ToString();
    }
    bodies.push_back(ReportBody(*uncached));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::Requirement& requirement : shapes) {
      SCOPED_TRACE(requirement.ToString());
      ExpectSameReport(analysis.Check(requirement, &obs),
                       core::CheckAgainstClosure(
                           *analysis.set, *analysis.closure, requirement));
    }
  }
  EXPECT_EQ(obs.metrics.counter("analyzer.checks")->value(), shapes.size());
  EXPECT_EQ(obs.metrics.counter("analyzer.check_hits")->value(),
            shapes.size());
  size_t check_spans = 0;
  for (const obs::SpanRecord& span : obs.tracer.Snapshot()) {
    check_spans += span.name == "check";
  }
  EXPECT_EQ(check_spans, shapes.size());
}

// Check() is BuildUser plus CheckAgainstClosure, and the session's
// counters see every layer of the pipeline.
TEST(AnalysisSessionTest, CheckMatchesBuildUserAndCounts) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::AnalysisSession session(*workspace.schema, *workspace.users);
  // A second session for the reference builds, so the counters below
  // see only the Check() calls.
  core::AnalysisSession reference(*workspace.schema, *workspace.users);

  for (const core::Requirement& requirement : workspace.requirements) {
    auto via_check = session.Check(requirement);
    auto analysis =
        reference.BuildUser(*reference.FindUser(requirement.user));
    ASSERT_TRUE(analysis.ok()) << analysis.status();
    auto via_build = core::CheckAgainstClosure(
        analysis.value()->set(), analysis.value()->closure(), requirement);
    ASSERT_TRUE(via_check.ok()) << via_check.status();
    ASSERT_TRUE(via_build.ok()) << via_build.status();
    EXPECT_EQ(via_check->ToString(), via_build->ToString());
    EXPECT_EQ(via_check->fact_count, via_build->fact_count);
  }

  EXPECT_EQ(session.metrics().counter("session.checks")->value(), 3u);
  // One closure per check (the session layer does not cache), each with
  // at least one fixpoint round.
  EXPECT_EQ(session.metrics().counter("closure.builds")->value(), 3u);
  EXPECT_GE(session.metrics().counter("closure.fixpoint.rounds")->value(),
            3u);
  EXPECT_EQ(session.metrics().counter("unfold.builds")->value(), 3u);
  EXPECT_EQ(session.metrics().counter("analyzer.checks")->value(), 3u);

  auto missing = session.Check(Req("(ghost, r_salary(x) : ti)"));
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("unknown user 'ghost'"),
            std::string::npos);
}

// Arming the session tracer yields a span tree whose phases nest under
// the per-requirement root: check-requirement -> unfold / closure, and
// closure -> seed / fixpoint (-> rounds) / compress.
TEST(AnalysisSessionTest, TracedCheckProducesNestedPhaseSpans) {
  text::Workspace workspace = LoadRoleWorkspace();
  core::SessionOptions options;
  options.tracing = true;
  core::AnalysisSession session(*workspace.schema, *workspace.users,
                                options);
  ASSERT_TRUE(session.Check(Req("(clerk1, r_salary(x) : ti)")).ok());

  std::vector<obs::SpanRecord> spans = session.tracer().Snapshot();
  auto find = [&](const std::string& name) -> const obs::SpanRecord* {
    for (const obs::SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const obs::SpanRecord* root = find("check-requirement");
  const obs::SpanRecord* unfold = find("unfold");
  const obs::SpanRecord* closure = find("closure");
  const obs::SpanRecord* fixpoint = find("closure.fixpoint");
  const obs::SpanRecord* round = find("closure.fixpoint.round");
  const obs::SpanRecord* check = find("check");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(unfold, nullptr);
  ASSERT_NE(closure, nullptr);
  ASSERT_NE(fixpoint, nullptr);
  ASSERT_NE(round, nullptr);
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(root->parent, obs::kNoSpan);
  EXPECT_EQ(unfold->parent, root->id);
  EXPECT_EQ(closure->parent, root->id);
  EXPECT_EQ(fixpoint->parent, closure->id);
  EXPECT_EQ(round->parent, fixpoint->id);
  EXPECT_EQ(check->parent, root->id);
  // Every span closed, and children start within their parent.
  for (const obs::SpanRecord& span : spans) {
    EXPECT_GE(span.duration_ns, 0) << span.name;
    if (span.parent != obs::kNoSpan) {
      EXPECT_GE(span.start_ns, spans[size_t(span.parent)].start_ns)
          << span.name;
    }
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  core::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitCoversNestedSubmissions) {
  core::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  core::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 25; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 25 * (wave + 1));
  }
}

TEST(ThreadPoolTest, SingleThreadStillDrains) {
  core::ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace oodbsec
