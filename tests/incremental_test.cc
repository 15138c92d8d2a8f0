// Equivalence tests for the incremental closure engine: a warm-started
// closure (seeded from a cached subset's derivation log) must derive
// exactly the same fact set as a cold run over the same roots — compared
// order-insensitively via Closure::FactSetDigest(), since the two take
// different derivation routes — and so must one shrunk by DRed from a
// superset. Covers the stockbroker schema, randomized capability lists
// over the scaled broker schema, the direction the Closure constructor
// infers from its base, the session-level grant/revoke re-audit API,
// and the service's subset and superset reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "closure_test_util.h"
#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

TEST(WarmStartTest, StockbrokerWarmMatchesColdDigest) {
  auto schema = BrokerSchema();
  auto base_set = Unfold(*schema, {"checkBudget", "w_budget"});
  Closure base(*base_set);

  std::vector<std::string> full_roots = {"checkBudget", "r_name",
                                         "updateSalary", "w_budget",
                                         "w_profit"};
  auto cold_set = Unfold(*schema, full_roots);
  Closure cold(*cold_set);
  EXPECT_FALSE(cold.warm_started());

  auto warm_set = Unfold(*schema, full_roots);
  Closure warm(*warm_set, {}, nullptr, &base);
  ASSERT_TRUE(warm.warm_started());
  EXPECT_EQ(warm.replayed_fact_count(), base.fact_count());
  EXPECT_GT(warm.fact_count(), base.fact_count());
  EXPECT_EQ(warm.FactSetDigest(), cold.FactSetDigest());
}

TEST(WarmStartTest, IncrementalGrantChainMatchesCold) {
  // Grant one function at a time, each closure warm-started from the
  // previous one; every step must agree with the cold run of its list.
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget"};
  auto set = Unfold(*schema, roots);
  auto previous = std::make_unique<Closure>(*set);
  for (const char* grant : {"w_budget", "updateSalary", "w_profit"}) {
    roots.push_back(grant);
    std::sort(roots.begin(), roots.end());
    auto next_set = Unfold(*schema, roots);
    auto warm =
        std::make_unique<Closure>(*next_set, ClosureOptions{}, nullptr,
                                  previous.get());
    ASSERT_TRUE(warm->warm_started()) << grant;
    Closure cold(*next_set);
    EXPECT_EQ(warm->FactSetDigest(), cold.FactSetDigest()) << grant;
    previous = std::move(warm);
    // The sets must outlive their closures; keep the latest alive.
    set = std::move(next_set);
  }
}

TEST(WarmStartTest, IncompatibleBaseFallsBackToColdRun) {
  auto schema = BrokerSchema();
  auto base_set = Unfold(*schema, {"checkBudget", "w_budget"});
  Closure base(*base_set);

  // Different options: ignored base.
  auto set1 = Unfold(*schema, {"checkBudget", "updateSalary", "w_budget"});
  ClosureOptions other;
  other.pi_join_to_ti = false;
  Closure fallback1(*set1, other, nullptr, &base);
  EXPECT_FALSE(fallback1.warm_started());

  // A base whose roots strictly contain the new list: the build shrinks
  // it, and the result is the cold fact set.
  auto set2 = Unfold(*schema, {"checkBudget"});
  Closure shrunk(*set2, {}, nullptr, &base);
  EXPECT_TRUE(shrunk.retracted());
  Closure cold2(*set2);
  EXPECT_EQ(shrunk.FactSetDigest(), cold2.FactSetDigest());

  // Neither a subset nor a superset of the base: ignored base, a cold
  // build through and through.
  auto set3 = Unfold(*schema, {"checkBudget", "updateSalary"});
  Closure fallback3(*set3, {}, nullptr, &base);
  EXPECT_FALSE(fallback3.warm_started());
  Closure cold3(*set3);
  EXPECT_EQ(fallback3.FactSetDigest(), cold3.FactSetDigest());
  EXPECT_EQ(fallback3.fact_count(), cold3.fact_count());
}

TEST(WarmStartTest, RandomizedCapabilityListsMatchColdDigest) {
  const int kScale = 3;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> pool = {"r_name"};
  for (int i = 0; i < kScale; ++i) {
    pool.push_back(common::StrCat("checkBudget", i));
    pool.push_back(common::StrCat("updateSalary", i));
    pool.push_back(common::StrCat("w_budget", i));
    pool.push_back(common::StrCat("w_profit", i));
  }
  // Fixed seed: reproducible trials, no flakes.
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 8; ++trial) {
    std::shuffle(pool.begin(), pool.end(), rng);
    size_t base_size = 2 + rng() % (pool.size() - 3);
    size_t extra = 1 + rng() % (pool.size() - base_size);
    std::vector<std::string> base_roots(pool.begin(),
                                        pool.begin() + base_size);
    std::vector<std::string> full_roots(
        pool.begin(), pool.begin() + base_size + extra);
    std::sort(base_roots.begin(), base_roots.end());
    std::sort(full_roots.begin(), full_roots.end());

    auto base_set = Unfold(*schema, base_roots);
    Closure base(*base_set);
    auto warm_set = Unfold(*schema, full_roots);
    Closure warm(*warm_set, {}, nullptr, &base);
    ASSERT_TRUE(warm.warm_started()) << "trial " << trial;
    auto cold_set = Unfold(*schema, full_roots);
    Closure cold(*cold_set);
    EXPECT_EQ(warm.FactSetDigest(), cold.FactSetDigest())
        << "trial " << trial << ": base=" << base_size
        << " full=" << base_size + extra;
  }
}

TEST(WarmStartTest, RootIdRangesAreStableAcrossRootLists) {
  // The unfold invariant warm-start seeding relies on: a root's subtree
  // has the same width and internal offsets no matter which root list
  // contains it, and occupies [first_node_id, body->id].
  auto schema = BrokerSchema();
  auto small = Unfold(*schema, {"updateSalary"});
  auto large = Unfold(*schema, {"checkBudget", "updateSalary", "w_budget"});
  const unfold::Root* in_small = &small->roots()[0];
  const unfold::Root* in_large = nullptr;
  for (const unfold::Root& root : large->roots()) {
    if (root.function_name == "updateSalary") in_large = &root;
  }
  ASSERT_NE(in_large, nullptr);
  ASSERT_EQ(in_small->body->id - in_small->first_node_id,
            in_large->body->id - in_large->first_node_id);
  int offset = in_large->first_node_id - in_small->first_node_id;
  for (int id = in_small->first_node_id; id <= in_small->body->id; ++id) {
    EXPECT_EQ(small->node(id)->kind, large->node(id + offset)->kind);
  }
}

// Builds a schema of one class C with the given int attributes and
// (name, return type, body) functions over one parameter o: C.
std::unique_ptr<schema::Schema> OneClassSchema(
    const std::vector<std::string>& attributes,
    const std::vector<std::array<std::string, 3>>& functions) {
  schema::SchemaBuilder builder;
  std::vector<schema::SchemaBuilder::AttributeSpec> specs;
  for (const std::string& attribute : attributes) {
    specs.push_back({attribute, "int"});
  }
  builder.AddClass("C", std::move(specs));
  for (const auto& [name, result, body] : functions) {
    builder.AddFunction(name, {{"o", "C"}}, result, body);
  }
  auto built = std::move(builder).Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

TEST(WarmStartTest, GrowKeepsEveryPiStarPairOfAColdBuild) {
  // A grow replays pi* facts without processing them, so the replayed
  // tables alone must answer every pi* premise a cold build answers.
  auto schema = OneClassSchema(
      {"a0", "a1", "a2"},
      {{"f", "bool", "abs(r_a1(o)) * (r_a0(o) % 9) > r_a2(o)"}});
  auto base_set = Unfold(*schema, {"f"});
  Closure base(*base_set);
  auto grown_set = Unfold(*schema, {"f", "w_a0"});
  Closure grown(*grown_set, {}, nullptr, &base);
  ASSERT_TRUE(grown.warm_started());
  ASSERT_FALSE(grown.retracted());
  auto cold_set = Unfold(*schema, {"f", "w_a0"});
  Closure cold(*cold_set);
  EXPECT_EQ(grown.FactSetDigest(), cold.FactSetDigest());
}

TEST(ClosureCacheTest, GetOrBuildPrefersWarmAndCountsStats) {
  auto schema = BrokerSchema();
  ClosureCache cache(*schema, {}, /*capacity=*/4);

  auto base = cache.GetOrBuild({"checkBudget", "w_budget"});
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_FALSE(base.value()->closure->warm_started());
  EXPECT_EQ(cache.stats().cold_builds, 1u);

  auto bigger =
      cache.GetOrBuild({"checkBudget", "updateSalary", "w_budget"});
  ASSERT_TRUE(bigger.ok());
  EXPECT_TRUE(bigger.value()->closure->warm_started());
  EXPECT_EQ(cache.stats().warm_builds, 1u);

  // Exact repeat: served from cache, no new build.
  auto again =
      cache.GetOrBuild({"checkBudget", "updateSalary", "w_budget"});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), bigger.value().get());
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ClosureCacheTest, LruEvictionKeepsSharedEntriesAlive) {
  auto schema = BrokerSchema();
  ClosureCache cache(*schema, {}, /*capacity=*/2);
  auto first = cache.GetOrBuild({"checkBudget"});
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const CachedAnalysis> pinned = first.value();
  ASSERT_TRUE(cache.GetOrBuild({"updateSalary"}).ok());
  ASSERT_TRUE(cache.GetOrBuild({"w_budget"}).ok());  // evicts {checkBudget}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The evicted entry stays valid for its holder...
  EXPECT_GT(pinned->closure->fact_count(), 0u);
  // ...and a re-request rebuilds rather than hitting the cache.
  auto rebuilt = cache.GetOrBuild({"checkBudget"});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt.value().get(), pinned.get());
  EXPECT_EQ(rebuilt.value()->closure->FactSetDigest(),
            pinned->closure->FactSetDigest());
}

// --- session grant/revoke re-audit ---

std::unique_ptr<schema::UserRegistry> BrokerUsers(
    const schema::Schema& schema) {
  auto users = std::make_unique<schema::UserRegistry>(schema);
  EXPECT_TRUE(users->AddUser("clerk").ok());
  EXPECT_TRUE(users->Grant("clerk", "checkBudget").ok());
  return users;
}

Requirement SalaryRequirement() {
  auto requirement =
      ParseRequirementString("(clerk, r_salary(x) : ti)");
  EXPECT_TRUE(requirement.ok()) << requirement.status();
  return std::move(requirement).value();
}

TEST(SessionRecheckTest, GrantExtendsIncrementallyAndMatchesCold) {
  auto schema = BrokerSchema();
  auto users = BrokerUsers(*schema);
  AnalysisSession session(*schema, *users);

  // With checkBudget alone, the salary requirement holds.
  std::vector<Requirement> reqs = {SalaryRequirement()};
  auto before = session.RecheckRequirements(reqs);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_TRUE(before.value()[0].satisfied);
  EXPECT_EQ(session.recheck_cache().stats().cold_builds, 1u);

  // Granting w_budget opens the Figure-1 flaw; the re-audit closure is
  // warm-started from the cached {checkBudget,...} entry.
  ASSERT_TRUE(session.AddCapability("clerk", "w_budget").ok());
  auto after = session.RecheckRequirements(reqs);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after.value()[0].satisfied);
  EXPECT_EQ(session.recheck_cache().stats().warm_builds, 1u);

  // The registry itself was never mutated.
  EXPECT_FALSE(users->Find("clerk")->MayInvoke("w_budget"));

  // Verdict and flaw sites agree with a cold one-shot check of the same
  // capability state.
  auto fresh_users = BrokerUsers(*schema);
  ASSERT_TRUE(fresh_users->Grant("clerk", "w_budget").ok());
  auto cold = AnalysisSession(*schema, *fresh_users).Check(reqs[0]);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_EQ(after.value()[0].flaws.size(), cold.value().flaws.size());
  for (size_t i = 0; i < cold.value().flaws.size(); ++i) {
    EXPECT_EQ(after.value()[0].flaws[i].site_id,
              cold.value().flaws[i].site_id);
    EXPECT_EQ(after.value()[0].flaws[i].description,
              cold.value().flaws[i].description);
  }
}

TEST(SessionRecheckTest, RevokeThenRegrantReturnsToCachedFactSet) {
  auto schema = BrokerSchema();
  auto users = BrokerUsers(*schema);
  AnalysisSession session(*schema, *users);
  std::vector<Requirement> reqs = {SalaryRequirement()};

  // Cache the pre-grant state first, so the revoke below can return to
  // it without a rebuild.
  ASSERT_TRUE(session.RecheckRequirements(reqs).ok());

  ASSERT_TRUE(session.AddCapability("clerk", "w_budget").ok());
  auto granted = session.RecheckRequirements(reqs);
  ASSERT_TRUE(granted.ok());
  EXPECT_FALSE(granted.value()[0].satisfied);

  // Revoke: the pre-grant closure is still cached — exact hit, no new
  // build — and the flaw disappears again.
  ASSERT_TRUE(session.RemoveCapability("clerk", "w_budget").ok());
  uint64_t builds_before = session.recheck_cache().stats().cold_builds +
                           session.recheck_cache().stats().warm_builds;
  auto revoked = session.RecheckRequirements(reqs);
  ASSERT_TRUE(revoked.ok());
  EXPECT_TRUE(revoked.value()[0].satisfied);
  EXPECT_EQ(session.recheck_cache().stats().cold_builds +
                session.recheck_cache().stats().warm_builds,
            builds_before);

  // Re-grant: back to the cached superset entry, same verdict as the
  // first granted run.
  ASSERT_TRUE(session.AddCapability("clerk", "w_budget").ok());
  auto regranted = session.RecheckRequirements(reqs);
  ASSERT_TRUE(regranted.ok());
  EXPECT_FALSE(regranted.value()[0].satisfied);
  EXPECT_EQ(session.recheck_cache().stats().exact_hits, 2u);

  // Error paths: unknown users and non-held capabilities are rejected.
  EXPECT_FALSE(session.AddCapability("nobody", "w_budget").ok());
  EXPECT_FALSE(session.AddCapability("clerk", "no_such_function").ok());
  EXPECT_FALSE(session.RemoveCapability("clerk", "updateSalary").ok());
}

TEST(ServiceSubsetReuseTest, WarmStartsAndAgreesOnVerdicts) {
  auto schema = BrokerSchema();
  auto users = std::make_unique<schema::UserRegistry>(*schema);
  ASSERT_TRUE(users->AddUser("clerk").ok());
  ASSERT_TRUE(users->Grant("clerk", "checkBudget").ok());
  ASSERT_TRUE(users->AddUser("senior").ok());
  ASSERT_TRUE(users->Grant("senior", "checkBudget").ok());
  ASSERT_TRUE(users->Grant("senior", "w_budget").ok());

  auto clerk_req = ParseRequirementString("(clerk, r_salary(x) : ti)");
  auto senior_req = ParseRequirementString("(senior, r_salary(x) : ti)");
  ASSERT_TRUE(clerk_req.ok() && senior_req.ok());

  SessionOptions session_options;
  session_options.threads = 2;
  AnalysisSession session(*schema, *users, session_options);
  service::AnalysisService warm_service(session);
  // Clerk's batch caches the subset bundle; senior's bundle in the next
  // batch is a strict superset of it, so its closure warm-starts.
  // (Within a single batch, subset pairing happens against the cache as
  // of the plan phase, so cross-batch is where reuse shows up.)
  auto first = warm_service.CheckBatch({clerk_req.value()});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(warm_service.Stats().warm_starts, 0u);
  auto second = warm_service.CheckBatch({senior_req.value()});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(warm_service.Stats().closures_built, 2u);
  EXPECT_EQ(warm_service.Stats().warm_starts, 1u);
  std::vector<core::AnalysisReport> batch_reports;
  batch_reports.push_back(std::move(first).value()[0]);
  batch_reports.push_back(std::move(second).value()[0]);
  EXPECT_TRUE(batch_reports[0].satisfied);
  EXPECT_FALSE(batch_reports[1].satisfied);

  // Same verdicts as sequential cold checks.
  auto cold_clerk = session.Check(clerk_req.value());
  auto cold_senior = session.Check(senior_req.value());
  ASSERT_TRUE(cold_clerk.ok() && cold_senior.ok());
  EXPECT_EQ(batch_reports[0].satisfied, cold_clerk.value().satisfied);
  EXPECT_EQ(batch_reports[1].satisfied, cold_senior.value().satisfied);
  ASSERT_EQ(batch_reports[1].flaws.size(),
            cold_senior.value().flaws.size());
  for (size_t i = 0; i < cold_senior.value().flaws.size(); ++i) {
    EXPECT_EQ(batch_reports[1].flaws[i].site_id,
              cold_senior.value().flaws[i].site_id);
  }
}

// --- DRed retraction ---

TEST(RetractTest, SingleRevokeMatchesColdDigest) {
  // Retracting each root in turn from the full broker bundle must land
  // on exactly the cold fact set of the reduced list.
  auto schema = BrokerSchema();
  std::vector<std::string> full_roots = {"checkBudget", "r_name",
                                         "updateSalary", "w_budget",
                                         "w_profit"};
  auto base_set = Unfold(*schema, full_roots);
  Closure base(*base_set);

  for (const std::string& revoked : full_roots) {
    std::vector<std::string> reduced;
    for (const std::string& root : full_roots) {
      if (root != revoked) reduced.push_back(root);
    }
    auto reduced_set = Unfold(*schema, reduced);
    Closure shrunk(*reduced_set, {}, nullptr, &base);
    EXPECT_TRUE(shrunk.retracted()) << revoked;
    EXPECT_TRUE(shrunk.warm_started()) << revoked;
    EXPECT_GT(shrunk.retracted_fact_count(), 0u) << revoked;
    EXPECT_EQ(shrunk.replayed_fact_count() + shrunk.rederived_fact_count(),
              shrunk.fact_count())
        << revoked;
    Closure cold(*reduced_set);
    EXPECT_EQ(shrunk.FactSetDigest(), cold.FactSetDigest()) << revoked;
  }
}

TEST(RetractTest, ShrinkKeepsEveryPiStarPairOfAColdBuild) {
  // A shrink rebuilds the pi* components from the surviving base pairs
  // only; every pair a cold build derives must come back, including
  // those whose support ran through pairs the replay never processes.
  auto schema = OneClassSchema(
      {"a1", "a2", "a4"}, {{"f3", "bool", "r_a4(o) >= r_a2(o)"},
                           {"f5", "int", "r_a1(o)"},
                           {"f9", "int", "8 % f5(o) + r_a2(o) % f5(o)"}});
  auto base_set = Unfold(*schema, {"f3", "f9", "w_a1", "w_a4"});
  Closure base(*base_set);
  auto shrunk_set = Unfold(*schema, {"f3", "w_a1", "w_a4"});
  Closure shrunk(*shrunk_set, {}, nullptr, &base);
  ASSERT_TRUE(shrunk.retracted());
  auto cold_set = Unfold(*schema, {"f3", "w_a1", "w_a4"});
  Closure cold(*cold_set);
  EXPECT_EQ(shrunk.FactSetDigest(), cold.FactSetDigest());
}

TEST(RetractTest, RevokeThenRegrantMatchesCold) {
  // Shrink by retraction, then grow back by warm-start from the shrunk
  // closure: both hops must agree with cold runs of their lists.
  auto schema = BrokerSchema();
  std::vector<std::string> full_roots = {"checkBudget", "updateSalary",
                                         "w_budget", "w_profit"};
  std::vector<std::string> reduced = {"checkBudget", "updateSalary",
                                      "w_profit"};
  auto full_set = Unfold(*schema, full_roots);
  Closure base(*full_set);

  auto reduced_set = Unfold(*schema, reduced);
  Closure shrunk(*reduced_set, {}, nullptr, &base);
  ASSERT_TRUE(shrunk.retracted());
  Closure cold_reduced(*reduced_set);
  EXPECT_EQ(shrunk.FactSetDigest(), cold_reduced.FactSetDigest());

  auto regrown_set = Unfold(*schema, full_roots);
  Closure regrown(*regrown_set, {}, nullptr, &shrunk);
  ASSERT_TRUE(regrown.warm_started());
  EXPECT_FALSE(regrown.retracted());
  EXPECT_EQ(regrown.FactSetDigest(), base.FactSetDigest());
}

TEST(RetractTest, MultiRootDepartmentRevokeMatchesCold) {
  // Revoking a whole department (four roots at once) from the scaled
  // schema exercises multi-root cones and cross-department equalities.
  const int kScale = 3;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> full_roots = {"r_name"};
  for (int i = 0; i < kScale; ++i) {
    full_roots.push_back(common::StrCat("checkBudget", i));
    full_roots.push_back(common::StrCat("updateSalary", i));
    full_roots.push_back(common::StrCat("w_budget", i));
    full_roots.push_back(common::StrCat("w_profit", i));
  }
  auto base_set = Unfold(*schema, full_roots);
  Closure base(*base_set);

  std::vector<std::string> reduced;
  for (const std::string& root : full_roots) {
    if (root.find('1') == std::string::npos) reduced.push_back(root);
  }
  ASSERT_EQ(reduced.size(), full_roots.size() - 4);
  auto reduced_set = Unfold(*schema, reduced);
  Closure shrunk(*reduced_set, {}, nullptr, &base);
  ASSERT_TRUE(shrunk.retracted());
  Closure cold(*reduced_set);
  EXPECT_EQ(shrunk.FactSetDigest(), cold.FactSetDigest());
}

TEST(RetractTest, IncompatibleBaseBuildsCold) {
  auto schema = BrokerSchema();
  auto base_set = Unfold(*schema, {"checkBudget", "w_budget"});
  Closure base(*base_set);

  // Different options: the base's log is not valid under them, so a
  // list the base strictly contains still builds cold.
  ClosureOptions other;
  other.pi_join_to_ti = false;
  auto reduced_set = Unfold(*schema, {"checkBudget"});
  Closure mismatched(*reduced_set, other, nullptr, &base);
  EXPECT_FALSE(mismatched.warm_started());
  Closure cold_reduced(*reduced_set, other);
  EXPECT_EQ(mismatched.FactSetDigest(), cold_reduced.FactSetDigest());
  EXPECT_EQ(mismatched.fact_count(), cold_reduced.fact_count());

  // A root the base never held: not a shrink of the base at all.
  auto foreign_set = Unfold(*schema, {"checkBudget", "updateSalary"});
  Closure foreign(*foreign_set, {}, nullptr, &base);
  EXPECT_FALSE(foreign.warm_started());
  Closure cold_foreign(*foreign_set);
  EXPECT_EQ(foreign.FactSetDigest(), cold_foreign.FactSetDigest());
  EXPECT_EQ(foreign.fact_count(), cold_foreign.fact_count());
}

TEST(ClosureCacheTest, GetOrBuildRetractsFromSupersetAndCountsStats) {
  auto schema = BrokerSchema();
  ClosureCache cache(*schema, {}, /*capacity=*/4);

  auto super =
      cache.GetOrBuild({"checkBudget", "updateSalary", "w_budget"});
  ASSERT_TRUE(super.ok()) << super.status();
  EXPECT_EQ(cache.stats().cold_builds, 1u);

  // A proper subset with enough overlap shrinks the cached superset
  // instead of building cold.
  auto shrunk = cache.GetOrBuild({"checkBudget", "w_budget"});
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_TRUE(shrunk.value()->closure->retracted());
  EXPECT_EQ(cache.stats().retract_builds, 1u);
  EXPECT_EQ(cache.stats().cold_builds, 1u);

  auto cold_set = Unfold(*schema, {"checkBudget", "w_budget"});
  Closure cold(*cold_set);
  EXPECT_EQ(shrunk.value()->closure->FactSetDigest(), cold.FactSetDigest());

  // The shrunk list is now resident: an exact repeat hits it.
  auto again = cache.GetOrBuild({"checkBudget", "w_budget"});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), shrunk.value().get());
  EXPECT_EQ(cache.stats().exact_hits, 1u);
}

TEST(SessionRecheckTest, RevokeUsesRetractionFastPath) {
  auto schema = BrokerSchema();
  auto users = BrokerUsers(*schema);
  AnalysisSession session(*schema, *users);
  std::vector<Requirement> reqs = {SalaryRequirement()};

  // Cache only the granted state, so the pre-grant list is NOT resident
  // and the revoke must genuinely retract rather than find it cached.
  ASSERT_TRUE(session.AddCapability("clerk", "w_budget").ok());
  auto granted = session.RecheckRequirements(reqs);
  ASSERT_TRUE(granted.ok());
  EXPECT_FALSE(granted.value()[0].satisfied);
  EXPECT_EQ(session.recheck_cache().stats().cold_builds, 1u);

  ASSERT_TRUE(session.RemoveCapability("clerk", "w_budget").ok());
  EXPECT_EQ(session.recheck_cache().stats().retract_builds, 1u);
  EXPECT_EQ(session.metrics().counter("session.retractions_fast")->value(),
            1);
  EXPECT_EQ(
      session.metrics().counter("session.retractions_fallback")->value(), 0);

  // The retracted entry serves the re-audit as an exact hit: no new
  // build of any kind, and the flaw is gone.
  auto revoked = session.RecheckRequirements(reqs);
  ASSERT_TRUE(revoked.ok());
  EXPECT_TRUE(revoked.value()[0].satisfied);
  EXPECT_EQ(session.recheck_cache().stats().cold_builds, 1u);
  EXPECT_EQ(session.recheck_cache().stats().warm_builds, 0u);
  EXPECT_GE(session.recheck_cache().stats().exact_hits, 1u);

  // A revoke whose pre-revoke closure was never built AND whose
  // post-revoke state is not cached either falls back: the next recheck
  // pays the ordinary build. (Revoking back onto a cached state — e.g.
  // straight down to {checkBudget} — would count as fast instead.)
  ASSERT_TRUE(session.AddCapability("clerk", "updateSalary").ok());
  ASSERT_TRUE(session.AddCapability("clerk", "w_budget").ok());
  ASSERT_TRUE(session.RemoveCapability("clerk", "w_budget").ok());
  EXPECT_EQ(
      session.metrics().counter("session.retractions_fallback")->value(), 1);
}

TEST(ServiceRetractTest, SubsetRequestRetractsFromCachedSuperset) {
  auto schema = BrokerSchema();
  auto users = std::make_unique<schema::UserRegistry>(*schema);
  ASSERT_TRUE(users->AddUser("clerk").ok());
  ASSERT_TRUE(users->Grant("clerk", "checkBudget").ok());
  ASSERT_TRUE(users->AddUser("senior").ok());
  ASSERT_TRUE(users->Grant("senior", "checkBudget").ok());
  ASSERT_TRUE(users->Grant("senior", "w_budget").ok());

  auto clerk_req = ParseRequirementString("(clerk, r_salary(x) : ti)");
  auto senior_req = ParseRequirementString("(senior, r_salary(x) : ti)");
  ASSERT_TRUE(clerk_req.ok() && senior_req.ok());

  SessionOptions session_options;
  session_options.threads = 2;
  AnalysisSession session(*schema, *users, session_options);
  service::AnalysisService service(session);
  // Senior's bundle goes in first; clerk's is then a proper subset of a
  // cached entry, so its closure is built by retraction, not cold.
  auto first = service.CheckBatch({senior_req.value()});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first.value()[0].satisfied);
  auto second = service.CheckBatch({clerk_req.value()});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second.value()[0].satisfied);
  EXPECT_EQ(service.Stats().closures_built, 2u);
  EXPECT_EQ(service.Stats().retract_builds, 1u);
  EXPECT_EQ(service.Stats().warm_starts, 0u);

  // Same verdict as a sequential cold check.
  auto cold_clerk = session.Check(clerk_req.value());
  ASSERT_TRUE(cold_clerk.ok());
  EXPECT_EQ(second.value()[0].satisfied, cold_clerk.value().satisfied);
}

// --- randomized churn (the retraction correctness gate) ---

// Cache-level churn: three simulated users' capability sets evolve by
// interleaved grant/revoke/regrant; every revoke goes through the
// retraction path (RetractEntry, falling back to GetOrBuild), every
// grant through GetOrBuild, and after EVERY op the served closure's
// digest must equal a cold rebuild of that exact root list.
TEST(RetractTest, RandomizedChurnMatchesColdDigestEveryStep) {
  const int kScale = 3;
  const int kOps = 220;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> pool = {"r_name"};
  for (int i = 0; i < kScale; ++i) {
    pool.push_back(common::StrCat("checkBudget", i));
    pool.push_back(common::StrCat("updateSalary", i));
    pool.push_back(common::StrCat("w_budget", i));
    pool.push_back(common::StrCat("w_profit", i));
  }

  ClosureCache cache(*schema, {}, /*capacity=*/16);
  // Three users with overlapping starting bundles.
  std::vector<std::vector<std::string>> held(3);
  held[0] = {"checkBudget0", "r_name", "w_budget0"};
  held[1] = {"checkBudget1", "updateSalary1", "w_profit1"};
  held[2] = {"checkBudget0", "checkBudget2", "r_name"};

  // Fixed seed: reproducible, no flakes.
  std::mt19937 rng(20260807);
  for (int op = 0; op < kOps; ++op) {
    size_t user = rng() % held.size();
    std::vector<std::string>& caps = held[user];
    std::vector<std::string> old_roots = caps;

    std::vector<std::string> absent;
    for (const std::string& fn : pool) {
      if (std::find(caps.begin(), caps.end(), fn) == caps.end()) {
        absent.push_back(fn);
      }
    }
    bool revoke = caps.size() > 1 && (absent.empty() || rng() % 2 == 0);
    if (revoke) {
      caps.erase(caps.begin() + static_cast<long>(rng() % caps.size()));
    } else {
      caps.push_back(absent[rng() % absent.size()]);
      std::sort(caps.begin(), caps.end());
    }

    std::shared_ptr<const CachedAnalysis> entry;
    if (revoke) {
      entry = cache.RetractEntry(old_roots, caps);
      if (entry == nullptr) {
        auto built = cache.GetOrBuild(caps);
        ASSERT_TRUE(built.ok()) << built.status();
        entry = built.value();
      }
    } else {
      auto built = cache.GetOrBuild(caps);
      ASSERT_TRUE(built.ok()) << built.status();
      entry = built.value();
    }

    auto cold_set = Unfold(*schema, caps);
    Closure cold(*cold_set);
    ASSERT_EQ(entry->closure->FactSetDigest(), cold.FactSetDigest())
        << "op " << op << " user " << user
        << (revoke ? " revoke" : " grant")
        << " roots=" << common::Join(caps, ",")
        << " retracted=" << entry->closure->retracted()
        << " warm=" << entry->closure->warm_started();
  }
  // The churn must actually have exercised retraction.
  EXPECT_GT(cache.stats().retract_builds, 0u);
}

// Session-level churn: the same interleaving through the public
// grant/revoke API, checking verdict agreement with a cold one-shot
// check after every op, plus the revoke accounting invariant.
TEST(SessionRecheckTest, RandomizedChurnAgreesWithColdChecks) {
  auto schema = BrokerSchema();
  std::vector<std::string> pool = {"checkBudget", "updateSalary",
                                   "w_budget", "w_profit"};
  auto users = std::make_unique<schema::UserRegistry>(*schema);
  std::vector<std::string> names = {"u0", "u1", "u2"};
  std::vector<std::vector<std::string>> held(names.size());
  for (size_t u = 0; u < names.size(); ++u) {
    ASSERT_TRUE(users->AddUser(names[u]).ok());
    ASSERT_TRUE(users->Grant(names[u], "checkBudget").ok());
    held[u] = {"checkBudget"};
  }
  AnalysisSession session(*schema, *users);

  std::mt19937 rng(20260808);
  for (int op = 0; op < 90; ++op) {
    size_t u = rng() % names.size();
    std::vector<std::string>& caps = held[u];
    std::vector<std::string> absent;
    for (const std::string& fn : pool) {
      if (std::find(caps.begin(), caps.end(), fn) == caps.end()) {
        absent.push_back(fn);
      }
    }
    bool revoke = caps.size() > 1 && (absent.empty() || rng() % 2 == 0);
    if (revoke) {
      size_t victim = rng() % caps.size();
      ASSERT_TRUE(
          session.RemoveCapability(names[u], caps[victim]).ok());
      caps.erase(caps.begin() + static_cast<long>(victim));
    } else {
      const std::string& granted = absent[rng() % absent.size()];
      ASSERT_TRUE(session.AddCapability(names[u], granted).ok());
      caps.push_back(granted);
    }

    auto req = ParseRequirementString(
        common::StrCat("(", names[u], ", r_salary(x) : ti)"));
    ASSERT_TRUE(req.ok());
    auto incremental = session.RecheckRequirements({req.value()});
    ASSERT_TRUE(incremental.ok()) << incremental.status();

    auto mirror = std::make_unique<schema::UserRegistry>(*schema);
    ASSERT_TRUE(mirror->AddUser(names[u]).ok());
    for (const std::string& cap : caps) {
      ASSERT_TRUE(mirror->Grant(names[u], cap).ok());
    }
    auto cold = AnalysisSession(*schema, *mirror).Check(req.value());
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_EQ(incremental.value()[0].satisfied, cold.value().satisfied)
        << "op " << op << " user " << names[u];
    ASSERT_EQ(incremental.value()[0].flaws.size(),
              cold.value().flaws.size())
        << "op " << op;
    for (size_t f = 0; f < cold.value().flaws.size(); ++f) {
      EXPECT_EQ(incremental.value()[0].flaws[f].site_id,
                cold.value().flaws[f].site_id);
    }
  }

  // Every revoke resolved to exactly one of the two retraction
  // outcomes, and the fast path genuinely fired.
  obs::MetricsRegistry& metrics = session.metrics();
  EXPECT_EQ(metrics.counter("session.revokes")->value(),
            metrics.counter("session.retractions_fast")->value() +
                metrics.counter("session.retractions_fallback")->value());
  EXPECT_GT(metrics.counter("session.retractions_fast")->value(), 0);
}

}  // namespace
}  // namespace oodbsec::core
