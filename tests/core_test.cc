// Tests for the core analysis: capabilities, requirements, the F(F)
// closure (paper Table 2), and algorithm A(R) — including the paper's
// two worked flaws (§3.1) and the Figure 1 derivation.
#include <gtest/gtest.h>

#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/capability.h"
#include "core/closure.h"
#include "core/requirement.h"
#include "schema/user.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

TEST(CapabilityTest, NamesAndParsing) {
  EXPECT_EQ(CapabilityName(Capability::kTotalInferability), "ti");
  EXPECT_EQ(CapabilityName(Capability::kPartialAlterability), "pa");
  EXPECT_EQ(ParseCapability("ti"), Capability::kTotalInferability);
  EXPECT_EQ(ParseCapability("pi"), Capability::kPartialInferability);
  EXPECT_EQ(ParseCapability("ta"), Capability::kTotalAlterability);
  EXPECT_EQ(ParseCapability("pa"), Capability::kPartialAlterability);
  EXPECT_EQ(ParseCapability("xx"), std::nullopt);
}

TEST(CapabilityTest, Implications) {
  EXPECT_TRUE(Implies(Capability::kTotalInferability,
                      Capability::kPartialInferability));
  EXPECT_TRUE(Implies(Capability::kTotalAlterability,
                      Capability::kPartialAlterability));
  EXPECT_FALSE(Implies(Capability::kPartialInferability,
                       Capability::kTotalInferability));
  EXPECT_FALSE(Implies(Capability::kTotalInferability,
                       Capability::kTotalAlterability));
  EXPECT_TRUE(IsInferability(Capability::kPartialInferability));
  EXPECT_TRUE(IsAlterability(Capability::kTotalAlterability));
}

TEST(RequirementTest, ParsesPaperExamples) {
  auto r1 = ParseRequirementString("(u, r_salary(x) : ti)");
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->user, "u");
  EXPECT_EQ(r1->function, "r_salary");
  ASSERT_EQ(r1->arg_caps.size(), 1u);
  EXPECT_TRUE(r1->arg_caps[0].empty());
  EXPECT_EQ(r1->return_caps,
            (std::set<Capability>{Capability::kTotalInferability}));

  auto r2 = ParseRequirementString("(u, w_salary(a, v : pa))");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->function, "w_salary");
  ASSERT_EQ(r2->arg_caps.size(), 2u);
  EXPECT_TRUE(r2->arg_caps[0].empty());
  EXPECT_EQ(r2->arg_caps[1],
            (std::set<Capability>{Capability::kPartialAlterability}));
  EXPECT_TRUE(r2->return_caps.empty());
}

TEST(RequirementTest, MultipleCapsAndRoundTrip) {
  auto r = ParseRequirementString("(u, f(x : ti : pa, y) : pi : ta)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->capability_count(), 4u);
  auto round = ParseRequirementString(r->ToString());
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->ToString(), r->ToString());
}

TEST(RequirementTest, Errors) {
  EXPECT_FALSE(ParseRequirementString("").ok());
  EXPECT_FALSE(ParseRequirementString("(u)").ok());
  EXPECT_FALSE(ParseRequirementString("(u, f(x : zz))").ok());
  EXPECT_FALSE(ParseRequirementString("(u, f(x))").ok());  // vacuous
  EXPECT_FALSE(ParseRequirementString("(u, f(x) : ti) extra").ok());
}

// --- Closure tests against the paper's running example ---

std::unique_ptr<schema::Schema> BrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"}});
  builder.AddFunction("checkBudget", {{"broker", "Broker"}}, "bool",
                      ">=(r_budget(broker), *(10, r_salary(broker)))");
  builder.AddFunction("calcSalary", {{"budget", "int"}, {"profit", "int"}},
                      "int", "budget / 10 + profit / 2");
  builder.AddFunction(
      "updateSalary", {{"broker", "Broker"}}, "null",
      "w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

// Figure 1 / §4.2: F = {checkBudget, w_budget} derives total
// inferability on 5:r_salary(4:broker).
TEST(ClosureTest, Figure1DerivesSalaryInferability) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());

  // The key conclusions of Figure 1:
  EXPECT_TRUE(closure.AreEqual(8, 1));  // =[8:o, 1:broker]
  EXPECT_TRUE(closure.AreEqual(9, 2));  // =[9:v, 2:r_budget(broker)]
  EXPECT_TRUE(closure.HasTi(2));        // ti[2:r_budget(broker)]
  EXPECT_TRUE(closure.HasPa(2));        // pa[2:r_budget(broker)]
  EXPECT_TRUE(closure.HasTi(7));        // ti[7:>=(...)] (observed result)
  EXPECT_TRUE(closure.HasTi(6));        // ti[6:*(10, r_salary(broker))]
  EXPECT_TRUE(closure.HasTi(5));        // ti[5:r_salary(broker)]  -- FLAW

  // The derivation is printable and names the leaked read.
  std::string derivation = closure.ExplainFact(closure.TiFact(5));
  EXPECT_NE(derivation.find("r_salary"), std::string::npos) << derivation;
  EXPECT_NE(derivation.find("axiom"), std::string::npos);
}

// Without w_budget the clerk cannot infer the salary: checkBudget alone
// must not derive ti on the salary read.
TEST(ClosureTest, CheckBudgetAloneDoesNotLeakSalaryTotally) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());
  EXPECT_FALSE(closure.HasTi(5));  // 5:r_salary(broker) stays protected
  EXPECT_FALSE(closure.HasPi(5));  // not even partially (budget unknown)
  // The comparison outcome itself is observed.
  EXPECT_TRUE(closure.HasTi(7));
  // Pessimism note (§4.1): the budget side is flagged as totally
  // inferable through the `10 may be 0' absorbing rule for * plus the
  // probe rule — a documented false positive of the paper's rule set.
  EXPECT_TRUE(closure.HasTi(2));
}

// Granting r_budget realizes the paper's §1 narrative: "if that clerk
// can know the amount of the budget of some broker, he can know a
// little about the salary of that broker".
TEST(ClosureTest, KnownBudgetLeaksSalaryPartially) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "r_budget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());
  EXPECT_TRUE(closure.HasPi(5));  // partial leak on 5:r_salary(broker)
  // Pessimism: the analyzer even claims a total leak — it credits the
  // user with probing the comparison by perturbing the budget read via
  // object choice, without tracking that switching brokers perturbs the
  // salary too. A documented false positive (S2 experiment); the true
  // capability without w_budget is the partial leak above.
  EXPECT_TRUE(closure.HasTi(5));
}

// Alterability flow for updateSalary: pa on budget propagates through
// calcSalary into the written salary value (paper §3.1, second flaw).
TEST(ClosureTest, UpdateSalaryAlterabilityFlow) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"updateSalary", "w_budget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());

  // Node ids (see unfold_test): 3:r_budget(broker), 13:let(calcSalary),
  // 14:w_salary(broker, 13).
  EXPECT_TRUE(closure.HasPa(3));   // the read budget is alterable
  EXPECT_TRUE(closure.HasTa(3));   // in fact totally (w_budget grants ta)
  EXPECT_TRUE(closure.HasPa(13));  // ... through calcSalary
  const unfold::Node* write = set.value()->node(14);
  ASSERT_EQ(write->kind, unfold::NodeKind::kWriteAttr);
  EXPECT_TRUE(closure.HasPa(write->value_child()->id));
}

TEST(ClosureTest, UpdateSalaryAloneGivesOnlyPartialAlterability) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"updateSalary"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());
  // Choosing a different broker perturbs the budget read (node 3) and
  // thus the written value — but only partially...
  EXPECT_TRUE(closure.HasPa(3));
  EXPECT_TRUE(closure.HasPa(set.value()->node(14)->value_child()->id));
  // ...total control needs w_budget (the paper's §3.1 contrast).
  EXPECT_FALSE(closure.HasTa(3));
  EXPECT_FALSE(closure.HasTa(set.value()->node(14)->value_child()->id));
}

TEST(ClosureTest, ReadObjectTotalAlterabilityOption) {
  // Under the exists-D reading, object choice yields total alterability.
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"updateSalary"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.read_object_total_alterability = true;
  Closure closure(*set.value(), options);
  EXPECT_TRUE(closure.HasTa(3));
}

TEST(ClosureTest, AblationSameTypeEqualityBreaksFigure1) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.same_type_argument_equality = false;
  Closure closure(*set.value(), options);
  // Without the pessimistic equality axiom the analysis cannot connect
  // w_budget's object to checkBudget's broker, so the flaw is missed.
  EXPECT_FALSE(closure.AreEqual(8, 1));
  EXPECT_FALSE(closure.HasTi(5));
}

TEST(ClosureTest, AblationBasicRulesBreaksFigure1) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.basic_function_rules = false;
  Closure closure(*set.value(), options);
  EXPECT_FALSE(closure.HasTi(5));
}

TEST(ClosureTest, AblationWriteReadEqualityBreaksFigure1) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.write_read_equality = false;
  Closure closure(*set.value(), options);
  EXPECT_FALSE(closure.AreEqual(9, 2));
  EXPECT_FALSE(closure.HasTi(5));
}

// --- A(R) end to end ---

struct BrokerWorld {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<schema::UserRegistry> users;
  // Borrows the two above; sees users added after construction.
  std::unique_ptr<AnalysisSession> session;
};

BrokerWorld MakeBrokerWorld() {
  BrokerWorld world;
  world.schema = BrokerSchema();
  world.users = std::make_unique<schema::UserRegistry>(*world.schema);
  EXPECT_TRUE(world.users->AddUser("clerk").ok());
  EXPECT_TRUE(world.users->Grant("clerk", "checkBudget").ok());
  EXPECT_TRUE(world.users->Grant("clerk", "w_budget").ok());
  EXPECT_TRUE(world.users->AddUser("auditor").ok());
  EXPECT_TRUE(world.users->Grant("auditor", "checkBudget").ok());
  EXPECT_TRUE(world.users->AddUser("updater").ok());
  EXPECT_TRUE(world.users->Grant("updater", "updateSalary").ok());
  EXPECT_TRUE(world.users->Grant("updater", "w_budget").ok());
  world.session =
      std::make_unique<AnalysisSession>(*world.schema, *world.users);
  return world;
}

TEST(AnalyzerTest, DetectsPaperFlaw1) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement = ParseRequirementString("(clerk, r_salary(x) : ti)");
  ASSERT_TRUE(requirement.ok());
  auto report = world.session->Check(requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
  ASSERT_FALSE(report->flaws.empty());
  EXPECT_NE(report->flaws[0].derivation.find("r_salary"), std::string::npos);
  EXPECT_NE(report->ToString().find("NOT SATISFIED"), std::string::npos);
}

TEST(AnalyzerTest, AuditorWithoutWriteIsSafe) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement = ParseRequirementString("(auditor, r_salary(x) : ti)");
  ASSERT_TRUE(requirement.ok());
  auto report = world.session->Check(requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
}

TEST(AnalyzerTest, BudgetReaderLearnsSalaryPartially) {
  // With r_budget granted, checkBudget reveals *something* about the
  // salary (§1): the pi requirement is violated even without w_budget.
  BrokerWorld world = MakeBrokerWorld();
  ASSERT_TRUE(world.users->AddUser("reader").ok());
  ASSERT_TRUE(world.users->Grant("reader", "checkBudget").ok());
  ASSERT_TRUE(world.users->Grant("reader", "r_budget").ok());
  auto partial = ParseRequirementString("(reader, r_salary(x) : pi)");
  ASSERT_TRUE(partial.ok());
  auto report = world.session->Check(partial.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(AnalyzerTest, DetectsPaperFlaw2) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement =
      ParseRequirementString("(updater, w_salary(a, v : pa))");
  ASSERT_TRUE(requirement.ok());
  auto report = world.session->Check(requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(AnalyzerTest, UpdaterWithoutBudgetWriteCannotFullyControlSalary) {
  // The §3.1 contrast: with only updateSalary granted, the written
  // salary is perturbable (object choice) but not fully controllable.
  BrokerWorld world = MakeBrokerWorld();
  ASSERT_TRUE(world.users->AddUser("plain").ok());
  ASSERT_TRUE(world.users->Grant("plain", "updateSalary").ok());
  auto total = ParseRequirementString("(plain, w_salary(a, v : ta))");
  ASSERT_TRUE(total.ok());
  auto report = world.session->Check(total.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
  // Granting w_budget flips the verdict.
  auto flagged = ParseRequirementString("(updater, w_salary(a, v : ta))");
  ASSERT_TRUE(flagged.ok());
  auto report2 = world.session->Check(flagged.value());
  ASSERT_TRUE(report2.ok());
  EXPECT_FALSE(report2->satisfied);
}

TEST(AnalyzerTest, DirectGrantIsAlwaysAFlaw) {
  // If r_salary itself is granted, (u, r_salary(x) : ti) is trivially
  // violated at the direct-invocation site.
  BrokerWorld world = MakeBrokerWorld();
  ASSERT_TRUE(world.users->AddUser("root").ok());
  ASSERT_TRUE(world.users->Grant("root", "r_salary").ok());
  auto requirement = ParseRequirementString("(root, r_salary(x) : ti)");
  ASSERT_TRUE(requirement.ok());
  auto report = world.session->Check(requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(AnalyzerTest, UnknownUserOrFunctionErrors) {
  BrokerWorld world = MakeBrokerWorld();
  auto r1 = ParseRequirementString("(ghost, r_salary(x) : ti)");
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(world.session->Check(r1.value()).ok());
  auto r2 = ParseRequirementString("(clerk, nothing(x) : ti)");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(world.session->Check(r2.value()).ok());
}

TEST(AnalyzerTest, ArityMismatchRejected) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement =
      ParseRequirementString("(clerk, r_salary(x, y) : ti)");
  ASSERT_TRUE(requirement.ok());
  EXPECT_FALSE(world.session->Check(requirement.value()).ok());
}

TEST(AnalyzerTest, UserAnalysisIsReusable) {
  BrokerWorld world = MakeBrokerWorld();
  auto analysis = world.session->BuildUser(*world.users->Find("clerk"));
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  const UserAnalysis& clerk = *analysis.value();
  auto r1 = ParseRequirementString("(clerk, r_salary(x) : ti)");
  auto r2 = ParseRequirementString("(clerk, r_budget(x) : ti)");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto report1 = CheckAgainstClosure(clerk.set(), clerk.closure(), r1.value());
  auto report2 = CheckAgainstClosure(clerk.set(), clerk.closure(), r2.value());
  ASSERT_TRUE(report1.ok());
  ASSERT_TRUE(report2.ok());
  EXPECT_FALSE(report1->satisfied);
  EXPECT_FALSE(report2->satisfied);  // budget is writable hence inferable
  EXPECT_GT(report1->fact_count, 0u);
}

}  // namespace
}  // namespace oodbsec::core
