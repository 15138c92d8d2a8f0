// End-to-end integration: workspace round-trips through the serializer,
// the README example works as documented, and cross-module flows hold
// together (load -> analyze -> attack -> guard on one state).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "attack/attacks.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "dynamic/session_guard.h"
#include "query/binder.h"
#include "query/query_evaluator.h"
#include "query/query_parser.h"
#include "text/workspace.h"

namespace oodbsec {
namespace {

using types::Value;

constexpr const char* kFullWorkspace = R"(
class Broker { name: string; salary: int; budget: int; profit: int; }

constraint budgetRegulation(b: Broker): bool =
  r_budget(b) <= 100 * r_salary(b);

function checkBudget(broker: Broker): bool =
  r_budget(broker) >= 10 * r_salary(broker);

function calcSalary(budget: int, profit: int): int =
  budget / 10 + profit / 2;

function updateSalary(broker: Broker): null =
  w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)));

user clerk can checkBudget, w_budget, r_name;
user updater can updateSalary, w_budget, w_profit, r_name;

require (clerk, r_salary(x) : ti);
require (updater, w_salary(a, v : ta));

object Broker { name = "John", salary = 57, budget = 400, profit = 30 }
object Broker { name = "Mary", salary = 83, budget = 900, profit = 10 }
)";

TEST(IntegrationTest, WorkspaceSerializerRoundTrips) {
  auto first = text::LoadWorkspace(kFullWorkspace);
  ASSERT_TRUE(first.ok()) << first.status();
  std::string dumped = text::FormatWorkspace(*first);
  auto second = text::LoadWorkspace(dumped);
  ASSERT_TRUE(second.ok()) << second.status() << "\n--- dump ---\n"
                           << dumped;

  // Structure survives.
  EXPECT_EQ(second->schema->classes().size(),
            first->schema->classes().size());
  EXPECT_EQ(second->schema->functions().size(),
            first->schema->functions().size());
  EXPECT_EQ(second->schema->constraints().size(),
            first->schema->constraints().size());
  EXPECT_EQ(second->requirements.size(), first->requirements.size());
  EXPECT_EQ(second->database->Extent("Broker").size(),
            first->database->Extent("Broker").size());

  // Object contents survive.
  types::Oid john1 = first->database->Extent("Broker")[0];
  types::Oid john2 = second->database->Extent("Broker")[0];
  EXPECT_EQ(first->database->ReadAttribute(john1, "salary").value(),
            second->database->ReadAttribute(john2, "salary").value());

  // Analysis verdicts survive.
  auto reports1 = text::CheckAllRequirements(*first);
  auto reports2 = text::CheckAllRequirements(*second);
  ASSERT_TRUE(reports1.ok());
  ASSERT_TRUE(reports2.ok());
  ASSERT_EQ(reports1->size(), reports2->size());
  for (size_t i = 0; i < reports1->size(); ++i) {
    EXPECT_EQ((*reports1)[i].satisfied, (*reports2)[i].satisfied) << i;
  }

  // The dump itself is idempotent.
  EXPECT_EQ(text::FormatWorkspace(*second), dumped);
}

TEST(IntegrationTest, MinIntAttributeRoundTrips) {
  // FormatWorkspace prints INT64_MIN as -9223372036854775808, which must
  // load back as INT64_MIN; 2^63 without the minus is out of range.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto first = text::LoadWorkspace(
      "class Broker { budget: int; salary: int; }\n"
      "object Broker { budget = -9223372036854775808, salary = 1 }\n");
  ASSERT_TRUE(first.ok()) << first.status();
  types::Oid john = first->database->Extent("Broker")[0];
  EXPECT_EQ(first->database->ReadAttribute(john, "budget").value(),
            Value::Int(kMin));
  ASSERT_TRUE(
      first->database->WriteAttribute(john, "salary", Value::Int(kMin)).ok());

  std::string dumped = text::FormatWorkspace(*first);
  EXPECT_NE(dumped.find("salary = -9223372036854775808"), std::string::npos)
      << dumped;
  auto second = text::LoadWorkspace(dumped);
  ASSERT_TRUE(second.ok()) << second.status() << "\n--- dump ---\n"
                           << dumped;
  types::Oid john2 = second->database->Extent("Broker")[0];
  EXPECT_EQ(second->database->ReadAttribute(john2, "budget").value(),
            Value::Int(kMin));
  EXPECT_EQ(second->database->ReadAttribute(john2, "salary").value(),
            Value::Int(kMin));
  EXPECT_EQ(text::FormatWorkspace(*second), dumped);

  auto bare = text::LoadWorkspace(
      "class Broker { budget: int; }\n"
      "object Broker { budget = 9223372036854775808 }\n");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), common::StatusCode::kParseError);
  EXPECT_NE(bare.status().message().find("integer literal out of range"),
            std::string::npos)
      << bare.status();
}

TEST(IntegrationTest, ReadmeExampleBehavesAsDocumented) {
  schema::SchemaBuilder builder;
  builder.AddClass("Account", {{"balance", "int"}, {"limit", "int"}});
  builder.AddFunction("overLimit", {{"a", "Account"}}, "bool",
                      "r_balance(a) >= r_limit(a)");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());

  schema::UserRegistry users(*schema.value());
  ASSERT_TRUE(users.AddUser("teller").ok());
  ASSERT_TRUE(users.Grant("teller", "overLimit").ok());
  ASSERT_TRUE(users.Grant("teller", "w_limit").ok());

  auto req = core::ParseRequirementString("(teller, r_balance(x) : ti)");
  ASSERT_TRUE(req.ok());
  auto report =
      core::AnalysisSession(*schema.value(), users).Check(req.value());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->satisfied);
  EXPECT_FALSE(report->flaws[0].derivation.empty());
}

TEST(IntegrationTest, DetectThenAttackThenGuardOnOneState) {
  auto workspace = text::LoadWorkspace(kFullWorkspace);
  ASSERT_TRUE(workspace.ok()) << workspace.status();

  // 1. Detect statically.
  auto reports = text::CheckAllRequirements(*workspace);
  ASSERT_TRUE(reports.ok());
  EXPECT_FALSE((*reports)[0].satisfied);

  // 2. Realize the flaw against the live database.
  attack::BinarySearchConfig config;
  config.class_name = "Broker";
  config.select_attr = "name";
  config.select_value = Value::String("Mary");
  config.write_fn = "w_budget";
  config.compare_fn = "checkBudget";
  config.factor = 10;
  config.hi = 10000;
  auto transcript = attack::ExtractHiddenValue(
      *workspace->database, *workspace->users->Find("clerk"), config);
  ASSERT_TRUE(transcript.ok()) << transcript.status();
  EXPECT_EQ(transcript->inferred, Value::Int(83));

  // 3. Under the dynamic guard the same probe sequence is stopped at
  // the first query.
  dynamic::SessionGuard guard(*workspace->schema, *workspace->users,
                              workspace->requirements);
  auto probe = query::ParseQueryString(
      "select w_budget(b, 1), checkBudget(b) from b in Broker");
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(query::BindQuery(*probe.value(), *workspace->schema).ok());
  auto guarded = guard.Run(*workspace->database,
                           *workspace->users->Find("clerk"),
                           *probe.value());
  EXPECT_FALSE(guarded.ok());
}

TEST(IntegrationTest, PaperQueryFromSection31RunsVerbatim) {
  // "select w_budget(b, 1), checkBudget(b), w_budget(b, 2),
  //  checkBudget(b), ... from b in Broker where r_name(b) = 'John'"
  auto workspace = text::LoadWorkspace(kFullWorkspace);
  ASSERT_TRUE(workspace.ok());
  auto query = query::ParseQueryString(
      "select w_budget(b, 1), checkBudget(b), w_budget(b, 2), "
      "checkBudget(b) from b in Broker where r_name(b) == \"John\"");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query::BindQuery(*query.value(), *workspace->schema).ok());
  query::QueryEvaluator evaluator(*workspace->database,
                                  workspace->users->Find("clerk"));
  auto result = evaluator.Run(*query.value());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  // John's salary is 57: budgets 1 and 2 are both below 570.
  EXPECT_EQ(result->rows[0][1], Value::Bool(false));
  EXPECT_EQ(result->rows[0][3], Value::Bool(false));
}

TEST(IntegrationTest, EmptyWorkspaceIsValid) {
  auto workspace = text::LoadWorkspace("");
  ASSERT_TRUE(workspace.ok()) << workspace.status();
  EXPECT_TRUE(workspace->schema->classes().empty());
  EXPECT_TRUE(text::CheckAllRequirements(*workspace)->empty());
  EXPECT_EQ(text::FormatWorkspace(*workspace), "");
}

}  // namespace
}  // namespace oodbsec
