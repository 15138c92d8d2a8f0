// Integrity-constraint-aware analysis (paper §1.1): "integrity
// constraints are referred to ... because the knowledge of a constraint
// always holds in a database, a user can compute more sensitive values
// with [it]". A constraint is a boolean access function the database
// guarantees; the analyzer folds it into every user's closure as a
// known-true observation.
#include <gtest/gtest.h>

#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/requirement.h"
#include "schema/user.h"
#include "text/workspace.h"

namespace oodbsec::core {
namespace {

// The paper's §1 regulation: "the budget of each broker should not be
// higher than ten times his salary".
std::unique_ptr<schema::Schema> RegulatedSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"salary", "int"}, {"budget", "int"}});
  builder.AddConstraint("budgetRegulation", {{"b", "Broker"}},
                        "r_budget(b) <= 10 * r_salary(b)");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(ConstraintsTest, SchemaRecordsConstraints) {
  auto schema = RegulatedSchema();
  ASSERT_EQ(schema->constraints().size(), 1u);
  EXPECT_EQ(schema->constraints()[0]->name(), "budgetRegulation");
  // Constraints are ordinary functions too.
  EXPECT_NE(schema->FindFunction("budgetRegulation"), nullptr);
}

TEST(ConstraintsTest, ConstraintMustExistAndReturnBool) {
  {
    schema::SchemaBuilder builder;
    builder.AddClass("C", {{"a", "int"}});
    builder.MarkConstraint("ghost");
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    schema::SchemaBuilder builder;
    builder.AddClass("C", {{"a", "int"}});
    builder.AddFunction("f", {{"o", "C"}}, "int", "r_a(o)");
    builder.MarkConstraint("f");
    auto result = std::move(builder).Build();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), common::StatusCode::kTypeError);
  }
}

TEST(ConstraintsTest, ConstraintKnowledgeLeaksThroughGrantedReads) {
  // The paper's opening scenario: a user who may read budgets learns
  // something about salaries purely from the regulation — no function
  // involving salary is granted at all.
  auto schema = RegulatedSchema();
  schema::UserRegistry users(*schema);
  ASSERT_TRUE(users.AddUser("clerk").ok());
  ASSERT_TRUE(users.Grant("clerk", "r_budget").ok());

  auto req = ParseRequirementString("(clerk, r_salary(x) : pi)");
  ASSERT_TRUE(req.ok());
  auto report = AnalysisSession(*schema, users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied)
      << "knowing the budget plus the regulation bounds the salary";
}

TEST(ConstraintsTest, WithoutTheConstraintTheSameGrantIsSafe) {
  // Identical schema minus the constraint marking: the budget read
  // alone teaches nothing about the salary.
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"salary", "int"}, {"budget", "int"}});
  builder.AddFunction("budgetRegulation", {{"b", "Broker"}}, "bool",
                      "r_budget(b) <= 10 * r_salary(b)");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  schema::UserRegistry users(*schema.value());
  ASSERT_TRUE(users.AddUser("clerk").ok());
  ASSERT_TRUE(users.Grant("clerk", "r_budget").ok());

  auto req = ParseRequirementString("(clerk, r_salary(x) : pi)");
  ASSERT_TRUE(req.ok());
  auto report = AnalysisSession(*schema.value(), users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
}

TEST(ConstraintsTest, ConstraintPlusWriteLeaksTotally) {
  // Writing the budget turns the regulation into a probe: the analyzer
  // must flag total inferability (the user sweeps the budget and knows
  // the regulation keeps holding... pessimistically, exactly the
  // checkBudget story with the constraint playing the comparator).
  auto schema = RegulatedSchema();
  schema::UserRegistry users(*schema);
  ASSERT_TRUE(users.AddUser("writer").ok());
  ASSERT_TRUE(users.Grant("writer", "w_budget").ok());

  auto req = ParseRequirementString("(writer, r_salary(x) : ti)");
  ASSERT_TRUE(req.ok());
  auto report = AnalysisSession(*schema, users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(ConstraintsTest, UserWithNoGrantsStillSatisfiesTotalSecrecy) {
  auto schema = RegulatedSchema();
  schema::UserRegistry users(*schema);
  ASSERT_TRUE(users.AddUser("nobody").ok());
  auto req = ParseRequirementString("(nobody, r_salary(x) : ti)");
  ASSERT_TRUE(req.ok());
  auto report = AnalysisSession(*schema, users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
}

TEST(ConstraintsTest, WorkspaceConstraintSyntax) {
  auto workspace = text::LoadWorkspace(R"(
class Broker { salary: int; budget: int; }
constraint budgetRegulation(b: Broker): bool =
  r_budget(b) <= 10 * r_salary(b);
user clerk can r_budget;
require (clerk, r_salary(x) : pi);
)");
  ASSERT_TRUE(workspace.ok()) << workspace.status();
  ASSERT_EQ(workspace->schema->constraints().size(), 1u);
  auto reports = text::CheckAllRequirements(*workspace);
  ASSERT_TRUE(reports.ok()) << reports.status();
  EXPECT_FALSE((*reports)[0].satisfied);
}

TEST(ConstraintsTest, WorkspaceRejectsNonBoolConstraint) {
  auto workspace = text::LoadWorkspace(R"(
class C { a: int; }
constraint broken(o: C): int = r_a(o);
)");
  EXPECT_FALSE(workspace.ok());
}

}  // namespace
}  // namespace oodbsec::core
