// Fixtures shared by the closure test suites: the stockbroker and scaled
// broker schemas, an unfold helper, and SerializeLog, which flattens a
// derivation log into text so tests can compare logs byte for byte (or
// pin their hash).
#ifndef OODBSEC_TESTS_CLOSURE_TEST_UTIL_H_
#define OODBSEC_TESTS_CLOSURE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/closure.h"
#include "schema/schema.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {

// The paper's stockbroker schema (§3.1).
inline std::unique_ptr<schema::Schema> BrokerSchema() {
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

// The bench_static_closure scaled workload: `scale` broker departments
// over one shared class, interacting through same-type argument
// equality.
inline std::unique_ptr<schema::Schema> ScaledBrokerSchema(int scale) {
  schema::SchemaBuilder builder;
  std::vector<schema::SchemaBuilder::AttributeSpec> attributes;
  attributes.push_back({"name", "string"});
  for (int i = 0; i < scale; ++i) {
    attributes.push_back({common::StrCat("salary", i), "int"});
    attributes.push_back({common::StrCat("budget", i), "int"});
    attributes.push_back({common::StrCat("profit", i), "int"});
  }
  builder.AddClass("Broker", std::move(attributes));
  for (int i = 0; i < scale; ++i) {
    builder.AddFunction(
        common::StrCat("checkBudget", i), {{"broker", "Broker"}}, "bool",
        common::StrCat("r_budget", i, "(broker) >= 10 * r_salary", i,
                       "(broker)"));
    builder.AddFunction(common::StrCat("calcSalary", i),
                        {{"budget", "int"}, {"profit", "int"}}, "int",
                        "budget / 10 + profit / 2");
    builder.AddFunction(
        common::StrCat("updateSalary", i), {{"broker", "Broker"}}, "null",
        common::StrCat("w_salary", i, "(broker, calcSalary", i, "(r_budget",
                       i, "(broker), r_profit", i, "(broker)))"));
  }
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

inline std::unique_ptr<unfold::UnfoldedSet> Unfold(
    const schema::Schema& schema, const std::vector<std::string>& roots) {
  auto set = unfold::UnfoldedSet::Build(schema, roots);
  EXPECT_TRUE(set.ok()) << set.status();
  return std::move(set).value();
}

// Flattens the full derivation log — every field of every step plus its
// resolved premise list — into one string, so EXPECT_EQ compares logs
// byte for byte and a mismatch prints the first diverging line.
inline std::string SerializeLog(const Closure& closure) {
  std::string out;
  const std::vector<DerivationStep>& steps = closure.steps();
  for (FactId id = 0; id < static_cast<FactId>(steps.size()); ++id) {
    const DerivationStep& step = steps[id];
    out += common::StrCat(id, ": k", static_cast<int>(step.fact.kind), " a",
                          step.fact.a, " b", step.fact.b, " o",
                          step.fact.origin.num, step.fact.origin.dir, " [",
                          step.rule, "] <-");
    for (FactId premise : closure.premises(id)) {
      out += common::StrCat(" ", premise);
    }
    out += '\n';
  }
  return out;
}

}  // namespace oodbsec::core

#endif  // OODBSEC_TESTS_CLOSURE_TEST_UTIL_H_
