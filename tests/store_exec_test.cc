#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "exec/basic_functions.h"
#include "exec/evaluator.h"
#include "query/binder.h"
#include "query/query_evaluator.h"
#include "query/query_parser.h"
#include "schema/schema.h"
#include "store/database.h"

namespace oodbsec {
namespace {

using types::Oid;
using types::Value;

std::unique_ptr<schema::Schema> BrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"}});
  builder.AddFunction("checkBudget", {{"broker", "Broker"}}, "bool",
                      "r_budget(broker) >= 10 * r_salary(broker)");
  builder.AddFunction("calcSalary", {{"budget", "int"}, {"profit", "int"}},
                      "int", "budget / 10 + profit / 2");
  builder.AddFunction(
      "updateSalary", {{"broker", "Broker"}}, "null",
      "w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(BasicFunctionsTest, IntArithmetic) {
  types::TypePool pool;
  auto catalog = exec::BasicFunctionCatalog::MakeDefault(pool);
  auto eval2 = [&](const char* name, int64_t a, int64_t b) {
    const exec::BasicFunction* fn =
        catalog->Find(name, {pool.Int(), pool.Int()});
    EXPECT_NE(fn, nullptr) << name;
    return fn->Eval({Value::Int(a), Value::Int(b)});
  };
  EXPECT_EQ(eval2("+", 2, 3), Value::Int(5));
  EXPECT_EQ(eval2("-", 2, 3), Value::Int(-1));
  EXPECT_EQ(eval2("*", 4, 3), Value::Int(12));
  EXPECT_EQ(eval2("/", 7, 2), Value::Int(3));
  EXPECT_EQ(eval2("%", 7, 2), Value::Int(1));
  EXPECT_EQ(eval2("min", 7, 2), Value::Int(2));
  EXPECT_EQ(eval2("max", 7, 2), Value::Int(7));
  // Totalized division (see basic_functions.h).
  EXPECT_EQ(eval2("/", 7, 0), Value::Int(0));
  EXPECT_EQ(eval2("%", 7, 0), Value::Int(0));
}

TEST(BasicFunctionsTest, Comparisons) {
  types::TypePool pool;
  auto catalog = exec::BasicFunctionCatalog::MakeDefault(pool);
  const exec::BasicFunction* ge = catalog->Find(">=", {pool.Int(), pool.Int()});
  ASSERT_NE(ge, nullptr);
  EXPECT_EQ(ge->Eval({Value::Int(3), Value::Int(3)}), Value::Bool(true));
  EXPECT_EQ(ge->Eval({Value::Int(2), Value::Int(3)}), Value::Bool(false));
  EXPECT_EQ(ge->SignatureToString(), ">=(int, int) : bool");
}

TEST(BasicFunctionsTest, OverloadResolution) {
  types::TypePool pool;
  auto catalog = exec::BasicFunctionCatalog::MakeDefault(pool);
  const exec::BasicFunction* int_eq =
      catalog->Find("==", {pool.Int(), pool.Int()});
  const exec::BasicFunction* str_eq =
      catalog->Find("==", {pool.String(), pool.String()});
  const exec::BasicFunction* bool_eq =
      catalog->Find("==", {pool.Bool(), pool.Bool()});
  ASSERT_NE(int_eq, nullptr);
  ASSERT_NE(str_eq, nullptr);
  ASSERT_NE(bool_eq, nullptr);
  EXPECT_NE(int_eq, str_eq);
  EXPECT_EQ(str_eq->Eval({Value::String("a"), Value::String("a")}),
            Value::Bool(true));
  EXPECT_EQ(catalog->Find("==", {pool.Int(), pool.Bool()}), nullptr);
  EXPECT_TRUE(catalog->HasName("concat"));
  EXPECT_FALSE(catalog->HasName("xor"));
}

TEST(BasicFunctionsTest, StringAndBoolOps) {
  types::TypePool pool;
  auto catalog = exec::BasicFunctionCatalog::MakeDefault(pool);
  EXPECT_EQ(catalog->Find("concat", {pool.String(), pool.String()})
                ->Eval({Value::String("ab"), Value::String("cd")}),
            Value::String("abcd"));
  EXPECT_EQ(catalog->Find("and", {pool.Bool(), pool.Bool()})
                ->Eval({Value::Bool(true), Value::Bool(false)}),
            Value::Bool(false));
  EXPECT_EQ(catalog->Find("not", {pool.Bool()})->Eval({Value::Bool(false)}),
            Value::Bool(true));
  EXPECT_EQ(catalog->Find("neg", {pool.Int()})->Eval({Value::Int(4)}),
            Value::Int(-4));
  EXPECT_EQ(catalog->Find("abs", {pool.Int()})->Eval({Value::Int(-4)}),
            Value::Int(4));
}

TEST(DatabaseTest, CreateAndDefaults) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  auto oid = db.CreateObject("Broker");
  ASSERT_TRUE(oid.ok());
  EXPECT_TRUE(oid.value().valid());
  EXPECT_EQ(db.object_count(), 1u);
  EXPECT_EQ(db.ReadAttribute(*oid, "salary").value(), Value::Int(0));
  EXPECT_EQ(db.ReadAttribute(*oid, "name").value(), Value::String(""));
  EXPECT_FALSE(db.CreateObject("Nothing").ok());
}

TEST(DatabaseTest, ExtentTracksCreationOrder) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  Oid a = db.CreateObject("Broker").value();
  Oid b = db.CreateObject("Broker").value();
  const auto& extent = db.Extent("Broker");
  ASSERT_EQ(extent.size(), 2u);
  EXPECT_EQ(extent[0], a);
  EXPECT_EQ(extent[1], b);
  EXPECT_TRUE(db.Extent("Unknown").empty());
  EXPECT_EQ(db.ClassOf(a)->name(), "Broker");
  EXPECT_EQ(db.ClassOf(Oid(999)), nullptr);
}

TEST(DatabaseTest, WriteAndReadBack) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  Oid oid = db.CreateObject("Broker").value();
  ASSERT_TRUE(db.WriteAttribute(oid, "salary", Value::Int(50)).ok());
  EXPECT_EQ(db.ReadAttribute(oid, "salary").value(), Value::Int(50));
  // Type mismatch rejected.
  EXPECT_FALSE(db.WriteAttribute(oid, "salary", Value::Bool(true)).ok());
  // Unknown attribute / object rejected.
  EXPECT_FALSE(db.WriteAttribute(oid, "ghost", Value::Int(1)).ok());
  EXPECT_FALSE(db.WriteAttribute(Oid(999), "salary", Value::Int(1)).ok());
  EXPECT_FALSE(db.ReadAttribute(Oid(999), "salary").ok());
}

TEST(DatabaseTest, CloneIsIndependent) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  Oid oid = db.CreateObject("Broker").value();
  ASSERT_TRUE(db.WriteAttribute(oid, "salary", Value::Int(10)).ok());
  store::Database snapshot = db.Clone();
  ASSERT_TRUE(db.WriteAttribute(oid, "salary", Value::Int(99)).ok());
  EXPECT_EQ(snapshot.ReadAttribute(oid, "salary").value(), Value::Int(10));
  EXPECT_EQ(db.ReadAttribute(oid, "salary").value(), Value::Int(99));
}

TEST(EvaluatorTest, CheckBudgetEvaluates) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  Oid oid = db.CreateObject("Broker").value();
  ASSERT_TRUE(db.WriteAttribute(oid, "salary", Value::Int(50)).ok());
  ASSERT_TRUE(db.WriteAttribute(oid, "budget", Value::Int(400)).ok());

  exec::Evaluator evaluator(db);
  const schema::FunctionDecl* check = schema->FindFunction("checkBudget");
  auto result = evaluator.CallFunction(*check, {Value::Object(oid)});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value(), Value::Bool(false));  // 400 < 10*50

  ASSERT_TRUE(db.WriteAttribute(oid, "budget", Value::Int(600)).ok());
  EXPECT_EQ(evaluator.CallFunction(*check, {Value::Object(oid)}).value(),
            Value::Bool(true));  // 600 >= 500
}

TEST(EvaluatorTest, UpdateSalaryWritesThroughCalcSalary) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  Oid oid = db.CreateObject("Broker").value();
  ASSERT_TRUE(db.WriteAttribute(oid, "budget", Value::Int(200)).ok());
  ASSERT_TRUE(db.WriteAttribute(oid, "profit", Value::Int(30)).ok());

  exec::Evaluator evaluator(db);
  auto result = evaluator.CallByName("updateSalary", {Value::Object(oid)});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value(), Value::Null());
  // calcSalary(200, 30) = 200/10 + 30/2 = 35.
  EXPECT_EQ(db.ReadAttribute(oid, "salary").value(), Value::Int(35));
}

TEST(EvaluatorTest, CallByNameSpecials) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  Oid oid = db.CreateObject("Broker").value();
  exec::Evaluator evaluator(db);
  ASSERT_TRUE(
      evaluator.CallByName("w_budget", {Value::Object(oid), Value::Int(7)})
          .ok());
  EXPECT_EQ(evaluator.CallByName("r_budget", {Value::Object(oid)}).value(),
            Value::Int(7));
  EXPECT_FALSE(evaluator.CallByName("r_budget", {Value::Int(3)}).ok());
  EXPECT_FALSE(evaluator.CallByName("nope", {}).ok());
}

TEST(EvaluatorTest, ReadOnNullObjectFails) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  exec::Evaluator evaluator(db);
  const schema::FunctionDecl* check = schema->FindFunction("checkBudget");
  auto result = evaluator.CallFunction(*check, {Value::Null()});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST(EvaluatorTest, WrongArityFails) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  exec::Evaluator evaluator(db);
  const schema::FunctionDecl* check = schema->FindFunction("checkBudget");
  EXPECT_FALSE(evaluator.CallFunction(*check, {}).ok());
}

// Evaluation order, observed through writes: mark(l, d) appends the
// digit d to r_n(l), so the final r_n(l) spells the order in which the
// marks ran. Paper §3.2: arguments run left to right (basic, access
// and w_ calls alike) and let inits run, in order, before the body.
// §3.1: a query's where clause runs before its items, and the items run
// left to right, so the probe w_budget(b, v), checkBudget(b) observes
// each write it made.
TEST(EvaluatorTest, WritesFollowEvaluationOrder) {
  schema::SchemaBuilder builder;
  builder.AddClass("Log", {{"n", "int"}, {"m", "int"}});
  builder.AddFunction("mark", {{"l", "Log"}, {"d", "int"}}, "int",
                      "let u = w_n(l, r_n(l) * 10 + d) in d end");
  builder.AddFunction("first", {{"a", "int"}, {"b", "int"}, {"c", "int"}},
                      "int", "a");
  builder.AddFunction("basicArgs", {{"l", "Log"}}, "int",
                      "mark(l, 1) + mark(l, 2) * mark(l, 3)");
  builder.AddFunction("accessArgs", {{"l", "Log"}}, "int",
                      "first(mark(l, 1), mark(l, 2), mark(l, 3))");
  builder.AddFunction("writeArgs", {{"l", "Log"}}, "null",
                      "w_m(let x = mark(l, 1) in l end, mark(l, 2))");
  builder.AddFunction("lets", {{"l", "Log"}}, "int",
                      "let a = mark(l, 1), b = mark(l, 2) in "
                      "let c = mark(l, 3) in mark(l, 4) + a end end");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();

  auto run = [&](const char* fn) {
    store::Database db(*schema.value());
    Oid log = db.CreateObject("Log").value();
    exec::Evaluator evaluator(db);
    auto result = evaluator.CallByName(fn, {Value::Object(log)});
    EXPECT_TRUE(result.ok()) << fn << ": " << result.status();
    return db.ReadAttribute(log, "n").value();
  };
  EXPECT_EQ(run("basicArgs"), Value::Int(123));
  EXPECT_EQ(run("accessArgs"), Value::Int(123));
  EXPECT_EQ(run("writeArgs"), Value::Int(12));
  EXPECT_EQ(run("lets"), Value::Int(1234));

  store::Database db(*schema.value());
  Oid log = db.CreateObject("Log").value();
  auto query = query::ParseQueryString(
      "select mark(l, 2), mark(l, 3), mark(l, 4) from l in Log "
      "where mark(l, 1) == 1");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_TRUE(query::BindQuery(*query.value(), *schema.value()).ok());
  auto rows = query::QueryEvaluator(db, nullptr).Run(*query.value());
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows.value().rows,
            (std::vector<std::vector<Value>>{
                {Value::Int(2), Value::Int(3), Value::Int(4)}}));
  EXPECT_EQ(db.ReadAttribute(log, "n").value(), Value::Int(1234));

  // §3.1's probe: with salary 5, budget 49 fails checkBudget and 50
  // passes it; each checkBudget sees the write just before it.
  auto brokers = BrokerSchema();
  store::Database broker_db(*brokers);
  Oid john = broker_db.CreateObject("Broker").value();
  ASSERT_TRUE(broker_db.WriteAttribute(john, "salary", Value::Int(5)).ok());
  auto probe = query::ParseQueryString(
      "select w_budget(b, 49), checkBudget(b), w_budget(b, 50), "
      "checkBudget(b) from b in Broker where checkBudget(b)");
  ASSERT_TRUE(probe.ok()) << probe.status();
  ASSERT_TRUE(query::BindQuery(*probe.value(), *brokers).ok());
  // budget 0 < 50: the where clause filters John out before any write.
  auto none = query::QueryEvaluator(broker_db, nullptr).Run(*probe.value());
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none.value().rows.empty());
  EXPECT_EQ(broker_db.ReadAttribute(john, "budget").value(), Value::Int(0));
  ASSERT_TRUE(broker_db.WriteAttribute(john, "budget", Value::Int(60)).ok());
  auto probed = query::QueryEvaluator(broker_db, nullptr).Run(*probe.value());
  ASSERT_TRUE(probed.ok()) << probed.status();
  EXPECT_EQ(probed.value().rows,
            (std::vector<std::vector<Value>>{
                {Value::Null(), Value::Bool(false), Value::Null(),
                 Value::Bool(true)}}));
  EXPECT_EQ(broker_db.ReadAttribute(john, "budget").value(), Value::Int(50));
}

TEST(EvaluatorTest, NothingRunsAfterTheFirstError) {
  // r_n(r_next(l)) reads through a null reference and fails. No write
  // after it in evaluation order may run: not a later argument, a later
  // let part, the body, a where's select items or a later item.
  schema::SchemaBuilder builder;
  builder.AddClass("Log", {{"n", "int"}, {"next", "Log"}});
  builder.AddFunction("mark", {{"l", "Log"}, {"d", "int"}}, "int",
                      "let u = w_n(l, r_n(l) * 10 + d) in d end");
  builder.AddFunction("first", {{"a", "int"}, {"b", "int"}, {"c", "int"}},
                      "int", "a");
  builder.AddFunction("basicArgs", {{"l", "Log"}}, "int",
                      "mark(l, 1) + r_n(r_next(l)) * mark(l, 2)");
  builder.AddFunction("accessArgs", {{"l", "Log"}}, "int",
                      "first(mark(l, 1), r_n(r_next(l)), mark(l, 2))");
  builder.AddFunction("writeArgs", {{"l", "Log"}}, "null",
                      "w_n(let x = r_n(r_next(l)) in l end, mark(l, 2))");
  builder.AddFunction("writeValue", {{"l", "Log"}}, "null",
                      "w_next(l, r_next(r_next(r_next(l))))");
  builder.AddFunction("lets", {{"l", "Log"}}, "int",
                      "let a = mark(l, 1), b = r_n(r_next(l)), "
                      "c = mark(l, 2) in mark(l, 3) end");
  builder.AddFunction("body", {{"l", "Log"}}, "int",
                      "let a = mark(l, 1) in r_n(r_next(l)) + mark(l, 2) end");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();

  // Each case with n after it: only the marks before the failing read.
  const std::pair<const char*, int64_t> calls[] = {
      {"basicArgs", 1}, {"accessArgs", 1}, {"writeArgs", 0},
      {"lets", 1},      {"body", 1}};
  for (const auto& [fn, n] : calls) {
    store::Database db(*schema.value());
    Oid log = db.CreateObject("Log").value();
    exec::Evaluator evaluator(db);
    auto result = evaluator.CallByName(fn, {Value::Object(log)});
    ASSERT_FALSE(result.ok()) << fn;
    EXPECT_EQ(result.status().code(),
              common::StatusCode::kFailedPrecondition)
        << fn << ": " << result.status();
    EXPECT_EQ(db.ReadAttribute(log, "n").value(), Value::Int(n)) << fn;
  }

  {
    // A write whose value fails: l -> m -> null, so the third r_next
    // reads through null, and l must still point at m.
    store::Database db(*schema.value());
    Oid l = db.CreateObject("Log").value();
    Oid m = db.CreateObject("Log").value();
    ASSERT_TRUE(db.WriteAttribute(l, "next", Value::Object(m)).ok());
    exec::Evaluator evaluator(db);
    auto result = evaluator.CallByName("writeValue", {Value::Object(l)});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              common::StatusCode::kFailedPrecondition)
        << result.status();
    EXPECT_EQ(db.ReadAttribute(l, "next").value(), Value::Object(m));
  }

  const std::pair<const char*, int64_t> queries[] = {
      {"select mark(l, 2) from l in Log where r_n(r_next(l)) == 0", 0},
      {"select mark(l, 1), r_n(r_next(l)), mark(l, 2) from l in Log", 1}};
  for (const auto& [text, n] : queries) {
    store::Database db(*schema.value());
    Oid log = db.CreateObject("Log").value();
    db.CreateObject("Log").value();
    auto query = query::ParseQueryString(text);
    ASSERT_TRUE(query.ok()) << query.status();
    ASSERT_TRUE(query::BindQuery(*query.value(), *schema.value()).ok());
    auto rows = query::QueryEvaluator(db, nullptr).Run(*query.value());
    ASSERT_FALSE(rows.ok()) << text;
    EXPECT_EQ(rows.status().code(), common::StatusCode::kFailedPrecondition)
        << text << ": " << rows.status();
    // The first row stops the query: the second object is never marked.
    EXPECT_EQ(db.ReadAttribute(log, "n").value(), Value::Int(n)) << text;
    EXPECT_EQ(db.ReadAttribute(db.Extent("Log")[1], "n").value(),
              Value::Int(0))
        << text;
  }
}

}  // namespace
}  // namespace oodbsec
