#include <gtest/gtest.h>

#include "query/binder.h"
#include "query/capability.h"
#include "query/query_evaluator.h"
#include "query/query_parser.h"
#include "schema/user.h"
#include "store/database.h"

namespace oodbsec::query {
namespace {

using types::Oid;
using types::Value;

std::unique_ptr<schema::Schema> PersonSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass(
      "Person", {{"name", "string"}, {"age", "int"}, {"child", "{Person}"}});
  builder.AddFunction("profile", {{"x", "Person"}}, "string",
                      "concat(r_name(x), \" (profile)\")");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

std::unique_ptr<schema::Schema> BrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker",
                   {{"name", "string"}, {"salary", "int"}, {"budget", "int"}});
  builder.AddFunction("checkBudget", {{"broker", "Broker"}}, "bool",
                      "r_budget(broker) >= 10 * r_salary(broker)");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

Oid MakePerson(store::Database& db, const std::string& name, int64_t age) {
  Oid oid = db.CreateObject("Person").value();
  EXPECT_TRUE(db.WriteAttribute(oid, "name", Value::String(name)).ok());
  EXPECT_TRUE(db.WriteAttribute(oid, "age", Value::Int(age)).ok());
  return oid;
}

TEST(QueryParserTest, ParsesPaperExample) {
  auto result = ParseQueryString(
      "select r_name(p), profile(p) from p in Person where r_age(p) > 20");
  ASSERT_TRUE(result.ok()) << result.status();
  const SelectQuery& query = *result.value();
  EXPECT_EQ(query.items.size(), 2u);
  EXPECT_EQ(query.bindings.size(), 1u);
  EXPECT_EQ(query.bindings[0].var, "p");
  EXPECT_NE(query.where, nullptr);
}

TEST(QueryParserTest, ParsesNestedSelect) {
  auto result = ParseQueryString(
      "select (select r_name(q) from q in r_child(p)) "
      "from p in Person where r_name(p) == \"John\"");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value()->items.size(), 1u);
  EXPECT_NE(result.value()->items[0].subquery, nullptr);
}

TEST(QueryParserTest, ToStringRoundTrips) {
  const char* source =
      "select r_name(p) from p in Person where (r_age(p) > 20)";
  auto first = ParseQueryString(source);
  ASSERT_TRUE(first.ok());
  auto second = ParseQueryString(first.value()->ToString());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.value()->ToString(), second.value()->ToString());
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQueryString("select from p in P").ok());
  EXPECT_FALSE(ParseQueryString("select 1").ok());              // no from
  EXPECT_FALSE(ParseQueryString("select 1 from in P").ok());    // no var
  EXPECT_FALSE(ParseQueryString("select 1 from p P").ok());     // no 'in'
  EXPECT_FALSE(ParseQueryString("select 1 from p in P where").ok());
  EXPECT_FALSE(ParseQueryString("select 1 from p in P extra").ok());
}

TEST(BinderTest, ResolvesClassExtentSource) {
  auto schema = PersonSchema();
  auto query = ParseQueryString("select r_age(p) from p in Person");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(BindQuery(*query.value(), *schema).ok());
  EXPECT_EQ(query.value()->bindings[0].cls, schema->FindClass("Person"));
  EXPECT_EQ(query.value()->bindings[0].element_type,
            schema->FindClass("Person")->type());
  EXPECT_TRUE(query.value()->bound);
}

TEST(BinderTest, ResolvesSetExpressionSource) {
  auto schema = PersonSchema();
  auto query = ParseQueryString(
      "select r_name(q) from p in Person, q in r_child(p)");
  ASSERT_TRUE(query.ok());
  auto status = BindQuery(*query.value(), *schema);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(query.value()->bindings[1].cls, nullptr);
  EXPECT_EQ(query.value()->bindings[1].element_type,
            schema->FindClass("Person")->type());
}

TEST(BinderTest, RejectsNonSetSource) {
  auto schema = PersonSchema();
  auto query = ParseQueryString("select 1 from p in Person, q in r_age(p)");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(BindQuery(*query.value(), *schema).ok());
}

TEST(BinderTest, RejectsUnknownSource) {
  auto schema = PersonSchema();
  auto query = ParseQueryString("select 1 from p in Nowhere");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(BindQuery(*query.value(), *schema).ok());
}

TEST(BinderTest, RejectsNonBoolWhere) {
  auto schema = PersonSchema();
  auto query = ParseQueryString("select 1 from p in Person where r_age(p)");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(BindQuery(*query.value(), *schema).ok());
}

TEST(BinderTest, RejectsMultiItemSubquery) {
  auto schema = PersonSchema();
  auto query = ParseQueryString(
      "select (select r_name(q), r_age(q) from q in r_child(p)) "
      "from p in Person");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(BindQuery(*query.value(), *schema).ok());
}

TEST(QueryEvaluatorTest, SelectWithWhere) {
  auto schema = PersonSchema();
  store::Database db(*schema);
  MakePerson(db, "Ann", 30);
  MakePerson(db, "Bob", 15);
  MakePerson(db, "Cy", 45);

  auto query = ParseQueryString(
      "select r_name(p), profile(p) from p in Person where r_age(p) > 20");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(BindQuery(*query.value(), *schema).ok());

  QueryEvaluator evaluator(db, nullptr);
  auto result = evaluator.Run(*query.value());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], Value::String("Ann"));
  EXPECT_EQ(result->rows[0][1], Value::String("Ann (profile)"));
  EXPECT_EQ(result->rows[1][0], Value::String("Cy"));
}

TEST(QueryEvaluatorTest, NestedChildQueryMatchesPaperExample) {
  auto schema = PersonSchema();
  store::Database db(*schema);
  Oid john = MakePerson(db, "John", 50);
  Oid kid1 = MakePerson(db, "Kim", 12);
  Oid kid2 = MakePerson(db, "Lee", 9);
  ASSERT_TRUE(db.WriteAttribute(
                    john, "child",
                    Value::Set({Value::Object(kid1), Value::Object(kid2)}))
                  .ok());

  auto query = ParseQueryString(
      "select (select r_name(q) from q in r_child(p)) "
      "from p in Person where r_name(p) == \"John\"");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(BindQuery(*query.value(), *schema).ok());

  QueryEvaluator evaluator(db, nullptr);
  auto result = evaluator.Run(*query.value());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0],
            Value::Set({Value::String("Kim"), Value::String("Lee")}));
}

TEST(QueryEvaluatorTest, ProbingQuerySideEffectsInOrder) {
  // The paper's probing query (§3.1): writes interleave with reads.
  auto schema = BrokerSchema();
  store::Database db(*schema);
  Oid john = db.CreateObject("Broker").value();
  ASSERT_TRUE(db.WriteAttribute(john, "name", Value::String("John")).ok());
  ASSERT_TRUE(db.WriteAttribute(john, "salary", Value::Int(0)).ok());

  auto query = ParseQueryString(
      "select w_budget(b, 1), checkBudget(b), w_budget(b, 0), checkBudget(b) "
      "from b in Broker where r_name(b) == \"John\"");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(BindQuery(*query.value(), *schema).ok());

  QueryEvaluator evaluator(db, nullptr);
  auto result = evaluator.Run(*query.value());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  // salary = 0: budget 1 >= 0 -> true; budget 0 >= 0 -> true.
  EXPECT_EQ(result->rows[0],
            (std::vector<Value>{Value::Null(), Value::Bool(true),
                                Value::Null(), Value::Bool(true)}));
  // The final write persists.
  EXPECT_EQ(db.ReadAttribute(john, "budget").value(), Value::Int(0));
}

TEST(QueryEvaluatorTest, EnforcesCapabilities) {
  auto schema = BrokerSchema();
  schema::UserRegistry registry(*schema);
  ASSERT_TRUE(registry.AddUser("clerk").ok());
  ASSERT_TRUE(registry.Grant("clerk", "checkBudget").ok());
  ASSERT_TRUE(registry.Grant("clerk", "r_name").ok());

  store::Database db(*schema);
  db.CreateObject("Broker").value();

  auto allowed = ParseQueryString("select checkBudget(b) from b in Broker");
  ASSERT_TRUE(allowed.ok());
  ASSERT_TRUE(BindQuery(*allowed.value(), *schema).ok());
  QueryEvaluator evaluator(db, registry.Find("clerk"));
  EXPECT_TRUE(evaluator.Run(*allowed.value()).ok());

  auto denied = ParseQueryString("select r_salary(b) from b in Broker");
  ASSERT_TRUE(denied.ok());
  ASSERT_TRUE(BindQuery(*denied.value(), *schema).ok());
  auto result = evaluator.Run(*denied.value());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kPermissionDenied);
}

TEST(QueryEvaluatorTest, CollectInvokedFunctions) {
  auto schema = BrokerSchema();
  auto query = ParseQueryString(
      "select w_budget(b, 1), checkBudget(b) from b in Broker "
      "where r_name(b) == \"J\"");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(BindQuery(*query.value(), *schema).ok());
  EXPECT_EQ(CollectInvokedFunctions(*query.value()),
            (std::set<std::string>{"w_budget", "checkBudget", "r_name"}));
}

TEST(QueryEvaluatorTest, UnboundQueryRejected) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  auto query = ParseQueryString("select 1 from b in Broker");
  ASSERT_TRUE(query.ok());
  QueryEvaluator evaluator(db, nullptr);
  EXPECT_FALSE(evaluator.Run(*query.value()).ok());
}

TEST(QueryEvaluatorTest, EmptyExtentYieldsNoRows) {
  auto schema = BrokerSchema();
  store::Database db(*schema);
  auto query = ParseQueryString("select r_name(b) from b in Broker");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(BindQuery(*query.value(), *schema).ok());
  QueryEvaluator evaluator(db, nullptr);
  EXPECT_TRUE(evaluator.Run(*query.value())->rows.empty());
}

}  // namespace
}  // namespace oodbsec::query
