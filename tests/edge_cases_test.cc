// Edge cases and failure-injection across modules: boundary inputs the
// main suites don't reach.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "exec/evaluator.h"
#include "lang/parser.h"
#include "query/binder.h"
#include "query/query_evaluator.h"
#include "query/query_parser.h"
#include "schema/user.h"
#include "semantics/execution.h"
#include "text/workspace.h"
#include "unfold/unfolded.h"

namespace oodbsec {
namespace {

using types::Value;

// --- Empty and degenerate analysis inputs ---

TEST(EdgeCases, EmptyCapabilityListIsAlwaysSafe) {
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  schema::UserRegistry users(*schema.value());
  ASSERT_TRUE(users.AddUser("nobody").ok());
  auto req = core::ParseRequirementString("(nobody, r_a(x) : pi)");
  ASSERT_TRUE(req.ok());
  auto report =
      core::AnalysisSession(*schema.value(), users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
  EXPECT_EQ(report->node_count, 0);
}

TEST(EdgeCases, ZeroArgumentFunction) {
  schema::SchemaBuilder builder;
  builder.AddFunction("answer", {}, "int", "41 + 1");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();

  store::Database db(*schema.value());
  exec::Evaluator evaluator(db);
  EXPECT_EQ(evaluator.CallByName("answer", {}).value(), Value::Int(42));

  auto set = unfold::UnfoldedSet::Build(*schema.value(), {"answer"});
  ASSERT_TRUE(set.ok());
  core::Closure closure(*set.value());
  // The whole body is a constant expression: observed and derivable.
  EXPECT_TRUE(closure.HasTi(set.value()->roots()[0].body->id));
  EXPECT_FALSE(closure.HasPa(set.value()->roots()[0].body->id));
}

TEST(EdgeCases, UnusedParameterIsHarmless) {
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  builder.AddFunction("ignore", {{"o", "C"}, {"x", "int"}}, "int", "7");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  schema::UserRegistry users(*schema.value());
  ASSERT_TRUE(users.AddUser("u").ok());
  ASSERT_TRUE(users.Grant("u", "ignore").ok());
  // Requirements on the unused argument hold trivially at the root site
  // (the user supplies it), so this is flagged...
  auto req = core::ParseRequirementString("(u, ignore(o, x : ta) : ti)");
  ASSERT_TRUE(req.ok());
  auto report =
      core::AnalysisSession(*schema.value(), users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(EdgeCases, RequirementOnWriteResultIsSatisfiable) {
  // w_a returns null; requiring non-inference of a null result is
  // odd but legal — and violated, since null is trivially known.
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  schema::UserRegistry users(*schema.value());
  ASSERT_TRUE(users.AddUser("u").ok());
  ASSERT_TRUE(users.Grant("u", "w_a").ok());
  auto req = core::ParseRequirementString("(u, w_a(o, v) : ti)");
  ASSERT_TRUE(req.ok());
  auto report =
      core::AnalysisSession(*schema.value(), users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

// --- Language / evaluator boundaries ---

TEST(EdgeCases, DeeplyNestedExpressionsParseAndEvaluate) {
  std::string body = "x";
  for (int i = 0; i < 200; ++i) body = "(" + body + " + 1)";
  schema::SchemaBuilder builder;
  builder.AddFunction("deep", {{"x", "int"}}, "int", body);
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  store::Database db(*schema.value());
  exec::Evaluator evaluator(db);
  EXPECT_EQ(evaluator.CallByName("deep", {Value::Int(0)}).value(),
            Value::Int(200));
}

TEST(EdgeCases, ShadowingInNestedLets) {
  schema::SchemaBuilder builder;
  builder.AddFunction("shadow", {{"x", "int"}}, "int",
                      "let x = x + 1 in let x = x * 2 in x end end");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  store::Database db(*schema.value());
  exec::Evaluator evaluator(db);
  // (3+1)*2 = 8.
  EXPECT_EQ(evaluator.CallByName("shadow", {Value::Int(3)}).value(),
            Value::Int(8));
}

TEST(EdgeCases, SequentialLetBindingsSeeEarlierOnes) {
  schema::SchemaBuilder builder;
  builder.AddFunction("seq", {{"x", "int"}}, "int",
                      "let a = x + 1, b = a * 2, c = b - a in c end");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  store::Database db(*schema.value());
  exec::Evaluator evaluator(db);
  // a=4, b=8, c=4.
  EXPECT_EQ(evaluator.CallByName("seq", {Value::Int(3)}).value(),
            Value::Int(4));
}

TEST(EdgeCases, IntegerOverflowWrapsSilently) {
  // Documented behavior: int64 arithmetic, no checks (the analysis
  // layer treats domains abstractly anyway).
  schema::SchemaBuilder builder;
  builder.AddFunction("big", {{"x", "int"}}, "int", "x * x");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  store::Database db(*schema.value());
  exec::Evaluator evaluator(db);
  EXPECT_TRUE(evaluator.CallByName("big", {Value::Int(1LL << 40)}).ok());
}

// --- Total integer evaluation and parsing (DESIGN §3) ---
//
// Query text is untrusted: any user who may submit a query reaches the
// parser and, through basic functions that need no capability, integer
// evaluation. Each case below once killed the serving process.

struct BrokerWorld {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<store::Database> db;

  BrokerWorld() {
    schema::SchemaBuilder builder;
    builder.AddClass("Broker", {{"budget", "int"}});
    auto result = std::move(builder).Build();
    EXPECT_TRUE(result.ok());
    schema = std::move(result).value();
    db = std::make_unique<store::Database>(*schema);
    EXPECT_TRUE(db->CreateObject("Broker").ok());
  }

  // The status of parsing, binding and running `text`.
  common::Result<query::QueryResult> Run(const std::string& text) {
    OODBSEC_ASSIGN_OR_RETURN(auto parsed, query::ParseQueryString(text));
    OODBSEC_RETURN_IF_ERROR(query::BindQuery(*parsed, *schema));
    return query::QueryEvaluator(*db, nullptr).Run(*parsed);
  }

  // The single value `select <expr> from b in Broker` yields.
  Value Eval(const std::string& expr) {
    auto result = Run("select " + expr + " from b in Broker");
    EXPECT_TRUE(result.ok()) << expr << ": " << result.status();
    if (!result.ok() || result.value().rows.size() != 1) return Value();
    return result.value().rows[0][0];
  }
};

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(TotalIntegers, MinDividedByMinusOneIsMin) {
  BrokerWorld world;  // SIGFPE before the quotient was defined
  EXPECT_EQ(world.Eval("(0 - 9223372036854775807 - 1) / (0 - 1)"),
            Value::Int(kMin));
}

TEST(TotalIntegers, MinRemainderMinusOneIsZero) {
  BrokerWorld world;  // SIGFPE before the remainder was defined
  EXPECT_EQ(world.Eval("(0 - 9223372036854775807 - 1) % (0 - 1)"),
            Value::Int(0));
  EXPECT_EQ(world.Eval("7 % (0 - 1)"), Value::Int(0));
}

TEST(TotalIntegers, ArithmeticWrapsInTwosComplement) {
  // Signed overflow used to be undefined behaviour; UBSan aborts on it.
  BrokerWorld world;
  EXPECT_EQ(world.Eval("9223372036854775807 + 1"), Value::Int(kMin));
  EXPECT_EQ(world.Eval("0 - 9223372036854775807 - 2"), Value::Int(kMax));
  EXPECT_EQ(world.Eval("9223372036854775807 * 2"), Value::Int(-2));
  EXPECT_EQ(world.Eval("neg(0 - 9223372036854775807 - 1)"), Value::Int(kMin));
  EXPECT_EQ(world.Eval("abs(0 - 9223372036854775807 - 1)"), Value::Int(kMin));
}

TEST(TotalIntegers, OutOfRangeLiteralIsLexicalError) {
  // Lexer::Next used to overflow: 99999999999999999999 read as
  // 7766279631452241919. INT64_MIN prints as -9223372036854775808, so
  // 2^63 reads right after a unary minus and nowhere else.
  BrokerWorld world;
  EXPECT_EQ(world.Eval("9223372036854775807"), Value::Int(kMax));
  EXPECT_EQ(world.Eval("-9223372036854775808"), Value::Int(kMin));
  EXPECT_EQ(world.Eval("- -9223372036854775808"), Value::Int(kMin));
  for (const char* expr :
       {"9223372036854775808", "99999999999999999999",
        "0 - 9223372036854775808", "-(9223372036854775808)"}) {
    auto result = world.Run(common::StrCat("select ", expr,
                                           " from b in Broker"));
    ASSERT_FALSE(result.ok()) << expr;
    EXPECT_EQ(result.status().code(), common::StatusCode::kParseError);
    EXPECT_NE(result.status().message().find("integer literal out of range"),
              std::string::npos)
        << result.status();
  }
}

std::string Repeat(const std::string& piece, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += piece;
  return out;
}

TEST(TotalIntegers, QueryNestingPastTheCapIsParseError) {
  // 10,000 parentheses overflowed the parser's stack (SIGSEGV); so did
  // long not/minus runs, operator chains and nested selects.
  BrokerWorld world;
  EXPECT_EQ(world.Eval(Repeat("(", lang::kMaxNesting - 1) + "1" +
                       Repeat(")", lang::kMaxNesting - 1)),
            Value::Int(1));
  EXPECT_EQ(world.Eval("0" + Repeat(" + 1", lang::kMaxNesting - 1)),
            Value::Int(lang::kMaxNesting - 1));
  const std::string deep[] = {
      Repeat("(", 10000) + "1" + Repeat(")", 10000),
      Repeat("(", lang::kMaxNesting) + "1" + Repeat(")", lang::kMaxNesting),
      Repeat("not ", 100000) + "true",
      Repeat("- ", 100000) + "b",
      "1" + Repeat(" + 1", 100000),
      "1" + Repeat(" + 1", lang::kMaxNesting),
      Repeat("f(", 10000) + "1" + Repeat(")", 10000),
      Repeat("let x = ", 10000) + "1" + Repeat(" in x end", 10000),
  };
  for (const std::string& expr : deep) {
    auto result = world.Run("select " + expr + " from b in Broker");
    ASSERT_FALSE(result.ok()) << expr.substr(0, 40);
    EXPECT_EQ(result.status().code(), common::StatusCode::kParseError)
        << result.status();
  }
  auto selects = world.Run(Repeat("select ", 10000) + "1" +
                           Repeat(" from b in Broker", 10000));
  ASSERT_FALSE(selects.ok());
  EXPECT_EQ(selects.status().code(), common::StatusCode::kParseError);
}

TEST(TotalIntegers, WorkspaceNestingPastTheCapIsParseError) {
  const std::string deep_body =
      "class C { a: int; }\nfunction f(o: C): int = " + Repeat("(", 10000) +
      "1" + Repeat(")", 10000) + ";\n";
  auto body = text::LoadWorkspace(deep_body);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), common::StatusCode::kParseError);
  const std::string deep_type = "class C { a: " + Repeat("{", 10000) + "int" +
                                Repeat("}", 10000) + "; }\n";
  auto type = text::LoadWorkspace(deep_type);
  ASSERT_FALSE(type.ok());
  EXPECT_EQ(type.status().code(), common::StatusCode::kParseError);
}

// --- Query engine boundaries ---

struct QueryWorld {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<store::Database> db;

  QueryWorld() {
    schema::SchemaBuilder builder;
    builder.AddClass("P", {{"n", "int"}, {"kids", "{P}"}});
    auto result = std::move(builder).Build();
    EXPECT_TRUE(result.ok());
    schema = std::move(result).value();
    db = std::make_unique<store::Database>(*schema);
  }

  query::QueryResult Run(const std::string& text) {
    auto parsed = query::ParseQueryString(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_TRUE(query::BindQuery(*parsed.value(), *schema).ok());
    query::QueryEvaluator evaluator(*db, nullptr);
    auto result = evaluator.Run(*parsed.value());
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  }
};

TEST(EdgeCases, CrossProductOfBindings) {
  QueryWorld world;
  for (int i = 0; i < 3; ++i) {
    types::Oid oid = world.db->CreateObject("P").value();
    ASSERT_TRUE(world.db->WriteAttribute(oid, "n", Value::Int(i)).ok());
  }
  auto result = world.Run("select r_n(a) + r_n(b) from a in P, b in P");
  EXPECT_EQ(result.rows.size(), 9u);
}

TEST(EdgeCases, EmptySetSourceYieldsNoRows) {
  QueryWorld world;
  world.db->CreateObject("P").value();
  // kids defaults to {} — the inner binding finds nothing.
  auto result = world.Run("select r_n(k) from p in P, k in r_kids(p)");
  EXPECT_TRUE(result.rows.empty());
}

TEST(EdgeCases, NullSetSourceYieldsNoRows) {
  QueryWorld world;
  types::Oid oid = world.db->CreateObject("P").value();
  ASSERT_TRUE(world.db->WriteAttribute(oid, "kids", Value::Null()).ok());
  auto result = world.Run("select r_n(k) from p in P, k in r_kids(p)");
  EXPECT_TRUE(result.rows.empty());
}

TEST(EdgeCases, NestedSubqueryOverEmptySet) {
  QueryWorld world;
  world.db->CreateObject("P").value();
  auto result =
      world.Run("select (select r_n(k) from k in r_kids(p)) from p in P");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], Value::Set({}));
}

TEST(EdgeCases, WhereClauseRuntimeErrorPropagates) {
  QueryWorld world;
  types::Oid a = world.db->CreateObject("P").value();
  (void)a;
  // r_n on a null object inside where: the evaluator must surface it.
  schema::SchemaBuilder builder;
  builder.AddClass("P", {{"n", "int"}, {"kids", "{P}"}, {"peer", "P"}});
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  store::Database db(*schema.value());
  db.CreateObject("P").value();  // peer stays null
  auto parsed = query::ParseQueryString(
      "select 1 from p in P where r_n(r_peer(p)) >= 0");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(query::BindQuery(*parsed.value(), *schema.value()).ok());
  query::QueryEvaluator evaluator(db, nullptr);
  auto result = evaluator.Run(*parsed.value());
  EXPECT_FALSE(result.ok());
}

// --- Unfolding boundaries ---

TEST(EdgeCases, DiamondCallGraphUnfoldsBothPaths) {
  // f calls g and h, both call leaf: the unfolding duplicates leaf.
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  builder.AddFunction("leaf", {{"o", "C"}}, "int", "r_a(o)");
  builder.AddFunction("g", {{"o", "C"}}, "int", "leaf(o) + 1");
  builder.AddFunction("h", {{"o", "C"}}, "int", "leaf(o) * 2");
  builder.AddFunction("f", {{"o", "C"}}, "int", "g(o) + h(o)");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto set = unfold::UnfoldedSet::Build(*schema.value(), {"f"});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value()->reads("a").size(), 2u);
}

TEST(EdgeCases, ExecutionOfDuplicatedReadsIsConsistent) {
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  builder.AddFunction("twice", {{"o", "C"}}, "int", "r_a(o) + r_a(o)");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  store::Database db(*schema.value());
  types::Oid oid = db.CreateObject("C").value();
  ASSERT_TRUE(db.WriteAttribute(oid, "a", Value::Int(21)).ok());
  auto set = unfold::UnfoldedSet::Build(*schema.value(), {"twice"});
  ASSERT_TRUE(set.ok());
  auto execution =
      semantics::Execute(*set.value(), db, {{Value::Object(oid)}});
  ASSERT_TRUE(execution.ok());
  EXPECT_EQ(execution->root_results[0], Value::Int(42));
}

// --- Text format boundaries ---

TEST(EdgeCases, WorkspaceWithOnlyComments) {
  auto workspace = text::LoadWorkspace("# nothing\n// here either\n");
  ASSERT_TRUE(workspace.ok()) << workspace.status();
  EXPECT_TRUE(workspace->schema->classes().empty());
}

TEST(EdgeCases, WorkspaceObjectWithNoFields) {
  auto workspace = text::LoadWorkspace(R"(
class C { a: int; }
object C { }
)");
  ASSERT_TRUE(workspace.ok()) << workspace.status();
  ASSERT_EQ(workspace->database->Extent("C").size(), 1u);
  types::Oid oid = workspace->database->Extent("C")[0];
  EXPECT_EQ(workspace->database->ReadAttribute(oid, "a").value(),
            Value::Int(0));
}

TEST(EdgeCases, WorkspaceNegativeObjectField) {
  auto workspace = text::LoadWorkspace(R"(
class C { a: int; }
object C { a = -5 }
)");
  ASSERT_TRUE(workspace.ok()) << workspace.status();
  types::Oid oid = workspace->database->Extent("C")[0];
  EXPECT_EQ(workspace->database->ReadAttribute(oid, "a").value(),
            Value::Int(-5));
}

TEST(EdgeCases, RequirementWithCapsOnEverything) {
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  builder.AddFunction("get", {{"o", "C"}}, "int", "r_a(o)");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());
  schema::UserRegistry users(*schema.value());
  ASSERT_TRUE(users.AddUser("u").ok());
  ASSERT_TRUE(users.Grant("u", "get").ok());
  // All four caps on the argument and both inferabilities on the result:
  // the root site satisfies argument caps trivially and the body is
  // observed, so this must be flagged.
  auto req = core::ParseRequirementString(
      "(u, get(o : ti : pi : ta : pa) : ti : pi)");
  ASSERT_TRUE(req.ok());
  auto report =
      core::AnalysisSession(*schema.value(), users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

}  // namespace
}  // namespace oodbsec
