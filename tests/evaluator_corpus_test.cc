// The evaluator's differential oracle over the verdict corpus
// (verdict_corpus.h).
//
// Every corpus workspace gets a seeded database: one to three objects
// per class, random int, bool and string attributes, and object-valued
// attributes that point at an object of their class or are null. Then
// two independent interpreters must agree on it:
//
//   * every function, called with seeded arguments through
//     exec::Evaluator::CallFunction on one clone of the database and
//     through semantics::Execute on a one-root UnfoldedSet on another,
//     returns the same value or fails on both, and leaves the same
//     attributes on every object either way;
//   * for every function f with a single class-typed parameter, the
//     rows of `select f(x) from x in C` equal, row by row, the results
//     semantics::Execute returns object by object in extent order on a
//     third clone (and the query fails exactly when one of those
//     executions does), with the same attributes left behind.
//
// semantics::Execute walks the unfolded tree with its own environment,
// so it is independent of the AST evaluator and of the query engine.
// It returns at each node's first error, so comparing the attributes
// after a failure checks that no write runs after the first error.
// A failure names the seed; corpus::GenerateWorkspace(seed) returns
// the workspace text.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "query/binder.h"
#include "query/query_evaluator.h"
#include "query/query_parser.h"
#include "semantics/execution.h"
#include "store/database.h"
#include "unfold/unfolded.h"
#include "verdict_corpus.h"

namespace oodbsec::corpus {
namespace {

using types::Value;

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kSeeds = 1000;

// A value of `type`: ints mostly small, now and then large enough that
// products overflow; object references to a random object of the class,
// or null one time in five.
Value RandomValue(const types::Type* type, const store::Database& db,
                  Rng& rng) {
  switch (type->kind()) {
    case types::TypeKind::kInt:
      if (rng.Chance(10)) {
        return Value::Int((rng.Chance(50) ? 1 : -1) *
                          static_cast<int64_t>(rng.Range(1, 1 << 30)) *
                          static_cast<int64_t>(rng.Range(1, 1 << 20)));
      }
      return Value::Int(rng.Range(-20, 20));
    case types::TypeKind::kBool:
      return Value::Bool(rng.Chance(50));
    case types::TypeKind::kString: {
      static const std::vector<std::string> kStrings = {"", "s0", "s1", "s2",
                                                        "s0s1"};
      return Value::String(rng.Pick(kStrings));
    }
    case types::TypeKind::kClass: {
      const std::vector<types::Oid>& extent = db.Extent(type->class_name());
      if (extent.empty() || rng.Chance(20)) return Value::Null();
      return Value::Object(extent[static_cast<size_t>(
          rng.Below(static_cast<int>(extent.size())))]);
    }
    case types::TypeKind::kNull:
    case types::TypeKind::kSet:
      return Value::Null();
  }
  return Value::Null();
}

// One to three objects per class, every attribute set at random.
store::Database SeededDatabase(const schema::Schema& schema, Rng& rng) {
  store::Database db(schema);
  for (const auto& cls : schema.classes()) {
    const int count = rng.Range(1, 3);
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(db.CreateObject(cls->name()).ok());
    }
  }
  for (const auto& cls : schema.classes()) {
    for (types::Oid oid : db.Extent(cls->name())) {
      for (const schema::AttributeDef& attr : cls->attributes()) {
        EXPECT_TRUE(
            db.WriteAttribute(oid, attr.name, RandomValue(attr.type, db, rng))
                .ok());
      }
    }
  }
  return db;
}

// Every attribute of every object, class by class in extent order.
std::vector<Value> State(const store::Database& db) {
  std::vector<Value> state;
  for (const auto& cls : db.schema().classes()) {
    for (types::Oid oid : db.Extent(cls->name())) {
      for (const schema::AttributeDef& attr : cls->attributes()) {
        state.push_back(db.ReadAttribute(oid, attr.name).value());
      }
    }
  }
  return state;
}

struct Tally {
  int calls_ok = 0;
  int calls_failed = 0;
  int queries_ok = 0;
  int queries_failed = 0;
};

void CheckSeed(uint64_t seed, Tally& tally) {
  const std::string where = common::StrCat("seed ", seed);
  auto loaded = text::LoadWorkspace(GenerateWorkspace(seed));
  ASSERT_TRUE(loaded.ok()) << where << ": " << loaded.status();
  const schema::Schema& schema = *loaded.value().schema;
  Rng rng(seed ^ 0x5eedda7a5eedda7aull);
  const store::Database db = SeededDatabase(schema, rng);

  for (const auto& fn : schema.functions()) {
    const std::string at = common::StrCat(where, ", ", fn->name());
    auto set = unfold::UnfoldedSet::Build(schema, {fn->name()});
    ASSERT_TRUE(set.ok()) << at << ": " << set.status();

    std::vector<Value> args;
    for (const schema::Param& param : fn->params()) {
      args.push_back(RandomValue(param.type, db, rng));
    }
    store::Database via_ast_db = db.Clone();
    exec::Evaluator evaluator(via_ast_db);
    auto via_ast = evaluator.CallFunction(*fn, args);
    store::Database via_tree_db = db.Clone();
    auto via_tree = semantics::Execute(*set.value(), via_tree_db, {args});
    ASSERT_EQ(via_ast.ok(), via_tree.ok())
        << at << ": evaluator "
        << (via_ast.ok() ? via_ast.value().ToString()
                         : via_ast.status().ToString())
        << ", unfolded tree "
        << (via_tree.ok() ? via_tree.value().root_results[0].ToString()
                          : via_tree.status().ToString());
    if (via_ast.ok()) {
      ++tally.calls_ok;
      EXPECT_EQ(via_ast.value(), via_tree.value().root_results[0]) << at;
    } else {
      ++tally.calls_failed;
    }
    EXPECT_EQ(State(via_ast_db), State(via_tree_db)) << at;

    if (fn->params().size() != 1 || !fn->params()[0].type->is_class()) {
      continue;
    }
    const std::string& cls = fn->params()[0].type->class_name();
    auto query = query::ParseQueryString(
        common::StrCat("select ", fn->name(), "(x) from x in ", cls));
    ASSERT_TRUE(query.ok()) << at << ": " << query.status();
    ASSERT_TRUE(query::BindQuery(*query.value(), schema).ok()) << at;
    store::Database query_db = db.Clone();
    auto rows = query::QueryEvaluator(query_db, nullptr).Run(*query.value());

    store::Database tree_db = db.Clone();
    std::vector<std::vector<Value>> expected;
    bool tree_failed = false;
    for (types::Oid oid : tree_db.Extent(cls)) {
      auto run =
          semantics::Execute(*set.value(), tree_db, {{Value::Object(oid)}});
      if (!run.ok()) {
        tree_failed = true;
        break;
      }
      expected.push_back({run.value().root_results[0]});
    }
    ASSERT_EQ(rows.ok(), !tree_failed)
        << at << ": query "
        << (rows.ok() ? "succeeded" : rows.status().ToString());
    if (rows.ok()) {
      ++tally.queries_ok;
      EXPECT_EQ(rows.value().rows, expected) << at << " (query)";
    } else {
      ++tally.queries_failed;
    }
    EXPECT_EQ(State(query_db), State(tree_db)) << at << " (query)";
  }
}

TEST(EvaluatorCorpusTest, EvaluatorAndUnfoldedTreeAgreeOnEverySeed) {
  Tally tally;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    CheckSeed(seed, tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The oracle is only as strong as the calls that ran to the end: most
  // must, and some must fail on a null object on both sides.
  EXPECT_GT(tally.calls_ok, 3 * tally.calls_failed)
      << tally.calls_ok << " ok, " << tally.calls_failed << " failed";
  EXPECT_GT(tally.calls_failed, 0);
  EXPECT_GT(tally.queries_ok, kSeeds);
  std::printf("calls: %d ok, %d failed; queries: %d ok, %d failed\n",
              tally.calls_ok, tally.calls_failed, tally.queries_ok,
              tally.queries_failed);
}

}  // namespace
}  // namespace oodbsec::corpus
