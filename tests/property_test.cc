// Property-based tests: randomized invariants across the whole stack.
//
//  * parser/printer round-trip is a fixpoint for random expressions;
//  * the AST interpreter and the unfolded-tree executor agree;
//  * the closure is monotone in the capability list (more grants never
//    remove derived capabilities) — the lattice property A(R) relies on;
//  * capability implications hold everywhere in every closure
//    (ti => pi, ta => pa);
//  * the oracle never contradicts the analyzer (per-seed soundness, the
//    cheap in-tree version of experiment S1);
//  * a requirement the analyzer declares SATISFIED cannot be realized
//    by the probing attack (soundness, attack-level).
#include <gtest/gtest.h>

#include <random>

#include "attack/attacks.h"
#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "exec/evaluator.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "semantics/execution.h"
#include "semantics/oracle.h"
#include "text/workspace.h"
#include "unfold/unfolded.h"

namespace oodbsec {
namespace {

using types::Value;

// --- Random expression generator (well-typed int expressions over
// variables x, y and an object parameter's attributes) ---

std::string RandomIntExpr(std::mt19937& rng, int depth) {
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  if (depth == 0) {
    switch (pick(4)) {
      case 0:
        return "x";
      case 1:
        return "y";
      case 2:
        return std::to_string(pick(20) - 10);
      default:
        return "r_a(o)";
    }
  }
  static const char* kOps[] = {"+", "-", "*", "/", "%", "min", "max"};
  const char* op = kOps[pick(7)];
  std::string lhs = RandomIntExpr(rng, depth - 1);
  std::string rhs = RandomIntExpr(rng, depth - 1);
  if (op[0] == 'm') {  // min/max use call syntax
    return common::StrCat(op, "(", lhs, ", ", rhs, ")");
  }
  if (pick(4) == 0) {  // sometimes the paper's prefix form
    return common::StrCat(op, "(", lhs, ", ", rhs, ")");
  }
  return common::StrCat("(", lhs, " ", op, " ", rhs, ")");
}

class RoundTripProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RoundTripProperty, PrintParsePrintIsFixpoint) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    std::string source = RandomIntExpr(rng, 3);
    auto first = lang::ParseExpressionString(source);
    ASSERT_TRUE(first.ok()) << source << ": " << first.status();
    for (lang::PrintStyle style :
         {lang::PrintStyle::kInfix, lang::PrintStyle::kPrefix}) {
      std::string printed = lang::PrintExpr(*first.value(), style);
      auto second = lang::ParseExpressionString(printed);
      ASSERT_TRUE(second.ok()) << printed << ": " << second.status();
      EXPECT_EQ(lang::PrintExpr(*second.value(), style), printed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

// --- Interpreter vs unfolded-tree executor ---

class EvaluatorAgreementProperty
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EvaluatorAgreementProperty, AstAndUnfoldedTreesAgree) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::string body = RandomIntExpr(rng, 3);
    schema::SchemaBuilder builder;
    builder.AddClass("C", {{"a", "int"}});
    builder.AddFunction("f", {{"o", "C"}, {"x", "int"}, {"y", "int"}},
                        "int", body);
    auto schema = std::move(builder).Build();
    ASSERT_TRUE(schema.ok()) << body << ": " << schema.status();

    store::Database db(*schema.value());
    types::Oid obj = db.CreateObject("C").value();
    ASSERT_TRUE(
        db.WriteAttribute(obj, "a",
                          Value::Int(std::uniform_int_distribution<int>(
                              -5, 5)(rng)))
            .ok());
    int64_t x = std::uniform_int_distribution<int>(-5, 5)(rng);
    int64_t y = std::uniform_int_distribution<int>(-5, 5)(rng);
    std::vector<Value> args = {Value::Object(obj), Value::Int(x),
                               Value::Int(y)};

    // Path 1: the AST interpreter.
    exec::Evaluator evaluator(db);
    auto via_ast = evaluator.CallFunction(
        *schema.value()->FindFunction("f"), args);
    ASSERT_TRUE(via_ast.ok()) << body << ": " << via_ast.status();

    // Path 2: unfold + tree execution.
    auto set = unfold::UnfoldedSet::Build(*schema.value(), {"f"});
    ASSERT_TRUE(set.ok());
    auto execution = semantics::Execute(*set.value(), db, {args});
    ASSERT_TRUE(execution.ok()) << body << ": " << execution.status();

    EXPECT_EQ(via_ast.value(), execution->root_results[0]) << body;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorAgreementProperty,
                         ::testing::Values(7u, 17u, 27u, 37u));

// --- Closure monotonicity in the capability list ---

std::unique_ptr<schema::Schema> MonotonicitySchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}, {"b", "int"}});
  builder.AddFunction("cmp", {{"o", "C"}}, "bool",
                      "r_a(o) >= 2 * r_b(o)");
  builder.AddFunction("get", {{"o", "C"}}, "int", "r_a(o) + 1");
  builder.AddFunction("upd", {{"o", "C"}}, "null",
                      "w_a(o, r_b(o) * 3)");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

class MonotonicityProperty
    : public ::testing::TestWithParam<std::string> {};

TEST_P(MonotonicityProperty, MoreGrantsNeverRemoveCapabilities) {
  auto schema = MonotonicitySchema();
  std::vector<std::string> base = {"cmp"};
  std::vector<std::string> extended = {"cmp", GetParam()};

  auto base_set = unfold::UnfoldedSet::Build(*schema, base);
  auto ext_set = unfold::UnfoldedSet::Build(*schema, extended);
  ASSERT_TRUE(base_set.ok());
  ASSERT_TRUE(ext_set.ok());
  core::Closure base_closure(*base_set.value());
  core::Closure ext_closure(*ext_set.value());

  // cmp is unfolded first in both sets, so its occurrence ids coincide.
  int shared = base_set.value()->node_count();
  for (int id = 1; id <= shared; ++id) {
    EXPECT_LE(base_closure.HasTa(id), ext_closure.HasTa(id)) << id;
    EXPECT_LE(base_closure.HasPa(id), ext_closure.HasPa(id)) << id;
    EXPECT_LE(base_closure.HasTi(id), ext_closure.HasTi(id)) << id;
    EXPECT_LE(base_closure.HasPi(id), ext_closure.HasPi(id)) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Extensions, MonotonicityProperty,
                         ::testing::Values("get", "upd", "w_a", "w_b",
                                           "r_a", "r_b"));

// --- Implications hold on every occurrence of random workloads ---

class ImplicationProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ImplicationProperty, TotalImpliesPartialEverywhere) {
  std::mt19937 rng(GetParam());
  auto schema = MonotonicitySchema();
  std::vector<std::string> all = {"cmp", "get", "upd", "w_a", "r_b"};
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(3);
  auto set = unfold::UnfoldedSet::Build(*schema, all);
  ASSERT_TRUE(set.ok());
  core::Closure closure(*set.value());
  for (int id = 1; id <= set.value()->node_count(); ++id) {
    if (closure.HasTa(id)) {
      EXPECT_TRUE(closure.HasPa(id)) << id;
    }
    if (closure.HasTi(id)) {
      EXPECT_TRUE(closure.HasPi(id)) << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Attack-level soundness ---

constexpr const char* kGuardedWorkspace = R"(
class Vault { label: string; secret: int; threshold: int; }
# The comparison uses a FIXED attribute, not a user-controlled probe...
function overThreshold(v: Vault): bool = r_secret(v) >= r_threshold(v);
user watcher can overThreshold, r_label;
object Vault { label = "gold", secret = 321, threshold = 100 }
)";

TEST(AttackSoundness, SatisfiedRequirementResistsTheProbingAttack) {
  auto workspace = text::LoadWorkspace(kGuardedWorkspace);
  ASSERT_TRUE(workspace.ok()) << workspace.status();

  // The analyzer declares the secret safe from total inference...
  auto req =
      core::ParseRequirementString("(watcher, r_secret(x) : ti)");
  ASSERT_TRUE(req.ok());
  core::AnalysisSession session(*workspace->schema, *workspace->users);
  auto report = session.Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->satisfied);

  // ...and indeed the probing attack has no write capability to drive:
  attack::BinarySearchConfig config;
  config.class_name = "Vault";
  config.select_attr = "label";
  config.select_value = Value::String("gold");
  config.write_fn = "w_threshold";
  config.compare_fn = "overThreshold";
  config.hi = 1000;
  auto transcript = attack::ExtractHiddenValue(
      *workspace->database, *workspace->users->Find("watcher"), config);
  EXPECT_FALSE(transcript.ok());
  EXPECT_EQ(transcript.status().code(),
            common::StatusCode::kPermissionDenied);
}

TEST(AttackSoundness, GrantingTheWriteFlipsBothVerdictAndAttack) {
  auto workspace = text::LoadWorkspace(kGuardedWorkspace);
  ASSERT_TRUE(workspace.ok());
  ASSERT_TRUE(workspace->users->Grant("watcher", "w_threshold").ok());

  auto req =
      core::ParseRequirementString("(watcher, r_secret(x) : ti)");
  ASSERT_TRUE(req.ok());
  core::AnalysisSession session(*workspace->schema, *workspace->users);
  auto report = session.Check(req.value());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->satisfied);

  attack::BinarySearchConfig config;
  config.class_name = "Vault";
  config.select_attr = "label";
  config.select_value = Value::String("gold");
  config.write_fn = "w_threshold";
  config.compare_fn = "overThreshold";
  // overThreshold tests secret >= threshold: true for SMALL probes.
  config.increasing = false;
  config.hi = 1000;
  auto transcript = attack::ExtractHiddenValue(
      *workspace->database, *workspace->users->Find("watcher"), config);
  ASSERT_TRUE(transcript.ok()) << transcript.status();
  EXPECT_EQ(transcript->inferred, Value::Int(321));
}

// --- Per-seed oracle soundness (cheap S1) ---

class OracleSoundnessProperty
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OracleSoundnessProperty, OracleNeverBeatsTheAnalyzer) {
  // One small fixed workload; the heavy randomized sweep lives in
  // bench_soundness_oracle.
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  builder.AddFunction("test", {{"o", "C"}, {"t", "int"}}, "bool",
                      "r_a(o) >= t");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok());

  std::vector<std::string> caps = {"test"};
  if (GetParam() % 2 == 0) caps.push_back("w_a");

  schema::UserRegistry users(*schema.value());
  ASSERT_TRUE(users.AddUser("u").ok());
  for (const auto& cap : caps) ASSERT_TRUE(users.Grant("u", cap).ok());
  core::AnalysisSession session(*schema.value(), users);
  auto analysis = session.BuildUser(*users.Find("u"));
  ASSERT_TRUE(analysis.ok());

  std::vector<store::Database> dbs;
  store::Database db(*schema.value());
  types::Oid obj = db.CreateObject("C").value();
  ASSERT_TRUE(db.WriteAttribute(obj, "a",
                                Value::Int(GetParam() % 3))
                  .ok());
  dbs.push_back(std::move(db));

  types::DomainMap domains;
  domains.Set(schema.value()->pool().Int(),
              types::Domain::IntRange(schema.value()->pool().Int(), 0, 4));
  domains.Set(schema.value()->pool().Bool(),
              types::Domain::Bools(schema.value()->pool().Bool()));
  semantics::Oracle oracle(*schema.value(), caps, std::move(dbs),
                           std::move(domains));

  const core::Closure& closure = analysis.value()->closure();
  const unfold::UnfoldedSet& set = analysis.value()->set();
  for (int id = 1; id <= set.node_count(); ++id) {
    if (set.node(id)->kind != unfold::NodeKind::kReadAttr) continue;
    semantics::Target target = semantics::Oracle::TargetFor(set, id);
    auto check = [&](core::Capability cap, bool analyzer_says) {
      auto oracle_says = oracle.Can(cap, target);
      ASSERT_TRUE(oracle_says.ok());
      if (oracle_says.value()) {
        EXPECT_TRUE(analyzer_says)
            << "soundness violation at " << set.ShortLabel(id) << " cap "
            << core::CapabilityName(cap);
      }
    };
    check(core::Capability::kTotalInferability, closure.HasTi(id));
    check(core::Capability::kPartialInferability, closure.HasPi(id));
    check(core::Capability::kTotalAlterability, closure.HasTa(id));
    check(core::Capability::kPartialAlterability, closure.HasPa(id));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSoundnessProperty,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace oodbsec
