// Per-rule coverage of the static inference system F(F) (paper Table 2,
// experiment T2): every axiom and rule family demonstrated on a minimal
// crafted workload, including the provenance guards that block feedback.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/requirement.h"
#include "schema/user.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

using unfold::NodeKind;
using unfold::UnfoldedSet;

// Builds a schema from (name, params, return, body) tuples over one
// class C with int attributes a, b and a C-typed attribute link.
std::unique_ptr<schema::Schema> MakeSchema(
    std::vector<std::array<std::string, 4>> functions) {
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}, {"b", "int"}, {"link", "C"}});
  for (auto& [name, params, ret, body] : functions) {
    std::vector<schema::SchemaBuilder::ParamSpec> specs;
    if (!params.empty()) {
      for (const std::string& piece : common::Split(params, ';')) {
        auto parts = common::Split(piece, ':');
        specs.push_back({std::string(common::StripWhitespace(parts[0])),
                         std::string(common::StripWhitespace(parts[1]))});
      }
    }
    builder.AddFunction(name, std::move(specs), ret, body);
  }
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

std::unique_ptr<UnfoldedSet> Unfold(const schema::Schema& schema,
                                    std::vector<std::string> roots) {
  auto result = UnfoldedSet::Build(schema, roots);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

// Finds the first occurrence satisfying `pred`.
template <typename Pred>
int FindNode(const UnfoldedSet& set, Pred pred) {
  for (int i = 1; i <= set.node_count(); ++i) {
    if (pred(*set.node(i))) return i;
  }
  return 0;
}

// --- Axioms (Table 2, rules 1-3) ---

TEST(Table2Axioms, OuterArgumentsAreAlterableAndKnown) {
  auto schema = MakeSchema({{"f", "x:int", "int", "x + 1"}});
  auto set = Unfold(*schema, {"f"});
  Closure closure(*set);
  int x = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kVarRef;
  });
  ASSERT_NE(x, 0);
  EXPECT_TRUE(closure.HasTa(x));
  EXPECT_TRUE(closure.HasPa(x));  // via ta => pa
  EXPECT_TRUE(closure.HasTi(x));
  EXPECT_TRUE(closure.HasPi(x));  // via ti => pi
}

TEST(Table2Axioms, ConstantsAreKnownButNotAlterable) {
  auto schema = MakeSchema({{"f", "x:int", "int", "x + 7"}});
  auto set = Unfold(*schema, {"f"});
  Closure closure(*set);
  int c = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kConstant;
  });
  ASSERT_NE(c, 0);
  EXPECT_TRUE(closure.HasTi(c));
  EXPECT_FALSE(closure.HasTa(c));
  EXPECT_FALSE(closure.HasPa(c));
}

TEST(Table2Axioms, RootBodyIsObserved) {
  auto schema = MakeSchema({{"f", "o:C", "int", "r_a(o)"}});
  auto set = Unfold(*schema, {"f"});
  Closure closure(*set);
  EXPECT_TRUE(closure.HasTi(set->roots()[0].body->id));
}

TEST(Table2Axioms, SameVariableOccurrencesAreEqual) {
  auto schema = MakeSchema({{"f", "x:int", "int", "x + x"}});
  auto set = Unfold(*schema, {"f"});
  Closure closure(*set);
  // Occurrences 1 and 2 are the two x's.
  EXPECT_EQ(set->node(1)->kind, NodeKind::kVarRef);
  EXPECT_EQ(set->node(2)->kind, NodeKind::kVarRef);
  EXPECT_TRUE(closure.AreEqual(1, 2));
}

TEST(Table2Axioms, SameTypeOuterArgumentsAreEqualPessimistically) {
  auto schema = MakeSchema({{"f", "x:int", "int", "x + 1"},
                            {"g", "y:int", "int", "y + 2"}});
  auto set = Unfold(*schema, {"f", "g"});
  Closure closure(*set);
  int x = 1, y = 4;  // f: 1:x 2:1 3:+ ; g: 4:y 5:2 6:+
  ASSERT_EQ(set->node(x)->kind, NodeKind::kVarRef);
  ASSERT_EQ(set->node(y)->kind, NodeKind::kVarRef);
  EXPECT_TRUE(closure.AreEqual(x, y));

  ClosureOptions off;
  off.same_type_argument_equality = false;
  Closure ablated(*set, off);
  EXPECT_FALSE(ablated.AreEqual(x, y));
}

TEST(Table2Axioms, DifferentTypeOuterArgumentsAreNotEqual) {
  auto schema = MakeSchema({{"f", "x:int", "int", "x + 1"},
                            {"g", "o:C", "int", "r_a(o)"}});
  auto set = Unfold(*schema, {"f", "g"});
  Closure closure(*set);
  EXPECT_FALSE(closure.AreEqual(1, 4));  // 1:x (int), 4:o (C)
}

TEST(Table2Axioms, LetBindingEqualsVariableAndBodyEqualsLet) {
  auto schema = MakeSchema({{"g", "y:int", "int", "y * 2"},
                            {"f", "x:int", "int", "g(x + 1)"}});
  auto set = Unfold(*schema, {"f"});
  Closure closure(*set);
  // f unfolds to: 1:x 2:1 3:+ 4:y 5:2 6:* 7:let(g).
  EXPECT_EQ(set->node(7)->kind, NodeKind::kLet);
  EXPECT_TRUE(closure.AreEqual(3, 4));  // bound expr = variable
  EXPECT_TRUE(closure.AreEqual(6, 7));  // body = let value
}

// --- Alterability rules (Table 2, rule 1) ---

TEST(Table2Alterability, ReadObjectChoicePerturbsRead) {
  auto schema = MakeSchema({{"f", "o:C", "int", "r_a(o)"}});
  auto set = Unfold(*schema, {"f"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  EXPECT_TRUE(closure.HasPa(read));
  EXPECT_FALSE(closure.HasTa(read));  // default: partial reading

  ClosureOptions total;
  total.read_object_total_alterability = true;
  Closure strict(*set, total);
  EXPECT_TRUE(strict.HasTa(read));
}

TEST(Table2Alterability, WrittenValueTotalReachesEqualObjectReads) {
  auto schema = MakeSchema({{"f", "o:C", "int", "r_a(o)"}});
  auto set = Unfold(*schema, {"f", "w_a"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  // The write's value argument is a totally alterable root argument;
  // its object is same-type-equal to f's o.
  EXPECT_TRUE(closure.HasTa(read));
}

TEST(Table2Alterability, WriteToOtherAttributeDoesNotReach) {
  auto schema = MakeSchema({{"f", "o:C", "int", "r_a(o)"}});
  auto set = Unfold(*schema, {"f", "w_b"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr && n.attribute == "a";
  });
  EXPECT_FALSE(closure.HasTa(read));
}

TEST(Table2Alterability, WriteObjectChoiceTotallyAltersReads) {
  // The user controls *which* object a write inside f targets; every
  // read of that attribute may then be redirected at. Use distinct
  // argument types (int vs C) so the same-type equality axiom cannot
  // provide the link; the rule under test must.
  auto schema = MakeSchema(
      {{"putThere", "o:C;v:int", "null", "w_a(r_link(o), v)"},
       {"g", "p:C", "int", "r_a(p)"}});
  auto set = Unfold(*schema, {"putThere", "g"});
  Closure closure(*set);
  int read = FindNode(*set, [&](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr && n.attribute == "a";
  });
  ASSERT_NE(read, 0);
  // r_link(o) is perturbable (object choice on o), so the write target
  // is, so the read of a is totally alterable.
  EXPECT_TRUE(closure.HasTa(read));
}

TEST(Table2Alterability, LetBindingPropagatesToVariableAndBody) {
  auto schema = MakeSchema({{"g", "y:int", "int", "y + 1"},
                            {"f", "x:int", "int", "g(x * 2)"}});
  auto set = Unfold(*schema, {"f"});
  Closure closure(*set);
  // 1:x 2:2 3:* 4:y 5:1 6:+ 7:let(g)
  EXPECT_TRUE(closure.HasTa(3));  // *: sweep left from ta[x]
  EXPECT_TRUE(closure.HasTa(4));  // let: bound expression to variable
  EXPECT_TRUE(closure.HasTa(6));  // +: sweep left
  EXPECT_TRUE(closure.HasTa(7));  // let: body to let value
}

// --- Inferability rules (Table 2, rule 2) ---

TEST(Table2Inferability, EqualityPropagatesInferability) {
  // v (known root arg of w_a) = the read of a on an equal object.
  auto schema = MakeSchema({{"f", "o:C", "int", "r_a(o) + 1"}});
  auto set = Unfold(*schema, {"f", "w_a"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  EXPECT_TRUE(closure.HasTi(read));
}

TEST(Table2Inferability, PiJoinToTi) {
  // Two differently-obtained partial inferabilities on the same read:
  // abs gives {-v, v}; the sign test pins the sign.
  auto schema = MakeSchema({{"mag", "o:C", "int", "abs(r_a(o))"},
                            {"pos", "o:C", "bool", "r_a(o) >= 0"}});
  auto set = Unfold(*schema, {"mag", "pos"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  EXPECT_TRUE(closure.HasTi(read));

  ClosureOptions off;
  off.pi_join_to_ti = false;
  Closure ablated(*set, off);
  EXPECT_FALSE(ablated.HasTi(read));
  EXPECT_TRUE(ablated.HasPi(read));  // each partial alone survives
}

TEST(Table2Inferability, SinglePartialSourceDoesNotBecomeTotal) {
  // abs alone: only one origin of partial inferability -> no join.
  auto schema = MakeSchema({{"mag", "o:C", "int", "abs(r_a(o))"}});
  auto set = Unfold(*schema, {"mag"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  EXPECT_TRUE(closure.HasPi(read));
  EXPECT_FALSE(closure.HasTi(read));
}

TEST(Table2Inferability, FeedbackGuardBlocksSelfJustification) {
  // A single observed comparison between two unknown reads must not
  // bootstrap total inferability on either: every inference about them
  // originates from the same occurrence and direction.
  auto schema = MakeSchema({{"cmp", "o:C", "bool", "r_a(o) >= r_b(o)"}});
  auto set = Unfold(*schema, {"cmp"});
  Closure closure(*set);
  int read_a = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr && n.attribute == "a";
  });
  int read_b = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr && n.attribute == "b";
  });
  EXPECT_FALSE(closure.HasTi(read_a));
  EXPECT_FALSE(closure.HasTi(read_b));
  EXPECT_FALSE(closure.HasPi(read_a));
  EXPECT_FALSE(closure.HasPi(read_b));
}

TEST(Table2Inferability, ReadsOfEqualObjectsAreEqual) {
  // Two functions both read attribute a of same-type arguments: the
  // reads are recognizably equal, so observing one infers the other.
  auto schema = MakeSchema({{"get", "o:C", "int", "r_a(o)"},
                            {"user2", "p:C", "bool", "r_a(p) >= 5"}});
  auto set = Unfold(*schema, {"get", "user2"});
  Closure closure(*set);
  int read_in_user2 = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr && n.id > 2;
  });
  ASSERT_NE(read_in_user2, 0);
  // get's result is observed and equals its read, which equals user2's
  // read (equal objects).
  EXPECT_TRUE(closure.HasTi(read_in_user2));
}

// --- pi* rules ---

TEST(Table2PiStar, ComparisonOutcomePairsOperandsThroughProducts) {
  // cmp(o) = r_a(o) >= r_b(o) and both reads exposed through separate
  // linear getters: the pair constraint plus the getters' invertibility
  // makes everything totally inferable.
  auto schema = MakeSchema({{"geta", "o:C", "int", "r_a(o) + 3"},
                            {"getb", "o:C", "int", "r_b(o) + 4"}});
  auto set = Unfold(*schema, {"geta", "getb"});
  Closure closure(*set);
  int read_a = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr && n.attribute == "a";
  });
  // ti[+] observed, ti[3] constant -> invert -> ti[r_a].
  EXPECT_TRUE(closure.HasTi(read_a));
}

TEST(Table2PiStar, PairPremiseSeesEveryOriginOfItsComponent) {
  // pi*: swap and join give every ordered pair of distinct classes in a
  // component every origin of every base pair in it. Here the pair "*:
  // pair pins left" reads, (abs(...), *), is concluded only with the
  // call's own origin, which its guard excludes, but its component also
  // holds the outer /'s (from "/: outcome pairs operands"), which
  // passes. So ti on 8 % r_a3(o) by (the * call, '-') must be derived.
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a0", "int"}, {"a2", "int"}, {"a3", "int"}});
  builder.AddFunction(
      "f", {{"o", "C"}}, "int",
      "(r_a3(o) / r_a2(o)) / ((8 % r_a3(o)) * abs(r_a2(o) * r_a0(o)))");
  auto built = std::move(builder).Build();
  ASSERT_TRUE(built.ok()) << built.status();
  auto set = Unfold(*built.value(), {"f"});
  Closure closure(*set);
  int star = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kBasicCall && n.basic->name() == "*" &&
           n.children[0]->kind == NodeKind::kBasicCall &&
           n.children[0]->basic->name() == "%";
  });
  ASSERT_NE(star, 0);
  int modulo = set->node(star)->children[0]->id;
  bool found = false;
  for (const DerivationStep& step : closure.steps()) {
    if (step.fact.kind == Fact::Kind::kTi &&
        step.fact.origin == Origin{star, '-'} &&
        closure.AreEqual(step.fact.a, modulo)) {
      EXPECT_EQ(step.rule, "*: pair pins left");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- Requirement sites and A(R) plumbing on crafted workloads ---

TEST(Table2Sites, IndirectSitesSeeBoundExpressions) {
  auto schema = MakeSchema({{"leak", "x:int", "int", "x"},
                            {"wrap", "o:C", "int", "leak(r_a(o))"}});
  schema::UserRegistry users(*schema);
  ASSERT_TRUE(users.AddUser("u").ok());
  ASSERT_TRUE(users.Grant("u", "wrap").ok());
  auto req = ParseRequirementString("(u, leak(x : pa))");
  ASSERT_TRUE(req.ok());
  auto report = AnalysisSession(*schema, users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  // leak's argument inside wrap is r_a(o): perturbable via object
  // choice -> the indirect invocation site violates the requirement.
  EXPECT_FALSE(report->satisfied);
  EXPECT_FALSE(report->flaws[0].is_root_site);
}

TEST(Table2Sites, FunctionNeverInvokedIsSatisfied) {
  auto schema = MakeSchema({{"leak", "x:int", "int", "x"},
                            {"other", "o:C", "int", "r_a(o)"}});
  schema::UserRegistry users(*schema);
  ASSERT_TRUE(users.AddUser("u").ok());
  ASSERT_TRUE(users.Grant("u", "other").ok());
  auto req = ParseRequirementString("(u, leak(x : pa) : ti)");
  ASSERT_TRUE(req.ok());
  auto report = AnalysisSession(*schema, users).Check(req.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
}

TEST(Table2Sites, AllListedCapabilitiesMustHoldAtOneSite) {
  // ti holds on the read (write grants it) but ta does not (no direct
  // write path into the *argument* beyond pa): a requirement listing
  // both must check them at the same site.
  auto schema = MakeSchema({{"get", "o:C", "int", "r_a(o) + 1"}});
  schema::UserRegistry users(*schema);
  ASSERT_TRUE(users.AddUser("u").ok());
  ASSERT_TRUE(users.Grant("u", "get").ok());
  // Without w_a: pi holds (invert from observed result)...
  auto pi_req = ParseRequirementString("(u, r_a(x) : pi)");
  ASSERT_TRUE(pi_req.ok());
  auto pi_report = AnalysisSession(*schema, users).Check(pi_req.value());
  ASSERT_TRUE(pi_report.ok());
  EXPECT_FALSE(pi_report->satisfied);
  // ...but pi together with ta does not (nothing grants write access).
  auto both_req = ParseRequirementString("(u, r_a(x) : pi : ta)");
  ASSERT_TRUE(both_req.ok());
  auto both_report = AnalysisSession(*schema, users).Check(both_req.value());
  ASSERT_TRUE(both_report.ok());
  EXPECT_TRUE(both_report->satisfied);
}

// --- Derivation machinery ---

TEST(Derivations, EveryFactHasPrintableDerivation) {
  auto schema = MakeSchema({{"cmp", "o:C", "bool", "r_a(o) >= 2 * r_b(o)"}});
  auto set = Unfold(*schema, {"cmp", "w_b"});
  Closure closure(*set);
  for (size_t i = 0; i < closure.fact_count(); ++i) {
    std::string text = closure.ExplainFact(static_cast<FactId>(i));
    EXPECT_FALSE(text.empty());
    // Premises precede conclusions: the last line is the fact itself.
    EXPECT_NE(text.find(closure.FactToString(closure.steps()[i].fact)),
              std::string::npos);
  }
}

TEST(Derivations, PremisesAlwaysPrecedeConclusions) {
  auto schema = MakeSchema({{"cmp", "o:C", "bool", "r_a(o) >= 2 * r_b(o)"}});
  auto set = Unfold(*schema, {"cmp", "w_a", "w_b"});
  Closure closure(*set);
  for (size_t i = 0; i < closure.fact_count(); ++i) {
    for (FactId premise : closure.premises(static_cast<FactId>(i))) {
      EXPECT_LT(premise, static_cast<FactId>(i));
      EXPECT_GE(premise, 0);
    }
  }
}

// --- Parameterized sweep: comparison operators behave uniformly ---

class ComparisonOperatorSweep : public ::testing::TestWithParam<const char*> {
};

TEST_P(ComparisonOperatorSweep, ProbingLeaksThroughEveryComparison) {
  std::string body = common::StrCat("r_a(o) ", GetParam(), " t");
  auto schema = MakeSchema({{"test", "o:C;t:int", "bool", body}});
  auto set = Unfold(*schema, {"test"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  // The caller-controlled threshold makes the hidden side of any
  // comparison totally inferable (the probe rule).
  EXPECT_TRUE(closure.HasTi(read)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOperators, ComparisonOperatorSweep,
                         ::testing::Values(">=", "<=", ">", "<", "==",
                                           "!="));

// Arithmetic wrappers leak their operand once the result is observed
// and the other operand is a constant.
class InvertibleOperatorSweep
    : public ::testing::TestWithParam<const char*> {};

TEST_P(InvertibleOperatorSweep, ConstantWrapperLeaksOperand) {
  std::string body = common::StrCat("r_a(o) ", GetParam(), " 7");
  auto schema = MakeSchema({{"get", "o:C", "int", body}});
  auto set = Unfold(*schema, {"get"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  EXPECT_TRUE(closure.HasTi(read)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PlusMinusTimes, InvertibleOperatorSweep,
                         ::testing::Values("+", "-", "*"));

// Division truncates: only partial inferability.
TEST(Table2Inferability, DivisionWrapperLeaksOnlyPartially) {
  auto schema = MakeSchema({{"get", "o:C", "int", "r_a(o) / 7"}});
  auto set = Unfold(*schema, {"get"});
  Closure closure(*set);
  int read = FindNode(*set, [](const unfold::Node& n) {
    return n.kind == NodeKind::kReadAttr;
  });
  EXPECT_TRUE(closure.HasPi(read));
  EXPECT_FALSE(closure.HasTi(read));
}

}  // namespace
}  // namespace oodbsec::core
