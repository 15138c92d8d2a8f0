#include <gtest/gtest.h>

#include "common/strings.h"
#include "lang/printer.h"
#include "schema/schema.h"
#include "schema/user.h"

namespace oodbsec::schema {
namespace {

// The paper's running example (§3.1).
SchemaBuilder BrokerBuilder() {
  SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"}});
  builder.AddFunction(
      "checkBudget", {{"broker", "Broker"}}, "bool",
      ">=(r_budget(broker), *(10, r_salary(broker)))");
  builder.AddFunction("calcSalary", {{"budget", "int"}, {"profit", "int"}},
                      "int", "budget / 10 + profit / 2");
  builder.AddFunction(
      "updateSalary", {{"broker", "Broker"}}, "null",
      "w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))");
  return builder;
}

TEST(SchemaBuilderTest, BuildsBrokerSchema) {
  auto result = BrokerBuilder().Build();
  ASSERT_TRUE(result.ok()) << result.status();
  const Schema& schema = *result.value();

  const ClassDef* broker = schema.FindClass("Broker");
  ASSERT_NE(broker, nullptr);
  EXPECT_EQ(broker->attributes().size(), 4u);
  EXPECT_EQ(broker->AttributeIndex("salary"), 1);
  EXPECT_EQ(broker->FindAttribute("salary")->type, schema.pool().Int());
  EXPECT_EQ(broker->AttributeIndex("missing"), -1);

  const FunctionDecl* check = schema.FindFunction("checkBudget");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->SignatureToString(), "checkBudget(broker : Broker) : bool");
  EXPECT_NE(check->return_type(), nullptr);
}

TEST(SchemaBuilderTest, TypeChecksBodies) {
  // The checkBudget body is annotated and resolved after Build().
  auto result = BrokerBuilder().Build();
  ASSERT_TRUE(result.ok());
  const FunctionDecl* check = result.value()->FindFunction("checkBudget");
  const lang::CallExpr& body = check->body().AsCall();
  EXPECT_EQ(body.target(), lang::CallTarget::kBasic);
  ASSERT_NE(body.basic(), nullptr);
  EXPECT_EQ(body.basic()->name(), ">=");
  const lang::CallExpr& read = body.args()[0]->AsCall();
  EXPECT_EQ(read.target(), lang::CallTarget::kReadAttr);
  EXPECT_EQ(read.attribute(), "budget");
}

TEST(SchemaBuilderTest, ResolvesSpecialFunctions) {
  auto result = BrokerBuilder().Build();
  ASSERT_TRUE(result.ok());
  const Schema& schema = *result.value();

  Callable read = schema.ResolveCallable("r_salary");
  EXPECT_EQ(read.kind, Callable::Kind::kReadAttr);
  ASSERT_EQ(read.param_types.size(), 1u);
  EXPECT_EQ(read.param_types[0], schema.FindClass("Broker")->type());
  EXPECT_EQ(read.return_type, schema.pool().Int());

  Callable write = schema.ResolveCallable("w_salary");
  EXPECT_EQ(write.kind, Callable::Kind::kWriteAttr);
  ASSERT_EQ(write.param_types.size(), 2u);
  EXPECT_EQ(write.param_types[1], schema.pool().Int());
  EXPECT_EQ(write.return_type, schema.pool().Null());

  EXPECT_FALSE(schema.ResolveCallable("r_nothing").ok());
  EXPECT_FALSE(schema.ResolveCallable("unknown").ok());
  EXPECT_TRUE(schema.ResolveCallable("checkBudget").ok());
}

TEST(SchemaBuilderTest, RejectsDuplicateClass) {
  SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}});
  builder.AddClass("C", {{"b", "int"}});
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(SchemaBuilderTest, RejectsDuplicateAttributeAcrossClasses) {
  // Attribute names are schema-unique so r_<att> resolves (see schema.h).
  SchemaBuilder builder;
  builder.AddClass("A", {{"x", "int"}});
  builder.AddClass("B", {{"x", "int"}});
  auto result = std::move(builder).Build();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kAlreadyExists);
}

TEST(SchemaBuilderTest, RejectsUnknownAttributeType) {
  SchemaBuilder builder;
  builder.AddClass("A", {{"x", "Missing"}});
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(SchemaBuilderTest, RejectsUnknownParamClass) {
  SchemaBuilder builder;
  builder.AddFunction("f", {{"x", "Nowhere"}}, "int", "1");
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(SchemaBuilderTest, RejectsBodyTypeMismatch) {
  SchemaBuilder builder;
  builder.AddFunction("f", {{"x", "int"}}, "bool", "x + 1");
  auto result = std::move(builder).Build();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kTypeError);
}

TEST(SchemaBuilderTest, RejectsUnboundVariable) {
  SchemaBuilder builder;
  builder.AddFunction("f", {{"x", "int"}}, "int", "x + y");
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(SchemaBuilderTest, RejectsRecursion) {
  SchemaBuilder builder;
  builder.AddFunction("f", {{"x", "int"}}, "int", "g(x)");
  builder.AddFunction("g", {{"x", "int"}}, "int", "f(x)");
  auto result = std::move(builder).Build();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.status().message(),
            "recursive access functions are not allowed: cycle through 'f' "
            "(call chain: f -> g)");
}

// A chain of functions, each calling the next, declared callee-last:
// the call-graph check walks it with a stack of its own, so a chain far
// longer than a thread's stack could recurse through loads (50,000
// links used to overflow the default 8 MB stack), and the same chain
// closed into a cycle reports the cycle as a short one does.
TEST(SchemaBuilderTest, LongCallChainLoads) {
  constexpr int kLinks = 100000;
  auto build_chain = [](bool closed) {
    SchemaBuilder builder;
    builder.AddClass("A", {{"v", "int"}});
    for (int i = kLinks - 1; i > 0; --i) {
      builder.AddFunction(common::StrCat("f", i), {{"a", "A"}}, "int",
                          common::StrCat("f", i - 1, "(a)"));
    }
    builder.AddFunction(
        "f0", {{"a", "A"}}, "int",
        closed ? common::StrCat("f", kLinks - 1, "(a)") : "r_v(a)");
    return std::move(builder).Build();
  };
  auto chain = build_chain(false);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(chain.value()->functions().size(), size_t{kLinks});

  auto cycle = build_chain(true);
  ASSERT_FALSE(cycle.ok());
  EXPECT_EQ(cycle.status().code(), common::StatusCode::kFailedPrecondition);
  std::string links;
  for (int i = kLinks - 1; i >= 0; --i) {
    links += common::StrCat("f", i, i > 0 ? " -> " : "");
  }
  EXPECT_EQ(cycle.status().message(),
            common::StrCat("recursive access functions are not allowed: "
                           "cycle through 'f",
                           kLinks - 1, "' (call chain: ", links, ")"));
}

TEST(SchemaBuilderTest, RejectsSelfRecursion) {
  SchemaBuilder builder;
  builder.AddFunction("f", {{"x", "int"}}, "int", "f(x)");
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(SchemaBuilderTest, AllowsForwardCalls) {
  SchemaBuilder builder;
  builder.AddFunction("f", {{"x", "int"}}, "int", "g(x) + 1");
  builder.AddFunction("g", {{"x", "int"}}, "int", "x * 2");
  EXPECT_TRUE(std::move(builder).Build().ok());
}

TEST(SchemaBuilderTest, RejectsSpecialNameCollision) {
  SchemaBuilder builder;
  builder.AddClass("A", {{"x", "int"}});
  builder.AddFunction("r_x", {{"o", "A"}}, "int", "1");
  auto result = std::move(builder).Build();
  EXPECT_FALSE(result.ok());
}

TEST(SchemaBuilderTest, LetBodiesTypeCheck) {
  SchemaBuilder builder;
  builder.AddClass("P", {{"age", "int"}});
  builder.AddFunction("f", {{"o", "P"}}, "int",
                      "let a = r_age(o), b = a * 2 in a + b end");
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(SchemaBuilderTest, NullAssignableToClassPosition) {
  SchemaBuilder builder;
  builder.AddClass("P", {{"next", "P"}});
  builder.AddFunction("clear", {{"o", "P"}}, "null", "w_next(o, null)");
  EXPECT_TRUE(std::move(builder).Build().ok());
}

TEST(SchemaBuilderTest, SetTypedAttributes) {
  SchemaBuilder builder;
  builder.AddClass("Person", {{"age", "int"}, {"child", "{Person}"}});
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok()) << result.status();
  const Schema& schema = *result.value();
  Callable read = schema.ResolveCallable("r_child");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.return_type->is_set());
  EXPECT_EQ(read.return_type->element(),
            schema.FindClass("Person")->type());
}

TEST(UserRegistryTest, GrantAndCheck) {
  auto schema = BrokerBuilder().Build();
  ASSERT_TRUE(schema.ok());
  UserRegistry registry(*schema.value());
  ASSERT_TRUE(registry.AddUser("clerk").ok());
  EXPECT_FALSE(registry.AddUser("clerk").ok());

  EXPECT_TRUE(registry.Grant("clerk", "checkBudget").ok());
  EXPECT_TRUE(registry.Grant("clerk", "w_budget").ok());
  EXPECT_FALSE(registry.Grant("clerk", "nonexistent").ok());
  EXPECT_FALSE(registry.Grant("ghost", "checkBudget").ok());

  const User* clerk = registry.Find("clerk");
  ASSERT_NE(clerk, nullptr);
  EXPECT_TRUE(clerk->MayInvoke("checkBudget"));
  EXPECT_TRUE(clerk->MayInvoke("w_budget"));
  EXPECT_FALSE(clerk->MayInvoke("r_salary"));
  EXPECT_EQ(registry.users().size(), 1u);
  EXPECT_EQ(registry.Find("ghost"), nullptr);
}

TEST(UserRegistryTest, RevokeRemovesCapability) {
  auto schema = BrokerBuilder().Build();
  ASSERT_TRUE(schema.ok());
  UserRegistry registry(*schema.value());
  ASSERT_TRUE(registry.AddUser("u").ok());
  ASSERT_TRUE(registry.Grant("u", "checkBudget").ok());
  User* user = const_cast<User*>(registry.Find("u"));
  user->Revoke("checkBudget");
  EXPECT_FALSE(user->MayInvoke("checkBudget"));
}

}  // namespace
}  // namespace oodbsec::schema
