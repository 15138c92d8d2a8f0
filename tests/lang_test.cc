#include <gtest/gtest.h>

#include "common/diagnostics.h"
#include "common/strings.h"
#include "lang/ast.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "query/query_parser.h"
#include "text/workspace.h"

namespace oodbsec::lang {
namespace {

// One token as the lexer produced it, its text copied out of the
// lexer's reach.
struct Lexed {
  TokenKind kind;
  std::string text;
  int64_t int_value;
  common::SourceLocation location;
};

// Steps a Lexer over `source` up to and including the kEnd token.
std::vector<Lexed> Lex(std::string_view source) {
  Lexer lexer(source);
  std::vector<Lexed> out;
  while (true) {
    Token token = lexer.Next();
    out.push_back({token.kind, std::string(token.text), token.int_value,
                   token.location});
    if (token.kind == TokenKind::kEnd) return out;
  }
}

std::vector<TokenKind> KindsOf(std::string_view source) {
  std::vector<TokenKind> kinds;
  for (const Lexed& token : Lex(source)) kinds.push_back(token.kind);
  return kinds;
}

// "line:col" of every token, the kEnd token included.
std::vector<std::string> LocationsOf(std::string_view source) {
  std::vector<std::string> out;
  for (const Lexed& token : Lex(source)) {
    out.push_back(token.location.ToString());
  }
  return out;
}

using Strings = std::vector<std::string>;

TEST(LexerTest, EmptyInput) {
  EXPECT_EQ(KindsOf(""), (std::vector<TokenKind>{TokenKind::kEnd}));
  EXPECT_EQ(KindsOf("   \n\t "), (std::vector<TokenKind>{TokenKind::kEnd}));
}

TEST(LexerTest, IdentifiersAndKeywords) {
  EXPECT_EQ(KindsOf("foo let letx _x x9"),
            (std::vector<TokenKind>{TokenKind::kIdentifier, TokenKind::kKwLet,
                                    TokenKind::kIdentifier,
                                    TokenKind::kIdentifier,
                                    TokenKind::kIdentifier, TokenKind::kEnd}));
}

TEST(LexerTest, EveryKeywordAndItsNearMisses) {
  const std::pair<const char*, TokenKind> keywords[] = {
      {"let", TokenKind::kKwLet},           {"in", TokenKind::kKwIn},
      {"end", TokenKind::kKwEnd},           {"null", TokenKind::kKwNull},
      {"true", TokenKind::kKwTrue},         {"false", TokenKind::kKwFalse},
      {"and", TokenKind::kKwAnd},           {"or", TokenKind::kKwOr},
      {"not", TokenKind::kKwNot},           {"class", TokenKind::kKwClass},
      {"function", TokenKind::kKwFunction}, {"user", TokenKind::kKwUser},
      {"can", TokenKind::kKwCan},           {"require", TokenKind::kKwRequire},
      {"select", TokenKind::kKwSelect},     {"from", TokenKind::kKwFrom},
      {"where", TokenKind::kKwWhere},       {"object", TokenKind::kKwObject},
      {"constraint", TokenKind::kKwConstraint},
  };
  for (const auto& [word, kind] : keywords) {
    std::string text(word);
    EXPECT_EQ(Lex(text)[0].kind, kind) << text;
    EXPECT_EQ(Lex(text)[0].text, text);
    for (std::string near : {text + "_", text + "1", "_" + text,
                             text.substr(0, text.size() - 1),
                             std::string(1, static_cast<char>(text[0] - 32)) +
                                 text.substr(1)}) {
      EXPECT_EQ(Lex(near)[0].kind, TokenKind::kIdentifier) << near;
      EXPECT_EQ(Lex(near)[0].text, near);
    }
  }
}

TEST(LexerTest, IntLiterals) {
  auto tokens = Lex("0 42 12345");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, 12345);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = Lex(R"("hi" "a\"b" "x\\y" "n\nl")");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "hi");
  EXPECT_EQ(tokens[1].text, "a\"b");
  EXPECT_EQ(tokens[2].text, "x\\y");
  EXPECT_EQ(tokens[3].text, "n\nl");
}

TEST(LexerTest, StringLiteralsWithAndWithoutEscapes) {
  auto tokens = Lex("\"a\\\"b\" \"plain\" \"\" \"t\\tx\" x");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "a\"b");
  EXPECT_EQ(tokens[0].location.ToString(), "1:1");
  EXPECT_EQ(tokens[1].text, "plain");
  EXPECT_EQ(tokens[1].location.ToString(), "1:8");
  EXPECT_EQ(tokens[2].text, "");
  EXPECT_EQ(tokens[2].location.ToString(), "1:16");
  EXPECT_EQ(tokens[3].text, "t\tx");
  EXPECT_EQ(tokens[4].text, "x");
  EXPECT_EQ(tokens[4].location.ToString(), "1:26");
  EXPECT_EQ(tokens[5].location.ToString(), "1:27");
}

TEST(LexerTest, EscapedStringReachesTheAstDecoded) {
  auto parsed = ParseExpressionString("\"a\\\"b\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value()->kind(), ExprKind::kConstant);
  EXPECT_EQ(parsed.value()->AsConstant().value().string_value(), "a\"b");
  auto plain = ParseExpressionString("\"plain\"");
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain.value()->AsConstant().value().string_value(), "plain");
}

TEST(LexerTest, UnterminatedStringIsError) {
  auto tokens = Lex("\"oops");
  EXPECT_EQ(tokens[0].kind, TokenKind::kError);
  EXPECT_EQ(tokens[0].text, "unterminated string literal");
}

TEST(LexerTest, OperatorsAndPunctuation) {
  EXPECT_EQ(
      KindsOf("( ) { } , : ; = == != < <= > >= + - * / %"),
      (std::vector<TokenKind>{
          TokenKind::kLParen, TokenKind::kRParen, TokenKind::kLBrace,
          TokenKind::kRBrace, TokenKind::kComma, TokenKind::kColon,
          TokenKind::kSemicolon, TokenKind::kAssign, TokenKind::kEqEq,
          TokenKind::kNotEq, TokenKind::kLess, TokenKind::kLessEq,
          TokenKind::kGreater, TokenKind::kGreaterEq, TokenKind::kPlus,
          TokenKind::kMinus, TokenKind::kStar, TokenKind::kSlash,
          TokenKind::kPercent, TokenKind::kEnd}));
}

TEST(LexerTest, CommentsAreSkipped) {
  EXPECT_EQ(KindsOf("a # comment\n b // another\n c"),
            (std::vector<TokenKind>{TokenKind::kIdentifier,
                                    TokenKind::kIdentifier,
                                    TokenKind::kIdentifier, TokenKind::kEnd}));
}

TEST(LexerTest, TracksLineAndColumn) {
  auto tokens = Lex("a\n  bb");
  EXPECT_EQ(tokens[0].location.line, 1);
  EXPECT_EQ(tokens[0].location.column, 1);
  EXPECT_EQ(tokens[1].location.line, 2);
  EXPECT_EQ(tokens[1].location.column, 3);
}

// Columns count bytes: a tab and a '\r' are one column each.
TEST(LexerTest, LocationsAfterCommentsTabsAndLineEnds) {
  EXPECT_EQ(LocationsOf("a # c\n  b // d\n\tc"),
            (Strings{"1:1", "2:3", "3:2", "3:3"}));
  EXPECT_EQ(LocationsOf("a\r\n  b\r\n"), (Strings{"1:1", "2:3", "3:1"}));
  EXPECT_EQ(LocationsOf("x\n\n\n   yy zz"),
            (Strings{"1:1", "4:4", "4:7", "4:9"}));
  EXPECT_EQ(LocationsOf("#only\n//comments"), (Strings{"2:11"}));
  EXPECT_EQ(LocationsOf("a\t\tb\r c"), (Strings{"1:1", "1:4", "1:7", "1:8"}));
  EXPECT_EQ(LocationsOf("f(x)>=10"),
            (Strings{"1:1", "1:2", "1:3", "1:4", "1:5", "1:7", "1:9"}));
}

TEST(LexerTest, EndTokenAfterTrailingBlanks) {
  EXPECT_EQ(LocationsOf("a   "), (Strings{"1:1", "1:5"}));
  EXPECT_EQ(LocationsOf("a\n  \t"), (Strings{"1:1", "2:4"}));
  EXPECT_EQ(LocationsOf("a # tail"), (Strings{"1:1", "1:9"}));
}

TEST(LexerTest, EndRepeatsAtTheSameLocation) {
  Lexer lexer("a ");
  EXPECT_EQ(lexer.Next().kind, TokenKind::kIdentifier);
  for (int i = 0; i < 3; ++i) {
    Token token = lexer.Next();
    EXPECT_EQ(token.kind, TokenKind::kEnd);
    EXPECT_EQ(token.location.ToString(), "1:3");
  }
}

// Each lexical error, as the two front doors report it.
TEST(LexerTest, LexicalErrorTexts) {
  const std::pair<const char*, const char*> cases[] = {
      {"\"abc", "unterminated string literal"},
      {"\"ab\ncd\"", "newline in string literal"},
      {"\"ab\\", "unterminated escape"},
      {"\"\\q\"", "bad escape '\\q'"},
      {"!", "stray '!'"},
      {"@", "unexpected character '@'"},
      {"99999999999999999999", "integer literal out of range"},
  };
  for (const auto& [source, message] : cases) {
    // An escape is unterminated only at the end of the input.
    const bool at_end = std::string_view(message) == "unterminated escape";
    auto query = query::ParseQueryString(common::StrCat(
        "select ", source, at_end ? "" : " from b in Broker"));
    EXPECT_EQ(query.status().ToString(),
              common::StrCat("parse_error: 1:8: error: expected expression, "
                             "found lexical error (",
                             message, ")"));
    auto workspace = text::LoadWorkspace(common::StrCat("\n  ", source));
    EXPECT_EQ(workspace.status().ToString(),
              common::StrCat("parse_error: 2:3: error: expected a "
                             "declaration, found lexical error (",
                             message, ")"));
  }
  EXPECT_EQ(query::ParseQueryString("select x from b in Broker\n  @")
                .status()
                .ToString(),
            "parse_error: trailing input at 2:3: lexical error "
            "(unexpected character '@')");
  // An object field names the token it refused, a lexical error's
  // message included.
  EXPECT_EQ(text::LoadWorkspace("class A { x: int; }\r\n\tobject A { x = "
                                "\"\\q\" }")
                .status()
                .ToString(),
            "parse_error: 2:17: error: object fields take literal values "
            "only, found lexical error (bad escape '\\q')");
  EXPECT_EQ(text::LoadWorkspace("class A { x: int; }\r\n\tobject A { x = "
                                "-99999999999999999999 }")
                .status()
                .ToString(),
            "parse_error: 2:18: error: expected integer after '-', found "
            "lexical error (integer literal out of range)");
  EXPECT_EQ(text::LoadWorkspace("class A { x: int; }\r\n\tobject A { x = "
                                "y }")
                .status()
                .ToString(),
            "parse_error: 2:17: error: object fields take literal values "
            "only, found identifier 'y'");
}

std::string Reparse(std::string_view source,
                    PrintStyle style = PrintStyle::kInfix) {
  auto result = ParseExpressionString(source);
  if (!result.ok()) return "<error: " + result.status().ToString() + ">";
  return PrintExpr(*result.value(), style);
}

TEST(ParserTest, Literals) {
  EXPECT_EQ(Reparse("42"), "42");
  EXPECT_EQ(Reparse("true"), "true");
  EXPECT_EQ(Reparse("false"), "false");
  EXPECT_EQ(Reparse("null"), "null");
  EXPECT_EQ(Reparse("\"hi\""), "\"hi\"");
  EXPECT_EQ(Reparse("-7"), "-7");
}

TEST(ParserTest, InfixPrecedence) {
  EXPECT_EQ(Reparse("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(Reparse("1 * 2 + 3"), "((1 * 2) + 3)");
  EXPECT_EQ(Reparse("(1 + 2) * 3"), "((1 + 2) * 3)");
  EXPECT_EQ(Reparse("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(Reparse("a >= b + 1"), "(a >= (b + 1))");
  EXPECT_EQ(Reparse("p and q or r"), "((p and q) or r)");
  EXPECT_EQ(Reparse("not p and q"), "((not p) and q)");
  EXPECT_EQ(Reparse("a == b and c != d"), "((a == b) and (c != d))");
}

TEST(ParserTest, PaperPrefixSyntax) {
  // The paper's own examples parse in their original form.
  EXPECT_EQ(Reparse(">=(r_budget(broker), *(10, r_salary(broker)))"),
            "(r_budget(broker) >= (10 * r_salary(broker)))");
  EXPECT_EQ(Reparse("+(x, r_age(o))"), "(x + r_age(o))");
  EXPECT_EQ(Reparse("not(p)"), "(not p)");
}

TEST(ParserTest, PrefixPrintStyleMatchesPaper) {
  EXPECT_EQ(Reparse("r_budget(b) >= 10 * r_salary(b)", PrintStyle::kPrefix),
            ">=(r_budget(b), *(10, r_salary(b)))");
}

TEST(ParserTest, Calls) {
  EXPECT_EQ(Reparse("f()"), "f()");
  EXPECT_EQ(Reparse("f(1, g(x), \"s\")"), "f(1, g(x), \"s\")");
  EXPECT_EQ(Reparse("w_salary(broker, calcSalary(r_budget(broker)))"),
            "w_salary(broker, calcSalary(r_budget(broker)))");
}

TEST(ParserTest, Let) {
  EXPECT_EQ(Reparse("let x = 1 in x + 2 end"), "let x = 1 in (x + 2) end");
  EXPECT_EQ(Reparse("let x = 1, y = x in y end"), "let x = 1, y = x in y end");
  EXPECT_EQ(Reparse("let x = let y = 2 in y end in x end"),
            "let x = let y = 2 in y end in x end");
}

TEST(ParserTest, UnaryMinus) {
  EXPECT_EQ(Reparse("-x"), "neg(x)");
  EXPECT_EQ(Reparse("1 - -2"), "(1 - -2)");
  EXPECT_EQ(Reparse("-x * 3"), "(neg(x) * 3)");
}

TEST(ParserTest, ChainedComparisonIsError) {
  auto result = ParseExpressionString("a < b < c");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, ReportsErrors) {
  EXPECT_FALSE(ParseExpressionString("").ok());
  EXPECT_FALSE(ParseExpressionString("1 +").ok());
  EXPECT_FALSE(ParseExpressionString("f(1,").ok());
  EXPECT_FALSE(ParseExpressionString("(1").ok());
  EXPECT_FALSE(ParseExpressionString("let x 1 in x end").ok());
  EXPECT_FALSE(ParseExpressionString("let x = 1 in x").ok());
  EXPECT_FALSE(ParseExpressionString("1 2").ok());  // trailing input
}

TEST(AstTest, CloneIsDeepAndPreservesResolution) {
  auto parsed = ParseExpressionString("let x = 1 in f(x) + 2 end");
  ASSERT_TRUE(parsed.ok());
  std::unique_ptr<Expr> original = std::move(parsed).value();
  std::unique_ptr<Expr> clone = original->Clone();
  EXPECT_EQ(PrintExpr(*original), PrintExpr(*clone));
  // Mutating the clone must not affect the original.
  clone->AsLet().mutable_body().AsCall().set_target(CallTarget::kBasic);
  EXPECT_EQ(original->AsLet().body().AsCall().target(),
            CallTarget::kUnresolved);
}

TEST(AstTest, MakersProduceExpectedKinds) {
  EXPECT_EQ(MakeInt(1)->kind(), ExprKind::kConstant);
  EXPECT_EQ(MakeVar("v")->kind(), ExprKind::kVarRef);
  std::vector<std::unique_ptr<Expr>> args;
  args.push_back(MakeInt(1));
  EXPECT_EQ(MakeCall("f", std::move(args))->kind(), ExprKind::kCall);
}

}  // namespace
}  // namespace oodbsec::lang
