#include "lang/parser.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace oodbsec::lang {

namespace {

// Operator name for a token, or nullptr if the token is not an operator.
const char* OperatorName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPlus:
      return "+";
    case TokenKind::kMinus:
      return "-";
    case TokenKind::kStar:
      return "*";
    case TokenKind::kSlash:
      return "/";
    case TokenKind::kPercent:
      return "%";
    case TokenKind::kLess:
      return "<";
    case TokenKind::kGreater:
      return ">";
    case TokenKind::kLessEq:
      return "<=";
    case TokenKind::kGreaterEq:
      return ">=";
    case TokenKind::kEqEq:
      return "==";
    case TokenKind::kNotEq:
      return "!=";
    case TokenKind::kKwAnd:
      return "and";
    case TokenKind::kKwOr:
      return "or";
    case TokenKind::kKwNot:
      return "not";
    default:
      return nullptr;
  }
}

bool IsComparison(TokenKind kind) {
  return kind == TokenKind::kLess || kind == TokenKind::kGreater ||
         kind == TokenKind::kLessEq || kind == TokenKind::kGreaterEq ||
         kind == TokenKind::kEqEq || kind == TokenKind::kNotEq;
}

class ExprParser {
 public:
  ExprParser(TokenStream& stream, common::DiagnosticSink& sink)
      : stream_(stream), sink_(sink) {}

  std::unique_ptr<Expr> Parse() {
    return Nested([&] { return ParseOr(); });
  }

 private:
  using ExprPtr = std::unique_ptr<Expr>;

  // Nesting is capped two ways (kMaxNesting). depth_ counts the
  // recursive descents in progress, which parentheses add without
  // adding tree levels; height_ is the height of the tree the last
  // Parse* call returned, which left-associative operator chains grow
  // without recursing.
  template <typename ParseFn>
  ExprPtr Nested(ParseFn parse) {
    if (depth_ >= kMaxNesting) return TooDeep();
    ++depth_;
    ExprPtr expr = parse();
    --depth_;
    return expr;
  }

  ExprPtr TooDeep() {
    sink_.Error(stream_.location(),
                common::StrCat("expression nested more than ", kMaxNesting,
                               " levels deep"));
    return nullptr;
  }

  ExprPtr ParseOr() {
    ExprPtr lhs = ParseAnd();
    while (lhs != nullptr && stream_.Check(TokenKind::kKwOr)) {
      int lhs_height = height_;
      common::SourceLocation loc = stream_.location();
      stream_.Advance();
      ExprPtr rhs = ParseAnd();
      if (rhs == nullptr) return nullptr;
      lhs = Binary("or", std::move(lhs), lhs_height, std::move(rhs), loc);
    }
    return lhs;
  }

  ExprPtr ParseAnd() {
    ExprPtr lhs = ParseNot();
    while (lhs != nullptr && stream_.Check(TokenKind::kKwAnd)) {
      int lhs_height = height_;
      common::SourceLocation loc = stream_.location();
      stream_.Advance();
      ExprPtr rhs = ParseNot();
      if (rhs == nullptr) return nullptr;
      lhs = Binary("and", std::move(lhs), lhs_height, std::move(rhs), loc);
    }
    return lhs;
  }

  ExprPtr ParseNot() {
    if (stream_.Check(TokenKind::kKwNot)) {
      common::SourceLocation loc = stream_.location();
      stream_.Advance();
      ExprPtr operand = Nested([&] { return ParseNot(); });
      if (operand == nullptr) return nullptr;
      return Unary("not", std::move(operand), loc);
    }
    return ParseComparison();
  }

  ExprPtr ParseComparison() {
    ExprPtr lhs = ParseAdditive();
    if (lhs == nullptr) return nullptr;
    if (IsComparison(stream_.Peek().kind)) {
      int lhs_height = height_;
      common::SourceLocation loc = stream_.location();
      const char* op = OperatorName(stream_.Advance().kind);
      ExprPtr rhs = ParseAdditive();
      if (rhs == nullptr) return nullptr;
      // Comparisons are non-associative: a < b < c is a parse error.
      if (IsComparison(stream_.Peek().kind)) {
        sink_.Error(stream_.location(),
                    "comparison operators cannot be chained");
        return nullptr;
      }
      return Binary(op, std::move(lhs), lhs_height, std::move(rhs), loc);
    }
    return lhs;
  }

  ExprPtr ParseAdditive() {
    ExprPtr lhs = ParseMultiplicative();
    while (lhs != nullptr &&
           (stream_.Check(TokenKind::kPlus) ||
            stream_.Check(TokenKind::kMinus))) {
      int lhs_height = height_;
      common::SourceLocation loc = stream_.location();
      const char* op = OperatorName(stream_.Advance().kind);
      ExprPtr rhs = ParseMultiplicative();
      if (rhs == nullptr) return nullptr;
      lhs = Binary(op, std::move(lhs), lhs_height, std::move(rhs), loc);
    }
    return lhs;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr lhs = ParseUnary();
    while (lhs != nullptr &&
           (stream_.Check(TokenKind::kStar) ||
            stream_.Check(TokenKind::kSlash) ||
            stream_.Check(TokenKind::kPercent))) {
      int lhs_height = height_;
      common::SourceLocation loc = stream_.location();
      const char* op = OperatorName(stream_.Advance().kind);
      ExprPtr rhs = ParseUnary();
      if (rhs == nullptr) return nullptr;
      lhs = Binary(op, std::move(lhs), lhs_height, std::move(rhs), loc);
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (stream_.Check(TokenKind::kMinus)) {
      common::SourceLocation loc = stream_.location();
      stream_.Advance();
      // Fold -<int literal> into a constant. The literal 2^63 is held
      // as INT64_MIN already, which is what -2^63 is.
      if (stream_.Check(TokenKind::kIntLiteral)) {
        const Token& token = stream_.Advance();
        return Leaf(
            MakeInt(token.int_value < 0 ? token.int_value : -token.int_value),
            loc);
      }
      // "-(" is ambiguous: unary minus of a parenthesized expression, or
      // the paper's prefix call "-(a, b)". A comma after the first inner
      // expression disambiguates.
      if (stream_.Check(TokenKind::kLParen)) {
        stream_.Advance();
        ExprPtr first = Parse();
        if (first == nullptr) return nullptr;
        if (stream_.Match(TokenKind::kComma)) {
          int first_height = height_;
          ExprPtr second = Parse();
          if (second == nullptr) return nullptr;
          if (!stream_.Expect(TokenKind::kRParen, "')'", sink_)) {
            return nullptr;
          }
          return Binary("-", std::move(first), first_height,
                        std::move(second), loc);
        }
        if (!stream_.Expect(TokenKind::kRParen, "')'", sink_)) {
          return nullptr;
        }
        return Unary("neg", std::move(first), loc);
      }
      ExprPtr operand = Nested([&] { return ParseUnary(); });
      if (operand == nullptr) return nullptr;
      return Unary("neg", std::move(operand), loc);
    }
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    const Token& token = stream_.Peek();
    common::SourceLocation loc = token.location;
    switch (token.kind) {
      case TokenKind::kIntLiteral: {
        const int64_t value = stream_.Advance().int_value;
        if (value < 0) {  // 2^63 without a unary minus
          sink_.Error(loc, "integer literal out of range");
          return nullptr;
        }
        return Leaf(MakeInt(value), loc);
      }
      case TokenKind::kStringLiteral:
        return Leaf(MakeString(std::string(stream_.Advance().text)), loc);
      case TokenKind::kKwTrue:
        stream_.Advance();
        return Leaf(MakeBool(true), loc);
      case TokenKind::kKwFalse:
        stream_.Advance();
        return Leaf(MakeBool(false), loc);
      case TokenKind::kKwNull:
        stream_.Advance();
        return Leaf(MakeNull(), loc);
      case TokenKind::kLParen: {
        stream_.Advance();
        ExprPtr inner = Parse();
        if (inner == nullptr) return nullptr;
        if (!stream_.Expect(TokenKind::kRParen, "')'", sink_)) return nullptr;
        return inner;
      }
      case TokenKind::kKwLet:
        return ParseLet();
      case TokenKind::kIdentifier: {
        // An identifier's text is a slice of the source, so `name`
        // outlives the ring slot of its token.
        const std::string_view name = stream_.Advance().text;
        if (stream_.Check(TokenKind::kLParen)) {
          return ParseCallArgs(name, loc);
        }
        return Leaf(MakeVar(std::string(name)), loc);
      }
      default: {
        // Paper-style prefix operator call: >=(a, b), *(10, x), not(p).
        const char* op = OperatorName(token.kind);
        if (op != nullptr && stream_.Peek(1).kind == TokenKind::kLParen) {
          stream_.Advance();
          return ParseCallArgs(op, loc);
        }
        sink_.Error(loc, common::StrCat("expected expression, found ",
                                        DescribeToken(token)));
        return nullptr;
      }
    }
  }

  ExprPtr ParseCallArgs(std::string_view name, common::SourceLocation loc) {
    if (!stream_.Expect(TokenKind::kLParen, "'('", sink_)) return nullptr;
    std::vector<ExprPtr> args;
    int tallest = 0;
    if (!stream_.Check(TokenKind::kRParen)) {
      while (true) {
        ExprPtr arg = Parse();
        if (arg == nullptr) return nullptr;
        tallest = std::max(tallest, height_);
        args.push_back(std::move(arg));
        if (!stream_.Match(TokenKind::kComma)) break;
      }
    }
    if (!stream_.Expect(TokenKind::kRParen, "')'", sink_)) return nullptr;
    return Over(tallest,
                WithLoc(MakeCall(std::string(name), std::move(args)), loc));
  }

  ExprPtr ParseLet() {
    common::SourceLocation loc = stream_.location();
    stream_.Advance();  // 'let'
    std::vector<LetExpr::Binding> bindings;
    int tallest = 0;
    while (true) {
      if (!stream_.Check(TokenKind::kIdentifier)) {
        sink_.Error(stream_.location(), "expected variable name in let");
        return nullptr;
      }
      std::string name(stream_.Advance().text);
      if (!stream_.Expect(TokenKind::kAssign, "'='", sink_)) return nullptr;
      ExprPtr init = Parse();
      if (init == nullptr) return nullptr;
      tallest = std::max(tallest, height_);
      bindings.push_back({std::move(name), std::move(init)});
      if (!stream_.Match(TokenKind::kComma)) break;
    }
    if (!stream_.Expect(TokenKind::kKwIn, "'in'", sink_)) return nullptr;
    ExprPtr body = Parse();
    if (body == nullptr) return nullptr;
    tallest = std::max(tallest, height_);
    if (!stream_.Expect(TokenKind::kKwEnd, "'end'", sink_)) return nullptr;
    auto let =
        std::make_unique<LetExpr>(std::move(bindings), std::move(body));
    let->range.begin = loc;
    return Over(tallest, std::move(let));
  }

  // Note on the paper's prefix syntax: an operator token heads a prefix
  // call (e.g. ">=(a, b)") only at expression-start position, which is
  // handled in ParsePrimary. Once a left operand is pending the operator
  // is always infix, so "a >= (b)" parses conventionally.

  // The rhs is the tree just parsed, so its height is height_.
  ExprPtr Binary(const char* op, ExprPtr lhs, int lhs_height, ExprPtr rhs,
                 common::SourceLocation loc) {
    int tallest = std::max(lhs_height, height_);
    std::vector<ExprPtr> args;
    args.push_back(std::move(lhs));
    args.push_back(std::move(rhs));
    return Over(tallest, WithLoc(MakeCall(op, std::move(args)), loc));
  }

  ExprPtr Unary(const char* op, ExprPtr operand, common::SourceLocation loc) {
    std::vector<ExprPtr> args;
    args.push_back(std::move(operand));
    return Over(height_, WithLoc(MakeCall(op, std::move(args)), loc));
  }

  ExprPtr Leaf(ExprPtr expr, common::SourceLocation loc) {
    height_ = 1;
    return WithLoc(std::move(expr), loc);
  }

  // `node` sits one level above children at most `tallest` high.
  ExprPtr Over(int tallest, ExprPtr node) {
    if (tallest >= kMaxNesting) return TooDeep();
    height_ = tallest + 1;
    return node;
  }

  static ExprPtr WithLoc(ExprPtr expr, common::SourceLocation loc) {
    expr->range.begin = loc;
    return expr;
  }

  TokenStream& stream_;
  common::DiagnosticSink& sink_;
  int depth_ = 0;
  int height_ = 0;
};

}  // namespace

bool TokenStream::Expect(TokenKind kind, const char* what,
                         common::DiagnosticSink& sink) {
  if (Match(kind)) return true;
  sink.Error(location(), common::StrCat("expected ", what, ", found ",
                                        DescribeToken(Peek())));
  return false;
}

std::unique_ptr<Expr> ParseExpression(TokenStream& stream,
                                      common::DiagnosticSink& sink) {
  return ExprParser(stream, sink).Parse();
}

common::Result<std::unique_ptr<Expr>> ParseExpressionString(
    std::string_view source) {
  TokenStream stream(source);
  common::DiagnosticSink sink;
  std::unique_ptr<Expr> expr = ParseExpression(stream, sink);
  if (expr == nullptr) return sink.ToStatus();
  if (!stream.AtEnd()) {
    return common::ParseError(common::StrCat(
        "trailing input at ", stream.location().ToString(), ": ",
        DescribeToken(stream.Peek())));
  }
  return expr;
}

}  // namespace oodbsec::lang
