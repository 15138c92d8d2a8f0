// Recursive-descent parsing for the function definition language.
//
// Two surface syntaxes produce the same AST:
//   * the paper's prefix form:   >=(r_budget(b), *(10, r_salary(b)))
//   * conventional infix sugar:  r_budget(b) >= 10 * r_salary(b)
// Infix operators desugar to calls named after the operator ("+", ">=",
// "and", …); unary minus desugars to "neg".
//
// The TokenStream is shared with the query parser (src/query) and the
// workspace format parser (src/text).
#ifndef OODBSEC_LANG_PARSER_H_
#define OODBSEC_LANG_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/diagnostics.h"
#include "common/result.h"
#include "lang/ast.h"
#include "lang/lexer.h"
#include "lang/token.h"

namespace oodbsec::lang {

// How deep text may nest. An expression tree taller than this, or a
// parse that would recurse deeper (parentheses, call arguments, let
// parts, unary operators; nested selects and set types in the query
// and workspace parsers), fails with a ParseError. That bounds the
// stack the parser, the checker, the evaluator, the printer and
// unfolding spend on any one body, query or requirement. It does not
// bound chains of access-function calls: a workspace may define f1
// calling f0, f2 calling f1 and so on, and the call-graph check, the
// evaluator and unfolding recurse once per call. Query text reaches
// only the chains its schema already has.
inline constexpr int kMaxNesting = 256;

// A fully buffered token stream with lookahead.
class TokenStream {
 public:
  explicit TokenStream(std::string_view source);

  const Token& Peek(int ahead = 0) const;
  Token Advance();
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  // Consumes the next token if it has `kind`.
  bool Match(TokenKind kind);
  // Consumes a token of `kind` or reports "expected <what>" into `sink`.
  bool Expect(TokenKind kind, const char* what, common::DiagnosticSink& sink);
  bool AtEnd() const { return Check(TokenKind::kEnd); }
  common::SourceLocation location() const { return Peek().location; }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// Parses one expression from `stream`. Returns nullptr after reporting
// into `sink` on error; the stream is left at the offending token.
std::unique_ptr<Expr> ParseExpression(TokenStream& stream,
                                      common::DiagnosticSink& sink);

// Parses `source` as a complete expression (trailing input is an error).
common::Result<std::unique_ptr<Expr>> ParseExpressionString(
    std::string_view source);

}  // namespace oodbsec::lang

#endif  // OODBSEC_LANG_PARSER_H_
