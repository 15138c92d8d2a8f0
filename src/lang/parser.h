// Recursive-descent parsing for the function definition language.
//
// Two surface syntaxes produce the same AST:
//   * the paper's prefix form:   >=(r_budget(b), *(10, r_salary(b)))
//   * conventional infix sugar:  r_budget(b) >= 10 * r_salary(b)
// Infix operators desugar to calls named after the operator ("+", ">=",
// "and", …); unary minus desugars to "neg".
//
// The TokenStream is shared with the query parser (src/query), the
// requirement parser (src/core) and the workspace format parser
// (src/text).
//
// The parsers build an AST (and requirements, queries, pending
// declarations) that owns its text: every name and string constant is
// copied out of the token it came from, so nothing parsed points into
// the source or the lexer once parsing returns.
#ifndef OODBSEC_LANG_PARSER_H_
#define OODBSEC_LANG_PARSER_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <string_view>

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
// calling f0, f2 calling f1 and so on. The call-graph check walks such
// a chain with a stack of its own, so it loads; the evaluator and
// unfolding still recurse once per call. Query text reaches only the
// chains its schema already has.
inline constexpr int kMaxNesting = 256;

// A token stream that lexes on demand. It keeps the last few tokens in
// a ring: the current one, kMaxLookahead more that Peek() has lexed,
// and the one Advance() last returned. The grammars look at most one
// token past the current one, so the token Advance() returns stays
// valid while its caller peeks that far; copy its text to keep it
// longer. Its text itself (a view, token.h) lives as long as the
// stream and the source do.
class TokenStream {
 public:
  static constexpr int kMaxLookahead = 1;

  // `source` must outlive the stream.
  explicit TokenStream(std::string_view source) : lexer_(source) {}

  // The token `ahead` places past the current one, ahead <=
  // kMaxLookahead. Past the end of input, every token is kEnd.
  const Token& Peek(int ahead = 0) {
    assert(ahead >= 0 && ahead <= kMaxLookahead);
    const size_t index = next_ + static_cast<size_t>(ahead);
    while (lexed_ <= index) ring_[lexed_++ % kRing] = lexer_.Next();
    return ring_[index % kRing];
  }
  // Consumes the current token and returns it.
  const Token& Advance() {
    const Token& token = Peek();
    ++next_;
    return token;
  }
  bool Check(TokenKind kind) { return Peek().kind == kind; }
  // Consumes the next token if it has `kind`.
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    ++next_;
    return true;
  }
  // Consumes a token of `kind` or reports "expected <what>" into `sink`.
  bool Expect(TokenKind kind, const char* what, common::DiagnosticSink& sink);
  bool AtEnd() { return Check(TokenKind::kEnd); }
  common::SourceLocation location() { return Peek().location; }

 private:
  // The returned token, the current one and kMaxLookahead more; a power
  // of two, so the index arithmetic stays a mask.
  static constexpr size_t kRing = 4;
  static_assert(kRing >= kMaxLookahead + 2 && (kRing & (kRing - 1)) == 0);

  Lexer lexer_;
  Token ring_[kRing];
  size_t next_ = 0;   // tokens consumed so far: the current token's number
  size_t lexed_ = 0;  // tokens lexed so far
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
