// Tokens shared by the function-definition language, the query language,
// the requirement syntax, and the workspace file format.
//
// A token is a view. Its `text` is a slice of the source the lexer
// reads, except for text the source does not spell out: the decoded
// contents of a string literal with escapes, and the message of a
// lexical error. That text lives in storage the lexer owns (or in a
// string literal of the lexer's). A token is therefore valid while both
// its lexer and its source live; the AST, requirements and registries
// copy the text they keep.
#ifndef OODBSEC_LANG_TOKEN_H_
#define OODBSEC_LANG_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/source_location.h"

namespace oodbsec::lang {

enum class TokenKind {
  kEnd,          // end of input
  kError,        // lexer error; text holds the message
  kIdentifier,
  kIntLiteral,   // int_value holds the value
  kStringLiteral,  // text holds the decoded contents
  // Keywords.
  kKwLet,
  kKwIn,
  kKwEnd,
  kKwNull,
  kKwTrue,
  kKwFalse,
  kKwAnd,
  kKwOr,
  kKwNot,
  kKwClass,
  kKwFunction,
  kKwUser,
  kKwCan,
  kKwRequire,
  kKwSelect,
  kKwFrom,
  kKwWhere,
  kKwObject,
  kKwConstraint,
  // Punctuation and operators.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kColon,
  kSemicolon,
  kAssign,    // =
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kLess,
  kGreater,
  kLessEq,
  kGreaterEq,
  kEqEq,
  kNotEq,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  // Identifier name, keyword or punctuation lexeme, decoded string
  // contents, digits, or error message; empty for kEnd.
  std::string_view text;
  // For kIntLiteral: the literal, 0..2^63. 2^63 is held as INT64_MIN,
  // the only negative value here: it spells INT64_MIN after a unary
  // minus and is out of range anywhere else, so every int that prints
  // reads back.
  int64_t int_value = 0;
  common::SourceLocation location;
};

// Human-readable token description for diagnostics, e.g. "identifier
// 'foo'" or "'>='".
std::string DescribeToken(const Token& token);

}  // namespace oodbsec::lang

#endif  // OODBSEC_LANG_TOKEN_H_
