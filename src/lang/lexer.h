// Hand-written lexer for all textual inputs of the library.
//
// Comments run from '#' or '//' to end of line. String literals use
// double quotes with \" \\ \n \t escapes. Identifiers are
// [A-Za-z_][A-Za-z0-9_]*; a reserved word lexes as its keyword token.
// Locations are 1-based; a column counts bytes from the start of its
// line, so a tab or a '\r' is one column.
//
// The lexer makes one pass over the source and allocates nothing per
// token: a token's text is a view into the source (token.h). Only a
// string literal with escapes and a lexical-error message that quotes
// the offending character need text of their own; the lexer keeps it
// until it is destroyed.
#ifndef OODBSEC_LANG_LEXER_H_
#define OODBSEC_LANG_LEXER_H_

#include <cstddef>
#include <forward_list>
#include <string>
#include <string_view>

#include "lang/token.h"

namespace oodbsec::lang {

class Lexer {
 public:
  // `source` must outlive the lexer and every token it returns.
  explicit Lexer(std::string_view source) : source_(source) {}

  // Tokens point into storage the lexer owns.
  Lexer(const Lexer&) = delete;
  Lexer& operator=(const Lexer&) = delete;

  // Returns the next token, advancing. After the end of input, keeps
  // returning kEnd at the same location. Lexical errors produce a kError
  // token whose text is the message; the lexer then skips the offending
  // character.
  Token Next();

 private:
  void SkipBlanksAndComments();
  common::SourceLocation Here() const {
    return {line_, static_cast<int>(pos_ - line_start_) + 1};
  }
  // Counts the '\n' just consumed (at pos_ - 1).
  void NewLine() {
    ++line_;
    line_start_ = pos_;
  }
  Token LexNumber(size_t start, common::SourceLocation loc);
  Token LexString(common::SourceLocation loc);
  // A token whose text is the source from `start` to the cursor.
  Token Slice(TokenKind kind, size_t start, common::SourceLocation loc) const;
  Token Error(common::SourceLocation loc, std::string_view message) const;
  // Keeps `text` for the lexer's lifetime and returns a view of it.
  std::string_view Own(std::string text);

  std::string_view source_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  // offset of the current line's first byte
  // Decoded escapes and quoted error characters; a forward_list keeps
  // every string in place and allocates nothing while empty.
  std::forward_list<std::string> owned_;
};

}  // namespace oodbsec::lang

#endif  // OODBSEC_LANG_LEXER_H_
