#include "lang/lexer.h"

#include <array>
#include <cstdint>
#include <cstring>

#include "common/strings.h"

namespace oodbsec::lang {

namespace {

// Byte classes: identifier start, identifier continuation, digit.
enum : uint8_t { kIdentStart = 1, kIdentChar = 2, kDigit = 4 };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  c == '_';
    bool digit = c >= '0' && c <= '9';
    classes[static_cast<size_t>(c)] = static_cast<uint8_t>(
        (letter ? kIdentStart | kIdentChar : 0) |
        (digit ? kIdentChar | kDigit : 0));
  }
  return classes;
}

constexpr std::array<uint8_t, 256> kByteClasses = MakeByteClasses();

bool Is(char c, uint8_t byte_class) {
  return (kByteClasses[static_cast<unsigned char>(c)] & byte_class) != 0;
}

// The keyword `word` spells, or kIdentifier.
TokenKind KeywordKind(std::string_view word) {
  switch (word.size()) {
    case 2:
      if (word == "in") return TokenKind::kKwIn;
      if (word == "or") return TokenKind::kKwOr;
      break;
    case 3:
      if (word == "let") return TokenKind::kKwLet;
      if (word == "end") return TokenKind::kKwEnd;
      if (word == "and") return TokenKind::kKwAnd;
      if (word == "not") return TokenKind::kKwNot;
      if (word == "can") return TokenKind::kKwCan;
      break;
    case 4:
      if (word == "null") return TokenKind::kKwNull;
      if (word == "true") return TokenKind::kKwTrue;
      if (word == "user") return TokenKind::kKwUser;
      if (word == "from") return TokenKind::kKwFrom;
      break;
    case 5:
      if (word == "false") return TokenKind::kKwFalse;
      if (word == "class") return TokenKind::kKwClass;
      if (word == "where") return TokenKind::kKwWhere;
      break;
    case 6:
      if (word == "select") return TokenKind::kKwSelect;
      if (word == "object") return TokenKind::kKwObject;
      break;
    case 7:
      if (word == "require") return TokenKind::kKwRequire;
      break;
    case 8:
      if (word == "function") return TokenKind::kKwFunction;
      break;
    case 10:
      if (word == "constraint") return TokenKind::kKwConstraint;
      break;
    default:
      break;
  }
  return TokenKind::kIdentifier;
}

}  // namespace

std::string DescribeToken(const Token& token) {
  switch (token.kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kError:
      return common::StrCat("lexical error (", token.text, ")");
    case TokenKind::kIdentifier:
      return common::StrCat("identifier '", token.text, "'");
    case TokenKind::kIntLiteral:
      // As unsigned, 2^63 (held as INT64_MIN) prints as written.
      return common::StrCat("integer ",
                            static_cast<uint64_t>(token.int_value));
    case TokenKind::kStringLiteral:
      return common::StrCat("string ",
                            common::QuoteString(token.text));
    default:
      return common::StrCat("'", token.text, "'");
  }
}

void Lexer::SkipBlanksAndComments() {
  const char* data = source_.data();
  const size_t size = source_.size();
  while (pos_ < size) {
    const char c = data[pos_];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++pos_;
    } else if (c == '\n') {
      ++pos_;
      NewLine();
    } else if (c == '#' ||
               (c == '/' && pos_ + 1 < size && data[pos_ + 1] == '/')) {
      // The comment ends before its '\n', which the next turn counts.
      const void* newline = std::memchr(data + pos_, '\n', size - pos_);
      pos_ = newline == nullptr
                 ? size
                 : static_cast<size_t>(static_cast<const char*>(newline) -
                                       data);
    } else {
      return;
    }
  }
}

Token Lexer::Slice(TokenKind kind, size_t start,
                   common::SourceLocation loc) const {
  Token token;
  token.kind = kind;
  token.text = source_.substr(start, pos_ - start);
  token.location = loc;
  return token;
}

Token Lexer::Error(common::SourceLocation loc,
                   std::string_view message) const {
  Token token;
  token.kind = TokenKind::kError;
  token.text = message;
  token.location = loc;
  return token;
}

std::string_view Lexer::Own(std::string text) {
  owned_.push_front(std::move(text));
  return owned_.front();
}

Token Lexer::Next() {
  SkipBlanksAndComments();
  const common::SourceLocation loc = Here();
  const size_t start = pos_;
  if (pos_ >= source_.size()) return Slice(TokenKind::kEnd, start, loc);

  const char c = source_[pos_++];

  if (Is(c, kIdentStart)) {
    while (pos_ < source_.size() && Is(source_[pos_], kIdentChar)) ++pos_;
    Token token = Slice(TokenKind::kIdentifier, start, loc);
    token.kind = KeywordKind(token.text);
    return token;
  }

  if (Is(c, kDigit)) return LexNumber(start, loc);

  if (c == '"') return LexString(loc);

  // One- and two-byte operators: `second` after `c` makes the long form.
  auto two = [&](char second, TokenKind long_kind, TokenKind short_kind) {
    if (pos_ < source_.size() && source_[pos_] == second) {
      ++pos_;
      return Slice(long_kind, start, loc);
    }
    return Slice(short_kind, start, loc);
  };

  switch (c) {
    case '(':
      return Slice(TokenKind::kLParen, start, loc);
    case ')':
      return Slice(TokenKind::kRParen, start, loc);
    case '{':
      return Slice(TokenKind::kLBrace, start, loc);
    case '}':
      return Slice(TokenKind::kRBrace, start, loc);
    case ',':
      return Slice(TokenKind::kComma, start, loc);
    case ':':
      return Slice(TokenKind::kColon, start, loc);
    case ';':
      return Slice(TokenKind::kSemicolon, start, loc);
    case '+':
      return Slice(TokenKind::kPlus, start, loc);
    case '-':
      return Slice(TokenKind::kMinus, start, loc);
    case '*':
      return Slice(TokenKind::kStar, start, loc);
    case '/':
      return Slice(TokenKind::kSlash, start, loc);
    case '%':
      return Slice(TokenKind::kPercent, start, loc);
    case '<':
      return two('=', TokenKind::kLessEq, TokenKind::kLess);
    case '>':
      return two('=', TokenKind::kGreaterEq, TokenKind::kGreater);
    case '=':
      return two('=', TokenKind::kEqEq, TokenKind::kAssign);
    case '!':
      if (pos_ < source_.size() && source_[pos_] == '=') {
        ++pos_;
        return Slice(TokenKind::kNotEq, start, loc);
      }
      return Error(loc, "stray '!'");
    default:
      return Error(loc,
                   Own(common::StrCat("unexpected character '", c, "'")));
  }
}

Token Lexer::LexNumber(size_t start, common::SourceLocation loc) {
  // Literals run up to 2^63, the magnitude of INT64_MIN (see
  // Token::int_value); a longer digit run is consumed whole and
  // reported, never wrapped.
  constexpr uint64_t kMax = uint64_t{1} << 63;
  uint64_t value = static_cast<uint64_t>(source_[start] - '0');
  bool in_range = true;
  while (pos_ < source_.size() && Is(source_[pos_], kDigit)) {
    uint64_t digit = static_cast<uint64_t>(source_[pos_++] - '0');
    in_range = in_range && value <= (kMax - digit) / 10;
    if (in_range) value = value * 10 + digit;
  }
  if (!in_range) return Error(loc, "integer literal out of range");
  Token token = Slice(TokenKind::kIntLiteral, start, loc);
  token.int_value = static_cast<int64_t>(value);
  return token;
}

Token Lexer::LexString(common::SourceLocation loc) {
  // The contents are a slice of the source until an escape shows up;
  // from there on they are decoded into text of the lexer's own.
  const size_t contents = pos_;
  std::string decoded;
  bool escaped = false;
  while (true) {
    if (pos_ >= source_.size()) {
      return Error(loc, "unterminated string literal");
    }
    const char d = source_[pos_++];
    if (d == '"') break;
    if (d == '\n') {
      NewLine();
      return Error(loc, "newline in string literal");
    }
    if (d != '\\') {
      if (escaped) decoded.push_back(d);
      continue;
    }
    if (!escaped) {
      decoded.assign(source_.substr(contents, pos_ - 1 - contents));
      escaped = true;
    }
    if (pos_ >= source_.size()) return Error(loc, "unterminated escape");
    const char e = source_[pos_++];
    switch (e) {
      case '"':
        decoded.push_back('"');
        break;
      case '\\':
        decoded.push_back('\\');
        break;
      case 'n':
        decoded.push_back('\n');
        break;
      case 't':
        decoded.push_back('\t');
        break;
      default:
        if (e == '\n') NewLine();
        return Error(loc, Own(common::StrCat("bad escape '\\", e, "'")));
    }
  }
  Token token = Slice(TokenKind::kStringLiteral, contents, loc);
  token.text.remove_suffix(1);  // the closing quote
  if (escaped) token.text = Own(std::move(decoded));
  return token;
}

}  // namespace oodbsec::lang
