#include "lang/lexer.h"

#include <cstdint>
#include <map>

#include "common/strings.h"

namespace oodbsec::lang {

namespace {

const std::map<std::string_view, TokenKind>& KeywordTable() {
  static const auto& table = *new std::map<std::string_view, TokenKind>{
      {"let", TokenKind::kKwLet},         {"in", TokenKind::kKwIn},
      {"end", TokenKind::kKwEnd},         {"null", TokenKind::kKwNull},
      {"true", TokenKind::kKwTrue},       {"false", TokenKind::kKwFalse},
      {"and", TokenKind::kKwAnd},         {"or", TokenKind::kKwOr},
      {"not", TokenKind::kKwNot},         {"class", TokenKind::kKwClass},
      {"function", TokenKind::kKwFunction}, {"user", TokenKind::kKwUser},
      {"can", TokenKind::kKwCan},         {"require", TokenKind::kKwRequire},
      {"select", TokenKind::kKwSelect},   {"from", TokenKind::kKwFrom},
      {"where", TokenKind::kKwWhere},     {"object", TokenKind::kKwObject},
      {"constraint", TokenKind::kKwConstraint},
  };
  return table;
}

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

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
      return common::StrCat("string ", common::QuoteString(token.text));
    default:
      return common::StrCat("'", token.text, "'");
  }
}

Lexer::Lexer(std::string_view source) : source_(source) {}

char Lexer::Peek(int ahead) const {
  size_t index = pos_ + static_cast<size_t>(ahead);
  return index < source_.size() ? source_[index] : '\0';
}

char Lexer::Advance() {
  char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = Peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      Advance();
    } else if (c == '#' || (c == '/' && Peek(1) == '/')) {
      while (!AtEnd() && Peek() != '\n') Advance();
    } else {
      return;
    }
  }
}

Token Lexer::Make(TokenKind kind, common::SourceLocation loc,
                  std::string text) const {
  Token token;
  token.kind = kind;
  token.text = std::move(text);
  token.location = loc;
  return token;
}

Token Lexer::Next() {
  SkipWhitespaceAndComments();
  common::SourceLocation loc = Here();
  if (AtEnd()) return Make(TokenKind::kEnd, loc);

  char c = Advance();

  if (IsIdentStart(c)) {
    std::string text(1, c);
    while (IsIdentChar(Peek())) text.push_back(Advance());
    auto it = KeywordTable().find(text);
    if (it != KeywordTable().end()) {
      return Make(it->second, loc, std::move(text));
    }
    return Make(TokenKind::kIdentifier, loc, std::move(text));
  }

  if (IsDigit(c)) {
    // Literals run up to 2^63, the magnitude of INT64_MIN (see
    // Token::int_value); a longer digit run is consumed whole and
    // reported, never wrapped.
    constexpr uint64_t kMax = uint64_t{1} << 63;
    uint64_t value = static_cast<uint64_t>(c - '0');
    bool in_range = true;
    while (IsDigit(Peek())) {
      uint64_t digit = static_cast<uint64_t>(Advance() - '0');
      in_range = in_range && value <= (kMax - digit) / 10;
      if (in_range) value = value * 10 + digit;
    }
    if (!in_range) {
      return Make(TokenKind::kError, loc, "integer literal out of range");
    }
    Token token = Make(TokenKind::kIntLiteral, loc);
    token.int_value = static_cast<int64_t>(value);
    return token;
  }

  if (c == '"') {
    std::string text;
    while (true) {
      if (AtEnd()) {
        return Make(TokenKind::kError, loc, "unterminated string literal");
      }
      char d = Advance();
      if (d == '"') break;
      if (d == '\n') {
        return Make(TokenKind::kError, loc, "newline in string literal");
      }
      if (d == '\\') {
        if (AtEnd()) {
          return Make(TokenKind::kError, loc, "unterminated escape");
        }
        char e = Advance();
        switch (e) {
          case '"': text.push_back('"'); break;
          case '\\': text.push_back('\\'); break;
          case 'n': text.push_back('\n'); break;
          case 't': text.push_back('\t'); break;
          default:
            return Make(TokenKind::kError, loc,
                        common::StrCat("bad escape '\\", e, "'"));
        }
      } else {
        text.push_back(d);
      }
    }
    return Make(TokenKind::kStringLiteral, loc, std::move(text));
  }

  auto two = [&](char second, TokenKind long_kind, TokenKind short_kind,
                 const char* long_text, const char* short_text) {
    if (Peek() == second) {
      Advance();
      return Make(long_kind, loc, long_text);
    }
    return Make(short_kind, loc, short_text);
  };

  switch (c) {
    case '(':
      return Make(TokenKind::kLParen, loc, "(");
    case ')':
      return Make(TokenKind::kRParen, loc, ")");
    case '{':
      return Make(TokenKind::kLBrace, loc, "{");
    case '}':
      return Make(TokenKind::kRBrace, loc, "}");
    case ',':
      return Make(TokenKind::kComma, loc, ",");
    case ':':
      return Make(TokenKind::kColon, loc, ":");
    case ';':
      return Make(TokenKind::kSemicolon, loc, ";");
    case '+':
      return Make(TokenKind::kPlus, loc, "+");
    case '-':
      return Make(TokenKind::kMinus, loc, "-");
    case '*':
      return Make(TokenKind::kStar, loc, "*");
    case '/':
      return Make(TokenKind::kSlash, loc, "/");
    case '%':
      return Make(TokenKind::kPercent, loc, "%");
    case '<':
      return two('=', TokenKind::kLessEq, TokenKind::kLess, "<=", "<");
    case '>':
      return two('=', TokenKind::kGreaterEq, TokenKind::kGreater, ">=", ">");
    case '=':
      return two('=', TokenKind::kEqEq, TokenKind::kAssign, "==", "=");
    case '!':
      if (Peek() == '=') {
        Advance();
        return Make(TokenKind::kNotEq, loc, "!=");
      }
      return Make(TokenKind::kError, loc, "stray '!'");
    default:
      return Make(TokenKind::kError, loc,
                  common::StrCat("unexpected character '", c, "'"));
  }
}

std::vector<Token> Lexer::TokenizeAll(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  while (true) {
    tokens.push_back(lexer.Next());
    if (tokens.back().kind == TokenKind::kEnd) return tokens;
  }
}

}  // namespace oodbsec::lang
