#include "query/query_parser.h"

#include "common/strings.h"
#include "lang/printer.h"
#include "schema/schema.h"

namespace oodbsec::query {

namespace {

using lang::TokenKind;

std::unique_ptr<SelectQuery> ParseQueryImpl(lang::TokenStream& stream,
                                            common::DiagnosticSink& sink,
                                            int depth) {
  if (depth > lang::kMaxNesting) {
    sink.Error(stream.location(),
               common::StrCat("select nested more than ", lang::kMaxNesting,
                              " levels deep"));
    return nullptr;
  }
  if (!stream.Expect(TokenKind::kKwSelect, "'select'", sink)) return nullptr;
  auto query = std::make_unique<SelectQuery>();

  // Items.
  while (true) {
    SelectItem item;
    if (stream.Check(TokenKind::kKwSelect) ||
        (stream.Check(TokenKind::kLParen) &&
         stream.Peek(1).kind == TokenKind::kKwSelect)) {
      bool parenthesized = stream.Match(TokenKind::kLParen);
      item.subquery = ParseQueryImpl(stream, sink, depth + 1);
      if (item.subquery == nullptr) return nullptr;
      if (parenthesized &&
          !stream.Expect(TokenKind::kRParen, "')'", sink)) {
        return nullptr;
      }
    } else {
      item.expr = lang::ParseExpression(stream, sink);
      if (item.expr == nullptr) return nullptr;
    }
    query->items.push_back(std::move(item));
    if (!stream.Match(TokenKind::kComma)) break;
  }

  // From clause.
  if (!stream.Expect(TokenKind::kKwFrom, "'from'", sink)) return nullptr;
  while (true) {
    if (!stream.Check(TokenKind::kIdentifier)) {
      sink.Error(stream.location(), "expected from-clause variable");
      return nullptr;
    }
    FromBinding binding;
    binding.var = stream.Advance().text;
    if (!stream.Expect(TokenKind::kKwIn, "'in'", sink)) return nullptr;
    binding.set_expr = lang::ParseExpression(stream, sink);
    if (binding.set_expr == nullptr) return nullptr;
    query->bindings.push_back(std::move(binding));
    if (!stream.Match(TokenKind::kComma)) break;
  }

  // Optional where clause.
  if (stream.Match(TokenKind::kKwWhere)) {
    query->where = lang::ParseExpression(stream, sink);
    if (query->where == nullptr) return nullptr;
  }

  return query;
}

}  // namespace

std::string SelectQuery::ToString() const {
  std::string out = "select ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    if (items[i].subquery != nullptr) {
      out += "(";
      out += items[i].subquery->ToString();
      out += ")";
    } else {
      out += lang::PrintExpr(*items[i].expr);
    }
  }
  out += " from ";
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i > 0) out += ", ";
    out += bindings[i].var;
    out += " in ";
    if (bindings[i].cls != nullptr) {
      out += bindings[i].cls->name();
    } else {
      out += lang::PrintExpr(*bindings[i].set_expr);
    }
  }
  if (where != nullptr) {
    out += " where ";
    out += lang::PrintExpr(*where);
  }
  return out;
}

std::unique_ptr<SelectQuery> ParseQuery(lang::TokenStream& stream,
                                        common::DiagnosticSink& sink) {
  return ParseQueryImpl(stream, sink, 1);
}

common::Result<std::unique_ptr<SelectQuery>> ParseQueryString(
    std::string_view source) {
  lang::TokenStream stream(source);
  common::DiagnosticSink sink;
  std::unique_ptr<SelectQuery> query = ParseQuery(stream, sink);
  if (query == nullptr) return sink.ToStatus();
  if (!stream.AtEnd()) {
    return common::ParseError(
        common::StrCat("trailing input at ", stream.location().ToString(),
                       ": ", DescribeToken(stream.Peek())));
  }
  return query;
}

}  // namespace oodbsec::query
