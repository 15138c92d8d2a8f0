#include "core/requirement.h"

#include "common/strings.h"

namespace oodbsec::core {

using lang::TokenKind;

size_t Requirement::capability_count() const {
  size_t count = return_caps.size();
  for (const std::set<Capability>& caps : arg_caps) count += caps.size();
  return count;
}

std::string Requirement::ToString() const {
  std::string out = common::StrCat("(", user, ", ", function, "(");
  for (size_t i = 0; i < arg_names.size(); ++i) {
    if (i > 0) out += ", ";
    out += arg_names[i];
    for (Capability cap : arg_caps[i]) {
      out += " : ";
      out += CapabilityName(cap);
    }
  }
  out += ")";
  for (Capability cap : return_caps) {
    out += " : ";
    out += CapabilityName(cap);
  }
  out += ")";
  return out;
}

namespace {

// Parses a possibly empty ": cap : cap …" list.
bool ParseCapList(lang::TokenStream& stream, common::DiagnosticSink& sink,
                  std::set<Capability>& out) {
  while (stream.Match(TokenKind::kColon)) {
    if (!stream.Check(TokenKind::kIdentifier)) {
      sink.Error(stream.location(), "expected capability (ti|pi|ta|pa)");
      return false;
    }
    const lang::Token& token = stream.Advance();
    std::optional<Capability> cap = ParseCapability(token.text);
    if (!cap.has_value()) {
      sink.Error(token.location,
                 common::StrCat("unknown capability '", token.text,
                                "' (expected ti|pi|ta|pa)"));
      return false;
    }
    out.insert(*cap);
  }
  return true;
}

}  // namespace

std::optional<Requirement> ParseRequirement(lang::TokenStream& stream,
                                            common::DiagnosticSink& sink) {
  Requirement req;
  if (!stream.Expect(TokenKind::kLParen, "'('", sink)) return std::nullopt;
  if (!stream.Check(TokenKind::kIdentifier)) {
    sink.Error(stream.location(), "expected user name");
    return std::nullopt;
  }
  req.user = stream.Advance().text;
  if (!stream.Expect(TokenKind::kComma, "','", sink)) return std::nullopt;
  if (!stream.Check(TokenKind::kIdentifier)) {
    sink.Error(stream.location(), "expected function name");
    return std::nullopt;
  }
  req.function = stream.Advance().text;
  if (!stream.Expect(TokenKind::kLParen, "'('", sink)) return std::nullopt;
  if (!stream.Check(TokenKind::kRParen)) {
    while (true) {
      if (!stream.Check(TokenKind::kIdentifier)) {
        sink.Error(stream.location(), "expected argument name");
        return std::nullopt;
      }
      req.arg_names.emplace_back(stream.Advance().text);
      req.arg_caps.emplace_back();
      if (!ParseCapList(stream, sink, req.arg_caps.back())) {
        return std::nullopt;
      }
      if (!stream.Match(TokenKind::kComma)) break;
    }
  }
  if (!stream.Expect(TokenKind::kRParen, "')'", sink)) return std::nullopt;
  if (!ParseCapList(stream, sink, req.return_caps)) return std::nullopt;
  if (!stream.Expect(TokenKind::kRParen, "')'", sink)) return std::nullopt;
  if (req.capability_count() == 0) {
    sink.Error(stream.location(),
               "requirement lists no capabilities; it would be vacuous");
    return std::nullopt;
  }
  return req;
}

common::Result<Requirement> ParseRequirementString(std::string_view source) {
  lang::TokenStream stream(source);
  common::DiagnosticSink sink;
  std::optional<Requirement> req = ParseRequirement(stream, sink);
  if (!req.has_value()) return sink.ToStatus();
  if (!stream.AtEnd()) {
    return common::ParseError(
        common::StrCat("trailing input at ", stream.location().ToString()));
  }
  return *req;
}

}  // namespace oodbsec::core
