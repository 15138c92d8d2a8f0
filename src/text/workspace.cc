#include "text/workspace.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "lang/parser.h"
#include "lang/printer.h"

namespace oodbsec::text {

using common::Result;
using common::Status;
using lang::TokenKind;

namespace {

// A type expression in declarations: IDENT | int | bool | string | null
// | { type }.
bool ParseTypeText(lang::TokenStream& stream, common::DiagnosticSink& sink,
                   std::string& out, int depth = 1) {
  if (stream.Check(TokenKind::kLBrace)) {
    if (depth >= lang::kMaxNesting) {
      sink.Error(stream.location(),
                 common::StrCat("type nested more than ", lang::kMaxNesting,
                                " levels deep"));
      return false;
    }
    stream.Advance();
    std::string inner;
    if (!ParseTypeText(stream, sink, inner, depth + 1)) return false;
    if (!stream.Expect(TokenKind::kRBrace, "'}'", sink)) return false;
    out = common::StrCat("{", inner, "}");
    return true;
  }
  if (stream.Check(TokenKind::kIdentifier) ||
      stream.Check(TokenKind::kKwNull)) {
    out = stream.Advance().text;
    return true;
  }
  sink.Error(stream.location(), "expected a type");
  return false;
}

struct PendingObject {
  std::string class_name;
  std::vector<std::pair<std::string, types::Value>> fields;
  common::SourceLocation location;
};

struct PendingUser {
  std::string name;
  std::vector<std::string> grants;
};

}  // namespace

Result<Workspace> LoadWorkspace(std::string_view source) {
  lang::TokenStream stream(source);
  common::DiagnosticSink sink;
  schema::SchemaBuilder builder;
  std::vector<PendingUser> users;
  std::vector<core::Requirement> requirements;
  std::vector<PendingObject> objects;

  while (!stream.AtEnd()) {
    if (stream.Match(TokenKind::kSemicolon)) continue;

    if (stream.Match(TokenKind::kKwClass)) {
      if (!stream.Check(TokenKind::kIdentifier)) {
        sink.Error(stream.location(), "expected class name");
        return sink.ToStatus();
      }
      std::string name(stream.Advance().text);
      if (!stream.Expect(TokenKind::kLBrace, "'{'", sink)) {
        return sink.ToStatus();
      }
      std::vector<schema::SchemaBuilder::AttributeSpec> attributes;
      while (!stream.Check(TokenKind::kRBrace)) {
        if (!stream.Check(TokenKind::kIdentifier)) {
          sink.Error(stream.location(), "expected attribute name");
          return sink.ToStatus();
        }
        std::string attr(stream.Advance().text);
        if (!stream.Expect(TokenKind::kColon, "':'", sink)) {
          return sink.ToStatus();
        }
        std::string type;
        if (!ParseTypeText(stream, sink, type)) return sink.ToStatus();
        attributes.push_back({std::move(attr), std::move(type)});
        if (!stream.Match(TokenKind::kSemicolon) &&
            !stream.Match(TokenKind::kComma)) {
          break;
        }
      }
      if (!stream.Expect(TokenKind::kRBrace, "'}'", sink)) {
        return sink.ToStatus();
      }
      builder.AddClass(std::move(name), std::move(attributes));
      continue;
    }

    bool is_constraint = stream.Check(TokenKind::kKwConstraint);
    if (is_constraint || stream.Check(TokenKind::kKwFunction)) {
      stream.Advance();
      if (!stream.Check(TokenKind::kIdentifier)) {
        sink.Error(stream.location(), "expected function name");
        return sink.ToStatus();
      }
      std::string name(stream.Advance().text);
      if (is_constraint) builder.MarkConstraint(name);
      if (!stream.Expect(TokenKind::kLParen, "'('", sink)) {
        return sink.ToStatus();
      }
      std::vector<schema::SchemaBuilder::ParamSpec> params;
      if (!stream.Check(TokenKind::kRParen)) {
        while (true) {
          if (!stream.Check(TokenKind::kIdentifier)) {
            sink.Error(stream.location(), "expected parameter name");
            return sink.ToStatus();
          }
          std::string param(stream.Advance().text);
          if (!stream.Expect(TokenKind::kColon, "':'", sink)) {
            return sink.ToStatus();
          }
          std::string type;
          if (!ParseTypeText(stream, sink, type)) return sink.ToStatus();
          params.push_back({std::move(param), std::move(type)});
          if (!stream.Match(TokenKind::kComma)) break;
        }
      }
      if (!stream.Expect(TokenKind::kRParen, "')'", sink)) {
        return sink.ToStatus();
      }
      if (!stream.Expect(TokenKind::kColon, "':'", sink)) {
        return sink.ToStatus();
      }
      std::string return_type;
      if (!ParseTypeText(stream, sink, return_type)) return sink.ToStatus();
      if (!stream.Expect(TokenKind::kAssign, "'='", sink)) {
        return sink.ToStatus();
      }
      std::unique_ptr<lang::Expr> body = lang::ParseExpression(stream, sink);
      if (body == nullptr) return sink.ToStatus();
      if (!stream.Expect(TokenKind::kSemicolon, "';'", sink)) {
        return sink.ToStatus();
      }
      builder.AddFunctionAst(std::move(name), std::move(params),
                             std::move(return_type), std::move(body));
      continue;
    }

    if (stream.Match(TokenKind::kKwUser)) {
      if (!stream.Check(TokenKind::kIdentifier)) {
        sink.Error(stream.location(), "expected user name");
        return sink.ToStatus();
      }
      PendingUser user;
      user.name = stream.Advance().text;
      if (!stream.Expect(TokenKind::kKwCan, "'can'", sink)) {
        return sink.ToStatus();
      }
      while (true) {
        if (!stream.Check(TokenKind::kIdentifier)) {
          sink.Error(stream.location(), "expected function name in grant");
          return sink.ToStatus();
        }
        user.grants.emplace_back(stream.Advance().text);
        if (!stream.Match(TokenKind::kComma)) break;
      }
      if (!stream.Expect(TokenKind::kSemicolon, "';'", sink)) {
        return sink.ToStatus();
      }
      users.push_back(std::move(user));
      continue;
    }

    if (stream.Match(TokenKind::kKwRequire)) {
      std::optional<core::Requirement> req =
          core::ParseRequirement(stream, sink);
      if (!req.has_value()) return sink.ToStatus();
      if (!stream.Expect(TokenKind::kSemicolon, "';'", sink)) {
        return sink.ToStatus();
      }
      requirements.push_back(std::move(*req));
      continue;
    }

    if (stream.Match(TokenKind::kKwObject)) {
      PendingObject object;
      object.location = stream.location();
      if (!stream.Check(TokenKind::kIdentifier)) {
        sink.Error(stream.location(), "expected class name after 'object'");
        return sink.ToStatus();
      }
      object.class_name = stream.Advance().text;
      if (!stream.Expect(TokenKind::kLBrace, "'{'", sink)) {
        return sink.ToStatus();
      }
      while (!stream.Check(TokenKind::kRBrace)) {
        if (!stream.Check(TokenKind::kIdentifier)) {
          sink.Error(stream.location(), "expected attribute name");
          return sink.ToStatus();
        }
        std::string attr(stream.Advance().text);
        if (!stream.Expect(TokenKind::kAssign, "'='", sink)) {
          return sink.ToStatus();
        }
        const lang::Token& token = stream.Peek();
        types::Value value;
        switch (token.kind) {
          case TokenKind::kIntLiteral:
            if (token.int_value < 0) {  // 2^63 without a unary minus
              sink.Error(token.location, "integer literal out of range");
              return sink.ToStatus();
            }
            value = types::Value::Int(token.int_value);
            break;
          case TokenKind::kMinus: {
            stream.Advance();
            if (!stream.Check(TokenKind::kIntLiteral)) {
              sink.Error(stream.location(),
                         common::StrCat("expected integer after '-', found ",
                                        DescribeToken(stream.Peek())));
              return sink.ToStatus();
            }
            // FormatWorkspace prints INT64_MIN as -2^63, and the literal
            // 2^63 is held as INT64_MIN already.
            const int64_t digits = stream.Peek().int_value;
            value = types::Value::Int(digits < 0 ? digits : -digits);
            break;
          }
          case TokenKind::kStringLiteral:
            value = types::Value::String(std::string(token.text));
            break;
          case TokenKind::kKwTrue:
            value = types::Value::Bool(true);
            break;
          case TokenKind::kKwFalse:
            value = types::Value::Bool(false);
            break;
          case TokenKind::kKwNull:
            value = types::Value::Null();
            break;
          default:
            sink.Error(token.location,
                       common::StrCat(
                           "object fields take literal values only, found ",
                           DescribeToken(token)));
            return sink.ToStatus();
        }
        stream.Advance();
        object.fields.emplace_back(std::move(attr), std::move(value));
        if (!stream.Match(TokenKind::kComma)) break;
      }
      if (!stream.Expect(TokenKind::kRBrace, "'}'", sink)) {
        return sink.ToStatus();
      }
      objects.push_back(std::move(object));
      continue;
    }

    sink.Error(stream.location(),
               common::StrCat("expected a declaration, found ",
                              DescribeToken(stream.Peek())));
    return sink.ToStatus();
  }

  Workspace workspace;
  OODBSEC_ASSIGN_OR_RETURN(workspace.schema, std::move(builder).Build());
  workspace.users =
      std::make_unique<schema::UserRegistry>(*workspace.schema);
  for (PendingUser& user : users) {
    OODBSEC_RETURN_IF_ERROR(workspace.users->AddUser(std::move(user.name),
                                                     std::move(user.grants)));
  }
  for (const core::Requirement& req : requirements) {
    if (workspace.users->Find(req.user) == nullptr) {
      return common::NotFoundError(common::StrCat(
          "requirement ", req.ToString(), " names unknown user '", req.user,
          "'"));
    }
    if (!workspace.schema->ResolveCallable(req.function).ok()) {
      return common::NotFoundError(common::StrCat(
          "requirement ", req.ToString(), " names unknown function '",
          req.function, "'"));
    }
  }
  workspace.requirements = std::move(requirements);
  workspace.database = std::make_unique<store::Database>(*workspace.schema);
  for (const PendingObject& object : objects) {
    auto oid = workspace.database->CreateObject(object.class_name);
    if (!oid.ok()) {
      return oid.status().WithContext(common::StrCat(
          "object at ", object.location.ToString()));
    }
    for (const auto& [attr, value] : object.fields) {
      Status written = workspace.database->WriteAttribute(*oid, attr, value);
      if (!written.ok()) {
        return written.WithContext(
            common::StrCat("object at ", object.location.ToString()));
      }
    }
  }
  return workspace;
}

Result<Workspace> LoadWorkspaceFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return common::NotFoundError(
        common::StrCat("cannot open workspace file '", path, "'"));
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  Result<Workspace> workspace = LoadWorkspace(contents.str());
  if (!workspace.ok()) {
    return workspace.status().WithContext(path);
  }
  return workspace;
}

Result<std::vector<core::AnalysisReport>> CheckAllRequirements(
    const Workspace& workspace, core::ClosureOptions options) {
  core::SessionOptions session_options;
  session_options.closure = options;
  core::AnalysisSession session(*workspace.schema, *workspace.users,
                                session_options);
  std::vector<core::AnalysisReport> reports;
  // One closure per user, shared by that user's requirements.
  std::map<std::string, std::unique_ptr<core::UserAnalysis>> analyses;
  for (const core::Requirement& req : workspace.requirements) {
    auto it = analyses.find(req.user);
    if (it == analyses.end()) {
      // LoadWorkspace rejects requirements that name unknown users.
      OODBSEC_ASSIGN_OR_RETURN(std::unique_ptr<core::UserAnalysis> analysis,
                               session.BuildUser(*session.FindUser(req.user)));
      it = analyses.emplace(req.user, std::move(analysis)).first;
    }
    OODBSEC_ASSIGN_OR_RETURN(
        core::AnalysisReport report,
        core::CheckAgainstClosure(it->second->set(), it->second->closure(),
                                  req, &session.obs()));
    reports.push_back(std::move(report));
  }
  return reports;
}

std::string FormatWorkspace(const Workspace& workspace) {
  std::string out;
  const schema::Schema& schema = *workspace.schema;

  for (const auto& cls : schema.classes()) {
    out += common::StrCat("class ", cls->name(), " {\n");
    for (const schema::AttributeDef& attr : cls->attributes()) {
      out += common::StrCat("  ", attr.name, ": ", attr.type->ToString(),
                            ";\n");
    }
    out += "}\n\n";
  }

  std::set<std::string> constraint_names;
  for (const schema::FunctionDecl* constraint : schema.constraints()) {
    constraint_names.insert(constraint->name());
  }
  for (const auto& fn : schema.functions()) {
    bool is_constraint = constraint_names.count(fn->name()) > 0;
    out += common::StrCat(is_constraint ? "constraint " : "function ",
                          fn->name(), "(");
    for (size_t i = 0; i < fn->params().size(); ++i) {
      if (i > 0) out += ", ";
      out += common::StrCat(fn->params()[i].name, ": ",
                            fn->params()[i].type->ToString());
    }
    out += common::StrCat("): ", fn->return_type()->ToString(), " =\n  ",
                          lang::PrintExpr(fn->body()), ";\n\n");
  }

  for (const schema::User* user : workspace.users->users()) {
    if (user->capabilities().empty()) continue;
    std::vector<std::string> caps(user->capabilities().begin(),
                                  user->capabilities().end());
    out += common::StrCat("user ", user->name(), " can ",
                          common::Join(caps, ", "), ";\n");
  }
  if (!workspace.users->users().empty()) out += "\n";

  for (const core::Requirement& req : workspace.requirements) {
    out += common::StrCat("require ", req.ToString(), ";\n");
  }
  if (!workspace.requirements.empty()) out += "\n";

  for (const auto& cls : schema.classes()) {
    for (types::Oid oid : workspace.database->Extent(cls->name())) {
      std::vector<std::string> fields;
      for (const schema::AttributeDef& attr : cls->attributes()) {
        auto value = workspace.database->ReadAttribute(oid, attr.name);
        if (!value.ok()) continue;
        const types::Value& v = value.value();
        // Only literal-representable values round-trip.
        if (v.is_int() || v.is_string() || v.is_bool()) {
          fields.push_back(
              common::StrCat(attr.name, " = ", v.ToString()));
        }
      }
      out += common::StrCat("object ", cls->name(), " { ",
                            common::Join(fields, ", "), " }\n");
    }
  }
  return out;
}

}  // namespace oodbsec::text
