#include "query/capability.h"

#include "common/strings.h"

namespace oodbsec::query {

namespace {

void CollectFromExpr(const lang::Expr& expr, std::set<std::string>& names) {
  switch (expr.kind()) {
    case lang::ExprKind::kConstant:
    case lang::ExprKind::kVarRef:
      return;
    case lang::ExprKind::kCall: {
      const lang::CallExpr& call = expr.AsCall();
      if (call.target() == lang::CallTarget::kAccess ||
          call.target() == lang::CallTarget::kReadAttr ||
          call.target() == lang::CallTarget::kWriteAttr) {
        names.insert(call.name());
      }
      for (const auto& arg : call.args()) CollectFromExpr(*arg, names);
      return;
    }
    case lang::ExprKind::kLet: {
      const lang::LetExpr& let = expr.AsLet();
      for (const auto& binding : let.bindings()) {
        CollectFromExpr(*binding.init, names);
      }
      CollectFromExpr(let.body(), names);
      return;
    }
  }
}

void CollectFromQuery(const SelectQuery& query, std::set<std::string>& names) {
  for (const FromBinding& binding : query.bindings) {
    if (binding.cls == nullptr) {
      CollectFromExpr(*binding.set_expr, names);
    }
  }
  for (const SelectItem& item : query.items) {
    if (item.subquery != nullptr) {
      CollectFromQuery(*item.subquery, names);
    } else {
      CollectFromExpr(*item.expr, names);
    }
  }
  if (query.where != nullptr) CollectFromExpr(*query.where, names);
}

}  // namespace

std::set<std::string> CollectInvokedFunctions(const SelectQuery& query) {
  std::set<std::string> names;
  CollectFromQuery(query, names);
  return names;
}

common::Status CheckQueryCapabilities(const SelectQuery& query,
                                      const schema::User& user) {
  for (const std::string& name : CollectInvokedFunctions(query)) {
    if (!user.MayInvoke(name)) {
      return common::PermissionDeniedError(common::StrCat(
          "user '", user.name(), "' may not invoke '", name, "'"));
    }
  }
  return common::Status::Ok();
}

}  // namespace oodbsec::query
