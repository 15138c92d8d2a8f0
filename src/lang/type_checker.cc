#include "lang/type_checker.h"

#include <algorithm>

#include "common/strings.h"
#include "lang/printer.h"

namespace oodbsec::lang {

using common::Result;
using common::Status;
using types::Type;

bool IsAssignable(const Type* target, const Type* source) {
  if (target == source) return true;
  // `null` fits any class- or set-typed position.
  if (source != nullptr && source->kind() == types::TypeKind::kNull &&
      target != nullptr && (target->is_class() || target->is_set())) {
    return true;
  }
  return false;
}

Status TypeChecker::CheckFunctionBody(Expr& expr,
                                      const std::vector<schema::Param>& params,
                                      const Type* expected) {
  scopes_.clear();
  for (const schema::Param& param : params) {
    scopes_.push_back({param.name, param.type});
  }
  return CheckTopLevel(expr, expected);
}

Status TypeChecker::CheckWithLocals(Expr& expr,
                                    const std::vector<schema::Param>& locals,
                                    const Type* expected) {
  scopes_.clear();
  for (const schema::Param& local : locals) {
    scopes_.push_back({local.name, local.type});
  }
  return CheckTopLevel(expr, expected);
}

Status TypeChecker::CheckTopLevel(Expr& expr, const Type* expected) {
  frame_size_ = scopes_.size();
  OODBSEC_ASSIGN_OR_RETURN(const Type* type, Check(expr));
  if (expected != nullptr && !IsAssignable(expected, type)) {
    return common::TypeError(common::StrCat(
        "expression '", PrintExpr(expr), "' has type ", type->ToString(),
        ", expected ", expected->ToString()));
  }
  return Status::Ok();
}

Result<const Type*> TypeChecker::Check(Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kConstant: {
      const types::Value& v = expr.AsConstant().value();
      const Type* type = nullptr;
      if (v.is_int()) {
        type = schema_.pool().Int();
      } else if (v.is_bool()) {
        type = schema_.pool().Bool();
      } else if (v.is_string()) {
        type = schema_.pool().String();
      } else if (v.is_null()) {
        type = schema_.pool().Null();
      } else {
        return common::TypeError(
            common::StrCat("unsupported constant ", v.ToString()));
      }
      expr.set_type(type);
      return type;
    }

    case ExprKind::kVarRef: {
      VarRefExpr& var = expr.AsVarRef();
      for (size_t slot = scopes_.size(); slot-- > 0;) {
        const Scope& scope = scopes_[slot];
        if (scope.name == var.name()) {
          var.set_slot(static_cast<int>(slot));
          var.set_type(scope.type);
          return scope.type;
        }
      }
      return common::TypeError(
          common::StrCat("unbound variable '", var.name(), "'"));
    }

    case ExprKind::kCall:
      return CheckCall(expr.AsCall());

    case ExprKind::kLet: {
      LetExpr& let = expr.AsLet();
      size_t scope_mark = scopes_.size();
      for (LetExpr::Binding& binding : let.mutable_bindings()) {
        OODBSEC_ASSIGN_OR_RETURN(const Type* init_type,
                                 Check(*binding.init));
        binding.slot = static_cast<int>(scopes_.size());
        scopes_.push_back({binding.name, init_type});
        frame_size_ = std::max(frame_size_, scopes_.size());
      }
      Result<const Type*> body_type = Check(let.mutable_body());
      scopes_.resize(scope_mark);
      if (!body_type.ok()) return body_type;
      let.set_type(body_type.value());
      return body_type;
    }
  }
  return common::InternalError("unknown expression kind");
}

Result<const Type*> TypeChecker::CheckCall(CallExpr& call) {
  // Check argument expressions first; their types drive overload
  // resolution for basic functions.
  std::vector<const Type*> arg_types;
  arg_types.reserve(call.args().size());
  for (const auto& arg : call.mutable_args()) {
    OODBSEC_ASSIGN_OR_RETURN(const Type* type, Check(*arg));
    arg_types.push_back(type);
  }

  schema::Callable callable = schema_.ResolveCallable(call.name());
  if (callable.ok()) {
    if (arg_types.size() != callable.param_types.size()) {
      return common::TypeError(common::StrCat(
          "'", call.name(), "' expects ", callable.param_types.size(),
          " argument(s), got ", arg_types.size()));
    }
    for (size_t i = 0; i < arg_types.size(); ++i) {
      if (!IsAssignable(callable.param_types[i], arg_types[i])) {
        return common::TypeError(common::StrCat(
            "argument ", i + 1, " of '", call.name(), "' has type ",
            arg_types[i]->ToString(), ", expected ",
            callable.param_types[i]->ToString()));
      }
    }
    switch (callable.kind) {
      case schema::Callable::Kind::kAccess:
        call.set_target(CallTarget::kAccess);
        call.set_access(callable.access);
        break;
      case schema::Callable::Kind::kReadAttr:
      case schema::Callable::Kind::kWriteAttr:
        call.set_target(callable.kind == schema::Callable::Kind::kReadAttr
                            ? CallTarget::kReadAttr
                            : CallTarget::kWriteAttr);
        call.set_attribute(callable.attribute->name);
        call.set_attribute_slot(
            callable.cls,
            static_cast<int>(callable.attribute -
                             callable.cls->attributes().data()));
        break;
      case schema::Callable::Kind::kNone:
        return common::InternalError("resolved callable without kind");
    }
    call.set_type(callable.return_type);
    return callable.return_type;
  }

  const exec::BasicFunction* basic = catalog_.Find(call.name(), arg_types);
  if (basic != nullptr) {
    call.set_target(CallTarget::kBasic);
    call.set_basic(basic);
    call.set_type(basic->result());
    return basic->result();
  }
  if (catalog_.HasName(call.name())) {
    std::vector<std::string> rendered;
    rendered.reserve(arg_types.size());
    for (const Type* t : arg_types) rendered.push_back(t->ToString());
    return common::TypeError(common::StrCat(
        "no overload of '", call.name(), "' accepts (",
        common::Join(rendered, ", "), ")"));
  }
  return common::TypeError(
      common::StrCat("unknown function '", call.name(), "'"));
}

}  // namespace oodbsec::lang
