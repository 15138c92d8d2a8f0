#include "lang/ast.h"

#include <cassert>

namespace oodbsec::lang {

const ConstantExpr& Expr::AsConstant() const {
  assert(kind() == ExprKind::kConstant);
  return static_cast<const ConstantExpr&>(*this);
}
const VarRefExpr& Expr::AsVarRef() const {
  assert(kind() == ExprKind::kVarRef);
  return static_cast<const VarRefExpr&>(*this);
}
const CallExpr& Expr::AsCall() const {
  assert(kind() == ExprKind::kCall);
  return static_cast<const CallExpr&>(*this);
}
const LetExpr& Expr::AsLet() const {
  assert(kind() == ExprKind::kLet);
  return static_cast<const LetExpr&>(*this);
}
ConstantExpr& Expr::AsConstant() {
  assert(kind() == ExprKind::kConstant);
  return static_cast<ConstantExpr&>(*this);
}
VarRefExpr& Expr::AsVarRef() {
  assert(kind() == ExprKind::kVarRef);
  return static_cast<VarRefExpr&>(*this);
}
CallExpr& Expr::AsCall() {
  assert(kind() == ExprKind::kCall);
  return static_cast<CallExpr&>(*this);
}
LetExpr& Expr::AsLet() {
  assert(kind() == ExprKind::kLet);
  return static_cast<LetExpr&>(*this);
}

std::unique_ptr<Expr> ConstantExpr::Clone() const {
  auto clone = std::make_unique<ConstantExpr>(value_);
  clone->range = range;
  clone->set_type(type());
  return clone;
}

std::unique_ptr<Expr> VarRefExpr::Clone() const {
  auto clone = std::make_unique<VarRefExpr>(name_);
  clone->range = range;
  clone->set_type(type());
  clone->set_slot(slot_);
  return clone;
}

std::unique_ptr<Expr> CallExpr::Clone() const {
  std::vector<std::unique_ptr<Expr>> args;
  args.reserve(args_.size());
  for (const auto& arg : args_) args.push_back(arg->Clone());
  auto clone = std::make_unique<CallExpr>(name_, std::move(args));
  clone->range = range;
  clone->set_type(type());
  clone->set_target(target_);
  clone->set_attribute(attribute_);
  clone->set_attribute_slot(attribute_class_, attribute_slot_);
  clone->set_basic(basic_);
  clone->set_access(access_);
  return clone;
}

std::unique_ptr<Expr> LetExpr::Clone() const {
  std::vector<Binding> bindings;
  bindings.reserve(bindings_.size());
  for (const Binding& binding : bindings_) {
    bindings.push_back({binding.name, binding.init->Clone(), binding.slot});
  }
  auto clone = std::make_unique<LetExpr>(std::move(bindings), body_->Clone());
  clone->range = range;
  clone->set_type(type());
  return clone;
}

std::unique_ptr<Expr> MakeInt(int64_t v) {
  return std::make_unique<ConstantExpr>(types::Value::Int(v));
}
std::unique_ptr<Expr> MakeBool(bool v) {
  return std::make_unique<ConstantExpr>(types::Value::Bool(v));
}
std::unique_ptr<Expr> MakeString(std::string v) {
  return std::make_unique<ConstantExpr>(types::Value::String(std::move(v)));
}
std::unique_ptr<Expr> MakeNull() {
  return std::make_unique<ConstantExpr>(types::Value::Null());
}
std::unique_ptr<Expr> MakeVar(std::string name) {
  return std::make_unique<VarRefExpr>(std::move(name));
}
std::unique_ptr<Expr> MakeCall(std::string name,
                               std::vector<std::unique_ptr<Expr>> args) {
  return std::make_unique<CallExpr>(std::move(name), std::move(args));
}

}  // namespace oodbsec::lang
