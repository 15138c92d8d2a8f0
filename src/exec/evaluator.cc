#include "exec/evaluator.h"

#include <span>
#include <utility>

#include "common/strings.h"

namespace oodbsec::exec {

using common::Result;
using types::Value;

Result<Value> Evaluator::CallFunction(const schema::FunctionDecl& fn,
                                      const std::vector<Value>& args) {
  if (args.size() != fn.params().size()) {
    return common::InvalidArgumentError(
        common::StrCat("'", fn.name(), "' expects ", fn.params().size(),
                       " argument(s), got ", args.size()));
  }
  const size_t base = stack_.size();
  stack_.insert(stack_.end(), args.begin(), args.end());
  Value result = Invoke(fn, base);
  return Finish(std::move(result), base);
}

Result<Value> Evaluator::CallByName(std::string_view name,
                                    const std::vector<Value>& args) {
  schema::Callable callable = db_.schema().ResolveCallable(name);
  switch (callable.kind) {
    case schema::Callable::Kind::kAccess:
      return CallFunction(*callable.access, args);
    case schema::Callable::Kind::kReadAttr: {
      if (args.size() != 1 || !args[0].is_object()) {
        return common::InvalidArgumentError(
            common::StrCat("'", name, "' expects one object argument"));
      }
      return db_.ReadAttribute(args[0].oid(), callable.attribute->name);
    }
    case schema::Callable::Kind::kWriteAttr: {
      if (args.size() != 2 || !args[0].is_object()) {
        return common::InvalidArgumentError(
            common::StrCat("'", name, "' expects (object, value) arguments"));
      }
      OODBSEC_RETURN_IF_ERROR(
          db_.WriteAttribute(args[0].oid(), callable.attribute->name,
                             args[1]));
      return Value::Null();
    }
    case schema::Callable::Kind::kNone:
      return common::NotFoundError(
          common::StrCat("unknown callable '", name, "'"));
  }
  return common::InternalError("unreachable");
}

size_t Evaluator::OpenFrame(size_t size) {
  const size_t base = stack_.size();
  stack_.resize(base + size);
  return base;
}

common::Status Evaluator::TakeError() {
  failed_ = false;
  return std::exchange(error_, common::Status::Ok());
}

Value Evaluator::Fail(common::Status status) {
  if (!failed_) {
    failed_ = true;
    error_ = std::move(status);
  }
  return Value();
}

Result<Value> Evaluator::Finish(Value result, size_t base) {
  stack_.resize(base);
  if (failed_) return TakeError();
  return result;
}

Value Evaluator::Invoke(const schema::FunctionDecl& fn, size_t base) {
  stack_.resize(base + fn.frame_size());
  Value result = Eval(fn.body(), base);
  stack_.resize(base);
  return result;
}

Value Evaluator::Eval(const lang::Expr& expr, size_t base) {
  switch (expr.kind()) {
    case lang::ExprKind::kConstant:
      return expr.AsConstant().value();

    case lang::ExprKind::kVarRef: {
      const lang::VarRefExpr& var = expr.AsVarRef();
      if (var.slot() < 0) {
        return Fail(common::InternalError(common::StrCat(
            "unbound variable '", var.name(),
            "' at evaluation time (missing type check?)")));
      }
      return slot(base, var.slot());
    }

    case lang::ExprKind::kCall:
      return EvalCall(expr.AsCall(), base);

    case lang::ExprKind::kLet: {
      const lang::LetExpr& let = expr.AsLet();
      for (const lang::LetExpr::Binding& binding : let.bindings()) {
        Value init = Eval(*binding.init, base);
        if (failed_) return Value();
        slot(base, binding.slot) = std::move(init);
      }
      return Eval(let.body(), base);
    }
  }
  return Fail(common::InternalError("unknown expression kind"));
}

Value Evaluator::EvalCall(const lang::CallExpr& call, size_t base) {
  // The arguments, left to right, straight onto the stack top: for an
  // access call they are the callee's frame.
  const size_t args = stack_.size();
  for (const auto& arg : call.args()) {
    Value value = Eval(*arg, base);
    if (failed_) {
      stack_.resize(args);
      return Value();
    }
    stack_.push_back(std::move(value));
  }

  Value result;
  switch (call.target()) {
    case lang::CallTarget::kBasic:
      result = call.basic()->Eval(
          std::span<const Value>(stack_).subspan(args));
      break;
    case lang::CallTarget::kAccess:
      if (call.access() == nullptr) {
        result = Fail(common::InternalError(
            common::StrCat("missing function '", call.name(), "'")));
        break;
      }
      return Invoke(*call.access(), args);
    case lang::CallTarget::kReadAttr: {
      const Value& object = stack_[args];
      if (!object.is_object()) {
        result = Fail(common::FailedPreconditionError(common::StrCat(
            "attribute read '", call.name(), "' on ", object.ToString())));
        break;
      }
      common::Status read = db_.ReadSlot(object.oid(), *call.attribute_class(),
                                         call.attribute_slot(), result);
      if (!read.ok()) result = Fail(std::move(read));
      break;
    }
    case lang::CallTarget::kWriteAttr: {
      const Value& object = stack_[args];
      if (!object.is_object()) {
        result = Fail(common::FailedPreconditionError(common::StrCat(
            "attribute write '", call.name(), "' on ", object.ToString())));
        break;
      }
      common::Status write =
          db_.WriteSlot(object.oid(), *call.attribute_class(),
                        call.attribute_slot(), std::move(stack_[args + 1]));
      if (!write.ok()) Fail(std::move(write));
      break;
    }
    case lang::CallTarget::kUnresolved:
      result = Fail(common::InternalError(common::StrCat(
          "unresolved call '", call.name(), "' (missing type check?)")));
      break;
  }
  stack_.resize(args);
  return result;
}

}  // namespace oodbsec::exec
