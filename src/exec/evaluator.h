// The interpreter for the function definition language: evaluates
// type-checked expressions against a database state, in the order of
// the paper's §3.2 (arguments left to right before the call, let
// initializers in order before the body).
//
// It never looks a name up. lang::TypeChecker annotates every node it
// checks (lang/ast.h): a variable reference carries its frame slot, a
// let binding the slot it fills, an access call its FunctionDecl, and
// an r_<att>/w_<att> call the declaring class and the attribute's slot,
// which store::Database reads and writes directly.
//
// Frames. An evaluator owns one contiguous stack of values. A frame is
// a run of slots on it: a function body's parameters, then its let
// bindings (FunctionDecl::frame_size() slots in all), or a query's
// from-variables and lets (query::SelectQuery::frame_size). A call
// evaluates its arguments straight onto the stack top, where they
// become the callee's frame; the callee's lets take the slots above
// them, and the call pops everything back when it returns. Once the
// stack has grown to the deepest call, evaluation allocates nothing of
// its own.
//
// Errors. Nodes evaluate to plain Values. The first runtime error (an
// attribute read on null, an unknown object, a value that does not fit
// an attribute) is kept in the evaluator, and evaluation stops at once:
// no later argument, let or write runs, just as if each node had
// returned the error. CallFunction and CallByName return it as their
// Status; the query engine takes it with TakeError().
//
// An evaluator reads the AST and never writes it, so threads share
// schemas and bound queries freely, each with its own evaluator.
#ifndef OODBSEC_EXEC_EVALUATOR_H_
#define OODBSEC_EXEC_EVALUATOR_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "lang/ast.h"
#include "schema/schema.h"
#include "store/database.h"
#include "types/value.h"

namespace oodbsec::exec {

class Evaluator {
 public:
  explicit Evaluator(store::Database& db) : db_(db) {}

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  // Calls an access function with the given argument values.
  common::Result<types::Value> CallFunction(
      const schema::FunctionDecl& fn, const std::vector<types::Value>& args);

  // Calls any callable (access function or special r_/w_) by name.
  common::Result<types::Value> CallByName(
      std::string_view name, const std::vector<types::Value>& args);

  // The frame interface of the query engine. OpenFrame pushes `size`
  // null slots and returns the frame's base; CloseFrame(base) pops it
  // and everything above it. slot() is valid until the next Eval or
  // OpenFrame.
  size_t OpenFrame(size_t size);
  void CloseFrame(size_t base) { stack_.resize(base); }
  types::Value& slot(size_t base, int slot) {
    return stack_[base + static_cast<size_t>(slot)];
  }

  // Evaluates a type-checked expression in the frame at `base`. On a
  // runtime error returns null and keeps the error: failed() stays true
  // until TakeError() hands the error over and clears it. A caller
  // evaluates nothing more once failed() is true.
  types::Value Eval(const lang::Expr& expr, size_t base);
  bool failed() const { return failed_; }
  common::Status TakeError();
  // Keeps `status` as the error unless one is already kept; returns
  // null. The query engine reports its own runtime errors through it.
  types::Value Fail(common::Status status);

 private:
  types::Value EvalCall(const lang::CallExpr& call, size_t base);
  // Runs `fn`'s body over the frame at `base`, whose first slots hold
  // the arguments; pops the frame.
  types::Value Invoke(const schema::FunctionDecl& fn, size_t base);
  common::Result<types::Value> Finish(types::Value result, size_t base);

  store::Database& db_;
  std::vector<types::Value> stack_;
  bool failed_ = false;
  common::Status error_;
};

}  // namespace oodbsec::exec

#endif  // OODBSEC_EXEC_EVALUATOR_H_
