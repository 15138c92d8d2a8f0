// Name resolution and type checking for the function definition language.
//
// Resolution order for a call f(…):
//   1. an access function named f in the schema,
//   2. the special functions r_<att> / w_<att> when <att> is a declared
//      attribute,
//   3. a basic function overload matching the argument types.
//
// Types use pointer identity (TypePool interning); there is no subtyping.
// The `null` literal is assignable to class- and set-typed positions.
//
// Checking also annotates what the evaluator (exec/evaluator.h) needs.
// A variable's slot is its index on the checker's scope stack: the
// parameters or locals a check starts with take 0..n-1, and each let
// binding takes the next index while it is in scope. frame_size() is
// the most slots the last check had in scope at once.
#ifndef OODBSEC_LANG_TYPE_CHECKER_H_
#define OODBSEC_LANG_TYPE_CHECKER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/basic_functions.h"
#include "lang/ast.h"
#include "schema/schema.h"

namespace oodbsec::lang {

// True when a value of `source` type may appear where `target` is
// expected.
bool IsAssignable(const types::Type* target, const types::Type* source);

class TypeChecker {
 public:
  TypeChecker(const schema::Schema& schema,
              const exec::BasicFunctionCatalog& catalog)
      : schema_(schema), catalog_(catalog) {}

  // Type checks `expr` as the body of a function with `params` bound as
  // argument variables. If `expected` is non-null the body's type must be
  // assignable to it. Annotates every node with its type and resolves
  // variable slots and call targets.
  common::Status CheckFunctionBody(Expr& expr,
                                   const std::vector<schema::Param>& params,
                                   const types::Type* expected);

  // Type checks `expr` with `locals` bound as local variables (used for
  // query items/conditions, where from-clause variables are in scope).
  common::Status CheckWithLocals(Expr& expr,
                                 const std::vector<schema::Param>& locals,
                                 const types::Type* expected);

  // The frame slots the expression last checked needs: its parameters
  // or locals plus its deepest let nesting.
  size_t frame_size() const { return frame_size_; }

 private:
  // Names are views of the parameters, locals or let bindings that
  // bind them, which outlive the check.
  struct Scope {
    std::string_view name;
    const types::Type* type;
  };

  common::Result<const types::Type*> Check(Expr& expr);
  common::Result<const types::Type*> CheckCall(CallExpr& call);
  common::Status CheckTopLevel(Expr& expr, const types::Type* expected);

  const schema::Schema& schema_;
  const exec::BasicFunctionCatalog& catalog_;
  std::vector<Scope> scopes_;
  size_t frame_size_ = 0;
};

}  // namespace oodbsec::lang

#endif  // OODBSEC_LANG_TYPE_CHECKER_H_
