// The SQL-like query language (paper §2):
//
//   select item, … from A1 in C1, …, An in Cn where condition
//
// From-sources are class names (extents) or set-valued expressions over
// earlier from-variables (e.g. `child(p)`). Items are expressions —
// including side-effecting w_<att> calls, evaluated left to right — or
// nested select queries, which yield set values and must have exactly
// one item.
//
// A query must be bound (query/binder.h) before evaluation; binding
// resolves from-sources, type checks items and the condition, and
// annotates every expression. It also lays out the query's evaluation
// frame: from-variables take slots in binding order, a nested select's
// continue after its outer query's, and let bindings follow the
// variables in scope (exec/evaluator.h).
#ifndef OODBSEC_QUERY_QUERY_H_
#define OODBSEC_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "lang/ast.h"

namespace oodbsec::query {

class SelectQuery;

// One from-clause binding `var in source`.
struct FromBinding {
  std::string var;
  // The unbound source expression. After binding, either `cls` is set
  // (the source was a class extent) or `set_expr` is type checked to a
  // set type.
  std::unique_ptr<lang::Expr> set_expr;
  const schema::ClassDef* cls = nullptr;      // the extent's class
  const types::Type* element_type = nullptr;  // the type of `var`
  int slot = -1;                              // `var`'s frame slot
};

// One select item: exactly one of `expr` / `subquery` is set.
struct SelectItem {
  std::unique_ptr<lang::Expr> expr;
  std::unique_ptr<SelectQuery> subquery;
};

class SelectQuery {
 public:
  std::vector<SelectItem> items;
  std::vector<FromBinding> bindings;
  std::unique_ptr<lang::Expr> where;  // may be null

  bool bound = false;  // set by BindQuery
  // The frame slots evaluation needs: every from-variable of this query
  // and its nested selects, plus the deepest let nesting. Set by
  // BindQuery.
  size_t frame_size = 0;

  // Re-renders the query as source text.
  std::string ToString() const;
};

}  // namespace oodbsec::query

#endif  // OODBSEC_QUERY_QUERY_H_
