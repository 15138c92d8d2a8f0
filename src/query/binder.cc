#include "query/binder.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"
#include "lang/type_checker.h"

namespace oodbsec::query {

namespace {

using common::Status;

// Binds `query` with `outer_vars` in scope; its from-variables take the
// next slots. Sets query.frame_size to the slots it and its nested
// selects need, counting the outer variables.
Status BindImpl(SelectQuery& query, const schema::Schema& schema,
                std::vector<schema::Param>& outer_vars) {
  lang::TypeChecker checker(schema, schema.catalog());
  size_t outer_mark = outer_vars.size();
  size_t frame_size = outer_mark;
  auto check = [&](lang::Expr& expr, const types::Type* expected) {
    Status status = checker.CheckWithLocals(expr, outer_vars, expected);
    frame_size = std::max(frame_size, checker.frame_size());
    return status;
  };

  // From clause, left to right; each binding sees the previous ones.
  for (FromBinding& binding : query.bindings) {
    // A bare identifier naming a class is an extent source.
    if (binding.set_expr->kind() == lang::ExprKind::kVarRef) {
      const std::string& name = binding.set_expr->AsVarRef().name();
      const schema::ClassDef* cls = schema.FindClass(name);
      if (cls != nullptr) {
        binding.cls = cls;
        binding.element_type = cls->type();
        binding.slot = static_cast<int>(outer_vars.size());
        outer_vars.push_back({binding.var, cls->type()});
        frame_size = std::max(frame_size, outer_vars.size());
        continue;
      }
    }
    // Otherwise: a set-valued expression over the variables bound so far.
    Status status = check(*binding.set_expr, nullptr);
    if (!status.ok()) {
      outer_vars.resize(outer_mark);
      return status.WithContext(
          common::StrCat("in from-source of '", binding.var, "'"));
    }
    const types::Type* type = binding.set_expr->type();
    if (!type->is_set()) {
      outer_vars.resize(outer_mark);
      return common::TypeError(common::StrCat(
          "from-source of '", binding.var, "' has type ", type->ToString(),
          "; expected a class name or a set-valued expression"));
    }
    binding.element_type = type->element();
    binding.slot = static_cast<int>(outer_vars.size());
    outer_vars.push_back({binding.var, type->element()});
    frame_size = std::max(frame_size, outer_vars.size());
  }

  // Items.
  for (size_t i = 0; i < query.items.size(); ++i) {
    SelectItem& item = query.items[i];
    if (item.subquery != nullptr) {
      if (item.subquery->items.size() != 1) {
        outer_vars.resize(outer_mark);
        return common::TypeError(
            "nested select must have exactly one item (it yields a set)");
      }
      Status status = BindImpl(*item.subquery, schema, outer_vars);
      if (!status.ok()) {
        outer_vars.resize(outer_mark);
        return status;
      }
      frame_size = std::max(frame_size, item.subquery->frame_size);
    } else {
      Status status = check(*item.expr, nullptr);
      if (!status.ok()) {
        outer_vars.resize(outer_mark);
        return status.WithContext(common::StrCat("in select item ", i + 1));
      }
    }
  }

  // Where clause.
  if (query.where != nullptr) {
    Status status = check(*query.where, schema.pool().Bool());
    if (!status.ok()) {
      outer_vars.resize(outer_mark);
      return status.WithContext("in where clause");
    }
  }

  outer_vars.resize(outer_mark);
  query.frame_size = frame_size;
  query.bound = true;
  return Status::Ok();
}

}  // namespace

Status BindQuery(SelectQuery& query, const schema::Schema& schema) {
  std::vector<schema::Param> outer_vars;
  return BindImpl(query, schema, outer_vars);
}

}  // namespace oodbsec::query
