#include "query/query_evaluator.h"

#include "common/strings.h"
#include "query/capability.h"

namespace oodbsec::query {

using common::Result;
using common::Status;
using types::Value;

std::string QueryResult::ToString() const {
  std::string out;
  for (const std::vector<Value>& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& v : row) cells.push_back(v.ToString());
    out += "(";
    out += common::Join(cells, ", ");
    out += ")\n";
  }
  return out;
}

Result<QueryResult> QueryEvaluator::Run(const SelectQuery& query) {
  if (!query.bound) {
    return common::FailedPreconditionError("query is not bound");
  }
  if (user_ != nullptr) {
    OODBSEC_RETURN_IF_ERROR(CheckQueryCapabilities(query, *user_));
  }
  QueryResult result;
  const size_t frame = evaluator_.OpenFrame(query.frame_size);
  const bool ok = Bindings(query, 0, frame, result);
  evaluator_.CloseFrame(frame);
  if (!ok) return evaluator_.TakeError();
  return result;
}

bool QueryEvaluator::Bindings(const SelectQuery& query, size_t index,
                              size_t frame, QueryResult& result) {
  if (index == query.bindings.size()) return Row(query, frame, result);
  const FromBinding& binding = query.bindings[index];

  if (binding.cls != nullptr) {
    // Queries create no objects, so the extent stays put while we walk it.
    for (types::Oid oid : db_.Extent(*binding.cls)) {
      evaluator_.slot(frame, binding.slot) = Value::Object(oid);
      if (!Bindings(query, index + 1, frame, result)) return false;
    }
    return true;
  }

  Value set_value = evaluator_.Eval(*binding.set_expr, frame);
  if (evaluator_.failed()) return false;
  if (set_value.is_null()) return true;  // empty source
  if (!set_value.is_set()) {
    evaluator_.Fail(common::TypeError(
        common::StrCat("from-source of '", binding.var,
                       "' evaluated to non-set ", set_value.ToString())));
    return false;
  }
  for (const Value& element : set_value.set_value()) {
    evaluator_.slot(frame, binding.slot) = element;
    if (!Bindings(query, index + 1, frame, result)) return false;
  }
  return true;
}

bool QueryEvaluator::Row(const SelectQuery& query, size_t frame,
                         QueryResult& result) {
  if (query.where != nullptr) {
    Value cond = evaluator_.Eval(*query.where, frame);
    if (evaluator_.failed()) return false;
    if (!cond.is_bool() || !cond.bool_value()) return true;
  }

  std::vector<Value> row;
  row.reserve(query.items.size());
  for (const SelectItem& item : query.items) {
    if (item.subquery != nullptr) {
      QueryResult sub;
      if (!Bindings(*item.subquery, 0, frame, sub)) return false;
      types::ValueSet elements;
      elements.reserve(sub.rows.size());
      for (std::vector<Value>& sub_row : sub.rows) {
        elements.push_back(std::move(sub_row[0]));
      }
      row.push_back(Value::Set(std::move(elements)));
    } else {
      row.push_back(evaluator_.Eval(*item.expr, frame));
      if (evaluator_.failed()) return false;
    }
  }
  result.rows.push_back(std::move(row));
  return true;
}

}  // namespace oodbsec::query
