// Query execution: nested-loop evaluation over class extents and set
// sources, where-filtering, and left-to-right item evaluation (so
// side-effecting items such as w_budget(b, 1) interleave exactly as in
// the paper's probing query, §3.1).
//
// A run evaluates over one exec::Evaluator frame of the bound query's
// frame_size slots: each from-variable's loop writes its current value
// into the variable's slot, and items, conditions and set sources read
// it from there (exec/evaluator.h).
#ifndef OODBSEC_QUERY_QUERY_EVALUATOR_H_
#define OODBSEC_QUERY_QUERY_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/evaluator.h"
#include "query/query.h"
#include "schema/user.h"
#include "store/database.h"
#include "types/value.h"

namespace oodbsec::query {

struct QueryResult {
  // One row per surviving from-clause assignment; one value per item.
  std::vector<std::vector<types::Value>> rows;

  std::string ToString() const;
};

class QueryEvaluator {
 public:
  // `user` restricts which functions the query may invoke; nullptr runs
  // with no restriction (administrator).
  QueryEvaluator(store::Database& db, const schema::User* user)
      : db_(db), user_(user), evaluator_(db) {}

  // Runs a bound query. Fails with PermissionDenied before touching the
  // database if the capability check fails.
  common::Result<QueryResult> Run(const SelectQuery& query);

 private:
  // Appends to `result` the rows of `query` with its from-variables
  // bound from `index` on, over the frame at `frame`; false once the
  // evaluator has failed.
  bool Bindings(const SelectQuery& query, size_t index, size_t frame,
                QueryResult& result);
  // Appends the row of the current binding, if the where clause holds.
  bool Row(const SelectQuery& query, size_t frame, QueryResult& result);

  const store::Database& db_;
  const schema::User* user_;
  exec::Evaluator evaluator_;
};

}  // namespace oodbsec::query

#endif  // OODBSEC_QUERY_QUERY_EVALUATOR_H_
