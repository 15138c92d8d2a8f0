// Unfolding and numbering (paper §3.3 / §4.1).
//
// Given a set of directly invocable functions F (a user's capability
// list), every access-function invocation f(e1,…,en) is recursively
// replaced by
//
//   let(f) x1 = e1, …, xn = en in body end
//
// and every subexpression occurrence is numbered in evaluation order:
// call arguments before the call, let-bound expressions before the body
// before the let node itself. This reproduces the paper's numbering, e.g.
// checkBudget unfolds to
//
//   7>=( 2r_budget(1broker), 6*( 3:10, 5r_salary(4broker) ) )
//
// with the argument variable `broker` occurring at 1 and 4. The special
// functions r_att / w_att can themselves be roots (w_budget(8o, 9v) in
// the paper's §4.2 example).
//
// The same machinery builds numbered function *sequences* for the
// semantic side (src/semantics): a sequence is just a root list with
// duplicates allowed.
#ifndef OODBSEC_UNFOLD_UNFOLDED_H_
#define OODBSEC_UNFOLD_UNFOLDED_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/basic_functions.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "types/type.h"
#include "types/value.h"

namespace oodbsec::unfold {

enum class NodeKind {
  kConstant,
  kVarRef,     // occurrence of a root argument or let-bound variable
  kBasicCall,
  kReadAttr,   // r_<att>(obj)
  kWriteAttr,  // w_<att>(obj, value)
  kLet,        // let(f) from unfolding, or a source-level let
};

// One numbered subexpression occurrence (the paper's ᵏe). Nodes are owned
// by the UnfoldedSet arena; all pointers are stable.
struct Node {
  int id = 0;  // 1-based evaluation-order number, unique across the set
  NodeKind kind = NodeKind::kConstant;
  const types::Type* type = nullptr;
  Node* parent = nullptr;  // null for root bodies
  int child_index = -1;    // position within parent->children

  // Children in evaluation order. For kLet: the bound expressions
  // followed by the body (children.back()).
  std::vector<Node*> children;

  types::Value constant;  // kConstant

  int binder_id = -1;     // kVarRef: which binder this occurrence refers to
  std::string var_name;   // kVarRef

  const exec::BasicFunction* basic = nullptr;  // kBasicCall

  std::string attribute;                        // kReadAttr / kWriteAttr
  const schema::ClassDef* attr_class = nullptr; // class declaring it

  // kLet: the unfolded access function's name, or "" for source lets.
  std::string origin_function;
  std::vector<int> binder_ids;          // kLet: one per bound expression
  std::vector<std::string> binder_names;  // kLet: parallel to binder_ids

  const Node* body() const { return children.back(); }           // kLet
  const Node* object_child() const { return children[0]; }       // r/w
  const Node* value_child() const { return children[1]; }        // w only
  bool is_let() const { return kind == NodeKind::kLet; }
};

// A variable binder: a root argument or a let binding position.
struct Binder {
  int id = -1;
  std::string name;
  const types::Type* type = nullptr;
  bool is_root_arg = false;
  int root_index = -1;  // for root args
  int arg_index = -1;   // for root args
  const Node* let_node = nullptr;  // for let binders
  int let_pos = -1;                // position within the let
  // The bound expression (for let binders); null for root args.
  const Node* bound_expr = nullptr;
  // All kVarRef occurrences of this binder.
  std::vector<const Node*> occurrences;
};

// One directly invocable function from the root list.
//
// Site-id stability: unfolding one function is deterministic and
// self-contained — it consults only the schema, never the other roots —
// so the root's subtree always occupies the contiguous id range
// [first_node_id, body->id] and has the same shape (and the same
// id-minus-first_node_id offsets) no matter which root list it appears
// in or at which position. Building a closure from a base (core::Closure's
// `base` constructor, growing or shrinking) relies on this invariant to
// translate fact node ids between two unfolds that share root functions.
struct Root {
  std::string function_name;
  schema::Callable callable;
  std::vector<int> arg_binder_ids;
  Node* body = nullptr;
  // First occurrence id of this root's subtree; the last is body->id
  // (the body is numbered after all of its descendants).
  int first_node_id = 0;
};

// The unfolded, numbered set S(F) with cross-reference tables.
class UnfoldedSet {
 public:
  // `root_names` may contain duplicates (function sequences). Every name
  // must resolve to an access function or special function. When `obs`
  // is given, the build runs under an "unfold" span and reports node /
  // root counts to the metrics registry.
  static common::Result<std::unique_ptr<UnfoldedSet>> Build(
      const schema::Schema& schema, const std::vector<std::string>& root_names,
      obs::Observability* obs = nullptr);

  UnfoldedSet(const UnfoldedSet&) = delete;
  UnfoldedSet& operator=(const UnfoldedSet&) = delete;

  const schema::Schema& schema() const { return *schema_; }
  const std::vector<Root>& roots() const { return roots_; }
  const std::vector<Binder>& binders() const { return binders_; }

  int node_count() const { return static_cast<int>(nodes_by_id_.size()); }
  // 1-based lookup; id must be in [1, node_count()].
  const Node* node(int id) const { return nodes_by_id_[id - 1]; }
  const Binder& binder(int id) const { return binders_[id]; }

  // All kReadAttr / kWriteAttr occurrences on `attribute`.
  const std::vector<const Node*>& reads(const std::string& attribute) const;
  const std::vector<const Node*>& writes(const std::string& attribute) const;
  // Attributes with at least one read or write occurrence.
  std::vector<std::string> touched_attributes() const;

  // Role predicates (paper: "argument variable of an outer-most
  // function" / "entire body of an outer-most function").
  bool IsRootArgVar(const Node* node) const;
  bool IsRootBody(const Node* node) const;

  // Paper-style rendering with occurrence numbers, e.g.
  // "7:>=(2:r_budget(1:broker), 6:*(3:10, 5:r_salary(4:broker)))".
  std::string NodeLabel(const Node* node) const;
  std::string NodeLabel(int id) const { return NodeLabel(node(id)); }
  // Short form without nested numbering, e.g. "5:r_salary(broker)".
  std::string ShortLabel(const Node* node) const;
  std::string ShortLabel(int id) const { return ShortLabel(node(id)); }

 private:
  UnfoldedSet() = default;

  friend class Builder;

  const schema::Schema* schema_ = nullptr;
  std::vector<std::unique_ptr<Node>> arena_;
  std::vector<Node*> nodes_by_id_;
  std::vector<Root> roots_;
  std::vector<Binder> binders_;
  std::map<std::string, std::vector<const Node*>> reads_;
  std::map<std::string, std::vector<const Node*>> writes_;
};

}  // namespace oodbsec::unfold

#endif  // OODBSEC_UNFOLD_UNFOLDED_H_
