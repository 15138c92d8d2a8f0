// Abstract syntax of the function definition language (paper §2):
//
//   e ::= c | a | f_b(e,…,e) | f_a(e,…,e) | r_att(e) | w_att(e,e)
//       | let x = e, … in e end
//
// Constants, argument/local variable references, basic function calls,
// access function calls, attribute reads/writes, and let bindings. The
// paper's published grammar omits `let` but its complete version includes
// it (§2), and the unfolding step (§3.3) introduces `let(f)` forms.
//
// Call targets start out unresolved (just a name); the type checker
// (type_checker.h) classifies each call as a basic function, an access
// function, or a special r_<att>/w_<att> operation and annotates types.
// It also records what evaluation needs, so the evaluator never looks a
// name up: every variable's frame slot, every let binding's slot, each
// access call's FunctionDecl and each r_/w_ call's attribute slot.
#ifndef OODBSEC_LANG_AST_H_
#define OODBSEC_LANG_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/source_location.h"
#include "types/type.h"
#include "types/value.h"

namespace oodbsec::exec {
class BasicFunction;  // exec/basic_functions.h
}  // namespace oodbsec::exec

namespace oodbsec::schema {
class ClassDef;      // schema/schema.h
class FunctionDecl;  // schema/schema.h
}  // namespace oodbsec::schema

namespace oodbsec::lang {

enum class ExprKind {
  kConstant,
  kVarRef,
  kCall,
  kLet,
};

// How the type checker resolved a call's name.
enum class CallTarget {
  kUnresolved,
  kBasic,      // built-in on basic types, e.g. >=, +, and
  kAccess,     // user-defined access function from the schema
  kReadAttr,   // special function r_<att>
  kWriteAttr,  // special function w_<att>
};

class ConstantExpr;
class VarRefExpr;
class CallExpr;
class LetExpr;

// Base expression node. Nodes are exclusively owned by their parents via
// unique_ptr; the root is owned by a FunctionDecl or query.
class Expr {
 public:
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind() const { return kind_; }

  // Type annotation; nullptr before type checking.
  const types::Type* type() const { return type_; }
  void set_type(const types::Type* type) { type_ = type; }

  common::SourceRange range;

  // Deep copy, including resolution and type annotations.
  virtual std::unique_ptr<Expr> Clone() const = 0;

  // Checked downcasts (by kind tag; no RTTI).
  const ConstantExpr& AsConstant() const;
  const VarRefExpr& AsVarRef() const;
  const CallExpr& AsCall() const;
  const LetExpr& AsLet() const;
  ConstantExpr& AsConstant();
  VarRefExpr& AsVarRef();
  CallExpr& AsCall();
  LetExpr& AsLet();

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  ExprKind kind_;
  const types::Type* type_ = nullptr;
};

// A literal: integer, string, boolean, or null.
class ConstantExpr : public Expr {
 public:
  explicit ConstantExpr(types::Value value)
      : Expr(ExprKind::kConstant), value_(std::move(value)) {}

  const types::Value& value() const { return value_; }
  std::unique_ptr<Expr> Clone() const override;

 private:
  types::Value value_;
};

// A reference to a function argument or let-bound variable.
class VarRefExpr : public Expr {
 public:
  explicit VarRefExpr(std::string name)
      : Expr(ExprKind::kVarRef), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // The variable's slot in its evaluation frame: a body's parameters
  // take 0..n-1 and its let bindings follow; a query's from-variables
  // take slots in binding order. -1 before type checking.
  int slot() const { return slot_; }
  void set_slot(int slot) { slot_ = slot; }

  std::unique_ptr<Expr> Clone() const override;

 private:
  std::string name_;
  int slot_ = -1;
};

// A call f(e1, …, en). `name` is the surface name; infix operators are
// desugared to calls with operator names ("+", ">=", "and", …).
class CallExpr : public Expr {
 public:
  CallExpr(std::string name, std::vector<std::unique_ptr<Expr>> args)
      : Expr(ExprKind::kCall), name_(std::move(name)), args_(std::move(args)) {}

  const std::string& name() const { return name_; }
  const std::vector<std::unique_ptr<Expr>>& args() const { return args_; }
  std::vector<std::unique_ptr<Expr>>& mutable_args() { return args_; }

  CallTarget target() const { return target_; }
  void set_target(CallTarget target) { target_ = target; }

  // For kReadAttr/kWriteAttr: the attribute name (name without the
  // r_/w_ prefix).
  const std::string& attribute() const { return attribute_; }
  void set_attribute(std::string attribute) {
    attribute_ = std::move(attribute);
  }

  // For kReadAttr/kWriteAttr: the class that declares the attribute and
  // the attribute's index among its attributes (the object's slot).
  const schema::ClassDef* attribute_class() const { return attribute_class_; }
  int attribute_slot() const { return attribute_slot_; }
  void set_attribute_slot(const schema::ClassDef* cls, int slot) {
    attribute_class_ = cls;
    attribute_slot_ = slot;
  }

  // For kBasic: the resolved built-in (owned by the catalog).
  const exec::BasicFunction* basic() const { return basic_; }
  void set_basic(const exec::BasicFunction* basic) { basic_ = basic; }

  // For kAccess: the callee (owned by the schema the call was checked
  // against).
  const schema::FunctionDecl* access() const { return access_; }
  void set_access(const schema::FunctionDecl* access) { access_ = access; }

  std::unique_ptr<Expr> Clone() const override;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Expr>> args_;
  CallTarget target_ = CallTarget::kUnresolved;
  std::string attribute_;
  const schema::ClassDef* attribute_class_ = nullptr;
  int attribute_slot_ = -1;
  const exec::BasicFunction* basic_ = nullptr;
  const schema::FunctionDecl* access_ = nullptr;
};

// let x1 = e1, …, xn = en in body end
class LetExpr : public Expr {
 public:
  struct Binding {
    std::string name;
    std::unique_ptr<Expr> init;
    int slot = -1;  // frame slot, set by the type checker
  };

  LetExpr(std::vector<Binding> bindings, std::unique_ptr<Expr> body)
      : Expr(ExprKind::kLet),
        bindings_(std::move(bindings)),
        body_(std::move(body)) {}

  const std::vector<Binding>& bindings() const { return bindings_; }
  std::vector<Binding>& mutable_bindings() { return bindings_; }
  const Expr& body() const { return *body_; }
  Expr& mutable_body() { return *body_; }

  std::unique_ptr<Expr> Clone() const override;

 private:
  std::vector<Binding> bindings_;
  std::unique_ptr<Expr> body_;
};

// Convenience constructors for programmatic AST building.
std::unique_ptr<Expr> MakeInt(int64_t v);
std::unique_ptr<Expr> MakeBool(bool v);
std::unique_ptr<Expr> MakeString(std::string v);
std::unique_ptr<Expr> MakeNull();
std::unique_ptr<Expr> MakeVar(std::string name);
std::unique_ptr<Expr> MakeCall(std::string name,
                               std::vector<std::unique_ptr<Expr>> args);

}  // namespace oodbsec::lang

#endif  // OODBSEC_LANG_AST_H_
