// The catalog of basic functions: primitive, total operations on basic
// types (paper §2: "Basic functions are primitive operations on basic
// types, such as addition on integers").
//
// Each BasicFunction is monomorphic: overloaded surface names such as
// "==" resolve, by argument types, to distinct catalog entries. All
// functions are total — integer arithmetic wraps in two's complement,
// and integer division and remainder by zero yield 0 — so the metarule
// engine (src/basicfun) can quantify over full domains.
#ifndef OODBSEC_EXEC_BASIC_FUNCTIONS_H_
#define OODBSEC_EXEC_BASIC_FUNCTIONS_H_

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "types/type.h"
#include "types/value.h"

namespace oodbsec::exec {

class BasicFunction {
 public:
  using EvalFn = std::function<types::Value(std::span<const types::Value>)>;

  BasicFunction(std::string name, std::vector<const types::Type*> params,
                const types::Type* result, EvalFn eval)
      : name_(std::move(name)),
        params_(std::move(params)),
        result_(result),
        eval_(std::move(eval)) {}

  const std::string& name() const { return name_; }
  const std::vector<const types::Type*>& params() const { return params_; }
  size_t arity() const { return params_.size(); }
  const types::Type* result() const { return result_; }

  // Applies the function. `args` must match params() in count and types;
  // violations are programming errors (assert).
  types::Value Eval(std::span<const types::Value> args) const;
  types::Value Eval(std::initializer_list<types::Value> args) const {
    return Eval(std::span<const types::Value>(args.begin(), args.size()));
  }

  // "name(t, t) : t", e.g. ">=(int, int) : bool".
  std::string SignatureToString() const;

 private:
  std::string name_;
  std::vector<const types::Type*> params_;
  const types::Type* result_;
  EvalFn eval_;
};

// Owns a set of basic functions and resolves (name, argument types).
//
// The default catalog (over a given TypePool) provides:
//   int  x int  -> int  : +  -  *  /  %  min  max
//   int         -> int  : neg  abs
//   int  x int  -> bool : <  >  <=  >=  ==  !=
//   str  x str  -> bool : ==  !=
//   str  x str  -> str  : concat
//   bool x bool -> bool : and  or  ==  !=
//   bool        -> bool : not
class BasicFunctionCatalog {
 public:
  BasicFunctionCatalog() = default;
  BasicFunctionCatalog(const BasicFunctionCatalog&) = delete;
  BasicFunctionCatalog& operator=(const BasicFunctionCatalog&) = delete;

  // Builds the default catalog with types interned in `pool`.
  static std::unique_ptr<BasicFunctionCatalog> MakeDefault(
      types::TypePool& pool);

  // Registers a function; returns the stable catalog entry.
  const BasicFunction* Add(BasicFunction function);

  // Exact-overload resolution; nullptr if absent.
  const BasicFunction* Find(
      std::string_view name,
      const std::vector<const types::Type*>& arg_types) const;

  // True if any overload exists under `name`.
  bool HasName(std::string_view name) const;

  // All catalog entries, in registration order.
  const std::vector<std::unique_ptr<BasicFunction>>& functions() const {
    return functions_;
  }

 private:
  std::vector<std::unique_ptr<BasicFunction>> functions_;
  std::multimap<std::string, const BasicFunction*, std::less<>> by_name_;
};

}  // namespace oodbsec::exec

#endif  // OODBSEC_EXEC_BASIC_FUNCTIONS_H_
