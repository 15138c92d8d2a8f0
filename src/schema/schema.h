// The database schema of the paper's data model (§2):
//
//   scm = ({(c_name : [att : t, …])}, {f_name(arg : t, …) : t = body})
//
// Classes declare typed attributes; access functions are written in the
// function definition language. For every class attribute `att` the
// schema implicitly provides the special functions
//
//   r_att(o : C) : t          -- read the attribute
//   w_att(o : C, v : t) : null -- write the attribute
//
// Attribute names must be unique across the schema so r_<att>/w_<att>
// resolve unambiguously (the paper names specials by attribute only).
// Access functions must be recursion-free (§2: "We do not consider
// recursive functions"); the builder rejects cyclic call graphs.
#ifndef OODBSEC_SCHEMA_SCHEMA_H_
#define OODBSEC_SCHEMA_SCHEMA_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/string_map.h"
#include "exec/basic_functions.h"
#include "lang/ast.h"
#include "types/type.h"

namespace oodbsec::schema {

struct AttributeDef {
  std::string name;
  const types::Type* type = nullptr;
};

class ClassDef {
 public:
  ClassDef(std::string name, const types::Type* type,
           std::vector<AttributeDef> attributes);

  const std::string& name() const { return name_; }
  // The class type (instances' type), interned in the schema's pool.
  const types::Type* type() const { return type_; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }

  // Index of `name` in attributes(), or -1. Hashed: a class may carry
  // hundreds of attributes, and objects are read and written by
  // attribute name (store::Database).
  int AttributeIndex(std::string_view name) const;
  const AttributeDef* FindAttribute(std::string_view name) const;

  // The parameter types of attribute `index`'s specials: r_<att> takes
  // the first (the class), w_<att> both (the class, the attribute).
  std::span<const types::Type* const> SpecialParamTypes(int index,
                                                        bool write) const {
    return {special_params_[static_cast<size_t>(index)].data(),
            write ? size_t{2} : size_t{1}};
  }

 private:
  std::string name_;
  const types::Type* type_;
  std::vector<AttributeDef> attributes_;
  common::StringMap<int> attribute_index_;
  std::vector<std::array<const types::Type*, 2>> special_params_;
};

struct Param {
  std::string name;
  const types::Type* type = nullptr;
};

// A user-defined access function: signature plus a type-checked body.
class FunctionDecl {
 public:
  FunctionDecl(std::string name, std::vector<Param> params,
               const types::Type* return_type,
               std::unique_ptr<lang::Expr> body)
      : name_(std::move(name)),
        params_(std::move(params)),
        return_type_(return_type),
        body_(std::move(body)) {
    param_types_.reserve(params_.size());
    for (const Param& param : params_) param_types_.push_back(param.type);
  }

  const std::string& name() const { return name_; }
  const std::vector<Param>& params() const { return params_; }
  // The type of each parameter, in order.
  const std::vector<const types::Type*>& param_types() const {
    return param_types_;
  }
  const types::Type* return_type() const { return return_type_; }
  const lang::Expr& body() const { return *body_; }
  lang::Expr& mutable_body() { return *body_; }

  // The evaluation frame a call needs: the parameters plus the body's
  // deepest let nesting (lang::TypeChecker::frame_size()).
  size_t frame_size() const { return frame_size_; }
  void set_frame_size(size_t frame_size) { frame_size_ = frame_size; }

  int ParamIndex(std::string_view name) const;

  // "f(x : t, …) : t" without the body.
  std::string SignatureToString() const;

 private:
  std::string name_;
  std::vector<Param> params_;
  std::vector<const types::Type*> param_types_;
  const types::Type* return_type_;
  std::unique_ptr<lang::Expr> body_;
  size_t frame_size_ = 0;
};

// The result of resolving a callable name: an access function, a special
// read/write, or nothing. Uniform signature accessors cover all kinds.
// Resolving allocates nothing: the parameter types are a view of the
// schema's own, valid while the schema lives.
struct Callable {
  enum class Kind { kNone, kAccess, kReadAttr, kWriteAttr };

  Kind kind = Kind::kNone;
  const FunctionDecl* access = nullptr;   // kAccess
  const ClassDef* cls = nullptr;          // kReadAttr / kWriteAttr
  const AttributeDef* attribute = nullptr;

  std::span<const types::Type* const> param_types;
  const types::Type* return_type = nullptr;

  bool ok() const { return kind != Kind::kNone; }
};

class Schema {
 public:
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;

  const types::TypePool& pool() const { return *pool_; }
  types::TypePool& mutable_pool() { return *pool_; }

  // The basic-function catalog whose types are interned in pool().
  const exec::BasicFunctionCatalog& catalog() const { return *catalog_; }

  const std::vector<std::unique_ptr<ClassDef>>& classes() const {
    return classes_;
  }
  const std::vector<std::unique_ptr<FunctionDecl>>& functions() const {
    return functions_;
  }

  const ClassDef* FindClass(std::string_view name) const;
  const FunctionDecl* FindFunction(std::string_view name) const;

  // Integrity constraints (paper §1.1): boolean access functions the
  // database guarantees to hold for every argument instantiation. Every
  // user is assumed to know them (the analyzer folds their bodies into
  // each capability-list closure as known-true observations).
  const std::vector<const FunctionDecl*>& constraints() const {
    return constraints_;
  }
  // The unique class declaring attribute `name`, or nullptr.
  const ClassDef* FindClassByAttribute(std::string_view attribute) const;

  // Resolves `name` as an access function, "r_<att>", or "w_<att>".
  Callable ResolveCallable(std::string_view name) const;

  // Order-sensitive FNV-1a content hash of everything in the schema
  // that determines a closure: every class (name, then each attribute's
  // name and type), every function (signature, then printed body), and
  // the constraint list. Computed once, at the end of
  // SchemaBuilder::Build(), so reading it is O(1). Two schemas built
  // from the same text hash equal; any semantic edit changes the value.
  // snapshot::SchemaFingerprint extends it with the closure options
  // into the generation stamp of every persisted closure, so a change
  // to what is hashed, or in what order, orphans every pack on disk.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  friend class SchemaBuilder;
  Schema();

  std::unique_ptr<types::TypePool> pool_;
  std::unique_ptr<exec::BasicFunctionCatalog> catalog_;
  std::vector<std::unique_ptr<ClassDef>> classes_;
  std::vector<std::unique_ptr<FunctionDecl>> functions_;
  std::vector<const FunctionDecl*> constraints_;
  // Name lookups only: nothing iterates these (the fingerprint and the
  // dump walk classes() and functions(), in declaration order).
  common::StringMap<const ClassDef*> class_index_;
  common::StringMap<const FunctionDecl*> function_index_;
  struct AttributeSite {
    const ClassDef* cls;
    int index;  // in cls->attributes()
  };
  common::StringMap<AttributeSite> attribute_index_;
  uint64_t fingerprint_ = 0;
};

// Incrementally declares classes and functions, then validates and type
// checks everything in Build().
class SchemaBuilder {
 public:
  struct AttributeSpec {
    std::string name;
    std::string type;  // textual, e.g. "int", "Broker", "{Person}"
  };
  struct ParamSpec {
    std::string name;
    std::string type;
  };

  SchemaBuilder();

  SchemaBuilder& AddClass(std::string name,
                          std::vector<AttributeSpec> attributes);

  // Body given as source text in the function definition language.
  SchemaBuilder& AddFunction(std::string name, std::vector<ParamSpec> params,
                             std::string return_type, std::string body);

  // Body given as a pre-built (unchecked) AST.
  SchemaBuilder& AddFunctionAst(std::string name, std::vector<ParamSpec> params,
                                std::string return_type,
                                std::unique_ptr<lang::Expr> body);

  // Declares an integrity constraint: a boolean function guaranteed
  // true for all argument instantiations. Also registered as a regular
  // access function (so it unfolds and can even be granted).
  SchemaBuilder& AddConstraint(std::string name, std::vector<ParamSpec> params,
                               std::string body);

  // Marks an already-added function (any Add* overload) as an integrity
  // constraint. Build() verifies it exists and returns bool.
  SchemaBuilder& MarkConstraint(std::string name);

  // Validates declarations, parses and type checks every function body,
  // checks the access-function call graph is acyclic, and returns the
  // finished schema. The builder is consumed.
  common::Result<std::unique_ptr<Schema>> Build() &&;

 private:
  struct PendingFunction {
    std::string name;
    std::vector<ParamSpec> params;
    std::string return_type;
    std::string body_source;               // either this...
    std::unique_ptr<lang::Expr> body_ast;  // ...or this
  };

  struct PendingClass {
    std::string name;
    std::vector<AttributeSpec> attributes;
  };

  std::vector<PendingClass> classes_;
  std::vector<PendingFunction> functions_;
  std::vector<std::string> constraint_names_;
};

}  // namespace oodbsec::schema

#endif  // OODBSEC_SCHEMA_SCHEMA_H_
