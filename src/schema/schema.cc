#include "schema/schema.h"

#include <set>
#include <unordered_map>

#include "common/fnv.h"
#include "common/strings.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/type_checker.h"

namespace oodbsec::schema {

using common::Result;
using common::Status;
using types::Type;

ClassDef::ClassDef(std::string name, const types::Type* type,
                   std::vector<AttributeDef> attributes)
    : name_(std::move(name)),
      type_(type),
      attributes_(std::move(attributes)) {
  attribute_index_.reserve(attributes_.size());
  special_params_.reserve(attributes_.size());
  for (size_t i = 0; i < attributes_.size(); ++i) {
    // The first of duplicate names wins, as the scan it replaces did;
    // SchemaBuilder refuses duplicates anyway.
    attribute_index_.try_emplace(attributes_[i].name, static_cast<int>(i));
    special_params_.push_back({type_, attributes_[i].type});
  }
}

int ClassDef::AttributeIndex(std::string_view name) const {
  auto it = attribute_index_.find(name);
  return it == attribute_index_.end() ? -1 : it->second;
}

const AttributeDef* ClassDef::FindAttribute(std::string_view name) const {
  int index = AttributeIndex(name);
  return index < 0 ? nullptr : &attributes_[index];
}

int FunctionDecl::ParamIndex(std::string_view name) const {
  for (size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string FunctionDecl::SignatureToString() const {
  std::vector<std::string> parts;
  parts.reserve(params_.size());
  for (const Param& p : params_) {
    parts.push_back(common::StrCat(p.name, " : ", p.type->ToString()));
  }
  return common::StrCat(name_, "(", common::Join(parts, ", "), ") : ",
                        return_type_->ToString());
}

Schema::Schema() : pool_(std::make_unique<types::TypePool>()) {
  catalog_ = exec::BasicFunctionCatalog::MakeDefault(*pool_);
}

const ClassDef* Schema::FindClass(std::string_view name) const {
  auto it = class_index_.find(name);
  return it == class_index_.end() ? nullptr : it->second;
}

const FunctionDecl* Schema::FindFunction(std::string_view name) const {
  auto it = function_index_.find(name);
  return it == function_index_.end() ? nullptr : it->second;
}

const ClassDef* Schema::FindClassByAttribute(std::string_view attribute) const {
  auto it = attribute_index_.find(attribute);
  return it == attribute_index_.end() ? nullptr : it->second.cls;
}

Callable Schema::ResolveCallable(std::string_view name) const {
  Callable callable;
  if (const FunctionDecl* fn = FindFunction(name); fn != nullptr) {
    callable.kind = Callable::Kind::kAccess;
    callable.access = fn;
    callable.param_types = fn->param_types();
    callable.return_type = fn->return_type();
    return callable;
  }
  bool is_read = name.size() > 2 && name.substr(0, 2) == "r_";
  bool is_write = name.size() > 2 && name.substr(0, 2) == "w_";
  if (is_read || is_write) {
    auto it = attribute_index_.find(name.substr(2));
    if (it != attribute_index_.end()) {
      const auto [cls, index] = it->second;
      const AttributeDef* attr = &cls->attributes()[static_cast<size_t>(index)];
      callable.kind =
          is_read ? Callable::Kind::kReadAttr : Callable::Kind::kWriteAttr;
      callable.cls = cls;
      callable.attribute = attr;
      callable.param_types = cls->SpecialParamTypes(index, !is_read);
      callable.return_type = is_read ? attr->type : pool_->Null();
      return callable;
    }
  }
  return callable;  // kNone
}

SchemaBuilder::SchemaBuilder() = default;

SchemaBuilder& SchemaBuilder::AddClass(std::string name,
                                       std::vector<AttributeSpec> attributes) {
  classes_.push_back({std::move(name), std::move(attributes)});
  return *this;
}

SchemaBuilder& SchemaBuilder::AddFunction(std::string name,
                                          std::vector<ParamSpec> params,
                                          std::string return_type,
                                          std::string body) {
  PendingFunction fn;
  fn.name = std::move(name);
  fn.params = std::move(params);
  fn.return_type = std::move(return_type);
  fn.body_source = std::move(body);
  functions_.push_back(std::move(fn));
  return *this;
}

SchemaBuilder& SchemaBuilder::AddConstraint(std::string name,
                                            std::vector<ParamSpec> params,
                                            std::string body) {
  constraint_names_.push_back(name);
  return AddFunction(std::move(name), std::move(params), "bool",
                     std::move(body));
}

SchemaBuilder& SchemaBuilder::MarkConstraint(std::string name) {
  constraint_names_.push_back(std::move(name));
  return *this;
}

SchemaBuilder& SchemaBuilder::AddFunctionAst(std::string name,
                                             std::vector<ParamSpec> params,
                                             std::string return_type,
                                             std::unique_ptr<lang::Expr> body) {
  PendingFunction fn;
  fn.name = std::move(name);
  fn.params = std::move(params);
  fn.return_type = std::move(return_type);
  fn.body_ast = std::move(body);
  functions_.push_back(std::move(fn));
  return *this;
}

namespace {

// Collects the names of access functions invoked anywhere in `expr`.
void CollectCalledNames(const lang::Expr& expr, std::set<std::string>& names) {
  switch (expr.kind()) {
    case lang::ExprKind::kConstant:
    case lang::ExprKind::kVarRef:
      return;
    case lang::ExprKind::kCall: {
      const lang::CallExpr& call = expr.AsCall();
      names.insert(call.name());
      for (const auto& arg : call.args()) CollectCalledNames(*arg, names);
      return;
    }
    case lang::ExprKind::kLet: {
      const lang::LetExpr& let = expr.AsLet();
      for (const auto& binding : let.bindings()) {
        CollectCalledNames(*binding.init, names);
      }
      CollectCalledNames(let.body(), names);
      return;
    }
  }
}

// Depth-first cycle check over the access-function call graph. The walk
// keeps its own stack: a chain of functions each calling the next takes
// one frame per function, and long chains load. Roots go in declaration
// order and callees in sorted-name order, so the first cycle found, and
// its message, do not depend on how the walk is carried out.
Status CheckAcyclic(const Schema& schema) {
  const auto& functions = schema.functions();
  std::unordered_map<const FunctionDecl*, size_t> position;
  position.reserve(functions.size());
  for (size_t i = 0; i < functions.size(); ++i) {
    position.emplace(functions[i].get(), i);
  }
  // The access functions `fn`'s body calls, by position, in name order.
  auto callees_of = [&](size_t fn) {
    std::set<std::string> called;
    CollectCalledNames(functions[fn]->body(), called);
    std::vector<size_t> callees;
    for (const std::string& name : called) {
      const FunctionDecl* callee = schema.FindFunction(name);
      if (callee != nullptr) callees.push_back(position.at(callee));
    }
    return callees;
  };

  enum class Mark : uint8_t { kWhite, kGray, kBlack };
  std::vector<Mark> marks(functions.size(), Mark::kWhite);
  struct Frame {
    size_t fn;
    std::vector<size_t> callees;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  for (size_t root = 0; root < functions.size(); ++root) {
    if (marks[root] != Mark::kWhite) continue;
    marks[root] = Mark::kGray;
    stack.push_back({root, callees_of(root)});
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next == top.callees.size()) {
        marks[top.fn] = Mark::kBlack;
        stack.pop_back();
        continue;
      }
      const size_t callee = top.callees[top.next++];
      if (marks[callee] == Mark::kBlack) continue;
      if (marks[callee] == Mark::kGray) {
        std::vector<std::string> chain;
        chain.reserve(stack.size());
        for (const Frame& frame : stack) {
          chain.push_back(functions[frame.fn]->name());
        }
        return common::FailedPreconditionError(common::StrCat(
            "recursive access functions are not allowed: cycle through '",
            functions[callee]->name(), "' (call chain: ",
            common::Join(chain, " -> "), ")"));
      }
      marks[callee] = Mark::kGray;
      stack.push_back({callee, callees_of(callee)});
    }
  }
  return Status::Ok();
}

// Schema::fingerprint() of a finished schema. The seed names the
// snapshot tier, whose records carry this hash in their stamp: changing
// the seed, the pieces or their order orphans every pack on disk.
uint64_t ContentHash(const Schema& schema) {
  uint64_t hash = common::Fnv1a64("oodbsec-snapshot-schema");
  for (const auto& cls : schema.classes()) {
    hash = common::Fnv1a64Field("class", hash);
    hash = common::Fnv1a64Field(cls->name(), hash);
    for (const AttributeDef& attr : cls->attributes()) {
      hash = common::Fnv1a64Field(attr.name, hash);
      hash = common::Fnv1a64Field(attr.type->ToString(), hash);
    }
  }
  for (const auto& fn : schema.functions()) {
    hash = common::Fnv1a64Field("function", hash);
    hash = common::Fnv1a64Field(fn->SignatureToString(), hash);
    hash = common::Fnv1a64Field(lang::PrintExpr(fn->body()), hash);
  }
  for (const FunctionDecl* constraint : schema.constraints()) {
    hash = common::Fnv1a64Field("constraint", hash);
    hash = common::Fnv1a64Field(constraint->name(), hash);
  }
  return hash;
}

}  // namespace

Result<std::unique_ptr<Schema>> SchemaBuilder::Build() && {
  std::unique_ptr<Schema> schema(new Schema());
  types::TypePool& pool = schema->mutable_pool();

  // Pass 1: declare class names so attribute types can reference any
  // class regardless of declaration order.
  std::set<std::string> class_names;
  for (const PendingClass& pending : classes_) {
    if (!class_names.insert(pending.name).second) {
      return common::AlreadyExistsError(
          common::StrCat("duplicate class '", pending.name, "'"));
    }
  }

  // Pass 2: build class definitions and the attribute index.
  for (const PendingClass& pending : classes_) {
    std::vector<AttributeDef> attributes;
    std::set<std::string> attribute_names;
    for (const AttributeSpec& spec : pending.attributes) {
      if (!attribute_names.insert(spec.name).second) {
        return common::AlreadyExistsError(
            common::StrCat("duplicate attribute '", spec.name, "' in class '",
                           pending.name, "'"));
      }
      const Type* type = pool.Parse(spec.type);
      if (type == nullptr) {
        return common::InvalidArgumentError(common::StrCat(
            "bad type '", spec.type, "' for attribute '", pending.name, ".",
            spec.name, "'"));
      }
      attributes.push_back({spec.name, type});
    }
    auto cls = std::make_unique<ClassDef>(
        pending.name, pool.Class(pending.name), std::move(attributes));
    const ClassDef* cls_ptr = cls.get();
    schema->classes_.push_back(std::move(cls));
    schema->class_index_.emplace(pending.name, cls_ptr);
    for (size_t i = 0; i < cls_ptr->attributes().size(); ++i) {
      const AttributeDef& attr = cls_ptr->attributes()[i];
      auto [it, inserted] = schema->attribute_index_.try_emplace(
          attr.name, Schema::AttributeSite{cls_ptr, static_cast<int>(i)});
      if (!inserted) {
        return common::AlreadyExistsError(common::StrCat(
            "attribute '", attr.name, "' declared in both class '",
            it->second.cls->name(), "' and class '", cls_ptr->name(),
            "'; attribute names must be schema-unique so r_/w_ specials "
            "resolve"));
      }
    }
  }

  // Validate that every class type mentioned anywhere is declared: any
  // type interned as a class must be in the class index.
  auto validate_type = [&](const Type* type,
                           const std::string& where) -> Status {
    const Type* t = type;
    while (t != nullptr && t->is_set()) t = t->element();
    if (t != nullptr && t->is_class() &&
        schema->FindClass(t->class_name()) == nullptr) {
      return common::NotFoundError(common::StrCat(
          "unknown class '", t->class_name(), "' referenced by ", where));
    }
    return Status::Ok();
  };
  for (const auto& cls : schema->classes_) {
    for (const AttributeDef& attr : cls->attributes()) {
      OODBSEC_RETURN_IF_ERROR(validate_type(
          attr.type, common::StrCat("attribute '", cls->name(), ".",
                                    attr.name, "'")));
    }
  }

  // Pass 3: declare function signatures (bodies checked afterwards so
  // functions may call functions declared later, as long as the call
  // graph stays acyclic).
  struct ParsedFunction {
    FunctionDecl* decl;
    std::unique_ptr<lang::Expr> body;
  };
  std::set<std::string> function_names;
  std::vector<std::unique_ptr<lang::Expr>> bodies;
  for (PendingFunction& pending : functions_) {
    if (!function_names.insert(pending.name).second) {
      return common::AlreadyExistsError(
          common::StrCat("duplicate function '", pending.name, "'"));
    }
    if (pending.name.starts_with("r_") || pending.name.starts_with("w_")) {
      std::string_view attribute = std::string_view(pending.name).substr(2);
      if (schema->FindClassByAttribute(attribute) != nullptr) {
        return common::AlreadyExistsError(common::StrCat(
            "function name '", pending.name,
            "' collides with the special function for attribute '", attribute,
            "'"));
      }
    }
    std::vector<Param> params;
    std::set<std::string> param_names;
    for (const ParamSpec& spec : pending.params) {
      if (!param_names.insert(spec.name).second) {
        return common::AlreadyExistsError(
            common::StrCat("duplicate parameter '", spec.name,
                           "' in function '", pending.name, "'"));
      }
      const Type* type = pool.Parse(spec.type);
      if (type == nullptr) {
        return common::InvalidArgumentError(
            common::StrCat("bad type '", spec.type, "' for parameter '",
                           pending.name, ".", spec.name, "'"));
      }
      OODBSEC_RETURN_IF_ERROR(validate_type(
          type, common::StrCat("parameter '", pending.name, ".", spec.name,
                               "'")));
      params.push_back({spec.name, type});
    }
    const Type* return_type = pool.Parse(pending.return_type);
    if (return_type == nullptr) {
      return common::InvalidArgumentError(
          common::StrCat("bad return type '", pending.return_type,
                         "' for function '", pending.name, "'"));
    }
    OODBSEC_RETURN_IF_ERROR(validate_type(
        return_type,
        common::StrCat("return type of '", pending.name, "'")));

    std::unique_ptr<lang::Expr> body;
    if (pending.body_ast != nullptr) {
      body = std::move(pending.body_ast);
    } else {
      auto parsed = lang::ParseExpressionString(pending.body_source);
      if (!parsed.ok()) {
        return parsed.status().WithContext(
            common::StrCat("in body of '", pending.name, "'"));
      }
      body = std::move(parsed).value();
    }
    auto decl = std::make_unique<FunctionDecl>(pending.name, std::move(params),
                                               return_type, std::move(body));
    schema->function_index_.emplace(pending.name, decl.get());
    schema->functions_.push_back(std::move(decl));
  }

  // Pass 4: type check every body against the now-complete schema.
  lang::TypeChecker checker(*schema, schema->catalog());
  for (const auto& fn : schema->functions_) {
    Status status = checker.CheckFunctionBody(fn->mutable_body(), fn->params(),
                                              fn->return_type());
    if (!status.ok()) {
      return status.WithContext(
          common::StrCat("in body of '", fn->name(), "'"));
    }
    fn->set_frame_size(checker.frame_size());
  }

  // Pass 5: recursion-freedom (paper §2).
  OODBSEC_RETURN_IF_ERROR(CheckAcyclic(*schema));

  // Pass 6: resolve constraint declarations.
  for (const std::string& name : constraint_names_) {
    const FunctionDecl* fn = schema->FindFunction(name);
    if (fn == nullptr) {
      return common::NotFoundError(common::StrCat(
          "constraint '", name, "' does not name a declared function"));
    }
    if (fn->return_type() != pool.Bool()) {
      return common::TypeError(common::StrCat(
          "constraint '", name, "' must return bool, returns ",
          fn->return_type()->ToString()));
    }
    schema->constraints_.push_back(fn);
  }

  schema->fingerprint_ = ContentHash(*schema);
  return schema;
}

}  // namespace oodbsec::schema
