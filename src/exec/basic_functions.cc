#include "exec/basic_functions.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace oodbsec::exec {

types::Value BasicFunction::Eval(std::span<const types::Value> args) const {
  assert(args.size() == params_.size());
  return eval_(args);
}

std::string BasicFunction::SignatureToString() const {
  std::vector<std::string> parts;
  parts.reserve(params_.size());
  for (const types::Type* t : params_) parts.push_back(t->ToString());
  return common::StrCat(name_, "(", common::Join(parts, ", "), ") : ",
                        result_->ToString());
}

const BasicFunction* BasicFunctionCatalog::Add(BasicFunction function) {
  functions_.push_back(std::make_unique<BasicFunction>(std::move(function)));
  const BasicFunction* entry = functions_.back().get();
  by_name_.emplace(entry->name(), entry);
  return entry;
}

const BasicFunction* BasicFunctionCatalog::Find(
    std::string_view name,
    const std::vector<const types::Type*>& arg_types) const {
  auto [begin, end] = by_name_.equal_range(name);
  for (auto it = begin; it != end; ++it) {
    if (it->second->params() == arg_types) return it->second;
  }
  return nullptr;
}

bool BasicFunctionCatalog::HasName(std::string_view name) const {
  return by_name_.find(name) != by_name_.end();
}

namespace {

using types::Value;

int64_t I(const Value& v) { return v.int_value(); }
// Two's-complement wrap: unsigned arithmetic is modular, and converting
// back to int64_t keeps the low 64 bits.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }
uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }
bool B(const Value& v) { return v.bool_value(); }
const std::string& S(const Value& v) { return v.string_value(); }

}  // namespace

std::unique_ptr<BasicFunctionCatalog> BasicFunctionCatalog::MakeDefault(
    types::TypePool& pool) {
  auto catalog = std::make_unique<BasicFunctionCatalog>();
  const types::Type* i = pool.Int();
  const types::Type* b = pool.Bool();
  const types::Type* s = pool.String();

  auto int2int = [&](const char* name, auto fn) {
    catalog->Add(BasicFunction(
        name, {i, i}, i, [fn](std::span<const Value> a) {
          return Value::Int(fn(I(a[0]), I(a[1])));
        }));
  };
  auto int1int = [&](const char* name, auto fn) {
    catalog->Add(BasicFunction(
        name, {i}, i,
        [fn](std::span<const Value> a) { return Value::Int(fn(I(a[0]))); }));
  };
  auto int2bool = [&](const char* name, auto fn) {
    catalog->Add(BasicFunction(
        name, {i, i}, b, [fn](std::span<const Value> a) {
          return Value::Bool(fn(I(a[0]), I(a[1])));
        }));
  };

  // Integer arithmetic is total (DESIGN §3). +, -, *, neg and abs wrap
  // in two's complement. A zero divisor yields 0, and the one quotient
  // that overflows, INT64_MIN / -1, wraps to INT64_MIN (so
  // INT64_MIN % -1 is 0).
  int2int("+", [](int64_t x, int64_t y) { return Wrap(U(x) + U(y)); });
  int2int("-", [](int64_t x, int64_t y) { return Wrap(U(x) - U(y)); });
  int2int("*", [](int64_t x, int64_t y) { return Wrap(U(x) * U(y)); });
  int2int("/", [](int64_t x, int64_t y) {
    return y == 0 ? 0 : y == -1 ? Wrap(0 - U(x)) : x / y;
  });
  int2int("%", [](int64_t x, int64_t y) {
    return y == 0 || y == -1 ? 0 : x % y;
  });
  int2int("min", [](int64_t x, int64_t y) { return std::min(x, y); });
  int2int("max", [](int64_t x, int64_t y) { return std::max(x, y); });
  int1int("neg", [](int64_t x) { return Wrap(0 - U(x)); });
  int1int("abs", [](int64_t x) { return x < 0 ? Wrap(0 - U(x)) : x; });

  int2bool("<", [](int64_t x, int64_t y) { return x < y; });
  int2bool(">", [](int64_t x, int64_t y) { return x > y; });
  int2bool("<=", [](int64_t x, int64_t y) { return x <= y; });
  int2bool(">=", [](int64_t x, int64_t y) { return x >= y; });
  int2bool("==", [](int64_t x, int64_t y) { return x == y; });
  int2bool("!=", [](int64_t x, int64_t y) { return x != y; });

  catalog->Add(BasicFunction("==", {s, s}, b, [](std::span<const Value> a) {
    return Value::Bool(S(a[0]) == S(a[1]));
  }));
  catalog->Add(BasicFunction("!=", {s, s}, b, [](std::span<const Value> a) {
    return Value::Bool(S(a[0]) != S(a[1]));
  }));
  catalog->Add(
      BasicFunction("concat", {s, s}, s, [](std::span<const Value> a) {
        return Value::String(S(a[0]) + S(a[1]));
      }));

  catalog->Add(BasicFunction("and", {b, b}, b, [](std::span<const Value> a) {
    return Value::Bool(B(a[0]) && B(a[1]));
  }));
  catalog->Add(BasicFunction("or", {b, b}, b, [](std::span<const Value> a) {
    return Value::Bool(B(a[0]) || B(a[1]));
  }));
  catalog->Add(BasicFunction("==", {b, b}, b, [](std::span<const Value> a) {
    return Value::Bool(B(a[0]) == B(a[1]));
  }));
  catalog->Add(BasicFunction("!=", {b, b}, b, [](std::span<const Value> a) {
    return Value::Bool(B(a[0]) != B(a[1]));
  }));
  catalog->Add(BasicFunction("not", {b}, b, [](std::span<const Value> a) {
    return Value::Bool(!B(a[0]));
  }));

  return catalog;
}

}  // namespace oodbsec::exec
