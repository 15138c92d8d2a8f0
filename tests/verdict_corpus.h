// The verdict corpus: a seeded generator of diverse workspaces, and the
// two hashes per seed that pin what the analyzer concludes about them.
//
// Every seed yields one workspace text. Most seeds are random:
//   * 1-3 classes with int, bool and string attributes, and
//     object-valued attributes that point at another class (or back at
//     their own);
//   * 3-7 functions whose bodies draw on all 19 operators of the basic
//     function catalog, nested calls of earlier functions (the let(f)
//     sites of the unfolded program), `let` bindings and attribute
//     writes;
//   * 2-5 users with capability lists of 1-8 grants, skewed toward the
//     first few functions and mixing in raw r_/w_ grants, and
//     requirements on reads, writes and functions that use ti, pi, ta
//     and pa.
// Two fixed shapes recur among the random ones: every tenth seed is
// the stacked-department schema of the end-to-end audit_deep workload
// (2-4 departments of the paper's stockbroker functions over one
// Broker class), and every tenth seed offset by five is the
// stockbroker schema itself, whose checkBudget + w_budget pair is the
// paper's flaw. One seed in four turns same-type argument equality off.
//
// Per seed, HashSeed returns two hashes: `closures` covers the
// ta/pa/ti/pi bits and the equality partition of every capability
// signature's closure (the first two sections of
// Closure::FactSetDigest), and `verdicts` covers every requirement's
// verdict and flaw sites (site_id, is_root_site). verdict_corpus_test
// pins both for every seed.
//
// The generator draws from its own splitmix64 stream, never from a
// standard-library distribution, so a seed names the same workspace on
// every platform and library version.
#ifndef OODBSEC_TESTS_VERDICT_CORPUS_H_
#define OODBSEC_TESTS_VERDICT_CORPUS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.h"
#include "common/strings.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "text/workspace.h"
#include "unfold/unfolded.h"

namespace oodbsec::corpus {

// splitmix64 (Steele, Lea and Flood): tiny, seedable, and the same on
// every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }
  // Uniform in [lo, hi].
  int Range(int lo, int hi) { return lo + Below(hi - lo + 1); }
  bool Chance(int percent) { return Below(100) < percent; }
  // Skewed toward 0: the smaller of two uniform draws.
  int Skewed(int n) { return std::min(Below(n), Below(n)); }
  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[static_cast<size_t>(Below(static_cast<int>(items.size())))];
  }

 private:
  uint64_t state_;
};

inline core::ClosureOptions OptionsFor(uint64_t seed) {
  core::ClosureOptions options;
  options.same_type_argument_equality = seed % 4 != 3;
  return options;
}

namespace internal {

inline std::string S(int i) { return std::to_string(i); }

struct Var {
  std::string name;
  std::string type;  // "int", "bool", "string", or a class name
};

struct Function {
  std::string name;
  std::vector<Var> params;
  std::string result;  // "int", "bool" or "null"
};

// Random schemas, functions, users and requirements.
class RandomWorkspace {
 public:
  explicit RandomWorkspace(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    MakeClasses();
    std::string text = ClassText();
    const int functions = rng_.Range(3, 7);
    for (int i = 0; i < functions; ++i) text += MakeFunction(i);
    text += UsersText();
    return text;
  }

 private:
  struct Class {
    std::string name;
    std::vector<Var> attrs;
  };

  void MakeClasses() {
    const int count = rng_.Range(1, 3);
    for (int c = 0; c < count; ++c) classes_.push_back({"C" + S(c), {}});
    int next = 0;
    for (Class& cls : classes_) {
      const int ints = rng_.Range(2, 4);
      for (int i = 0; i < ints; ++i) {
        cls.attrs.push_back({"a" + S(next++), "int"});
      }
      if (rng_.Chance(30)) cls.attrs.push_back({"a" + S(next++), "bool"});
      if (rng_.Chance(20)) cls.attrs.push_back({"a" + S(next++), "string"});
      if (rng_.Chance(60)) {
        cls.attrs.push_back(
            {"a" + S(next++), classes_[static_cast<size_t>(
                                  rng_.Below(count))].name});
      }
    }
    for (const Class& cls : classes_) {
      for (const Var& attr : cls.attrs) {
        owner_[attr.name] = cls.name;
        attrs_.push_back(attr);
      }
    }
  }

  std::string ClassText() const {
    std::string t;
    for (const Class& cls : classes_) {
      t += "class " + cls.name + " {";
      for (const Var& attr : cls.attrs) {
        t += " " + attr.name + ": " + attr.type + ";";
      }
      t += " }\n";
    }
    return t;
  }

  bool IsClass(const std::string& type) const {
    return type != "int" && type != "bool" && type != "string" &&
           type != "null";
  }

  // An object expression of class `cls`, or "" when none is reachable
  // from the scope in one attribute hop.
  std::string Object(const std::string& cls, const std::vector<Var>& scope) {
    std::vector<std::string> options;
    for (const Var& var : scope) {
      if (var.type == cls) options.push_back(var.name);
    }
    for (const Var& attr : attrs_) {
      if (attr.type != cls) continue;
      for (const Var& var : scope) {
        if (var.type == owner_[attr.name]) {
          options.push_back("r_" + attr.name + "(" + var.name + ")");
        }
      }
    }
    if (options.empty()) return "";
    return rng_.Pick(options);
  }

  // r_att(object) for a random attribute of `type` whose owner is
  // reachable; "" when none is.
  std::string Read(const std::string& type, const std::vector<Var>& scope) {
    std::vector<std::string> options;
    for (const Var& attr : attrs_) {
      if (attr.type != type) continue;
      std::string object = Object(owner_[attr.name], scope);
      if (!object.empty()) {
        options.push_back("r_" + attr.name + "(" + object + ")");
      }
    }
    if (options.empty()) return "";
    return rng_.Pick(options);
  }

  // A call of an earlier function returning `type`, or "".
  std::string Call(const std::string& type, int depth,
                   const std::vector<Var>& scope) {
    std::vector<const Function*> candidates;
    for (const Function& fn : functions_) {
      if (fn.result == type) candidates.push_back(&fn);
    }
    if (candidates.empty()) return "";
    const Function& fn = *rng_.Pick(candidates);
    std::string t = fn.name + "(";
    for (size_t i = 0; i < fn.params.size(); ++i) {
      std::string arg = Expr(fn.params[i].type, depth - 1, scope);
      if (arg.empty()) return "";
      t += (i > 0 ? ", " : "") + arg;
    }
    return t + ")";
  }

  // A write w_att(object, value) of any reachable attribute, or "".
  std::string Write(int depth, const std::vector<Var>& scope) {
    std::vector<const Var*> reachable;
    for (const Var& attr : attrs_) {
      if (!Object(owner_[attr.name], scope).empty()) reachable.push_back(&attr);
    }
    if (reachable.empty()) return "";
    const Var& attr = *rng_.Pick(reachable);
    std::string value = Expr(attr.type, depth - 1, scope);
    if (value.empty()) return "";
    return "w_" + attr.name + "(" + Object(owner_[attr.name], scope) + ", " +
           value + ")";
  }

  std::string Let(const std::string& type, int depth,
                  const std::vector<Var>& scope) {
    std::string name = "v" + S(next_var_++);
    std::string bound;
    std::string bound_type = "int";
    switch (rng_.Below(4)) {
      case 0:
        bound = Write(depth, scope);
        bound_type = "null";
        break;
      case 1:
        for (const Class& cls : classes_) {
          std::string object = Object(cls.name, scope);
          if (!object.empty()) {
            bound = object;
            bound_type = cls.name;
            break;
          }
        }
        break;
      default:
        break;
    }
    if (bound.empty()) {
      bound_type = "int";
      bound = Expr("int", depth - 1, scope);
    }
    std::vector<Var> inner = scope;
    inner.push_back({name, bound_type});
    std::string body = Expr(type, depth - 1, inner);
    return "let " + name + " = " + bound + " in " + body + " end";
  }

  std::string Leaf(const std::string& type, const std::vector<Var>& scope) {
    std::vector<std::string> options;
    for (const Var& var : scope) {
      if (var.type == type) options.push_back(var.name);
    }
    std::string read = Read(type, scope);
    if (!read.empty()) {
      options.push_back(read);
      options.push_back(read);
    }
    if (type == "int") options.push_back(S(rng_.Range(0, 9)));
    if (type == "bool") options.push_back(rng_.Chance(50) ? "true" : "false");
    if (type == "string") options.push_back("\"s" + S(rng_.Below(3)) + "\"");
    if (options.empty()) return "";
    return rng_.Pick(options);
  }

  std::string Expr(const std::string& type, int depth,
                   const std::vector<Var>& scope) {
    if (IsClass(type)) return Object(type, scope);
    if (depth <= 0 || rng_.Chance(25)) {
      std::string leaf = Leaf(type, scope);
      if (!leaf.empty()) return leaf;
    }
    const int d = depth - 1;
    auto sub = [&](const std::string& t) { return Expr(t, d, scope); };
    if (type == "int") {
      switch (rng_.Below(11)) {
        case 0: return "(" + sub("int") + " + " + sub("int") + ")";
        case 1: return "(" + sub("int") + " - " + sub("int") + ")";
        case 2: return "(" + sub("int") + " * " + sub("int") + ")";
        case 3: return "(" + sub("int") + " / " + sub("int") + ")";
        case 4: return "(" + sub("int") + " % " + sub("int") + ")";
        case 5: return "min(" + sub("int") + ", " + sub("int") + ")";
        case 6: return "max(" + sub("int") + ", " + sub("int") + ")";
        case 7: return "neg(" + sub("int") + ")";
        case 8: return "abs(" + sub("int") + ")";
        case 9: return Let("int", depth, scope);
        default: {
          std::string call = Call("int", depth, scope);
          return call.empty() ? sub("int") : call;
        }
      }
    }
    if (type == "bool") {
      static const std::vector<std::string> kCompare = {"<", ">", "<=",
                                                        ">=", "==", "!="};
      switch (rng_.Below(9)) {
        case 0:
        case 1:
        case 2:
          return "(" + sub("int") + " " + rng_.Pick(kCompare) + " " +
                 sub("int") + ")";
        case 3: return "and(" + sub("bool") + ", " + sub("bool") + ")";
        case 4: return "or(" + sub("bool") + ", " + sub("bool") + ")";
        case 5: return "not(" + sub("bool") + ")";
        case 6:
          return std::string(rng_.Chance(50) ? "==(" : "!=(") + "concat(" +
                 sub("string") + ", " + sub("string") + "), " + sub("string") +
                 ")";
        case 7:
          return std::string(rng_.Chance(50) ? "==(" : "!=(") + sub("bool") +
                 ", " + sub("bool") + ")";
        default: {
          std::string call = Call("bool", depth, scope);
          return call.empty() ? sub("bool") : call;
        }
      }
    }
    if (type == "string") {
      return "concat(" + sub("string") + ", " + sub("string") + ")";
    }
    return "";
  }

  std::string MakeFunction(int index) {
    Function fn;
    fn.name = "f" + S(index);
    const int objects = rng_.Range(1, 2);
    for (int p = 0; p < objects; ++p) {
      fn.params.push_back({"p" + S(p), rng_.Pick(classes_).name});
    }
    if (rng_.Chance(30)) fn.params.push_back({"n", "int"});
    const int kind = rng_.Below(20);
    fn.result = kind < 12 ? "int" : kind < 17 ? "bool" : "null";
    const int depth = rng_.Range(2, 3);
    std::string body = fn.result == "null" ? Write(depth, fn.params)
                                           : Expr(fn.result, depth, fn.params);
    if (body.empty()) {  // no writable value reachable: an int function
      fn.result = "int";
      body = Expr("int", depth, fn.params);
    }
    std::string t = "function " + fn.name + "(";
    for (size_t i = 0; i < fn.params.size(); ++i) {
      t += (i > 0 ? ", " : "") + fn.params[i].name + ": " + fn.params[i].type;
    }
    t += "): " + fn.result + " =\n  " + body + ";\n";
    functions_.push_back(fn);
    return t;
  }

  std::string UsersText() {
    std::string users;
    std::string requirements;
    const int count = rng_.Range(2, 5);
    for (int u = 0; u < count; ++u) {
      const std::string user = "u" + S(u);
      std::set<std::string> grants;
      const int size = rng_.Range(1, 8);
      for (int g = 0; g < size; ++g) {
        if (rng_.Chance(30)) {
          const Var& attr = rng_.Pick(attrs_);
          grants.insert((rng_.Chance(50) ? "r_" : "w_") + attr.name);
        } else {
          grants.insert(functions_[static_cast<size_t>(
                                       rng_.Skewed(static_cast<int>(
                                           functions_.size())))]
                            .name);
        }
      }
      users += "user " + user + " can " + common::Join(
                                             std::vector<std::string>(
                                                 grants.begin(), grants.end()),
                                             ", ") +
               ";\n";
      const int reqs = rng_.Range(1, 3);
      for (int r = 0; r < reqs; ++r) requirements += Requirement(user);
    }
    return users + requirements;
  }

  std::string Requirement(const std::string& user) {
    static const std::vector<std::string> kInfer = {"ti", "pi"};
    static const std::vector<std::string> kAlter = {"ta", "pa"};
    static const std::vector<std::string> kAny = {"ti", "pi", "ta", "pa"};
    std::vector<const Var*> ints;
    for (const Var& attr : attrs_) {
      if (attr.type == "int") ints.push_back(&attr);
    }
    const int kind = rng_.Below(10);
    if (kind < 4) {
      return "require (" + user + ", r_" + rng_.Pick(ints)->name + "(x) : " +
             rng_.Pick(kInfer) + ");\n";
    }
    if (kind < 6) {
      return "require (" + user + ", w_" + rng_.Pick(ints)->name +
             "(a, v : " + rng_.Pick(kAlter) + "));\n";
    }
    const Function& fn = rng_.Pick(functions_);
    std::string t = "require (" + user + ", " + fn.name + "(";
    bool any = false;
    for (size_t i = 0; i < fn.params.size(); ++i) {
      t += (i > 0 ? ", " : "") + std::string("x") + S(static_cast<int>(i));
      if (rng_.Chance(30)) {
        t += " : " + rng_.Pick(kAny);
        any = true;
      }
    }
    t += ")";
    if (fn.result != "null" && (!any || rng_.Chance(50))) {
      t += " : " + rng_.Pick(kInfer);
      any = true;
    }
    if (!any) t += " : ti";
    return t + ");\n";
  }

  Rng rng_;
  std::vector<Class> classes_;
  std::vector<Var> attrs_;
  std::map<std::string, std::string> owner_;  // attribute -> class
  std::vector<Function> functions_;
  int next_var_ = 0;
};

// The paper's stockbroker functions, replicated per department over one
// Broker class (the end-to-end audit_deep shape).
inline std::string DepartmentsWorkspace(Rng& rng) {
  const int departments = rng.Range(2, 4);
  std::string t = "class Broker {\n  name: string;\n";
  for (int d = 0; d < departments; ++d) {
    t += "  salary" + S(d) + ": int; budget" + S(d) + ": int; profit" + S(d) +
         ": int;\n";
  }
  t += "}\n";
  for (int d = 0; d < departments; ++d) {
    const std::string s = S(d);
    t += "function checkBudget" + s + "(broker: Broker): bool =\n  r_budget" +
         s + "(broker) >= 10 * r_salary" + s + "(broker);\n";
    t += "function calcSalary" + s +
         "(budget: int, profit: int): int =\n  budget / 10 + profit / 2;\n";
    t += "function updateSalary" + s + "(broker: Broker): null =\n  w_salary" +
         s + "(broker, calcSalary" + s + "(r_budget" + s +
         "(broker), r_profit" + s + "(broker)));\n";
  }
  std::string requirements;
  const int users = rng.Range(2, 4);
  for (int u = 0; u < users; ++u) {
    std::vector<std::string> grants = {"r_name"};
    for (int d = 0; d < departments; ++d) {
      if (!rng.Chance(60)) continue;
      for (const char* fn : {"checkBudget", "updateSalary", "w_budget",
                             "w_profit"}) {
        if (rng.Chance(85)) grants.push_back(fn + S(d));
      }
    }
    const std::string user = "lead" + S(u);
    t += "user " + user + " can " + common::Join(grants, ", ") + ";\n";
    const std::string d = S(rng.Below(departments));
    requirements += "require (" + user + ", r_salary" + d + "(x) : ti);\n";
    if (rng.Chance(40)) {
      requirements +=
          "require (" + user + ", w_salary" + d + "(a, v : ta));\n";
    }
  }
  return t + requirements;
}

// The paper's stockbroker schema (§3.1) with its checkBudget + w_budget
// flaw pair, under varied capability lists.
inline std::string StockbrokerWorkspace(Rng& rng) {
  std::string t =
      "class Broker { name: string; salary: int; budget: int; profit: int; }\n"
      "function checkBudget(broker: Broker): bool =\n"
      "  r_budget(broker) >= 10 * r_salary(broker);\n"
      "function calcSalary(budget: int, profit: int): int =\n"
      "  budget / 10 + profit / 2;\n"
      "function updateSalary(broker: Broker): null =\n"
      "  w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)));\n";
  static const std::vector<std::string> kExtras = {
      "r_name", "updateSalary", "w_profit", "r_profit", "calcSalary",
      "w_salary"};
  std::string requirements;
  const int users = rng.Range(2, 4);
  for (int u = 0; u < users; ++u) {
    std::set<std::string> grants;
    if (u == 0 || rng.Chance(50)) {
      grants.insert("checkBudget");
      grants.insert("w_budget");
    }
    const int extras = rng.Range(u == 0 ? 0 : 1, 3);
    for (int e = 0; e < extras; ++e) grants.insert(rng.Pick(kExtras));
    const std::string user = "b" + S(u);
    t += "user " + user + " can " +
         common::Join(std::vector<std::string>(grants.begin(), grants.end()),
                      ", ") +
         ";\n";
    requirements += "require (" + user + ", r_salary(x) : ti);\n";
    if (rng.Chance(50)) {
      requirements += "require (" + user + ", w_salary(a, v : " +
                      (rng.Chance(50) ? "ta" : "pa") + "));\n";
    }
  }
  return t + requirements;
}

}  // namespace internal

inline std::string GenerateWorkspace(uint64_t seed) {
  if (seed % 10 == 0) {
    Rng rng(seed);
    return internal::DepartmentsWorkspace(rng);
  }
  if (seed % 10 == 5) {
    Rng rng(seed);
    return internal::StockbrokerWorkspace(rng);
  }
  return internal::RandomWorkspace(seed).Generate();
}

// One closure per distinct capability signature of a loaded workspace,
// in the order users() lists them, with the users that share it.
struct Signature {
  std::vector<std::string> roots;
  std::vector<std::string> users;
};

inline std::vector<Signature> Signatures(const text::Workspace& workspace) {
  std::vector<Signature> out;
  for (const schema::User* user : workspace.users->users()) {
    std::vector<std::string> roots =
        core::AnalysisRoots(*workspace.schema, *user);
    auto it = std::find_if(out.begin(), out.end(), [&](const Signature& s) {
      return s.roots == roots;
    });
    if (it == out.end()) {
      out.push_back({std::move(roots), {user->name()}});
    } else {
      it->users.push_back(user->name());
    }
  }
  return out;
}

// The first two sections of a FactSetDigest: predicate bits and the
// equality partition.
inline std::string_view BitsAndPartition(std::string_view digest) {
  size_t first = digest.find('|');
  size_t second = digest.find('|', first + 1);
  return digest.substr(0, second);
}

struct SeedHashes {
  uint64_t closures = 0;
  uint64_t verdicts = 0;
  bool ok = false;  // false when the workspace failed to load or check
};

inline SeedHashes HashSeed(uint64_t seed) {
  SeedHashes out;
  auto loaded = text::LoadWorkspace(GenerateWorkspace(seed));
  if (!loaded.ok()) return out;
  const text::Workspace& workspace = loaded.value();
  const core::ClosureOptions options = OptionsFor(seed);
  uint64_t closures = common::Fnv1a64("closures");
  uint64_t verdicts = common::Fnv1a64("verdicts");
  std::map<std::string, std::pair<const unfold::UnfoldedSet*,
                                  const core::Closure*>> by_user;
  std::vector<std::unique_ptr<unfold::UnfoldedSet>> sets;
  std::vector<std::unique_ptr<core::Closure>> built;
  for (const Signature& signature : Signatures(workspace)) {
    auto set = unfold::UnfoldedSet::Build(*workspace.schema, signature.roots);
    if (!set.ok()) return out;
    sets.push_back(std::move(set).value());
    built.push_back(std::make_unique<core::Closure>(*sets.back(), options));
    closures = common::Fnv1a64Field(
        BitsAndPartition(built.back()->FactSetDigest()), closures);
    for (const std::string& user : signature.users) {
      by_user[user] = {sets.back().get(), built.back().get()};
    }
  }
  for (const core::Requirement& requirement : workspace.requirements) {
    auto [set, closure] = by_user.at(requirement.user);
    auto report = core::CheckAgainstClosure(*set, *closure, requirement);
    if (!report.ok()) return out;
    verdicts = common::Fnv1a64Field(
        report.value().satisfied ? "satisfied" : "flawed", verdicts);
    for (const core::FlawSite& site : report.value().flaws) {
      verdicts = common::Fnv1a64Field(
          common::StrCat(site.site_id, site.is_root_site ? "r" : "n"),
          verdicts);
    }
  }
  out.closures = closures;
  out.verdicts = verdicts;
  out.ok = true;
  return out;
}

}  // namespace oodbsec::corpus

#endif  // OODBSEC_TESTS_VERDICT_CORPUS_H_
