#include "generator.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>

namespace e2ebench {
namespace {

using Rng = std::mt19937_64;

int Uniform(Rng& rng, int lo, int hi) {  // inclusive
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

std::string S(int i) { return std::to_string(i); }

// Per-seed tag in every user name, so two seeds never share a name.
std::string Tag(uint64_t seed) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04x",
                static_cast<unsigned>((seed * 0x9e3779b97f4a7c15ULL) >> 48));
  return buf;
}

// The paper's stockbroker schema, replicated per department: every
// department has its own salary/budget/profit attributes and its own
// checkBudget/calcSalary/updateSalary family over the shared Broker
// class, so departments interact through the same-type argument
// equality axiom. `extra` adds attribute declarations inside Broker.
std::string DepartmentSchema(int departments, const std::string& extra) {
  std::string t = "class Broker {\n  name: string;\n";
  for (int d = 0; d < departments; ++d) {
    t += "  salary" + S(d) + ": int; budget" + S(d) + ": int; profit" + S(d) +
         ": int;\n";
  }
  t += extra + "}\n";
  for (int d = 0; d < departments; ++d) {
    const std::string s = S(d);
    t += "function checkBudget" + s + "(broker: Broker): bool =\n  r_budget" +
         s + "(broker) >= 10 * r_salary" + s + "(broker);\n";
    t += "function calcSalary" + s +
         "(budget: int, profit: int): int =\n  budget / 10 + profit / 2;\n";
    t += "function updateSalary" + s + "(broker: Broker): null =\n  w_salary" +
         s + "(broker, calcSalary" + s + "(r_budget" + s + "(broker), r_profit" +
         s + "(broker)));\n";
  }
  return t;
}

std::string UserLine(const std::string& user,
                     const std::vector<std::string>& grants) {
  std::string t = "user " + user + " can ";
  for (size_t i = 0; i < grants.size(); ++i) {
    if (i > 0) t += ", ";
    t += grants[i];
  }
  return t + ";\n";
}

std::string SalaryRequirement(const std::string& user, int department) {
  return "require (" + user + ", r_salary" + S(department) + "(x) : ti);\n";
}

void AddBrokers(std::string& t, Rng& rng, int count, int departments) {
  for (int i = 0; i < count; ++i) {
    const int d = Uniform(rng, 0, departments - 1);
    t += "object Broker { name = \"b" + S(i) + "\", salary" + S(d) + " = " +
         S(Uniform(rng, 20, 90)) + ", budget" + S(d) + " = " +
         S(Uniform(rng, 100, 990)) + ", profit" + S(d) + " = " +
         S(Uniform(rng, 0, 60)) + " }\n";
  }
}

std::vector<std::string> Bundle(int d) {
  return {"checkBudget" + S(d), "updateSalary" + S(d), "w_budget" + S(d),
          "w_profit" + S(d)};
}

void PlantFlaw(Inputs& in, const std::string& user, int d) {
  in.flaw_pair[user] = {"checkBudget" + S(d), "w_budget" + S(d)};
}

// audit_deep: two capability signatures, each r_name plus the full
// bundles of `base` shared departments and one department of its own —
// closures of 10^4..10^5 facts — with two users per signature.
void GenerateDeep(Inputs& in, Rng& rng, const std::string& tag, bool smoke,
                  int nproc) {
  const int base = smoke ? 2 : 7;
  const int departments = base + 2;
  in.width = std::min(2, nproc);
  in.pool_threads = in.width;
  in.closure_threads = nproc >= 4 ? 2 : 1;

  std::vector<int> order(departments);
  for (int d = 0; d < departments; ++d) order[d] = d;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::vector<std::string>> lists(2);
  for (int k = 0; k < 2; ++k) {
    lists[k] = {"r_name"};
    for (int b = 0; b < base; ++b) {
      for (const std::string& f : Bundle(order[b])) lists[k].push_back(f);
    }
    for (const std::string& f : Bundle(order[base + k])) lists[k].push_back(f);
  }

  std::string t = DepartmentSchema(departments, "");
  std::string reqs;
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      const std::string user = "lead" + S(k) + S(j) + "_" + tag;
      // One requirement on the signature's own department, one on a
      // shared department: both are planted (each bundle holds
      // checkBudget and w_budget of its department).
      const int d = j == 0 ? order[base + k] : order[Uniform(rng, 0, base - 1)];
      t += UserLine(user, lists[k]);
      reqs += SalaryRequirement(user, d);
      PlantFlaw(in, user, d);
    }
  }
  t += reqs;
  AddBrokers(t, rng, 4, departments);
  in.workspace = std::move(t);
}

// audit_wide: a role-shaped population. Each role sits in one
// department and holds 3..6 of the paper's six grant templates; every
// fourth role carries the planted checkBudget + w_budget flaw and the
// others never hold both.
void GenerateWide(Inputs& in, Rng& rng, const std::string& tag, bool smoke,
                  int nproc) {
  const int departments = smoke ? 8 : 64;
  const int roles = smoke ? 10 : 250;
  const int users_per_role = smoke ? 4 : 8;
  in.width = std::min(2, nproc);
  in.pool_threads = in.width;
  in.closure_threads = 1;

  // Roles take departments in turn, under a seeded relabelling: which
  // roles share a department (and so may share a signature) follows the
  // role index, like the sizes and picks below.
  std::vector<int> label(departments);
  for (int d = 0; d < departments; ++d) label[d] = d;
  std::shuffle(label.begin(), label.end(), rng);

  std::string t = DepartmentSchema(departments, "");
  std::string reqs;
  for (int r = 0; r < roles; ++r) {
    const int d = label[r % departments];
    const bool planted = r % 4 == 0;
    std::vector<std::string> pool = {"updateSalary" + S(d), "calcSalary" + S(d),
                                     "w_profit" + S(d), "r_name"};
    std::vector<std::string> grants;
    if (planted) {
      grants = {"checkBudget" + S(d), "w_budget" + S(d)};
    } else {
      pool.push_back((r / 4) % 2 == 0 ? "checkBudget" + S(d)
                                      : "w_budget" + S(d));
    }
    // Sizes and picks follow the role index too, so every seed has the
    // same closures up to names; the seed also orders the grants.
    std::rotate(pool.begin(), pool.begin() + (r / 3) % pool.size(), pool.end());
    const int n = planted ? 3 + (r / 4) % 4 : 3 + r % 3;
    for (size_t i = 0; grants.size() < static_cast<size_t>(n); ++i) {
      grants.push_back(pool[i]);
    }
    std::shuffle(grants.begin(), grants.end(), rng);
    for (int u = 0; u < users_per_role; ++u) {
      const std::string user = "r" + S(r) + "u" + S(u) + "_" + tag;
      t += UserLine(user, grants);
      reqs += SalaryRequirement(user, d);
      if (planted) PlantFlaw(in, user, d);
    }
  }
  t += reqs;
  AddBrokers(t, rng, 8, departments);
  in.workspace = std::move(t);
}

// guard_stream: 64 clerks over 16 departments (four per department).
// Each may call its department's checkBudget and w_budget (planted:
// together they infer the salary), six audit functions that share the
// Broker `version` attribute, and eight Depot functions that share
// nothing with any requirement (inert). Each session is a scripted
// query sequence: 60% inert probes, 25% repeats of an earlier allowed
// query, 12% a new audit function (in a fixed order, so department
// mates reach the same relevant sets), 3% the attack pairing.
void GenerateGuard(Inputs& in, Rng& rng, const std::string& tag, bool smoke,
                   int nproc) {
  const int departments = smoke ? 4 : 16;
  const int audits = 6;
  const int inert = 8;
  const int users = smoke ? 8 : 64;
  const int length = smoke ? 16 : 40;
  in.width = std::min(2, nproc);
  in.pool_threads = in.width;
  in.closure_threads = 1;

  std::string extra = "  version: int;\n";
  for (int d = 0; d < departments; ++d) {
    for (int j = 0; j < audits; ++j) {
      extra += "  x" + S(d) + "_" + S(j) + ": int;\n";
    }
  }
  std::string t = DepartmentSchema(departments, extra);
  t += "class Depot {\n  city: string;\n";
  for (int k = 0; k < inert; ++k) t += "  stock" + S(k) + ": int;\n";
  t += "}\n";
  for (int d = 0; d < departments; ++d) {
    for (int j = 0; j < audits; ++j) {
      const std::string s = S(d) + "_" + S(j);
      t += "function audit" + s + "(b: Broker): bool =\n  r_budget" + S(d) +
           "(b) + r_version(b) >= 2 * r_x" + s + "(b);\n";
    }
  }
  for (int k = 0; k < inert; ++k) {
    t += "function stockLevel" + S(k) + "(d: Depot): int = r_stock" + S(k) +
         "(d) * 2 + 1;\n";
  }

  // Exact per-session counts keep the mix identical across seeds.
  const int n_attack = std::max(1, length * 3 / 100);
  const int n_relevant = std::max(1, length * 12 / 100);
  const int n_repeat = length / 4;
  const int n_inert = length - n_attack - n_relevant - n_repeat;
  using Kind = GuardQuery::Kind;

  std::string reqs;
  for (int u = 0; u < users; ++u) {
    const int d = u % departments;
    const std::string user = "clerk" + S(u) + "_" + tag;
    std::vector<std::string> grants = {"r_name", "r_city", "checkBudget" + S(d),
                                       "w_budget" + S(d)};
    for (int j = 0; j < audits; ++j) {
      grants.push_back("audit" + S(d) + "_" + S(j));
    }
    for (int k = 0; k < inert; ++k) grants.push_back("stockLevel" + S(k));
    t += UserLine(user, grants);
    reqs += SalaryRequirement(user, d);
    PlantFlaw(in, user, d);

    std::vector<Kind> kinds;
    kinds.insert(kinds.end(), n_inert, Kind::kInert);
    kinds.insert(kinds.end(), n_repeat, Kind::kRepeat);
    kinds.insert(kinds.end(), n_relevant, Kind::kRelevant);
    kinds.insert(kinds.end(), n_attack, Kind::kAttack);
    // Where the new and attacking queries fall decides how large their
    // closures are; that order follows the session index, not the seed.
    Rng order_rng(static_cast<uint64_t>(u) + 1);
    std::shuffle(kinds.begin(), kinds.end(), order_rng);
    // A repeat needs an earlier allowed query.
    auto first = std::find_if(kinds.begin(), kinds.end(), [](Kind k) {
      return k == Kind::kInert || k == Kind::kRelevant;
    });
    std::iter_swap(kinds.begin(), first);

    GuardScript script{user, {}};
    std::vector<std::string> allowed;
    int next_audit = 0;
    for (Kind kind : kinds) {
      GuardQuery q{kind, ""};
      switch (kind) {
        case Kind::kInert: {
          const std::string k = S(Uniform(rng, 0, inert - 1));
          q.text = Uniform(rng, 0, 1) == 0
                       ? "select stockLevel" + k + "(x) from x in Depot"
                       : "select r_city(x), stockLevel" + k +
                             "(x) from x in Depot where stockLevel" + k +
                             "(x) >= 0";
          allowed.push_back(q.text);
          break;
        }
        case Kind::kRepeat:
          q.text = allowed[Uniform(rng, 0, static_cast<int>(allowed.size()) - 1)];
          break;
        case Kind::kRelevant:
          q.text = "select r_name(b), audit" + S(d) + "_" + S(next_audit++) +
                   "(b) from b in Broker";
          allowed.push_back(q.text);
          break;
        case Kind::kAttack:
          q.text = "select w_budget" + S(d) + "(b, 7), checkBudget" + S(d) +
                   "(b) from b in Broker";
          break;
      }
      script.queries.push_back(std::move(q));
    }
    in.scripts.push_back(std::move(script));
  }
  t += reqs;
  const int objects = smoke ? 6 : 32;
  for (int i = 0; i < objects; ++i) {
    const int d = i % departments;
    t += "object Broker { name = \"b" + S(i) + "\", version = " +
         S(Uniform(rng, 1, 9)) + ", salary" + S(d) + " = " +
         S(Uniform(rng, 20, 90)) + ", budget" + S(d) + " = " +
         S(Uniform(rng, 100, 990)) + " }\n";
  }
  for (int i = 0; i < objects; ++i) {
    const int k = i % inert;
    t += "object Depot { city = \"c" + S(i) + "\", stock" + S(k) + " = " +
         S(Uniform(rng, 0, 500)) + " }\n";
  }
  in.workspace = std::move(t);
}

// policy_churn: users on stacked lists of 4..8 consecutive departments,
// each department contributing 2..3 of its four bundle functions, then a
// sequence of grants and revokes (half each) that always names a
// function the user lacks (grant) or holds (revoke).
//
// The shape (list placement, picks, the operation sequence) and the
// function names are the same for every seed; the seed names users and
// sets the objects. With seeded shapes, the mix of retraction fast paths
// and evictions moved a run's figures by ~10% from seed to seed, and
// relabelled departments moved the fork/tcp audits by as much: ShardOf
// hashes the signatures, so the split between the two workers moved.
void GenerateChurn(Inputs& in, Rng& rng, const std::string& tag, bool smoke,
                   int nproc) {
  const int departments = smoke ? 8 : 16;
  const int users = smoke ? 12 : 96;
  const int ops = smoke ? 40 : 400;
  in.width = std::min(2, nproc);
  in.pool_threads = in.width;
  in.closure_threads = 1;

  Rng shape(0x636875726eULL);

  std::string t = DepartmentSchema(departments, "");
  std::string reqs;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> candidates;  // bundle functions
  std::vector<std::set<std::string>> held;
  for (int u = 0; u < users; ++u) {
    const int span = smoke ? 2 + u % 2 : 4 + u % 5;
    const int offset = Uniform(shape, 0, departments - span);
    const bool planted = u % 4 == 0;
    const std::string user = "acct" + S(u) + "_" + tag;
    std::set<std::string> grants = {"r_name"};
    std::vector<std::string> all;
    for (int d = offset; d < offset + span; ++d) {
      const std::vector<std::string> bundle = Bundle(d);
      all.insert(all.end(), bundle.begin(), bundle.end());
      const int n = 2 + (u + d) % 2;
      for (int i = 0; i < n; ++i) grants.insert(bundle[(u + d + i) % 4]);
    }
    const std::string check = "checkBudget" + S(offset);
    const std::string write = "w_budget" + S(offset);
    if (planted) {
      grants.insert(check);
      grants.insert(write);
    } else if (grants.contains(check) && grants.contains(write)) {
      grants.erase(Uniform(shape, 0, 1) == 0 ? check : write);
    }
    t += UserLine(user, {grants.begin(), grants.end()});
    reqs += SalaryRequirement(user, offset);
    in.flaw_pair[user] = {check, write};
    names.push_back(user);
    candidates.push_back(std::move(all));
    held.push_back(std::move(grants));
  }
  t += reqs;
  AddBrokers(t, rng, 4, departments);
  in.workspace = std::move(t);

  // Exactly half grants, half revokes, in shuffled order.
  std::vector<bool> kinds(static_cast<size_t>(ops), false);
  std::fill(kinds.begin(), kinds.begin() + ops / 2, true);
  std::shuffle(kinds.begin(), kinds.end(), shape);
  // Users take turns in a shuffled order, reshuffled every round.
  std::vector<int> order(static_cast<size_t>(users));
  for (int u = 0; u < users; ++u) order[static_cast<size_t>(u)] = u;
  for (int i = 0; i < ops; ++i) {
    if (i % users == 0) std::shuffle(order.begin(), order.end(), shape);
    const int u = order[static_cast<size_t>(i % users)];
    std::vector<std::string> lacking, revocable;
    for (const std::string& f : candidates[u]) {
      (held[u].contains(f) ? revocable : lacking).push_back(f);
    }
    bool grant = kinds[static_cast<size_t>(i)];
    if (lacking.empty()) grant = false;
    if (revocable.empty()) grant = true;
    const std::vector<std::string>& from = grant ? lacking : revocable;
    const std::string f =
        from[Uniform(shape, 0, static_cast<int>(from.size()) - 1)];
    if (grant) {
      held[u].insert(f);
    } else {
      held[u].erase(f);
    }
    in.churn.push_back(ChurnOp{grant, names[u], f});
  }
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kAuditDeep, Workload::kAuditWide,
                     Workload::kGuardStream, Workload::kPolicyChurn}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAuditDeep:
      return "audit_deep";
    case Workload::kAuditWide:
      return "audit_wide";
    case Workload::kGuardStream:
      return "guard_stream";
    case Workload::kPolicyChurn:
      return "policy_churn";
  }
  return "?";
}

std::string ChurnOp::ToString() const {
  return std::string(grant ? "grant " : "revoke ") + user + " " + function;
}

std::string Inputs::Digest() const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  mix(workspace);
  for (const GuardScript& script : scripts) {
    mix(script.user);
    for (const GuardQuery& q : script.queries) mix(q.text);
  }
  for (const ChurnOp& op : churn) mix(op.ToString());
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Inputs Generate(Workload workload, uint64_t seed, bool smoke, int nproc) {
  Inputs in;
  in.workload = workload;
  Rng rng(seed * 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(workload));
  const std::string tag = Tag(seed);
  switch (workload) {
    case Workload::kAuditDeep:
      GenerateDeep(in, rng, tag, smoke, nproc);
      break;
    case Workload::kAuditWide:
      GenerateWide(in, rng, tag, smoke, nproc);
      break;
    case Workload::kGuardStream:
      GenerateGuard(in, rng, tag, smoke, nproc);
      break;
    case Workload::kPolicyChurn:
      GenerateChurn(in, rng, tag, smoke, nproc);
      break;
  }
  return in;
}

}  // namespace e2ebench
