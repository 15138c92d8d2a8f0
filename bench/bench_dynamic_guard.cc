// Experiment D1: static vs dynamic enforcement (paper §5), plus the
// incremental serving path.
//
// The static algorithm must reject any grant set whose closure violates
// a requirement — even for users who never combine the dangerous
// functions. The dynamic session guard checks the closure of the
// functions each session has actually exercised, denying exactly the
// flaw-completing query. The report measures the benign-session service
// rate under both regimes and the per-query guard overhead; the timed
// section measures guarded vs unguarded query execution, and the
// serving-path benchmarks compare the three decision tiers against the
// cold per-query baseline the pre-incremental guard paid:
//   BM_GuardColdDecide      one cold UserAnalysis per query (baseline)
//   BM_GuardDeltaRecheck    session-delta rechecks over the trigger
//                           index (warm semi-naive builds, ≥5x)
//   BM_GuardTriggerFastpath trigger pre-filter allows (≥20x)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "core/analysis_session.h"
#include "dynamic/session_guard.h"
#include "query/binder.h"
#include "query/query_parser.h"
#include "text/workspace.h"

namespace {

using namespace oodbsec;

constexpr const char* kWorkspace = R"(
class Broker { name: string; salary: int; budget: int; }
function checkBudget(broker: Broker): bool =
  r_budget(broker) >= 10 * r_salary(broker);
user clerk can checkBudget, w_budget, r_name;
require (clerk, r_salary(x) : ti);
object Broker { name = "John", salary = 57, budget = 400 }
)";

std::unique_ptr<query::SelectQuery> Parse(const text::Workspace& workspace,
                                          const std::string& source) {
  auto parsed = query::ParseQueryString(source);
  if (!parsed.ok()) std::abort();
  if (!query::BindQuery(*parsed.value(), *workspace.schema).ok()) {
    std::abort();
  }
  return std::move(parsed).value();
}

void PrintReport() {
  std::printf("=== D1: static grant rejection vs dynamic session guard ===\n\n");

  // Scenario: 20 clerk sessions; the first 16 only audit (checkBudget,
  // r_name), the last 4 attempt the probing attack.
  const int kSessions = 20;
  const int kBenign = 16;

  // Static regime: the grant set's closure violates the requirement, so
  // ALL sessions are refused.
  auto workspace = text::LoadWorkspace(kWorkspace);
  if (!workspace.ok()) std::abort();
  core::AnalysisSession session(*workspace->schema, *workspace->users);
  auto report = session.Check(workspace->requirements[0]);
  if (!report.ok()) std::abort();
  int static_served = report->satisfied ? kSessions : 0;

  // Dynamic regime: each session runs its queries until denied.
  int dynamic_served = 0;
  int attacks_stopped = 0;
  auto audit = Parse(*workspace,
                     "select r_name(b), checkBudget(b) from b in Broker");
  auto probe = Parse(
      *workspace,
      "select w_budget(b, 512), checkBudget(b) from b in Broker");
  const schema::User& clerk = *workspace->users->Find("clerk");
  for (int session = 0; session < kSessions; ++session) {
    // Per-session guard so sessions are independent.
    dynamic::SessionGuard session_guard(*workspace->schema,
                                        *workspace->users,
                                        workspace->requirements);
    bool benign = session < kBenign;
    bool served = true;
    for (int q = 0; q < 3; ++q) {
      const query::SelectQuery& query =
          (benign || q < 2) ? *audit : *probe;
      auto result = session_guard.Run(*workspace->database, clerk, query);
      if (!result.ok()) {
        served = false;
        if (!benign) ++attacks_stopped;
        break;
      }
    }
    if (served && benign) ++dynamic_served;
  }

  std::printf("%-34s %-18s %s\n", "regime", "benign served",
              "attacks stopped");
  std::printf("%-34s %d/%-16d %s\n", "static A(R) on the grant set",
              static_served == 0 ? 0 : kBenign, kBenign,
              "n/a (grant refused)");
  std::printf("%-34s %d/%-16d %d/%d\n", "dynamic session guard",
              dynamic_served, kBenign, attacks_stopped,
              kSessions - kBenign);
  std::printf("\n");
}

// ---------------------------------------------------------------------
// Serving-path benchmarks: a clerk session that exercises one new audit
// function per query. Every audit reads the shared `version` attribute
// (plus two of its own), so the accumulated closure's occurrence
// classes grow with the session and the cold path re-pays the whole
// cross-root rule cascade on every query — exactly the cost the delta
// frontier skips. None of the audits touches the protected `secret`,
// so every verdict stays "allowed". The Depot-side stockLevel shares
// no attribute, call, or argument type with the requirement cone, so
// probing it rides the trigger pre-filter.

constexpr int kSessionLen = 32;

std::string ServingWorkspace() {
  std::string text = "class Ledger { secret: int; version: int";
  for (int i = 0; i < kSessionLen; ++i) {
    text += "; a" + std::to_string(i) + ": int; b" + std::to_string(i) +
            ": int";
  }
  text += "; }\n";
  text += "class Depot { city: string; stock: int; }\n";
  for (int i = 0; i < kSessionLen; ++i) {
    const std::string n = std::to_string(i);
    text += "function audit" + n + "(l: Ledger): bool = r_a" + n +
            "(l) + r_version(l) >= 2 * r_b" + n + "(l) + r_version(l);\n";
  }
  text += "function stockLevel(d: Depot): int = r_stock(d) * 2;\n";
  text += "user clerk can audit0";
  for (int i = 1; i < kSessionLen; ++i) text += ", audit" + std::to_string(i);
  text += ", stockLevel;\n";
  text += "require (clerk, r_secret(x) : ti);\n";
  return text;
}

// The session's growing function sets: {audit0}, {audit0, audit1}, ...
std::vector<std::set<std::string>> SessionPrefixes() {
  std::vector<std::set<std::string>> prefixes;
  std::set<std::string> acc;
  for (int i = 0; i < kSessionLen; ++i) {
    acc.insert("audit" + std::to_string(i));
    prefixes.push_back(acc);
  }
  return prefixes;
}

// Baseline: what the pre-incremental guard paid per query — a full cold
// UserAnalysis over the session's accumulated set. One iteration = one
// session of kSessionLen queries, every decision cold.
void BM_GuardColdDecide(benchmark::State& state) {
  auto workspace = text::LoadWorkspace(ServingWorkspace());
  if (!workspace.ok()) std::abort();
  const auto prefixes = SessionPrefixes();
  for (auto _ : state) {
    for (const auto& prefix : prefixes) {
      auto decision = dynamic::SessionGuard::ColdDecision(
          *workspace->schema, workspace->requirements, "clerk", prefix);
      if (!decision.ok() || !decision->allowed) std::abort();
      benchmark::DoNotOptimize(decision->allowed);
    }
  }
  state.SetItemsProcessed(state.iterations() * kSessionLen);
}
BENCHMARK(BM_GuardColdDecide);

// The incremental path: the same session against a fresh guard —
// one cold build for the first decision, then semi-naive delta rechecks
// warm-started from the previous session closure.
void BM_GuardDeltaRecheck(benchmark::State& state) {
  auto workspace = text::LoadWorkspace(ServingWorkspace());
  if (!workspace.ok()) std::abort();
  const auto prefixes = SessionPrefixes();
  for (auto _ : state) {
    state.PauseTiming();
    dynamic::SessionGuard guard(*workspace->schema, *workspace->users,
                                workspace->requirements);
    state.ResumeTiming();
    for (const auto& prefix : prefixes) {
      auto decision = guard.CheckFunctions("clerk", prefix);
      if (!decision.ok() || !decision->allowed) std::abort();
      benchmark::DoNotOptimize(decision->allowed);
    }
  }
  state.SetItemsProcessed(state.iterations() * kSessionLen);
}
BENCHMARK(BM_GuardDeltaRecheck);

// The trigger pre-filter: probing a function outside the requirement
// cone costs a few table probes and touches no closure.
void BM_GuardTriggerFastpath(benchmark::State& state) {
  auto workspace = text::LoadWorkspace(ServingWorkspace());
  if (!workspace.ok()) std::abort();
  dynamic::SessionGuard guard(*workspace->schema, *workspace->users,
                              workspace->requirements);
  const std::set<std::string> probe = {"stockLevel"};
  // First contact validates the empty relevant base; every call after
  // that is a pure fast-path allow.
  auto warm = guard.CheckFunctions("clerk", probe);
  if (!warm.ok() || !warm->allowed) std::abort();
  for (auto _ : state) {
    auto decision = guard.CheckFunctions("clerk", probe);
    if (!decision.ok() || !decision->allowed) std::abort();
    benchmark::DoNotOptimize(decision->allowed);
  }
  if (guard.Stats().fastpath_allows < static_cast<uint64_t>(
          state.iterations())) {
    std::abort();  // the loop must actually ride the fast path
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardTriggerFastpath);

// Human-readable tier summary for the report section: one randomized-ish
// serving mix (12 relevant rechecks, then heavy inert/repeat traffic),
// with wall-clock per tier.
void PrintServingReport() {
  std::printf("=== serving path: decision tiers over one session ===\n\n");
  auto workspace = text::LoadWorkspace(ServingWorkspace());
  if (!workspace.ok()) std::abort();
  const auto prefixes = SessionPrefixes();

  using clock = std::chrono::steady_clock;
  auto cold_start = clock::now();
  for (const auto& prefix : prefixes) {
    auto decision = dynamic::SessionGuard::ColdDecision(
        *workspace->schema, workspace->requirements, "clerk", prefix);
    if (!decision.ok() || !decision->allowed) std::abort();
  }
  double cold_us = std::chrono::duration<double, std::micro>(
                       clock::now() - cold_start)
                       .count() /
                   kSessionLen;

  dynamic::SessionGuard guard(*workspace->schema, *workspace->users,
                              workspace->requirements);
  auto delta_start = clock::now();
  for (const auto& prefix : prefixes) {
    auto decision = guard.CheckFunctions("clerk", prefix);
    if (!decision.ok() || !decision->allowed) std::abort();
  }
  double delta_us = std::chrono::duration<double, std::micro>(
                        clock::now() - delta_start)
                        .count() /
                    kSessionLen;

  const int kProbes = 1000;
  const std::set<std::string> probe = {"stockLevel"};
  auto fast_start = clock::now();
  for (int i = 0; i < kProbes; ++i) {
    auto decision = guard.CheckFunctions("clerk", probe);
    if (!decision.ok() || !decision->allowed) std::abort();
  }
  double fast_us = std::chrono::duration<double, std::micro>(
                       clock::now() - fast_start)
                       .count() /
                   kProbes;

  dynamic::GuardStats stats = guard.Stats();
  std::printf("%-28s %12s %10s\n", "tier", "us/decision", "speedup");
  std::printf("%-28s %12.1f %10s\n", "cold rebuild (baseline)", cold_us,
              "1.0x");
  std::printf("%-28s %12.1f %9.1fx\n", "session-delta recheck", delta_us,
              cold_us / delta_us);
  std::printf("%-28s %12.2f %9.1fx\n", "trigger fast path", fast_us,
              cold_us / fast_us);
  std::printf("\nguard stats: %llu decisions, %llu fastpath, "
              "%llu delta rechecks, %llu cold builds, %llu exact hits\n\n",
              static_cast<unsigned long long>(stats.decisions),
              static_cast<unsigned long long>(stats.fastpath_allows),
              static_cast<unsigned long long>(stats.delta_rechecks),
              static_cast<unsigned long long>(stats.cold_builds),
              static_cast<unsigned long long>(stats.exact_hits));
}

void BM_GuardedQuery(benchmark::State& state) {
  auto workspace = text::LoadWorkspace(kWorkspace);
  if (!workspace.ok()) std::abort();
  dynamic::SessionGuard guard(*workspace->schema, *workspace->users,
                              workspace->requirements);
  auto audit = Parse(*workspace,
                     "select r_name(b), checkBudget(b) from b in Broker");
  const schema::User& clerk = *workspace->users->Find("clerk");
  for (auto _ : state) {
    auto result = guard.Run(*workspace->database, clerk, *audit);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_GuardedQuery);

void BM_UnguardedQuery(benchmark::State& state) {
  auto workspace = text::LoadWorkspace(kWorkspace);
  if (!workspace.ok()) std::abort();
  auto audit = Parse(*workspace,
                     "select r_name(b), checkBudget(b) from b in Broker");
  const schema::User& clerk = *workspace->users->Find("clerk");
  query::QueryEvaluator evaluator(*workspace->database, &clerk);
  for (auto _ : state) {
    auto result = evaluator.Run(*audit);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_UnguardedQuery);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  PrintServingReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
