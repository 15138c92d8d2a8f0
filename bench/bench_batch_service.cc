// Batch analysis service benchmark: a role-shaped user population —
// many accounts, few distinct grant bundles — checked end-to-end
// through AnalysisService, against the per-user sequential baseline
// (AnalysisSession::Check builds a fresh closure per requirement).
//
// Population: `roles` broker departments on one shared class; each role
// grants its department's {checkBudget_i, updateSalary_i, w_budget_i,
// w_profit_i, r_name} bundle to `users_per_role` accounts, and every
// account carries one "can salary_i be inferred?" requirement. With
// 16 roles x 4 accounts the batch holds 64 requirements over 16
// distinct capability signatures: the cold-cache hit rate is 75%.
//
// Threaded variants use real (wall) time: the work happens on pool
// workers, so main-thread CPU time would under-report. On a single-core
// host the 1/2/4-thread wall times coincide — the scaling columns only
// spread on multi-core hardware.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/requirement.h"
#include "obs/metrics.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "service/shard.h"

namespace {

using namespace oodbsec;

struct Population {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<schema::UserRegistry> users;
  std::vector<core::Requirement> requirements;
};

Population MakeRolePopulation(int roles, int users_per_role) {
  schema::SchemaBuilder builder;
  std::vector<schema::SchemaBuilder::AttributeSpec> attributes;
  attributes.push_back({"name", "string"});
  for (int r = 0; r < roles; ++r) {
    attributes.push_back({common::StrCat("salary", r), "int"});
    attributes.push_back({common::StrCat("budget", r), "int"});
    attributes.push_back({common::StrCat("profit", r), "int"});
  }
  builder.AddClass("Broker", std::move(attributes));
  for (int r = 0; r < roles; ++r) {
    builder.AddFunction(
        common::StrCat("checkBudget", r), {{"broker", "Broker"}}, "bool",
        common::StrCat("r_budget", r, "(broker) >= 10 * r_salary", r,
                       "(broker)"));
    builder.AddFunction(common::StrCat("calcSalary", r),
                        {{"budget", "int"}, {"profit", "int"}}, "int",
                        "budget / 10 + profit / 2");
    builder.AddFunction(
        common::StrCat("updateSalary", r), {{"broker", "Broker"}}, "null",
        common::StrCat("w_salary", r, "(broker, calcSalary", r, "(r_budget",
                       r, "(broker), r_profit", r, "(broker)))"));
  }
  auto built = std::move(builder).Build();
  if (!built.ok()) std::abort();

  Population population;
  population.schema = std::move(built).value();
  population.users =
      std::make_unique<schema::UserRegistry>(*population.schema);
  for (int r = 0; r < roles; ++r) {
    for (int k = 0; k < users_per_role; ++k) {
      std::string name = common::StrCat("u", r, "_", k);
      if (!population.users->AddUser(name).ok()) std::abort();
      for (const std::string& grant :
           {common::StrCat("checkBudget", r),
            common::StrCat("updateSalary", r),
            common::StrCat("w_budget", r), common::StrCat("w_profit", r),
            std::string("r_name")}) {
        if (!population.users->Grant(name, grant).ok()) std::abort();
      }
      auto requirement = core::ParseRequirementString(
          common::StrCat("(", name, ", r_salary", r, "(x) : ti)"));
      if (!requirement.ok()) std::abort();
      population.requirements.push_back(std::move(requirement).value());
    }
  }
  return population;
}

constexpr int kRoles = 16;
constexpr int kUsersPerRole = 4;

// Baseline: the pre-service code path — every requirement unfolds and
// closes its user's capability list from scratch.
void BM_SequentialPerUser(benchmark::State& state) {
  Population population = MakeRolePopulation(kRoles, kUsersPerRole);
  core::AnalysisSession session(*population.schema, *population.users);
  for (auto _ : state) {
    for (const core::Requirement& requirement : population.requirements) {
      auto report = session.Check(requirement);
      if (!report.ok()) std::abort();
      benchmark::DoNotOptimize(report->satisfied);
    }
  }
  state.counters["users"] = kRoles * kUsersPerRole;
  state.counters["roles"] = kRoles;
}
BENCHMARK(BM_SequentialPerUser)->Unit(benchmark::kMillisecond);

// Cold cache: each iteration builds a fresh service, so the batch pays
// for all `roles` closures (in parallel) plus every check. This is the
// nightly-audit shape.
void BM_BatchColdCache(benchmark::State& state) {
  Population population = MakeRolePopulation(kRoles, kUsersPerRole);
  double built = 0, hit_rate = 0;
  core::SessionOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::AnalysisSession session(*population.schema, *population.users,
                                  options);
    service::AnalysisService svc(session);
    auto reports = svc.CheckBatch(population.requirements);
    if (!reports.ok()) std::abort();
    benchmark::DoNotOptimize(reports->size());
    service::ServiceStats stats = svc.Stats();
    built = static_cast<double>(stats.closures_built);
    hit_rate = stats.RequirementHitRate();
  }
  state.counters["users"] = kRoles * kUsersPerRole;
  state.counters["closures_built"] = built;
  state.counters["hit_rate"] = hit_rate;
}
BENCHMARK(BM_BatchColdCache)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Warm cache: the service persists across iterations, so after the
// first batch every signature is cached and every requirement's report
// is in its entry's memo: iterations measure batch planning plus one
// memo hit per requirement (check_hits, per batch) — the re-audit
// shape.
void BM_BatchWarmCache(benchmark::State& state) {
  Population population = MakeRolePopulation(kRoles, kUsersPerRole);
  core::SessionOptions options;
  options.threads = static_cast<int>(state.range(0));
  core::AnalysisSession session(*population.schema, *population.users,
                                options);
  service::AnalysisService svc(session);
  {
    auto warmup = svc.CheckBatch(population.requirements);
    if (!warmup.ok()) std::abort();
  }
  obs::Counter* check_hits = session.metrics().counter("analyzer.check_hits");
  const uint64_t warm_hits = check_hits->value();
  for (auto _ : state) {
    auto reports = svc.CheckBatch(population.requirements);
    if (!reports.ok()) std::abort();
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["users"] = kRoles * kUsersPerRole;
  state.counters["cached_closures"] = static_cast<double>(svc.cache_size());
  state.counters["check_hits"] =
      static_cast<double>(check_hits->value() - warm_hits) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BatchWarmCache)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Sharded multi-process audit over the same population: fork
// `shard_count` TCP workers, route requirements by capability
// signature, merge. Cold every iteration (each worker builds its own
// shard's closures), so against BM_BatchColdCache/1 the delta is fork +
// loopback framing + merge overhead versus true multi-core fixpoint
// parallelism. Runs before any persistent pool exists in this process —
// fork() wants a single-threaded image (the scoped services above are
// gone by now).
void BM_ShardedBatch(benchmark::State& state) {
  Population population = MakeRolePopulation(kRoles, kUsersPerRole);
  service::ShardOptions options;
  options.shard_count = static_cast<int>(state.range(0));
  double built = 0;
  for (auto _ : state) {
    auto result = service::RunShardedBatch(
        *population.schema, *population.users, population.requirements,
        options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->reports.size());
    built = static_cast<double>(result->merged_stats.closures_built);
  }
  state.counters["users"] = kRoles * kUsersPerRole;
  state.counters["closures_built"] = built;
}
BENCHMARK(BM_ShardedBatch)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One instrumented cold batch after the timed loops, dumped as
// TRACE_batch_service.jsonl when OODBSEC_TRACE_DIR is set: the "batch"
// span's plan / build / check children give the per-phase breakdown,
// and the metric lines carry the cache and pool accounting.
void DumpPhaseTrace() {
  Population population = MakeRolePopulation(kRoles, kUsersPerRole);
  core::SessionOptions options;
  options.threads = 4;
  options.tracing = true;
  core::AnalysisSession session(*population.schema, *population.users,
                                options);
  service::AnalysisService svc(session);
  auto reports = svc.CheckBatch(population.requirements);
  if (!reports.ok()) std::abort();
  benchmark::DoNotOptimize(reports->size());
  bench::DumpTraceIfRequested(session.obs(), "batch_service");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  DumpPhaseTrace();
  return 0;
}
