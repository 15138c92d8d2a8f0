// TCP shard transport benchmark: the pipelined streaming headline and
// the networked snapshot tier, over a real loopback worker fleet.
//
// BM_TcpStreaming is the lockstep-vs-pipelined comparison the transport
// exists for. The workload is deliberately latency-shaped: 8 roles x
// 16 accounts with *trivial* closures (r_name plus one write grant —
// no function chains to unfold), a batch cap of 1 requirement, and a
// pre-warmed fleet, so per-batch compute is a few microseconds and the
// run is dominated by how the coordinator schedules frames. Arg =
// max_in_flight: at 1 every batch pays a round trip, a scheduler
// wakeup on each side, and one writev/read syscall pair before the
// worker sees the next one; at 4/8 the worker's socket buffer always
// holds the next batch and the coordinator gathers several frames into
// each writev — the same audit collapses to back-to-back checks.
//
// BM_TcpColdFleet / BM_TcpSnapshotWarmedFleet price the snapshot tier
// on the opposite workload shape: few users, *rich* closures (stacked
// department bundles whose write-read rule keeps the fixpoint firing —
// the bench_snapshot fleet shape). Both run cache-less workers
// (persistent_cache off — every connection starts empty); the warmed
// fleet mounts the coordinator's pre-populated store over the wire and
// replays derivation logs instead of re-running fixpoints.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "core/requirement.h"
#include "net/socket.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "service/tcp_shard.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot_store.h"

namespace {

using namespace oodbsec;

struct Population {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<schema::UserRegistry> users;
  std::vector<core::Requirement> requirements;
};

std::unique_ptr<schema::Schema> ScaledBrokerSchema(int scale) {
  schema::SchemaBuilder builder;
  std::vector<schema::SchemaBuilder::AttributeSpec> attributes;
  attributes.push_back({"name", "string"});
  for (int i = 0; i < scale; ++i) {
    attributes.push_back({common::StrCat("salary", i), "int"});
    attributes.push_back({common::StrCat("budget", i), "int"});
    attributes.push_back({common::StrCat("profit", i), "int"});
  }
  builder.AddClass("Broker", std::move(attributes));
  for (int i = 0; i < scale; ++i) {
    builder.AddFunction(
        common::StrCat("checkBudget", i), {{"broker", "Broker"}}, "bool",
        common::StrCat("r_budget", i, "(broker) >= 10 * r_salary", i,
                       "(broker)"));
    builder.AddFunction(common::StrCat("calcSalary", i),
                        {{"budget", "int"}, {"profit", "int"}}, "int",
                        "budget / 10 + profit / 2");
    builder.AddFunction(
        common::StrCat("updateSalary", i), {{"broker", "Broker"}}, "null",
        common::StrCat("w_salary", i, "(broker, calcSalary", i, "(r_budget",
                       i, "(broker), r_profit", i, "(broker)))"));
  }
  auto result = std::move(builder).Build();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

constexpr int kStreamRoles = 8;
constexpr int kStreamUsersPerRole = 32;  // 256 single-requirement batches
constexpr int kWorkers = 2;

// The latency-shaped population: each role grants only {r_name,
// w_budget_r} — distinct signatures (one per role, so batches spread
// over the fleet) whose closures are near-empty, keeping per-batch
// compute out of the measurement's way.
Population MakeStreamPopulation() {
  Population population;
  population.schema = ScaledBrokerSchema(kStreamRoles);
  population.users =
      std::make_unique<schema::UserRegistry>(*population.schema);
  for (int r = 0; r < kStreamRoles; ++r) {
    for (int k = 0; k < kStreamUsersPerRole; ++k) {
      std::string name = common::StrCat("u", r, "_", k);
      if (!population.users->AddUser(name).ok()) std::abort();
      for (const std::string& grant :
           {std::string("r_name"), common::StrCat("w_budget", r)}) {
        if (!population.users->Grant(name, grant).ok()) std::abort();
      }
      auto requirement = core::ParseRequirementString(
          common::StrCat("(", name, ", r_salary0(x) : ti)"));
      if (!requirement.ok()) std::abort();
      population.requirements.push_back(std::move(requirement).value());
    }
  }
  return population;
}

constexpr int kHeavyBaseDepts = 4;
constexpr int kHeavyRoles = 4;
constexpr int kHeavyScale = kHeavyBaseDepts + kHeavyRoles;

// The fixpoint-shaped population: every role is granted the base
// departments' full bundles plus one of its own, so each of the 4
// closures is expensive to build and no role subsumes another.
Population MakeHeavyPopulation() {
  Population population;
  population.schema = ScaledBrokerSchema(kHeavyScale);
  population.users =
      std::make_unique<schema::UserRegistry>(*population.schema);
  for (int r = 0; r < kHeavyRoles; ++r) {
    std::string name = common::StrCat("lead", r);
    if (!population.users->AddUser(name).ok()) std::abort();
    if (!population.users->Grant(name, "r_name").ok()) std::abort();
    auto grant_bundle = [&](int dept) {
      for (const std::string& grant :
           {common::StrCat("checkBudget", dept),
            common::StrCat("updateSalary", dept),
            common::StrCat("w_budget", dept),
            common::StrCat("w_profit", dept)}) {
        if (!population.users->Grant(name, grant).ok()) std::abort();
      }
    };
    for (int d = 0; d < kHeavyBaseDepts; ++d) grant_bundle(d);
    grant_bundle(kHeavyBaseDepts + r);
    auto requirement = core::ParseRequirementString(
        common::StrCat("(", name, ", r_salary0(x) : ti)"));
    if (!requirement.ok()) std::abort();
    population.requirements.push_back(std::move(requirement).value());
  }
  return population;
}

// Loopback worker threads, one listener each (ephemeral ports).
class LoopbackFleet {
 public:
  LoopbackFleet(const schema::Schema& schema,
                const std::vector<service::TcpWorkerOptions>& workers) {
    for (const service::TcpWorkerOptions& options : workers) {
      auto bound = net::Listener::Bind(0);
      if (!bound.ok()) std::abort();
      listeners_.push_back(
          std::make_unique<net::Listener>(std::move(bound).value()));
      addresses_.push_back(
          common::StrCat("127.0.0.1:", listeners_.back()->port()));
      net::Listener* listener = listeners_.back().get();
      threads_.emplace_back([listener, &schema, options, this] {
        auto status =
            service::ServeShardWorker(*listener, schema, options, &stop_);
        if (!status.ok()) std::abort();
      });
    }
  }

  ~LoopbackFleet() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }

  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  std::vector<std::unique_ptr<net::Listener>> listeners_;
  std::vector<std::string> addresses_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

// Lockstep vs pipelined streaming over a warmed fleet. Arg is
// max_in_flight; 1 is the request/reply baseline.
void BM_TcpStreaming(benchmark::State& state) {
  Population population = MakeStreamPopulation();
  std::vector<service::TcpWorkerOptions> workers(kWorkers);
  LoopbackFleet fleet(*population.schema, workers);

  service::TcpTransportOptions options;
  options.workers = fleet.addresses();
  options.max_in_flight = static_cast<int>(state.range(0));
  options.max_batch_requirements = 1;  // every requirement its own batch
  service::TcpTransport transport(options);

  // Warm the workers' persistent caches: the timed loop then measures
  // pure streaming, not fixpoints.
  {
    auto warmup = transport.Run(*population.schema, *population.users,
                                population.requirements, nullptr);
    if (!warmup.ok()) std::abort();
  }

  double checks = 0;
  for (auto _ : state) {
    auto result = transport.Run(*population.schema, *population.users,
                                population.requirements, nullptr);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->reports.size());
    checks = static_cast<double>(result->merged_stats.checks);
  }
  state.counters["batches"] = kStreamRoles * kStreamUsersPerRole;
  state.counters["in_flight"] = static_cast<double>(state.range(0));
  state.counters["checks"] = checks;
}
BENCHMARK(BM_TcpStreaming)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Cache-less workers with no snapshot tier: every iteration re-runs
// all 4 rich fixpoints across the fleet. The cold baseline the
// snapshot tier is priced against.
void BM_TcpColdFleet(benchmark::State& state) {
  Population population = MakeHeavyPopulation();
  std::vector<service::TcpWorkerOptions> workers(kWorkers);
  for (auto& w : workers) w.persistent_cache = false;
  LoopbackFleet fleet(*population.schema, workers);

  service::TcpTransportOptions options;
  options.workers = fleet.addresses();
  service::TcpTransport transport(options);

  double built = 0;
  for (auto _ : state) {
    auto result = transport.Run(*population.schema, *population.users,
                                population.requirements, nullptr);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->reports.size());
    built = static_cast<double>(result->merged_stats.closures_built);
  }
  state.counters["closures_built"] = built;
}
BENCHMARK(BM_TcpColdFleet)->Unit(benchmark::kMillisecond)->UseRealTime();

// The same cache-less workers, but the coordinator serves its
// pre-populated store over the wire: every signature replays a
// derivation log fetched remotely instead of re-running its fixpoint.
void BM_TcpSnapshotWarmedFleet(benchmark::State& state) {
  Population population = MakeHeavyPopulation();
  char dir_template[] = "/tmp/oodbsec_bench_transport.XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) std::abort();
  auto opened = snapshot::OpenPackedStore(common::StrCat(dir, "/fleet.pack"));
  if (!opened.ok()) std::abort();
  std::shared_ptr<snapshot::SnapshotStore> store = std::move(opened).value();

  std::vector<service::TcpWorkerOptions> workers(kWorkers);
  for (auto& w : workers) w.persistent_cache = false;
  LoopbackFleet fleet(*population.schema, workers);

  service::TcpTransportOptions options;
  options.workers = fleet.addresses();
  options.snapshot_store = store;
  options.save_snapshots = true;
  service::TcpTransport transport(options);

  // Priming run: the cache-less workers build cold and persist every
  // closure back through the wire, populating the coordinator's store.
  {
    auto prime = transport.Run(*population.schema, *population.users,
                               population.requirements, nullptr);
    if (!prime.ok()) std::abort();
  }

  double hits = 0, built = 0;
  for (auto _ : state) {
    auto result = transport.Run(*population.schema, *population.users,
                                population.requirements, nullptr);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->reports.size());
    hits = static_cast<double>(result->merged_stats.snapshot_hits);
    built = static_cast<double>(result->merged_stats.closures_built);
  }
  state.counters["snapshot_hits"] = hits;
  state.counters["closures_built"] = built;

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_TcpSnapshotWarmedFleet)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
