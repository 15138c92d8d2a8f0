// Snapshot-tier benchmark: replaying a persisted derivation log versus
// re-running the fixpoint.
//
// Workload: a fleet of capability lists over the scaled broker schema
// that share >= 80% of their roots — eight department grant bundles
// common to every list plus one list-specific bundle — the shape of a
// real role-drifted population, and the worst case for exact-match
// caching (no list is a subset of another, so every list needs its own
// closure). BM_SnapshotColdBuild pays the full fixpoint for each list;
// BM_SnapshotWarmStart serves the same lists from a pre-populated
// packed store, freshly opened each iteration, where each closure is
// rebuilt by replaying its saved derivation log in place — no joins,
// no frontier, just bounds-checked union-find replay. The ratio
// between the two is the restart win the sharded audit banks on (the
// acceptance floor is 3x).
//
// BM_SnapshotSave prices the write side (serialize + checksum + append
// and footer rewrite per entry, into a fresh pack), so the nightly
// "persist what you built" step can be budgeted against the fixpoints
// it saves.
//
// BM_PackedFind prices the per-signature lookup (with a one-entry page
// cache so every find pays the mmap replay, not an LRU hit);
// BM_PackedSweep prices the steady-state nightly retention pass over an
// all-live store.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "common/strings.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "schema/schema.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_store.h"

namespace {

using namespace oodbsec;

constexpr int kBaseDepts = 8;  // departments every list is granted
constexpr int kLists = 3;      // capability lists in the fleet
constexpr int kScale = kBaseDepts + kLists;  // departments in the schema

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

// One department's full grant bundle — function *and* write
// capabilities, the shape BM_ScaledBrokerClosure uses. The writes are
// what make the closure rich (write-read equality keeps firing), so
// without them the fixpoint would be too cheap to measure against.
void AppendBundle(std::vector<std::string>& roots, int dept) {
  roots.push_back(common::StrCat("checkBudget", dept));
  roots.push_back(common::StrCat("updateSalary", dept));
  roots.push_back(common::StrCat("w_budget", dept));
  roots.push_back(common::StrCat("w_profit", dept));
}

// kLists capability lists: r_name plus kBaseDepts department bundles
// shared by all, plus one department bundle unique to each list
// (shared fraction 33/37 = 89%). No list subsumes another, so the
// exact-match L1 never helps across lists — each needs its own closure.
std::vector<std::vector<std::string>> FleetLists() {
  std::vector<std::string> base = {"r_name"};
  for (int d = 0; d < kBaseDepts; ++d) AppendBundle(base, d);
  std::vector<std::vector<std::string>> lists;
  for (int l = 0; l < kLists; ++l) {
    std::vector<std::string> roots = base;
    AppendBundle(roots, kBaseDepts + l);
    lists.push_back(std::move(roots));
  }
  return lists;
}

const schema::Schema& SharedSchema() {
  static const std::unique_ptr<schema::Schema> schema =
      ScaledBrokerSchema(kScale);
  return *schema;
}

// A temporary directory for the benchmark's packs, removed at process
// exit.
const std::string& BenchDir() {
  static const std::string dir = [] {
    char buf[] = "/tmp/oodbsec_bench_snap.XXXXXX";
    const char* path = ::mkdtemp(buf);
    if (path == nullptr) std::abort();
    static std::string kept = path;
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(kept, ec);
    });
    return kept;
  }();
  return dir;
}

std::shared_ptr<snapshot::SnapshotStore> OpenPack(const std::string& path,
                                                  size_t page_capacity = 64) {
  auto opened = snapshot::OpenPackedStore(path, page_capacity);
  if (!opened.ok()) std::abort();
  return std::move(opened).value();
}

// A pack holding one saved closure per fleet list, populated once.
const std::string& PopulatedPackFile() {
  static const std::string pack = [] {
    std::string path = common::StrCat(BenchDir(), "/fleet.pack");
    core::ClosureCache cache(SharedSchema(), core::ClosureOptions{}, 64,
                             nullptr, OpenPack(path));
    for (const auto& roots : FleetLists()) {
      if (!cache.GetOrBuild(roots).ok()) std::abort();
    }
    if (!cache.SaveCacheSnapshot().ok()) std::abort();
    return path;
  }();
  return pack;
}

// The restart baseline: every list pays its full cold fixpoint.
void BM_SnapshotColdBuild(benchmark::State& state) {
  const schema::Schema& schema = SharedSchema();
  const auto lists = FleetLists();
  double facts = 0;
  for (auto _ : state) {
    core::ClosureCache cache(schema, core::ClosureOptions{}, 64);
    for (const auto& roots : lists) {
      auto entry = cache.GetOrBuild(roots);
      if (!entry.ok()) std::abort();
      facts += static_cast<double>(entry.value()->closure->fact_count());
      benchmark::DoNotOptimize(entry.value()->closure.get());
    }
    if (cache.stats().cold_builds != kLists) std::abort();
  }
  state.counters["lists"] = kLists;
  state.counters["facts_per_iter"] =
      facts / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SnapshotColdBuild)->Unit(benchmark::kMillisecond);

// The restart with the snapshot tier armed: every list replays its
// persisted derivation log. Must beat BM_SnapshotColdBuild >= 3x.
void BM_SnapshotWarmStart(benchmark::State& state) {
  const schema::Schema& schema = SharedSchema();
  const std::string& pack = PopulatedPackFile();
  const auto lists = FleetLists();
  double facts = 0;
  for (auto _ : state) {
    core::ClosureCache cache(schema, core::ClosureOptions{}, 64, nullptr,
                             OpenPack(pack));
    for (const auto& roots : lists) {
      auto entry = cache.GetOrBuild(roots);
      if (!entry.ok()) std::abort();
      facts += static_cast<double>(entry.value()->closure->fact_count());
      benchmark::DoNotOptimize(entry.value()->closure.get());
    }
    // Every list must have come off disk — zero fixpoints.
    if (cache.stats().snapshot_hits != kLists ||
        cache.stats().cold_builds != 0 || cache.stats().warm_builds != 0) {
      std::abort();
    }
  }
  state.counters["lists"] = kLists;
  state.counters["facts_per_iter"] =
      facts / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SnapshotWarmStart)->Unit(benchmark::kMillisecond);

// Write-side cost: serialize, checksum, and append every resident
// entry to a fresh pack (the nightly persist step; an identical re-save
// into a live pack would skip the append).
void BM_SnapshotSave(benchmark::State& state) {
  const schema::Schema& schema = SharedSchema();
  const std::string pack = common::StrCat(BenchDir(), "/save.pack");
  core::ClosureCache cache(schema, core::ClosureOptions{}, 64);
  std::vector<std::shared_ptr<const core::CachedAnalysis>> entries;
  for (const auto& roots : FleetLists()) {
    auto entry = cache.GetOrBuild(roots);
    if (!entry.ok()) std::abort();
    entries.push_back(entry.value());
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::error_code ec;
    std::filesystem::remove(pack, ec);
    auto store = OpenPack(pack);
    state.ResumeTiming();
    for (const auto& entry : entries) {
      if (!store->Save(schema, core::ClosureOptions{}, *entry).ok()) {
        std::abort();
      }
    }
  }
  state.counters["lists"] = kLists;
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond);

// Per-signature lookup through the packed store. The page cache is
// sized to one entry while the fleet cycles three signatures, so every
// find is a cache miss that pays the full in-place mmap replay (with
// the default capacity the steady state is an LRU hit and there is
// nothing left to measure).
void BM_PackedFind(benchmark::State& state) {
  const schema::Schema& schema = SharedSchema();
  auto store = OpenPack(PopulatedPackFile(), /*page_capacity=*/1);
  const auto lists = FleetLists();
  for (auto _ : state) {
    for (const auto& roots : lists) {
      auto entry = store->Find(schema, core::ClosureOptions{}, roots);
      if (!entry.ok() || !entry.value()->closure->warm_started()) std::abort();
      benchmark::DoNotOptimize(entry.value()->closure.get());
    }
  }
  state.counters["lists"] = kLists;
}
BENCHMARK(BM_PackedFind)->Unit(benchmark::kMillisecond);

// Steady-state retention pass: walk the in-memory index, find nothing
// stale and no dead bytes, skip compaction.
void BM_PackedSweep(benchmark::State& state) {
  auto store = OpenPack(PopulatedPackFile());
  const uint64_t live = snapshot::SchemaFingerprint(SharedSchema(),
                                                    core::ClosureOptions{});
  for (auto _ : state) {
    auto swept = store->Sweep(live);
    if (!swept.ok() || swept.value().records_swept != 0) std::abort();
    benchmark::DoNotOptimize(swept.value().records_kept);
  }
  state.counters["lists"] = kLists;
}
BENCHMARK(BM_PackedSweep)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
