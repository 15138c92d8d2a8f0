// Golden derivation logs: the FNV-1a hash of SerializeLog and the fact
// count of six builds per schema, pinned as constants — cold, grow from
// a subset, shrink by one revoke, shrink by a multi-root department
// revoke, a base with equal roots, and a snapshot replay. Every route
// but cold goes through Closure's one replay loop, so the constants pin
// that loop's output byte for byte: same steps, same order, same
// premises. The digest-equality suites (incremental_test,
// snapshot_test) would miss a replay that copied premises in another
// order; this suite would not.
//
// Each build also pins a hash of the closure.* metrics it publishes
// into a fresh registry: the work counters (finds, add attempts per
// kind, rule evaluations, call re-evaluations, merges, rounds), the
// per-kind and per-family fact counts and the round-facts histogram.
// A change that moves where the engine counts its work, but not what
// it does, keeps these hashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "closure_test_util.h"
#include "common/fnv.h"
#include "common/strings.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "snapshot/snapshot.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

struct Golden {
  uint64_t log_hash;
  size_t fact_count;
  uint64_t metrics_hash;
};

// One schema's root lists for the six builds.
struct Scenario {
  std::unique_ptr<schema::Schema> schema;
  std::vector<std::string> full;          // cold, equal roots, snapshot
  std::vector<std::string> subset;        // the grow base
  std::vector<std::string> one_revoked;   // full minus one root
  std::vector<std::string> dept_revoked;  // full minus several roots
};

Scenario Stockbroker() {
  Scenario s;
  s.schema = BrokerSchema();
  s.full = {"checkBudget", "r_name", "updateSalary", "w_budget", "w_profit"};
  s.subset = {"checkBudget", "w_budget"};
  s.one_revoked = {"checkBudget", "r_name", "updateSalary", "w_profit"};
  s.dept_revoked = {"checkBudget", "r_name", "w_budget"};
  return s;
}

Scenario ScaledBroker(int scale) {
  Scenario s;
  s.schema = ScaledBrokerSchema(scale);
  s.full = {"r_name"};
  for (int i = 0; i < scale; ++i) {
    for (const char* fn : {"checkBudget", "updateSalary", "w_budget",
                           "w_profit"}) {
      s.full.push_back(common::StrCat(fn, i));
    }
  }
  std::sort(s.full.begin(), s.full.end());
  for (const std::string& root : s.full) {
    // Department 1 is the one the subset lacks and the revoke removes.
    bool dept1 = root.ends_with('1') && !root.ends_with("11");
    if (!dept1) s.subset.push_back(root);
    if (root != "w_budget1") s.one_revoked.push_back(root);
  }
  s.dept_revoked = s.subset;
  return s;
}

// FNV-1a over every closure.* metric in `obs`, in the registry's name
// order: a counter's value, a histogram's count, sum and buckets.
uint64_t MetricsHash(const obs::Observability& obs) {
  uint64_t hash = common::Fnv1a64("");
  for (const obs::MetricSnapshot& metric : obs.metrics.Snapshot()) {
    if (!metric.name.starts_with("closure.")) continue;
    std::string line = common::StrCat(metric.name, "=", metric.value);
    if (metric.kind == obs::MetricSnapshot::Kind::kHistogram) {
      line += common::StrCat(" sum ", metric.sum, " [");
      for (uint64_t bucket : metric.buckets) {
        line += common::StrCat(bucket, ",");
      }
      line += "]";
    }
    hash = common::Fnv1a64Field(line, hash);
  }
  return hash;
}

Golden Pin(const Closure& closure, const obs::Observability& obs) {
  return {common::Fnv1a64(SerializeLog(closure)), closure.fact_count(),
          MetricsHash(obs)};
}

// Runs the six builds over `s` under `options` and checks each against
// `expected`, in the order cold, grow, shrink-one, shrink-department,
// equal, snapshot. Every pinned build observes into a registry of its
// own; the grow base is built unobserved.
void CheckScenarioWith(const Scenario& s, const Golden (&expected)[6],
                       ClosureOptions options) {
  const schema::Schema& schema = *s.schema;
  const char* names[6] = {"cold", "grow", "shrink-one", "shrink-department",
                          "equal-roots", "snapshot"};
  Golden got[6];
  obs::Observability obs[6];

  auto full_set = Unfold(schema, s.full);
  Closure cold(*full_set, options, &obs[0]);
  EXPECT_FALSE(cold.warm_started());
  got[0] = Pin(cold, obs[0]);

  auto subset_set = Unfold(schema, s.subset);
  Closure subset(*subset_set, options);
  auto grow_set = Unfold(schema, s.full);
  auto grow =
      std::make_unique<Closure>(*grow_set, options, &obs[1], &subset);
  EXPECT_TRUE(grow->warm_started());
  EXPECT_FALSE(grow->retracted());
  got[1] = Pin(*grow, obs[1]);

  auto one_set = Unfold(schema, s.one_revoked);
  Closure shrink_one(*one_set, options, &obs[2], &cold);
  EXPECT_TRUE(shrink_one.retracted());
  got[2] = Pin(shrink_one, obs[2]);

  auto dept_set = Unfold(schema, s.dept_revoked);
  Closure shrink_dept(*dept_set, options, &obs[3], &cold);
  EXPECT_TRUE(shrink_dept.retracted());
  got[3] = Pin(shrink_dept, obs[3]);

  auto equal_set = Unfold(schema, s.full);
  Closure equal(*equal_set, options, &obs[4], &cold);
  EXPECT_TRUE(equal.warm_started());
  EXPECT_FALSE(equal.retracted());
  got[4] = Pin(equal, obs[4]);

  // Snapshot replay of the grown closure: the record round trip must
  // reproduce its (non-cold) log exactly.
  CachedAnalysis entry;
  entry.roots = s.full;
  entry.set = std::move(grow_set);
  entry.closure = std::move(grow);
  std::string bytes = snapshot::BuildEntryBytes(schema, options, entry);
  auto replayed =
      snapshot::DecodeEntry(schema, options, "golden", bytes, &obs[5]);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed.value()->closure->warm_started());
  got[5] = Pin(*replayed.value()->closure, obs[5]);

  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(got[i].log_hash, expected[i].log_hash) << names[i];
    EXPECT_EQ(got[i].fact_count, expected[i].fact_count) << names[i];
    EXPECT_EQ(got[i].metrics_hash, expected[i].metrics_hash) << names[i];
  }
}

// The pins hold at the default options and at closure_threads = 2, the
// value e2ebench's audit_deep sets: the field is ignored, so nothing —
// neither a log byte nor a work counter — may depend on it.
void CheckScenario(const Scenario& s, const Golden (&expected)[6]) {
  CheckScenarioWith(s, expected, {});
  SCOPED_TRACE("closure_threads = 2");
  ClosureOptions two_threads;
  two_threads.closure_threads = 2;
  CheckScenarioWith(s, expected, two_threads);
}

TEST(GoldenLogTest, StockbrokerLogsMatchPinnedBytes) {
  const Golden kExpected[6] = {
      {0xa9453d0795db8279ull, 140, 0x533e295d3a108a81ull},  // cold
      {0x6a661fd7aa9b0eb6ull, 140, 0x3a910c17ed33742cull},  // grow
      {0x1d33fbcea56897c7ull, 123, 0xcda07329aae78643ull},  // shrink-one
      {0xb28907d39c73a881ull, 57, 0xa6a97eb3831703edull},  // shrink-department
      {0xa9453d0795db8279ull, 140, 0x2c87e691a8749214ull},  // equal-roots
      {0x6a661fd7aa9b0eb6ull, 140, 0x61a1fd8da5d12995ull},  // snapshot
  };
  CheckScenario(Stockbroker(), kExpected);
}

TEST(GoldenLogTest, ScaledBrokerLogsMatchPinnedBytes) {
  const Golden kExpected[6] = {
      {0x321818b8d4652c52ull, 397, 0xef6d6dbee66c2a85ull},  // cold
      {0xa31bed401446b53aull, 398, 0x812ae5f2b85eab89ull},  // grow
      {0xdf003628b9a3bda5ull, 383, 0xdff36ce1b6ba954bull},  // shrink-one
      {0x645d8682b188fdf7ull, 266, 0x975eb35b4768b59aull},  // shrink-department
      {0x321818b8d4652c52ull, 397, 0x269ee51c3e12fe3full},  // equal-roots
      {0xa31bed401446b53aull, 398, 0x58caf693bd3647c9ull},  // snapshot
  };
  CheckScenario(ScaledBroker(3), kExpected);
}

// Scale 16, the shape of BM_ScaledBrokerClosure/16: its cold and
// shrink builds run rounds whose frontier reaches hundreds of facts.
TEST(GoldenLogTest, ScaledBroker16LogsMatchPinnedBytes) {
  const Golden kExpected[6] = {
      {0xaa5bf7731cab7bcbull, 2087, 0x9fa31c1f5e3295f3ull},  // cold
      {0xdd5fa52b0df724daull, 2088, 0x5a62c05fc6121ddbull},  // grow
      {0x8bcd2e33bd47df50ull, 2060, 0xed86690b55bec9cdull},  // shrink-one
      {0x3c9d4e3c1408c2c3ull, 1956, 0xd237d479bd43773eull},  // shrink-department
      {0xaa5bf7731cab7bcbull, 2087, 0xe9df8a1c5738e4eaull},  // equal-roots
      {0xdd5fa52b0df724daull, 2088, 0xca3055950f442de6ull},  // snapshot
  };
  CheckScenario(ScaledBroker(16), kExpected);
}

}  // namespace
}  // namespace oodbsec::core
