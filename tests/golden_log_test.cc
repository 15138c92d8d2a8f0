// Golden derivation logs: the FNV-1a hash of SerializeLog and the fact
// count of six builds per schema, pinned as constants — cold, grow from
// a subset, shrink by one revoke, shrink by a multi-root department
// revoke, a base with equal roots, and a snapshot replay. Every route
// but cold goes through Closure's one replay loop, so the constants pin
// that loop's output byte for byte: same steps, same order, same
// premises. The digest-equality suites (incremental_test,
// snapshot_test) would miss a replay that copied premises in another
// order; this suite would not.
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
#include "schema/schema.h"
#include "snapshot/snapshot.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

struct Golden {
  uint64_t log_hash;
  size_t fact_count;
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

Scenario ScaledBroker() {
  const int kScale = 3;
  Scenario s;
  s.schema = ScaledBrokerSchema(kScale);
  s.full = {"r_name"};
  for (int i = 0; i < kScale; ++i) {
    for (const char* fn : {"checkBudget", "updateSalary", "w_budget",
                           "w_profit"}) {
      s.full.push_back(common::StrCat(fn, i));
    }
  }
  std::sort(s.full.begin(), s.full.end());
  for (const std::string& root : s.full) {
    // Department 1 is the one the subset lacks and the revoke removes.
    bool dept1 = root.back() == '1';
    if (!dept1) s.subset.push_back(root);
    if (root != "w_budget1") s.one_revoked.push_back(root);
  }
  s.dept_revoked = s.subset;
  return s;
}

Golden Pin(const Closure& closure) {
  return {common::Fnv1a64(SerializeLog(closure)), closure.fact_count()};
}

// Runs the six builds over `s` and checks each against `expected`, in
// the order cold, grow, shrink-one, shrink-department, equal, snapshot.
void CheckScenario(const Scenario& s, const Golden (&expected)[6]) {
  const schema::Schema& schema = *s.schema;
  const char* names[6] = {"cold", "grow", "shrink-one", "shrink-department",
                          "equal-roots", "snapshot"};
  Golden got[6];

  auto full_set = Unfold(schema, s.full);
  Closure cold(*full_set);
  EXPECT_FALSE(cold.warm_started());
  got[0] = Pin(cold);

  auto subset_set = Unfold(schema, s.subset);
  Closure subset(*subset_set);
  auto grow_set = Unfold(schema, s.full);
  auto grow = std::make_unique<Closure>(*grow_set, ClosureOptions{}, nullptr,
                                        &subset);
  EXPECT_TRUE(grow->warm_started());
  EXPECT_FALSE(grow->retracted());
  got[1] = Pin(*grow);

  auto one_set = Unfold(schema, s.one_revoked);
  Closure shrink_one(*one_set, {}, nullptr, &cold);
  EXPECT_TRUE(shrink_one.retracted());
  got[2] = Pin(shrink_one);

  auto dept_set = Unfold(schema, s.dept_revoked);
  Closure shrink_dept(*dept_set, {}, nullptr, &cold);
  EXPECT_TRUE(shrink_dept.retracted());
  got[3] = Pin(shrink_dept);

  auto equal_set = Unfold(schema, s.full);
  Closure equal(*equal_set, {}, nullptr, &cold);
  EXPECT_TRUE(equal.warm_started());
  EXPECT_FALSE(equal.retracted());
  got[4] = Pin(equal);

  // Snapshot replay of the grown closure: the record round trip must
  // reproduce its (non-cold) log exactly.
  CachedAnalysis entry;
  entry.roots = s.full;
  entry.set = std::move(grow_set);
  entry.closure = std::move(grow);
  std::string bytes = snapshot::BuildEntryBytes(schema, {}, entry);
  auto replayed = snapshot::DecodeEntry(schema, {}, "golden", bytes);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed.value()->closure->warm_started());
  got[5] = Pin(*replayed.value()->closure);

  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(got[i].log_hash, expected[i].log_hash) << names[i];
    EXPECT_EQ(got[i].fact_count, expected[i].fact_count) << names[i];
  }
}

TEST(GoldenLogTest, StockbrokerLogsMatchPinnedBytes) {
  const Golden kExpected[6] = {
      {0xa9453d0795db8279ull, 140},   // cold
      {0x6a661fd7aa9b0eb6ull, 140},   // grow
      {0x1d33fbcea56897c7ull, 123},   // shrink-one
      {0xb28907d39c73a881ull, 57},    // shrink-department
      {0xa9453d0795db8279ull, 140},   // equal-roots
      {0x6a661fd7aa9b0eb6ull, 140},   // snapshot
  };
  CheckScenario(Stockbroker(), kExpected);
}

TEST(GoldenLogTest, ScaledBrokerLogsMatchPinnedBytes) {
  const Golden kExpected[6] = {
      {0x321818b8d4652c52ull, 397},   // cold
      {0xa31bed401446b53aull, 398},   // grow
      {0xdf003628b9a3bda5ull, 383},   // shrink-one
      {0x645d8682b188fdf7ull, 266},   // shrink-department
      {0x321818b8d4652c52ull, 397},   // equal-roots
      {0xa31bed401446b53aull, 398},   // snapshot
  };
  CheckScenario(ScaledBroker(), kExpected);
}

}  // namespace
}  // namespace oodbsec::core
