// Determinism tests for the parallel closure engine: the derivation log
// a Closure produces must be byte-identical for every closure_threads
// setting — same steps in the same order, same rule labels, same
// premise lists — because snapshots, warm starts, retraction, and the
// shard parity triangle all treat the log as canonical. Covers cold
// builds (stockbroker + randomized lists over the scaled broker
// schema), warm starts, retraction, and the paper's stockbroker flaw
// report; the largest case also asserts via obs counters that the
// multi-threaded run actually took the parallel path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "closure_test_util.h"
#include "common/strings.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/requirement.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

ClosureOptions WithThreads(int threads) {
  ClosureOptions options;
  options.closure_threads = threads;
  return options;
}

const int kThreadCounts[] = {2, 8};

TEST(ParallelClosureTest, StockbrokerLogByteIdenticalAcrossThreadCounts) {
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget", "r_name", "updateSalary",
                                    "w_budget", "w_profit"};
  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));
  std::string reference_log = SerializeLog(reference);
  ASSERT_FALSE(reference_log.empty());

  for (int threads : kThreadCounts) {
    auto set = Unfold(*schema, roots);
    Closure parallel(*set, WithThreads(threads));
    EXPECT_EQ(SerializeLog(parallel), reference_log) << threads;
    EXPECT_EQ(parallel.FactSetDigest(), reference.FactSetDigest())
        << threads;
  }
}

TEST(ParallelClosureTest, StockbrokerFlawReportStableAcrossThreadCounts) {
  // The paper's broken-broker scenario: with updateSalary granted, the
  // salary requirement must flag the same sites with the same
  // derivations no matter how many threads derived the closure.
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget", "updateSalary",
                                    "w_budget", "w_profit"};
  auto requirement =
      ParseRequirementString("(broker, w_salary(x, y) : ta)");
  ASSERT_TRUE(requirement.ok()) << requirement.status();

  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));
  auto reference_report =
      CheckAgainstClosure(*reference_set, reference, requirement.value());
  ASSERT_TRUE(reference_report.ok()) << reference_report.status();

  for (int threads : kThreadCounts) {
    auto set = Unfold(*schema, roots);
    Closure parallel(*set, WithThreads(threads));
    auto report = CheckAgainstClosure(*set, parallel, requirement.value());
    ASSERT_TRUE(report.ok()) << threads;
    EXPECT_EQ(report->ToString(), reference_report->ToString()) << threads;
  }
}

TEST(ParallelClosureTest, RandomizedListsByteIdenticalAcrossThreadCounts) {
  const int kScale = 3;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> pool = {"r_name"};
  for (int i = 0; i < kScale; ++i) {
    pool.push_back(common::StrCat("checkBudget", i));
    pool.push_back(common::StrCat("updateSalary", i));
    pool.push_back(common::StrCat("w_budget", i));
    pool.push_back(common::StrCat("w_profit", i));
  }
  // Fixed seed: reproducible trials, no flakes.
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 6; ++trial) {
    std::shuffle(pool.begin(), pool.end(), rng);
    size_t take = 3 + rng() % (pool.size() - 3);
    std::vector<std::string> roots(pool.begin(), pool.begin() + take);
    std::sort(roots.begin(), roots.end());

    auto reference_set = Unfold(*schema, roots);
    Closure reference(*reference_set, WithThreads(1));
    std::string reference_log = SerializeLog(reference);

    for (int threads : kThreadCounts) {
      auto set = Unfold(*schema, roots);
      Closure parallel(*set, WithThreads(threads));
      EXPECT_EQ(SerializeLog(parallel), reference_log)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.FactSetDigest(), reference.FactSetDigest())
          << "trial " << trial << " threads " << threads;
    }
  }
}

TEST(ParallelClosureTest, WarmStartLogByteIdenticalAcrossThreadCounts) {
  auto schema = BrokerSchema();
  std::vector<std::string> base_roots = {"checkBudget", "w_budget"};
  std::vector<std::string> full_roots = {"checkBudget", "r_name",
                                         "updateSalary", "w_budget",
                                         "w_profit"};

  auto base_set = Unfold(*schema, base_roots);
  Closure base(*base_set, WithThreads(1));

  auto reference_set = Unfold(*schema, full_roots);
  Closure reference(*reference_set, WithThreads(1), nullptr, &base);
  ASSERT_TRUE(reference.warm_started());
  std::string reference_log = SerializeLog(reference);

  for (int threads : kThreadCounts) {
    // The warm base itself is also built in parallel: byte-identical
    // logs must survive the replay-then-continue path end to end.
    auto parallel_base_set = Unfold(*schema, base_roots);
    Closure parallel_base(*parallel_base_set, WithThreads(threads));
    auto set = Unfold(*schema, full_roots);
    Closure warm(*set, WithThreads(threads), nullptr, &parallel_base);
    ASSERT_TRUE(warm.warm_started()) << threads;
    EXPECT_EQ(SerializeLog(warm), reference_log) << threads;
    EXPECT_EQ(warm.FactSetDigest(), reference.FactSetDigest()) << threads;
  }
}

TEST(ParallelClosureTest, RetractLogByteIdenticalAcrossThreadCounts) {
  auto schema = BrokerSchema();
  std::vector<std::string> full_roots = {"checkBudget", "r_name",
                                         "updateSalary", "w_budget",
                                         "w_profit"};
  auto full_set = Unfold(*schema, full_roots);
  Closure base(*full_set, WithThreads(1));

  for (const std::string& revoked : full_roots) {
    std::vector<std::string> reduced;
    for (const std::string& root : full_roots) {
      if (root != revoked) reduced.push_back(root);
    }
    auto reference_set = Unfold(*schema, reduced);
    Closure reference(*reference_set, WithThreads(1), nullptr, &base);
    ASSERT_TRUE(reference.retracted()) << revoked;
    std::string reference_log = SerializeLog(reference);

    for (int threads : kThreadCounts) {
      auto set = Unfold(*schema, reduced);
      Closure shrunk(*set, WithThreads(threads), nullptr, &base);
      ASSERT_TRUE(shrunk.retracted()) << revoked << " threads " << threads;
      EXPECT_EQ(SerializeLog(shrunk), reference_log)
          << revoked << " threads " << threads;
      EXPECT_EQ(shrunk.FactSetDigest(), reference.FactSetDigest())
          << revoked << " threads " << threads;
    }
  }
}

TEST(ParallelClosureTest, LargeBuildTakesParallelPathAndMatches) {
  // A frontier wide enough to cross the parallel engagement threshold:
  // the obs counter proves the chunked path actually ran, and the log
  // still matches the single-threaded build byte for byte.
  const int kScale = 8;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> roots = {"r_name"};
  for (int i = 0; i < kScale; ++i) {
    roots.push_back(common::StrCat("checkBudget", i));
    roots.push_back(common::StrCat("updateSalary", i));
    roots.push_back(common::StrCat("w_budget", i));
    roots.push_back(common::StrCat("w_profit", i));
  }
  std::sort(roots.begin(), roots.end());

  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));

  obs::Observability obs;
  auto set = Unfold(*schema, roots);
  Closure parallel(*set, WithThreads(8), &obs);
  EXPECT_EQ(SerializeLog(parallel), SerializeLog(reference));
  EXPECT_EQ(parallel.FactSetDigest(), reference.FactSetDigest());
  EXPECT_GT(obs.metrics.counter("closure.parallel.rounds")->value(), 0u);
  EXPECT_GT(obs.metrics.counter("closure.parallel.chunks")->value(), 0u);
}

TEST(ParallelClosureTest, AutoAndClampedThreadCountsResolve) {
  // closure_threads = 0 resolves to hardware concurrency; absurd values
  // clamp instead of exploding. Both must still match the reference.
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget", "updateSalary",
                                    "w_budget"};
  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));

  for (int threads : {0, 1024}) {
    auto set = Unfold(*schema, roots);
    Closure parallel(*set, WithThreads(threads));
    EXPECT_EQ(SerializeLog(parallel), SerializeLog(reference)) << threads;
  }
}

}  // namespace
}  // namespace oodbsec::core
