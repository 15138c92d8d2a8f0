// Tests for the dynamic session guard (the paper's §5 future-work
// alternative): static-vs-dynamic trade-off, denial at exactly the
// flaw-completing query, session accumulation, memoization, the
// incremental serving path (trigger pre-filter + session-delta
// rechecks, asserted digest-equal to the cold path over randomized
// churn), concurrency, and the snapshot warm-restart tier.
#include <gtest/gtest.h>
#include <unistd.h>

#include <random>
#include <thread>

#include "core/analysis_session.h"
#include "core/closure.h"
#include "dynamic/session_guard.h"
#include "query/binder.h"
#include "query/query_parser.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot_store.h"
#include "test_util.h"
#include "text/workspace.h"
#include "unfold/unfolded.h"

namespace oodbsec::dynamic {
namespace {

using types::Value;

constexpr const char* kWorkspace = R"(
class Broker { name: string; salary: int; budget: int; }
function checkBudget(broker: Broker): bool =
  r_budget(broker) >= 10 * r_salary(broker);
user clerk can checkBudget, w_budget, r_name;
require (clerk, r_salary(x) : ti);
object Broker { name = "John", salary = 57, budget = 400 }
)";

struct Fixture {
  text::Workspace workspace;
  std::unique_ptr<SessionGuard> guard;

  Fixture() {
    auto loaded = text::LoadWorkspace(kWorkspace);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    workspace = std::move(loaded).value();
    guard = std::make_unique<SessionGuard>(
        *workspace.schema, *workspace.users, workspace.requirements);
  }

  std::unique_ptr<query::SelectQuery> Query(const std::string& text) {
    auto parsed = query::ParseQueryString(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_TRUE(query::BindQuery(*parsed.value(), *workspace.schema).ok());
    return std::move(parsed).value();
  }

  const schema::User& Clerk() { return *workspace.users->Find("clerk"); }
};

TEST(SessionGuardTest, StaticAnalysisWouldRejectTheGrantOutright) {
  // Baseline: A(R) over the full capability list flags the requirement,
  // so a purely static deployment cannot serve this clerk at all.
  Fixture f;
  core::AnalysisSession session(*f.workspace.schema, *f.workspace.users);
  auto report = session.Check(f.workspace.requirements[0]);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->satisfied);
}

TEST(SessionGuardTest, BenignQueriesPass) {
  Fixture f;
  // checkBudget alone cannot complete the flaw.
  auto q = f.Query("select checkBudget(b) from b in Broker");
  auto result = f.guard->Run(*f.workspace.database, f.Clerk(), *q);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(f.guard->SessionFunctions("clerk"),
            (std::set<std::string>{"checkBudget"}));
}

TEST(SessionGuardTest, FlawCompletingQueryIsDenied) {
  Fixture f;
  // First query: benign.
  auto q1 = f.Query("select checkBudget(b) from b in Broker");
  ASSERT_TRUE(f.guard->Run(*f.workspace.database, f.Clerk(), *q1).ok());
  // Second query introduces w_budget: together with the session's
  // checkBudget this completes the probing flaw — denied BEFORE any
  // write happens.
  auto q2 = f.Query("select w_budget(b, 100) from b in Broker");
  auto result = f.guard->Run(*f.workspace.database, f.Clerk(), *q2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kPermissionDenied);
  // The denied query left no trace: budget unchanged, session unchanged.
  types::Oid john = f.workspace.database->Extent("Broker")[0];
  EXPECT_EQ(f.workspace.database->ReadAttribute(john, "budget").value(),
            Value::Int(400));
  EXPECT_EQ(f.guard->SessionFunctions("clerk"),
            (std::set<std::string>{"checkBudget"}));
}

TEST(SessionGuardTest, SingleMixedQueryIsDeniedUpfront) {
  Fixture f;
  // The paper's probing query in one shot: denied on first contact.
  auto q = f.Query(
      "select w_budget(b, 1), checkBudget(b) from b in Broker "
      "where r_name(b) == \"John\"");
  auto decision = f.guard->Decide(f.Clerk(), *q);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_FALSE(decision->allowed);
  EXPECT_NE(decision->violated_requirement.find("r_salary"),
            std::string::npos);
  EXPECT_FALSE(decision->derivation.empty());
}

TEST(SessionGuardTest, OrderDoesNotMatter) {
  // Writing first, then testing, is caught at the test query.
  Fixture f;
  auto q1 = f.Query("select w_budget(b, 100) from b in Broker");
  ASSERT_TRUE(f.guard->Run(*f.workspace.database, f.Clerk(), *q1).ok());
  auto q2 = f.Query("select checkBudget(b) from b in Broker");
  auto result = f.guard->Run(*f.workspace.database, f.Clerk(), *q2);
  EXPECT_FALSE(result.ok());
}

TEST(SessionGuardTest, OtherUsersRequirementsDoNotInterfere) {
  Fixture f;
  ASSERT_TRUE(f.workspace.users->AddUser("admin").ok());
  ASSERT_TRUE(f.workspace.users->Grant("admin", "checkBudget").ok());
  ASSERT_TRUE(f.workspace.users->Grant("admin", "w_budget").ok());
  // No requirement names admin: everything passes for them.
  auto q = f.Query(
      "select w_budget(b, 1), checkBudget(b) from b in Broker");
  auto result = f.guard->Run(*f.workspace.database,
                             *f.workspace.users->Find("admin"), *q);
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(SessionGuardTest, DecisionsAreMemoized) {
  Fixture f;
  auto q = f.Query("select checkBudget(b) from b in Broker");
  ASSERT_TRUE(f.guard->Decide(f.Clerk(), *q).ok());
  int after_first = f.guard->closure_evaluations();
  ASSERT_TRUE(f.guard->Decide(f.Clerk(), *q).ok());
  EXPECT_EQ(f.guard->closure_evaluations(), after_first);
}

TEST(SessionGuardTest, UnboundQueryRejected) {
  Fixture f;
  auto parsed =
      query::ParseQueryString("select checkBudget(b) from b in Broker");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(f.guard->Decide(f.Clerk(), *parsed.value()).ok());
}

TEST(SessionGuardTest, DynamicBeatsStaticOnBenignSessions) {
  // The headline comparison: a benign session (repeated audits) runs to
  // completion under the guard even though the static verdict on the
  // grant set is "reject".
  Fixture f;
  for (int day = 0; day < 5; ++day) {
    auto q = f.Query("select r_name(b), checkBudget(b) from b in Broker");
    auto result = f.guard->Run(*f.workspace.database, f.Clerk(), *q);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  // ...and the moment the session turns adversarial, the door shuts.
  auto probe = f.Query(
      "select w_budget(b, 512), checkBudget(b) from b in Broker");
  EXPECT_FALSE(f.guard->Run(*f.workspace.database, f.Clerk(), *probe).ok());
}

TEST(SessionGuardTest, MemoKeysDoNotCollideOnSeparatorCharacters) {
  // Regression: the old memo built keys as user + "|" + fn + "," — the
  // two-function set {checkBudget, w_budget} and the single (bogus)
  // name "checkBudget,w_budget" produced the SAME key, so the second
  // lookup returned the first's cached denial instead of a resolution
  // error. Signature-keyed cache entries cannot collide.
  Fixture f;
  auto pair = f.guard->CheckFunctions("clerk", {"checkBudget", "w_budget"});
  ASSERT_TRUE(pair.ok()) << pair.status();
  EXPECT_FALSE(pair->allowed);
  auto bogus = f.guard->CheckFunctions("clerk", {"checkBudget,w_budget"});
  EXPECT_FALSE(bogus.ok());  // unknown name: an error, not a verdict
  // The other direction too: the error left nothing behind that could
  // shadow the real set's verdict.
  auto again = f.guard->CheckFunctions("clerk", {"checkBudget", "w_budget"});
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->allowed);
}

TEST(SessionGuardTest, SessionFunctionsForUnknownUserIsEmpty) {
  Fixture f;
  EXPECT_TRUE(f.guard->SessionFunctions("nobody").empty());
}

// ---------------------------------------------------------------------
// The incremental serving path: a two-class workspace where the Depot
// functions are provably outside the requirement cone of user `ana`
// (different attributes, no shared calls, different root-argument
// type), so queries touching only Depot ride the trigger pre-filter
// fast path; Broker queries take the session-delta recheck path.

constexpr const char* kTwoClassWorkspace = R"(
class Broker { name: string; salary: int; budget0: int; budget1: int; budget2: int; }
class Depot { city: string; stock: int; }
function checkBudget0(b: Broker): bool = r_budget0(b) >= 10 * r_salary(b);
function checkBudget1(b: Broker): bool = r_budget1(b) >= 20 * r_salary(b);
function checkBudget2(b: Broker): bool = r_budget2(b) >= 30 * r_salary(b);
function stockLevel(d: Depot): int = r_stock(d) * 2;
user ana can checkBudget0, checkBudget1, checkBudget2, w_budget0, w_budget1, w_budget2, r_name, stockLevel, w_stock;
user bob can checkBudget0, checkBudget1, checkBudget2, w_budget0, w_budget1, w_budget2, r_name, stockLevel, w_stock;
require (ana, r_salary(x) : ti);
object Broker { name = "John", salary = 57, budget0 = 400, budget1 = 500, budget2 = 600 }
object Depot { city = "Oslo", stock = 7 }
)";

struct TwoClassFixture {
  text::Workspace workspace;
  std::unique_ptr<SessionGuard> guard;

  explicit TwoClassFixture(GuardOptions options = {}) {
    auto loaded = text::LoadWorkspace(kTwoClassWorkspace);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    workspace = std::move(loaded).value();
    guard = std::make_unique<SessionGuard>(*workspace.schema,
                                           *workspace.users,
                                           workspace.requirements, options);
  }

  std::unique_ptr<query::SelectQuery> Query(const std::string& text) {
    auto parsed = query::ParseQueryString(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_TRUE(query::BindQuery(*parsed.value(), *workspace.schema).ok());
    return std::move(parsed).value();
  }

  const schema::User& User(const std::string& name) {
    return *workspace.users->Find(name);
  }
};

TEST(SessionGuardTest, RelevanceConeSeparatesClasses) {
  TwoClassFixture f;
  // Broker-side functions can feed the r_salary requirement: via the
  // salary/budget attributes or (r_name) the same-type argument axiom.
  EXPECT_TRUE(f.guard->IsRelevant("ana", "checkBudget0"));
  EXPECT_TRUE(f.guard->IsRelevant("ana", "w_budget1"));
  EXPECT_TRUE(f.guard->IsRelevant("ana", "r_salary"));
  EXPECT_TRUE(f.guard->IsRelevant("ana", "r_name"));
  // Depot shares no attribute, call, or argument type with the cone.
  EXPECT_FALSE(f.guard->IsRelevant("ana", "stockLevel"));
  EXPECT_FALSE(f.guard->IsRelevant("ana", "w_stock"));
  // Unknown names stay conservatively relevant.
  EXPECT_TRUE(f.guard->IsRelevant("ana", "no_such_function"));
  // bob has no requirements: nothing is relevant for him.
  EXPECT_FALSE(f.guard->IsRelevant("bob", "checkBudget0"));
}

TEST(SessionGuardTest, IrrelevantQueriesRideTheFastPath) {
  TwoClassFixture f;
  auto depot = f.Query("select stockLevel(d) from d in Depot");
  // First contact validates the (empty) relevant base once...
  ASSERT_TRUE(f.guard->Run(*f.workspace.database, f.User("ana"), *depot).ok());
  int evals_after_first = f.guard->closure_evaluations();
  // ...then Depot-only churn never touches a closure again: the first
  // query with a new inert function rides the trigger pre-filter, and
  // exact repeats of the committed set are session hits.
  for (int i = 0; i < 10; ++i) {
    auto q = f.Query("select stockLevel(d), w_stock(d, 3) from d in Depot");
    ASSERT_TRUE(f.guard->Run(*f.workspace.database, f.User("ana"), *q).ok());
  }
  // Non-committing probes with an uncommitted inert function take the
  // fast path on every single call.
  for (int i = 0; i < 10; ++i) {
    auto probe = f.guard->CheckFunctions("ana", {"w_stock", "r_stock"});
    ASSERT_TRUE(probe.ok());
    EXPECT_TRUE(probe->allowed);
  }
  EXPECT_EQ(f.guard->closure_evaluations(), evals_after_first);
  GuardStats stats = f.guard->Stats();
  EXPECT_GE(stats.fastpath_allows, 10u);
  EXPECT_GE(stats.session_hits, 9u);
  // The session records the depot functions but the live closure never
  // absorbed them.
  SessionGuard::SessionProbe probe = f.guard->Probe("ana");
  EXPECT_TRUE(probe.committed.contains("stockLevel"));
  EXPECT_FALSE(probe.checked.contains("stockLevel"));

  // A user with no requirements never builds anything at all.
  auto mixed = f.Query(
      "select w_budget0(b, 1), checkBudget0(b) from b in Broker");
  ASSERT_TRUE(f.guard->Run(*f.workspace.database, f.User("bob"), *mixed).ok());
  EXPECT_EQ(f.guard->closure_evaluations(), evals_after_first);
}

// One randomized session step: a query text plus the functions it
// invokes (all granted to both users).
struct PoolEntry {
  const char* text;
  std::set<std::string> functions;
};

const std::vector<PoolEntry>& QueryPool() {
  static const std::vector<PoolEntry> pool = {
      {"select checkBudget0(b) from b in Broker", {"checkBudget0"}},
      {"select checkBudget1(b) from b in Broker", {"checkBudget1"}},
      {"select checkBudget2(b) from b in Broker", {"checkBudget2"}},
      {"select w_budget0(b, 100) from b in Broker", {"w_budget0"}},
      {"select w_budget1(b, 100) from b in Broker", {"w_budget1"}},
      {"select w_budget2(b, 100) from b in Broker", {"w_budget2"}},
      {"select r_name(b) from b in Broker", {"r_name"}},
      {"select checkBudget0(b), r_name(b) from b in Broker",
       {"checkBudget0", "r_name"}},
      {"select w_budget0(b, 1), checkBudget0(b) from b in Broker",
       {"w_budget0", "checkBudget0"}},
      {"select w_budget1(b, 2), checkBudget2(b) from b in Broker",
       {"w_budget1", "checkBudget2"}},
      {"select stockLevel(d) from d in Depot", {"stockLevel"}},
      {"select w_stock(d, 9) from d in Depot", {"w_stock"}},
      {"select stockLevel(d), w_stock(d, 3) from d in Depot",
       {"stockLevel", "w_stock"}},
  };
  return pool;
}

TEST(SessionGuardTest, RandomizedChurnMatchesColdVerdictsAndDigests) {
  // 250 random queries across two sessions: every incremental verdict
  // must equal ColdDecision over (committed ∪ query) — including the
  // deny-then-allow orderings the flaw pairs force — and at the end the
  // live incremental closures must be digest-equal to cold rebuilds
  // over the same roots.
  TwoClassFixture f;
  std::map<std::string, std::set<std::string>> committed;
  std::mt19937 rng(20260808);
  const std::vector<PoolEntry>& pool = QueryPool();
  int denials = 0;
  for (int step = 0; step < 250; ++step) {
    const std::string user = (rng() % 3 == 0) ? "bob" : "ana";
    const PoolEntry& entry = pool[rng() % pool.size()];
    std::set<std::string> would_be = committed[user];
    would_be.insert(entry.functions.begin(), entry.functions.end());
    auto cold = SessionGuard::ColdDecision(*f.workspace.schema,
                                           f.workspace.requirements, user,
                                           would_be);
    ASSERT_TRUE(cold.ok()) << cold.status();

    auto query = f.Query(entry.text);
    auto incremental = f.guard->Decide(f.User(user), *query);
    ASSERT_TRUE(incremental.ok()) << incremental.status();
    EXPECT_EQ(incremental->allowed, cold->allowed)
        << "step " << step << " user " << user << ": " << entry.text;
    if (!cold->allowed) {
      EXPECT_EQ(incremental->violated_requirement,
                cold->violated_requirement);
    }

    auto run = f.guard->Run(*f.workspace.database, f.User(user), *query);
    if (cold->allowed) {
      ASSERT_TRUE(run.ok()) << run.status();
      committed[user] = std::move(would_be);
    } else {
      ++denials;
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().code(), common::StatusCode::kPermissionDenied);
    }
    EXPECT_EQ(f.guard->SessionFunctions(user), committed[user]);
  }
  // The pool's flaw pairs guarantee both verdicts actually occurred.
  EXPECT_GT(denials, 0);

  for (const std::string& user : f.guard->SessionUsers()) {
    SessionGuard::SessionProbe probe = f.guard->Probe(user);
    ASSERT_TRUE(probe.exists);
    // checked is a cone-closed slice of committed that covers at least
    // everything relevant against the requirement seed cone (the
    // session cone may have grown wider and captured more).
    for (const std::string& fn : probe.checked) {
      EXPECT_TRUE(probe.committed.contains(fn)) << user << "/" << fn;
    }
    for (const std::string& fn : probe.committed) {
      if (f.guard->IsRelevant(user, fn)) {
        EXPECT_TRUE(probe.checked.contains(fn)) << user << "/" << fn;
      }
    }
    if (probe.roots.empty()) continue;
    auto cold_set = unfold::UnfoldedSet::Build(*f.workspace.schema,
                                               probe.roots);
    ASSERT_TRUE(cold_set.ok()) << cold_set.status();
    core::Closure cold_closure(*cold_set.value(), core::ClosureOptions{});
    EXPECT_EQ(probe.digest, cold_closure.FactSetDigest()) << user;
  }
  // The serving path actually served: the 250 decisions cost a handful
  // of fixpoints, not one per distinct set.
  GuardStats stats = f.guard->Stats();
  EXPECT_LT(stats.delta_rechecks + stats.cold_builds, 30u);
  EXPECT_GT(stats.fastpath_allows + stats.session_hits + stats.exact_hits,
            200u);
}

TEST(SessionGuardTest, ConcurrentDecisionsAreSafe) {
  // Many threads hammer one guard: shared users (same session, same
  // shard) and per-thread users (distinct shards), read-only Run plus
  // Decide/CheckFunctions on flaw-completing sets. TSan (sanitize_smoke
  // runs this binary) checks the locking; assertions check the
  // verdicts stay deterministic under interleaving.
  TwoClassFixture f;
  constexpr int kThreads = 8;
  constexpr int kIters = 30;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &failures, t] {
      const std::string own_user = "worker" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        // Shared session, read-only execution.
        auto benign = f.Query("select checkBudget0(b) from b in Broker");
        auto run = f.guard->Run(*f.workspace.database, f.User("ana"),
                                *benign);
        if (!run.ok()) failures.fetch_add(1);
        // Shared session, fast path.
        auto depot = f.Query("select stockLevel(d) from d in Depot");
        if (!f.guard->Run(*f.workspace.database, f.User("bob"), *depot)
                 .ok()) {
          failures.fetch_add(1);
        }
        // Flaw-completing probe: must be denied every time, from every
        // thread, without committing anything.
        auto probe = f.guard->CheckFunctions(
            "ana", {"checkBudget0", "w_budget0"});
        if (!probe.ok() || probe->allowed) failures.fetch_add(1);
        // Per-thread sessions exercise distinct shards concurrently.
        auto own = f.guard->CheckFunctions(own_user, {"stockLevel"});
        if (!own.ok() || !own->allowed) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(f.guard->Stats().decisions,
            static_cast<uint64_t>(kThreads * kIters * 4));
  EXPECT_EQ(f.guard->SessionFunctions("ana"),
            (std::set<std::string>{"checkBudget0"}));
}

TEST(SessionGuardTest, SnapshotStoreWarmsRestartedGuard) {
  test_util::ScopedTempDir tmp("oodbsec_guard_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = tmp.path() + "/guard.pack";
  GuardOptions options;
  {
    auto store = snapshot::OpenPackedStore(pack);
    ASSERT_TRUE(store.ok()) << store.status();
    options.snapshot_store = std::move(store).value();
  }

  std::string first_digest;
  {
    TwoClassFixture f(options);
    auto decision = f.guard->CheckFunctions("ana", {"checkBudget0"});
    ASSERT_TRUE(decision.ok());
    EXPECT_TRUE(decision->allowed);
    EXPECT_GE(f.guard->closure_evaluations(), 1);
    ASSERT_TRUE(f.guard->SaveCacheSnapshot().ok());
  }
  {
    // A "restarted" guard over the reopened pack: the persisted session
    // closures replay from disk, so the same decision costs zero
    // fixpoint evaluations.
    auto store = snapshot::OpenPackedStore(pack);
    ASSERT_TRUE(store.ok()) << store.status();
    options.snapshot_store = std::move(store).value();
    TwoClassFixture f(options);
    EXPECT_GT(f.guard->LoadCacheSnapshot(), 0u);
    auto decision = f.guard->CheckFunctions("ana", {"checkBudget0"});
    ASSERT_TRUE(decision.ok());
    EXPECT_TRUE(decision->allowed);
    EXPECT_EQ(f.guard->closure_evaluations(), 0);
    EXPECT_GE(f.guard->Stats().exact_hits, 1u);
  }
}

}  // namespace
}  // namespace oodbsec::dynamic
