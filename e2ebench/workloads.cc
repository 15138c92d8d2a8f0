#include "workloads.h"

#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "core/analysis_session.h"
#include "core/closure.h"
#include "dynamic/session_guard.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "query/binder.h"
#include "query/capability.h"
#include "query/query_evaluator.h"
#include "query/query_parser.h"
#include "service/analysis_service.h"
#include "service/shard.h"
#include "service/tcp_shard.h"
#include "snapshot/packed_store.h"
#include "unfold/unfolded.h"

namespace e2ebench {

using namespace oodbsec;
using core::AnalysisReport;
using core::Requirement;

void Outcome::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

// ---------------------------------------------------------------------
// Process and file scaffolding.

WorkerFleet::WorkerFleet(const schema::Schema& schema, int count,
                         int closure_threads) {
  std::vector<net::Listener> listeners;
  for (int i = 0; i < count; ++i) {
    auto bound = net::Listener::Bind(0);
    if (!bound.ok()) return;
    addresses_.push_back("127.0.0.1:" + std::to_string(bound->port()));
    listeners.push_back(std::move(bound).value());
  }
  const pid_t parent = ::getpid();
  for (net::Listener& listener : listeners) {
    const pid_t pid = ::fork();
    if (pid < 0) return;
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      service::TcpWorkerOptions options;
      options.closure.closure_threads = closure_threads;
      options.persistent_cache = false;  // every audit builds cold
      common::Status status =
          service::ServeShardWorker(listener, schema, options);
      ::_exit(status.ok() ? 0 : 1);
    }
    pids_.push_back(pid);
  }
  ok_ = true;  // the listeners close here; the children keep theirs
}

WorkerFleet::~WorkerFleet() {
  for (pid_t pid : pids_) ::kill(pid, SIGKILL);
  for (pid_t pid : pids_) {
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

TempDir::TempDir() {
  std::error_code ec;
  std::filesystem::create_directories(".bench_tmp", ec);
  char pattern[] = ".bench_tmp/run.XXXXXX";
  if (const char* made = ::mkdtemp(pattern)) path_ = made;
}

TempDir::~TempDir() {
  std::error_code ec;
  if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  std::filesystem::remove(".bench_tmp", ec);  // only when now empty
}

// ---------------------------------------------------------------------
// Shared helpers.

namespace {

std::string ReportBytes(const std::vector<AnalysisReport>& reports) {
  std::string bytes;
  for (const AnalysisReport& report : reports) {
    bytes += report.ToString();
    bytes += '\n';
  }
  return bytes;
}

std::vector<int> FlawSites(const AnalysisReport& report) {
  std::vector<int> sites;
  for (const core::FlawSite& site : report.flaws) sites.push_back(site.site_id);
  return sites;
}

core::ClosureOptions ClosureOpts(const Inputs& in) {
  core::ClosureOptions options;
  options.closure_threads = in.closure_threads;
  return options;
}

core::SessionOptions SessionOpts(
    const Inputs& in, size_t capacity,
    std::shared_ptr<snapshot::SnapshotStore> store = nullptr) {
  core::SessionOptions options;
  options.closure = ClosureOpts(in);
  options.threads = in.pool_threads;
  options.cache_capacity = std::max(capacity, core::ClosureCache::kDefaultCapacity);
  options.snapshot_store = std::move(store);
  return options;
}

bool HoldsFlaw(const Inputs& in, const schema::User& user) {
  auto it = in.flaw_pair.find(user.name());
  return it != in.flaw_pair.end() && user.MayInvoke(it->second.first) &&
         user.MayInvoke(it->second.second);
}

// Distinct root lists of the requirements' users, in first-use order.
std::vector<std::vector<std::string>> DistinctRoots(
    const schema::Schema& schema, const schema::UserRegistry& users,
    const std::vector<Requirement>& requirements) {
  std::vector<std::vector<std::string>> out;
  std::set<std::vector<std::string>> seen;
  for (const Requirement& requirement : requirements) {
    const schema::User* user = users.Find(requirement.user);
    if (user == nullptr) continue;
    std::vector<std::string> roots = core::AnalysisRoots(schema, *user);
    if (seen.insert(roots).second) out.push_back(std::move(roots));
  }
  return out;
}

double Us(Clock::time_point start) { return SecondsSince(start) * 1e6; }

// Request figures, each over the quieter half of the run's rounds by
// that figure; the throughput counts the median's rounds over the time
// they spent serving.
void SetLatencyMetrics(MetricSet& e2e, const RoundSamples& latency_us,
                       double tail_percentile, const char* label) {
  const RoundSamples::Pool mid = latency_us.Quiet(50);
  double tail = tail_percentile;
  const double n = static_cast<double>(mid.samples.size());
  while (tail > 50 && n * (100 - tail) / 100 < 10) tail = tail == 99 ? 90 : 50;
  const double p50 = mid.samples.Median();
  const double p_tail = latency_us.Quiet(tail).samples.Percentile(tail);
  const double rate = mid.busy_s > 0 ? n / mid.busy_s : 0;
  e2e.Set("req_p50_us", p50, "us");
  e2e.Set("req_tail_us", p_tail, "us");
  e2e.Set("req_per_s", rate, "1/s");
  std::printf("%s: %zu requests in the quieter half of the rounds, p50 %.1f "
              "us, p%.0f %.1f us (%.0f samples beyond), %.1f req/s\n",
              label, mid.samples.size(), p50, tail, p_tail,
              n * (100 - tail) / 100, rate);
}

// Cold audit through a fresh session and service, from workspace text.
common::Result<std::vector<AnalysisReport>> AuditInProcess(const Inputs& in) {
  auto ws = text::LoadWorkspace(in.workspace);
  if (!ws.ok()) return ws.status();
  core::AnalysisSession session(
      *ws->schema, *ws->users,
      SessionOpts(in, core::ClosureCache::kDefaultCapacity));
  service::AnalysisService service(session);
  return service.CheckBatch(ws->requirements);
}

void SetCacheMetrics(MetricSet& layer, const core::ClosureCache::Stats& s) {
  layer.Set("cache.exact_hits", static_cast<double>(s.exact_hits), "count");
  layer.Set("cache.warm_builds", static_cast<double>(s.warm_builds), "count");
  layer.Set("cache.retract_builds", static_cast<double>(s.retract_builds),
            "count");
  layer.Set("cache.cold_builds", static_cast<double>(s.cold_builds), "count");
  layer.Set("cache.evictions", static_cast<double>(s.evictions), "count");
  const double served = static_cast<double>(s.exact_hits + s.warm_builds +
                                            s.retract_builds + s.snapshot_hits);
  const double all = served + static_cast<double>(s.cold_builds);
  layer.Set("cache.reuse_ratio", all > 0 ? served / all : 0, "ratio");
}

uint64_t Builds(const core::ClosureCache::Stats& s) {
  return s.cold_builds + s.warm_builds + s.retract_builds;
}

uint64_t Counter(const obs::MetricsRegistry& metrics, std::string_view name) {
  for (const obs::MetricSnapshot& m : metrics.Snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

}  // namespace

bool AuditInProcessOnce(const Inputs& in) { return AuditInProcess(in).ok(); }

// ---------------------------------------------------------------------
// Family 1: cold population audits, in-process / fork / tcp.

void AuditFamily::Run(Clock::time_point deadline) {
  const Inputs& in = *b_.in;
  Outcome& o = *b_.outcome;
  auto check_bytes = [&](const char* path, const std::string& bytes) {
    o.Expect(bytes == reference_bytes_,
             std::string(path) + " audit report bytes differ from in-process");
  };
  inproc_.StartRound();
  fork_.StartRound();
  tcp_.StartRound();
  do {
    if (broken_) return;
    {
      const Clock::time_point t0 = Clock::now();
      auto reports = AuditInProcess(in);
      inproc_.Add(SecondsSince(t0));
      o.Expect(reports.ok(), "in-process audit: " + reports.status().ToString());
      if (!reports.ok()) {
        broken_ = true;
        return;
      }
      if (reference_.empty()) {
        reference_ = *reports;
        reference_bytes_ = ReportBytes(reference_);
      } else {
        check_bytes("in-process", ReportBytes(*reports));
      }
    }
    {
      o.Expect(SingleThreaded(), "process is single-threaded before fork");
      const Clock::time_point t0 = Clock::now();
      auto ws = text::LoadWorkspace(in.workspace);
      common::Result<service::ShardedBatchResult> result =
          common::InternalError("workspace did not load");
      if (ws.ok()) {
        service::ShardOptions options;
        options.shard_count = in.width;
        options.threads = 1;
        options.closure = ClosureOpts(in);
        service::ForkTransport transport(options);
        result = transport.Run(*ws->schema, *ws->users, ws->requirements,
                               nullptr);
      }
      fork_.Add(SecondsSince(t0));
      o.Expect(result.ok(), "fork audit: " + result.status().ToString());
      if (!result.ok()) {
        broken_ = true;
        return;
      }
      check_bytes("fork", ReportBytes(result->reports));
      size_t most = 0, total = 0;
      for (size_t n : result->shard_requirements) {
        most = std::max(most, n);
        total += n;
      }
      imbalance_ = total == 0 ? 0
                              : static_cast<double>(most) * in.width /
                                    static_cast<double>(total);
    }
    {
      const Clock::time_point t0 = Clock::now();
      auto ws = text::LoadWorkspace(in.workspace);
      common::Result<service::ShardedBatchResult> result =
          common::InternalError("workspace did not load");
      if (ws.ok()) {
        service::TcpTransportOptions options;
        options.workers = *b_.tcp_workers;
        options.closure = ClosureOpts(in);
        service::TcpTransport transport(options);
        result = transport.Run(*ws->schema, *ws->users, ws->requirements,
                               nullptr);
      }
      tcp_.Add(SecondsSince(t0));
      o.Expect(result.ok(), "tcp audit: " + result.status().ToString());
      if (!result.ok()) {
        broken_ = true;
        return;
      }
      check_bytes("tcp", ReportBytes(result->reports));
    }
  } while (Clock::now() < deadline);
}

void AuditFamily::Finish() {
  // Planted flaws are flagged, and every report equals the cold
  // reference path (one cold analysis per distinct signature, checked
  // through the same A(R) site enumeration AnalysisSession::Check uses).
  const Inputs& in = *b_.in;
  Outcome& o = *b_.outcome;
  const text::Workspace& ws = *b_.ws;
  core::AnalysisSession cold(*ws.schema, *ws.users,
                             SessionOpts(in, core::ClosureCache::kDefaultCapacity));
  std::map<std::vector<std::string>, std::unique_ptr<core::UserAnalysis>> built;
  int planted = 0;
  for (size_t i = 0; i < ws.requirements.size(); ++i) {
    const Requirement& requirement = ws.requirements[i];
    const schema::User* user = ws.users->Find(requirement.user);
    if (user == nullptr || i >= reference_.size()) {
      o.Expect(false, "requirement without a user or report");
      continue;
    }
    if (HoldsFlaw(in, *user)) {
      ++planted;
      o.Expect(!reference_[i].satisfied,
               "planted flaw not flagged: " + requirement.ToString());
    }
    std::vector<std::string> roots = core::AnalysisRoots(*ws.schema, *user);
    auto it = built.find(roots);
    if (it == built.end()) {
      auto analysis = cold.BuildUser(*user);
      o.Expect(analysis.ok(), "cold reference build failed");
      if (!analysis.ok()) continue;
      it = built.emplace(roots, std::move(analysis).value()).first;
    }
    auto expected = core::CheckAgainstClosure(it->second->set(),
                                              it->second->closure(), requirement);
    o.Expect(expected.ok() && expected->ToString() == reference_[i].ToString(),
             "verdict differs from the cold reference: " +
                 requirement.ToString());
  }
  std::printf("audit: %zu requirements, %d planted flaws, %zu signatures, "
              "%zu reps; in-process = fork = tcp report bytes checked\n",
              ws.requirements.size(), planted, built.size(), inproc_.size());

  const double inproc = inproc_.Quiet().samples.Median();
  const double fork = fork_.Quiet().samples.Median();
  const double tcp = tcp_.Quiet().samples.Median();
  b_.e2e->Set("audit_inproc_s", inproc, "s");
  b_.e2e->Set("audit_fork_s", fork, "s");
  b_.e2e->Set("audit_tcp_s", tcp, "s");
  b_.layer->Set("shard.overhead_ms", (fork - inproc) * 1e3, "ms");
  b_.layer->Set("tcp.overhead_ms", (tcp - inproc) * 1e3, "ms");
  b_.layer->Set("shard.imbalance", imbalance_, "ratio");
}

// ---------------------------------------------------------------------
// Family 2: packed store restart.

void RestartFamily::Save() {
  saved_ = true;
  const Inputs& in = *b_.in;
  Outcome& o = *b_.outcome;
  pack_ = b_.temp_dir + "/closures.pack";
  auto store = snapshot::OpenPackedStore(pack_);
  o.Expect(store.ok(), "open packed store: " + store.status().ToString());
  if (!store.ok()) {
    broken_ = true;
    return;
  }
  core::AnalysisSession session(
      *b_.ws->schema, *users_,
      SessionOpts(in, b_.ws->requirements.size() + 1, *store));
  service::AnalysisService service(session);
  auto reports = service.CheckBatch(b_.ws->requirements);
  o.Expect(reports.ok(), "save batch: " + reports.status().ToString());
  if (!reports.ok()) {
    broken_ = true;
    return;
  }
  reference_bytes_ = ReportBytes(*reports);
  o.Expect(service.SaveCacheSnapshot().ok(), "save cache snapshot");
}

void RestartFamily::Run(Clock::time_point deadline) {
  if (users_ == nullptr) return;
  if (!saved_) Save();
  Outcome& o = *b_.outcome;
  restart_.StartRound();
  do {
    if (broken_) return;
    const Clock::time_point t0 = Clock::now();
    auto store = snapshot::OpenPackedStore(pack_);
    if (!store.ok()) {
      o.Expect(false, "reopen packed store: " + store.status().ToString());
      broken_ = true;
      return;
    }
    core::AnalysisSession session(
        *b_.ws->schema, *users_,
        SessionOpts(*b_.in, b_.ws->requirements.size() + 1, *store));
    service::AnalysisService service(session);
    auto reports = service.CheckBatch(b_.ws->requirements);
    restart_.Add(SecondsSince(t0));
    o.Expect(reports.ok() && ReportBytes(*reports) == reference_bytes_,
             "restarted audit differs from the saved audit");
    o.Expect(service.Stats().closures_built == 0,
             "restart built " + std::to_string(service.Stats().closures_built) +
                 " closures");
    const snapshot::StoreStats stats = (*store)->Stats();
    file_bytes_ = stats.file_bytes;
    page_hits_ = stats.page_cache_hits;
    page_misses_ = stats.page_cache_misses;
  } while (Clock::now() < deadline);
}

void RestartFamily::Finish() {
  Outcome& o = *b_.outcome;
  o.Expect(users_ != nullptr && !restart_.empty(), "no restart was measured");
  if (users_ == nullptr) return;
  // Every persisted closure replays to the fact set of a cold build.
  const schema::Schema& schema = *b_.ws->schema;
  const auto roots = DistinctRoots(schema, *users_, b_.ws->requirements);
  size_t facts = 0;
  auto store = snapshot::OpenPackedStore(pack_);
  if (store.ok()) {
    for (const std::vector<std::string>& list : roots) {
      auto entry = (*store)->Find(schema, ClosureOpts(*b_.in), list);
      auto set = unfold::UnfoldedSet::Build(schema, list);
      if (!entry.ok() || !set.ok()) {
        o.Expect(false, "restarted closure missing from the store");
        continue;
      }
      core::Closure cold(**set, ClosureOpts(*b_.in));
      facts += cold.fact_count();
      o.Expect((*entry)->closure->FactSetDigest() == cold.FactSetDigest(),
               "restarted closure digest differs from the cold build");
    }
  }
  std::printf("restart: %zu closures replayed per restart, %zu reps, 0 built\n",
              roots.size(), restart_.size());

  b_.e2e->Set("restart_s", restart_.Quiet().samples.Median(), "s");
  b_.layer->Set("snapshot.bytes_per_fact",
                facts == 0 ? 0
                           : static_cast<double>(file_bytes_) /
                                 static_cast<double>(facts),
                "bytes");
  const double lookups = static_cast<double>(page_hits_ + page_misses_);
  b_.layer->Set("snapshot.page_cache_hit_ratio",
                lookups > 0 ? static_cast<double>(page_hits_) / lookups : 0,
                "ratio");
}

// ---------------------------------------------------------------------
// Family 3a: the audit workloads' request stream — the whole population
// re-checked against a warm session cache (every signature cached), one
// RecheckRequirements per request, in the calling thread. A pool fan-out
// of microsecond checks timed the host's thread wake-ups, not the checks.

void AuditRequestFamily::Run(Clock::time_point deadline) {
  const Inputs& in = *b_.in;
  Outcome& o = *b_.outcome;
  const text::Workspace& ws = *b_.ws;
  core::AnalysisSession session(*ws.schema, *ws.users,
                                SessionOpts(in, ws.requirements.size() + 1));
  auto warm = session.RecheckRequirements(ws.requirements);
  o.Expect(warm.ok(), "warm re-check: " + warm.status().ToString());
  if (!warm.ok()) return;
  const std::string expected = ReportBytes(*warm);
  const uint64_t built = Builds(session.recheck_cache().stats());
  latency_.StartRound();
  do {
    const Clock::time_point t0 = Clock::now();
    auto reports = session.RecheckRequirements(ws.requirements);
    const double us = Us(t0);
    latency_.Add(us);
    latency_.AddBusy(us * 1e-6);
    o.Expect(reports.ok() && ReportBytes(*reports) == expected,
             "warm re-check differs from the first");
  } while (Clock::now() < deadline);
  cache_ = session.recheck_cache().stats();
  o.Expect(Builds(cache_) == built, "warm re-checks built closures");
}

void AuditRequestFamily::Finish() {
  SetLatencyMetrics(*b_.e2e, latency_, 99, "warm population re-checks");
  SetCacheMetrics(*b_.layer, cache_);
}

// ---------------------------------------------------------------------
// Family 3b: the guarded query stream.

// The cold reference for every scripted query: ColdDecision over the
// session's committed functions plus the query's, and the unguarded
// result rows for allowed queries.
void GuardFamily::Reference() {
  const Inputs& in = *b_.in;
  const text::Workspace& ws = *b_.ws;
  Outcome& o = *b_.outcome;
  for (const GuardScript& script : in.scripts) {
    const schema::User* user = ws.users->Find(script.user);
    std::set<std::string> committed;
    std::vector<Record> records;
    for (const GuardQuery& q : script.queries) {
      Record record;
      auto parsed = query::ParseQueryString(q.text);
      if (user == nullptr || !parsed.ok() ||
          !query::BindQuery(**parsed, *ws.schema).ok()) {
        o.Expect(false, "reference query did not parse: " + q.text);
        records.push_back(record);
        continue;
      }
      std::set<std::string> functions = committed;
      for (const std::string& f : query::CollectInvokedFunctions(**parsed)) {
        functions.insert(f);
      }
      auto decision = dynamic::SessionGuard::ColdDecision(
          *ws.schema, ws.requirements, script.user, functions, ClosureOpts(in));
      if (!decision.ok()) {
        o.Expect(false, "cold decision failed: " + decision.status().ToString());
        records.push_back(record);
        continue;
      }
      record.ok = true;
      record.denied = !decision->allowed;
      if (q.kind == GuardQuery::Kind::kAttack) {
        o.Expect(record.denied, "planted attack query allowed: " + q.text);
      }
      if (!record.denied) {
        committed = std::move(functions);
        query::QueryEvaluator evaluator(*ws.database, user);
        auto rows = evaluator.Run(**parsed);
        o.Expect(rows.ok(), "unguarded query failed: " + q.text);
        if (rows.ok()) record.rows = rows->ToString();
      }
      records.push_back(std::move(record));
    }
    expected_.push_back(std::move(records));
  }
}

void GuardFamily::Run(Clock::time_point deadline) {
  const Inputs& in = *b_.in;
  Outcome& o = *b_.outcome;
  const text::Workspace& ws = *b_.ws;
  const int clients = std::min(2, b_.nproc);
  const size_t users = in.scripts.size();
  const size_t length = in.scripts.empty() ? 0 : in.scripts[0].queries.size();
  std::vector<const schema::User*> user_of;
  for (const GuardScript& script : in.scripts) {
    user_of.push_back(ws.users->Find(script.user));
    if (user_of.back() == nullptr) {
      o.Expect(false, "guard user missing");
      return;
    }
  }
  using QueryResult = common::Result<query::QueryResult>;
  latency_.StartRound();
  do {
    dynamic::GuardOptions options;
    options.closure = ClosureOpts(in);
    dynamic::SessionGuard guard(*ws.schema, *ws.users, ws.requirements,
                                options);
    // results[u][i]: each client writes only its own users' rows; the
    // results are checked after the epoch.
    std::vector<std::vector<std::optional<QueryResult>>> results(
        users, std::vector<std::optional<QueryResult>>(length));
    std::vector<Samples> client_latency(static_cast<size_t>(clients));
    const Clock::time_point t0 = Clock::now();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t i = 0; i < length; ++i) {
            for (size_t u = static_cast<size_t>(c); u < users;
                 u += static_cast<size_t>(clients)) {
              const Clock::time_point q0 = Clock::now();
              auto parsed = query::ParseQueryString(in.scripts[u].queries[i].text);
              QueryResult result = parsed.status();
              if (parsed.ok()) {
                common::Status bound = query::BindQuery(**parsed, *ws.schema);
                result = bound.ok() ? guard.Run(*ws.database, *user_of[u],
                                                **parsed)
                                    : QueryResult(bound);
              }
              client_latency[static_cast<size_t>(c)].Add(Us(q0));
              results[u][i].emplace(std::move(result));
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    latency_.AddBusy(SecondsSince(t0));
    ++epochs_;
    for (const Samples& s : client_latency) latency_.Merge(s);
    cache_ = guard.Stats().cache;

    if (expected_.empty()) Reference();
    for (size_t u = 0; u < users; ++u) {
      for (size_t i = 0; i < length; ++i) {
        const Record& want = expected_[u][i];
        const QueryResult& got = *results[u][i];
        const bool denied = !got.ok() && got.status().code() ==
                                             common::StatusCode::kPermissionDenied;
        o.Expect(want.ok && denied == want.denied &&
                     (denied || (got.ok() && got->ToString() == want.rows)),
                 "guarded query differs from the cold reference: " +
                     in.scripts[u].queries[i].text);
      }
    }
  } while (Clock::now() < deadline);
}

void GuardFamily::Finish() {
  const Inputs& in = *b_.in;
  std::printf("guard: %zu epochs of %zu sessions x %zu queries, %d clients\n",
              epochs_, in.scripts.size(),
              in.scripts.empty() ? size_t{0} : in.scripts[0].queries.size(),
              std::min(2, b_.nproc));
  SetLatencyMetrics(*b_.e2e, latency_, 99, "guarded queries");
  SetCacheMetrics(*b_.layer, cache_);
}

// ---------------------------------------------------------------------
// Family 3c: policy churn — grant or revoke, then recheck that user.

namespace {

common::Status ApplyOp(core::AnalysisSession& session, const ChurnOp& op) {
  return op.grant ? session.AddCapability(op.user, op.function)
                  : session.RemoveCapability(op.user, op.function);
}

std::unique_ptr<schema::UserRegistry> RegistryOf(
    const core::AnalysisSession& session, const schema::UserRegistry& base) {
  auto registry = std::make_unique<schema::UserRegistry>(session.schema());
  for (const schema::User* user : base.users()) {
    if (!registry->AddUser(user->name()).ok()) return nullptr;
    for (const std::string& f : session.FindUser(user->name())->capabilities()) {
      if (!registry->Grant(user->name(), f).ok()) return nullptr;
    }
  }
  return registry;
}

}  // namespace

ChurnFamily::ChurnFamily(Bench& b) : b_(b) {
  for (size_t i = 0; i < b.ws->requirements.size(); ++i) {
    requirement_of_[b.ws->requirements[i].user] = i;
  }
}

void ChurnFamily::Run(Clock::time_point deadline) {
  const Inputs& in = *b_.in;
  Outcome& o = *b_.outcome;
  const text::Workspace& ws = *b_.ws;
  latency_.StartRound();
  do {
    // The default cache bound: the users' closures outnumber it, so some
    // revokes find their pre-revoke closure evicted (the fallback path).
    core::AnalysisSession session(
        *ws.schema, *ws.users,
        SessionOpts(in, core::ClosureCache::kDefaultCapacity));
    auto warm = session.RecheckRequirements(ws.requirements);
    o.Expect(warm.ok(), "churn warm-up: " + warm.status().ToString());
    for (size_t k = 0; k < in.churn.size(); ++k) {
      const ChurnOp& op = in.churn[k];
      auto it = requirement_of_.find(op.user);
      if (it == requirement_of_.end()) {
        o.Expect(false, "churn user has no requirement: " + op.user);
        return;
      }
      const Clock::time_point t0 = Clock::now();
      common::Status status = ApplyOp(session, op);
      common::Result<std::vector<AnalysisReport>> reports =
          status.ok() ? session.RecheckRequirements({ws.requirements[it->second]})
                      : common::Result<std::vector<AnalysisReport>>(status);
      const double us = Us(t0);
      latency_.Add(us);
      latency_.AddBusy(us * 1e-6);
      o.Expect(reports.ok() && reports->size() == 1,
               op.ToString() + ": " + reports.status().ToString());
      if (!reports.ok() || reports->empty()) continue;
      const AnalysisReport& report = (*reports)[0];
      Verdict verdict{report.satisfied, FlawSites(report), report.fact_count};
      if (passes_ == 0) {
        first_.push_back(std::move(verdict));
      } else {
        o.Expect(k < first_.size() && verdict == first_[k],
                 "churn pass differs from the first: " + op.ToString());
      }
    }
    if (passes_ == 0) {
      SetCacheMetrics(*b_.layer, session.recheck_cache().stats());
      const double fast = static_cast<double>(
          Counter(session.metrics(), "session.retractions_fast"));
      const double fallback = static_cast<double>(
          Counter(session.metrics(), "session.retractions_fallback"));
      b_.layer->Set("session.retractions_fast_ratio",
                    fast + fallback > 0 ? fast / (fast + fallback) : 0,
                    "ratio");
      final_users_ = RegistryOf(session, *ws.users);
      o.Expect(final_users_ != nullptr, "post-churn registry");
    }
    ++passes_;
  } while (Clock::now() < deadline);
}

void ChurnFamily::Finish() {
  // The first pass against the oracle: planted flaws flagged whenever
  // both functions are held; every verdict and flaw-site list equals a
  // cold AnalysisSession::Check of the same state (memoized per
  // capability set). Warm and retracted closures reach the same fact set
  // by other routes, so fact counts are not compared.
  const Inputs& in = *b_.in;
  Outcome& o = *b_.outcome;
  const text::Workspace& ws = *b_.ws;
  core::AnalysisSession reference(
      *ws.schema, *ws.users,
      SessionOpts(in, core::ClosureCache::kDefaultCapacity));
  std::map<std::string, Verdict> cold;
  size_t flagged = 0;
  for (size_t k = 0; k < in.churn.size() && k < first_.size(); ++k) {
    const ChurnOp& op = in.churn[k];
    o.Expect(ApplyOp(reference, op).ok(), "reference " + op.ToString());
    const schema::User* user = reference.FindUser(op.user);
    if (HoldsFlaw(in, *user)) {
      ++flagged;
      o.Expect(!first_[k].satisfied,
               "planted flaw not flagged after " + op.ToString());
    }
    std::string key = op.user;
    for (const std::string& f : user->capabilities()) key += "|" + f;
    auto it = cold.find(key);
    if (it == cold.end()) {
      auto report = reference.Check(ws.requirements[requirement_of_.at(op.user)]);
      o.Expect(report.ok(), "cold reference check failed");
      if (!report.ok()) continue;
      it = cold.emplace(key, Verdict{report->satisfied, FlawSites(*report),
                                     report->fact_count})
               .first;
    }
    o.Expect(it->second.satisfied == first_[k].satisfied &&
                 it->second.sites == first_[k].sites,
             "churn verdict differs from the cold reference: " + op.ToString());
  }
  std::printf("churn: %zu passes of %zu ops, %zu rechecks with a planted "
              "flaw held\n",
              passes_, in.churn.size(), flagged);
  SetLatencyMetrics(*b_.e2e, latency_, 90, "grant/revoke + recheck");
}

// ---------------------------------------------------------------------
// The traced pass.

namespace {

struct ChainStats {
  size_t bytes = 0;
  size_t nodes = 0;
  size_t facts = 0;
  // The largest signature's fixpoint at one thread over the workload's
  // closure_threads setting.
  double thread_speedup = 0;
};

double MedianBuildSeconds(const unfold::UnfoldedSet& set, int threads,
                          int reps) {
  Samples s;
  core::ClosureOptions options;
  options.closure_threads = threads;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    core::Closure closure(set, options);
    s.Add(SecondsSince(t0));
  }
  return s.Median();
}

// Drives one audit layer by layer in one thread: LoadWorkspace ->
// AnalysisRoots -> UnfoldedSet::Build -> Closure -> CheckAgainstClosure,
// with a span around every call when `rec` is set.
bool Chain(const Inputs& in, SpanRecorder* rec, obs::Observability* obs,
           ChainStats* stats, int speedup_reps) {
  common::Result<text::Workspace> ws = common::InternalError("not loaded");
  {
    ScopedStep step(rec, "text.load");
    ws = text::LoadWorkspace(in.workspace);
  }
  if (!ws.ok()) return false;
  const std::vector<Requirement>& requirements = ws->requirements;
  std::vector<std::vector<std::string>> roots_of(requirements.size());
  {
    ScopedStep step(rec, "core.roots");
    for (size_t i = 0; i < requirements.size(); ++i) {
      const schema::User* user = ws->users->Find(requirements[i].user);
      if (user == nullptr) return false;
      roots_of[i] = core::AnalysisRoots(*ws->schema, *user);
    }
  }
  std::map<std::vector<std::string>, size_t> index;
  std::vector<std::unique_ptr<unfold::UnfoldedSet>> sets;
  std::vector<std::unique_ptr<core::Closure>> closures;
  for (const std::vector<std::string>& roots : roots_of) {
    if (index.contains(roots)) continue;
    common::Result<std::unique_ptr<unfold::UnfoldedSet>> set =
        common::InternalError("not built");
    {
      ScopedStep step(rec, "unfold.build");
      set = unfold::UnfoldedSet::Build(*ws->schema, roots, obs);
    }
    if (!set.ok()) return false;
    {
      ScopedStep step(rec, "closure.build");
      closures.push_back(
          std::make_unique<core::Closure>(**set, ClosureOpts(in), obs));
    }
    index.emplace(roots, sets.size());
    sets.push_back(std::move(set).value());
  }
  for (size_t i = 0; i < requirements.size(); ++i) {
    const size_t k = index.at(roots_of[i]);
    ScopedStep step(rec, "check");
    if (!core::CheckAgainstClosure(*sets[k], *closures[k], requirements[i], obs)
             .ok()) {
      return false;
    }
  }
  if (stats != nullptr) {
    stats->bytes = in.workspace.size();
    const unfold::UnfoldedSet* largest = nullptr;
    for (size_t k = 0; k < sets.size(); ++k) {
      stats->nodes += static_cast<size_t>(sets[k]->node_count());
      stats->facts += closures[k]->fact_count();
      if (largest == nullptr || sets[k]->node_count() > largest->node_count()) {
        largest = sets[k].get();
      }
    }
    if (largest != nullptr) {
      const double one = MedianBuildSeconds(*largest, 1, speedup_reps);
      const double many =
          MedianBuildSeconds(*largest, in.closure_threads, speedup_reps);
      stats->thread_speedup = many > 0 ? one / many : 0;
    }
  }
  return true;
}

// Single-client traced epoch of a guarded stream: the decision tier of
// each query is read from the GuardStats delta around CheckFunctions.
void TracedGuard(Bench& b, const Inputs& in, SpanRecorder& rec) {
  Outcome& o = *b.outcome;
  MetricSet& L = *b.layer;
  common::Result<text::Workspace> ws = common::InternalError("not loaded");
  {
    ScopedStep step(&rec, "text.load.guard");
    ws = text::LoadWorkspace(in.workspace);
  }
  o.Expect(ws.ok(), "guard workspace: " + ws.status().ToString());
  if (!ws.ok()) return;
  dynamic::GuardOptions options;
  options.closure = ClosureOpts(in);
  dynamic::SessionGuard guard(*ws->schema, *ws->users, ws->requirements,
                              options);
  static const char* kTiers[] = {"fastpath", "session_hit", "exact", "delta",
                                 "cold"};
  std::map<std::string, Samples> tier_us;
  Samples parse_us, bind_us, exec_us;
  const size_t length = in.scripts.empty() ? 0 : in.scripts[0].queries.size();
  for (size_t i = 0; i < length; ++i) {
    for (const GuardScript& script : in.scripts) {
      const schema::User* user = ws->users->Find(script.user);
      common::Result<std::unique_ptr<query::SelectQuery>> parsed =
          common::InternalError("not parsed");
      Clock::time_point t0 = Clock::now();
      {
        ScopedStep step(&rec, "query.parse");
        parsed = query::ParseQueryString(script.queries[i].text);
      }
      parse_us.Add(Us(t0));
      if (user == nullptr || !parsed.ok()) {
        o.Expect(false, "traced guard query did not parse");
        continue;
      }
      t0 = Clock::now();
      common::Status bound;
      {
        ScopedStep step(&rec, "query.bind");
        bound = query::BindQuery(**parsed, *ws->schema);
      }
      bind_us.Add(Us(t0));
      std::set<std::string> functions = query::CollectInvokedFunctions(**parsed);
      const dynamic::GuardStats before = guard.Stats();
      t0 = Clock::now();
      common::Result<dynamic::GuardDecision> decision =
          common::InternalError("not decided");
      {
        ScopedStep step(&rec, "guard.decide");
        decision = guard.CheckFunctions(script.user, functions);
      }
      const double us = Us(t0);
      const dynamic::GuardStats after = guard.Stats();
      o.Expect(bound.ok() && decision.ok(), "traced guard decision failed");
      if (!bound.ok() || !decision.ok()) continue;
      const uint64_t moved[] = {
          after.fastpath_allows - before.fastpath_allows,
          after.session_hits - before.session_hits,
          after.exact_hits - before.exact_hits,
          after.delta_rechecks - before.delta_rechecks,
          after.cold_builds - before.cold_builds};
      for (size_t t = 0; t < 5; ++t) {
        if (moved[t] > 0) tier_us[kTiers[t]].Add(us);
      }
      if (!decision->allowed) continue;
      {
        ScopedStep step(&rec, "guard.run");
        o.Expect(guard.Run(*ws->database, *user, **parsed).ok(),
                 "traced guarded run failed");
      }
      t0 = Clock::now();
      {
        ScopedStep step(&rec, "query.exec");
        query::QueryEvaluator evaluator(*ws->database, user);
        o.Expect(evaluator.Run(**parsed).ok(), "traced query exec failed");
      }
      exec_us.Add(Us(t0));
    }
  }
  const dynamic::GuardStats stats = guard.Stats();
  double decisions = 0;
  for (const auto& [tier, s] : tier_us) decisions += static_cast<double>(s.size());
  decisions = std::max(decisions, 1.0);
  for (const char* tier : kTiers) {
    const Samples& s = tier_us[tier];
    L.Set(std::string("guard.decide_us.") + tier, s.Mean(), "us");
    L.Set(std::string("guard.tier_share.") + tier,
          static_cast<double>(s.size()) / decisions, "ratio");
  }
  L.Set("guard.denials", static_cast<double>(stats.denials), "count");
  L.Set("query.parse_us", parse_us.Mean(), "us");
  L.Set("query.bind_us", bind_us.Mean(), "us");
  L.Set("query.exec_us", exec_us.Mean(), "us");
  L.Set("store.objects", static_cast<double>(ws->database->object_count()),
        "count");
}

// One traced pass over a churn sequence.
void TracedChurn(Bench& b, const Inputs& in, SpanRecorder& rec) {
  Outcome& o = *b.outcome;
  MetricSet& L = *b.layer;
  common::Result<text::Workspace> ws = common::InternalError("not loaded");
  {
    ScopedStep step(&rec, "text.load.churn");
    ws = text::LoadWorkspace(in.workspace);
  }
  o.Expect(ws.ok(), "churn workspace: " + ws.status().ToString());
  if (!ws.ok()) return;
  std::map<std::string, const Requirement*> requirement_of;
  for (const Requirement& r : ws->requirements) requirement_of[r.user] = &r;
  core::AnalysisSession session(
      *ws->schema, *ws->users,
      SessionOpts(in, core::ClosureCache::kDefaultCapacity));
  {
    ScopedStep step(&rec, "session.warmup");
    o.Expect(session.RecheckRequirements(ws->requirements).ok(),
             "traced churn warm-up");
  }
  Samples grant_us, revoke_us, recheck_ms;
  for (const ChurnOp& op : in.churn) {
    Clock::time_point t0 = Clock::now();
    common::Status status;
    {
      ScopedStep step(&rec, op.grant ? "session.grant" : "session.revoke");
      status = ApplyOp(session, op);
    }
    (op.grant ? grant_us : revoke_us).Add(Us(t0));
    auto it = requirement_of.find(op.user);
    o.Expect(status.ok() && it != requirement_of.end(),
             "traced " + op.ToString());
    if (!status.ok() || it == requirement_of.end()) continue;
    t0 = Clock::now();
    {
      ScopedStep step(&rec, "session.recheck");
      o.Expect(session.RecheckRequirements({*it->second}).ok(),
               "traced recheck");
    }
    recheck_ms.Add(SecondsSince(t0) * 1e3);
  }
  const double fast = static_cast<double>(
      Counter(session.metrics(), "session.retractions_fast"));
  const double fallback = static_cast<double>(
      Counter(session.metrics(), "session.retractions_fallback"));
  if (L.Find("session.retractions_fast_ratio") == nullptr) {
    L.Set("session.retractions_fast_ratio",
          fast + fallback > 0 ? fast / (fast + fallback) : 0, "ratio");
  }
  L.Set("session.grant_us", grant_us.Mean(), "us");
  L.Set("session.revoke_us", revoke_us.Mean(), "us");
  L.Set("session.recheck_ms", recheck_ms.Mean(), "ms");
}

}  // namespace

void RunTraced(Bench& b, const Inputs& guard_in, const Inputs& churn_in) {
  const Inputs& in = *b.in;
  Outcome& o = *b.outcome;
  MetricSet& L = *b.layer;
  const text::Workspace& ws = *b.ws;

  // Untraced references first: the chain's median wall time, and the
  // largest signature's fixpoint at one thread vs the workload's setting.
  const int reps = b.smoke ? 1 : 3;
  Samples untraced;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = Chain(in, nullptr, nullptr, nullptr, 0);
    untraced.Add(SecondsSince(t0));
    o.Expect(ok, "untraced layer chain");
    if (!ok) return;
  }
  ChainStats chain_stats;
  o.Expect(Chain(in, nullptr, nullptr, &chain_stats, reps), "layer chain stats");
  L.Set("closure.thread_speedup", chain_stats.thread_speedup, "x");

  SpanRecorder rec;
  obs::Observability obs;
  obs.tracer.set_enabled(true);
  const Clock::time_point wall_start = Clock::now();
  const bool chained = Chain(in, &rec, &obs, nullptr, 0);
  const double chain_wall = SecondsSince(wall_start);
  o.Expect(chained, "traced layer chain");
  const std::vector<obs::SpanRecord> closure_spans = obs.tracer.Snapshot();

  // Batch phases, snapshot save and store finds.
  std::vector<obs::SpanRecord> batch_spans;
  {
    const std::string pack = b.temp_dir + "/traced.pack";
    const auto roots =
        DistinctRoots(*ws.schema, *ws.users, ws.requirements);
    auto store = snapshot::OpenPackedStore(pack);
    o.Expect(store.ok(), "traced store: " + store.status().ToString());
    if (store.ok()) {
      core::SessionOptions options = SessionOpts(in, roots.size() + 1, *store);
      options.tracing = true;
      core::AnalysisSession session(*ws.schema, *ws.users, options);
      service::AnalysisService service(session);
      {
        ScopedStep step(&rec, "service.batch");
        o.Expect(service.CheckBatch(ws.requirements).ok(), "traced batch");
      }
      batch_spans = session.tracer().Snapshot();
      L.Set("service.requirement_hit_rate",
            service.Stats().RequirementHitRate(), "ratio");
      Clock::time_point t0 = Clock::now();
      {
        ScopedStep step(&rec, "snapshot.save");
        o.Expect(service.SaveCacheSnapshot().ok(), "traced snapshot save");
      }
      const double saves = static_cast<double>((*store)->Stats().saves);
      L.Set("snapshot.save_us", saves > 0 ? Us(t0) / saves : 0, "us");
    }
    common::Result<std::shared_ptr<snapshot::SnapshotStore>> reopened =
        common::InternalError("not opened");
    {
      ScopedStep step(&rec, "snapshot.open");
      reopened = snapshot::OpenPackedStore(pack);
    }
    Samples find_us;
    if (reopened.ok()) {
      for (const std::vector<std::string>& list : roots) {
        const Clock::time_point t0 = Clock::now();
        ScopedStep step(&rec, "snapshot.find");
        o.Expect((*reopened)->Find(*ws.schema, ClosureOpts(in), list).ok(),
                 "traced store find");
        find_us.Add(Us(t0));
      }
    }
    L.Set("snapshot.find_us", find_us.Mean(), "us");
  }

  TracedGuard(b, guard_in, rec);
  TracedChurn(b, churn_in, rec);
  const double wall = SecondsSince(wall_start);

  // Layer metrics of the chain.
  L.Set("text.load_ms", rec.Total("text.load") * 1e3, "ms");
  L.Set("text.bytes", static_cast<double>(chain_stats.bytes), "bytes");
  L.Set("unfold.build_ms", rec.Total("unfold.build") * 1e3, "ms");
  L.Set("unfold.nodes", static_cast<double>(chain_stats.nodes), "count");
  L.Set("closure.build_ms", rec.Total("closure.build") * 1e3, "ms");
  L.Set("closure.facts", static_cast<double>(chain_stats.facts), "count");
  L.Set("closure.rounds",
        static_cast<double>(Counter(obs.metrics, "closure.fixpoint.rounds")),
        "count");
  const double attempts =
      static_cast<double>(Counter(obs.metrics, "closure.add.attempts"));
  L.Set("closure.useful_ratio",
        attempts > 0 ? static_cast<double>(
                           Counter(obs.metrics, "closure.facts.total")) /
                           attempts
                     : 0,
        "ratio");
  const double seed = TracerSeconds(closure_spans, "closure.seed");
  const double fixpoint = TracerSeconds(closure_spans, "closure.fixpoint");
  const double compress = TracerSeconds(closure_spans, "closure.compress");
  L.Set("closure.seed_ms", seed * 1e3, "ms");
  L.Set("closure.fixpoint_ms", fixpoint * 1e3, "ms");
  L.Set("closure.compress_ms", compress * 1e3, "ms");
  L.Set("check.ms", rec.Total("check") * 1e3, "ms");
  L.Set("check.sites",
        static_cast<double>(Counter(obs.metrics, "analyzer.sites_enumerated")),
        "count");
  L.Set("service.plan_ms", TracerSeconds(batch_spans, "batch.plan") * 1e3, "ms");
  L.Set("service.build_ms", TracerSeconds(batch_spans, "batch.build") * 1e3,
        "ms");
  L.Set("service.check_ms", TracerSeconds(batch_spans, "batch.check") * 1e3,
        "ms");
  L.Set("trace.overhead_ms", (chain_wall - untraced.Median()) * 1e3, "ms");

  // The ledger: every recorded span is a top-level call, so rows are
  // disjoint; closure.build splits into the closure's own phase spans.
  std::vector<LedgerRow> rows;
  std::map<std::string, size_t> row_of;
  for (const SpanRecorder::Span& span : rec.spans()) {
    auto [it, added] = row_of.emplace(span.name, rows.size());
    if (added) rows.push_back(LedgerRow{span.name, 0, 0});
    rows[it->second].seconds += span.seconds;
    ++rows[it->second].calls;
  }
  std::vector<LedgerRow> ledger;
  for (const LedgerRow& row : rows) {
    if (row.layer != "closure.build") {
      ledger.push_back(row);
      continue;
    }
    ledger.push_back({"closure.seed", seed, row.calls});
    ledger.push_back({"closure.fixpoint", fixpoint, row.calls});
    ledger.push_back({"closure.compress", compress, row.calls});
    ledger.push_back(
        {"closure.other", row.seconds - seed - fixpoint - compress, row.calls});
  }
  double attributed = 0;
  for (const LedgerRow& row : ledger) attributed += row.seconds;
  L.Set("trace.unattributed_ms", (wall - attributed) * 1e3, "ms");
  std::printf("\nper-layer ledger (traced pass, %s):\n", WorkloadName(in.workload));
  PrintLedger(ledger, wall);
  std::printf("tracing overhead: traced chain %.3f ms - untraced median "
              "%.3f ms = %.3f ms\n\n",
              chain_wall * 1e3, untraced.Median() * 1e3,
              (chain_wall - untraced.Median()) * 1e3);
}

}  // namespace e2ebench
