// oodbsec_shell — the command-line front end: load a workspace file,
// analyze its security requirements, and run queries (optionally under
// the dynamic session guard).
//
//   $ ./oodbsec_shell workspace.odb            # interactive
//   $ echo 'analyze' | ./oodbsec_shell workspace.odb
//
// Commands:
//   help                       this text
//   schema                     list classes and functions
//   users                      list users and capability lists
//   requirements               list security requirements
//   analyze                    run A(R) on every requirement
//   grant <user> <function>    grant a capability (session overlay)
//   revoke <user> <function>   revoke one; DRed-shrinks the cached closure
//   recheck                    re-audit every requirement incrementally
//   batch [threads]            same, through the caching batch service
//   shard [shards]             same, forked across worker processes
//   shard tcp <host:port>...   same, streamed to TCP workers (started
//                              with `serve`), pipelined by signature
//   serve <port>               become a shard worker: serve batches on
//                              <port> until the process is killed
//   fixpoint [threads]         parallel closure fixpoint (0 = auto,
//                              1 = sequential; prints current if omitted)
//   snapshot pack <path>       arm the tier over a packed segment file
//   snapshot save              persist cached closures to the store
//   snapshot load              warm the cache from the store
//   snapshot stats             store utilisation (live vs stale bytes)
//   snapshot compact           sweep stale generations from the store
//   explain <n>                derivation for requirement n's first flaw
//   trace on|off               arm / disarm the session tracer
//   trace dump [file]          render spans + metrics (file: JSON lines)
//   query <user> <select ...>  run a query as <user>
//   guard <user> <select ...>  run it under the dynamic session guard
//   guard stats                serving-path tier counters
//   guard sessions             open sessions (committed/checked sets)
//   guard save                 persist guard closures to the store
//   guard load                 warm the guard cache from the store
//   quit
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "dynamic/session_guard.h"
#include "obs/sink.h"
#include "query/binder.h"
#include "query/query_parser.h"
#include "net/socket.h"
#include "service/analysis_service.h"
#include "service/shard.h"
#include "service/tcp_shard.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_store.h"
#include "text/workspace.h"

namespace {

using namespace oodbsec;

class Shell {
 public:
  explicit Shell(text::Workspace workspace)
      : workspace_(std::move(workspace)),
        session_(std::make_unique<core::AnalysisSession>(*workspace_.schema,
                                                         *workspace_.users)) {
    RebuildGuard();
  }

  // Returns false on "quit".
  bool Handle(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "schema") {
      Schema();
    } else if (command == "users") {
      Users();
    } else if (command == "requirements") {
      Requirements();
    } else if (command == "dump") {
      std::printf("%s", text::FormatWorkspace(workspace_).c_str());
    } else if (command == "analyze") {
      Analyze();
    } else if (command == "grant" || command == "revoke") {
      std::string user;
      std::string function;
      in >> user >> function;
      GrantRevoke(command, user, function);
    } else if (command == "recheck") {
      Recheck();
    } else if (command == "batch") {
      int threads = 0;
      in >> threads;
      Batch(threads > 0 ? threads : 4);
    } else if (command == "shard") {
      std::string first;
      in >> first;
      if (first == "tcp") {
        std::vector<std::string> addresses;
        std::string address;
        while (in >> address) addresses.push_back(address);
        ShardTcp(addresses);
      } else {
        int shards = std::atoi(first.c_str());
        Shard(shards > 0 ? shards : 4);
      }
    } else if (command == "fixpoint") {
      int threads = -1;
      in >> threads;
      Fixpoint(threads);
    } else if (command == "serve") {
      int port = 0;
      in >> port;
      Serve(port);
    } else if (command == "snapshot") {
      std::string subcommand;
      in >> subcommand;
      std::string path;
      in >> path;
      Snapshot(subcommand, path);
    } else if (command == "explain") {
      size_t index = 0;
      in >> index;
      Explain(index);
    } else if (command == "trace") {
      std::string subcommand;
      in >> subcommand;
      std::string file;
      in >> file;
      Trace(subcommand, file);
    } else if (command == "query" || command == "guard") {
      std::string user;
      in >> user;
      if (command == "guard" &&
          (user == "stats" || user == "sessions" || user == "save" ||
           user == "load")) {
        GuardAdmin(user);
      } else {
        std::string rest;
        std::getline(in, rest);
        RunQuery(user, rest, /*guarded=*/command == "guard");
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
    return true;
  }

 private:
  void Help() {
    std::printf(
        "  schema | users | requirements   inspect the workspace\n"
        "  analyze                         run A(R) on every requirement\n"
        "  grant <user> <function>         grant a capability (session"
        " overlay)\n"
        "  revoke <user> <function>        revoke one; DRed-shrinks the"
        " cached closure\n"
        "  recheck                         re-audit every requirement\n"
        "                                  (incremental, cached)\n"
        "  batch [threads]                 same, through the batch service\n"
        "                                  (shared-closure cache, default 4"
        " threads)\n"
        "  shard [shards]                  same, forked across worker\n"
        "                                  processes (default 4 shards)\n"
        "  shard tcp <host:port> ...       same, streamed to TCP workers\n"
        "                                  (started with 'serve')\n"
        "  serve <port>                    become a shard worker on <port>\n"
        "  fixpoint [threads]              parallel closure fixpoint (0 ="
        " auto,\n"
        "                                  1 = sequential; prints current"
        " when\n"
        "                                  omitted)\n"
        "  snapshot pack <path>            arm the tier over a packed"
        " segment file\n"
        "  snapshot save                   persist cached closures\n"
        "  snapshot load                   warm the cache from the store\n"
        "  snapshot stats                  store utilisation\n"
        "  snapshot compact                sweep stale generations\n"
        "  dump                            re-render the workspace file\n"
        "  explain <n>                     derivation for requirement n\n"
        "  trace on|off                    arm / disarm the session tracer\n"
        "  trace dump [file]               spans + metrics (file: JSON"
        " lines)\n"
        "  query <user> <select ...>       run a query as <user>\n"
        "  guard <user> <select ...>       ... under the session guard\n"
        "  guard stats                     serving-path tier counters\n"
        "  guard sessions                  open sessions (committed/"
        "checked)\n"
        "  guard save | load               persist / warm guard closures\n"
        "                                  (needs an armed snapshot store)\n"
        "  quit\n");
  }

  void Schema() {
    for (const auto& cls : workspace_.schema->classes()) {
      std::printf("class %s {", cls->name().c_str());
      for (const auto& attr : cls->attributes()) {
        std::printf(" %s: %s;", attr.name.c_str(),
                    attr.type->ToString().c_str());
      }
      std::printf(" }   (%zu object(s))\n",
                  workspace_.database->Extent(cls->name()).size());
    }
    for (const auto& fn : workspace_.schema->functions()) {
      std::printf("function %s\n", fn->SignatureToString().c_str());
    }
  }

  void Users() {
    for (const schema::User* user : workspace_.users->users()) {
      std::vector<std::string> caps(user->capabilities().begin(),
                                    user->capabilities().end());
      std::printf("user %s can %s\n", user->name().c_str(),
                  common::Join(caps, ", ").c_str());
    }
  }

  void Requirements() {
    for (size_t i = 0; i < workspace_.requirements.size(); ++i) {
      std::printf("[%zu] require %s\n", i,
                  workspace_.requirements[i].ToString().c_str());
    }
  }

  void Analyze() {
    std::vector<core::AnalysisReport> reports;
    reports.reserve(workspace_.requirements.size());
    for (const core::Requirement& requirement : workspace_.requirements) {
      auto report = session_->Check(requirement);
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        return;
      }
      reports.push_back(std::move(report).value());
    }
    last_reports_ = std::move(reports);
    for (size_t i = 0; i < last_reports_.size(); ++i) {
      std::printf("[%zu] %s", i, last_reports_[i].ToString().c_str());
    }
    std::printf("(use 'explain <n>' for a derivation)\n");
  }

  // Session-overlay policy edits. A revoke eagerly DRed-retracts the
  // user's cached closure (core::Closure::Retract), so the `recheck`
  // that follows is an exact cache hit; the printed counters make the
  // fast path (vs the rebuild fallback) visible.
  void GrantRevoke(const std::string& verb, const std::string& user,
                   const std::string& function) {
    if (user.empty() || function.empty()) {
      std::printf("usage: %s <user> <function>\n", verb.c_str());
      return;
    }
    common::Status status =
        verb == "grant" ? session_->AddCapability(user, function)
                        : session_->RemoveCapability(user, function);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    if (verb == "grant") {
      std::printf("granted %s to %s\n", function.c_str(), user.c_str());
    } else {
      obs::MetricsRegistry& metrics = session_->metrics();
      std::printf(
          "revoked %s from %s (%lld retraction(s) fast, %lld fell back to"
          " rebuild)\n",
          function.c_str(), user.c_str(),
          static_cast<long long>(
              metrics.counter("session.retractions_fast")->value()),
          static_cast<long long>(
              metrics.counter("session.retractions_fallback")->value()));
    }
    std::printf("(run 'recheck' to re-audit)\n");
  }

  // Re-audits every requirement against the overlay capability state,
  // serving closures from the session's incremental cache.
  void Recheck() {
    auto reports = session_->RecheckRequirements(workspace_.requirements);
    if (!reports.ok()) {
      std::printf("error: %s\n", reports.status().ToString().c_str());
      return;
    }
    last_reports_ = std::move(reports).value();
    for (size_t i = 0; i < last_reports_.size(); ++i) {
      std::printf("[%zu] %s", i, last_reports_[i].ToString().c_str());
    }
    const core::ClosureCache::Stats& stats =
        session_->recheck_cache().stats();
    std::printf(
        "(%llu exact hit(s), %llu warm, %llu retracted, %llu cold)\n",
        static_cast<unsigned long long>(stats.exact_hits),
        static_cast<unsigned long long>(stats.warm_builds),
        static_cast<unsigned long long>(stats.retract_builds),
        static_cast<unsigned long long>(stats.cold_builds));
  }

  // Like Analyze(), but through AnalysisService: users sharing a
  // capability signature share one closure, and the distinct closures
  // and the per-requirement checks run on a worker pool. The service
  // (and so its closure cache) persists across `batch` commands; it is
  // rebuilt only when the requested thread count changes.
  void Batch(int threads) {
    if (service_ == nullptr || service_->thread_count() != threads) {
      service_ =
          std::make_unique<service::AnalysisService>(*session_, threads);
    }
    auto reports = service_->CheckBatch(workspace_.requirements);
    if (!reports.ok()) {
      std::printf("error: %s\n", reports.status().ToString().c_str());
      return;
    }
    last_reports_ = std::move(reports).value();
    for (size_t i = 0; i < last_reports_.size(); ++i) {
      std::printf("[%zu] %s", i, last_reports_[i].ToString().c_str());
    }
    service::ServiceStats stats = service_->Stats();
    std::printf(
        "(%d thread(s): %zu check(s), %zu closure(s) built, "
        "%zu signature hit(s), %zu requirement hit(s), "
        "%zu snapshot hit(s))\n",
        service_->thread_count(), stats.checks, stats.closures_built,
        stats.signature_hits, stats.requirement_hits, stats.snapshot_hits);
  }

  // Like Batch(), but forked across worker processes (service/shard.h):
  // requirements are routed by capability signature and the merged
  // report is byte-identical to single-process CheckBatch. The armed
  // snapshot store (if any) is served to the workers as their shared
  // L2, and what they build is saved back into it.
  void Shard(int shards) {
    // fork() wants a single-threaded image: retire the in-process
    // service's pool first.
    service_.reset();
    service::ShardOptions options;
    options.shard_count = shards;
    options.closure = session_->closure_options();
    options.snapshot_store = store_;
    options.save_snapshots = store_ != nullptr;
    std::vector<std::string> workers;
    for (int s = 0; s < shards; ++s) {
      workers.push_back(common::StrCat("shard ", s));
    }
    PrintSharded(service::RunShardedBatch(*workspace_.schema,
                                          *workspace_.users,
                                          workspace_.requirements, options,
                                          &session_->obs()),
                 workers);
  }

  // Like Shard(), but streamed to already-running TCP workers
  // (service/tcp_shard.h) — the same transport over a fleet started
  // elsewhere with `serve`.
  void ShardTcp(const std::vector<std::string>& addresses) {
    if (addresses.empty()) {
      std::printf("usage: shard tcp <host:port> [<host:port> ...]\n");
      return;
    }
    service::TcpTransportOptions options;
    options.workers = addresses;
    options.closure = session_->closure_options();
    options.snapshot_store = store_;
    options.save_snapshots = store_ != nullptr;
    service::TcpTransport transport(options);
    PrintSharded(transport.Run(*workspace_.schema, *workspace_.users,
                               workspace_.requirements, &session_->obs()),
                 addresses);
  }

  void PrintSharded(common::Result<service::ShardedBatchResult> sharded,
                    const std::vector<std::string>& workers) {
    if (!sharded.ok()) {
      std::printf("error: %s\n", sharded.status().ToString().c_str());
      return;
    }
    last_reports_ = std::move(sharded.value().reports);
    for (size_t i = 0; i < last_reports_.size(); ++i) {
      std::printf("[%zu] %s", i, last_reports_[i].ToString().c_str());
    }
    const service::ServiceStats& stats = sharded.value().merged_stats;
    std::printf(
        "(%zu worker(s): %zu check(s), %zu closure(s) built, "
        "%zu signature hit(s), %zu snapshot hit(s))\n",
        workers.size(), stats.checks, stats.closures_built,
        stats.signature_hits, stats.snapshot_hits);
    for (size_t w = 0; w < workers.size(); ++w) {
      std::printf("  %s: %zu requirement(s), %zu closure(s) built, "
                  "%zu snapshot hit(s)\n",
                  workers[w].c_str(), sharded.value().shard_requirements[w],
                  sharded.value().shard_stats[w].closures_built,
                  sharded.value().shard_stats[w].snapshot_hits);
    }
  }

  // Turns this shell into a shard worker: serves batches from TCP
  // coordinators (the `shard tcp` command in another shell) until the
  // process is killed. The armed snapshot store (if any) becomes the
  // worker's local L2; otherwise the coordinator's store is mounted
  // over the wire when one is advertised.
  void Serve(int port) {
    if (port <= 0 || port > 65535) {
      std::printf("usage: serve <port>\n");
      return;
    }
    auto listener = net::Listener::Bind(static_cast<uint16_t>(port),
                                        /*loopback_only=*/false);
    if (!listener.ok()) {
      std::printf("error: %s\n", listener.status().ToString().c_str());
      return;
    }
    std::printf("worker: serving shard batches on port %u\n",
                listener.value().port());
    std::fflush(stdout);
    service::TcpWorkerOptions options;
    options.closure = session_->closure_options();
    options.snapshot_store = store_;
    auto status = service::ServeShardWorker(listener.value(),
                                            *workspace_.schema, options);
    std::printf("error: %s\n", status.ToString().c_str());
  }

  // (Re)builds the session guard against the current session's options
  // and the armed store (if any): the guard's signature cache shares
  // the snapshot tier, so `guard load` warms serving-path sessions from
  // closures a previous process saved.
  void RebuildGuard() {
    dynamic::GuardOptions options;
    options.closure = session_->closure_options();
    options.snapshot_store = store_;
    options.obs = &session_->obs();
    guard_ = std::make_unique<dynamic::SessionGuard>(
        *workspace_.schema, *workspace_.users, workspace_.requirements,
        options);
  }

  // Rebuilds the session with `threads` fixpoint workers per closure
  // build (0 = auto-detect cores, 1 = sequential). Derivation logs are
  // byte-identical at every setting, so the swap only changes build
  // speed; the caches restart because the session does.
  void Fixpoint(int threads) {
    if (threads < 0) {
      std::printf("fixpoint threads: %d\n",
                  session_->closure_options().closure_threads);
      return;
    }
    service_.reset();
    core::SessionOptions options = session_->options();
    options.closure.closure_threads = threads;
    session_ = std::make_unique<core::AnalysisSession>(
        *workspace_.schema, *workspace_.users, options);
    RebuildGuard();
    std::printf("closure fixpoint threads = %d%s\n", threads,
                threads == 0 ? " (auto)" : "");
  }

  // Rebuilds the session with `store` armed as the L2 tier. The store
  // is part of the cache configuration, so the session (and its caches)
  // restart; the recorded trace — and any open guard sessions — do not
  // survive the rebuild.
  void ArmStore(std::shared_ptr<snapshot::SnapshotStore> store) {
    store_ = std::move(store);
    service_.reset();
    core::SessionOptions options = session_->options();
    options.snapshot_store = store_;
    session_ = std::make_unique<core::AnalysisSession>(
        *workspace_.schema, *workspace_.users, options);
    RebuildGuard();
    std::printf("snapshot tier armed (%s)\n",
                store_->Stats().description.c_str());
  }

  void Snapshot(const std::string& subcommand, const std::string& path) {
    if (subcommand == "pack") {
      if (path.empty()) {
        std::printf("usage: snapshot pack <path>\n");
        return;
      }
      auto store = snapshot::OpenPackedStore(path);
      if (!store.ok()) {
        std::printf("error: %s\n", store.status().ToString().c_str());
        return;
      }
      ArmStore(std::move(store).value());
      return;
    }
    if (subcommand != "save" && subcommand != "load" &&
        subcommand != "stats" && subcommand != "compact") {
      std::printf(
          "usage: snapshot pack <path> | save | load | stats | compact\n");
      return;
    }
    if (store_ == nullptr) {
      std::printf("no snapshot store ('snapshot pack <path>' first)\n");
      return;
    }
    if (subcommand == "stats") {
      snapshot::StoreStats stats = store_->Stats();
      std::printf(
          "%s: %llu entr%s, %llu byte(s) (%llu live, %llu stale), "
          "%llu find(s) / %llu save(s) / %llu sweep(s), "
          "page cache %llu hit(s) / %llu miss(es) / %llu eviction(s)\n",
          stats.description.c_str(),
          static_cast<unsigned long long>(stats.entries),
          stats.entries == 1 ? "y" : "ies",
          static_cast<unsigned long long>(stats.file_bytes),
          static_cast<unsigned long long>(stats.live_bytes),
          static_cast<unsigned long long>(stats.stale_bytes),
          static_cast<unsigned long long>(stats.finds),
          static_cast<unsigned long long>(stats.saves),
          static_cast<unsigned long long>(stats.sweeps),
          static_cast<unsigned long long>(stats.page_cache_hits),
          static_cast<unsigned long long>(stats.page_cache_misses),
          static_cast<unsigned long long>(stats.page_cache_evictions));
      return;
    }
    if (subcommand == "compact") {
      auto swept = store_->Sweep(snapshot::SchemaFingerprint(
          *workspace_.schema, session_->closure_options()));
      if (!swept.ok()) {
        std::printf("error: %s\n", swept.status().ToString().c_str());
        return;
      }
      std::printf(
          "kept %llu record(s), swept %llu, reclaimed %llu byte(s)\n",
          static_cast<unsigned long long>(swept.value().records_kept),
          static_cast<unsigned long long>(swept.value().records_swept),
          static_cast<unsigned long long>(swept.value().bytes_reclaimed));
      return;
    }
    if (service_ == nullptr) {
      service_ = std::make_unique<service::AnalysisService>(*session_, 4);
    }
    if (subcommand == "save") {
      common::Status status = service_->SaveCacheSnapshot();
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
        return;
      }
      std::printf("saved %zu cached closure(s) to the store\n",
                  service_->cache_size());
    } else {
      size_t loaded = service_->LoadCacheSnapshot();
      std::printf("loaded %zu snapshot(s) from the store\n", loaded);
    }
  }

  // Guard administration: tier counters, open sessions, snapshot-tier
  // persistence. Query execution stays on RunQuery ('guard <user> ...').
  void GuardAdmin(const std::string& subcommand) {
    if (subcommand == "stats") {
      dynamic::GuardStats stats = guard_->Stats();
      std::printf(
          "%llu decision(s): %llu fast-path allow(s), %llu session"
          " hit(s), %llu exact hit(s), %llu delta recheck(s), %llu cold"
          " build(s), %llu denial(s)\n",
          static_cast<unsigned long long>(stats.decisions),
          static_cast<unsigned long long>(stats.fastpath_allows),
          static_cast<unsigned long long>(stats.session_hits),
          static_cast<unsigned long long>(stats.exact_hits),
          static_cast<unsigned long long>(stats.delta_rechecks),
          static_cast<unsigned long long>(stats.cold_builds),
          static_cast<unsigned long long>(stats.denials));
      std::printf(
          "signature cache: %llu exact hit(s), %llu warm, %llu cold,"
          " %llu snapshot hit(s)\n",
          static_cast<unsigned long long>(stats.cache.exact_hits),
          static_cast<unsigned long long>(stats.cache.warm_builds),
          static_cast<unsigned long long>(stats.cache.cold_builds),
          static_cast<unsigned long long>(stats.cache.snapshot_hits));
      return;
    }
    if (subcommand == "sessions") {
      std::vector<std::string> users = guard_->SessionUsers();
      if (users.empty()) {
        std::printf("no open sessions\n");
        return;
      }
      for (const std::string& user : users) {
        dynamic::SessionGuard::SessionProbe probe = guard_->Probe(user);
        std::vector<std::string> committed(probe.committed.begin(),
                                           probe.committed.end());
        std::printf("%s: %zu committed (%s), %zu checked by the live"
                    " closure\n",
                    user.c_str(), probe.committed.size(),
                    common::Join(committed, ", ").c_str(),
                    probe.checked.size());
      }
      return;
    }
    if (store_ == nullptr) {
      std::printf("no snapshot store ('snapshot pack <path>' first)\n");
      return;
    }
    if (subcommand == "save") {
      common::Status status = guard_->SaveCacheSnapshot();
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
        return;
      }
      std::printf("saved the guard's cached closures to the store\n");
    } else {
      size_t loaded = guard_->LoadCacheSnapshot();
      std::printf("loaded %zu snapshot(s) into the guard cache\n", loaded);
    }
  }

  void Trace(const std::string& subcommand, const std::string& file) {
    if (subcommand == "on") {
      session_->tracer().set_enabled(true);
      std::printf("tracing on (recording restarted)\n");
    } else if (subcommand == "off") {
      session_->tracer().set_enabled(false);
      std::printf("tracing off (%zu span(s) kept; 'trace dump' to view)\n",
                  session_->tracer().span_count());
    } else if (subcommand == "dump") {
      if (file.empty()) {
        obs::ConsoleTableSink sink(std::cout);
        obs::Emit(session_->obs(), sink);
        return;
      }
      std::ofstream out(file);
      if (!out) {
        std::printf("cannot open '%s'\n", file.c_str());
        return;
      }
      obs::JsonLinesSink sink(out);
      obs::Emit(session_->obs(), sink);
      std::printf("wrote %zu span(s) to %s\n",
                  session_->tracer().span_count(), file.c_str());
    } else {
      std::printf("usage: trace on|off|dump [file]\n");
    }
  }

  void Explain(size_t index) {
    if (last_reports_.empty()) Analyze();
    if (index >= last_reports_.size()) {
      std::printf("no requirement [%zu]\n", index);
      return;
    }
    const core::AnalysisReport& report = last_reports_[index];
    if (report.satisfied) {
      std::printf("requirement [%zu] is satisfied; nothing to explain\n",
                  index);
      return;
    }
    std::printf("%s\n%s", report.flaws[0].description.c_str(),
                report.flaws[0].derivation.c_str());
  }

  void RunQuery(const std::string& user_name, const std::string& source,
                bool guarded) {
    const schema::User* user = workspace_.users->Find(user_name);
    if (user == nullptr) {
      std::printf("unknown user '%s'\n", user_name.c_str());
      return;
    }
    auto parsed = query::ParseQueryString(source);
    if (!parsed.ok()) {
      std::printf("parse error: %s\n", parsed.status().ToString().c_str());
      return;
    }
    auto bound = query::BindQuery(*parsed.value(), *workspace_.schema);
    if (!bound.ok()) {
      std::printf("bind error: %s\n", bound.ToString().c_str());
      return;
    }
    common::Result<query::QueryResult> result = [&] {
      if (guarded) {
        return guard_->Run(*workspace_.database, *user, *parsed.value());
      }
      query::QueryEvaluator evaluator(*workspace_.database, user);
      return evaluator.Run(*parsed.value());
    }();
    if (!result.ok()) {
      std::printf("%s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%s(%zu row(s))\n", result->ToString().c_str(),
                result->rows.size());
  }

  text::Workspace workspace_;
  // unique_ptr: `snapshot dir` rebuilds the session with the tier armed.
  std::unique_ptr<core::AnalysisSession> session_;
  // Lazily built on the first `batch`, kept so the closure cache (and
  // the session's metrics, which it feeds) survive across commands.
  std::unique_ptr<service::AnalysisService> service_;
  // unique_ptr: ArmStore rebuilds the guard sharing the armed store.
  std::unique_ptr<dynamic::SessionGuard> guard_;
  std::vector<core::AnalysisReport> last_reports_;
  // Null until `snapshot dir`/`snapshot pack` arms the persistent tier.
  std::shared_ptr<snapshot::SnapshotStore> store_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <workspace.odb> [command...]\n"
                 "With no command, reads commands from stdin.\n",
                 argv[0]);
    return 2;
  }
  auto workspace = text::LoadWorkspaceFile(argv[1]);
  if (!workspace.ok()) {
    std::fprintf(stderr, "%s\n", workspace.status().ToString().c_str());
    return 1;
  }
  Shell shell(std::move(workspace).value());

  if (argc > 2) {
    std::vector<std::string> pieces;
    for (int i = 2; i < argc; ++i) pieces.emplace_back(argv[i]);
    shell.Handle(common::Join(pieces, " "));
    return 0;
  }

  std::string line;
  bool tty_prompt = isatty(fileno(stdin)) != 0;
  while (true) {
    if (tty_prompt) std::printf("oodbsec> ");
    if (!std::getline(std::cin, line)) break;
    if (!shell.Handle(line)) break;
  }
  return 0;
}
