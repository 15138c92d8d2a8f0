// Fleet audit — the batch analysis service on a role-shaped population.
//
// A brokerage with three roles (clerk, updater, auditor) and a dozen
// accounts per role wants its whole requirement sheet re-checked
// nightly. Per-account analysis would unfold and close 36 capability
// lists; the AnalysisService recognises that accounts of one role carry
// permuted-identical grants, builds exactly three closures (in
// parallel), and serves the other 33 checks from its signature cache —
// then double-checks itself against the sequential analyzer.
//
// The same sheet then runs through the sharded multi-process path
// (service/shard.h): four forked TCP workers, requirements routed by
// capability signature, reports merged byte-identical to the
// single-process batch. The first sharded run persists every closure
// it builds into a packed snapshot store (one segment file; the
// workers save through the coordinator's store server, its single
// writer). Then the fleet is "killed": the store object is dropped and
// the pack reopened cold, and a second sharded run rebuilds nothing —
// every signature replays from the segment.
//
// With --transport=tcp the audit goes one step further: after the fork
// passes (which need the single-threaded image) a loopback TCP fleet is
// started in-process — worker threads with no local state — and the
// coordinator streams the same sheet over sockets while serving its
// packed store over the wire. The workers warm entirely from the networked snapshot
// tier (three remote hits, zero builds) and the merged report is
// asserted byte-identical to fork, batch, and the sequential analyzer.
//
//   $ ./fleet_audit                    # fork transport only
//   $ ./fleet_audit --transport=tcp    # ... plus the TCP loopback fleet
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/requirement.h"
#include "net/socket.h"
#include "service/analysis_service.h"
#include "service/shard.h"
#include "service/tcp_shard.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot_store.h"
#include "text/workspace.h"

namespace {

using namespace oodbsec;

// The stockbroker schema with the three paper roles; accounts are
// registered programmatically below.
constexpr const char* kSchema = R"(
class Broker { b_name: string; salary: int; budget: int; profit: int; }

function checkBudget(broker: Broker): bool =
  r_budget(broker) >= 10 * r_salary(broker);

function calcSalary(budget: int, profit: int): int =
  budget / 10 + profit / 2;

function updateSalary(broker: Broker): null =
  w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)));

user template can r_b_name;
)";

struct Role {
  const char* name;
  std::vector<const char*> grants;
  const char* requirement;  // per-account, %s = account name
};

}  // namespace

int main(int argc, char** argv) {
  bool use_tcp = false;
  int closure_threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transport=tcp") == 0) {
      use_tcp = true;
    } else if (std::strcmp(argv[i], "--transport=fork") == 0) {
      use_tcp = false;
    } else if (std::strncmp(argv[i], "--closure-threads=", 18) == 0) {
      closure_threads = std::atoi(argv[i] + 18);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--transport=fork|tcp]"
                   " [--closure-threads=N]\n",
                   argv[0]);
      return 2;
    }
  }

  auto loaded = text::LoadWorkspace(kSchema);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  text::Workspace workspace = std::move(loaded).value();

  const std::vector<Role> roles = {
      {"clerk",
       {"checkBudget", "w_budget", "r_b_name"},
       "(%s, r_salary(x) : ti)"},
      {"updater",
       {"updateSalary", "w_budget", "w_profit", "r_b_name"},
       "(%s, w_salary(a, v : ta))"},
      {"auditor", {"checkBudget", "r_b_name"}, "(%s, r_salary(x) : pi)"},
  };
  constexpr int kAccountsPerRole = 12;

  std::vector<core::Requirement> sheet;
  for (const Role& role : roles) {
    for (int k = 0; k < kAccountsPerRole; ++k) {
      std::string account = common::StrCat(role.name, k);
      if (!workspace.users->AddUser(account).ok()) std::abort();
      for (const char* grant : role.grants) {
        if (!workspace.users->Grant(account, grant).ok()) std::abort();
      }
      char requirement[128];
      std::snprintf(requirement, sizeof requirement, role.requirement,
                    account.c_str());
      auto parsed = core::ParseRequirementString(requirement);
      if (!parsed.ok()) std::abort();
      sheet.push_back(std::move(parsed).value());
    }
  }

  // Sharded pass first: fork() wants a single-threaded image, and no
  // thread pool exists yet. The workers persist what they build into a
  // fresh packed snapshot store for the restart demo below.
  char dir_template[] = "/tmp/oodbsec_fleet_snap.XXXXXX";
  const char* store_dir = ::mkdtemp(dir_template);
  if (store_dir == nullptr) std::abort();
  const std::string pack_path = common::StrCat(store_dir, "/fleet.pack");
  auto store = snapshot::OpenPackedStore(pack_path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }

  // --closure-threads=N parallelizes every fixpoint the fleet builds
  // (workers, batch service, TCP fleet alike); the reports stay byte
  // identical because the engine's derivation logs do (0 = auto).
  service::ShardOptions shard_options;
  shard_options.shard_count = 4;
  shard_options.closure.closure_threads = closure_threads;
  shard_options.snapshot_store = store.value();
  shard_options.save_snapshots = true;
  auto sharded = service::RunShardedBatch(*workspace.schema, *workspace.users,
                                          sheet, shard_options);
  if (!sharded.ok()) {
    std::fprintf(stderr, "%s\n", sharded.status().ToString().c_str());
    return 1;
  }

  // Single-process batch, scoped so its pool is gone before the next
  // fork. Keep the rendered reports for the byte-identity check.
  std::vector<std::string> batch_text;
  service::ServiceStats stats;
  int threads = 0;
  {
    core::SessionOptions options;
    options.threads = 4;
    options.closure.closure_threads = closure_threads;
    core::AnalysisSession session(*workspace.schema, *workspace.users,
                                  options);
    service::AnalysisService svc(session);
    auto reports = svc.CheckBatch(sheet);
    if (!reports.ok()) {
      std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
      return 1;
    }

    // One line per role (every account of a role gets the same verdict);
    // flag any account that disagrees with its role's first account.
    for (size_t r = 0; r < roles.size(); ++r) {
      const core::AnalysisReport& first = (*reports)[r * kAccountsPerRole];
      std::printf("%-8s x%d  %s", roles[r].name, kAccountsPerRole,
                  first.ToString().c_str());
    }

    stats = svc.Stats();
    threads = svc.thread_count();
    std::printf(
        "\n%zu checks on %d threads: %zu closures built, %zu requirement "
        "hits (%.0f%% of checks served by a shared closure), "
        "%zu snapshot hits\n",
        stats.checks, threads, stats.closures_built, stats.requirement_hits,
        100.0 * stats.RequirementHitRate(), stats.snapshot_hits);

    // Self-check: the batch must agree with the sequential analyzer,
    // report for report.
    for (size_t i = 0; i < sheet.size(); ++i) {
      auto sequential = core::CheckRequirement(*workspace.schema,
                                               *workspace.users, sheet[i]);
      if (!sequential.ok() ||
          sequential->ToString() != (*reports)[i].ToString()) {
        std::fprintf(stderr, "MISMATCH at requirement %zu\n", i);
        return 1;
      }
    }
    for (const core::AnalysisReport& report : *reports) {
      batch_text.push_back(report.ToString());
    }
  }
  if (stats.closures_built != roles.size()) {
    std::fprintf(stderr, "expected %zu closures, built %zu\n", roles.size(),
                 stats.closures_built);
    return 1;
  }
  std::printf("batch verdicts match the sequential analyzer, "
              "one closure per role\n");

  // Byte-identity: the merged sharded report must render exactly as the
  // single-process batch, requirement for requirement.
  for (size_t i = 0; i < sheet.size(); ++i) {
    if (sharded->reports[i].ToString() != batch_text[i]) {
      std::fprintf(stderr, "SHARD MISMATCH at requirement %zu\n", i);
      return 1;
    }
  }
  std::printf(
      "sharded audit (%d processes): reports byte-identical to the "
      "single-process batch, %zu closures built across shards\n",
      shard_options.shard_count, sharded->merged_stats.closures_built);

  // Fleet restart: drop the live store object (the "kill") and reopen
  // the pack cold, exactly as a rebooted coordinator would. Every
  // distinct signature replays from the segment — zero fixpoints — and
  // the merged report is still byte-identical.
  shard_options.snapshot_store.reset();
  store = snapshot::OpenPackedStore(pack_path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  shard_options.snapshot_store = store.value();
  auto restarted = service::RunShardedBatch(*workspace.schema,
                                            *workspace.users, sheet,
                                            shard_options);
  if (!restarted.ok()) {
    std::fprintf(stderr, "%s\n", restarted.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < sheet.size(); ++i) {
    if (restarted->reports[i].ToString() != batch_text[i]) {
      std::fprintf(stderr, "RESTART MISMATCH at requirement %zu\n", i);
      return 1;
    }
  }
  if (restarted->merged_stats.closures_built != 0 ||
      restarted->merged_stats.snapshot_hits != roles.size()) {
    std::fprintf(stderr,
                 "restart expected %zu snapshot hits and 0 builds, got %zu "
                 "hits and %zu builds\n",
                 roles.size(), restarted->merged_stats.snapshot_hits,
                 restarted->merged_stats.closures_built);
    return 1;
  }
  std::printf(
      "restarted fleet: %zu snapshot hits, 0 closures built — every role "
      "warm from disk, reports unchanged\n",
      restarted->merged_stats.snapshot_hits);

  // --transport=tcp: the networked fleet. Every fork has happened by
  // now, so worker threads are safe to start. Two loopback workers with
  // no local state mount the coordinator's pack over the wire; the
  // stream must warm every role remotely and still render the exact
  // bytes the fork transport, the batch service, and the sequential
  // analyzer all agreed on.
  if (use_tcp) {
    std::vector<std::unique_ptr<net::Listener>> listeners;
    std::vector<std::thread> worker_threads;
    std::atomic<bool> stop{false};
    service::TcpTransportOptions tcp_options;
    for (int w = 0; w < 2; ++w) {
      auto bound = net::Listener::Bind(0);
      if (!bound.ok()) {
        std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
        return 1;
      }
      listeners.push_back(
          std::make_unique<net::Listener>(std::move(bound).value()));
      tcp_options.workers.push_back(
          common::StrCat("127.0.0.1:", listeners.back()->port()));
      net::Listener* listener = listeners.back().get();
      const schema::Schema* schema = workspace.schema.get();
      worker_threads.emplace_back([listener, schema, &stop,
                                   closure_threads] {
        service::TcpWorkerOptions worker_options;
        worker_options.closure.closure_threads = closure_threads;
        auto status =
            service::ServeShardWorker(*listener, *schema, worker_options,
                                      &stop);
        if (!status.ok()) {
          std::fprintf(stderr, "%s\n", status.ToString().c_str());
          std::abort();
        }
      });
    }

    tcp_options.closure.closure_threads = closure_threads;
    tcp_options.snapshot_store = store.value();
    service::TcpTransport transport(tcp_options);
    auto tcp_run = transport.Run(*workspace.schema, *workspace.users, sheet,
                                 nullptr);
    int failed = 0;
    if (!tcp_run.ok()) {
      std::fprintf(stderr, "%s\n", tcp_run.status().ToString().c_str());
      failed = 1;
    } else {
      for (size_t i = 0; i < sheet.size(); ++i) {
        if (tcp_run->reports[i].ToString() != batch_text[i]) {
          std::fprintf(stderr, "TCP MISMATCH at requirement %zu\n", i);
          failed = 1;
          break;
        }
      }
      if (failed == 0 &&
          (tcp_run->merged_stats.closures_built != 0 ||
           tcp_run->merged_stats.snapshot_hits != roles.size())) {
        std::fprintf(
            stderr,
            "tcp fleet expected %zu remote snapshot hits and 0 builds, "
            "got %zu hits and %zu builds\n",
            roles.size(), tcp_run->merged_stats.snapshot_hits,
            tcp_run->merged_stats.closures_built);
        failed = 1;
      }
    }
    stop.store(true);
    for (std::thread& t : worker_threads) t.join();
    if (failed != 0) return 1;
    std::printf(
        "tcp fleet (%zu loopback workers): %zu remote snapshot hits, 0 "
        "closures built — fork = tcp = batch = sequential, byte for byte\n",
        tcp_options.workers.size(), tcp_run->merged_stats.snapshot_hits);
  }

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  return 0;
}
