// oodbsec end-to-end benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke]
//
// Generates the workload's inputs from the seed, starts a loopback TCP
// worker fleet, and measures three families on the generated workspace:
// cold population audits (in-process, fork, tcp), a packed-store restart,
// and the workload's request stream. Every output is checked against a
// known answer or the cold reference path. With --trace 1 a traced pass
// follows and the per-layer metrics are reported instead. The last line
// of stdout is one JSON object: correct, attempted, failed, metrics.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "generator.h"
#include "ledger.h"
#include "workloads.h"

namespace e2ebench {
namespace {

namespace schema = oodbsec::schema;
namespace text = oodbsec::text;

constexpr const char* kEndToEnd[] = {
    "setup_s",     "peak_rss_mb", "audit_inproc_s", "audit_fork_s", "audit_tcp_s",
    "restart_s",   "req_p50_us",  "req_tail_us",    "req_per_s"};

constexpr const char* kPerLayer[] = {
    "text.load_ms", "text.bytes", "unfold.build_ms", "unfold.nodes",
    "closure.build_ms", "closure.facts", "closure.rounds",
    "closure.useful_ratio", "closure.seed_ms", "closure.fixpoint_ms",
    "closure.compress_ms", "closure.thread_speedup", "check.ms", "check.sites",
    "cache.exact_hits", "cache.warm_builds", "cache.retract_builds",
    "cache.cold_builds", "cache.evictions", "cache.reuse_ratio",
    "session.grant_us", "session.revoke_us", "session.recheck_ms",
    "session.retractions_fast_ratio", "service.plan_ms", "service.build_ms",
    "service.check_ms", "service.requirement_hit_rate", "shard.overhead_ms",
    "tcp.overhead_ms", "shard.imbalance", "snapshot.save_us",
    "snapshot.find_us", "snapshot.bytes_per_fact",
    "snapshot.page_cache_hit_ratio", "guard.decide_us.fastpath",
    "guard.decide_us.session_hit", "guard.decide_us.exact",
    "guard.decide_us.delta", "guard.decide_us.cold",
    "guard.tier_share.fastpath", "guard.tier_share.session_hit",
    "guard.tier_share.exact", "guard.tier_share.delta",
    "guard.tier_share.cold", "guard.denials", "query.parse_us",
    "query.bind_us", "query.exec_us", "store.objects", "trace.overhead_ms",
    "trace.unattributed_ms"};

struct Args {
  Workload workload = Workload::kAuditDeep;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &args->workload);
      if (!have_workload) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload;
}

// Every metric of `set` named in `names`, as a JSON object; clears
// *complete (when given) if one is missing.
std::string MetricsJson(const MetricSet& set, const char* const* names,
                        size_t count, bool* complete) {
  std::string json = "{";
  for (size_t i = 0; i < count; ++i) {
    const Metric* metric = set.Find(names[i]);
    if (metric == nullptr) {
      if (complete != nullptr) {
        std::fprintf(stderr, "metric not measured: %s\n", names[i]);
        *complete = false;
      }
      continue;
    }
    if (json.size() > 1) json += ", ";
    json += JsonString(metric->name) + ": {\"value\": " +
            JsonNumber(metric->value) + ", \"unit\": " +
            JsonString(metric->unit) + "}";
  }
  return json + "}";
}

void PrintMetrics(const char* title, const MetricSet& set) {
  std::printf("%s\n", title);
  for (const Metric& m : set.all()) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Run(const Args& args) {
  const HostShape host = CurrentHost();
  std::printf("host %s\n", host.ToJson().c_str());
  if (host.build_type != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build; build Release\n",
                 host.build_type.c_str());
    return 2;
  }
  const int nproc = std::max(1, host.nproc);
  const Workload w = args.workload;
  const double S = args.seconds;

  Outcome outcome;
  MetricSet e2e, layer;

  // Set-up, several times; the last one's state is kept. Fork the
  // worker fleet while the process is still single-threaded.
  Samples setup;
  Inputs inputs;
  std::unique_ptr<text::Workspace> ws;
  std::unique_ptr<WorkerFleet> fleet;
  std::unique_ptr<TempDir> temp;
  for (int rep = 0; rep < (args.smoke ? 1 : 5); ++rep) {
    fleet.reset();
    temp.reset();
    const Clock::time_point t0 = Clock::now();
    inputs = Generate(w, args.seed, args.smoke, nproc);
    auto loaded = text::LoadWorkspace(inputs.workspace);
    if (!loaded.ok()) {
      std::fprintf(stderr, "generated workspace does not load: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    ws = std::make_unique<text::Workspace>(std::move(loaded).value());
    if (!SingleThreaded()) {
      std::fprintf(stderr, "set-up is not single-threaded before fork\n");
      return 1;
    }
    fleet = std::make_unique<WorkerFleet>(*ws->schema, inputs.width,
                                          inputs.closure_threads);
    temp = std::make_unique<TempDir>();
    if (!fleet->ok() || temp->path().empty()) {
      std::fprintf(stderr, "cannot start the worker fleet or temp dir\n");
      return 1;
    }
    if (!AuditInProcessOnce(inputs)) {
      std::fprintf(stderr, "warm-up audit failed\n");
      return 1;
    }
    setup.Add(SecondsSince(t0));
  }
  std::printf("workload %s seed %llu (holdout seed %llu) inputs digest %s, "
              "%zu workspace bytes, width %d, pool %d, closure threads %d\n",
              WorkloadName(w), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kHoldoutSeed),
              inputs.Digest().c_str(), inputs.workspace.size(), inputs.width,
              inputs.pool_threads, inputs.closure_threads);
  e2e.Set("setup_s", setup.Median(), "s");

  Bench b;
  b.in = &inputs;
  b.ws = ws.get();
  b.tcp_workers = &fleet->addresses();
  b.temp_dir = temp->path();
  b.smoke = args.smoke;
  b.nproc = nproc;
  b.outcome = &outcome;
  b.e2e = &e2e;
  b.layer = &layer;

  // The families run interleaved in rounds, each taking its share of
  // every round, so each samples the whole run rather than one stretch
  // of it: the host's speed drifts over tens of seconds. Each figure is
  // taken over the family's quieter half of the rounds (RoundSamples).
  AuditFamily audits(b);
  RestartFamily restart(b);
  AuditRequestFamily requests(b);
  GuardFamily guard(b);
  ChurnFamily churn(b);
  struct Slot {
    double share;
    std::function<void(Clock::time_point)> run;
  };
  std::vector<Slot> slots;
  auto audit_slot = [&](double share) {
    slots.push_back({share, [&](Clock::time_point d) { audits.Run(d); }});
  };
  auto restart_slot = [&](double share) {
    slots.push_back({share, [&](Clock::time_point d) { restart.Run(d); }});
  };
  switch (w) {
    case Workload::kAuditDeep:
    case Workload::kAuditWide:
      restart.SetPopulation(ws->users.get());
      audit_slot(0.6);
      restart_slot(0.15);
      slots.push_back({0.25, [&](Clock::time_point d) { requests.Run(d); }});
      break;
    case Workload::kGuardStream:
      restart.SetPopulation(ws->users.get());
      audit_slot(0.3);
      restart_slot(0.1);
      slots.push_back({0.6, [&](Clock::time_point d) { guard.Run(d); }});
      break;
    case Workload::kPolicyChurn:
      audit_slot(0.15);
      slots.push_back({0.7, [&](Clock::time_point d) {
                         churn.Run(d);
                         restart.SetPopulation(churn.final_users());
                       }});
      restart_slot(0.15);
      break;
  }
  const double round_s = std::min(2.0, S);
  const Clock::time_point start = Clock::now();
  do {
    for (const Slot& slot : slots) {
      slot.run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(slot.share *
                                                                round_s)));
    }
  } while (SecondsSince(start) < S);
  audits.Finish();
  restart.Finish();
  if (w == Workload::kAuditDeep || w == Workload::kAuditWide) requests.Finish();
  if (w == Workload::kGuardStream) guard.Finish();
  if (w == Workload::kPolicyChurn) churn.Finish();

  if (args.trace) {
    const Inputs guard_in = w == Workload::kGuardStream
                                ? inputs
                                : Generate(Workload::kGuardStream, args.seed,
                                           true, nproc);
    const Inputs churn_in = w == Workload::kPolicyChurn
                                ? inputs
                                : Generate(Workload::kPolicyChurn, args.seed,
                                           true, nproc);
    RunTraced(b, guard_in, churn_in);
  }
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");

  const double failed_ratio =
      outcome.attempted() == 0
          ? 1.0
          : static_cast<double>(outcome.failed()) /
                static_cast<double>(outcome.attempted());
  PrintMetrics("end-to-end metrics:", e2e);
  if (args.trace) PrintMetrics("per-layer metrics:", layer);
  std::printf("failed_ratio %.6f ratio (%llu failed / %llu attempted)\n",
              failed_ratio, static_cast<unsigned long long>(outcome.failed()),
              static_cast<unsigned long long>(outcome.attempted()));
  auto value = [&e2e](const char* name) {
    const Metric* metric = e2e.Find(name);
    return metric == nullptr ? 0.0 : metric->value;
  };
  if (w == Workload::kGuardStream) {
    std::printf("guard_qps %.3f queries/s, guard_p50_us %.3f us, "
                "guard_p99_us %.3f us\n",
                value("req_per_s"), value("req_p50_us"), value("req_tail_us"));
  }
  if (w == Workload::kPolicyChurn) {
    std::printf("churn_p50_ms %.6f ms, churn_p90_ms %.6f ms\n",
                value("req_p50_us") * 1e-3, value("req_tail_us") * 1e-3);
  }

  bool complete = true;
  const std::string metrics =
      args.trace ? MetricsJson(layer, kPerLayer, std::size(kPerLayer), &complete)
                 : MetricsJson(e2e, kEndToEnd, std::size(kEndToEnd), &complete);
  if (!complete) std::fprintf(stderr, "some metrics were not measured\n");
  const bool correct = outcome.failed() == 0 && complete;

  // The full record, host shape included, for run.py's comparison.
  std::error_code ec;
  std::filesystem::create_directories(".bench_results", ec);
  const std::string record_path = ".bench_results/" +
                                  std::string(WorkloadName(w)) + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  std::ofstream record(record_path);
  record << "{\"host\": " << host.ToJson() << ", \"workload\": "
         << JsonString(WorkloadName(w)) << ", \"seed\": " << args.seed
         << ", \"seconds\": " << JsonNumber(S)
         << ", \"digest\": " << JsonString(inputs.Digest())
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"metrics\": "
         << MetricsJson(e2e, kEndToEnd, std::size(kEndToEnd), nullptr)
         << ", \"layers\": "
         << MetricsJson(layer, kPerLayer, std::size(kPerLayer), nullptr)
         << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted()),
              static_cast<unsigned long long>(outcome.failed()),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload audit_deep|audit_wide|guard_stream|"
                 "policy_churn --seed N --seconds S --trace 0|1 [--smoke]\n",
                 argv[0]);
    return 2;
  }
  return e2ebench::Run(args);
}
